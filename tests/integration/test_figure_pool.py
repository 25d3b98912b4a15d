"""The figure generators run their seeded specs on the campaign supervisor.

``fig_*`` fan their runs out over forked workers when there are two or more
specs and cores, and run them in this process otherwise.  ``os.cpu_count``
is patched here, never a keyword option, so each path runs on any host.
These tests hold the pooled path to a plain ``execute_run`` loop byte for
byte, and hold a failed unit to one loud attempt that leaves no worker
behind.  Forked workers inherit the monkeypatches and the
:data:`~repro.experiments.campaign.CRASH_ONCE_ENV` hook.
"""

import dataclasses
import multiprocessing
import os

import pytest

import repro.experiments.campaign as campaign
import repro.experiments.figures as figures
from repro.experiments import (
    RunResult,
    SweepConfig,
    SweepResult,
    execute_run,
    fig_coexistence,
    fig_cwnd_traces,
    fig_dynamics,
    stable_digest,
    throughput_retransmit_sweep,
)

GENERATORS = {
    "sweep": lambda: throughput_retransmit_sweep(
        4, SweepConfig(hops=(2, 3), seeds=(1, 2), sim_time=1.5),
        ("muzha", "newreno")),
    "coexistence": lambda: fig_coexistence(
        "muzha", "newreno", hops_list=(2,), sim_time=1.5, seeds=(1, 2)),
    "cwnd": lambda: fig_cwnd_traces(2, sim_time=1.5),
    "dynamics": lambda: fig_dynamics(
        "newreno", hops=2, starts=(0.0, 0.5, 1.0), sim_time=2.0,
        sampler_interval=0.5),
}


def plain(figure):
    """A figure as canonical plain data, for ``stable_digest``."""
    if isinstance(figure, RunResult):
        return figure.to_dict()
    if isinstance(figure, SweepResult):
        return [[variant, hops, dataclasses.asdict(point)]
                for (variant, hops), point in sorted(figure.points.items())]
    if isinstance(figure, list):
        return [dataclasses.asdict(point) for point in figure]
    return figure


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_pooled_figure_is_byte_identical_to_a_serial_loop(name, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    transports, calls = [], []
    real_pool, real_run_specs = campaign._run_pool, figures._run_specs

    def recording_pool(transport, *args):
        transports.append(type(transport).__name__)
        return real_pool(transport, *args)

    def recording_run_specs(specs):
        results = real_run_specs(specs)
        calls.append((list(specs), results))
        return results

    monkeypatch.setattr(campaign, "_run_pool", recording_pool)
    monkeypatch.setattr(figures, "_run_specs", recording_run_specs)
    pooled = GENERATORS[name]()
    (specs, results), = calls
    assert transports == (
        ["InlineTransport"] if len(specs) == 1 else ["PipeTransport"])
    assert multiprocessing.active_children() == []

    serial_results = [execute_run(spec) for spec in specs]
    assert [stable_digest(r.to_dict()) for r in results] == [
        stable_digest(r.to_dict()) for r in serial_results]
    # The same fold over the serial loop's results draws the same figure.
    monkeypatch.setattr(figures, "_run_specs", lambda specs: serial_results)
    serial = GENERATORS[name]()
    assert stable_digest(plain(pooled)) == stable_digest(plain(serial))


@pytest.mark.parametrize("cores", [2, 1], ids=["pooled", "inline"])
def test_a_raising_unit_fails_the_figure_after_one_attempt(
    cores, tmp_path, monkeypatch
):
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    attempts = tmp_path / "attempts"
    real = campaign._execute_unit

    def patched(args):
        index, spec = args
        if spec.variants == ("newreno",):
            with open(attempts, "a") as log:
                log.write(f"{index}\n")
            raise ValueError("scripted defect")
        return real(args)

    monkeypatch.setattr(campaign, "_execute_unit", patched)
    with pytest.raises(RuntimeError, match=(
        r"^chain run hops=2 variants=newreno seed=1 failed: "
        r"ValueError: scripted defect$"
    )):
        fig_cwnd_traces(2, variants=("muzha", "newreno", "sack"),
                        sim_time=1.0)
    assert attempts.read_text().splitlines() == ["1"]
    assert multiprocessing.active_children() == []


def test_a_crashed_worker_fails_the_figure_after_one_attempt(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sentinel = tmp_path / "crashed"
    monkeypatch.setenv(campaign.CRASH_ONCE_ENV, f"{sentinel}:1")
    # The hook crashes unit 1 once only: a second attempt would succeed,
    # so the error itself shows the unit got exactly one.
    with pytest.raises(RuntimeError, match=(
        r"^chain run hops=2 variants=newreno seed=1 failed: "
        r"worker crashed \(exit code 13\)$"
    )):
        fig_cwnd_traces(2, variants=("muzha", "newreno", "sack"),
                        sim_time=1.0)
    assert sentinel.exists()
    assert multiprocessing.active_children() == []
