"""Unit tests for the repro-muzha CLI."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import (
    SweepConfig,
    fig_coexistence,
    format_coexistence,
    format_sweep,
    throughput_retransmit_sweep,
)
from repro.transport import known_variants

HELP_GOLDENS = Path(__file__).parent.parent / "data" / "help"
SUBCOMMANDS = ("chain", "sweep", "cross", "dynamics", "campaign", "trace",
               "stats", "profile", "report", "doctor", "tables")


def test_every_subcommand_has_a_help_golden():
    choices = build_parser()._subparsers._group_actions[0].choices
    assert tuple(choices) == SUBCOMMANDS
    assert sorted(path.stem for path in HELP_GOLDENS.glob("*.txt")) == sorted(
        SUBCOMMANDS + ("repro-muzha",))


@pytest.mark.parametrize("command", ("repro-muzha",) + SUBCOMMANDS)
def test_help_equals_the_committed_golden(command, monkeypatch):
    """``tests/data/help/<command>.txt`` is ``--help`` as printed at
    ``COLUMNS=80`` by the commit before the CLI built its runs from one
    ``_spec_from_args``.  A deliberate flag change shows up as a reviewed
    diff of a text file; anything else is a regression.  Normalised: the
    one heading Python 3.10 renamed (CI runs 3.9 and 3.12) and the line
    breaks of the usage paragraph, which 3.13 wraps differently."""
    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser()
    if command != "repro-muzha":
        parser = parser._subparsers._group_actions[0].choices[command]
    golden = (HELP_GOLDENS / f"{command}.txt").read_text()

    def normalise(text):
        text = text.replace("optional arguments:", "options:")
        usage, _, rest = text.partition("\n\n")
        return " ".join(usage.split()) + "\n\n" + rest

    assert normalise(parser.format_help()) == normalise(golden)


def test_parser_builds_and_knows_all_subcommands():
    parser = build_parser()
    for command in ("chain", "sweep", "cross", "dynamics", "campaign", "tables"):
        args = parser.parse_args([command] if command == "tables" else [command])
        assert args.command == command
    assert parser.parse_args(["profile", "chain"]).command == "profile"


def test_profile_command_reports_hot_spots(tmp_path, capsys):
    out_path = tmp_path / "chain.prof"
    assert main([
        "profile", "chain", "--hops", "2", "--time", "2",
        "--limit", "5", "--out", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "function calls" in out
    assert "scheduler" in out  # the run loop must show up in the top rows
    assert out_path.exists()
    import pstats

    stats = pstats.Stats(str(out_path))
    assert stats.total_calls > 0


def test_profile_command_says_what_a_frame_cost(capsys):
    import re

    assert main(["profile", "chain", "--hops", "4", "--time", "1",
                 "--window", "8", "--limit", "1"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    match = re.fullmatch(
        r"frames (\d+)  events (\d+) \(([\d.]+) per frame\)"
        r"  calls (\d+) \(([\d.]+) per frame\)", first)
    assert match, first
    frames, events, calls = (int(match[i]) for i in (1, 2, 4))
    assert frames == 858  # the scene of tests/unit/test_hot_path_budget.py
    assert match[3] == f"{events / frames:.2f}"
    assert match[5] == f"{calls / frames:.1f}"
    assert events / frames <= 9.0


def test_tables_command(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table 5.1" in out and "Table 5.2" in out
    assert "2Mbps" in out and "AODV" in out


def test_policy_params_value_errors_exit_cleanly():
    """Out-of-range, unknown, mistyped or non-object params must not
    traceback.  All but the first two used to pass the CLI and die mid-run
    with an ``AttributeError`` / ``TypeError``, or run on a NaN or a bool."""
    not_objects = ['[1]', '"abc"', 'NaN', 'true']
    cases = [("hysteresis", '{"sustain_up": 0}'),
             ("fuzzy", '{"sustain_up": 3}')] + [
        (policy, payload)
        for policy in ("fuzzy", "hysteresis") for payload in not_objects
    ] + [
        ("fuzzy", '{"queue_hard_hi": "x"}'),
        ("fuzzy", '{"queue_hard_hi": NaN}'),
        ("fuzzy", '{"queue_hard_hi": true}'),
        ("hysteresis", '{"util_low": "x"}'),
        ("hysteresis", '{"util_low": NaN}'),
        ("hysteresis", '{"sustain_up": true}'),
        ("hysteresis", '{"sustain_up": 2.0}'),
    ]
    for policy, payload in cases:
        with pytest.raises(SystemExit, match=f"bad --policy-params for '{policy}'"):
            main([
                "chain", "--hops", "2", "--time", "2",
                "--policy", policy, "--policy-params", payload,
            ])


@pytest.mark.parametrize("payload, reason", [
    ('{"queue_hard_hi": 2}', "need queue_hard_lo < queue_hard_hi"),
    ('{"util_low_lo": 0.5, "util_low_hi": 0.5}', "need util_low_lo < util_low_hi"),
    ('{"occ_sat_lo": 0.9}', "need occ_sat_lo < occ_sat_hi"),
], ids=["queue-hard", "util-low-equal", "occ-sat"])
def test_an_inverted_drai_band_is_refused_before_the_run(payload, reason,
                                                         capsys):
    """Each passed ``ScenarioConfig`` and died mid-run in the fuzzy
    quantiser's ``_ramp`` with ``ValueError: need low < high``."""
    with pytest.raises(SystemExit) as exit_info:
        main(["chain", "--hops", "2", "--time", "2",
              "--policy", "fuzzy", "--policy-params", payload])
    message = str(exit_info.value.code)
    assert message.startswith("bad --policy-params for 'fuzzy': ")
    assert reason in message and "\n" not in message
    assert capsys.readouterr().out == ""


def test_a_removed_policy_is_an_invalid_choice(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["chain", "--hops", "2", "--time", "1", "--policy", "queue-trend"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'queue-trend'" in capsys.readouterr().err


def test_a_removed_variant_is_an_invalid_choice_and_fails_where_built(capsys):
    """DESIGN.md §5: ``westwood``, ``tahoe`` and ``reno`` left the registry,
    so the CLI refuses each and a spec naming one fails where it is built,
    with the known names."""
    from repro.experiments import RunSpec

    for name in ("westwood", "tahoe", "reno"):
        with pytest.raises(SystemExit) as exit_info:
            main(["chain", "--hops", "2", "--time", "1", "--variant", name])
        assert exit_info.value.code == 2
        assert f"invalid choice: '{name}'" in capsys.readouterr().err
        with pytest.raises(ValueError,
                           match=f"unknown TCP variant '{name}'; known:"):
            RunSpec("chain", 2, (name,))


def test_chain_command_runs_small_scenario(capsys):
    assert main(["chain", "--hops", "2", "--time", "3", "--variant", "newreno"]) == 0
    out = capsys.readouterr().out
    assert "goodput" in out
    assert "kbps" in out


def test_chain_command_with_trace(capsys):
    assert main(
        ["chain", "--hops", "2", "--time", "2", "--variant", "muzha", "--trace"]
    ) == 0
    out = capsys.readouterr().out
    assert "cwnd" in out


def test_chain_trace_of_a_zero_second_run_has_no_data(capsys):
    """``--time 0`` stays valid (``profile`` relies on it); the cwnd chart
    used to die in ``resample(..., step=0.0)``."""
    assert main(["chain", "--hops", "2", "--time", "0", "--trace"]) == 0
    assert "cwnd: (no data)" in capsys.readouterr().out


def test_chain_command_runs_a_related_work_variant(capsys):
    """``--variant veno`` used to answer ``invalid choice`` although the
    registry (and ``campaign --variants veno``) knew the name."""
    assert main(["chain", "--hops", "2", "--time", "2", "--variant", "veno"]) == 0
    assert "goodput" in capsys.readouterr().out


def test_campaign_command_rejects_an_unknown_variant_before_planning(capsys):
    """It used to plan the unit, burn three attempts with back-off and
    quarantine it with a ``KeyError`` from inside a worker."""
    with pytest.raises(SystemExit) as exit_info:
        main(["campaign", "--hops", "2", "--variants", "nonsense",
              "--replications", "1", "--time", "1", "--no-cache"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'nonsense'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["chain", "--variant"], ["cross", "--a"], ["cross", "--b"],
    ["dynamics", "--variant"], ["campaign", "--variants"],
    ["trace", "chain", "--variant"], ["trace", "cross", "--b"],
    ["stats", "chain", "--variant"], ["stats", "cross", "--b"],
    ["profile", "chain", "--variant"],
], ids=" ".join)
def test_every_variant_flag_takes_exactly_the_registered_names(argv, capsys):
    parser = build_parser()
    for name in known_variants():
        parser.parse_args(argv + [name])
    with pytest.raises(SystemExit):
        parser.parse_args(argv + ["nonsense"])
    assert "invalid choice: 'nonsense'" in capsys.readouterr().err


def test_sweep_command(capsys):
    assert main(
        ["sweep", "--hops", "2", "--seeds", "1", "--time", "3", "--window", "4"]
    ) == 0
    out = capsys.readouterr().out
    assert "goodput" in out and "retransmits" in out


def test_cross_command(capsys):
    assert main(["cross", "--hops", "4", "--seeds", "1", "--time", "5"]) == 0
    out = capsys.readouterr().out
    assert "Jain index" in out


def _bad_cross(hops):
    return f"^cross topology needs an even hops >= 2, got {hops}$"


@pytest.mark.parametrize("hops", ["3", "1"])
def test_cross_command_refuses_an_odd_or_short_cross_before_running(
        hops, monkeypatch):
    """``cross --hops 3`` used to fork workers and then raise
    ``RuntimeError``; it is refused in one line before anything runs."""
    import repro.cli as cli

    monkeypatch.setattr(cli, "fig_coexistence",
                        lambda *args, **kwargs: pytest.fail("the figure ran"))
    with pytest.raises(SystemExit, match=_bad_cross(hops)):
        main(["cross", "--hops", "4", hops, "--seeds", "1", "--time", "1"])


@pytest.mark.parametrize("command", ["stats", "trace", "profile"])
def test_scenario_commands_refuse_an_odd_or_short_cross_before_running(
        command, monkeypatch, tmp_path):
    """``stats cross --hops 1`` used to end in a ``ValueError`` traceback
    from the topology builder, mid-run."""
    import repro.cli as cli

    monkeypatch.setattr(cli, "execute_run",
                        lambda *args, **kwargs: pytest.fail("the run started"))
    monkeypatch.chdir(tmp_path)
    for hops in ("1", "3"):
        with pytest.raises(SystemExit, match=_bad_cross(hops)):
            main([command, "cross", "--hops", hops, "--time", "1"])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, routing, seeds", [
    (["--routing", "static"], "static", (1,)),
    (["--seed", "4"], "aodv", (4,)),
], ids=["routing", "seed"])
def test_sweep_command_runs_the_figure_its_flags_name(flags, routing, seeds,
                                                      capsys):
    assert main(["sweep", "--hops", "3", "--seeds", "1", "--time", "2",
                 "--window", "4"] + flags) == 0
    sweep = throughput_retransmit_sweep(
        4, SweepConfig(hops=(3,), seeds=seeds, sim_time=2.0), routing=routing)
    assert capsys.readouterr().out == (
        format_sweep(sweep, metric="goodput") + "\n\n"
        + format_sweep(sweep, metric="retransmits") + "\n")


@pytest.mark.parametrize("flags, routing, seeds", [
    (["--routing", "static"], "static", (1,)),
    (["--seed", "4"], "aodv", (4,)),
], ids=["routing", "seed"])
def test_cross_command_runs_the_figure_its_flags_name(flags, routing, seeds,
                                                      capsys):
    assert main(["cross", "--hops", "2", "--seeds", "1", "--time", "2"]
                + flags) == 0
    points = fig_coexistence("newreno", "muzha", hops_list=(2,), sim_time=2.0,
                             seeds=seeds, window=8, routing=routing)
    assert capsys.readouterr().out == (
        format_coexistence(points, "newreno", "muzha") + "\n")


def test_dynamics_command(capsys):
    assert main(["dynamics", "--hops", "2", "--time", "25", "--variant", "newreno"]) == 0
    out = capsys.readouterr().out
    assert "final shares" in out


def test_campaign_command_cold_then_warm(tmp_path, capsys):
    argv = [
        "campaign", "--hops", "2", "--variants", "muzha", "newreno",
        "--replications", "1", "--time", "2", "--jobs", "1",
        "--cache-dir", str(tmp_path / "cache"),
        "--csv", str(tmp_path / "campaign.csv"),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "2 simulated, 0 cache hits" in out
    assert "campaign means" in out
    assert (tmp_path / "campaign.csv").exists()

    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "0 simulated, 2 cache hits" in out
    assert "cache" in out


def test_campaign_command_no_cache_always_simulates(tmp_path, capsys):
    argv = [
        "campaign", "--hops", "2", "--variants", "muzha",
        "--replications", "1", "--time", "2", "--jobs", "1",
        "--no-cache", "--quiet",
    ]
    assert main(argv) == 0
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "1 simulated, 0 cache hits" in out


def test_campaign_command_lists_a_cell_named_twice_once(capsys):
    """``--hops 2 2`` used to print "2 scenarios x 2 replications = 4
    runs", simulate 4 units (2 of them exact duplicates) and list the cell
    on two rows of the means table, each claiming ``runs = 4``."""
    assert main([
        "campaign", "--hops", "2", "2", "--variants", "newreno",
        "--replications", "2", "--time", "1", "--jobs", "1",
        "--no-cache", "--quiet",
    ]) == 0
    out = capsys.readouterr().out
    assert "campaign: 1 scenarios x 2 replications = 2 runs" in out
    assert "2 simulated, 0 cache hits, 0 failed" in out
    rows = [line.split() for line in out.splitlines()
            if line.split()[:2] == ["2", "newreno"]]
    assert len(rows) == 1 and rows[0][-1] == "2"  # one row, runs = 2


def test_campaign_command_clear_cache(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    argv = [
        "campaign", "--hops", "2", "--variants", "muzha",
        "--replications", "1", "--time", "2", "--jobs", "1",
        "--cache-dir", cache_dir, "--quiet",
    ]
    assert main(argv) == 0
    assert main(argv + ["--clear-cache"]) == 0
    out = capsys.readouterr().out
    assert "cache cleared: 1 entries removed" in out
    assert "1 simulated, 0 cache hits" in out


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_trace_command_writes_ndjson_and_manifest(tmp_path, capsys):
    import json

    out_path = tmp_path / "trace.ndjson"
    assert main([
        "trace", "chain", "--hops", "2", "--time", "2",
        "--variant", "newreno", "--out", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "records" in out
    lines = out_path.read_text().splitlines()
    assert lines
    first = json.loads(lines[0])
    assert set(first) == {"t", "source", "event", "fields"}
    manifest = json.loads((tmp_path / "trace.ndjson.manifest.json").read_text())
    assert manifest["seed"] == 1
    assert manifest["config"]["sim_time"] == 2.0
    assert main(["doctor", "--trace", str(out_path), "--manifest",
                 str(tmp_path / "trace.ndjson.manifest.json")]) == 0


def test_trace_command_filters_events(tmp_path, capsys):
    out_path = tmp_path / "trace.ndjson"
    assert main([
        "trace", "chain", "--hops", "2", "--time", "2",
        "--variant", "newreno", "--out", str(out_path),
        "--events", "tcp.cwnd", "mac.tx",
    ]) == 0
    events = {json.loads(line)["event"]
              for line in out_path.read_text().splitlines()}
    assert events == {"tcp.cwnd", "mac.tx"}  # ifq.enqueue etc. filtered out


def test_the_trace_format_flag_is_gone(capsys):
    """NDJSON is the one trace format: the one ``doctor --trace`` reads."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["trace", "chain", "--format", "csv"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


def run_capturing_specs(monkeypatch, argv):
    """``main(argv)``, returning the RunSpecs it executed."""
    import repro.cli as cli

    specs = []
    real = cli.execute_run

    def capture(spec, *args):
        specs.append(spec)
        return real(spec, *args)

    monkeypatch.setattr(cli, "execute_run", capture)
    assert main(argv) == 0
    return specs


def test_profile_cross_runs_the_vertical_flow_its_b_names(monkeypatch,
                                                          capsys):
    [spec] = run_capturing_specs(monkeypatch, [
        "profile", "cross", "--b", "sack", "--hops", "2", "--time", "1",
        "--limit", "1"])
    assert (spec.kind, spec.variants) == ("cross", ("muzha", "sack"))
    assert "function calls" in capsys.readouterr().out


def test_stats_command_runs_dynamics(monkeypatch, capsys):
    [spec] = run_capturing_specs(monkeypatch, [
        "stats", "dynamics", "--hops", "2", "--time", "2",
        "--variant", "newreno"])
    assert spec.variants == ("newreno",) * 3
    assert spec.starts == (0.0, 10.0, 20.0)
    assert "total goodput" in capsys.readouterr().out


def test_stats_command_prints_counters(capsys):
    assert main([
        "stats", "chain", "--hops", "2", "--time", "2",
        "--variant", "newreno",
    ]) == 0
    out = capsys.readouterr().out
    assert "mac.data_tx" in out
    assert "goodput" in out


def test_stats_command_json_snapshot(capsys):
    import json

    assert main([
        "stats", "chain", "--hops", "2", "--time", "2",
        "--variant", "newreno", "--json",
    ]) == 0
    snap = json.loads(capsys.readouterr().out)
    rollup = snap["rollups"]["global"]
    assert rollup["mac.data_tx"] > 0
    assert rollup["ifq.enqueued"] > 0
    assert rollup["tcp.data_sent"] > 0


@pytest.mark.parametrize("flag,value", [
    ("--jobs", "0"),
    ("--jobs", "-1"),
    ("--drain-timeout", "-1"),
])
def test_campaign_rejects_nonsense_numeric_knobs(flag, value, capsys):
    """Zero/negative pool sizes and periods die as clear argparse errors,
    not as a hung pool or a division by zero deep in the engine."""
    from repro.cli import build_parser

    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["campaign", flag, value])
    assert excinfo.value.code == 2  # argparse usage error
    err = capsys.readouterr().err
    assert f"argument {flag}" in err


@pytest.mark.parametrize("flag,value", [
    ("--jobs", "4"),
    ("--drain-timeout", "0"),  # zero drain = terminate immediately, valid
])
def test_campaign_accepts_boundary_numeric_knobs(flag, value):
    from repro.cli import build_parser

    args = build_parser().parse_args(["campaign", flag, value])
    assert args.command == "campaign"


@pytest.mark.parametrize("dest, value", [("pool_mode", "warm"),
                                         ("listen", "127.0.0.1:0"),
                                         ("agents", "2"),
                                         ("heartbeat_interval", "0.25")])
def test_the_removed_campaign_flags_are_unrecognized(dest, value, capsys):
    """Campaigns run on one host: where the workers live is not a flag.
    The journal states each fact once: it has no heartbeat to pace."""
    flag = "--" + dest.replace("_", "-")
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["campaign", flag, value])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in \
        capsys.readouterr().err


@pytest.mark.parametrize("removed", ["inproc", "per-attempt"])
def test_campaign_pool_mode_is_warm_or_cluster(removed, capsys):
    """No pool mode survives, the in-process ones included: ``--jobs 1`` is
    how a campaign runs in this process."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["campaign", "--pool-mode", removed])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: --pool-mode {removed}" in \
        capsys.readouterr().err


def test_the_worker_command_is_an_invalid_choice(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["worker", "--connect", "127.0.0.1:9"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "argument command: invalid choice: 'worker'" in err


TINY_CAMPAIGN = ["campaign", "--variants", "newreno", "--hops", "2",
                 "--replications", "1", "--time", "0.1", "--jobs", "1",
                 "--quiet"]


def test_a_refused_command_line_never_clears_the_cache(tmp_path):
    """A resume once printed ``cache cleared: 1 entries removed`` and then
    refused its own flags.  It is refused ``--clear-cache`` outright: it
    verifies its journaled completions against that cache."""
    cache = tmp_path / "cache"
    assert main(TINY_CAMPAIGN + ["--cache-dir", str(cache)]) == 0
    entries = sorted(cache.glob("*/*.json"))
    assert len(entries) == 1
    with pytest.raises(SystemExit, match="--clear-cache"):
        main(TINY_CAMPAIGN + ["--cache-dir", str(cache), "--clear-cache",
                              "--resume", "missing.journal"])
    assert sorted(cache.glob("*/*.json")) == entries


@pytest.mark.parametrize("argv, error", [
    (["chain", "--loss", "1.5"], "argument --loss: must be in [0, 1], got 1.5"),
    (TINY_CAMPAIGN + ["--replications", "0", "--journal", "{tmp}/run.journal",
                      "--cache-dir", "{tmp}/cache"],
     "argument --replications: must be >= 1, got 0"),
    (["trace", "chain", "--events", "*", "mac.tx", "--out", "{tmp}/t.ndjson"],
     'argument --events: subscribe to "*" alone, not alongside names'),
    (["stats", "chain", "--hops", "0"], "argument --hops: must be >= 1, got 0"),
    (["sweep", "--window", "0"], "argument --window: must be >= 1, got 0"),
    (["cross", "--seeds", "0"], "argument --seeds: must be >= 1, got 0"),
    (["report", "{tmp}/run.journal", "--buckets", "0"],
     "argument --buckets: must be in [1, 1000], got 0"),
    # Two lists of a billion slots: refused before the journal is read.
    (["report", "{tmp}/run.journal", "--buckets", "1000000000"],
     "argument --buckets: must be in [1, 1000], got 1000000000"),
    (TINY_CAMPAIGN + ["--max-retries", "-1", "--clear-cache",
                      "--cache-dir", "{tmp}/cache"],
     "argument --max-retries: must be >= 0, got -1"),
    (TINY_CAMPAIGN + ["--journal", "{tmp}/run.journal",
                      "--cache-dir", "http://127.0.0.1:9/cache"],
     "argument --cache-dir: cache store 'http://127.0.0.1:9/cache': only a "
     "directory path is supported"),
], ids=["loss", "replications", "events", "hops", "window", "seeds",
        "buckets", "buckets-max", "max-retries", "cache-dir"])
def test_a_bad_flag_value_is_a_usage_error_before_anything_opens(
        tmp_path, capsys, argv, error):
    """Each was a traceback from deep inside the command (a ``ValueError``,
    or ``StatisticsError`` for ``--seeds 0``) — the campaign's only after
    ``--journal`` was created, or the cache cleared."""
    with pytest.raises(SystemExit) as exit_info:
        main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert exit_info.value.code == 2
    assert error in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, flag, value", [
    (["chain", "--hops", "2", "--time", "inf"], "--time", "inf"),
    (["chain", "--hops", "2", "--time", "nan"], "--time", "nan"),
    (TINY_CAMPAIGN + ["--task-timeout", "inf"], "--task-timeout", "inf"),
    (TINY_CAMPAIGN + ["--retry-backoff", "inf"], "--retry-backoff", "inf"),
    (TINY_CAMPAIGN + ["--drain-timeout", "inf"], "--drain-timeout", "inf"),
    (["trace", "chain", "--probe-interval", "inf", "--out", "{tmp}/t.ndjson"],
     "--probe-interval", "inf"),
], ids=["time-inf", "time-nan", "task-timeout", "retry-backoff",
        "drain-timeout", "probe-interval"])
def test_a_non_finite_number_is_a_usage_error(tmp_path, capsys, argv, flag,
                                              value):
    """``chain --hops 2 --time inf`` ran forever: the float flags took any
    value at or above their lower bound."""
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(
            [arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error:" in line] == [
        f"repro-muzha {argv[0]}: error: argument {flag}: must be finite, "
        f"got {value}"]


@pytest.mark.parametrize("hops, node, nodes", [
    (["2"], 99, "0..2"),
    (["2", "8"], 5, "0..2"),  # fits the 8-hop chain, not the 2-hop one
], ids=["no-chain-has-it", "one-chain-lacks-it"])
def test_a_campaign_refuses_a_plan_a_chain_lacks_before_planning(
        tmp_path, capsys, hops, node, nodes):
    """Each unit of such a campaign once ran three times to a
    ``FaultPlanError`` and the campaign printed PARTIAL."""
    plan = tmp_path / "plan.json"
    plan.write_text(
        f'{{"events": [{{"time": 1, "kind": "node_crash", "node": {node}}}]}}')
    cache, journal = tmp_path / "cache", tmp_path / "run.journal"
    argv = ["campaign", "--variants", "newreno", "--hops", *hops,
            "--replications", "1", "--time", "2", "--jobs", "1",
            "--faults", str(plan), "--cache-dir", str(cache),
            "--journal", str(journal)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""  # nothing planned, nothing run
    assert err.splitlines() == [
        f"repro-muzha campaign: error: argument --faults: fault plan names "
        f"node {node}, which does not exist (nodes are {nodes})"]
    assert sorted(tmp_path.iterdir()) == [plan]
