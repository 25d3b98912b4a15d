"""Unit tests for text rendering of experiment results."""

import pytest

from repro.experiments.figures import CoexistencePoint, SweepPoint, SweepResult
from repro.experiments.reporting import (
    ascii_series,
    format_coexistence,
    format_sweep,
    format_table,
    format_traces_summary,
)


def make_sweep():
    sweep = SweepResult(window=8, hops=(4, 8), variants=("muzha", "newreno"))
    for v in sweep.variants:
        for h in sweep.hops:
            sweep.points[(v, h)] = SweepPoint(
                goodput_kbps=100.0 + h, goodput_stdev=2.0,
                retransmits=float(h), timeouts=1.0, samples=3,
            )
    return sweep


def test_format_table_aligns_columns():
    out = format_table(["name", "value"], [["a", 1], ["longer", 22]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert lines[1].startswith("name")
    assert set(lines[2]) <= {"-", " "}
    # all rows padded to the same width
    assert len(lines[3]) == len(lines[4])


def test_format_table_with_no_rows_keeps_header():
    out = format_table(["a", "bb"], [])
    assert "a" in out and "bb" in out
    assert len(out.splitlines()) == 2


def test_format_sweep_goodput_and_retransmits():
    sweep = make_sweep()
    goodput = format_sweep(sweep, metric="goodput")
    assert "window_=8" in goodput and "kbps" in goodput
    assert "104.0" in goodput  # hops=4 point
    retrans = format_sweep(sweep, metric="retransmits")
    assert "count" in retrans and "8.0" in retrans


def test_format_sweep_rejects_unknown_metric():
    with pytest.raises(ValueError, match="unknown metric"):
        format_sweep(make_sweep(), metric="latency")


def test_format_coexistence_lists_every_hop_row():
    points = [CoexistencePoint(4, 120.0, 80.0, 0.96),
              CoexistencePoint(8, 60.0, 55.0, 0.99)]
    out = format_coexistence(points, "newreno", "muzha")
    assert "newreno vs muzha" in out
    assert "0.960" in out and "0.990" in out
    assert len(out.splitlines()) == 5  # title + header + rule + 2 rows


def test_ascii_series_empty_and_flat():
    assert "(no data)" in ascii_series([], label="cwnd")
    flat = ascii_series([(0.0, 0.0), (1.0, 0.0)], width=8)
    assert "+" + "-" * 8 in flat  # axis renders even for all-zero series


def test_ascii_series_marks_extremes():
    out = ascii_series([(0.0, 0.0), (10.0, 5.0)], width=16, label="y")
    lines = out.splitlines()
    assert "max=5.0" in lines[0]
    assert lines[1].rstrip().endswith("*")  # peak in the top row, last column
    assert "x: 0.0 .. 10.0" in lines[-1]


def test_format_traces_summary_counts_changes():
    traces = {
        "muzha": [(0.0, 1.0), (1.0, 2.0)],
        "newreno": [(0.0, 1.0), (0.5, 2.0), (1.0, 1.0), (1.5, 2.0)],
    }
    out = format_traces_summary(traces, sim_time=2.0)
    assert "cwnd summary" in out
    assert "muzha" in out and "newreno" in out
    assert "cwnd: muzha" in out  # per-variant chart blocks
