"""Unit tests for the CSV exporters and their matching readers."""

import csv

import pytest

from repro.experiments.export import (
    ExportError,
    export_coexistence_csv,
    export_multi_series_csv,
    export_sweep_csv,
    read_coexistence_csv,
    read_multi_series_csv,
    read_sweep_csv,
)
from repro.experiments.figures import CoexistencePoint, SweepPoint, SweepResult


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def make_sweep():
    sweep = SweepResult(window=8, hops=(4, 8), variants=("muzha", "newreno"))
    for v in sweep.variants:
        for h in sweep.hops:
            sweep.points[(v, h)] = SweepPoint(
                goodput_kbps=100.0 + h, goodput_stdev=2.0,
                retransmits=float(h), timeouts=1.0, samples=3,
            )
    return sweep


def test_sweep_csv_schema(tmp_path):
    path = export_sweep_csv(make_sweep(), tmp_path / "sweep.csv")
    rows = read_rows(path)
    assert rows[0] == [
        "window", "hops", "variant", "goodput_kbps", "goodput_stdev",
        "retransmits", "timeouts", "samples",
    ]
    assert len(rows) == 1 + 4
    assert rows[1][:3] == ["8", "4", "muzha"]
    assert float(rows[1][3]) == 104.0


def test_multi_series_csv(tmp_path):
    path = export_multi_series_csv(
        {"a": [(0.0, 1.0)], "b": [(0.0, 2.0), (1.0, 3.0)]},
        tmp_path / "dyn.csv",
    )
    rows = read_rows(path)
    assert rows[0] == ["series", "time_s", "value"]
    assert len(rows) == 4
    assert rows[1][0] == "a"


def test_coexistence_csv(tmp_path):
    points = [CoexistencePoint(4, 120.0, 80.0, 0.96)]
    path = export_coexistence_csv(points, "newreno", "muzha", tmp_path / "x.csv")
    rows = read_rows(path)
    assert rows[1] == ["4", "newreno", "120.000", "muzha", "80.000", "0.9600"]


def test_creates_missing_directories(tmp_path):
    path = export_multi_series_csv(
        {"a": [(0.0, 0.0)]}, tmp_path / "deep" / "dir" / "f.csv"
    )
    assert path.exists()


# ---------------------------------------------------------------------------
# Round trips: export -> read recovers the original data


def test_sweep_round_trip(tmp_path):
    original = make_sweep()
    loaded = read_sweep_csv(export_sweep_csv(original, tmp_path / "sweep.csv"))
    assert loaded.window == original.window
    assert tuple(loaded.hops) == tuple(original.hops)
    assert tuple(loaded.variants) == tuple(original.variants)
    for key, point in original.points.items():
        got = loaded.points[key]
        assert got.goodput_kbps == pytest.approx(point.goodput_kbps, abs=1e-3)
        assert got.retransmits == pytest.approx(point.retransmits, abs=1e-3)
        assert got.samples == point.samples


def test_multi_series_round_trip(tmp_path):
    data = {"muzha": [(0.0, 1.0), (1.0, 2.0)], "vegas": [(0.5, 3.0)]}
    path = export_multi_series_csv(data, tmp_path / "m.csv")
    loaded = read_multi_series_csv(path)
    assert set(loaded) == set(data)
    for name, series in data.items():
        assert loaded[name] == pytest.approx(series, abs=1e-6)


def test_coexistence_round_trip(tmp_path):
    points = [CoexistencePoint(4, 120.0, 80.0, 0.96),
              CoexistencePoint(8, 60.0, 55.0, 0.99)]
    path = export_coexistence_csv(points, "newreno", "muzha", tmp_path / "x.csv")
    label_a, label_b, loaded = read_coexistence_csv(path)
    assert (label_a, label_b) == ("newreno", "muzha")
    assert [p.hops for p in loaded] == [4, 8]
    assert loaded[0].goodput_a_kbps == pytest.approx(120.0)
    assert loaded[1].fairness == pytest.approx(0.99)


# ---------------------------------------------------------------------------
# Malformed inputs: every reader names the file and offending line


def write_lines(tmp_path, *lines):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_read_sweep_rejects_bad_header(tmp_path):
    path = write_lines(tmp_path, "nope,nope", "1,2")
    with pytest.raises(ExportError, match="bad header"):
        read_sweep_csv(path)


def test_read_sweep_rejects_short_row(tmp_path):
    header = "window,hops,variant,goodput_kbps,goodput_stdev,retransmits,timeouts,samples"
    path = write_lines(tmp_path, header, "8,4,muzha,100.0")
    with pytest.raises(ExportError, match=r"bad\.csv:2.*columns"):
        read_sweep_csv(path)


def test_read_sweep_rejects_non_numeric_cell(tmp_path):
    header = "window,hops,variant,goodput_kbps,goodput_stdev,retransmits,timeouts,samples"
    path = write_lines(tmp_path, header, "8,4,muzha,fast,0.0,0.0,0.0,3")
    with pytest.raises(ExportError, match="goodput_kbps"):
        read_sweep_csv(path)


def test_read_sweep_rejects_mixed_windows(tmp_path):
    header = "window,hops,variant,goodput_kbps,goodput_stdev,retransmits,timeouts,samples"
    path = write_lines(tmp_path, header,
                       "8,4,muzha,1.0,0.0,0.0,0.0,3",
                       "4,8,muzha,1.0,0.0,0.0,0.0,3")
    with pytest.raises(ExportError, match="mixed windows"):
        read_sweep_csv(path)


def test_read_sweep_rejects_empty_file(tmp_path):
    path = write_lines(tmp_path, "")
    with pytest.raises(ExportError):
        read_sweep_csv(path)


def test_read_series_rejects_non_numeric_row(tmp_path):
    path = write_lines(tmp_path, "series,time_s,value", "a,0.0,1.0", "a,one,2.0")
    with pytest.raises(ExportError, match=r"bad\.csv:3"):
        read_multi_series_csv(path)


def test_read_series_tolerates_trailing_blank_line(tmp_path):
    path = write_lines(tmp_path, "series,time_s,value", "a,0.0,1.0", "")
    assert read_multi_series_csv(path) == {"a": [(0.0, 1.0)]}


def test_read_multi_series_rejects_extra_column(tmp_path):
    path = write_lines(tmp_path, "series,time_s,value", "a,0.0,1.0,9")
    with pytest.raises(ExportError, match="columns"):
        read_multi_series_csv(path)


def test_read_coexistence_rejects_inconsistent_labels(tmp_path):
    header = "hops,variant_a,goodput_a_kbps,variant_b,goodput_b_kbps,jain_index"
    path = write_lines(tmp_path, header,
                       "4,newreno,1.0,muzha,2.0,0.9",
                       "8,vegas,1.0,muzha,2.0,0.9")
    with pytest.raises(ExportError, match="inconsistent variant labels"):
        read_coexistence_csv(path)


def test_read_missing_file_raises_export_error(tmp_path):
    with pytest.raises(ExportError, match="cannot read"):
        read_multi_series_csv(tmp_path / "absent.csv")
