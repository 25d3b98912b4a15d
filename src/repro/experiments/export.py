"""CSV export/import of experiment artefacts.

Every figure generator returns plain data; these writers persist them in a
stable CSV schema so the results can be replotted outside Python (the
paper's figures are line charts — any spreadsheet or gnuplot can rebuild
them from these files).

The matching ``read_*`` loaders parse those same schemas back into the
generator's data structures — the golden-figure regression tests compare
freshly computed results against the committed CSVs through them.  Loaders
validate as they go and raise :class:`ExportError` naming the offending
file and line on any malformed row.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from .figures import CoexistencePoint, SweepPoint, SweepResult

PathLike = Union[str, Path]


class ExportError(ValueError):
    """A CSV artefact does not conform to its schema."""


def _open_writer(path: PathLike):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _rows(path: PathLike, header: Sequence[str], columns: int):
    """Yield (line_number, row) for every data row, validating the shape."""
    path = Path(path)
    try:
        handle = path.open("r", newline="")
    except OSError as exc:
        raise ExportError(f"{path}: cannot read ({exc})") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            first = next(reader)
        except StopIteration:
            raise ExportError(f"{path}: empty file, expected header {list(header)}")
        if first != list(header):
            raise ExportError(
                f"{path}: bad header {first!r}, expected {list(header)}"
            )
        for line, row in enumerate(reader, start=2):
            if not row:
                continue  # trailing blank line
            if len(row) != columns:
                raise ExportError(
                    f"{path}:{line}: expected {columns} columns, got {len(row)}"
                )
            yield line, row


def _number(path: PathLike, line: int, field: str, value: str, kind=float):
    try:
        return kind(value)
    except ValueError:
        raise ExportError(
            f"{path}:{line}: {field} is not a valid {kind.__name__}: {value!r}"
        ) from None


def export_sweep_csv(sweep: SweepResult, path: PathLike) -> Path:
    """Figs 5.8–5.13 grid: one row per (hops, variant) point."""
    target = _open_writer(path)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["window", "hops", "variant", "goodput_kbps", "goodput_stdev",
             "retransmits", "timeouts", "samples"]
        )
        for variant in sweep.variants:
            for hops in sweep.hops:
                point = sweep.points[(variant, hops)]
                writer.writerow(
                    [sweep.window, hops, variant,
                     f"{point.goodput_kbps:.3f}", f"{point.goodput_stdev:.3f}",
                     f"{point.retransmits:.3f}", f"{point.timeouts:.3f}",
                     point.samples]
                )
    return target


def export_multi_series_csv(
    series_by_name: Dict[str, Sequence[Tuple[float, float]]],
    path: PathLike,
) -> Path:
    """Several named series in long form: (name, time_s, value) rows —
    cwnd traces, throughput dynamics."""
    target = _open_writer(path)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["series", "time_s", "value"])
        for name, series in series_by_name.items():
            for x, y in series:
                writer.writerow([name, f"{x:.6f}", f"{y:.6f}"])
    return target


def export_coexistence_csv(
    points: Iterable[CoexistencePoint],
    label_a: str,
    label_b: str,
    path: PathLike,
) -> Path:
    """Figs 5.16–5.18 rows."""
    target = _open_writer(path)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["hops", "variant_a", "goodput_a_kbps", "variant_b",
             "goodput_b_kbps", "jain_index"]
        )
        for point in points:
            writer.writerow(
                [point.hops, label_a, f"{point.goodput_a_kbps:.3f}",
                 label_b, f"{point.goodput_b_kbps:.3f}", f"{point.fairness:.4f}"]
            )
    return target


def export_campaign_csv(result, path: PathLike) -> Path:
    """One row per campaign run: identity, seed, cache state, headline
    metrics.  ``result`` is a :class:`repro.experiments.campaign.CampaignResult`."""
    target = _open_writer(path)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["scenario", "replication", "kind", "hops", "variants", "seed",
             "cached", "goodput_kbps", "retransmits", "timeouts"]
        )
        for record in result.records:
            run = record.run
            res = record.result
            writer.writerow(
                [run.scenario[:12], run.replication, run.spec.kind,
                 run.spec.hops, "+".join(run.spec.variants), run.seed,
                 int(record.cached), f"{res.total_goodput_kbps:.3f}",
                 sum(f.retransmits for f in res.flows),
                 sum(f.timeouts for f in res.flows)]
            )
    return target


# ---------------------------------------------------------------------------
# Readers — inverse of the writers above, schema-validated


SWEEP_HEADER = ["window", "hops", "variant", "goodput_kbps", "goodput_stdev",
                "retransmits", "timeouts", "samples"]


def read_sweep_csv(path: PathLike) -> SweepResult:
    """Parse a file written by :func:`export_sweep_csv` back to a
    :class:`SweepResult` (hops/variants ordered by first appearance)."""
    window: int = 0
    hops_order: List[int] = []
    variant_order: List[str] = []
    points: Dict[Tuple[str, int], SweepPoint] = {}
    for line, row in _rows(path, SWEEP_HEADER, len(SWEEP_HEADER)):
        row_window = _number(path, line, "window", row[0], int)
        if not points:
            window = row_window
        elif row_window != window:
            raise ExportError(
                f"{path}:{line}: mixed windows {window} and {row_window}"
            )
        hops = _number(path, line, "hops", row[1], int)
        variant = row[2]
        if variant not in variant_order:
            variant_order.append(variant)
        if hops not in hops_order:
            hops_order.append(hops)
        points[(variant, hops)] = SweepPoint(
            goodput_kbps=_number(path, line, "goodput_kbps", row[3]),
            goodput_stdev=_number(path, line, "goodput_stdev", row[4]),
            retransmits=_number(path, line, "retransmits", row[5]),
            timeouts=_number(path, line, "timeouts", row[6]),
            samples=_number(path, line, "samples", row[7], int),
        )
    if not points:
        raise ExportError(f"{path}: no data rows")
    return SweepResult(
        window=window, hops=tuple(sorted(hops_order)),
        variants=tuple(variant_order), points=points,
    )


def read_multi_series_csv(path: PathLike) -> Dict[str, List[Tuple[float, float]]]:
    """Parse a file written by :func:`export_multi_series_csv` back into
    per-name series (insertion-ordered)."""
    series: Dict[str, List[Tuple[float, float]]] = {}
    for line, row in _rows(path, ["series", "time_s", "value"], 3):
        series.setdefault(row[0], []).append(
            (_number(path, line, "time_s", row[1]),
             _number(path, line, "value", row[2]))
        )
    if not series:
        raise ExportError(f"{path}: no data rows")
    return series


def read_coexistence_csv(path: PathLike) -> Tuple[str, str, List[CoexistencePoint]]:
    """Parse a file written by :func:`export_coexistence_csv`; returns
    ``(label_a, label_b, points)``."""
    header = ["hops", "variant_a", "goodput_a_kbps", "variant_b",
              "goodput_b_kbps", "jain_index"]
    label_a = label_b = ""
    points: List[CoexistencePoint] = []
    for line, row in _rows(path, header, len(header)):
        if not points:
            label_a, label_b = row[1], row[3]
        elif (row[1], row[3]) != (label_a, label_b):
            raise ExportError(
                f"{path}:{line}: inconsistent variant labels "
                f"({row[1]!r}, {row[3]!r}) vs ({label_a!r}, {label_b!r})"
            )
        points.append(
            CoexistencePoint(
                hops=_number(path, line, "hops", row[0], int),
                goodput_a_kbps=_number(path, line, "goodput_a_kbps", row[2]),
                goodput_b_kbps=_number(path, line, "goodput_b_kbps", row[4]),
                fairness=_number(path, line, "jain_index", row[5]),
            )
        )
    if not points:
        raise ExportError(f"{path}: no data rows")
    return label_a, label_b, points
