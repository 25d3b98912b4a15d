"""Where a traced pass's time went: a per-layer ledger folded from a
``cProfile`` run, and the coarse span tree around it.

Both are built from the benchmark's side of the public API — nothing in
``repro`` knows it is being measured.  A layer is a package under ``repro``
(``exp.<module>`` for the modules of ``repro.experiments``); time spent in
code that belongs to no layer (builtins, the stdlib, numpy) is charged to
the layer that called it, through the profile's callers table, so
``heappush`` lands in ``sim`` and ``os.fsync`` in the module that asked for
durability.  ``repro.obs.provenance.stable_digest`` is treated the same way:
it is ``json.dumps`` + ``sha256`` under a name, and whoever asks for a
digest (the cache, the journal, the runner) pays for it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Ledger rows, in print order.  ``other`` owns the rest of ``repro`` (cli,
#: experiments.config, ...), this benchmark's own frames, and root frames.
LAYERS: Tuple[str, ...] = (
    "sim", "phy", "mac", "net", "routing", "transport", "core", "faults",
    "obs", "stats", "traffic", "topology",
    "exp.runner", "exp.figures", "exp.export", "exp.campaign",
    "exp.cachestore", "exp.transport", "exp.journal",
    "other",
)

#: Builtins reported as sub-buckets of the layer that (in practice) calls
#: them.  Matched against the profile's function names.
HEAP_BUILTINS = ("_heapq.",)
FSYNC_BUILTIN = "posix.fsync"
WAIT_BUILTINS = ("'select.poll'", "'select.epoll'", "select.select",
                 "time.sleep", "posix.waitpid")
#: The transmit side of the PHY — the code the batch lane replaces — as a
#: sub-bucket of ``phy``: these files plus what they call outside ``repro``
#: (numpy).  The receive side (``radio.py``) is the rest of ``phy``.
FANOUT_FILES = ("/repro/phy/channel.py", "/repro/phy/batch.py")
#: Program functions charged to their callers like a builtin (see above).
CALLER_PAYS = (("/repro/obs/provenance.py", "stable_digest"),)

FuncKey = Tuple[str, int, str]  # (filename, line, name) as pstats keys them


def layer_of(filename: str) -> Optional[str]:
    """The layer owning ``filename``; None for code outside ``repro`` and
    this benchmark (builtins, stdlib, numpy), whose time its caller pays."""
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker < 0:
        return "other" if "/benchmarks/e2e/" in path else None
    parts = path[marker + len("/repro/"):].split("/")
    name = parts[0]
    if name == "experiments" and len(parts) > 1:
        name = "exp." + parts[1][:-3]  # strip ".py"
    return name if name in LAYERS else "other"


def is_fanout(func: FuncKey) -> bool:
    return func[0].replace("\\", "/").endswith(FANOUT_FILES)


def owner_of(func: FuncKey) -> Optional[str]:
    """The layer that pays for ``func``'s self time; None when its callers
    do (code outside every layer, and the ``CALLER_PAYS`` helpers)."""
    path = func[0].replace("\\", "/")
    if any(path.endswith(file) and func[2] == name
           for file, name in CALLER_PAYS):
        return None
    return layer_of(path)


@dataclass
class Ledger:
    """Self time and call counts per layer, plus the named sub-buckets."""

    self_s: Dict[str, float] = field(
        default_factory=lambda: {layer: 0.0 for layer in LAYERS})
    calls: Dict[str, int] = field(
        default_factory=lambda: {layer: 0 for layer in LAYERS})
    buckets: Dict[str, float] = field(default_factory=lambda: {
        "sim.heap_s": 0.0,
        "phy.fanout_s": 0.0,
        "exp.journal.fsync_s": 0.0,
        "exp.cachestore.fsync_s": 0.0,
        "exp.campaign.wait_s": 0.0,
    })

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values())

    def share(self, *layers: str) -> float:
        """Fraction of the ledger owned by ``layers`` (a prefix ending in
        ``.`` selects every layer under it, e.g. ``"exp."``)."""
        total = self.total_s
        if total <= 0:
            return 0.0
        picked = sum(
            seconds for layer, seconds in self.self_s.items()
            if any(layer == sel or (sel.endswith(".") and layer.startswith(sel))
                   for sel in layers)
        )
        return picked / total

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        out.update(self.buckets)
        return out


def build_ledger(stats: Dict[FuncKey, Tuple[Any, ...]]) -> Ledger:
    """Fold ``pstats.Stats(profile).stats`` into a :class:`Ledger`.

    Every function's ``tottime`` is charged exactly once, so the ledger's
    total equals the profile's.  A layer-owned function pays its own time.
    An unowned one (builtin/stdlib) is split along its caller edges — the
    profile records the callee's self time per caller — and an edge whose
    caller is itself unowned is passed further up, weighted by the
    cumulative time each of *its* callers spent in it.
    """
    owner = {func: owner_of(func) for func in stats}
    memo: Dict[FuncKey, Dict[str, float]] = {}
    visiting: set = set()

    def payers(func: FuncKey) -> Dict[str, float]:
        """Layer → fraction responsible for time spent inside ``func``."""
        layer = owner.get(func, "other")
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4]
        if not callers or func in visiting:
            return {"other": 1.0}  # root frame or recursion through stdlib
        visiting.add(func)
        weights = {c: edge[3] for c, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: float(edge[0]) for c, edge in callers.items()}
        total = sum(weights.values()) or 1.0
        out: Dict[str, float] = {}
        for caller, weight in weights.items():
            for lay, frac in payers(caller).items():
                out[lay] = out.get(lay, 0.0) + frac * weight / total
        visiting.discard(func)
        memo[func] = out
        return out

    ledger = Ledger()
    for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
        layer = owner[func]
        if layer is not None:
            ledger.self_s[layer] += tottime
            ledger.calls[layer] += ncalls
            if is_fanout(func):
                ledger.buckets["phy.fanout_s"] += tottime
            continue
        name = func[2]
        if any(tag in name for tag in HEAP_BUILTINS):
            ledger.buckets["sim.heap_s"] += tottime
        if any(tag in name for tag in WAIT_BUILTINS):
            ledger.buckets["exp.campaign.wait_s"] += tottime
        if not callers:
            ledger.self_s["other"] += tottime
            continue
        charged = 0.0
        for caller, edge in callers.items():
            edge_tt = edge[2]
            charged += edge_tt
            for lay, frac in payers(caller).items():
                ledger.self_s[lay] += edge_tt * frac
            if FSYNC_BUILTIN in name:
                bucket = f"{owner.get(caller)}.fsync_s"
                if bucket in ledger.buckets:
                    ledger.buckets[bucket] += edge_tt
            if is_fanout(caller):
                ledger.buckets["phy.fanout_s"] += edge_tt
        # Edge times sum to tottime up to float rounding; keep the ledger
        # closed regardless.
        ledger.self_s["other"] += tottime - charged
    return ledger


# ---------------------------------------------------------------------------
# Coarse spans


class Spans:
    """In-memory span tree: workload → pass → unit / plan / campaign / export.

    Disabled (the untraced runs), :meth:`span` is a no-op, so passes are
    written once and measured either way.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.records: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.records) + 1,
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "t0": time.perf_counter(),
            "t1": None,
            "attrs": attrs,
        }
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["t1"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> Dict[int, float]:
        """Span id → its duration minus the time its child spans cover."""
        out = {r["id"]: r["t1"] - r["t0"] for r in self.records}
        for record in self.records:
            if record["parent"] is not None:
                out[record["parent"]] -= record["t1"] - record["t0"]
        return out

    def write(self, path: Path) -> None:
        self_times = self.self_times()
        payload = [dict(r, self_s=self_times[r["id"]]) for r in self.records]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
