"""Run provenance: manifests that make every result attributable.

A *manifest* is a JSON document attached to every runner/campaign result
(and stored alongside cached campaign entries) that records everything
needed to (a) attribute a number to the exact code + configuration that
produced it and (b) reproduce the run byte-identically:

* the master ``seed`` and the full scenario ``config`` (plus, for campaign
  units, the complete ``spec``) with their content digests;
* the package version, Python version and platform string;
* wall-clock duration and simulated duration;
* the run's deterministic metrics snapshot (see :mod:`repro.obs.metrics`);
* ``result_digest`` — the digest of the run's canonical result
  serialization, so a replay can prove bit-identity without shipping the
  original result around.

Determinism contract: everything under the ``seed``/``config``/``spec``/
``result_digest``/``metrics`` keys is a pure function of the run;
``wall_time_s``, ``package_version``, ``python``, ``platform`` and
``created_unix`` are environment facts and are *never* folded into result
fingerprints (see :meth:`repro.experiments.campaign.RunRecord.metrics_bytes`).
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from typing import Any, Dict, Optional

#: Bump when the manifest layout changes incompatibly; validated against
#: ``schemas/run_manifest.schema.json``.
MANIFEST_SCHEMA_VERSION = 1


#: ``canonical_json(payload) -> str``: the one canonical rendering — sorted
#: keys, no whitespace, exact float repr, ASCII-only — that every digest
#: and every cache envelope is made of.  Because keys are sorted, the
#: rendering of a dict is the concatenation of the renderings of its
#: values, which is what lets :mod:`repro.experiments.cachestore` compose
#: an envelope and its checksum from parts encoded once.  Bound to one
#: shared encoder's ``encode`` (the C encoder; ``json.dump`` to a stream
#: never uses it, and ``json.dumps`` with options builds an encoder a call).
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def stable_digest(payload: Any) -> str:
    """SHA-256 hex digest of ``payload`` rendered as canonical JSON.

    The rendering (:data:`canonical_json`) is deterministic, so equal
    configurations always hash equal across processes and interpreter
    sessions — the property the content-addressed campaign cache and the
    manifest reproduction check both key on.
    """
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _package_version() -> str:
    # Imported lazily: repro/__init__ imports repro.obs before it defines
    # __version__, so a module-level import would see a partial package.
    try:
        import repro

        return getattr(repro, "__version__", "unknown")
    except Exception:  # pragma: no cover - only during exotic partial imports
        return "unknown"


def build_manifest(
    *,
    seed: int,
    config: Dict[str, Any],
    sim_time: float,
    wall_time_s: float,
    metrics: Dict[str, Any],
    result_digest: str,
    timings: Optional[Dict[str, float]] = None,
    engine: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a manifest for one completed run.

    ``config`` is the run's full plain-data configuration
    (:meth:`repro.experiments.config.ScenarioConfig.to_dict`); its digest
    keys the reproduction check together with ``seed`` (the seed is inside
    the config too, so ``config_digest`` alone pins the randomness).

    ``timings`` (per-subsystem wall seconds: setup/sim/harvest/serialize)
    and ``engine`` (PHY transmission counters) are environment facts like
    ``wall_time_s`` — the campaign journal surfaces the timings in each
    executed unit's ``done`` record, and like every environment fact they
    never enter result fingerprints.
    """
    return {
        "manifest_schema": MANIFEST_SCHEMA_VERSION,
        "seed": seed,
        "config": config,
        "config_digest": stable_digest(config),
        "spec": None,
        "spec_digest": None,
        "result_digest": result_digest,
        "metrics": metrics,
        "sim_time": sim_time,
        "wall_time_s": wall_time_s,
        "timings": timings,
        "engine": engine,
        "package_version": _package_version(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "created_unix": time.time(),
    }


def attach_spec(manifest: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    """Record the full :class:`~repro.experiments.runner.RunSpec` plain-data
    form on ``manifest`` so the run can be replayed from the manifest alone."""
    manifest["spec"] = spec
    manifest["spec_digest"] = stable_digest(spec)
    return manifest


def manifest_consistent(manifest: Dict[str, Any]) -> bool:
    """Internal consistency: do the embedded digests match their payloads?

    This is the cheap (no-simulation) half of the reproduction story; the
    expensive half — re-running the spec and comparing ``result_digest`` —
    lives in :func:`repro.experiments.runner.verify_manifest`.
    """
    if manifest.get("config_digest") != stable_digest(manifest.get("config")):
        return False
    spec = manifest.get("spec")
    if spec is not None and manifest.get("spec_digest") != stable_digest(spec):
        return False
    return True
