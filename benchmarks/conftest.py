"""Shared fixtures for the benchmarks.

Everything under ``benchmarks/`` is a performance bench: ``bench_kernel``
and ``bench_campaign`` time the simulator and the campaign engine, and
``e2e/`` is the end-to-end benchmark.  The paper's tables are unit tests,
and its figures and §4 extensions have no benchmark: their evidence is the
claims suite, ``tests/claims/``.
"""

from __future__ import annotations

import pytest


def pytest_collection_modifyitems(config, items):
    """Mark everything under benchmarks/ as ``perf``.

    The tier-1 run (``pytest -x -q``) only collects ``tests/`` via
    ``testpaths``, so benchmarks never slow it down; the marker additionally
    lets explicit benchmark invocations filter with ``-m "not perf"`` or
    ``-m perf``.
    """
    for item in items:
        item.add_marker(pytest.mark.perf)


def run_once(benchmark, func):
    """Run a campaign exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
