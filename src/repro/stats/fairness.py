"""Fairness metrics — Jain's fairness index (paper Fig. 5.14/5.18).

For allocations ``x_1..x_n``::

    J = (sum x_i)^2 / (n * sum x_i^2)

J is 1 when all allocations are equal and approaches 1/n when one flow
monopolises the resource.
"""

from __future__ import annotations

from typing import Sequence


def jain_index(allocations: Sequence[float]) -> float:
    """Jain's fairness index of ``allocations`` (must be non-negative).

    An empty sequence or all-zero allocations return 1.0 (vacuously fair).
    """
    if not allocations:
        return 1.0
    if any(x < 0 for x in allocations):
        raise ValueError("allocations must be non-negative")
    total = sum(allocations)
    squares = sum(x * x for x in allocations)
    # squares can underflow to exactly 0.0 for subnormal allocations even
    # when total > 0; such allocations are indistinguishable from zero.
    if total == 0 or squares == 0:
        return 1.0
    return (total * total) / (len(allocations) * squares)
