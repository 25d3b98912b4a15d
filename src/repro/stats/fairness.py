"""Fairness metrics — Jain's fairness index (paper Fig. 5.14/5.18).

For allocations ``x_1..x_n``::

    J = (sum x_i)^2 / (n * sum x_i^2)

J is 1 when all allocations are equal and approaches 1/n when one flow
monopolises the resource.
"""

from __future__ import annotations

from typing import Sequence

# Below this peak allocation the squares lose precision; measured goodputs
# never get near it, so their index is computed on the raw values.
_RESCALE_BELOW = 1e-100


def jain_index(allocations: Sequence[float]) -> float:
    """Jain's fairness index of ``allocations`` (must be non-negative).

    An empty sequence or all-zero allocations return 1.0 (vacuously fair).
    """
    if not allocations:
        return 1.0
    if any(x < 0 for x in allocations):
        raise ValueError("allocations must be non-negative")
    peak = max(allocations)
    if peak == 0:
        return 1.0
    if peak < _RESCALE_BELOW:
        # Squares of tiny allocations underflow to subnormals or zero; J is
        # scale-invariant, so compute it relative to the largest allocation.
        allocations = [x / peak for x in allocations]
    total = sum(allocations)
    squares = sum(x * x for x in allocations)
    return (total * total) / (len(allocations) * squares)
