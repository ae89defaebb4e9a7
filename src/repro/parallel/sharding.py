"""Deterministic sharding of candidate spaces.

This is the planning half of :mod:`repro.parallel`.

The alignment-algebra semantics make evaluation embarrassingly
parallel: the naive engine's head-tuple cross product ``domain^k`` and
the per-binding generator runs of Definition 3.1 both iterate a finite
index space whose elements are independent.  :func:`plan_shards`
splits any such space ``[0, total)`` into contiguous, near-equal
``range`` shards that are

* **disjoint and covering** — every index lands in exactly one shard;
* **deterministic** — the same ``(total, count)`` request always
  yields the same plan.

Candidate tuples are never materialized during planning: the naive
engine's ``i``-th candidate is recovered in the worker by mixed-radix
decoding (:func:`decode_candidate`), matching ``itertools.product``
order exactly.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import ParallelExecutionError

#: Shards planned per worker, so stragglers can be balanced across the
#: pool instead of serializing behind one slot.
OVERSHARD_FACTOR = 4


def plan_shards(total: int, count: int) -> tuple[range, ...]:
    """``min(count, total)`` contiguous ranges covering ``[0, total)``.

    Sizes differ by at most one, larger shards first; an empty space
    has an empty plan.

    Args:
        total: The candidate-space size.
        count: The requested shard count (at least 1).

    Raises:
        ParallelExecutionError: If ``total`` is negative.
    """
    if total < 0:
        raise ParallelExecutionError(
            f"candidate space size must be non-negative, got {total}"
        )
    if total == 0:
        return ()
    count = max(1, min(count, total))
    base, extra = divmod(total, count)

    def start(i: int) -> int:
        return i * base + min(i, extra)

    return tuple(range(start(i), start(i + 1)) for i in range(count))


def decode_candidate(
    domain: Sequence[str], width: int, index: int
) -> tuple[str, ...]:
    """The ``index``-th tuple of ``itertools.product(domain, repeat=width)``.

    Mixed-radix decoding in base ``len(domain)``, most significant
    digit first — workers reconstruct their candidate slice from plain
    integers instead of shipping materialized cross products.
    """
    base = len(domain)
    if width == 0:
        if index != 0:
            raise ParallelExecutionError(
                f"index {index} out of range for a width-0 space"
            )
        return ()
    if base == 0 or index < 0 or index >= base**width:
        raise ParallelExecutionError(
            f"index {index} out of range for {base}^{width} candidates"
        )
    digits = []
    for _ in range(width):
        index, digit = divmod(index, base)
        digits.append(domain[digit])
    return tuple(reversed(digits))
