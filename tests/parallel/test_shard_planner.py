"""Property tests for the shard plan function (hypothesis).

The plan's invariants are what make parallel answers provably equal
to sequential ones: shards are disjoint, cover the candidate index
space exactly, are balanced, and are deterministic for a fixed
(total, count) request.
"""

from itertools import product

from hypothesis import given
from hypothesis import strategies as st

from repro.parallel import ParallelExecutor
from repro.parallel.sharding import (
    OVERSHARD_FACTOR,
    decode_candidate,
    plan_shards,
)

totals = st.integers(min_value=0, max_value=100_000)
workers = st.integers(min_value=1, max_value=16)
shard_counts = st.integers(min_value=1, max_value=64)


def _covered(shards):
    """The set of candidate indices covered, asserting disjointness."""
    seen = set()
    for shard in shards:
        block = set(shard)
        assert not (seen & block), f"overlapping shard {shard}"
        seen |= block
    return seen


@given(total=totals, workers=workers)
def test_plan_covers_domain_exactly_and_disjointly(total, workers):
    plan = ParallelExecutor(workers).plan(total)
    assert _covered(plan) == set(range(total))


@given(total=totals, count=shard_counts)
def test_plan_is_deterministic(total, count):
    assert plan_shards(total, count) == plan_shards(total, count)


@given(total=st.integers(min_value=1, max_value=100_000), workers=workers)
def test_plan_sizes_are_balanced(total, workers):
    plan = ParallelExecutor(workers).plan(total)
    sizes = [len(shard) for shard in plan]
    assert all(size >= 1 for size in sizes)
    assert max(sizes) - min(sizes) <= 1
    assert len(plan) == min(total, workers * OVERSHARD_FACTOR)


@given(total=st.integers(min_value=1, max_value=100_000), count=shard_counts)
def test_explicit_shard_count_is_respected(total, count):
    plan = plan_shards(total, count)
    assert len(plan) == min(total, count)
    assert _covered(plan) == set(range(total))


def test_plan_of_empty_domain_is_empty():
    assert plan_shards(0, 8) == ()
    assert ParallelExecutor(8).plan(0) == ()


@given(
    width=st.integers(min_value=0, max_value=3),
    domain=st.lists(
        st.text(alphabet="ab", max_size=2), min_size=1, max_size=5, unique=True
    ),
)
def test_decode_candidate_matches_product_order(width, domain):
    pool = tuple(domain)
    expected = list(product(pool, repeat=width))
    decoded = [
        decode_candidate(pool, width, index)
        for index in range(len(pool) ** width)
    ]
    assert decoded == expected
