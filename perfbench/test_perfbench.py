"""Self-tests of the benchmark's own code.

Run with ``python3 -m pytest perfbench -q`` from the checkout root.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
import subprocess
import sys

import pytest

from perfbench import ROOT, dna, layers, oracles, stats
from perfbench.layers import Installed, LayerClock


# -- percentile, spread and rate math ------------------------------------


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0.0) == 1.0
    assert stats.percentile(values, 1.0) == 4.0
    assert stats.median(values) == 2.5
    assert stats.percentile(values, 0.9) == pytest.approx(3.7)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 1.5)


def test_a_hundred_samples_leave_ten_beyond_p90():
    values = [float(index) for index in range(101)]
    assert stats.beyond(values, 0.9) == 10


def test_spread_matches_statistics_quantiles():
    rng = random.Random(3)
    values = [rng.uniform(5, 15) for _ in range(10)]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / mid)
    assert stats.spread([7.0] * 10) == 0.0


def test_block_percentile_ignores_a_slow_block():
    values = [1.0, 2.0, 3.0, 4.0] * 4 + [10.0, 20.0, 30.0, 40.0]
    assert stats.block_percentile(values, 0.5, 4) == 2.5
    assert stats.block_percentile(values, 0.5, 100) == stats.median(values)


def test_group_rate_is_the_median_group():
    stamps = [0.0, 1.0, 2.0, 3.0, 4.0, 14.0, 15.0]
    assert stats.group_rate(stamps, 2) == 1.0
    assert stats.group_rate(stamps, 2, lambda begin, end: 0.5) == 2.0
    assert stats.group_rate(stamps, 7) == 6 / 15.0
    with pytest.raises(ValueError):
        stats.group_rate([1.0], 1)


def test_cycle_rate_is_the_median_cycle():
    from perfbench.harness import Loop

    loop = Loop(session=None, trace=False)
    loop.sequence[:] = [0.1, 0.1, 1.0, 1.0, 0.2, 0.2, 0.5]
    assert loop.cycle_rate(2) == pytest.approx(2 / 0.4)


def test_speed_factor_is_nominal_over_nearby_probes():
    from perfbench import hostspeed

    speed = hostspeed.Speedometer()
    speed.stamps[:] = [float(second) for second in range(20)]
    speed.probes[:] = [hostspeed.NOMINAL_S] * 10 + [
        2 * hostspeed.NOMINAL_S] * 10
    assert speed.factor(2.0) == 1.0
    assert speed.factor(17.0) == 0.5
    assert speed.between(15.0, 19.0) == 0.5
    assert hostspeed.probe() > 0


def test_rate_and_ratio():
    assert stats.rate(30, 2.0) == 15.0
    with pytest.raises(ValueError):
        stats.rate(1, 0.0)
    assert stats.ratio(1, 4) == 0.25
    assert stats.ratio(1, 0) == 0.0


# -- oracles ---------------------------------------------------------------


def _brute_shuffles(y: str, z: str) -> set[str]:
    out = set()
    for picks in itertools.combinations(range(len(y) + len(z)), len(y)):
        chars, yi, zi = [], 0, 0
        for position in range(len(y) + len(z)):
            if position in picks:
                chars.append(y[yi])
                yi += 1
            else:
                chars.append(z[zi])
                zi += 1
        out.add("".join(chars))
    return out


def test_shuffles_match_brute_force():
    for y, z in [("", ""), ("ab", ""), ("ab", "ba"), ("aab", "bb")]:
        assert oracles.shuffles(y, z) == _brute_shuffles(y, z)


def test_manifold_and_edit_distance():
    assert oracles.is_manifold("abab", "ab")
    assert not oracles.is_manifold("aba", "ab")
    assert oracles.is_manifold("", "")
    assert not oracles.is_manifold("a", "")
    assert oracles.edit_distance("kitten", "sitting") == 3
    assert oracles.edit_distance("", "ab") == 2


def test_paper_answers_on_a_small_database():
    pairs = [("ab", "b"), ("b", "ab"), ("abab", "ab")]
    singles = ["", "a", "ab", "bab"]
    answer = oracles.paper_answer
    assert answer("q1_constant", "ab", pairs, singles) == {("ab",)}
    assert answer("q4_manifold", None, pairs, singles) == {("abab", "ab")}
    assert answer("q7_occurrence", "ab", pairs, singles) == {
        ("ab",), ("bab",)}
    assert answer("q8_edit_distance", ("b", 1), pairs, singles) == {
        ("",), ("a",), ("ab",)}
    assert answer("join_chain", None, pairs, singles) == {
        ("ab", "ab"), ("b", "b"), ("abab", "b")}
    with pytest.raises(ValueError):
        answer("nope", None, pairs, singles)


def test_dna_oracles():
    rows = ["gcgca", "agc", "gcgcgct", "", "ta"]
    assert dna.expected(rows, "Q6") == {("gcgca",), ("agc",), ("",)}
    assert dna.expected(rows, "gcgc") == {("gcgca",), ("gcgcgct",)}


def test_delta_rows_are_fresh_inserts_and_live_deletes():
    rng = random.Random(5)
    live = set(dna.fragments(1, 50))
    added, removed = dna.delta_rows(rng, live, 6, 3)
    assert len(set(added)) == 6 and not set(added) & live
    assert len(set(removed)) == 3 and set(removed) <= live


def test_service_oracle_accepts_any_version_in_flight():
    from perfbench.service_rw import Versions

    versions = Versions(["a", "ac"])
    low, _ = versions.bounds()
    version = versions.propose(frozenset({"a"}))
    _, high = versions.bounds()
    seen = [versions.answers(v, "c") for v in range(low, high + 1)]
    assert frozenset({("ac",)}) in seen and frozenset() in seen
    versions.acknowledge(version)
    assert versions.bounds() == (1, 1)


# -- layer wrappers --------------------------------------------------------


class FakeClock:
    """A perf_counter stand-in that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fake_time(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(layers, "perf_counter", clock)
    return clock


def test_self_time_is_span_minus_children(fake_time):
    clock = LayerClock()

    def inner():
        fake_time.now += 2.0

    timed_inner = clock.timed("plan", inner)

    def outer():
        fake_time.now += 1.0
        timed_inner()
        fake_time.now += 0.5

    clock.timed("compile", outer)()
    seconds = clock.seconds()
    assert seconds["compile"] == pytest.approx(1.5)
    assert seconds["plan"] == pytest.approx(2.0)


def test_row_wrapper_bills_next_calls_not_the_consumer(fake_time):
    clock = LayerClock()

    def rows():
        for value in ("ab", "abc"):
            fake_time.now += 1.0
            yield (value,)

    wrapped = clock.timed_rows("decode", rows, slp=True, candidates=True)
    for _ in wrapped():
        fake_time.now += 10.0  # consumer work, not the storage layer's
    assert clock.seconds()["decode"] == pytest.approx(2.0)
    assert clock.candidate_rows == 2
    assert clock.slp_expanded_chars == 5
    clock.reset()
    assert clock.seconds()["decode"] == 0.0 and clock.candidate_rows == 0


def test_installed_wrappers_are_removed_again():
    from repro.engine.session import QueryEngine
    from repro.storage.ngram import NGramIndexStorage

    compile_before = QueryEngine.__dict__["compile"]
    build_before = NGramIndexStorage.__dict__["build"]
    clock = LayerClock()
    with Installed(clock):
        assert QueryEngine.__dict__["compile"] is not compile_before
        NGramIndexStorage.build([("acgt",)])
    assert QueryEngine.__dict__["compile"] is compile_before
    assert NGramIndexStorage.__dict__["build"] is build_before
    assert clock.seconds()["build"] > 0


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = layers.per_layer_metrics(
        ops=4, seconds={"kernel": 2.0}, counters=lambda prefix: 8.0,
        stages={"execute": 1.0}, candidate_rows=6, slp_expanded_chars=0,
        answer_rows=16, cache=(3, 4, 7), build_s=0.5, overhead_ratio=1.1,
    )
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        entry["name"]: entry["unit"] for entry in spec["per_layer"]
    }
    assert metrics["kernel.s"][0] == 0.5
    assert metrics["kernel.runs_per_answer"][0] == 0.5
    assert metrics["storage.pruned_ratio"][0] == pytest.approx(8 / 14)
    assert metrics["engine.cache_hit_ratio"][0] == 0.75


# -- the command -----------------------------------------------------------


def test_one_short_run_emits_the_end_to_end_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "update-mix",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
    assert "failed_share 0 ratio" in completed.stdout
