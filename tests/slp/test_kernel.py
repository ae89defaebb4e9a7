"""Unit, counter and equivalence tests for the grammar fold.

The scan kernel (:class:`~repro.fsa.determinize.DeterministicKernel`)
accepts SLP-compressed cells next to plain strings.  The contract
mirrors the plain scan's: exact verdict agreement with the reference
search on the expanded rows (hypothesis-driven below and in
``tests/slp/test_differential.py``), plus the grammar path's own
promise — acceptance work scales with *rules*, never expanded length.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.alphabet import AB, DNA, LEFT_END, RIGHT_END
from repro.errors import AlphabetError, ArityError
from repro.fsa.determinize import MAX_SUMMARIES, DeterministicKernel
from repro.fsa.kernel import CompiledKernel, kernel_for
from repro.fsa.machine import make_fsa
from repro.fsa.simulate import reference_accepts
from repro.observability import Tracer, activate
from repro.slp import SLP, compress, literal, repeat


def contains_ab():
    """A unidirectional machine accepting strings containing ``ab``."""
    return make_fsa(
        1,
        AB,
        "s",
        ["f"],
        [
            ("s", (LEFT_END,), "scan", (+1,)),
            ("scan", ("a",), "scan", (+1,)),
            ("scan", ("b",), "scan", (+1,)),
            ("scan", ("a",), "saw_a", (+1,)),
            ("saw_a", ("b",), "win", (+1,)),
            ("win", ("a",), "win", (+1,)),
            ("win", ("b",), "win", (+1,)),
            ("win", (RIGHT_END,), "f", (0,)),
        ],
    )


def two_way_machine():
    """An out-of-fragment machine (moves left): the v1 kernel answers."""
    return make_fsa(
        1,
        AB,
        "s",
        ["f"],
        [
            ("s", (LEFT_END,), "fwd", (+1,)),
            ("fwd", ("a",), "fwd", (+1,)),
            ("fwd", ("b",), "back", (-1,)),
            ("back", ("a",), "back", (-1,)),
            ("back", (LEFT_END,), "f", (0,)),
        ],
    )


class TestGrammarPath:
    def test_grammar_verdicts_match_string_verdicts(self):
        kernel = kernel_for(contains_ab())
        for text in ("", "a", "b", "ab", "ba", "bbab", "abab", "bbbb"):
            assert kernel.accepts((compress(text),)) == kernel.accepts(
                (text,)
            ), text

    def test_astronomical_input_answers_without_expanding(self):
        kernel = kernel_for(contains_ab())
        # 2·10¹² characters — impossible to materialize, ~60 rules.
        assert kernel.accepts((repeat(compress("ba"), 10**12),))
        assert not kernel.accepts((repeat(literal("b"), 10**12),))

    def test_empty_grammar_is_the_empty_string(self):
        kernel = kernel_for(contains_ab())
        assert kernel.accepts((compress(""),)) == kernel.accepts(("",))

    def test_batch_mixes_strings_and_grammars(self):
        kernel = kernel_for(contains_ab())
        rows = [("ab",), (compress("ba"),), ("bb",), (compress("aab"),)]
        assert kernel.accepts_batch(rows) == (True, False, False, True)

    def test_arity_and_alphabet_validation_still_fire(self):
        kernel = kernel_for(contains_ab())
        with pytest.raises(ArityError):
            kernel.accepts((compress("a"), compress("b")))
        with pytest.raises(AlphabetError):
            kernel.accepts((compress("xyz"),))

    def test_summaries_are_shared_across_calls(self):
        tracer = Tracer()
        kernel = kernel_for(contains_ab())
        kernel._summaries.clear()
        block = compress("abba")
        with activate(tracer):
            kernel.accepts((block,))
            first = tracer.counters.get("kernel.slp_summaries", 0)
            kernel.accepts((repeat(block, 500),))
            second = tracer.counters.get("kernel.slp_summaries", 0)
        assert first > 0
        # The repeat reuses every rule of `block`: only the doubling
        # spine above it is new, logarithmic in the repeat count.
        assert second - first <= 2 * 500 .bit_length() + 2

    def test_summary_memo_is_bounded(self):
        kernel = kernel_for(contains_ab())
        kernel._summaries.clear()
        # Force eviction with many distinct rules.
        kernel._summaries.update(
            {object(): None for _ in range(MAX_SUMMARIES)}
        )
        kernel.accepts((compress("ab"),))
        assert len(kernel._summaries) <= MAX_SUMMARIES


class TestDispatchAndCaching:
    def test_kernel_for_returns_the_scan_kernel(self):
        kernel = kernel_for(contains_ab())
        assert isinstance(kernel, DeterministicKernel)
        assert kernel.accepts((compress("ab"),)) and kernel.accepts(("ab",))

    def test_out_of_fragment_falls_back_to_v1(self):
        fsa = two_way_machine()
        tracer = Tracer()
        with activate(tracer):
            kernel = kernel_for(fsa)
        assert isinstance(kernel, CompiledKernel)
        assert tracer.counters["kernel.fallback"] == 1
        assert kernel.accepts(("aab",))

    def test_pickled_kernel_travels_as_its_machine(self):
        kernel = kernel_for(contains_ab())
        kernel.accepts((compress("abba"),))
        clone = pickle.loads(pickle.dumps(kernel))
        assert isinstance(clone, DeterministicKernel)
        assert clone.accepts((repeat(compress("ba"), 10**9),))

    def test_classify_memo_counter(self):
        from repro.fsa.determinize import classify_fragment

        fsa = contains_ab()
        tracer = Tracer()
        with activate(tracer):
            classify_fragment(fsa)
            classify_fragment(fsa)
        assert tracer.counters["kernel.classify.hits"] == 1


def equality_machine():
    """A right-restricted 2-tape machine accepting ``x = y``."""
    transitions = [("s", (LEFT_END, LEFT_END), "cmp", (+1, +1))]
    for char in AB:
        transitions.append(("cmp", (char, char), "cmp", (+1, +1)))
    transitions.append(("cmp", (RIGHT_END, RIGHT_END), "f", (0, 0)))
    return make_fsa(2, AB, "s", ["f"], transitions)


def _expanded(row):
    return tuple(
        cell.expand() if isinstance(cell, SLP) else cell for cell in row
    )


class TestCounters:
    def test_multitape_slp_cells_expand_and_agree(self):
        kernel = kernel_for(equality_machine())
        assert isinstance(kernel, DeterministicKernel)
        tracer = Tracer()
        with activate(tracer):
            assert kernel.accepts((compress("abab"), "abab"))
            assert not kernel.accepts((compress("ab"), compress("ba")))
        assert tracer.counters["kernel.slp_expanded"] == 3
        assert "simulate.grammar_rules" not in tracer.counters

    def test_single_tape_slp_rows_fold_on_the_grammar(self):
        kernel = kernel_for(contains_ab())
        tracer = Tracer()
        with activate(tracer):
            kernel.accepts_batch([(compress("abab"),), ("ab",)])
        assert tracer.counters["simulate.grammar_rules"] > 0
        assert "kernel.slp_expanded" not in tracer.counters

    def test_plain_batch_touches_no_rules(self):
        kernel = kernel_for(contains_ab())
        tracer = Tracer()
        with activate(tracer):
            kernel.accepts_batch([("ab",), ("ba",), ("",)])
        assert tracer.counters.get("simulate.grammar_rules", 0) == 0
        assert tracer.counters["simulate.runs"] == 3


_CELL = st.tuples(st.text(alphabet="ab", max_size=8), st.booleans()).map(
    lambda pair: compress(pair[0]) if pair[1] else pair[0]
)


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(_CELL), max_size=12))
def test_mixed_single_tape_batch_matches_reference(rows):
    fsa = contains_ab()
    expected = tuple(reference_accepts(fsa, _expanded(row)) for row in rows)
    assert kernel_for(fsa).accepts_batch(rows) == expected


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(_CELL, _CELL), max_size=12))
def test_mixed_two_tape_batch_matches_reference(rows):
    fsa = equality_machine()
    # Equal pairs keep the accepting side of the language in play.
    rows = rows + [(cell, _expanded((cell,))[0]) for cell, _ in rows]
    expected = tuple(reference_accepts(fsa, _expanded(row)) for row in rows)
    assert kernel_for(fsa).accepts_batch(rows) == expected


@settings(max_examples=60, deadline=None)
@given(text=st.text(alphabet="ab", max_size=24))
def test_grammar_path_equals_reference_on_random_strings(text):
    fsa = contains_ab()
    assert kernel_for(fsa).accepts((compress(text),)) == reference_accepts(
        fsa, (text,)
    )


@settings(max_examples=30, deadline=None)
@given(
    base=st.text(alphabet="acgt", min_size=1, max_size=4),
    reps=st.integers(min_value=1, max_value=64),
)
def test_grammar_path_equals_scan_on_repeats(base, reps):
    fsa = make_fsa(
        1,
        DNA,
        "s",
        ["f"],
        [
            ("s", (LEFT_END,), "scan", (+1,)),
            *[("scan", (c,), "scan", (+1,)) for c in DNA],
            ("scan", ("g",), "saw_g", (+1,)),
            ("saw_g", ("a",), "win", (+1,)),
            *[("win", (c,), "win", (+1,)) for c in DNA],
            ("win", (RIGHT_END,), "f", (0,)),
        ],
    )
    kernel = kernel_for(fsa)
    assert kernel.accepts((repeat(compress(base), reps),)) == kernel.accepts(
        (base * reps,)
    )


def test_slp_type_reexported():
    assert SLP is type(compress("ab"))
