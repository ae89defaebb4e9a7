"""Differential and caching tests for the compiled simulation kernel.

The kernel's contract is *exact* equivalence with the reference
Theorem 3.3 search — same verdicts, same validation errors — plus
instance/session caching so the compile cost is paid once.  The
hypothesis differential drives random machines on random input tuples;
the workload differential drives paper-shaped machines on rows from
every synthetic workload generator.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import shorthands as sh
from repro.core.alphabet import AB, DNA, LEFT_END, RIGHT_END, Alphabet
from repro.errors import AlphabetError, ArityError
from repro.fsa.compile import compile_string_formula
from repro.fsa.kernel import MAX_BINDINGS, compile_kernel, kernel_for
from repro.fsa.machine import make_fsa
from repro.fsa.simulate import accepts, accepts_batch, reference_accepts
from repro.observability import Tracer, activate
from repro.workloads.generators import (
    copy_language_strings,
    manifold_strings,
    near_duplicates,
    uniform_strings,
    with_planted_motif,
)


def equality_machine():
    transitions = [("s", (LEFT_END, LEFT_END), "cmp", (+1, +1))]
    for char in AB:
        transitions.append(("cmp", (char, char), "cmp", (+1, +1)))
    transitions.append(("cmp", (RIGHT_END, RIGHT_END), "f", (0, 0)))
    return make_fsa(2, AB, "s", ["f"], transitions)


class TestEquivalence:
    def test_equality_machine(self):
        kernel = compile_kernel(equality_machine())
        assert kernel.accepts(("abab", "abab"))
        assert kernel.accepts(("", ""))
        assert not kernel.accepts(("ab", "ba"))
        assert not kernel.accepts(("ab", "abb"))

    def test_halting_acceptance_requires_stuckness(self):
        # A final state with an enabled transition does not accept.
        fsa = make_fsa(1, AB, "s", ["s"], [("s", (LEFT_END,), "s", (0,))])
        kernel = compile_kernel(fsa)
        assert not kernel.accepts(("",))
        assert not kernel.accepts(("a",))

    def test_final_state_accepts_when_stuck(self):
        fsa = make_fsa(1, AB, "s", ["s"], [("s", ("a",), "s", (0,))])
        kernel = compile_kernel(fsa)
        assert kernel.accepts(("a",))
        assert kernel.accepts(("",))

    def test_arity_zero_machine(self):
        accepting = make_fsa(0, AB, "s", ["f"], [("s", (), "f", ())])
        rejecting = make_fsa(0, AB, "s", [], [], extra_states=["s"])
        assert compile_kernel(accepting).accepts(()) is True
        assert compile_kernel(rejecting).accepts(()) is False
        assert reference_accepts(accepting, ()) is True
        assert reference_accepts(rejecting, ()) is False

    def test_two_way_machine_matches_reference(self):
        fsa = compile_string_formula(sh.manifold("x", "y"), AB).fsa
        kernel = compile_kernel(fsa)
        for row in [("abab", "ab"), ("aba", "ab"), ("", ""), ("aa", "a")]:
            assert kernel.accepts(row) == reference_accepts(fsa, row)

    def test_batch_matches_per_row(self):
        fsa = equality_machine()
        rows = [
            (u, v) for u in AB.strings(2) for v in AB.strings(2)
        ]
        kernel = compile_kernel(fsa)
        assert kernel.accepts_batch(rows) == tuple(
            reference_accepts(fsa, row) for row in rows
        )
        assert accepts_batch(fsa, rows) == kernel.accepts_batch(rows)


class TestValidation:
    def test_arity_error(self):
        with pytest.raises(ArityError):
            compile_kernel(equality_machine()).accepts(("a",))

    def test_alphabet_error(self):
        with pytest.raises(AlphabetError):
            compile_kernel(equality_machine()).accepts(("a", "xz"))

    def test_endmarker_characters_rejected(self):
        # Reference validation rejects ⊢/⊣ inside inputs; interning
        # must not quietly map them to the endmarker symbol ids.
        kernel = compile_kernel(equality_machine())
        with pytest.raises(AlphabetError):
            kernel.accepts((LEFT_END, LEFT_END))
        with pytest.raises(AlphabetError):
            kernel.accepts((RIGHT_END, RIGHT_END))

    def test_batch_validates_every_row(self):
        kernel = compile_kernel(equality_machine())
        with pytest.raises(ArityError):
            kernel.accepts_batch([("a", "a"), ("a",)])
        with pytest.raises(AlphabetError):
            kernel.accepts_batch([("a", "a"), ("a", "z")])


# -- hypothesis differential: random machines × random inputs ----------

_TAPE_SYMBOLS = AB.tape_symbols()


@st.composite
def _random_machines(draw):
    arity = draw(st.integers(min_value=1, max_value=2))
    state_count = draw(st.integers(min_value=1, max_value=4))
    states = list(range(state_count))
    finals = draw(st.lists(st.sampled_from(states), max_size=state_count))
    transitions = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        source = draw(st.sampled_from(states))
        target = draw(st.sampled_from(states))
        reads = tuple(
            draw(st.sampled_from(_TAPE_SYMBOLS)) for _ in range(arity)
        )
        moves = []
        for symbol in reads:
            options = [-1, 0, +1]
            if symbol == LEFT_END:
                options.remove(-1)
            if symbol == RIGHT_END:
                options.remove(+1)
            moves.append(draw(st.sampled_from(options)))
        transitions.append((source, reads, target, tuple(moves)))
    return make_fsa(
        arity, AB, 0, finals, transitions, extra_states=states
    )


_words = st.text(alphabet="ab", max_size=3)


@settings(max_examples=120, deadline=None)
@given(fsa=_random_machines(), data=st.data())
def test_kernel_equals_reference_on_random_machines(fsa, data):
    inputs = tuple(data.draw(_words) for _ in range(fsa.arity))
    assert compile_kernel(fsa).accepts(inputs) == reference_accepts(
        fsa, inputs
    )


# -- workload differential: paper machines on generator rows -----------


def _workload_rows():
    yield "uniform", AB, [
        (u, v)
        for u, v in zip(
            uniform_strings(AB, 8, 4, seed=3),
            uniform_strings(AB, 8, 4, seed=4),
        )
    ]
    yield "motif", AB, [
        (u, v)
        for u, v in zip(
            with_planted_motif(AB, "ab", count=8, max_length=4, seed=5),
            with_planted_motif(AB, "ba", count=8, max_length=4, seed=6),
        )
    ]
    yield "near-dup", AB, [
        (u, v)
        for u, v in zip(
            near_duplicates(AB, "abab", count=8, max_edits=2, seed=7),
            near_duplicates(AB, "abab", count=8, max_edits=2, seed=8),
        )
    ]
    yield "copy-lang", AB, [
        (u, v)
        for u, v in zip(
            copy_language_strings(count=8, max_half_length=2, seed=9),
            copy_language_strings(count=8, max_half_length=2, seed=10),
        )
    ]
    yield "manifold", AB, manifold_strings(
        AB, count=8, max_base_length=2, max_repeats=3, seed=11
    )
    yield "dna", DNA, [
        (u, v)
        for u, v in zip(
            uniform_strings(DNA, 6, 3, seed=12),
            uniform_strings(DNA, 6, 3, seed=13),
        )
    ]


@pytest.mark.parametrize(
    "name,alphabet,rows",
    list(_workload_rows()),
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_kernel_equals_reference_on_workloads(name, alphabet, rows):
    machines = [
        compile_string_formula(build("x", "y"), alphabet).fsa
        for build in (
            sh.equals,
            sh.prefix_of,
            sh.occurs_in,
            sh.manifold,
        )
    ]
    for fsa in machines:
        kernel = kernel_for(fsa)
        for row in rows:
            assert kernel.accepts(row) == reference_accepts(fsa, row), (
                name,
                fsa,
                row,
            )


# -- caching -----------------------------------------------------------


class TestKernelCache:
    def test_instance_cache_returns_same_kernel(self):
        fsa = equality_machine()
        assert kernel_for(fsa) is kernel_for(fsa)

    def test_distinct_instances_compile_separately(self):
        first, second = equality_machine(), equality_machine()
        assert first == second  # structurally equal machines...
        assert kernel_for(first) is not kernel_for(second)  # ...per instance

    def test_compile_and_hit_counters(self, forced_v1):
        # The equality machine is in the v2 fragment, so the v1
        # counters are observed with the determinizer declining.
        fsa = equality_machine()
        tracer = Tracer()
        with activate(tracer):
            kernel_for(fsa)
            kernel_for(fsa)
            accepts(fsa, ("ab", "ab"))
        assert tracer.counters["kernel.compile"] == 1
        assert tracer.counters["kernel.hits"] == 2
        assert tracer.counters["simulate.runs"] == 1
        assert tracer.counters["simulate.kernel_configurations"] > 0

    def test_v2_counters_under_auto_default(self):
        fsa = equality_machine()
        tracer = Tracer()
        with activate(tracer):
            kernel_for(fsa)
            kernel_for(fsa)
            accepts(fsa, ("ab", "ab"))
        assert tracer.counters["kernel.determinize"] == 1
        assert tracer.counters["kernel.dfa_states"] > 0
        assert tracer.counters["kernel.v2_hits"] == 2
        assert tracer.counters["simulate.runs"] == 1
        assert tracer.counters["simulate.scan_symbols"] > 0
        assert "kernel.compile" not in tracer.counters

    def test_pickled_machine_drops_kernel_stash(self):
        fsa = equality_machine()
        kernel_for(fsa)
        clone = pickle.loads(pickle.dumps(fsa))
        assert "_kernel" not in clone.__dict__
        assert accepts(clone, ("ab", "ab"))

    def test_pickled_kernel_travels_as_its_machine(self):
        kernel = kernel_for(equality_machine())
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone.accepts(("ab", "ab"))

    def test_binding_cache_is_bounded(self):
        kernel = compile_kernel(equality_machine())
        for length in range(MAX_BINDINGS + 8):
            kernel.accepts(("a" * length, "a" * length))
        assert len(kernel._bindings) <= MAX_BINDINGS

    def test_shared_binding_across_equal_shapes(self):
        kernel = compile_kernel(equality_machine())
        kernel.accepts(("ab", "ba"))
        kernel.accepts(("ba", "ab"))  # same shape, same binding
        assert len(kernel._bindings) == 1


def test_default_alphabet_constructible():
    # Alphabets other than AB/DNA compile too (regression guard for
    # the symbol-interning order).
    alphabet = Alphabet("xyz")
    fsa = make_fsa(
        1,
        alphabet,
        "s",
        ["f"],
        [
            ("s", (LEFT_END,), "scan", (+1,)),
            ("scan", ("x",), "scan", (+1,)),
            ("scan", (RIGHT_END,), "f", (0, )),
        ],
    )
    kernel = compile_kernel(fsa)
    for word in ("", "x", "xx", "xy", "yx"):
        assert kernel.accepts((word,)) == reference_accepts(fsa, (word,))
