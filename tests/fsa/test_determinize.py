"""Differential and property tests for the determinized v2 kernel.

The v2 contract has two halves, both enforced here:

* **exactness** — for every machine the fragment detector admits, the
  determinized scan returns exactly the verdicts of the reference
  Theorem 3.3 search (`simulate.reference_accepts`), on *exhaustive*
  ``Σ^{<=l}`` input spaces, not samples;
* **soundness of the fallback** — machines outside the fragment are
  never determinized: the detector says ``None``, ``determinize``
  declines, and ``kernel_for`` transparently answers with the v1
  worklist kernel while bumping the ``kernel.fallback`` counter.

The batch entry point is one early-exit scan per row, so it is held
to the per-row calls as well: same verdicts, same counter totals, and
the same alphabet validation even past the point where a scan settles.
A batch of single-tape plain strings is interned in one pass over the
joined rows; every batch that cannot be falls back to the per-row loop
with the loop's errors and counters.  A kernel whose table is proven to
be the KMP automaton of an occurrence language ``Σ*·f·Σ*`` answers such
a batch by substring search, held to the table scan (the
``forced_scan`` fixture), the per-row loop and the reference; every
other shape keeps the scan.
"""

import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import shorthands as sh
from repro.core.alphabet import AB, DNA, LEFT_END, RIGHT_END, Alphabet
from repro.core.syntax import IsChar, SStar, Var, WTrue, atom, concat, left
from repro.errors import AlphabetError, ArityError
from repro.fsa.compile import compile_string_formula
from repro.fsa.determinize import (
    MAX_DFA_CELLS,
    RIGHT_RESTRICTED,
    UNIDIRECTIONAL,
    DeterministicKernel,
    classify_fragment,
    determinize,
    determinized_for,
    dfa_to_fsa,
    lockstep_intersection,
)
from repro.fsa.kernel import CompiledKernel, kernel_for
from repro.fsa.machine import make_fsa
from repro.fsa.simulate import reference_accepts
from repro.observability import Tracer, activate
from repro.slp import SLP, compress

_TAPE_SYMBOLS = AB.tape_symbols()
_NON_RIGHT_END = tuple(s for s in _TAPE_SYMBOLS if s != RIGHT_END)


def _compiled(build):
    return compile_string_formula(build(Var("x"), Var("y")), AB).fsa


def _exhaustive_rows(arity, max_length):
    pool = list(AB.strings(max_length))
    if arity == 1:
        return [(word,) for word in pool]
    return [(u, v) for u in pool for v in pool]


# -- hypothesis strategies ---------------------------------------------


@st.composite
def _in_fragment_machines(draw):
    """Random unidirectional / right-restricted (lockstep) machines."""
    arity = draw(st.integers(min_value=1, max_value=2))
    state_count = draw(st.integers(min_value=1, max_value=4))
    states = list(range(state_count))
    finals = draw(st.lists(st.sampled_from(states), max_size=state_count))
    transitions = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        source = draw(st.sampled_from(states))
        target = draw(st.sampled_from(states))
        advance = draw(st.booleans())
        # All-right transitions may not read ⊣ (heads cannot move
        # right off the endmarker), matching the FSA constructor.
        symbols = _NON_RIGHT_END if advance else _TAPE_SYMBOLS
        reads = tuple(
            draw(st.sampled_from(symbols)) for _ in range(arity)
        )
        moves = ((+1 if advance else 0),) * arity
        transitions.append((source, reads, target, moves))
    return make_fsa(arity, AB, 0, finals, transitions, extra_states=states)


@st.composite
def _out_of_fragment_machines(draw):
    """Random machines guaranteed outside the Theorem 5.2 fragment."""
    arity = draw(st.integers(min_value=1, max_value=2))
    state_count = draw(st.integers(min_value=1, max_value=4))
    states = list(range(state_count))
    finals = draw(st.lists(st.sampled_from(states), max_size=state_count))
    transitions = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
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
    # Plant one transition that breaks the fragment for sure: a left
    # move (any arity) or a mixed stay/right move pair (arity 2).
    source = draw(st.sampled_from(states))
    target = draw(st.sampled_from(states))
    if arity == 1 or draw(st.booleans()):
        reads = tuple(
            draw(st.sampled_from(("a", "b", RIGHT_END)))
            for _ in range(arity)
        )
        moves = (-1,) + (0,) * (arity - 1)
    else:
        reads = tuple(
            draw(st.sampled_from(_NON_RIGHT_END)) for _ in range(arity)
        )
        moves = (0, +1)
    transitions.append((source, reads, target, moves))
    return make_fsa(arity, AB, 0, finals, transitions, extra_states=states)


# -- the differential property -----------------------------------------


@settings(max_examples=150, deadline=None)
@given(fsa=_in_fragment_machines())
def test_v2_equals_reference_exhaustively(fsa):
    assert classify_fragment(fsa) is not None
    kernel = determinize(fsa)
    assert kernel is not None
    rows = _exhaustive_rows(fsa.arity, 3 if fsa.arity == 1 else 2)
    expected = tuple(reference_accepts(fsa, row) for row in rows)
    assert tuple(kernel.accepts(row) for row in rows) == expected
    assert kernel.accepts_batch(rows) == expected


@settings(max_examples=100, deadline=None)
@given(fsa=_out_of_fragment_machines())
def test_out_of_fragment_falls_back_to_v1(fsa):
    assert classify_fragment(fsa) is None
    assert determinize(fsa) is None
    tracer = Tracer()
    with activate(tracer):
        kernel = kernel_for(fsa)
    assert isinstance(kernel, CompiledKernel)
    assert tracer.counters["kernel.fallback"] == 1
    rows = _exhaustive_rows(fsa.arity, 2 if fsa.arity == 1 else 1)
    for row in rows:
        assert kernel.accepts(row) == reference_accepts(fsa, row)


# -- one early-exit scan per row ----------------------------------------

#: Cell lengths for the mixed batches: empty, short, and long enough
#: that a row settling early leaves most of itself unread.
_CELL_LENGTHS = (0, 1, 2, 3, 5, 8, 300, 2000)

_COUNTERS = (
    "simulate.runs",
    "simulate.scan_symbols",
    "simulate.grammar_rules",
    "kernel.slp_expanded",
)


@st.composite
def _cells(draw, plain=False):
    """A plain or SLP cell over ``ab``, empty to 2000 characters."""
    length = draw(st.sampled_from(_CELL_LENGTHS))
    unit = draw(st.text(alphabet="ab", min_size=1, max_size=5))
    text = (unit * (length // len(unit) + 1))[:length]
    return text if plain or draw(st.booleans()) else compress(text)


@st.composite
def _machines_with_batches(draw):
    """A machine and a batch; half the batches are plain strings only."""
    fsa = draw(_in_fragment_machines())
    cells = _cells(plain=draw(st.booleans()))
    rows = draw(st.lists(st.tuples(*[cells] * fsa.arity), max_size=6))
    return fsa, rows


def _expanded(row):
    return tuple(
        cell.expand() if isinstance(cell, SLP) else cell for cell in row
    )


def _first_ab():
    """Accepts as soon as ``ab`` has been read: a sticky ACCEPT mid-row."""
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
            ("saw_a", ("b",), "f", (+1,)),
        ],
    )


def _contains(alphabet, symbol):
    """A one-tape machine accepting as soon as ``symbol`` is read."""
    transitions = [("s", (LEFT_END,), "scan", (+1,))]
    transitions += [("scan", (char,), "scan", (+1,)) for char in alphabet]
    transitions.append(("scan", (symbol,), "f", (+1,)))
    return make_fsa(1, alphabet, "s", ["f"], transitions)


def _plain_single_tape(rows):
    return bool(rows) and all(
        len(row) == 1 and type(row[0]) is str for row in rows
    )


@settings(max_examples=120, deadline=None)
@given(case=_machines_with_batches())
def test_batch_equals_rows_and_reference(case):
    """Batch, per-row calls and the per-row loop agree with the
    reference and with each other's counters; plain single-tape
    batches take the joined intern pass."""
    fsa, rows = case
    kernel = determinize(fsa)
    tracers = {"batch": Tracer(), "rows": Tracer(), "loop": Tracer()}
    with activate(tracers["batch"]):
        batch = kernel.accepts_batch(rows)
    with activate(tracers["rows"]):
        single = tuple(kernel.accepts(row) for row in rows)
    with activate(tracers["loop"]):
        loop = kernel._scan_each(rows)
    expected = tuple(reference_accepts(fsa, _expanded(row)) for row in rows)
    assert batch == single == loop == expected
    for name in _COUNTERS:
        totals = {
            route: tracer.counters.get(name, 0)
            for route, tracer in tracers.items()
        }
        assert len(set(totals.values())) == 1, (name, totals)
    joined = kernel._scan_joined(rows)
    if _plain_single_tape(rows):
        assert joined == expected
    else:
        assert joined is None


class TestEarlyExit:
    def test_settled_rows_stop_reading(self):
        kernel = determinize(_first_ab())
        tracer = Tracer()
        with activate(tracer):
            verdicts = kernel.accepts_batch(
                [("ab" + "b" * 2000,), ("b" * 2000,), ("",)]
            )
        assert verdicts == (True, False, False)
        # ⊢, a, b and the column after them reach ACCEPT; the other
        # rows never settle before their ⊣.
        assert tracer.counters["simulate.scan_symbols"] == 4 + 2002 + 2

    def test_rows_settling_at_the_first_symbol(self):
        dead_at_start = make_fsa(
            1, AB, "s", [], [("s", ("a",), "s", (+1,))]
        )
        equal = determinize(_compiled(sh.equals))
        tracer = Tracer()
        with activate(tracer):
            assert determinize(dead_at_start).accepts_batch(
                [("a" * 2000,), ("",)]
            ) == (False, False)
            assert equal.accepts(("a" * 2000, "b" * 2000)) is False
        # One column each for the dead start; ⊢⊢ then (a, b) for equal.
        assert tracer.counters["simulate.scan_symbols"] == 1 + 1 + 2

    def test_alphabet_error_after_the_settle_point(self):
        kernel = determinize(_first_ab())
        assert kernel.accepts(("abb",))
        with pytest.raises(AlphabetError, match="'z' of 'abbz'"):
            kernel.accepts(("abbz",))
        with pytest.raises(AlphabetError, match="'z'"):
            kernel.accepts_batch([("ab",), ("ab" + "b" * 50 + "z",)])
        equal = determinize(_compiled(sh.equals))
        with pytest.raises(AlphabetError, match="'z'"):
            equal.accepts(("a", "bz"))  # dies at (a, b), then 'z'
        with pytest.raises(AlphabetError, match="'z'"):
            equal.accepts((compress("a"), compress("bz")))

    def test_interning_table_never_grows(self):
        kernel = determinize(_first_ab())
        for char in ("z", "\x00", "\x02", LEFT_END, RIGHT_END, "é", "😀"):
            with pytest.raises(AlphabetError):
                kernel.accepts(("ab" + char,))
        kernel.accepts_batch([("ab" * 100,), ("ba" * 100,)])
        assert len(kernel._codes) == len(AB.symbols)

    @pytest.mark.parametrize(
        "symbols",
        [
            "\x01\x00\x03\x02",  # ords that are other symbols' codes
            [chr(0x100 + index) for index in range(300)],  # > 256 codes
            "αβγδ",
            [chr(index) for index in range(1, 256)],  # ids reach 254
        ],
        ids=["control-characters", "300-symbols", "non-latin-1", "latin-1"],
    )
    def test_alphabets_of_any_size(self, symbols):
        alphabet = Alphabet(symbols)
        chars = alphabet.symbols
        fsa = _contains(alphabet, chars[1])
        kernel = determinize(fsa)
        # NUL in Σ, 254+ tape symbols, characters beyond latin-1: the
        # joined intern pass cannot hold these, the per-row loop does.
        assert kernel._bytes is None
        rows = [(chars[0] * length,) for length in (0, 1, 40)]
        rows += [(chars[2] + chars[1],), ("".join(chars[::-1]),)]
        rows += [(chars[-1] * 30 + chars[1] + chars[0] * 30,)]
        expected = tuple(reference_accepts(fsa, row) for row in rows)
        assert kernel.accepts_batch(rows) == expected
        assert expected == (False, False, False, True, True, True)

    def test_alphabet_error_in_the_last_row_of_a_batch(self):
        kernel = determinize(_first_ab())
        rows = [("ab",), ("b" * 40,), ("ab" + "b" * 50 + "z",)]
        tracer = Tracer()
        with activate(tracer), pytest.raises(AlphabetError) as batch:
            kernel.accepts_batch(rows)
        with pytest.raises(AlphabetError) as loop:
            kernel._scan_each(rows)
        assert str(batch.value) == str(loop.value)
        assert "'z' of 'abbb" in str(batch.value)
        assert not tracer.counters

    @pytest.mark.parametrize("char", ["\x00", "é", "😀", LEFT_END])
    def test_characters_outside_sigma_never_split_a_row(self, char):
        kernel = determinize(_first_ab())
        rows = [("b",), ("a" + char + "b",)]
        assert kernel._scan_joined(rows) is None
        tracer = Tracer()
        with activate(tracer), pytest.raises(AlphabetError) as batch:
            kernel.accepts_batch(rows)
        with pytest.raises(AlphabetError) as loop:
            kernel._scan_each(rows)
        assert str(batch.value) == str(loop.value)
        assert not tracer.counters

    def test_slp_and_plain_cells_mixed(self):
        kernel = determinize(_first_ab())
        rows = [("ab",), (compress("bab"),), ("bb",)]
        assert kernel._scan_joined(rows) is None
        batch_tracer, loop_tracer = Tracer(), Tracer()
        with activate(batch_tracer):
            verdicts = kernel.accepts_batch(rows)
        with activate(loop_tracer):
            assert kernel._scan_each(rows) == verdicts == (True, True, False)
        for name in _COUNTERS:
            assert batch_tracer.counters.get(name, 0) == (
                loop_tracer.counters.get(name, 0)
            ), name

    def test_wrong_width_row(self):
        kernel = determinize(_first_ab())
        tracer = Tracer()
        with activate(tracer), pytest.raises(
            ArityError, match="^1-FSA fed 2 input strings$"
        ):
            kernel.accepts_batch([("ab",), ("a", "b")])
        assert not tracer.counters

    def test_empty_batch(self):
        kernel = determinize(_first_ab())
        assert kernel._scan_joined([]) is None
        tracer = Tracer()
        with activate(tracer):
            assert kernel.accepts_batch([]) == ()
        assert tracer.counters.get("simulate.runs", 0) == 0

    @pytest.mark.parametrize(
        "rows",
        [
            # A separator at every byte, so one falls on each slice
            # boundary; the last row is empty.
            [("",)] * 20_000 + [("ab",), ("",)],
            [(("ab", "bba", "b" * 40, "", "aab")[index % 5],)
             for index in range(6_000)],
            [("b" * 20_000,), ("",), ("b" * 16_383 + "ab",)],
        ],
        ids=["empty-rows", "mixed-rows", "long-rows"],
    )
    def test_batches_spanning_many_slices(self, rows):
        kernel = determinize(_first_ab())
        tracers = {"batch": Tracer(), "loop": Tracer()}
        with activate(tracers["batch"]):
            batch = kernel.accepts_batch(rows)
        with activate(tracers["loop"]):
            loop = kernel._scan_each(rows)
        assert batch == loop
        assert batch == tuple("ab" in row for (row,) in rows)
        assert tracers["batch"].counters == tracers["loop"].counters

    def test_generator_of_rows(self):
        kernel = determinize(_first_ab())
        words = ["ab", "ba", "bab", ""]
        assert kernel.accepts_batch((word,) for word in words) == (
            True, False, True, False
        )

    def test_a_bare_string_is_a_row_of_its_characters(self):
        kernel = determinize(_first_ab())
        assert kernel.accepts("a") is kernel.accepts(("a",)) is False
        assert kernel.accepts_batch(["a", "b"]) == (False, False)
        with pytest.raises(ArityError, match="fed 2 input strings"):
            kernel.accepts("ab")

    def test_multitape_columns_beyond_a_byte(self):
        alphabet = Alphabet("abcdefghijklmnopqrst")  # 22² packed columns
        fsa = compile_string_formula(
            sh.equals(Var("x"), Var("y")), alphabet
        ).fsa
        kernel = determinize(fsa)
        rows = [("tsr", "tsr"), ("tsr", "tsq"), ("", ""), ("t", "")]
        expected = tuple(reference_accepts(fsa, row) for row in rows)
        assert kernel.accepts_batch(rows) == expected == (
            True, False, True, False
        )


# -- occurrence languages: substring search ----------------------------


def _chars(motif):
    return [atom(left("y"), IsChar("y", char)) for char in motif]


def _anything():
    return SStar(atom(left("y"), WTrue()))


def _occurs(motif, alphabet):
    """``Σ*·motif``, as the end-to-end motif selections compile it."""
    return compile_string_formula(
        concat(_anything(), *_chars(motif)), alphabet
    ).fsa


def _forced_scan(kernel, rows):
    """``kernel.accepts_batch(rows)`` under the ``forced_scan`` fixture."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DeterministicKernel, "factor", None)
        return kernel.accepts_batch(rows)


@st.composite
def _motif_batches(draw):
    """A motif over ``ab`` or ``acgt`` and a batch built around it.

    The batch always holds an empty row, the motif itself and a row
    ending in it, plus random rows with and without the motif planted.
    """
    alphabet = draw(st.sampled_from([AB, DNA]))
    symbols = "".join(alphabet.symbols)
    motif = draw(st.text(alphabet=symbols, min_size=1, max_size=6))
    words = st.text(alphabet=symbols, max_size=24)
    rows = ["", motif, draw(words) + motif]
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        row = draw(words)
        if draw(st.booleans()):
            cut = draw(st.integers(min_value=0, max_value=len(row)))
            row = row[:cut] + motif + row[cut:]
        rows.append(row)
    rows = draw(st.permutations(rows))
    return alphabet, motif, [(row,) for row in rows]


@settings(max_examples=150, deadline=None)
@given(case=_motif_batches())
@example(case=(AB, "aaa", [("aa",), ("aaaa",), ("baaab",), ("",), ("aaa",)]))
@example(case=(AB, "abab", [("ababab",), ("abaab",), ("",), ("bbabab",)]))
@example(case=(DNA, "gcgcgc", [("gcgcgagcgcgc",), ("gcgcg",), ("",)]))
def test_occurrence_machines_search_for_their_factor(case):
    """Detection names the motif, and substring search returns the
    table scan's verdicts and counters, the per-row loop's and the
    reference's."""
    alphabet, motif, rows = case
    fsa = _occurs(motif, alphabet)
    kernel = determinize(fsa)
    assert kernel.factor == motif
    tracers = {"search": Tracer(), "scan": Tracer(), "loop": Tracer()}
    with activate(tracers["search"]):
        search = kernel.accepts_batch(rows)
    with activate(tracers["scan"]):
        scan = _forced_scan(kernel, rows)
    with activate(tracers["loop"]):
        loop = kernel._scan_each(rows)
    expected = tuple(reference_accepts(fsa, row) for row in rows)
    assert search == scan == loop == expected
    assert expected == tuple(motif in row for (row,) in rows)
    for name in ("simulate.runs", "simulate.scan_symbols"):
        totals = {
            route: tracer.counters.get(name, 0)
            for route, tracer in tracers.items()
        }
        assert len(set(totals.values())) == 1, (name, totals)


def _scanner(advances, accepts_at):
    """A one-tape DFA-shaped machine over ``ab`` starting in state 0.

    ``advances`` maps ``(state, symbol)`` to the next state; each
    ``(state, symbol)`` in ``accepts_at`` halts in the final state on
    that column, as the compiled occurrence machines do.
    """
    transitions = [("s", (LEFT_END,), 0, (+1,))]
    transitions += [
        (state, (symbol,), target, (+1,))
        for (state, symbol), target in advances.items()
    ]
    transitions += [
        (state, (symbol,), "f", (0,)) for state, symbol in accepts_at
    ]
    return make_fsa(1, AB, "s", ["f"], transitions)


def _negative_shapes():
    """Single-tape machines whose tables are no motif's KMP automaton."""
    # Each of the next three breaks exactly one rule of the product
    # walk for f = "ab"; the other rules hold.
    yield "ab-or-ends-in-b", _scanner(  # accepts ⊣ below |f|
        {(0, "a"): 1, (0, "b"): 2, (1, "a"): 1, (2, "a"): 1, (2, "b"): 2},
        [(1, "b"), (2, RIGHT_END)],
    )
    yield "starts-with-ab", _scanner(  # one table state, two KMP states
        {(0, "a"): 1, (0, "b"): 2, (1, "a"): 2, (2, "a"): 2, (2, "b"): 2},
        [(1, "b")],
    )
    yield "starts-with-a-holds-ab", _scanner(  # KMP |f| without ACCEPT
        {
            (0, "a"): 1, (0, "b"): 2, (1, "a"): 1,
            (2, "a"): 3, (2, "b"): 2, (3, "a"): 3, (3, "b"): 2,
        },
        [(1, "b")],
    )
    yield "Q6", compile_string_formula(sh.gc_plus_a_star("y"), DNA).fsa
    yield "f-and-g", lockstep_intersection(
        _occurs("ab", AB), _occurs("ba", AB)
    )
    yield "f-prefix", compile_string_formula(
        concat(*_chars("ab")), AB
    ).fsa
    yield "f-twice", compile_string_formula(
        concat(_anything(), *_chars("ab"), _anything(), *_chars("ab")), AB
    ).fsa
    yield "first-ab", _first_ab()
    yield "contains-b", _contains(AB, "b")


class TestFactorDetection:
    @pytest.mark.parametrize(
        "fsa",
        [pytest.param(fsa, id=name) for name, fsa in _negative_shapes()],
    )
    def test_other_languages_keep_the_scan(self, fsa):
        tracer = Tracer()
        with activate(tracer):
            kernel = determinize(fsa)
        assert kernel.factor is None
        assert "kernel.factor" not in tracer.counters
        rows = [(word,) for word in fsa.alphabet.strings(4)]
        expected = tuple(reference_accepts(fsa, row) for row in rows)
        assert kernel.accepts_batch(rows) == expected
        assert any(expected) and not all(expected)

    def test_detection_is_counted_once_per_kernel(self):
        tracer = Tracer()
        with activate(tracer):
            kernel = determinize(_occurs("gat", DNA))
            kernel.accepts_batch([("gattaca",), ("cat",)])
        assert kernel.factor == "gat"
        assert tracer.counters["kernel.factor"] == 1

    def test_multitape_and_slp_cells_keep_their_paths(self):
        assert determinize(_compiled(sh.equals)).factor is None
        kernel = determinize(_occurs("ab", AB))
        rows = [(compress("bab"),), ("ab",), ("bb",)]
        assert kernel._scan_joined(rows) is None
        tracer = Tracer()
        with activate(tracer):
            assert kernel.accepts_batch(rows) == (True, True, False)
        assert tracer.counters["simulate.grammar_rules"] > 0

    def test_wide_alphabets_keep_the_per_row_loop(self):
        alphabet = Alphabet([chr(0x100 + index) for index in range(3)])
        kernel = determinize(_occurs(alphabet.symbols[:2], alphabet))
        assert kernel._bytes is None and kernel.factor is None

    def test_pickled_kernel_reruns_the_check(self):
        kernel = determinize(_occurs("tac", DNA))
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone.factor == "tac"
        assert clone.accepts_batch([("gtaca",), ("tca",)]) == (True, False)


# -- the fragment detector as an artifact ------------------------------


class TestClassifyFragment:
    def test_paper_shorthand_machines(self):
        assert classify_fragment(_compiled(sh.equals)) == RIGHT_RESTRICTED
        assert classify_fragment(_compiled(sh.prefix_of)) == RIGHT_RESTRICTED
        assert classify_fragment(_compiled(sh.occurs_in)) is None
        assert classify_fragment(_compiled(sh.manifold)) is None

    def test_single_tape_stay_right_is_unidirectional(self):
        fsa = make_fsa(
            1,
            AB,
            "s",
            ["f"],
            [
                ("s", (LEFT_END,), "scan", (+1,)),
                ("scan", ("a",), "scan", (+1,)),
                ("scan", (RIGHT_END,), "f", (0,)),
            ],
        )
        assert classify_fragment(fsa) == UNIDIRECTIONAL

    def test_left_move_disqualifies(self):
        fsa = make_fsa(
            1, AB, "s", ["s"], [("s", ("a",), "s", (-1,))]
        )
        assert classify_fragment(fsa) is None

    def test_desynchronized_heads_disqualify(self):
        fsa = make_fsa(
            2, AB, "s", ["s"], [("s", ("a", "a"), "s", (0, +1))]
        )
        assert classify_fragment(fsa) is None

    def test_arity_zero_disqualifies(self):
        fsa = make_fsa(0, AB, "s", ["f"], [("s", (), "f", ())])
        assert classify_fragment(fsa) is None


class TestDeterminizeCaps:
    def test_cell_budget_declines(self):
        fsa = _compiled(sh.equals)
        assert determinize(fsa, max_cells=8) is None

    def test_default_budget_admits_paper_machines(self):
        assert MAX_DFA_CELLS >= 1 << 16
        kernel = determinize(_compiled(sh.equals))
        assert isinstance(kernel, DeterministicKernel)
        assert kernel.dfa_states >= 3  # dead, accept, start at least


# -- validation parity --------------------------------------------------


class TestValidation:
    def test_arity_error(self):
        kernel = determinize(_compiled(sh.equals))
        with pytest.raises(ArityError):
            kernel.accepts(("a",))
        with pytest.raises(ArityError):
            kernel.accepts_batch([("a", "a"), ("a",)])

    def test_alphabet_error(self):
        kernel = determinize(_compiled(sh.equals))
        with pytest.raises(AlphabetError):
            kernel.accepts(("a", "xz"))
        with pytest.raises(AlphabetError):
            kernel.accepts_batch([("a", "a"), ("a", "z")])

    def test_endmarker_characters_rejected(self):
        kernel = determinize(_compiled(sh.equals))
        with pytest.raises(AlphabetError):
            kernel.accepts((LEFT_END, LEFT_END))
        with pytest.raises(AlphabetError):
            kernel.accepts((RIGHT_END, RIGHT_END))


# -- counters and instance caching -------------------------------------


class TestCountersAndCache:
    def test_determinize_counters(self):
        fsa = _compiled(sh.equals)
        # compile_string_formula memoizes machines process-wide, so an
        # earlier test may already have stashed a kernel on this exact
        # instance; drop it to observe the first-build counters.
        fsa.__dict__.pop("_kernel_v2", None)
        tracer = Tracer()
        with activate(tracer):
            kernel = determinized_for(fsa)
            again = determinized_for(fsa)
        assert again is kernel
        assert tracer.counters["kernel.determinize"] == 1
        assert tracer.counters["kernel.dfa_states"] == kernel.dfa_states
        assert tracer.counters["kernel.v2_hits"] == 1

    def test_scan_symbols_counter(self):
        kernel = determinize(_compiled(sh.equals))
        tracer = Tracer()
        with activate(tracer):
            kernel.accepts(("ab", "ab"))
            kernel.accepts_batch([("a", "a"), ("b", "a")])
        assert tracer.counters["simulate.runs"] == 3
        assert tracer.counters["simulate.scan_symbols"] >= 3

    def test_unsupported_verdict_is_cached(self):
        fsa = _compiled(sh.manifold)
        assert determinized_for(fsa) is None
        assert fsa.__dict__["_kernel_v2"] == "unsupported"
        assert determinized_for(fsa) is None  # served from the stash


# -- pickling (the satellite-3 regression) ------------------------------


class TestPickling:
    def test_machine_pickle_drops_v2_stash(self):
        fsa = _compiled(sh.equals)
        kernel_for(fsa)  # populates _kernel_v2
        assert "_kernel_v2" in fsa.__dict__
        clone = pickle.loads(pickle.dumps(fsa))
        assert "_kernel_v2" not in clone.__dict__
        assert "_fragment" not in clone.__dict__
        assert "_kernel" not in clone.__dict__
        assert clone == fsa

    def test_unsupported_stash_dropped_too(self):
        fsa = _compiled(sh.manifold)
        kernel_for(fsa)  # stashes the "unsupported" verdict + v1 kernel
        clone = pickle.loads(pickle.dumps(fsa))
        assert "_kernel_v2" not in clone.__dict__

    def test_kernel_pickle_travels_as_its_machine(self):
        kernel = determinized_for(_compiled(sh.prefix_of))
        clone = pickle.loads(pickle.dumps(kernel))
        assert isinstance(clone, DeterministicKernel)
        assert clone.accepts(("ab", "abb"))
        assert not clone.accepts(("b", "ab"))


# -- decompilation and lockstep fusion ---------------------------------


class TestDfaToFsa:
    def test_round_trip_language(self):
        fsa = _compiled(sh.equals)
        machine = dfa_to_fsa(determinize(fsa))
        assert classify_fragment(machine) == RIGHT_RESTRICTED
        for row in _exhaustive_rows(2, 2):
            assert reference_accepts(machine, row) == reference_accepts(
                fsa, row
            )

    def test_unidirectional_round_trip(self):
        fsa = make_fsa(
            1,
            AB,
            "s",
            ["f"],
            [
                ("s", (LEFT_END,), "scan", (+1,)),
                ("scan", ("a",), "scan", (+1,)),
                ("scan", ("b",), "odd", (+1,)),
                ("odd", ("b",), "scan", (+1,)),
                ("odd", ("a",), "odd", (+1,)),
                ("scan", (RIGHT_END,), "f", (0,)),
            ],
        )
        machine = dfa_to_fsa(determinize(fsa))
        for row in _exhaustive_rows(1, 4):
            assert reference_accepts(machine, row) == reference_accepts(
                fsa, row
            )


class TestLockstepIntersection:
    def test_intersection_language(self):
        eq, prefix = _compiled(sh.equals), _compiled(sh.prefix_of)
        fused = lockstep_intersection(eq, prefix)
        assert fused is not None
        assert classify_fragment(fused) == RIGHT_RESTRICTED
        for row in _exhaustive_rows(2, 2):
            want = reference_accepts(eq, row) and reference_accepts(
                prefix, row
            )
            assert reference_accepts(fused, row) == want

    def test_out_of_fragment_operand_declines(self):
        assert (
            lockstep_intersection(_compiled(sh.equals), _compiled(sh.manifold))
            is None
        )

    def test_mismatched_shapes_decline(self):
        eq = _compiled(sh.equals)
        other = compile_string_formula(
            sh.equals(Var("x"), Var("y")), Alphabet("abc")
        ).fsa
        assert lockstep_intersection(eq, other) is None
        one_tape = make_fsa(
            1, AB, "s", ["s"], [("s", ("a",), "s", (+1,))]
        )
        assert lockstep_intersection(eq, one_tape) is None

    @settings(max_examples=60, deadline=None)
    @given(first=_in_fragment_machines(), second=_in_fragment_machines())
    def test_intersection_property(self, first, second):
        if first.arity != second.arity:
            assert lockstep_intersection(first, second) is None
            return
        fused = lockstep_intersection(first, second)
        assert fused is not None
        rows = _exhaustive_rows(first.arity, 2 if first.arity == 1 else 1)
        for row in rows:
            want = reference_accepts(first, row) and reference_accepts(
                second, row
            )
            assert reference_accepts(fused, row) == want, row
