"""Crossing-sequence determinization — Theorem 5.2 as a dense DFA scan.

The compiled kernel (:mod:`repro.fsa.kernel`, "v1") still explores the
configuration graph with a worklist, one packed integer at a time.
For the paper's Theorem 5.2 fragment that search is overkill: when no
head ever moves *left*, the crossing sequences of a computation
degenerate to single states, so the classical subset construction
applies and acceptance collapses into **one linear scan** over the
endmarked input — no worklist, no visited set, no per-configuration
dispatch.

Two fragment shapes are recognized by :func:`classify_fragment`:

* ``"unidirectional"`` — single-tape machines whose only moves are
  *stay* and *right* (the paper's unidirectional variables);
* ``"right-restricted"`` — multitape machines whose transitions move
  **all** heads right together or keep **all** heads still.  The
  lockstep restriction keeps every reachable configuration's heads at
  one shared position, so the tuple of symbols under the heads is a
  single *column* of the endmarked input tuple and the machine reads
  its input column-by-column like a one-tape device.

Everything else — any left move, or multitape machines whose heads
desynchronize — is out of fragment and stays on the v1 worklist
kernel; :func:`repro.fsa.kernel.kernel_for` falls back transparently
(counter ``kernel.fallback``).

:func:`determinize` runs an on-the-fly subset construction over the
*reachable* subsets only (never the ``2^Q`` powerset), with the
paper's halting acceptance folded in: a subset/column entry whose
stay-closure contains a final state with **no** enabled transition
jumps to a sticky ``ACCEPT`` state, and an empty successor subset is
the sticky ``DEAD`` state.  The result is a
:class:`DeterministicKernel`: one flat ``array('l')`` transition table
(premultiplied targets, so a scan step is one add and one index); each
row's scan stops at the first sticky state it reaches.  A batch of
single-tape plain strings is interned for those scans in one C pass
over the joined rows.

A one-variable occurrence formula ``Σ*·f`` (Section 2's Q7, the
planted-motif selections) denotes ``Σ*·f·Σ*`` (Theorem 6.1), whose
minimal automaton is the Knuth–Morris–Pratt automaton of ``f``.  When
a single-tape table is proven to be that automaton
(:func:`_occurrence_factor`: a product walk that pairs ``ACCEPT`` with
KMP state ``|f|``, never dies, never accepts ``⊣`` early and maps each
table state to one KMP state), the kernel keeps ``f`` as its
:attr:`~DeterministicKernel.factor` and answers a validated batch of
plain cells with C-level substring search, recording the counters the
scan would have recorded.

:func:`lockstep_intersection` multiplies two determinized tables into
one machine accepting ``L(A) ∩ L(B)`` — the in-fragment replacement
for the two-way sequencing product of :mod:`repro.fsa.product`, so
optimized plans whose fused selections stay inside the fragment
compile to one machine and one pass.

The same table also accepts SLP-compressed cells
(:mod:`repro.slp.grammar`).  Following the compositional MSO-over-SLP
evaluation of Muñoz et al. (PAPERS.md: "Dynamic direct access of MSO
query evaluation over SLP-compressed strings"), a single-tape SLP input
is accepted **bottom-up over the grammar** instead of scanned: every
rule ``X`` gets a *summary* — the function ``state → state`` the DFA
computes across ``X``'s expansion, a flat ``array('l')`` indexed by
state id.  A terminal rule's summary is one column of the table; a pair
rule's summary is the composition ``h[s] = right[left[s]]`` of its
children's.  Acceptance is then ``⊢-column → root summary → ⊣-column``,
``O(rules · states)`` to build and **independent of the expanded
length**.  Rules are interned process-wide, so summaries are memoized
per ``(kernel, rule)`` and shared by every string, query and batch that
contains the rule.

Tracer counters: ``kernel.determinize`` (one per subset construction),
``kernel.dfa_states`` (DFA states built), ``kernel.factor`` (kernels
proven to be a motif's KMP automaton), ``kernel.v2_hits``
(instance-cache hits), ``kernel.classify.hits`` (memoized fragment
verdicts served), ``kernel.slp_summaries`` (per-rule summaries built),
``kernel.slp_expanded`` (multitape SLP cells expanded for the scan),
``simulate.runs``, ``simulate.scan_symbols`` (columns consumed by
scans before they settle) and ``simulate.grammar_rules`` (rules
touched by grammar-path runs).
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from itertools import compress, repeat
from operator import contains, length_hint

from repro.core.alphabet import LEFT_END, RIGHT_END
from repro.errors import AlphabetError, ArityError
from repro.fsa.machine import (
    FSA,
    LEFT_MOVE,
    RIGHT_MOVE,
    STAY,
    Transition,
    make_fsa,
    register_kernel_stash,
)
from repro.observability import current_tracer
from repro.slp.grammar import SLP, _Node, _postorder

#: Fragment label for single-tape stay/right machines.
UNIDIRECTIONAL = "unidirectional"

#: Fragment label for multitape lockstep (all-stay / all-right) machines.
RIGHT_RESTRICTED = "right-restricted"

#: Cap on transition-table cells (DFA states × columns) built by the
#: subset construction; beyond it :func:`determinize` declines and the
#: machine stays on the v1 kernel.
MAX_DFA_CELLS = 1 << 20

#: Bound on memoized per-rule summaries per kernel; reaching it evicts
#: the oldest half between acceptance calls (never mid-composition).
MAX_SUMMARIES = 1 << 16

#: Fixed DFA state ids: the sticky reject sink, the sticky accept
#: sink, and the start subset ``{s}``.
DEAD, ACCEPT, START = 0, 1, 2

#: Stash attribute for the per-instance determinization verdict.
_STASH = "_kernel_v2"
register_kernel_stash(_STASH)

#: Stash attribute for the per-instance fragment label (memoizing
#: :func:`classify_fragment`, which every kernel dispatch consults).
_FRAGMENT_STASH = "_fragment"
register_kernel_stash(_FRAGMENT_STASH)

#: Distinguishes "not classified yet" from the valid ``None`` verdict.
_UNCLASSIFIED = object()

#: Stash marker for "determinization declined" (out of fragment or
#: over the cell budget), so the verdict is computed once per machine.
_UNSUPPORTED = "unsupported"

#: Byte codes of the batch intern pass: NUL (the row separator) maps to
#: ``_SEPARATOR`` and every byte outside Σ to ``_INVALID``.  Kernels with
#: 254 or more tape symbols keep the per-row loop, so every symbol id
#: stays clear of both codes.
_SEPARATOR, _INVALID = 254, 255
_SEPARATOR_BYTE = bytes([_SEPARATOR])

#: Bytes of the joined batch the table scan splits into rows at once.
_SCAN_CHUNK = 1 << 14


def classify_fragment(fsa: FSA) -> str | None:
    """The Theorem 5.2 fragment label of ``fsa``, or ``None``.

    The verdict is *sound*: a non-``None`` label guarantees
    :func:`determinize`'s scan semantics are exact for the machine
    (every reachable configuration keeps all heads at one shared,
    never-decreasing position).  It is memoized on the instance —
    every kernel dispatch (:func:`repro.fsa.kernel.kernel_for`, the
    session kernel cache) consults it, and out-of-fragment machines
    would otherwise rescan their transition set on every lookup.
    Repeat lookups bump the ``kernel.classify.hits`` counter.

    Args:
        fsa: The machine to classify.

    Returns:
        :data:`UNIDIRECTIONAL` for one-tape stay/right machines,
        :data:`RIGHT_RESTRICTED` for multitape lockstep machines,
        ``None`` for everything else (including arity-0 machines,
        whose acceptance has no scan to speak of).
    """
    cached = fsa.__dict__.get(_FRAGMENT_STASH, _UNCLASSIFIED)
    if cached is not _UNCLASSIFIED:
        current_tracer().add("kernel.classify.hits")
        return cached
    verdict = _classify(fsa)
    object.__setattr__(fsa, _FRAGMENT_STASH, verdict)
    return verdict


def _classify(fsa: FSA) -> str | None:
    """The uncached fragment analysis behind :func:`classify_fragment`."""
    if fsa.arity == 0:
        return None
    lockstep = True
    for transition in fsa.transitions:
        moves = set(transition.moves)
        if LEFT_MOVE in moves:
            return None
        if len(moves) > 1:
            lockstep = False
    if fsa.arity == 1:
        return UNIDIRECTIONAL
    return RIGHT_RESTRICTED if lockstep else None


class DeterministicKernel:
    """An in-fragment :class:`~repro.fsa.machine.FSA` as a dense DFA.

    Built by :func:`determinize` (or the caching
    :func:`determinized_for`).  The whole machine is one flat
    ``array('l')`` of premultiplied targets: entry
    ``table[state·ncols + column]`` is ``next_state·ncols``, so a scan
    step is a single add and index.  State :data:`DEAD` (``0``) is the
    sticky reject sink, :data:`ACCEPT` (``1``) the sticky accept sink
    — a row's verdict is simply whether its scan ends in ``ACCEPT``.

    Cells may be plain strings or :class:`~repro.slp.grammar.SLP`
    values, mixed freely:

    * plain strings are scanned until the first sticky state, or, in a
      batch of single-tape plain cells for a kernel with a
      :attr:`factor`, searched for the factor;
    * a single-tape SLP input is folded over its grammar —
      ``O(rules · states)``, the expansion never materialized;
    * SLP cells of multitape rows are expanded (within the grammar's
      decompression cap) and scanned, counted by
      ``kernel.slp_expanded``.

    >>> from repro.core.alphabet import AB, LEFT_END, RIGHT_END
    >>> from repro.fsa.machine import make_fsa
    >>> from repro.slp import compress, repeat
    >>> contains_ab = make_fsa(1, AB, "s", ["f"], [
    ...     ("s", (LEFT_END,), "scan", (+1,)),
    ...     ("scan", ("a",), "scan", (+1,)),
    ...     ("scan", ("b",), "scan", (+1,)),
    ...     ("scan", ("a",), "saw_a", (+1,)),
    ...     ("saw_a", ("b",), "win", (+1,)),
    ...     ("win", (RIGHT_END,), "f", (0,)),
    ...     ("win", ("a",), "win", (+1,)),
    ...     ("win", ("b",), "win", (+1,)),
    ... ])
    >>> kernel = determinize(contains_ab)
    >>> kernel.fragment
    'unidirectional'
    >>> kernel.accepts_batch([("ab",), ("ba",), ("aab",), ("",)])
    (True, False, True, False)
    >>> huge = repeat(compress("ba"), 10**12)  # 2·10¹² chars, ~60 rules
    >>> kernel.accepts((huge,)), kernel.accepts((compress("bb"),))
    (True, False)
    """

    __slots__ = (
        "fsa",
        "fragment",
        "arity",
        "dfa_states",
        "_ncols",
        "_symbol_count",
        "_codes",
        "_bytes",
        "_factor",
        "_ends",
        "_table",
        "_summaries",
    )

    def __init__(
        self,
        fsa: FSA,
        fragment: str,
        table: array,
        ncols: int,
        symbol_count: int,
        codes: _CodeTable,
        dfa_states: int,
    ) -> None:
        self.fsa = fsa
        self.fragment = fragment
        self.arity = fsa.arity
        self.dfa_states = dfa_states
        self._ncols = ncols
        self._symbol_count = symbol_count
        self._codes = codes
        self._bytes = (
            _byte_table(codes, symbol_count) if self.arity == 1 else None
        )
        self._ends = (chr(symbol_count - 2), chr(symbol_count - 1))
        self._table = table
        self._factor = (
            _occurrence_factor(table, ncols, symbol_count, codes)
            if self._bytes is not None
            else None
        )
        self._summaries: dict[_Node, array] = {}

    @property
    def factor(self) -> str | None:
        """The word ``f`` when the table is ``f``'s KMP automaton.

        Set for a single-tape kernel with a byte table whose scan
        settles exactly like the Knuth–Morris–Pratt automaton of
        ``Σ*·f·Σ*`` (:func:`_occurrence_factor`); a batch of plain
        cells is then answered by C-level substring search.  ``None``
        for every other kernel, which keeps the table scan.
        """
        return self._factor

    def __reduce__(self):
        """Pickle as the underlying machine; re-determinize on load.

        Mirrors :meth:`~repro.fsa.kernel.CompiledKernel.__reduce__`:
        the dense table is cheap to rebuild and the summary memo is
        scratch state, so a kernel crossing a process boundary travels
        as its machine and re-enters the worker's instance stash on
        arrival.
        """
        return (_rebuild, (self.fsa,))

    # -- input interning -------------------------------------------------

    def _tape(self, content: str | SLP) -> Sequence[int]:
        """The symbol ids of one endmarked tape, interned at C level.

        One ``str.translate`` pass interns and validates the whole tape
        (:class:`_CodeTable`), so a character outside Σ raises
        :class:`~repro.errors.AlphabetError` before the scan starts —
        even one past the point where the scan settles.  An SLP cell
        (of a multitape row) is expanded first, counted by
        ``kernel.slp_expanded``.
        """
        if type(content) is SLP:
            current_tracer().add("kernel.slp_expanded")
            content = content.expand()
        left, right = self._ends
        try:
            word = left + content.translate(self._codes) + right
        except AlphabetError as error:
            raise AlphabetError(
                f"character {error.args[0]!r} of {content!r} is not in "
                f"alphabet {self.fsa.alphabet}"
            ) from None
        if self._symbol_count <= 256:
            return word.encode("latin-1")
        return list(map(ord, word))

    def _columns(self, row: tuple) -> Sequence[int]:
        """The packed column word of a multitape row.

        Column ``n`` packs the symbols at position ``n`` of every tape;
        ``zip`` stops at ``min |wᵢ| + 2`` columns — the lockstep heads
        can never pass the shortest tape's ``⊣``.
        """
        symbol_count = self._symbol_count
        tapes = map(self._tape, row)
        columns = next(tapes)
        for tape in tapes:
            columns = [
                packed * symbol_count + symbol
                for packed, symbol in zip(columns, tape)
            ]
        return columns

    # -- the grammar fold ------------------------------------------------

    def _summary(self, root: _Node) -> array:
        """The state→state summary of ``root``, memoized per rule.

        Builds bottom-up over the rule DAG: terminal summaries read one
        column of the scan table (the single ``// ncols`` per entry
        converts the table's premultiplied targets into state ids),
        pair summaries compose their children by indexing.  Sticky
        sinks need no special casing — their table rows are constant,
        so every summary maps ``DEAD → DEAD`` and ``ACCEPT → ACCEPT``.
        """
        summaries = self._summaries
        cached = summaries.get(root)
        if cached is not None:
            return cached
        if len(summaries) >= MAX_SUMMARIES:
            # Evict between calls only, so in-flight compositions
            # below never lose a child they still need.
            for stale in list(summaries)[: MAX_SUMMARIES // 2]:
                del summaries[stale]
        table = self._table
        ncols = self._ncols
        states = range(self.dfa_states)
        codes = self._codes
        built = 0
        for node in _postorder(root):
            if node in summaries:
                continue
            if node.char is not None:
                column = codes.get(ord(node.char))
                if column is None:
                    raise AlphabetError(
                        f"character {node.char!r} of a compressed input "
                        f"is not in alphabet {self.fsa.alphabet}"
                    )
                summary = array(
                    "l",
                    [table[state * ncols + column] // ncols for state in states],
                )
            else:
                left = summaries[node.left]
                right = summaries[node.right]
                summary = array("l", [right[state] for state in left])
            summaries[node] = summary
            built += 1
        if built:
            current_tracer().add("kernel.slp_summaries", built)
        return summaries[root]

    def _fold(self, slp: SLP) -> tuple[int, int]:
        """Grammar-path run of one single-tape SLP input.

        Returns the final (premultiplied) state and the rules touched.
        """
        table = self._table
        ncols = self._ncols
        state = table[START * ncols + self._symbol_count - 2] // ncols
        rules = 0
        if slp.root is not None:
            state = self._summary(slp.root)[state]
            rules = slp.stored_size()
        return table[state * ncols + self._symbol_count - 1], rules

    # -- acceptance entry points -----------------------------------------

    def accepts(self, inputs: Sequence[str | SLP]) -> bool:
        """Does the machine accept ``inputs``?  A one-row batch.

        Runs :meth:`accepts_batch` on the single row: exactly
        equivalent to :func:`~repro.fsa.simulate.reference_accepts` on
        the expanded row (and hence to the v1 kernel), including arity
        and alphabet validation.

        Args:
            inputs: One string or :class:`~repro.slp.grammar.SLP` per
                tape.

        Returns:
            The acceptance verdict.
        """
        return self.accepts_batch((inputs,))[0]

    def accepts_batch(
        self, rows: Iterable[Sequence[str | SLP]]
    ) -> tuple[bool, ...]:
        """Acceptance of each row, one early-exit scan per row.

        A batch of single-tape plain-string rows is interned in one C
        pass (:meth:`_scan_joined`).  Any other batch takes the per-row
        loop (:meth:`_scan_each`): a single-tape SLP row is folded on
        its grammar, every other row is interned on its own.  Either
        way each row is scanned through the table until it reaches a
        sticky sink — from there no symbol can change the verdict, so
        the rest of the row is never read.  ``simulate.scan_symbols``
        counts the columns consumed, the settling one included.  A
        kernel with a :attr:`factor` answers the joined batch by
        substring search instead, with the same verdicts and counters.

        Args:
            rows: The input tuples, each one string or
                :class:`~repro.slp.grammar.SLP` per tape.

        Returns:
            Per-row verdicts, positionally aligned with ``rows``.
        """
        if self._bytes is not None:
            if not isinstance(rows, (list, tuple)):
                rows = tuple(rows)
            verdicts = self._scan_joined(rows)
            if verdicts is not None:
                return verdicts
        return self._scan_each(rows)

    def _scan_joined(
        self, rows: Sequence[Sequence[str | SLP]]
    ) -> tuple[bool, ...] | None:
        """The batch path: one intern pass over the joined rows.

        The cells are joined on NUL, encoded and translated through the
        256-byte table :attr:`_bytes` at C level; one ``in`` test
        validates every character and one ``count`` of the separator
        rules out a NUL inside a row.  A kernel with a :attr:`factor`
        then answers the batch by substring search
        (:meth:`_search`); any other splits the rows apart again, a
        slice of about :data:`_SCAN_CHUNK` bytes at a time, and scans
        each piece from the state after ``⊢``, reading ``⊣`` only if it
        has not settled.

        Returns ``None``, adding no counter, when the batch is empty or
        is not all one-cell plain strings over Σ without NUL; the
        per-row loop then answers it, or raises the error it deserves.
        """
        try:
            cells = [cell for (cell,) in rows]
            data = "\0".join(cells).encode("latin-1")
        except (TypeError, ValueError):  # SLP, wrong width, not latin-1
            return None
        data = data.translate(self._bytes)
        if _INVALID in data:
            return None
        if data.count(_SEPARATOR_BYTE) != len(cells) - 1:
            return None  # NUL inside a row, or no rows
        table = self._table
        ncols = self._ncols
        settled = 2 * ncols  # the premultiplied DEAD and ACCEPT rows
        left, right = self._symbol_count - 2, self._symbol_count - 1
        first = table[START * ncols + left]
        scanned = len(cells)  # every row consumes its ⊢
        factor = self.factor
        if first < settled:
            verdicts = [first == ncols] * len(cells)
        elif factor is not None:
            return self._search(cells, len(data) - len(cells) + 1, factor)
        else:
            verdicts = []
            start = 0
            while start <= len(data):
                # Split a bounded slice at a time, so a large batch never
                # holds one bytes object per row at once.
                end = data.find(_SEPARATOR_BYTE, start + _SCAN_CHUNK)
                if end < 0:
                    end = len(data)
                for piece in data[start:end].split(_SEPARATOR_BYTE):
                    state = first
                    pending = iter(piece)
                    for column in pending:
                        state = table[state + column]
                        if state < settled:
                            break
                    else:
                        state = table[state + right]
                        scanned += 1
                    scanned += len(piece) - length_hint(pending)
                    verdicts.append(state == ncols)
                start = end + 1
        tracer = current_tracer()
        tracer.add("simulate.runs", len(verdicts))
        tracer.add("simulate.scan_symbols", scanned)
        return tuple(verdicts)

    def _search(
        self, cells: list[str], characters: int, factor: str
    ) -> tuple[bool, ...]:
        """Answer a validated batch of plain cells by substring search.

        Exact because the table is ``factor``'s KMP automaton
        (:func:`_occurrence_factor`): a row is accepted iff it contains
        ``factor``, and its scan settles in ``ACCEPT`` on the last
        symbol of the first occurrence, ``find + |f|`` symbols after
        ``⊢``; a row without it never settles, so the scan reads every
        symbol and ``⊣``.  The counters are the ones the table scan
        adds, summed by C-level reductions with no per-row list.

        Args:
            cells: The batch's cells, already validated over Σ.
            characters: The total length of the cells.
            factor: The kernel's :attr:`factor`.
        """
        verdicts = tuple(map(contains, cells, repeat(factor)))
        hits = verdicts.count(True)
        misses = len(cells) - hits
        # Every row reads ⊢; a miss reads all its symbols and ⊣; a hit
        # stops after the first occurrence instead of at its end.
        scanned = (
            len(cells)
            + characters
            + misses
            + hits * len(factor)
            + sum(map(str.find, compress(cells, verdicts), repeat(factor)))
            - sum(map(len, compress(cells, verdicts)))
        )
        tracer = current_tracer()
        tracer.add("simulate.runs", len(cells))
        tracer.add("simulate.scan_symbols", scanned)
        return verdicts

    def _scan_each(
        self, rows: Iterable[Sequence[str | SLP]]
    ) -> tuple[bool, ...]:
        """The per-row loop: every row interned and scanned on its own.

        The only path for SLP, multitape and wide-alphabet input, and
        the one that validates arity and alphabet with its messages.
        """
        arity = self.arity
        table = self._table
        ncols = self._ncols
        start = START * ncols
        settled = 2 * ncols  # the premultiplied DEAD and ACCEPT rows
        tape = self._tape
        verdicts = []
        scanned = rules = 0
        for row in rows:
            row = tuple(row)
            if len(row) != arity:
                raise ArityError(f"{arity}-FSA fed {len(row)} input strings")
            if arity == 1 and type(row[0]) is SLP:
                state, touched = self._fold(row[0])
                rules += touched
            else:
                columns = tape(row[0]) if arity == 1 else self._columns(row)
                state = start
                pending = iter(columns)
                for column in pending:
                    state = table[state + column]
                    if state < settled:
                        break
                # Bytes and list iterators report what they have left,
                # so the consumed count costs no per-symbol counter.
                scanned += len(columns) - length_hint(pending)
            verdicts.append(state == ncols)
        tracer = current_tracer()
        tracer.add("simulate.runs", len(verdicts))
        tracer.add("simulate.scan_symbols", scanned)
        if rules:
            tracer.add("simulate.grammar_rules", rules)
        return tuple(verdicts)


class _CodeTable(dict):
    """A ``str.translate`` table from Σ characters to their symbol ids.

    A plain dict would pass any other character through unchanged; this
    one raises :class:`~repro.errors.AlphabetError` from inside the
    translation instead, and adds nothing to itself, so it never grows
    with the characters it has seen.
    """

    __slots__ = ()

    def __missing__(self, code_point: int):
        raise AlphabetError(chr(code_point))


def _byte_table(codes: _CodeTable, symbol_count: int) -> bytes | None:
    """The 256-byte translation table of the batch intern pass.

    ``None`` when Σ holds NUL (the separator) or a character beyond
    latin-1, or the kernel has 254 or more tape symbols: such kernels
    keep the per-row loop.
    """
    if symbol_count >= _SEPARATOR or 0 in codes or max(codes) > 0xFF:
        return None
    table = bytearray([_INVALID]) * 256
    table[0] = _SEPARATOR
    for code_point, symbol in codes.items():
        table[code_point] = symbol
    return bytes(table)


def _occurrence_factor(
    table: array, ncols: int, symbol_count: int, codes: _CodeTable
) -> str | None:
    """The word ``f`` when a single-tape table is ``f``'s KMP automaton.

    ``f`` is the shortest word driving the state after ``⊢`` to
    ``ACCEPT``.  The table is accepted as *settle-equivalent* to the
    Knuth–Morris–Pratt automaton of ``Σ*·f·Σ*`` (Theorem 6.1's language
    of a one-variable occurrence formula) when a breadth-first walk of
    their product from (state after ``⊢``, 0) over Σ pairs ``ACCEPT``
    exactly with KMP state ``|f|``, never reaches ``DEAD``, never
    accepts ``⊣`` below ``|f|``, and pairs each table state with one
    KMP state.  Then every row settles in ``ACCEPT`` on the last symbol
    of ``f``'s first occurrence, and a row without ``f`` reads all of
    itself and ``⊣`` and is rejected — what substring search computes.
    KMP is the minimal automaton of the language, so an equivalent
    table pairs each of its states with one KMP state, and the walk
    visits each table state once.

    Returns ``None`` when the state after ``⊢`` is already sticky, no
    word reaches ``ACCEPT``, or any condition fails.
    """
    settled = 2 * ncols  # the premultiplied DEAD and ACCEPT rows
    start = table[START * ncols + symbol_count - 2]
    if start < settled:
        return None
    symbols = sorted(codes.items(), key=lambda item: item[1])
    # The shortest word to ACCEPT, by breadth-first search over Σ.
    parents: dict[int, tuple[int, int] | None] = {start: None}
    frontier = [start]
    last = None
    for state in frontier:
        for code_point, column in symbols:
            target = table[state + column]
            if target == ncols:
                last = (state, code_point)
                break
            if target >= settled and target not in parents:
                parents[target] = (state, code_point)
                frontier.append(target)
        if last is not None:
            break
    if last is None:
        return None
    word = []
    while last is not None:
        state, code_point = last
        word.append(chr(code_point))
        last = parents[state]
    word.reverse()
    factor = "".join(word)
    # KMP transitions over Σ for the states below |f| (Sedgewick's
    # construction: state k copies the row of its restart state).
    length = len(factor)
    index = {code_point: rank for rank, (code_point, _) in enumerate(symbols)}
    kmp = [[0] * len(symbols)]
    kmp[0][index[ord(factor[0])]] = 1
    restart = 0
    for position in range(1, length):
        char = index[ord(factor[position])]
        row = list(kmp[restart])
        row[char] = position + 1
        kmp.append(row)
        restart = kmp[restart][char]
    # The product walk.
    right = symbol_count - 1
    paired = {start: 0}
    frontier = [start]
    for state in frontier:
        if table[state + right] == ncols:
            return None  # accepts ⊣ below |f|
        steps = kmp[paired[state]]
        for rank, (_, column) in enumerate(symbols):
            target = table[state + column]
            step = steps[rank]
            if step == length:
                if target != ncols:
                    return None
            elif target < settled:
                return None  # DEAD, or ACCEPT before |f|
            else:
                seen = paired.get(target)
                if seen is None:
                    paired[target] = step
                    frontier.append(target)
                elif seen != step:
                    return None
    return factor


def _rebuild(fsa: FSA) -> DeterministicKernel:
    """Unpickle hook: re-enter the worker's instance stash.

    The pickled kernel existed, so the machine is in fragment and
    within budget; the fresh process just pays one determinization.
    """
    kernel = determinized_for(fsa)
    if kernel is None:  # pragma: no cover - the machine was determinizable
        raise ArityError(
            f"machine {fsa} no longer determinizes after unpickling"
        )
    return kernel


def determinize(
    fsa: FSA, *, max_cells: int = MAX_DFA_CELLS
) -> DeterministicKernel | None:
    """Subset-construct the dense DFA of an in-fragment machine.

    On-the-fly construction: only subsets *reachable* from ``{start}``
    are built (never the ``2^Q`` powerset), and the table grows one
    row at a time until the frontier is exhausted or ``max_cells`` is
    hit.  Acceptance semantics are the paper's halting acceptance: the
    entry for (subset, column) is the sticky :data:`ACCEPT` state iff
    the stay-closure of the subset under that column contains a final
    state with no enabled transition.

    Args:
        fsa: The machine to determinize.
        max_cells: Budget on table cells (states × columns).

    Returns:
        The compiled :class:`DeterministicKernel`, or ``None`` when
        the machine is out of fragment or the construction would
        exceed ``max_cells`` — callers then fall back to the v1
        worklist kernel.
    """
    fragment = classify_fragment(fsa)
    if fragment is None:
        return None
    tape_syms = fsa.alphabet.tape_symbols()
    symbol_count = len(tape_syms)
    ncols = symbol_count**fsa.arity
    if 3 * ncols > max_cells:
        return None
    tracer = current_tracer()
    with tracer.span(
        "compile.determinize",
        stage="compile",
        states=len(fsa.states),
        transitions=fsa.size,
        fragment=fragment,
    ):
        sym_ids = {symbol: index for index, symbol in enumerate(tape_syms)}
        order = [fsa.start] + sorted(
            (state for state in fsa.states if state != fsa.start), key=repr
        )
        state_ids = {state: index for index, state in enumerate(order)}
        final = [state in fsa.finals for state in order]
        stay: dict[tuple[int, int], list[int]] = {}
        advance: dict[tuple[int, int], list[int]] = {}
        enabled: set[tuple[int, int]] = set()
        for transition in fsa.transitions:
            column = 0
            for symbol in transition.reads:
                column = column * symbol_count + sym_ids[symbol]
            key = (state_ids[transition.source], column)
            enabled.add(key)
            target = state_ids[transition.target]
            if transition.moves[0] == STAY:
                stay.setdefault(key, []).append(target)
            else:
                advance.setdefault(key, []).append(target)
        # Rows DEAD and ACCEPT are the sticky sinks; START is {start}.
        table = array("l", [DEAD * ncols] * ncols)
        table.extend([ACCEPT * ncols] * ncols)
        start_subset = frozenset([state_ids[fsa.start]])
        subset_ids: dict[frozenset[int], int] = {
            frozenset(): DEAD,
            start_subset: START,
        }
        table.extend([-1] * ncols)
        frontier = [start_subset]
        while frontier:
            subset = frontier.pop()
            base = subset_ids[subset] * ncols
            for column in range(ncols):
                closure = set(subset)
                stack = list(subset)
                while stack:
                    state = stack.pop()
                    for target in stay.get((state, column), ()):
                        if target not in closure:
                            closure.add(target)
                            stack.append(target)
                if any(
                    final[state] and (state, column) not in enabled
                    for state in closure
                ):
                    # A reachable halting-final configuration: the
                    # input is accepted no matter what follows.
                    table[base + column] = ACCEPT * ncols
                    continue
                successors: set[int] = set()
                for state in closure:
                    successors.update(advance.get((state, column), ()))
                successor = frozenset(successors)
                target_id = subset_ids.get(successor)
                if target_id is None:
                    target_id = len(subset_ids) + 1  # ACCEPT has no subset
                    if (target_id + 1) * ncols > max_cells:
                        return None
                    subset_ids[successor] = target_id
                    table.extend([-1] * ncols)
                    frontier.append(successor)
                table[base + column] = target_id * ncols
        codes = _CodeTable(
            (ord(symbol), sym_ids[symbol]) for symbol in fsa.alphabet.symbols
        )
        dfa_states = len(subset_ids) + 1
        kernel = DeterministicKernel(
            fsa, fragment, table, ncols, symbol_count, codes, dfa_states
        )
        if kernel.factor is not None:
            tracer.add("kernel.factor")
    tracer.add("kernel.determinize")
    tracer.add("kernel.dfa_states", dfa_states)
    return kernel


def determinized_for(fsa: FSA) -> DeterministicKernel | None:
    """The determinized kernel of ``fsa``, cached on the instance.

    Like :func:`~repro.fsa.kernel.kernel_for`, the kernel is stashed
    via ``object.__setattr__`` so repeat lookups are one attribute
    read; a "declined" verdict is stashed too, so out-of-fragment
    machines pay the fragment check once.  The stash is excluded from
    pickling (:meth:`~repro.fsa.machine.FSA.__getstate__`).

    Args:
        fsa: The machine whose determinized kernel is wanted.

    Returns:
        The cached (or freshly built) kernel, or ``None`` when the
        machine is out of fragment / over budget.
    """
    cached = fsa.__dict__.get(_STASH)
    if cached is not None:
        if cached == _UNSUPPORTED:
            return None
        current_tracer().add("kernel.v2_hits")
        return cached
    kernel = determinize(fsa)
    object.__setattr__(
        fsa, _STASH, kernel if kernel is not None else _UNSUPPORTED
    )
    return kernel


# -- decompiling tables back into machines ------------------------------


def _decode_column(
    column: int, arity: int, tape_syms: tuple[str, ...]
) -> tuple[str, ...]:
    """The read tuple a packed column id stands for."""
    symbol_count = len(tape_syms)
    reads = []
    for _ in range(arity):
        column, symbol = divmod(column, symbol_count)
        reads.append(tape_syms[symbol])
    reads.reverse()
    return tuple(reads)


def _table_to_fsa(
    table: array, ncols: int, arity: int, alphabet, explored: int
) -> FSA:
    """An :class:`~repro.fsa.machine.FSA` equivalent to a scan table.

    The encoding is exact under halting acceptance: advancing entries
    become all-right transitions, ``ACCEPT`` entries become all-stay
    transitions into a single final sink with no outgoing transitions
    (which therefore halts and accepts), and ``DEAD`` entries are
    simply omitted (the run halts in a non-final state).  Columns
    mixing ``⊢`` with other symbols are skipped — lockstep heads see
    ``⊢`` only at position 0, on every tape at once.
    """
    tape_syms = alphabet.tape_symbols()
    all_stay = (STAY,) * arity
    all_right = (RIGHT_MOVE,) * arity
    transitions: list[Transition] = []
    for state in range(START, explored):
        base = state * ncols
        for column in range(ncols):
            reads = _decode_column(column, arity, tape_syms)
            if LEFT_END in reads and any(
                symbol != LEFT_END for symbol in reads
            ):
                continue
            target = table[base + column] // ncols
            if target == DEAD:
                continue
            if target == ACCEPT:
                transitions.append(
                    Transition(state, reads, "accept", all_stay)
                )
            else:
                transitions.append(
                    Transition(state, reads, target, all_right)
                )
    return make_fsa(
        arity,
        alphabet,
        START,
        ["accept"],
        transitions,
        extra_states=range(START, explored),
    )


def dfa_to_fsa(kernel: DeterministicKernel) -> FSA:
    """Decompile a determinized kernel back into a one-way machine.

    The result accepts exactly the kernel's language under the paper's
    halting acceptance, is itself in fragment (all transitions are
    all-stay or all-right), and re-determinizes into singleton subsets
    — it is the DFA in machine clothing.  Used to materialize fused
    machines for the optimizer (:func:`lockstep_intersection`).

    Args:
        kernel: The determinized kernel to decompile.

    Returns:
        The equivalent machine, pruned and renumbered.
    """
    machine = _table_to_fsa(
        kernel._table,
        kernel._ncols,
        kernel.arity,
        kernel.fsa.alphabet,
        kernel.dfa_states,
    )
    return machine.pruned().renumbered()


def lockstep_intersection(
    first: FSA, second: FSA, *, max_cells: int = MAX_DFA_CELLS
) -> FSA | None:
    """One in-fragment machine accepting ``L(first) ∩ L(second)``.

    The fragment replacement for the two-way sequencing product
    (:func:`repro.fsa.product.sequence_machines`): both machines are
    determinized and their scan tables multiplied — pair state
    ``(a, b)`` steps both tables at once, dies when either side dies,
    and accepts when both sides have reached their sticky accept.
    Because each side's accept is sticky, the pair accepting state is
    reached exactly when both machines accept the input, even if they
    accept at different scan positions.  The product is decompiled
    back into a (one-way, lockstep) machine, so optimized plans fuse
    to **one machine, one pass** instead of a run–rewind–run chain.

    Args:
        first: One conjunct machine.
        second: The other conjunct machine.
        max_cells: Budget on product-table cells.

    Returns:
        The intersection machine, or ``None`` when the pair is not
        fusable this way (mismatched alphabets/arities, either machine
        out of fragment, or over budget) — callers then fall back to
        the sequencing product.
    """
    if (
        first.alphabet != second.alphabet
        or first.arity != second.arity
        or first.arity == 0
    ):
        return None
    left = determinized_for(first)
    right = determinized_for(second)
    if left is None or right is None:
        return None
    ncols = left._ncols
    table_a, table_b = left._table, right._table
    accept_a = ACCEPT * ncols
    accept_b = ACCEPT * ncols
    start = (START * ncols, START * ncols)
    pair_ids: dict[tuple[int, int], int] = {start: START}
    table = array("l", [DEAD * ncols] * ncols)
    table.extend([ACCEPT * ncols] * ncols)
    table.extend([-1] * ncols)
    frontier = [start]
    while frontier:
        pair = frontier.pop()
        state_a, state_b = pair
        base = pair_ids[pair] * ncols
        for column in range(ncols):
            next_a = table_a[state_a + column]
            next_b = table_b[state_b + column]
            if next_a == DEAD or next_b == DEAD:
                table[base + column] = DEAD * ncols
                continue
            if next_a == accept_a and next_b == accept_b:
                table[base + column] = ACCEPT * ncols
                continue
            successor = (next_a, next_b)
            target_id = pair_ids.get(successor)
            if target_id is None:
                target_id = len(pair_ids) + 2  # DEAD/ACCEPT have no pair
                if (target_id + 1) * ncols > max_cells:
                    return None
                pair_ids[successor] = target_id
                table.extend([-1] * ncols)
                frontier.append(successor)
            table[base + column] = target_id * ncols
    current_tracer().add("kernel.lockstep_fusions")
    machine = _table_to_fsa(
        table, ncols, first.arity, first.alphabet, len(pair_ids) + 2
    )
    return machine.pruned().renumbered()


__all__ = [
    "ACCEPT",
    "DEAD",
    "DeterministicKernel",
    "MAX_DFA_CELLS",
    "RIGHT_RESTRICTED",
    "START",
    "UNIDIRECTIONAL",
    "classify_fragment",
    "determinize",
    "determinized_for",
    "dfa_to_fsa",
    "lockstep_intersection",
]
