"""Compiled k-FSA simulation kernel — Theorem 3.3 on dense integers.

The reference acceptance search (:func:`repro.fsa.simulate
.reference_accepts`) walks the configuration graph with a frozen
``Configuration`` dataclass per node and a linear scan with tuple
comparison per expansion.  That is faithful to the paper but slow: the
hot loop allocates, hashes dataclasses and re-compares symbol tuples
for every edge.  Following the compiled-dispatch approach of RE2-style
automaton engines, this module compiles an :class:`~repro.fsa.machine
.FSA` *once* into a :class:`CompiledKernel` that runs the same search
entirely on flat integers:

* **interning** — states and tape symbols are renumbered to dense
  ints at compile time;
* **dispatch table** — transitions are grouped by their full
  ``(state, head-symbols)`` key, packed into a single int
  ``p·|Γ|^k + Σ γᵢ·|Γ|^{k-1-i}`` (``Γ = Σ ∪ {⊢, ⊣}``), so finding the
  enabled transitions of a configuration is one dict lookup instead
  of a filtered scan;
* **mixed-radix packing** — a configuration ``(p, n₁ … n_k)`` on a
  concrete input tuple becomes one int ``((p·r₁ + n₁)·r₂ + n₂)…``
  with per-tape radix ``rᵢ = |wᵢ| + 2``, so the visited set is a set
  of ints and firing a transition is a single precomputed integer
  *delta* added to the packed value;
* **per-shape binding** — the deltas depend only on the input
  *lengths*, so rows of equal shape (ubiquitous in batches) share one
  bound dispatch table, cached on the kernel.

The kernel is contractually **exactly equivalent** to the reference
search: same accepted language, same :class:`~repro.errors.ArityError`
/ :class:`~repro.errors.AlphabetError` validation, for every machine
and every input tuple (``tests/fsa/test_kernel.py`` holds it to that
with a hypothesis differential).  Compiled kernels are cached on the
machine instance itself (``kernel_for``), in
:class:`~repro.engine.QueryEngine` sessions (the ``kernel`` keyed
cache) and once per shard in parallel workers.

Since kernel v2 (:mod:`repro.fsa.determinize`), :func:`kernel_for` is
also the **dispatcher**, and the machine alone decides: a machine inside
the Theorem 5.2 fragment whose DFA fits :data:`~repro.fsa.determinize
.MAX_DFA_CELLS` gets the determinized scan kernel (which also folds
SLP-compressed cells on their grammar); every other machine gets the
worklist :class:`CompiledKernel`.  Both are exactly equivalent to the
reference search, so the choice is never observable in answers.

Tracer counters: ``kernel.compile`` (one per compilation),
``kernel.hits`` (instance-cache hits), ``kernel.fallback`` (machines
answered by this kernel because they are out of fragment or over the
DFA budget), ``simulate.runs`` and
``simulate.kernel_configurations`` (configurations explored per run).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import AlphabetError, ArityError
from repro.fsa.determinize import DeterministicKernel, determinized_for
from repro.fsa.machine import FSA, register_kernel_stash
from repro.observability import current_tracer

#: Bound on cached per-input-shape dispatch bindings per kernel;
#: eviction is oldest-first, like :class:`~repro.engine.caches
#: .KeyedCache`.
MAX_BINDINGS = 64

#: Stash attribute for the per-instance v1 compiled kernel.
_STASH = "_kernel"
register_kernel_stash(_STASH)

#: One bound shape: ``(radii, weights, state_weight, delta_table)``.
_Binding = tuple[tuple[int, ...], tuple[int, ...], int, dict]


class CompiledKernel:
    """An :class:`~repro.fsa.machine.FSA` compiled to integer tables.

    Build one with :func:`compile_kernel` (or the caching
    :func:`kernel_for`); the instance is immutable apart from its
    per-input-shape binding cache and may be shared freely.

    >>> from repro.core.alphabet import AB, LEFT_END, RIGHT_END
    >>> from repro.fsa.machine import make_fsa
    >>> eq = make_fsa(2, AB, "s", ["f"], [
    ...     ("s", (LEFT_END, LEFT_END), "cmp", (+1, +1)),
    ...     ("cmp", ("a", "a"), "cmp", (+1, +1)),
    ...     ("cmp", ("b", "b"), "cmp", (+1, +1)),
    ...     ("cmp", (RIGHT_END, RIGHT_END), "f", (0, 0)),
    ... ])
    >>> kernel = compile_kernel(eq)
    >>> kernel.accepts(("ab", "ab")), kernel.accepts(("ab", "ba"))
    (True, False)
    """

    __slots__ = (
        "fsa",
        "arity",
        "start_id",
        "state_count",
        "_final_flags",
        "_symbol_count",
        "_sym_power",
        "_char_ids",
        "_dispatch",
        "_bindings",
    )

    def __init__(
        self,
        fsa: FSA,
        start_id: int,
        final_flags: tuple[bool, ...],
        symbol_count: int,
        char_ids: dict[str, int],
        dispatch: dict[int, tuple[tuple[int, tuple[int, ...]], ...]],
    ) -> None:
        self.fsa = fsa
        self.arity = fsa.arity
        self.start_id = start_id
        self.state_count = len(final_flags)
        self._final_flags = final_flags
        self._symbol_count = symbol_count
        self._sym_power = symbol_count**fsa.arity
        self._char_ids = char_ids
        self._dispatch = dispatch
        self._bindings: dict[tuple[int, ...], _Binding] = {}

    def __reduce__(self):
        """Pickle as the underlying machine; recompile on load.

        The integer tables are cheap to rebuild and the binding cache
        is scratch state, so a kernel crossing a process boundary
        (e.g. riding along with a shard task) travels as its machine
        and re-enters the worker's instance cache on arrival.
        """
        return (kernel_for, (self.fsa,))

    # -- input binding ---------------------------------------------------

    def _symbol_rows(
        self, inputs: Sequence[str]
    ) -> list[list[int]]:
        """Interned tape contents: ``rows[i][n]`` is tape i's symbol at n.

        Raises :class:`~repro.errors.AlphabetError` for characters
        outside Σ — this pass *is* the alphabet validation, folded
        into the interning work the search needs anyway.
        """
        char_ids = self._char_ids
        left = self._symbol_count - 2
        right = self._symbol_count - 1
        rows = []
        for content in inputs:
            try:
                row = [left]
                row.extend(char_ids[char] for char in content)
                row.append(right)
            except KeyError:
                for char in content:
                    if char not in char_ids:
                        raise AlphabetError(
                            f"character {char!r} of {content!r} is not in "
                            f"alphabet {self.fsa.alphabet}"
                        ) from None
                raise  # pragma: no cover - unreachable
            rows.append(row)
        return rows

    def _bind(self, lengths: tuple[int, ...]) -> _Binding:
        """The dispatch table bound to one input *shape* (lengths tuple).

        Radii, packing weights and per-transition packed deltas depend
        only on the component lengths, so equal-shaped rows — the
        common case inside batches — share one binding.  Bindings are
        cached on the kernel (bounded by :data:`MAX_BINDINGS`).
        """
        binding = self._bindings.get(lengths)
        if binding is not None:
            return binding
        arity = self.arity
        radii = tuple(length + 2 for length in lengths)
        weights = [1] * arity
        weight = 1
        for tape in range(arity - 1, -1, -1):
            weights[tape] = weight
            weight *= radii[tape]
        state_weight = weight
        sym_power = self._sym_power
        table: dict[int, tuple[int, ...]] = {}
        for key, entries in self._dispatch.items():
            source = key // sym_power
            table[key] = tuple(
                (target - source) * state_weight
                + sum(
                    move * weights[tape]
                    for tape, move in enumerate(moves)
                    if move
                )
                for target, moves in entries
            )
        binding = (radii, tuple(weights), state_weight, table)
        if len(self._bindings) >= MAX_BINDINGS:
            self._bindings.pop(next(iter(self._bindings)))
        self._bindings[lengths] = binding
        return binding

    # -- the search ------------------------------------------------------

    def _search(
        self,
        syms: list[list[int]],
        binding: _Binding,
        visited: set[int],
        frontier: list[int],
    ) -> bool:
        """Worklist reachability over packed configurations.

        ``visited`` and ``frontier`` are caller-owned scratch (cleared
        here) so batch entry points reuse them across rows.  Returns
        the acceptance verdict; ``len(visited)`` afterwards is the
        number of configurations explored.
        """
        radii, _, state_weight, table = binding
        final = self._final_flags
        sym_count = self._symbol_count
        sym_power = self._sym_power
        arity = self.arity
        visited.clear()
        del frontier[:]
        start = self.start_id * state_weight
        visited.add(start)
        frontier.append(start)
        pop = frontier.pop
        push = frontier.append
        seen = visited.__contains__
        add = visited.add
        lookup = table.get
        while frontier:
            packed = pop()
            remainder = packed
            key = 0
            power = 1
            for tape in range(arity - 1, -1, -1):
                remainder, position = divmod(remainder, radii[tape])
                key += syms[tape][position] * power
                power *= sym_count
            key += remainder * sym_power
            deltas = lookup(key)
            if deltas is None:
                if final[remainder]:
                    return True
                continue
            for delta in deltas:
                nxt = packed + delta
                if not seen(nxt):
                    add(nxt)
                    push(nxt)
        return False

    # -- public acceptance entry points ----------------------------------

    def accepts(self, inputs: Sequence[str]) -> bool:
        """Does the compiled machine (Theorem 3.3) accept ``inputs``?

        Exactly equivalent to the reference
        :func:`~repro.fsa.simulate.reference_accepts`, including its
        arity and alphabet validation.

        Args:
            inputs: One string per tape.

        Returns:
            The acceptance verdict.
        """
        inputs = tuple(inputs)
        if len(inputs) != self.arity:
            raise ArityError(
                f"{self.arity}-FSA fed {len(inputs)} input strings"
            )
        syms = self._symbol_rows(inputs)
        binding = self._bind(tuple(len(content) for content in inputs))
        visited: set[int] = set()
        accepted = self._search(syms, binding, visited, [])
        tracer = current_tracer()
        tracer.add("simulate.runs")
        tracer.add("simulate.kernel_configurations", len(visited))
        return accepted

    def accepts_batch(
        self, rows: Sequence[Sequence[str]]
    ) -> tuple[bool, ...]:
        """:meth:`accepts` over a batch of rows, in order.

        The batch shares the compiled dispatch, the per-shape bound
        tables *and* the visited/frontier scratch buffers across rows,
        so per-row cost is the search alone.

        Args:
            rows: The input tuples, each one string per tape.

        Returns:
            Per-row verdicts, positionally aligned with ``rows``.
        """
        arity = self.arity
        prepared = []
        for row in rows:
            row = tuple(row)
            if len(row) != arity:
                raise ArityError(
                    f"{arity}-FSA fed {len(row)} input strings"
                )
            prepared.append(
                (
                    self._symbol_rows(row),
                    self._bind(tuple(len(content) for content in row)),
                )
            )
        visited: set[int] = set()
        frontier: list[int] = []
        configurations = 0
        verdicts = []
        for syms, binding in prepared:
            verdicts.append(self._search(syms, binding, visited, frontier))
            configurations += len(visited)
        tracer = current_tracer()
        tracer.add("simulate.runs", len(prepared))
        tracer.add("simulate.kernel_configurations", configurations)
        return tuple(verdicts)


def compile_kernel(fsa: FSA) -> CompiledKernel:
    """Compile ``fsa`` into a :class:`CompiledKernel` (one-time cost).

    States are interned start-first then in deterministic ``repr``
    order (matching :meth:`~repro.fsa.machine.FSA.renumbered`); tape
    symbols in :meth:`~repro.core.alphabet.Alphabet.tape_symbols`
    order, endmarkers last.

    Args:
        fsa: The machine to compile.

    Returns:
        The compiled kernel.
    """
    tracer = current_tracer()
    with tracer.span(
        "compile.kernel",
        stage="compile",
        states=len(fsa.states),
        transitions=fsa.size,
    ):
        tape_syms = fsa.alphabet.tape_symbols()
        sym_ids = {symbol: index for index, symbol in enumerate(tape_syms)}
        order = [fsa.start] + sorted(
            (state for state in fsa.states if state != fsa.start), key=repr
        )
        state_ids = {state: index for index, state in enumerate(order)}
        sym_count = len(tape_syms)
        grouped: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        for transition in fsa.transitions:
            key = state_ids[transition.source]
            for symbol in transition.reads:
                key = key * sym_count + sym_ids[symbol]
            grouped.setdefault(key, []).append(
                (state_ids[transition.target], transition.moves)
            )
        dispatch = {
            key: tuple(sorted(entries)) for key, entries in grouped.items()
        }
        final_flags = tuple(state in fsa.finals for state in order)
        # Input characters may never be endmarkers, so the interning
        # map used on inputs covers Σ only.
        char_ids = {
            symbol: sym_ids[symbol] for symbol in fsa.alphabet.symbols
        }
        kernel = CompiledKernel(
            fsa,
            state_ids[fsa.start],
            final_flags,
            sym_count,
            char_ids,
            dispatch,
        )
    tracer.add("kernel.compile")
    return kernel


def kernel_for(fsa: FSA) -> CompiledKernel | DeterministicKernel:
    """The acceptance kernel of ``fsa``, instance-cached.

    Kernels are stashed via ``object.__setattr__`` (the same trick the
    frozen :class:`~repro.fsa.machine.FSA` uses for its adjacency
    index), so repeat lookups are one attribute read — no machine
    hashing on the hot path.  The stashes are excluded from pickling;
    a worker process compiles once per machine it receives.

    The machine picks the kernel: the determinized
    :class:`~repro.fsa.determinize.DeterministicKernel` when it is
    inside the Theorem 5.2 fragment and within the DFA budget, the
    worklist :class:`CompiledKernel` otherwise — bumping the
    ``kernel.fallback`` counter so the fallback is observable.  The
    verdicts are identical either way.

    Args:
        fsa: The machine whose kernel is wanted.

    Returns:
        The (possibly freshly compiled) kernel.
    """
    determinized = determinized_for(fsa)
    if determinized is not None:
        return determinized
    tracer = current_tracer()
    tracer.add("kernel.fallback")
    kernel = fsa.__dict__.get(_STASH)
    if kernel is not None:
        tracer.add("kernel.hits")
        return kernel
    kernel = compile_kernel(fsa)
    object.__setattr__(fsa, _STASH, kernel)
    return kernel


__all__ = [
    "CompiledKernel",
    "DeterministicKernel",
    "compile_kernel",
    "kernel_for",
    "MAX_BINDINGS",
]
