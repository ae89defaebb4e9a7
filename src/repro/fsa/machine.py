"""Multitape two-way finite state acceptors (k-FSAs).

A k-FSA (paper, Section 3) is a nondeterministic k-tape two-way finite
automaton with endmarkers: a system ``(Q, s, F, T)`` whose transitions
read one symbol per tape (from ``Σ ∪ {⊢, ⊣}``) and move each head by
``-1``, ``0`` or ``+1``, never off the endmarked tape area.  These
devices are the computational counterpart of string formulae
(Theorems 3.1 and 3.2) and the selection operators of alignment
algebra (Section 4).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field

from repro.core.alphabet import LEFT_END, RIGHT_END, Alphabet
from repro.errors import ArityError, TransitionError

#: States may be any hashable value; the compiler uses ints, the
#: Section 6 constructions use descriptive tuples/strings.
State = Hashable

#: Head movements.
LEFT_MOVE, STAY, RIGHT_MOVE = -1, 0, +1
_MOVES = (LEFT_MOVE, STAY, RIGHT_MOVE)

#: Per-instance stash attributes the kernel layers cache on machines
#: (compiled kernels, determinization verdicts, fragment labels) and
#: the planner caches beside them (prefilter factors).
#: Everything registered here is dropped from pickles by
#: :meth:`FSA.__getstate__` — each kernel tier registers its own slot
#: at import time, so adding a tier can never silently leak compiled
#: tables into worker payloads.
_KERNEL_STASHES: list[str] = []


def register_kernel_stash(name: str) -> None:
    """Register a per-instance stash attribute for pickle exclusion.

    Called once at import time by each module that caches derived
    state on :class:`FSA` instances via ``object.__setattr__``
    (:mod:`repro.fsa.kernel`, :mod:`repro.fsa.determinize`,
    :mod:`repro.ir.rewrite`).

    Args:
        name: The attribute name the caller stashes under.
    """
    if name not in _KERNEL_STASHES:
        _KERNEL_STASHES.append(name)


@dataclass(frozen=True)
class Transition:
    """One transition ``((p, c₁…c_k), (q, d₁…d_k))``.

    ``reads[i]`` is the symbol expected under head ``i`` and
    ``moves[i]`` the displacement applied to it.  The endmarker
    restriction of the paper — heads never leave the marked area — is
    enforced at construction time.
    """

    source: State
    reads: tuple[str, ...]
    target: State
    moves: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.reads) != len(self.moves):
            raise TransitionError(
                f"reads/moves arity mismatch: {self.reads!r} vs {self.moves!r}"
            )
        for symbol, move in zip(self.reads, self.moves):
            if move not in _MOVES:
                raise TransitionError(f"illegal move {move!r}")
            if symbol == LEFT_END and move == LEFT_MOVE:
                raise TransitionError("cannot move left from the left endmarker")
            if symbol == RIGHT_END and move == RIGHT_MOVE:
                raise TransitionError("cannot move right from the right endmarker")

    @property
    def arity(self) -> int:
        return len(self.reads)

    def is_stationary(self) -> bool:
        """True iff no head moves (the FSA analogue of an ε-transition)."""
        return all(move == STAY for move in self.moves)

    def __str__(self) -> str:
        label = " ".join(
            f"{symbol}{move:+d}" if move else f"{symbol} 0"
            for symbol, move in zip(self.reads, self.moves)
        )
        return f"{self.source} --[{label}]--> {self.target}"


@dataclass(frozen=True)
class FSA:
    """An immutable k-tape two-way finite state acceptor.

    ``size`` follows the paper's definition of ``|A|`` as the number of
    transitions.  The adjacency index ``outgoing`` is computed once and
    cached on the instance (it does not participate in equality).
    """

    arity: int
    states: frozenset[State]
    start: State
    finals: frozenset[State]
    transitions: frozenset[Transition]
    alphabet: Alphabet
    _outgoing: dict = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ArityError("FSA arity must be non-negative")
        if self.start not in self.states:
            raise TransitionError("start state missing from state set")
        if not self.finals <= self.states:
            raise TransitionError("final states missing from state set")
        valid_symbols = set(self.alphabet.tape_symbols())
        index: dict[State, list[Transition]] = {state: [] for state in self.states}
        for transition in self.transitions:
            if transition.arity != self.arity:
                raise ArityError(
                    f"transition arity {transition.arity} != FSA arity {self.arity}"
                )
            if (
                transition.source not in self.states
                or transition.target not in self.states
            ):
                raise TransitionError(
                    f"transition uses unknown state: {transition}"
                )
            for symbol in transition.reads:
                if symbol not in valid_symbols:
                    raise TransitionError(
                        f"transition reads {symbol!r} outside Σ ∪ endmarkers"
                    )
            index[transition.source].append(transition)
        object.__setattr__(self, "_outgoing", index)

    def __getstate__(self) -> dict:
        """Pickle the fields and adjacency index, not the kernel stashes.

        Every kernel tier caches derived state on the instance via
        ``object.__setattr__`` — the v1 compiled kernel, the v2
        determinization verdict, the fragment label — and registers its stash attribute in
        :data:`_KERNEL_STASHES` (:func:`register_kernel_stash`).
        Workers rebuild everything locally (one compile per machine
        per process), so shipping the stashes would only inflate shard
        payloads.
        """
        state = self.__dict__.copy()
        for name in _KERNEL_STASHES:
            state.pop(name, None)
        return state

    # -- observation ----------------------------------------------------

    @property
    def size(self) -> int:
        """``|A|``: the number of transitions (paper, Section 3)."""
        return len(self.transitions)

    def outgoing(self, state: State) -> tuple[Transition, ...]:
        """Transitions leaving ``state``."""
        return tuple(self._outgoing.get(state, ()))

    def incoming(self, state: State) -> tuple[Transition, ...]:
        """Transitions entering ``state`` (computed on demand)."""
        return tuple(t for t in self.transitions if t.target == state)

    def bidirectional_tapes(self) -> frozenset[int]:
        """Tapes moved left by some transition (paper, Section 3).

        Mirrors the *bidirectional variable* notion for string
        formulae: bidirectional tapes can be scanned back and forth.
        """
        found = set()
        for transition in self.transitions:
            for tape, move in enumerate(transition.moves):
                if move == LEFT_MOVE:
                    found.add(tape)
        return frozenset(found)

    def unidirectional_tapes(self) -> frozenset[int]:
        """Tapes never moved left."""
        return frozenset(range(self.arity)) - self.bidirectional_tapes()

    def is_unidirectional(self) -> bool:
        return not self.bidirectional_tapes()

    def reading_tapes(self, transition: Transition) -> frozenset[int]:
        """Tapes advanced (moved right) by ``transition``."""
        return frozenset(
            tape for tape, move in enumerate(transition.moves) if move == RIGHT_MOVE
        )

    # -- transformation -------------------------------------------------

    def pruned(self) -> "FSA":
        """Remove states unreachable from the start or not reaching a final.

        Keeps the start state even if no final is reachable, matching
        the paper's "single non-final start state" degenerate machines.
        """
        forward = {self.start}
        frontier = [self.start]
        while frontier:
            state = frontier.pop()
            for transition in self.outgoing(state):
                if transition.target not in forward:
                    forward.add(transition.target)
                    frontier.append(transition.target)
        backward = set(self.finals & forward)
        enter: dict[State, set[State]] = {}
        for transition in self.transitions:
            enter.setdefault(transition.target, set()).add(transition.source)
        frontier = list(backward)
        while frontier:
            state = frontier.pop()
            for source in enter.get(state, ()):
                if source in forward and source not in backward:
                    backward.add(source)
                    frontier.append(source)
        keep = backward | {self.start}
        transitions = frozenset(
            t
            for t in self.transitions
            if t.source in keep and t.target in keep
        )
        return FSA(
            self.arity,
            frozenset(keep),
            self.start,
            frozenset(self.finals & keep),
            transitions,
            self.alphabet,
        )

    def renumbered(self) -> "FSA":
        """Replace states by consecutive integers (start first).

        Deterministic given a deterministic state ordering; used to
        canonicalize machines after structural surgery.
        """
        order = [self.start] + sorted(
            (s for s in self.states if s != self.start), key=repr
        )
        names = {state: index for index, state in enumerate(order)}
        return self.map_states(names.__getitem__)

    def map_states(self, rename) -> "FSA":
        """Apply a state-renaming function (must be injective)."""
        states = frozenset(rename(s) for s in self.states)
        if len(states) != len(self.states):
            raise TransitionError("state renaming is not injective")
        return FSA(
            self.arity,
            states,
            rename(self.start),
            frozenset(rename(s) for s in self.finals),
            frozenset(
                Transition(rename(t.source), t.reads, rename(t.target), t.moves)
                for t in self.transitions
            ),
            self.alphabet,
        )

    def __str__(self) -> str:
        return (
            f"{self.arity}-FSA({len(self.states)} states, "
            f"{self.size} transitions, {len(self.finals)} final)"
        )


def make_fsa(
    arity: int,
    alphabet: Alphabet,
    start: State,
    finals: Iterable[State],
    transitions: Iterable[
        Transition | tuple[State, Iterable[str], State, Iterable[int]]
    ],
    extra_states: Iterable[State] = (),
) -> FSA:
    """Convenience constructor inferring the state set.

    Transitions may be given as :class:`Transition` objects or as
    ``(source, reads, target, moves)`` tuples.
    """
    built: list[Transition] = []
    for item in transitions:
        if isinstance(item, Transition):
            built.append(item)
        else:
            source, reads, target, moves = item
            built.append(
                Transition(source, tuple(reads), target, tuple(moves))
            )
    states = {start, *finals, *extra_states}
    for transition in built:
        states.add(transition.source)
        states.add(transition.target)
    return FSA(
        arity,
        frozenset(states),
        start,
        frozenset(finals),
        frozenset(built),
        alphabet,
    )


def tape_symbol(content: str, position: int) -> str:
    """The paper's ``w[j]``: character ``j`` of the endmarked tape.

    Position 0 is ``⊢``, positions ``1 … |w|`` the characters of ``w``
    and position ``|w| + 1`` is ``⊣``.
    """
    if position == 0:
        return LEFT_END
    if position == len(content) + 1:
        return RIGHT_END
    if 1 <= position <= len(content):
        return content[position - 1]
    raise IndexError(f"position {position} outside tape of {content!r}")
