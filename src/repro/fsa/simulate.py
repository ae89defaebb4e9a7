"""Simulation of k-FSAs — Theorem 3.3 made executable.

Acceptance follows the paper's definition exactly: a computation
accepts the input tuple ``W`` iff it starts in the initial
configuration ``(s, 0, …, 0)``, is finite, ends in a configuration
whose state is final *and which has no next configuration on W*.

The acceptance check builds the configuration graph (the 0-FSA of
Lemma 3.1 with ``l = 0``) and searches it — polynomial in
``Π(|uᵢ| + 2)`` for a fixed machine, which is the content of
Theorem 3.3.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import product

from repro.errors import ArityError
from repro.fsa.kernel import kernel_for
from repro.fsa.machine import FSA, Transition, tape_symbol
from repro.observability import current_tracer


@dataclass(frozen=True)
class Configuration:
    """A configuration ``(p, n₁, …, n_k)`` of an FSA on an input tuple."""

    state: object
    positions: tuple[int, ...]


def initial_configuration(fsa: FSA) -> Configuration:
    """The initial configuration ``(s, 0, …, 0)``."""
    return Configuration(fsa.start, (0,) * fsa.arity)


def read_symbols(
    inputs: Sequence[str], positions: Sequence[int]
) -> tuple[str, ...]:
    """Symbols under the heads: ``(w₁[n₁], …, w_k[n_k])``."""
    return tuple(
        tape_symbol(content, position)
        for content, position in zip(inputs, positions)
    )


def enabled_transitions(
    fsa: FSA, configuration: Configuration, inputs: Sequence[str]
) -> list[Transition]:
    """Transitions applicable in ``configuration`` on ``inputs``."""
    heads = read_symbols(inputs, configuration.positions)
    return [
        transition
        for transition in fsa.outgoing(configuration.state)
        if transition.reads == heads
    ]


def step(configuration: Configuration, transition: Transition) -> Configuration:
    """The next configuration reached by firing ``transition``."""
    positions = tuple(
        position + move
        for position, move in zip(configuration.positions, transition.moves)
    )
    return Configuration(transition.target, positions)


def _check_arity(fsa: FSA, inputs: Sequence[str]) -> None:
    if len(inputs) != fsa.arity:
        raise ArityError(
            f"{fsa.arity}-FSA fed {len(inputs)} input strings"
        )
    for content in inputs:
        fsa.alphabet.validate_string(content)


def accepts(fsa: FSA, inputs: Sequence[str]) -> bool:
    """Does ``fsa`` accept the input tuple?  (Theorem 3.3 algorithm.)

    Delegates to the machine's acceptance kernel
    (:func:`repro.fsa.kernel.kernel_for`): the determinized linear scan
    for machines in the Theorem 5.2 fragment, the compiled
    configuration-graph search otherwise.  Exactly equivalent to
    :func:`reference_accepts` either way.
    """
    return kernel_for(fsa).accepts(inputs)


def reference_accepts(fsa: FSA, inputs: Sequence[str]) -> bool:
    """The uncompiled reference acceptance search (Theorem 3.3 verbatim).

    Worklist search of the configuration graph from the initial
    configuration, looking for a reachable *halting* configuration in
    a final state, one :class:`Configuration` dataclass per node.
    Kept as the executable specification the compiled kernel is
    differentially tested (and benchmarked) against.
    """
    _check_arity(fsa, inputs)
    start = initial_configuration(fsa)
    visited = {start}
    frontier = [start]
    accepted = False
    while frontier:
        configuration = frontier.pop()
        enabled = enabled_transitions(fsa, configuration, inputs)
        if not enabled and configuration.state in fsa.finals:
            accepted = True
            break
        for transition in enabled:
            nxt = step(configuration, transition)
            if nxt not in visited:
                visited.add(nxt)
                frontier.append(nxt)
    tracer = current_tracer()
    tracer.add("simulate.runs")
    tracer.add("simulate.configurations", len(visited))
    return accepted


def accepts_batch(
    fsa: FSA, rows: Sequence[Sequence[str]]
) -> tuple[bool, ...]:
    """:func:`accepts` over a batch of input tuples, in order.

    The shard entry point of :mod:`repro.parallel` for selection
    filtering: one pickled machine answers a whole slice of rows in
    the worker.  The kernel is compiled (or fetched) once for the
    whole batch; the scan kernel interns each row once (a batch of
    single-tape plain strings in one pass) and stops reading it at the
    first sticky state of its dense transition table.
    """
    return kernel_for(fsa).accepts_batch(rows)


def accepting_run(
    fsa: FSA, inputs: Sequence[str]
) -> list[Configuration] | None:
    """A witness computation ``C₁ C₂ … C_m`` accepting ``inputs``.

    Returns ``None`` when the input is rejected.  Used by tests and by
    the examples to display accepting computations.
    """
    _check_arity(fsa, inputs)
    start = initial_configuration(fsa)
    parents: dict[Configuration, Configuration | None] = {start: None}
    frontier = deque([start])
    goal: Configuration | None = None
    while frontier:
        configuration = frontier.popleft()
        enabled = enabled_transitions(fsa, configuration, inputs)
        if not enabled and configuration.state in fsa.finals:
            goal = configuration
            break
        for transition in enabled:
            nxt = step(configuration, transition)
            if nxt not in parents:
                parents[nxt] = configuration
                frontier.append(nxt)
    if goal is None:
        return None
    path = [goal]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    path.reverse()
    return path


def reachable_configurations(
    fsa: FSA, inputs: Sequence[str]
) -> frozenset[Configuration]:
    """All configurations reachable from the initial one on ``inputs``.

    The node set of Lemma 3.1's 0-FSA; exposed for the Theorem 3.3
    benchmark, which measures how this set grows with input length.
    """
    _check_arity(fsa, inputs)
    start = initial_configuration(fsa)
    visited = {start}
    frontier = [start]
    while frontier:
        configuration = frontier.pop()
        for transition in enabled_transitions(fsa, configuration, inputs):
            nxt = step(configuration, transition)
            if nxt not in visited:
                visited.add(nxt)
                frontier.append(nxt)
    return frozenset(visited)


def language(
    fsa: FSA, max_length: int
) -> frozenset[tuple[str, ...]]:
    """``L(A)`` restricted to tuples of strings of length ≤ ``max_length``.

    Brute-force enumeration used as an oracle in tests; the smarter
    generation lives in :mod:`repro.fsa.generate`.
    """
    pool = list(fsa.alphabet.strings(max_length))
    return frozenset(
        candidate
        for candidate in product(pool, repeat=fsa.arity)
        if accepts(fsa, candidate)
    )
