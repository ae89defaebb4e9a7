"""Seeded DNA relations and the motif selections asked over them.

The rows are generated here, not by the program's own workload
generators, so a change to the program cannot change the inputs.  The
shape follows the planted-motif relation of the storage benchmarks:
fragments of up to 24 random characters, 1% of them carrying a planted
``gcgcgc``.
"""

from __future__ import annotations

import random
import re

ALPHABET = "acgt"
PLANTED = "gcgcgc"
MAX_FRAGMENT = 24
PLANTED_SHARE = 0.01

#: The Example 6 pattern ``(gc + a)*`` as a Python regex (the oracle).
GC_A_STAR = re.compile(r"(?:gc|a)*")


def fragment(rng: random.Random, planted_share: float = PLANTED_SHARE) -> str:
    """One random fragment; ``planted_share`` of them carry the motif."""
    text = "".join(
        rng.choice(ALPHABET) for _ in range(rng.randint(0, MAX_FRAGMENT))
    )
    if rng.random() < planted_share:
        cut = rng.randint(0, len(text))
        text = text[:cut] + PLANTED + text[cut:]
    return text


def fragments(seed: int, count: int) -> list[str]:
    """``count`` distinct fragments drawn from ``seed``."""
    rng = random.Random(seed)
    seen: dict[str, None] = {}
    while len(seen) < count:
        seen[fragment(rng)] = None
    return list(seen)


# -- selections -----------------------------------------------------------


def motif_formula(relation: str, motif: str):
    """``relation(y) & motif occurs in y`` as a calculus formula."""
    from repro.core.syntax import (
        And, IsChar, SStar, WTrue, atom, concat, left, lift, rel,
    )

    occurs = concat(
        SStar(atom(left("y"), WTrue())),
        *[atom(left("y"), IsChar("y", char)) for char in motif],
    )
    return And(rel(relation, "y"), lift(occurs))


def pattern_formula(relation: str):
    """``relation(y) & y in (gc + a)*`` (the paper's Q6)."""
    from repro.core import shorthands
    from repro.core.syntax import And, lift, rel

    return And(rel(relation, "y"), lift(shorthands.gc_plus_a_star("y")))


def selection(relation: str, spec: str):
    """The formula for ``spec``: a motif, or ``"Q6"`` for the pattern."""
    if spec == "Q6":
        return pattern_formula(relation)
    return motif_formula(relation, spec)


def expected(rows, spec: str) -> frozenset[tuple[str]]:
    """The oracle: the answer of ``selection(_, spec)`` over ``rows``."""
    if spec == "Q6":
        return frozenset((row,) for row in rows if GC_A_STAR.fullmatch(row))
    return frozenset((row,) for row in rows if spec in row)


def query(relation: str, spec: str):
    """The one-variable ``Query`` of ``selection(relation, spec)``."""
    from repro.core.alphabet import DNA
    from repro.core.query import Query

    return Query(("y",), selection(relation, spec), DNA)


def delta_rows(rng: random.Random, live: set[str], inserts: int,
               deletes: int) -> tuple[list[str], list[str]]:
    """Fresh rows to insert and live rows to delete, disjoint.

    Inserted rows carry the planted motif 30% of the time so maintained
    answers change; deleted rows are drawn uniformly from ``live``.
    """
    added: list[str] = []
    while len(added) < inserts:
        row = fragment(rng, planted_share=0.3)
        if row not in live and row not in added:
            added.append(row)
    removed = rng.sample(sorted(live), deletes) if deletes else []
    return added, removed
