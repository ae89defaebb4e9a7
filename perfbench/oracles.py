"""Answers to the adhoc-paper templates, computed in plain Python.

Nothing here calls the program: each template's answer set is built
from the generated rows by direct string operations, so an engine bug
cannot hide behind a matching oracle bug.
"""

from __future__ import annotations

from functools import lru_cache


def is_manifold(x: str, y: str) -> bool:
    """``x`` is ``y`` repeated one or more times (``""`` only for ``""``)."""
    if not y:
        return not x
    return len(x) >= len(y) and len(x) % len(y) == 0 and (
        x == y * (len(x) // len(y))
    )


@lru_cache(maxsize=None)
def shuffles(y: str, z: str) -> frozenset[str]:
    """Every interleaving of ``y`` and ``z``."""
    if not y or not z:
        return frozenset({y + z})
    return frozenset(
        {y[0] + rest for rest in shuffles(y[1:], z)}
        | {z[0] + rest for rest in shuffles(y, z[1:])}
    )


def edit_distance(x: str, y: str) -> int:
    """Unit-cost Levenshtein distance (Wagner-Fischer)."""
    previous = list(range(len(y) + 1))
    for i, cx in enumerate(x, start=1):
        current = [i]
        for j, cy in enumerate(y, start=1):
            current.append(min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (cx != cy),
            ))
        previous = current
    return previous[-1]


def paper_answer(name: str, param, pairs, singles) -> frozenset[tuple]:
    """The answer of template ``name`` over R1 = ``pairs``, R2 = ``singles``."""
    r2 = set(singles)
    if name == "q1_constant":
        return frozenset({(param,)} if param in r2 else ())
    if name == "q2_equality":
        return frozenset((y,) for y in r2)
    if name == "q3_concat":
        return frozenset((y + z,) for y in r2 for z in r2)
    if name == "q3_concat_pairs":
        return frozenset((y + z,) for y, z in pairs)
    if name == "q4_manifold":
        return frozenset((x, y) for x, y in pairs if is_manifold(x, y))
    if name == "q4_manifold_constant":
        return frozenset((x,) for x in r2 if is_manifold(x, param))
    if name == "q5_shuffle":
        return frozenset((x,) for y, z in pairs for x in shuffles(y, z))
    if name == "q7_occurrence":
        return frozenset((y,) for y in r2 if param in y)
    if name == "q8_edit_distance":
        word, bound = param
        return frozenset((y,) for y in r2 if edit_distance(word, y) <= bound)
    if name == "prefix_constant":
        return frozenset((y,) for y in r2 if y.startswith(param))
    if name == "suffix":
        return frozenset((y[i:],) for y in r2 for i in range(len(y) + 1))
    if name == "join":
        return frozenset((x,) for x, y in pairs if y in r2)
    if name == "join_chain":
        return frozenset(
            (x, z) for x, y in pairs for y2, z in pairs if y == y2
        )
    if name == "join_constant":
        return frozenset((x,) for x, y in pairs if y == param)
    raise ValueError(f"unknown template {name!r}")
