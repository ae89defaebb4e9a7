"""Quickstart: a string database and its first alignment calculus queries.

Walks through the paper's core workflow:

1. fix an alphabet and store string relations;
2. express queries in alignment calculus (relational layer + string
   formulae);
3. evaluate — either naively, or through the paper's procedural route
   (translate to alignment algebra, select/generate with multitape
   automata), with the truncation length certified by the safety
   analysis.

Run with:  python examples/quickstart.py
"""

from repro.core import Database, Query
from repro.core import shorthands as sh
from repro.core.alphabet import DNA
from repro.core.syntax import And, exists, lift, rel


def main() -> None:
    # A tiny genomic-flavoured database: R1 pairs each gene tag with a
    # regulatory sequence; R2 stores observed fragments.
    db = Database(
        DNA,
        {
            "R1": [
                ("ac", "ac"),
                ("ac", "gc"),
                ("tt", "tt"),
            ],
            "R2": [("acgc",), ("gc",), ("acac",)],
        },
    )

    # Example 2 of the paper: tuples of R1 whose components are equal.
    equal_pairs = Query(
        ("x", "y"),
        And(rel("R1", "x", "y"), lift(sh.equals("x", "y"))),
        DNA,
    )
    print("Example 2 — equal pairs in R1:")
    for row in sorted(equal_pairs.evaluate(db, length=3)):
        print("   ", row)

    # Example 3: fragments in R2 that concatenate a tuple of R1.
    concatenations = Query(
        ("x",),
        exists(
            ["y", "z"],
            And(
                And(rel("R1", "y", "z"), rel("R2", "x")),
                lift(sh.concatenation("x", "y", "z")),
            ),
        ),
        DNA,
    )
    print("Example 3 — R2 fragments that are concatenations of an R1 pair:")
    # No explicit length: the safety analysis certifies the truncation
    # bound from the database (domain independence, Definition 3.2).
    for row in sorted(concatenations.evaluate(db)):
        print("   ", row)

    # The same query through the algebra engine (Theorem 4.2 route):
    # selection and string generation are performed by compiled
    # multitape two-way automata.
    algebra_answer = concatenations.evaluate(db, length=4, engine="algebra")
    assert algebra_answer == concatenations.evaluate(db)
    print("   (algebra engine agrees)")

    # Example 7: fragments of R2 in which the string "cg" occurs — the
    # pattern string is pinned by a constant formula on a quantified
    # variable.
    occurrences = Query(
        ("x",),
        exists(
            "p",
            And(
                rel("R2", "x"),
                And(lift(sh.constant("p", "cg")), lift(sh.occurs_in("p", "x"))),
            ),
        ),
        DNA,
    )
    print('Example 7 — R2 fragments containing "cg":')
    # Auto mode: certified bound + the normalized plan.
    for row in sorted(occurrences.evaluate(db)):
        print("   ", row)


if __name__ == "__main__":
    main()
