"""Queries over string databases.

A query (paper, Section 2) is an expression ``x_{i1}, …, x_{ik} | φ``
whose answer on a database ``db`` is the set of head-variable tuples
for which ``φ`` holds in some full interpretation (Eq. 1).  Evaluation
here follows the truncation semantics ``⟦φ⟧^l_db``: quantifiers and
head variables range over ``Σ^{<=l}``.  For domain-independent queries
the two agree once ``l`` reaches the limit function ``W_φ(db)``
(Definition 3.2); the :mod:`repro.safety` package derives such bounds
automatically where the paper's theory allows.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.alphabet import Alphabet
from repro.core.database import Database
from repro.core.syntax import Formula, Var, free_variables
from repro.errors import EvaluationError


@dataclass(frozen=True)
class Query:
    """A query ``head | formula`` over a fixed alphabet.

    >>> from repro.core.alphabet import AB
    >>> from repro.core import shorthands as sh
    >>> from repro.core.syntax import And, lift, rel
    >>> q = Query(("x", "y"), And(rel("R1", "x", "y"), lift(sh.equals("x", "y"))), AB)
    """

    head: tuple[Var, ...]
    formula: Formula
    alphabet: Alphabet

    def __post_init__(self) -> None:
        free = free_variables(self.formula)
        extra = set(self.head) - free
        missing = free - set(self.head)
        if missing:
            raise EvaluationError(
                f"free variables {sorted(missing)} missing from query head"
            )
        if extra:
            raise EvaluationError(
                f"head variables {sorted(extra)} are not free in the formula"
            )
        if len(set(self.head)) != len(self.head):
            raise EvaluationError("query head repeats a variable")

    def evaluate(
        self,
        db: Database,
        length: int | None = None,
        engine: "str | object" = "auto",
        domain: Sequence[str] | None = None,
    ) -> frozenset[tuple[str, ...]]:
        """The truncated answer ``⟦φ⟧^l_db``.

        ``length`` fixes the truncation bound ``l``; when omitted, the
        safety analysis of :mod:`repro.safety` is consulted for a limit
        function and evaluation is exact (raises :class:`SafetyError`
        when no bound can be certified).  ``domain`` may supply an
        explicit candidate string pool instead, bypassing ``Σ^{<=l}``
        enumeration.

        ``engine`` names a strategy from the :mod:`repro.engine`
        registry, or is an :class:`~repro.engine.Engine` object:

        * ``"auto"`` (default) — executes the normalized plan (joins,
          then machine generation) at ``length`` or the certified
          bound, falling back to the naive check when the plan
          degrades to a naive root or ``domain`` is given.
        * ``"naive"`` — the direct model checker of
          :mod:`repro.core.semantics` (reference oracle).
        * ``"algebra"`` — translate to alignment algebra (Theorem 4.2)
          and evaluate the expression (the paper's procedural route).

        Evaluation routes through the process-wide
        :class:`repro.engine.QueryEngine` session, so compiled
        machines, limit reports and domain enumerations are reused
        across calls; hold a dedicated session for isolated workloads
        or batch evaluation (``QueryEngine.evaluate_many``).
        """
        from repro.engine import default_engine

        return default_engine().evaluate(
            self, db, length=length, engine=engine, domain=domain
        )

    def certified_length(self, db: Database) -> int:
        """A truncation bound from the safety analysis, if derivable."""
        from repro.engine import default_engine

        return default_engine().certified_length(self, db)

    def __str__(self) -> str:
        return f"{', '.join(self.head)} | {self.formula}"
