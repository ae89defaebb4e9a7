"""The cost model feeding conjunct reordering and strategy choice.

Deterministic arithmetic over real storage statistics: relation
cardinalities, per-column distinct counts, longest lengths and
total/stored character counts come from each backend's
:meth:`~repro.storage.base.RelationStorage.stats` (the length
histograms there only ride in the plan stamp's signature), the
alphabet supplies string counts under the certified truncation cap,
and ties between equally-priced steps break on the literal's string
rendering — so the same query against statistically identical
databases always produces the same plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.alphabet import Alphabet
from repro.core.database import Database
from repro.storage import RelationStats

#: Cap on the per-variable generation estimate; certified caps can be
#: astronomically loose and the cost model only needs an ordering.
GENERATION_CEILING = 1e9

#: Assumed selectivity of a fully-bound filter literal.
FILTER_SELECTIVITY = 0.5

#: Assumed selectivity of a generator machine relative to the free
#: product of its unbound variables' domains.
GENERATOR_SELECTIVITY = 0.25

#: Assumed surviving fraction per index-prefilter factor on a join —
#: applied when a step carries pushed-down required substrings.
PREFILTER_SELECTIVITY = 0.25

#: Floor on the compressed-scan discount: even a grammar that packs a
#: column a million-fold still costs something per row to walk.
MIN_SCAN_DISCOUNT = 1.0 / 256.0


@dataclass(frozen=True)
class CostModel:
    """Cardinality estimates for one (database, alphabet, cap) context.

    ``relation_sizes`` is the sorted ``(name, rows)`` signature kept
    for observability and quick lookups; ``relation_stats`` carries
    the full per-column statistics and — being a tuple of frozen
    values — doubles as the database component of the plan cache's
    stamp: two databases with equal statistics cost-rank plans
    identically.
    ``foreign`` names the relations holding a character outside the
    query alphabet (only ever non-empty when the database alphabet
    has symbols the query alphabet lacks).
    """

    relation_sizes: tuple[tuple[str, int], ...]
    relation_stats: tuple[tuple[str, RelationStats], ...]
    alphabet_size: int
    cap: int
    domain_size: float
    foreign: tuple[str, ...] = ()

    @classmethod
    def for_database(
        cls, db: Database, alphabet: Alphabet, cap: int
    ) -> "CostModel":
        """Build the model for a database under a truncation cap.

        Args:
            db: The database supplying relation statistics.
            alphabet: The query alphabet.
            cap: The truncation / generation bound (``W(db)`` or an
                explicit length).

        Returns:
            The populated :class:`CostModel`.
        """
        stats = tuple(
            sorted(
                (name, db.relation(name).stats())
                for name in db.relation_names
            )
        )
        sizes = tuple((name, stat.rows) for name, stat in stats)
        bounded_cap = max(0, min(cap, 64))
        domain = min(
            float(alphabet.count_strings(bounded_cap)), GENERATION_CEILING
        )
        symbols = frozenset(alphabet.symbols)
        foreign: tuple[str, ...] = ()
        if not symbols.issuperset(db.alphabet.symbols):
            foreign = tuple(
                name
                for name, _ in stats
                if any(
                    not symbols.issuperset(value)
                    for row in db.relation(name)
                    for value in row
                )
            )
        return cls(sizes, stats, len(alphabet.symbols), cap, domain, foreign)

    @property
    def signature(self) -> tuple:
        """The hashable database component of the plan cache's stamp."""
        return (self.relation_stats, self.foreign)

    def relation_rows(self, name: str) -> int:
        """The cardinality of relation ``name`` (0 when unknown)."""
        for known, size in self.relation_sizes:
            if known == name:
                return size
        return 0

    def stats_for(self, name: str) -> RelationStats | None:
        """The stored statistics for ``name`` (``None`` when unknown)."""
        for known, stats in self.relation_stats:
            if known == name:
                return stats
        return None

    def outside_domain(self, name: str) -> bool:
        """Whether relation ``name`` holds a string outside ``Σ^{<=cap}``.

        Read off the stored statistics (each column's maximum length)
        and :attr:`foreign`, so the check costs no pass over the rows.

        Args:
            name: The relation symbol.

        Returns:
            ``True`` when some stored string is longer than the cap or
            uses a symbol outside the query alphabet.
        """
        if name in self.foreign:
            return True
        stats = self.stats_for(name)
        return stats is not None and any(
            column.max_length > self.cap for column in stats.columns
        )

    def column_distinct(self, name: str, column: int) -> int:
        """Distinct count of one column (1 when unknown — no selectivity)."""
        stats = self.stats_for(name)
        if stats is None or column >= len(stats.columns):
            return 1
        return max(stats.columns[column].distinct, 1)

    def scan_discount(self, name: str) -> float:
        """The compressed-scan cost multiplier for relation ``name``.

        The ratio of *stored* to *expanded* characters over all
        columns (``effective_stored_chars / total_chars``): 1.0 for
        uncompressed backends — whose ``stored_chars`` defaults to the
        expanded size, so every existing plan golden is untouched —
        and proportionally below 1.0 for SLP-compressed relations,
        where a scan walks grammar rules instead of characters.
        Floored at :data:`MIN_SCAN_DISCOUNT`.

        Args:
            name: The relation symbol.

        Returns:
            A multiplier in ``[MIN_SCAN_DISCOUNT, 1.0]``.
        """
        stats = self.stats_for(name)
        if stats is None:
            return 1.0
        total = sum(column.total_chars for column in stats.columns)
        if total <= 0:
            return 1.0
        stored = sum(
            column.effective_stored_chars for column in stats.columns
        )
        return min(1.0, max(stored / total, MIN_SCAN_DISCOUNT))

    def join_estimate(
        self,
        rows: float,
        name: str,
        arity: int,
        bound_columns: tuple[int, ...] = (),
    ) -> tuple[float, float]:
        """Estimate a join step: ``(cost, rows_after)``.

        A join scans ``rows × size`` pairs; each already-bound argument
        position acts as an equality predicate whose selectivity is
        ``1 / distinct(column)`` from the stored column statistics —
        the classic ``|R| / Π V(R, c)`` estimate.  The scan cost is
        additionally multiplied by :meth:`scan_discount`, so compressed
        relations price their scans by grammar size rather than
        expanded characters (1.0 — a no-op — for plain backends).

        Args:
            rows: The current estimated binding count.
            name: The relation symbol being joined.
            arity: The atom's argument count.
            bound_columns: The argument positions already bound.

        Returns:
            The ``(cost, rows_after)`` estimates.
        """
        base = max(self.relation_rows(name), 1)
        cost = rows * base * self.scan_discount(name)
        matches = float(base)
        for column in bound_columns:
            matches /= self.column_distinct(name, column)
        rows_after = rows * max(matches, 1.0)
        return cost, rows_after

    def prefilter_estimate(
        self, cost: float, rows_after: float, factors: int
    ) -> tuple[float, float]:
        """Discount a join estimate for pushed-down index prefilters.

        Each required factor is assumed to keep a
        :data:`PREFILTER_SELECTIVITY` fraction of the scanned rows;
        both the scan cost and the surviving rows shrink accordingly.

        Args:
            cost: The undiscounted join cost.
            rows_after: The undiscounted surviving-row estimate.
            factors: How many required factors the step pushes down.

        Returns:
            The discounted ``(cost, rows_after)`` estimates.
        """
        discount = PREFILTER_SELECTIVITY ** max(factors, 0)
        return max(cost * discount, 1.0), max(rows_after * discount, 1.0)

    def generate_estimate(
        self, rows: float, unbound: int
    ) -> tuple[float, float]:
        """Estimate a generator step: ``(cost, rows_after)``.

        Each binding runs the compiled machine, producing at most
        ``domain^unbound`` value tuples; the machine is assumed to be
        selective (:data:`GENERATOR_SELECTIVITY`).

        Args:
            rows: The current estimated binding count.
            unbound: The number of variables the machine generates.

        Returns:
            The ``(cost, rows_after)`` estimates.
        """
        produced = min(
            self.domain_size ** max(unbound, 1), GENERATION_CEILING
        )
        cost = rows * produced
        rows_after = max(rows * produced * GENERATOR_SELECTIVITY, 1.0)
        return cost, rows_after

    def filter_estimate(self, rows: float) -> tuple[float, float]:
        """Estimate a filter step: ``(cost, rows_after)``.

        Args:
            rows: The current estimated binding count.

        Returns:
            The ``(cost, rows_after)`` estimates.
        """
        return rows, max(rows * FILTER_SELECTIVITY, 1.0)


def semi_naive_estimate(branch, delta_size: int) -> float:
    """Estimated cost of one delta-restricted re-execution of ``branch``.

    Restricting one relational step to a delta's rows scales the
    binding flow through the branch by roughly ``|Δ| / est_rows``;
    :meth:`repro.delta.MaterializedStore.maintain` compares this
    against the branch's full ``est_cost`` and recomputes from scratch
    when the delta is large enough that restriction buys nothing.

    Args:
        branch: A :class:`~repro.ir.plan.ConjunctivePlan`.
        delta_size: The number of delta rows fed through the
            restricted step.

    Returns:
        The estimated restricted-run cost, in the same (unitless)
        currency as ``branch.est_cost``.
    """
    if not branch.steps:
        return float(delta_size)
    rows = max(branch.est_rows, 1.0)
    scale = min(1.0, delta_size / rows)
    return branch.est_cost * scale + delta_size
