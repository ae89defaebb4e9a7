"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark regenerates one experiment of EXPERIMENTS.md; the
fixtures provide deterministic workloads so runs are comparable.
:func:`byte_accounting` is the shared size report for compressed
workloads — benchmarks that store relations behind a compressing
backend record *both* expanded and stored bytes, so a "processed N
bytes" claim in a ``BENCH_*.json`` is always explicit about which N
it means.  :func:`write_results` is where every gate's numbers go.
"""

import json
from pathlib import Path

import pytest

from repro.core.alphabet import AB, DNA
from repro.core.database import Database
from repro.workloads import generators


REPO_ROOT = Path(__file__).resolve().parent.parent

#: Where pytest runs of the speedup and latency gates write their
#: results.  It is untracked (see ``.gitignore``), so running the
#: benchmark smokes leaves the tree clean; CI uploads it as an artifact.
RESULTS_DIR = REPO_ROOT / "bench-results"


def write_results(filename: str, results: dict, *, tracked: bool = False) -> Path:
    """Write one benchmark's results as indented JSON.

    Args:
        filename: The ``BENCH_*.json`` name.
        results: The JSON-ready numbers.
        tracked: ``True`` only for a direct script run
            (``PYTHONPATH=src python benchmarks/bench_<name>.py``),
            which records the committed ``filename`` at the repo root;
            pytest runs write it under :data:`RESULTS_DIR` instead.

    Returns:
        The path written.
    """
    directory = REPO_ROOT if tracked else RESULTS_DIR
    directory.mkdir(exist_ok=True)
    path = directory / filename
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def byte_accounting(storages) -> dict:
    """Expanded vs. stored bytes over named relation storages.

    Args:
        storages: ``(name, storage)`` pairs (any object with the
            :class:`~repro.storage.RelationStorage` ``stats()`` hook).

    Returns:
        A JSON-ready dict: per-relation and total ``expanded_chars``
        (the logical string bytes a scan-based evaluator would touch),
        ``stored_chars`` (what the backend actually holds — grammar
        rules for SLP columns, identical to expanded for plain
        backends) and the resulting ``compression_ratio``.
    """
    relations = []
    total_expanded = 0
    total_stored = 0
    for name, storage in storages:
        stats = storage.stats()
        expanded = sum(column.total_chars for column in stats.columns)
        stored = sum(
            column.effective_stored_chars for column in stats.columns
        )
        total_expanded += expanded
        total_stored += stored
        relations.append(
            {
                "relation": name,
                "rows": stats.rows,
                "expanded_chars": expanded,
                "stored_chars": stored,
            }
        )
    return {
        "relations": relations,
        "expanded_chars": total_expanded,
        "stored_chars": total_stored,
        "compression_ratio": (
            round(total_expanded / total_stored, 2) if total_stored else 1.0
        ),
    }


@pytest.fixture(scope="session")
def ab_database() -> Database:
    """A small two-relation database over {a, b}."""
    return generators.example_database(AB, seed=1, size=6, max_length=4)


@pytest.fixture(scope="session")
def dna_database() -> Database:
    """A DNA-alphabet database with planted motifs."""
    fragments = generators.with_planted_motif(
        DNA, motif="gcgc", count=12, max_length=5, seed=2
    )
    pairs = generators.manifold_strings(
        DNA, count=6, max_base_length=2, max_repeats=3, seed=3
    )
    return Database(
        DNA,
        {"R1": [tuple(p) for p in pairs], "R2": [(s,) for s in fragments]},
    )
