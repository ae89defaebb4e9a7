"""The SLP-compressed string domain: straight-line-program grammars.

:mod:`repro.slp.grammar` holds the representation (interned binary
rules, deterministic :func:`~repro.slp.grammar.compress`, guarded
:meth:`~repro.slp.grammar.SLP.expand`, and the grammar-level observers
the storage backend and cost model consume).

The compressed relation backend lives in :mod:`repro.storage.slp`
(``--storage slp``).  Acceptance of compressed strings needs no
separate kernel: the determinized scan kernel
(:class:`repro.fsa.determinize.DeterministicKernel`) folds a
single-tape SLP cell over its grammar, composing per-rule state→state
summaries, so a verdict costs ``O(rules · states)`` instead of
``O(expanded length)``.
"""

from repro.slp.grammar import (
    DEFAULT_EXPAND_LIMIT,
    SLP,
    compress,
    concat,
    expand,
    expanded_length,
    literal,
    repeat,
)

__all__ = [
    "DEFAULT_EXPAND_LIMIT",
    "SLP",
    "compress",
    "concat",
    "expand",
    "expanded_length",
    "literal",
    "repeat",
]
