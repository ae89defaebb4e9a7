"""Straight-line programs: grammar-compressed strings.

A straight-line program (SLP) is a context-free grammar in Chomsky
normal form that derives exactly one string: every rule is either a
*terminal* rule ``X → c`` or a *pair* rule ``X → Y Z``.  The derived
string can be exponentially longer than the grammar — ``aⁿ`` needs
only ``O(log n)`` rules — which is what lets the grammar fold of the
scan kernel (:class:`repro.fsa.determinize.DeterministicKernel`) answer
queries about strings far past what the uncompressed pipeline could
even materialize.

Rules are **hash-consed**: structurally identical nodes are interned
process-wide, so equal subtrees are shared, structural equality is
pointer equality, and per-node memo tables (kernel summaries, gram
sets) are automatically shared between every string containing the
subtree.  :func:`compress` is deterministic — equal strings always
compress to the *same* interned root — so structural identity of
compressed cells coincides with string equality, which the SLP storage
backend (:mod:`repro.storage.slp`) relies on for membership tests and
distinct counts without decompressing anything.

Builders: :func:`literal` (from a short string), :func:`concat`,
:func:`repeat` (binary powers — ``O(log n)`` rules), and
:func:`compress` (a RePair-style most-frequent-pair builder for
arbitrary strings).  Observers: :meth:`SLP.expand` (guarded by a
decompression cap), :meth:`SLP.expanded_length`, :meth:`SLP.grams`
(the factor set up to a gram size, computed on the grammar — never on
the expansion), and :meth:`SLP.stored_size` (the rule count the cost
model prices compressed columns by).
"""

from __future__ import annotations

import itertools
import weakref
from collections.abc import Iterator

from repro.errors import SLPError

#: Default cap on :meth:`SLP.expand` output, in characters.  An SLP
#: over the cap is exactly the payload the grammar fold exists for;
#: expanding it is almost certainly a bug, so it raises instead.
DEFAULT_EXPAND_LIMIT = 1 << 24

#: The process-wide rule interner: ``('t', char)`` for terminal rules,
#: ``(left_id, right_id)`` for pair rules.  Values are weakly held so
#: grammars die with their last reference.
_INTERNER: "weakref.WeakValueDictionary[tuple, _Node]" = (
    weakref.WeakValueDictionary()
)

#: Monotone node ids; never reused, so id order is creation order.
_NODE_IDS = itertools.count()


class _Node:
    """One interned SLP rule (terminal or pair).  Internal.

    Nodes are immutable after construction and unique per structure —
    always obtain them through :func:`_terminal` / :func:`_pair`, never
    directly, so identity comparisons and per-node memo tables stay
    sound.
    """

    __slots__ = ("id", "length", "char", "left", "right", "__weakref__")

    def __init__(
        self,
        length: int,
        char: str | None,
        left: "_Node | None",
        right: "_Node | None",
    ) -> None:
        self.id = next(_NODE_IDS)
        self.length = length
        self.char = char
        self.left = left
        self.right = right

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.char is not None:
            return f"_Node({self.char!r})"
        return f"_Node(#{self.id}, len={self.length})"


def _terminal(char: str) -> _Node:
    """The interned terminal rule ``X → char``."""
    if len(char) != 1:
        raise SLPError(
            f"terminal rules hold exactly one character, got {char!r}"
        )
    key = ("t", char)
    node = _INTERNER.get(key)
    if node is None:
        node = _Node(1, char, None, None)
        _INTERNER[key] = node
    return node


def _pair(left: _Node, right: _Node) -> _Node:
    """The interned pair rule ``X → left right``."""
    key = (left.id, right.id)
    node = _INTERNER.get(key)
    if node is None:
        node = _Node(left.length + right.length, None, left, right)
        _INTERNER[key] = node
    return node


def _postorder(root: _Node) -> list[_Node]:
    """The DAG's distinct nodes, children before parents."""
    order: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if node.id in seen:
            continue
        if expanded or node.char is not None:
            seen.add(node.id)
            order.append(node)
            continue
        stack.append((node, True))
        stack.append((node.right, False))
        stack.append((node.left, False))
    return order


class SLP:
    """A grammar-compressed string: one straight-line program.

    Instances wrap an interned rule DAG (or ``None`` for the empty
    string) and are value-like: equality and hashing are structural,
    and — because :func:`compress` is deterministic — two equal strings
    compressed independently compare equal.  SLPs pickle as their
    canonical rule list and re-intern on load, so they cross process
    boundaries (parallel shards, the service) at grammar size, not
    expanded size.

    >>> s = compress("abababab")
    >>> s.expanded_length(), len(s)
    (8, 8)
    >>> s.expand()
    'abababab'
    >>> s == compress("ab" * 4), s == compress("abab")
    (True, False)
    """

    __slots__ = ("_root",)

    def __init__(self, root: _Node | None) -> None:
        self._root = root

    # -- observation -----------------------------------------------------

    @property
    def root(self) -> _Node | None:
        """The interned root rule (``None`` for the empty string)."""
        return self._root

    def expanded_length(self) -> int:
        """``|expand()|`` — from the grammar, without expanding."""
        return self._root.length if self._root is not None else 0

    def __len__(self) -> int:
        return self.expanded_length()

    def stored_size(self) -> int:
        """The number of distinct rules in the grammar (its DAG size).

        This is the unit the cost model prices compressed columns in:
        a grammar-fold acceptance pass touches each rule at most once.
        """
        if self._root is None:
            return 0
        return len(_postorder(self._root))

    def __iter__(self) -> Iterator[str]:
        """Stream the expanded characters left to right, lazily."""
        if self._root is None:
            return
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.char is not None:
                yield node.char
            else:
                stack.append(node.right)
                stack.append(node.left)

    def expand(self, max_chars: int = DEFAULT_EXPAND_LIMIT) -> str:
        """The derived string (guarded decompression).

        Args:
            max_chars: Decompression cap; expansion past it raises.

        Returns:
            The expanded string.

        Raises:
            SLPError: If the expanded length exceeds ``max_chars``.
        """
        if self._root is None:
            return ""
        if self._root.length > max_chars:
            raise SLPError(
                f"refusing to expand {self._root.length} characters "
                f"(cap {max_chars}); raise max_chars to force it"
            )
        # Assemble bottom-up over the *distinct* nodes so shared
        # subtrees (e.g. repeat powers) are concatenated once each.
        texts: dict[int, str] = {}
        for node in _postorder(self._root):
            if node.char is not None:
                texts[node.id] = node.char
            else:
                texts[node.id] = texts[node.left.id] + texts[node.right.id]
        return texts[self._root.id]

    def grams(self, n: int) -> frozenset[str]:
        """Every length-``n`` factor of the expanded string.

        Computed compositionally on the grammar: a pair rule's factors
        are its children's factors plus the windows straddling the
        seam, which only needs the children's length-``n-1`` prefixes
        and suffixes.  Cost is ``O(rules · n)`` — independent of the
        expanded length — which is what lets the SLP storage backend
        answer n-gram prefilter probes without decompressing.

        Args:
            n: The factor length (must be positive).

        Returns:
            The factor set (empty when the string is shorter than ``n``).
        """
        if n <= 0:
            raise SLPError(f"gram size must be positive, got {n}")
        if self._root is None:
            return frozenset()
        margin = n - 1
        # node id -> (grams, prefix≤margin, suffix≤margin)
        info: dict[int, tuple[set[str], str, str]] = {}
        for node in _postorder(self._root):
            if node.char is not None:
                grams = {node.char} if n == 1 else set()
                edge = node.char if margin else ""
                info[node.id] = (grams, edge, edge)
                continue
            l_grams, l_pre, l_suf = info[node.left.id]
            r_grams, r_pre, r_suf = info[node.right.id]
            grams = l_grams | r_grams
            seam = l_suf + r_pre
            grams.update(
                seam[start : start + n]
                for start in range(len(seam) - n + 1)
            )
            if margin:
                prefix = (
                    l_pre
                    if node.left.length >= margin
                    else (l_pre + r_pre)[:margin]
                )
                suffix = (
                    r_suf
                    if node.right.length >= margin
                    else (l_suf + r_suf)[-margin:]
                )
            else:
                prefix = suffix = ""
            info[node.id] = (grams, prefix, suffix)
        return frozenset(info[self._root.id][0])

    def validate(self) -> None:
        """Check the grammar's structural invariants.

        Every rule must be a well-formed terminal (one character, no
        children) or pair (two children, no character) with consistent
        derived lengths.  Interned construction guarantees all of this;
        the check exists so deserialized or hand-built grammars can be
        audited.

        Raises:
            SLPError: On the first violated invariant.
        """
        if self._root is None:
            return
        for node in _postorder(self._root):
            if node.char is not None:
                if node.left is not None or node.right is not None:
                    raise SLPError(
                        f"terminal rule {node.id} has children"
                    )
                if len(node.char) != 1 or node.length != 1:
                    raise SLPError(
                        f"terminal rule {node.id} is malformed"
                    )
            else:
                if node.left is None or node.right is None:
                    raise SLPError(f"pair rule {node.id} lacks children")
                if node.length != node.left.length + node.right.length:
                    raise SLPError(
                        f"pair rule {node.id} has inconsistent length "
                        f"{node.length} != {node.left.length} + "
                        f"{node.right.length}"
                    )

    # -- value semantics -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SLP):
            return NotImplemented
        return self._root is other._root

    def __hash__(self) -> int:
        return hash(self._root.id) if self._root is not None else 0

    def __repr__(self) -> str:
        length = self.expanded_length()
        if length <= 16:
            return f"SLP({self.expand()!r})"
        return f"SLP({length} chars, {self.stored_size()} rules)"

    # -- pickling --------------------------------------------------------

    def rules(self) -> tuple[object, ...]:
        """The canonical rule list: postorder, child refs by index.

        Each entry is either a one-character string (a terminal rule)
        or an ``(left_index, right_index)`` pair of earlier entries;
        the last entry is the root.  This is the pickle payload and a
        convenient export format.
        """
        if self._root is None:
            return ()
        order = _postorder(self._root)
        index = {node.id: position for position, node in enumerate(order)}
        return tuple(
            node.char
            if node.char is not None
            else (index[node.left.id], index[node.right.id])
            for node in order
        )

    @classmethod
    def from_rules(cls, rules: tuple[object, ...]) -> "SLP":
        """Rebuild (and re-intern) an SLP from :meth:`rules` output.

        Args:
            rules: The canonical rule list.

        Returns:
            The interned SLP.

        Raises:
            SLPError: If a rule references an undefined later rule.
        """
        if not rules:
            return cls(None)
        nodes: list[_Node] = []
        for position, rule in enumerate(rules):
            if isinstance(rule, str):
                nodes.append(_terminal(rule))
                continue
            left, right = rule
            if not (0 <= left < position and 0 <= right < position):
                raise SLPError(
                    f"rule {position} references undefined rule "
                    f"({left}, {right})"
                )
            nodes.append(_pair(nodes[left], nodes[right]))
        return cls(nodes[-1])

    def __reduce__(self):
        return (SLP.from_rules, (self.rules(),))


# -- builders -----------------------------------------------------------


def literal(text: str) -> SLP:
    """An SLP deriving ``text``, built as a balanced binary fold.

    Args:
        text: The string to wrap (no compression is attempted; use
            :func:`compress` for that).

    Returns:
        The SLP (``O(|text|)`` rules, ``O(log |text|)`` depth).
    """
    if not text:
        return SLP(None)
    return SLP(_fold([_terminal(char) for char in text]))


def concat(first: SLP, second: SLP) -> SLP:
    """The SLP deriving ``first.expand() + second.expand()``.

    One new pair rule (both operands' grammars are shared as-is).
    """
    if first.root is None:
        return second
    if second.root is None:
        return first
    return SLP(_pair(first.root, second.root))


def repeat(base: SLP, count: int) -> SLP:
    """The SLP deriving ``base.expand() * count`` via binary powers.

    ``O(log count)`` new rules — the constructor behind the
    "expanded length ≥100× anything the uncompressed path could hold"
    scale workloads.

    Args:
        base: The unit to repeat.
        count: The repetition count (non-negative).

    Returns:
        The repeated SLP.
    """
    if count < 0:
        raise SLPError(f"repeat count must be non-negative, got {count}")
    if count == 0 or base.root is None:
        return SLP(None)
    result: _Node | None = None
    power = base.root
    remaining = count
    while remaining:
        if remaining & 1:
            result = power if result is None else _pair(result, power)
        remaining >>= 1
        if remaining:
            power = _pair(power, power)
    return SLP(result)


def _fold(nodes: list[_Node]) -> _Node:
    """Balanced binary fold of a node sequence into one root."""
    while len(nodes) > 1:
        folded = [
            _pair(nodes[index], nodes[index + 1])
            for index in range(0, len(nodes) - 1, 2)
        ]
        if len(nodes) % 2:
            folded.append(nodes[-1])
        nodes = folded
    return nodes[0]


def compress(text: str) -> SLP:
    """Compress ``text`` into an SLP (deterministic, RePair-style).

    Repeatedly replaces the most frequent adjacent digram with a fresh
    pair rule (ties break on smallest node ids, i.e. first creation),
    then folds the residual sequence with a balanced binary fold.
    Determinism matters more than optimality here: equal strings always
    produce the *same* interned root, so structural identity of
    compressed values coincides with string equality.

    >>> compress("a" * 1024).stored_size()
    11
    >>> compress("").expand()
    ''

    Args:
        text: The string to compress.

    Returns:
        The compressed SLP; repetitive strings yield grammars
        logarithmic in the input, incompressible ones stay linear.
    """
    if not text:
        return SLP(None)
    sequence = [_terminal(char) for char in text]
    while len(sequence) > 1:
        counts: dict[tuple[int, int], int] = {}
        pairs: dict[tuple[int, int], tuple[_Node, _Node]] = {}
        # Tie-break on the digram's first expanded offset — a pure
        # function of the text, so equal strings compress identically
        # in *every* process (interned node ids are history-dependent
        # and must not influence the outcome).
        first_offset: dict[tuple[int, int], int] = {}
        offset = 0
        previous_key = None
        for left, right in zip(sequence, sequence[1:]):
            key = (left.id, right.id)
            position = offset
            offset += left.length
            # Overlapping occurrences of a square like "aaa" can only
            # be replaced once; count them once.
            if key == previous_key and left.id == right.id:
                previous_key = None
                continue
            previous_key = key
            counts[key] = counts.get(key, 0) + 1
            pairs.setdefault(key, (left, right))
            first_offset.setdefault(key, position)
        best_key = min(
            counts, key=lambda key: (-counts[key], first_offset[key])
        )
        if counts[best_key] < 2:
            return SLP(_fold(sequence))
        replacement = _pair(*pairs[best_key])
        replaced: list[_Node] = []
        position = 0
        limit = len(sequence) - 1
        while position < len(sequence):
            if (
                position < limit
                and (sequence[position].id, sequence[position + 1].id)
                == best_key
            ):
                replaced.append(replacement)
                position += 2
            else:
                replaced.append(sequence[position])
                position += 1
        sequence = replaced
    return SLP(sequence[0])


def expand(slp: SLP, max_chars: int = DEFAULT_EXPAND_LIMIT) -> str:
    """Module-level convenience for :meth:`SLP.expand`."""
    return slp.expand(max_chars)


def expanded_length(slp: SLP) -> int:
    """Module-level convenience for :meth:`SLP.expanded_length`."""
    return slp.expanded_length()


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
