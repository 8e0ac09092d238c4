"""Intervals, simplicity, sum/skew components, and the substitution
decomposition of a permutation.

An interval (block) is a set of entries occupying contiguous positions and
contiguous values; by convention the whole permutation does not count.  A
permutation with no interval of size >= 2 is simple.  Every permutation is
the inflation of a unique simple skeleton; for skeletons longer than 2 the
blocks are the disjoint maximal intervals, while sum- and skew-decomposable
permutations get a canonical binary tree (first child indecomposable of the
matching kind).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .perm_core import Permutation, Slot, _pattern_of, inflate


@dataclass(frozen=True, order=True)
class IntervalSpan:
    """An interval given by inclusive 1-based position and value ranges."""

    pos_lo: int
    pos_hi: int
    val_lo: int
    val_hi: int

    @property
    def size(self) -> int:
        return self.pos_hi - self.pos_lo + 1


@dataclass(frozen=True)
class DecompositionTree:
    """Substitution-decomposition tree; a node with no children is a leaf
    standing for a single entry."""

    skeleton: Optional[Permutation]
    children: tuple["DecompositionTree", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def reinflate(self) -> Permutation:
        """Rebuild the permutation this tree decomposes."""
        if self.is_leaf:
            return Permutation((1,))
        return inflate(self.skeleton, [child.reinflate() for child in self.children])


@dataclass(frozen=True)
class QuadrantView:
    """The four corner regions of a host relative to one of its intervals.

    Entries are (position, value) pairs in position order: ``beta`` is left
    and below the interval, ``gamma`` left and above, ``delta`` right and
    above, ``epsilon`` right and below.  Because the reference box is an
    interval, no entry of the host cuts it, so this is a partition.
    """

    alpha: IntervalSpan
    beta: tuple[tuple[int, int], ...]
    gamma: tuple[tuple[int, int], ...]
    delta: tuple[tuple[int, int], ...]
    epsilon: tuple[tuple[int, int], ...]


def proper_intervals(p: Permutation) -> list[IntervalSpan]:
    """All intervals of size >= 2 and < n, sorted by (pos_lo, pos_hi).

    >>> [(s.pos_lo, s.pos_hi) for s in proper_intervals(Permutation((1, 2, 3)))]
    [(1, 2), (2, 3)]
    """
    return [IntervalSpan(*span) for span in _proper_interval_spans(p.values)]


def is_simple(p: Permutation) -> bool:
    """True when ``p`` has no proper interval (1, 12 and 21 count as simple)."""
    return _is_simple(p.values)


def sum_components(p: Permutation, kind: str = "direct") -> list[Permutation]:
    """The maximal decomposition of ``p`` into direct- (or skew-) sum
    components, each indecomposable of that kind.  A one-element result
    means ``p`` is indecomposable of that kind."""
    return [Permutation(c) for c in _components(p.values, kind)]


def substitution_decompose(p: Permutation) -> DecompositionTree:
    """The canonical decomposition tree of ``p``; re-inflation restores it.

    >>> t = substitution_decompose(Permutation((4, 3, 7, 1, 2, 6, 5)))
    >>> str(t.skeleton)
    '2 4 1 3'
    """
    vals = p.values
    if len(vals) == 1:
        return DecompositionTree(None)
    for kind, skel in (("direct", Permutation((1, 2))), ("skew", Permutation((2, 1)))):
        e = _component_ends(vals, kind)[0]
        if e < len(vals):
            return DecompositionTree(
                skel,
                (
                    substitution_decompose(Permutation(_pattern_of(vals[:e]))),
                    substitution_decompose(Permutation(_pattern_of(vals[e:]))),
                ),
            )
    blocks = _maximal_interval_spans(vals)
    skeleton = Permutation(_pattern_of([lo for (_, _, lo, _) in blocks]))
    children = tuple(
        substitution_decompose(Permutation(_pattern_of(vals[pl - 1 : ph])))
        for (pl, ph, _, _) in blocks
    )
    if len(skeleton) <= 2 or not _is_simple(skeleton.values):
        raise AssertionError(f"skeleton of indecomposable {p} should be simple, got {skeleton}")
    return DecompositionTree(skeleton, children)


def maximal_intervals(p: Permutation) -> list[IntervalSpan]:
    """The disjoint maximal intervals (singletons included) of an
    indecomposable permutation, in position order.

    Decomposable input is rejected: its maximal proper intervals overlap,
    so the block structure is not well-defined.
    """
    vals = p.values
    if _is_decomposable(vals):
        raise ValueError("maximal intervals not well-defined for decomposable permutations")
    return [IntervalSpan(*span) for span in _maximal_interval_spans(vals)]


def sd_measure(p: Permutation) -> int:
    """Sum of (size - 1) over the maximal intervals; 0 exactly for simples."""
    return sum(span.size - 1 for span in maximal_intervals(p))


def quadrants(p: Permutation, alpha: IntervalSpan) -> QuadrantView:
    """Partition the entries outside ``alpha`` into the four corner regions."""
    _check_interval(p, alpha)
    beta, gamma, delta, epsilon = [], [], [], []
    for i, v in enumerate(p.values, start=1):
        if alpha.pos_lo <= i <= alpha.pos_hi:
            continue
        left = i < alpha.pos_lo
        below = v < alpha.val_lo
        bucket = (beta if below else gamma) if left else (epsilon if below else delta)
        bucket.append((i, v))
    return QuadrantView(alpha, tuple(beta), tuple(gamma), tuple(delta), tuple(epsilon))


def cut_slots(n: int, span: IntervalSpan) -> frozenset[Slot]:
    """The slots of a length-``n`` host whose new entry cuts the interval
    ``span`` without joining it: strictly between its positions with a
    value neither inside nor next to its value range, or strictly between
    its values at a position neither inside nor next to its position range.

    >>> sorted((s.pos_slot, s.val_slot) for s in cut_slots(3, IntervalSpan(1, 2, 1, 2)))
    [(2, 4), (4, 2)]
    """
    inner_pos = range(span.pos_lo + 1, span.pos_hi + 1)
    inner_val = range(span.val_lo + 1, span.val_hi + 1)
    outer_val = [*range(1, span.val_lo), *range(span.val_hi + 2, n + 2)]
    outer_pos = [*range(1, span.pos_lo), *range(span.pos_hi + 2, n + 2)]
    slots = [Slot(ps, vs) for ps in inner_pos for vs in outer_val]
    slots.extend(Slot(ps, vs) for vs in inner_val for ps in outer_pos)
    return frozenset(slots)


def _check_interval(p: Permutation, span: IntervalSpan) -> None:
    n = len(p)
    if not (1 <= span.pos_lo <= span.pos_hi <= n):
        raise ValueError(f"positions {span.pos_lo}..{span.pos_hi} outside 1..{n}")
    if span.size == n:
        raise ValueError("the whole permutation does not count as an interval")
    window = p.values[span.pos_lo - 1 : span.pos_hi]
    if (min(window), max(window)) != (span.val_lo, span.val_hi):
        raise ValueError(f"{span} is not an interval of {p}")
    if span.val_hi - span.val_lo != span.pos_hi - span.pos_lo:
        raise ValueError(f"{span} is not an interval of {p}")


# ---------------------------------------------------------------------------
# Raw-tuple helpers shared with the enumeration-heavy modules.
# ---------------------------------------------------------------------------


def _proper_interval_spans(vals: tuple[int, ...]) -> list[tuple[int, int, int, int]]:
    n = len(vals)
    out = []
    for i in range(n - 1):
        lo = hi = vals[i]
        for j in range(i + 1, n):
            v = vals[j]
            if v < lo:
                lo = v
            elif v > hi:
                hi = v
            if j - i + 1 == n:
                break
            if hi - lo == j - i:
                out.append((i + 1, j + 1, lo, hi))
    return out


def _is_simple(vals: tuple[int, ...]) -> bool:
    n = len(vals)
    if n <= 2:
        return True
    for i in range(n - 1):
        lo = hi = vals[i]
        for j in range(i + 1, n):
            v = vals[j]
            if v < lo:
                lo = v
            elif v > hi:
                hi = v
            if j - i + 1 == n:
                break
            if hi - lo == j - i:
                return False
    return True


def _component_ends(vals: tuple[int, ...], kind: str) -> list[int]:
    """End positions (1-based, inclusive) of the direct- or skew-sum
    components of ``vals``, left to right; the last is always len(vals)."""
    if kind == "skew":
        # the skew components are the direct components of the complement
        n = len(vals)
        vals = [n + 1 - v for v in vals]
    elif kind != "direct":
        raise ValueError(f"kind must be 'direct' or 'skew', got {kind!r}")
    ends = []
    top = 0
    for i, v in enumerate(vals, start=1):
        if v > top:
            top = v
        if top == i:
            ends.append(i)
    return ends


def _is_decomposable(vals: tuple[int, ...]) -> bool:
    n = len(vals)
    return _component_ends(vals, "direct")[0] < n or _component_ends(vals, "skew")[0] < n


def _components(vals: tuple[int, ...], kind: str) -> list[tuple[int, ...]]:
    ends = _component_ends(vals, kind)
    return [_pattern_of(vals[start:end]) for start, end in zip([0, *ends], ends)]


def _maximal_interval_spans(vals: tuple[int, ...]) -> list[tuple[int, int, int, int]]:
    """Blocks of the substitution decomposition for indecomposable input:
    maximal proper intervals plus singletons, disjoint, in position order."""
    spans = _proper_interval_spans(vals)
    maximal = [
        s
        for s in spans
        if not any(t is not s and t[0] <= s[0] and s[1] <= t[1] for t in spans)
    ]
    maximal.sort()
    blocks = []
    pos = 1
    for pl, ph, vl, vh in maximal:
        if pl < pos:
            raise AssertionError(f"maximal intervals of {vals} overlap; input decomposable?")
        while pos < pl:
            blocks.append((pos, pos, vals[pos - 1], vals[pos - 1]))
            pos += 1
        blocks.append((pl, ph, vl, vh))
        pos = ph + 1
    while pos <= len(vals):
        blocks.append((pos, pos, vals[pos - 1], vals[pos - 1]))
        pos += 1
    return blocks
