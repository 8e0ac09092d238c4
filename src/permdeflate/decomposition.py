"""Intervals, simplicity, sum/skew components, and the substitution
decomposition of a permutation.

An interval (block) is a set of entries occupying contiguous positions and
contiguous values; by convention the whole permutation does not count.  A
permutation with no interval of size >= 2 is simple.  Every permutation is
the inflation of a unique simple skeleton; for skeletons longer than 2 the
blocks are the disjoint maximal intervals, while sum- and skew-decomposable
permutations get a canonical binary tree (first child indecomposable of the
matching kind), a right comb over the components one scan finds.  Every
walk of a tree (building, re-inflating, ``repr``, ``==``, ``hash``, the
CLI's views) is one explicit-stack fold, ``_fold``: no depth recurses.

Proper intervals, simplicity and maximal intervals all read one scan,
``_intervals_from``.  Maximal intervals are asked of indecomposable input
only, where they are disjoint, so each block is the longest interval that
starts where the previous block ended, or a singleton.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import attrgetter
from typing import Iterator, Optional

from .perm_core import Permutation, Slot, _pattern_of, inflate

_ONE = Permutation((1,))
_SUMS = (("direct", Permutation((1, 2))), ("skew", Permutation((2, 1))))
_tree_parts = attrgetter("skeleton", "children")


def _fold(root, split, join):
    """The one walk of a decomposition, bottom-up with an explicit stack:
    ``split(x)`` gives ``(label, parts)``, ``join(label, values)`` the value
    of ``x`` from its parts' values; a node without parts is joined at once."""
    frames = [(None, iter((root,)), [])]  # open nodes: label, parts left, values
    while True:
        label, parts, values = frames[-1]
        for part in parts:
            sub_label, sub_parts = split(part)
            if not sub_parts:
                values.append(join(sub_label, ()))
            else:
                frames.append((sub_label, iter(sub_parts), []))
                break
        else:
            frames.pop()
            if not frames:
                return values[0]
            frames[-1][2].append(join(label, values))


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


@dataclass(frozen=True, eq=False, repr=False)
class DecompositionTree:
    """Substitution-decomposition tree; a node with no children is a leaf
    standing for a single entry.

    Re-inflation, ``repr``, ``==`` and ``hash`` all walk the tree with
    ``_fold``, so a deep tree (a long sum's comb) costs no recursion.
    """

    skeleton: Optional[Permutation]
    children: tuple["DecompositionTree", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def reinflate(self) -> Permutation:
        """Rebuild the permutation this tree decomposes."""
        return _fold(self, _tree_parts, lambda skel, kids: inflate(skel, kids) if kids else _ONE)

    def __repr__(self) -> str:
        def join(skel, kids):
            inner = ", ".join(kids) + ("," if len(kids) == 1 else "")
            return f"DecompositionTree(skeleton={skel!r}, children=({inner}))"

        return _fold(self, _tree_parts, join)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented

        def split(pair):
            a, b = pair
            if a is b:
                return True, ()
            same = a.skeleton == b.skeleton and len(a.children) == len(b.children)
            return same, tuple(zip(a.children, b.children)) if same else ()

        return _fold((self, other), split, lambda same, kids: same and all(kids))

    def __hash__(self) -> int:
        return _fold(self, _tree_parts, lambda skel, kids: hash((skel, tuple(kids))))


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
    vals = p.values
    return [
        IntervalSpan(i + 1, j + 1, lo, hi)
        for i in range(len(vals) - 1)
        for j, lo, hi in _intervals_from(vals, i)
    ]


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

    One ``_fold`` over raw value tuples; a sum (or skew sum) joins as the
    right comb 12[c1, 12[c2, ... c_m]] over the components one scan finds.

    >>> t = substitution_decompose(Permutation((4, 3, 7, 1, 2, 6, 5)))
    >>> str(t.skeleton)
    '2 4 1 3'
    """
    return _fold(p.values, _decompose_step, _decompose_join)


def _decompose_step(vals: tuple[int, ...]):
    if len(vals) == 1:
        return None, ()
    for kind, skel in _SUMS:
        parts = _components(vals, kind)
        if len(parts) > 1:
            return skel, parts
    blocks = _maximal_interval_spans(vals)
    skeleton = Permutation(_pattern_of([lo for (_, _, lo, _) in blocks]))
    if len(skeleton) <= 2 or not _is_simple(skeleton.values):
        raise AssertionError(f"skeleton of indecomposable {vals} should be simple, got {skeleton}")
    return skeleton, [_pattern_of(vals[pl - 1 : ph]) for (pl, ph, _, _) in blocks]


def _decompose_join(label: Optional[Permutation], kids) -> DecompositionTree:
    if label is None or len(label) > 2:
        return DecompositionTree(label, tuple(kids))
    tree = kids[-1]
    for kid in reversed(kids[:-1]):
        tree = DecompositionTree(label, (kid, tree))
    return tree


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
    pairs = _cut_slot_pairs(n, span.pos_lo, span.pos_hi, span.val_lo, span.val_hi)
    return frozenset(Slot(ps, vs) for ps, vs in pairs)


def _cut_slot_pairs(
    n: int, pos_lo: int, pos_hi: int, val_lo: int, val_hi: int
) -> Iterator[tuple[int, int]]:
    """(pos_slot, val_slot) of each of ``cut_slots(n, span)`` in sorted order,
    without building the set: the slots left of, inside and right of the
    span's positions.  The oracle of ``deflate_analysis._strips_locked``."""
    inner = range(val_lo + 1, val_hi + 1)
    yield from product(range(1, pos_lo), inner)
    yield from product(range(pos_lo + 1, pos_hi + 1), [*range(1, val_lo), *range(val_hi + 2, n + 2)])
    yield from product(range(pos_hi + 2, n + 2), inner)


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


def _intervals_from(vals: tuple[int, ...], i: int) -> Iterator[tuple[int, int, int]]:
    """(j, lo, hi) for each proper interval ``vals[i..j]`` (0-based,
    inclusive), by increasing ``j``; its values are ``lo``..``hi``."""
    lo = hi = vals[i]
    # the window starting at 0 stops short of the whole permutation
    for j in range(i + 1, len(vals) if i else len(vals) - 1):
        v = vals[j]
        if v < lo:
            lo = v
        elif v > hi:
            hi = v
        if hi - lo == j - i:
            yield j, lo, hi


def _is_simple(vals: tuple[int, ...]) -> bool:
    n = len(vals)
    if n <= 2:
        return True
    # a bond is a proper interval when n > 2, and most of the extension
    # searches' children have one (594 of 604 calls in verify_corpus());
    # the members ``_simple_members`` sends have none
    prev = vals[0]
    for v in vals:
        if abs(v - prev) == 1:
            return False
        prev = v
    for i in range(n - 1):
        for _ in _intervals_from(vals, i):
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
    """The direct- or skew-sum components of the permutation ``vals``."""
    ends = _component_ends(vals, kind)
    if len(ends) == 1:
        return [vals]
    return [_pattern_of(vals[start:end]) for start, end in zip([0, *ends], ends)]


def _maximal_interval_spans(vals: tuple[int, ...]) -> list[tuple[int, int, int, int]]:
    """Blocks of the substitution decomposition: maximal proper intervals
    plus singletons, disjoint, in position order, as (pos_lo, pos_hi,
    val_lo, val_hi), 1-based.

    Callers pass only indecomposable input, whose maximal intervals are
    disjoint.  So the block holding the first position not yet covered
    starts there, and it contains every interval starting there: the
    longest of those, or the singleton when there is none, is the block.
    """
    blocks = []
    i = 0
    while i < len(vals):
        j = i
        lo = hi = vals[i]
        for j, lo, hi in _intervals_from(vals, i):
            pass  # keep the last, longest one
        blocks.append((i + 1, j + 1, lo, hi))
        i = j + 1
    return blocks
