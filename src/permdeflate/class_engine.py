"""Avoidance classes: membership, generating-tree enumeration, counting,
and slot shading grids.

A class is given by a finite basis of forbidden patterns; membership is
avoidance of every basis element.  Enumeration walks the generating tree
that inserts a new maximum into each member — sound because deleting the
maximum of a member yields a member, and duplicate-free because every
child has a unique parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

from .perm_core import (
    Permutation,
    Slot,
    _contains_any,
    _contains_pinned,
    _insert_raw,
    _slot_kernel,
    parse_permutation,
)
from .decomposition import _is_simple


@dataclass(frozen=True)
class PermClass:
    """An avoidance class described by its basis.

    The basis is normalised on construction: duplicates are dropped, any
    element containing another basis element is dropped (minimality), and
    the rest are sorted by (length, values) so equal classes compare equal.
    """

    basis: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        items = sorted(set(self.basis), key=lambda b: (len(b), b.values))
        if not items:
            raise ValueError("a class needs a non-empty basis")
        minimal = [
            b
            for b in items
            if not any(o is not b and _contains_any(o.values, b.values) for o in items)
        ]
        object.__setattr__(self, "basis", tuple(minimal))

    @classmethod
    def of(cls, *items: Union[str, Permutation]) -> "PermClass":
        """Build a class from permutations or their text forms."""
        return cls(tuple(p if isinstance(p, Permutation) else parse_permutation(p) for p in items))

    def __str__(self) -> str:
        return "Av(" + ", ".join(str(b) for b in self.basis) + ")"


def avoids(p: Permutation, c: PermClass) -> bool:
    """True iff no basis element of ``c`` occurs in ``p``."""
    return _avoids_raw(p.values, c)


def _avoids_raw(vals: tuple[int, ...], c: PermClass) -> bool:
    return not any(_contains_any(b.values, vals) for b in c.basis)


def _slot_test(c: PermClass) -> Callable[[tuple[int, ...], int, int], bool]:
    """The slot test of ``c``: ``blocked(vals, ps, vs)`` is True iff a new
    entry at slot (ps, vs) of the member ``vals`` completes a basis
    occurrence.  It is the basis element's ``_slot_kernel`` for a principal
    class, else an ``any`` over the basis's kernels."""
    kernels = [_slot_kernel(b.values) for b in c.basis]
    if len(kernels) == 1:
        return kernels[0]
    return lambda vals, ps, vs: any(blocked(vals, ps, vs) for blocked in kernels)


def _class_levels(c: PermClass, max_len: int) -> Iterator[list[tuple[int, ...]]]:
    """Members of ``c`` as raw value tuples, one list per length 1..max_len.

    Children are generated by inserting the new maximum at every position,
    left to right, of each parent in order.  A child is built only when the
    slot test admits slot (q+1, n) of its parent: the parent is a member,
    so only occurrences through the new entry can appear.
    """
    blocked = _slot_test(c)
    level = [()]
    for n in range(1, max_len + 1):
        level = [
            parent[:q] + (n,) + parent[q:]
            for parent in level
            for q in range(n)
            if not blocked(parent, q + 1, n)
        ]
        yield level


def enumerate_class(c: PermClass, max_len: int) -> Iterator[Permutation]:
    """Yield every member of ``c`` of length 1..max_len, grouped by length,
    each exactly once.  Memory stays bounded by one length level."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    for level in _class_levels(c, max_len):
        for vals in level:
            yield Permutation(vals)


def enumerate_simples(c: PermClass, max_len: int) -> list[Permutation]:
    """All simple members of ``c`` with length <= max_len."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    out = []
    for level in _class_levels(c, max_len):
        out.extend(Permutation(vals) for vals in level if _is_simple(vals))
    return out


def count_profile(c: PermClass, max_len: int) -> list[tuple[int, int, int]]:
    """Per-length (length, member_count, simple_count) rows."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    rows = []
    for n, level in enumerate(_class_levels(c, max_len), start=1):
        simple = sum(1 for vals in level if _is_simple(vals))
        rows.append((n, len(level), simple))
    return rows


def _insertion_creates(c: PermClass, child: tuple[int, ...], q: int) -> bool:
    """Does the entry at 0-based position ``q`` of ``child`` complete a
    basis occurrence?  Valid when ``child`` minus that entry avoids ``c``,
    since then every occurrence uses that entry.

    Only pattern indices the entry can play are searched: with ``v`` its
    value and ``n`` the length, index ``t`` of a basis element ``bv`` of
    length ``k`` needs ``t <= q``, ``k - t <= n - q``, ``bv[t] <= v`` and
    ``k - bv[t] <= n - v``.  Any other choice leaves too few entries on
    one side of the entry to hold the rest of the occurrence, so skipping
    it changes no verdict.  Its two callers hold a built child anyway, and
    ``perfbench`` counts grid cells, BFS children and pinned calls only
    here, so they stay off ``_slot_test``: ``ShadingGrid.is_blocked`` (the
    slot kernels' oracle) and ``_bfs_extension`` (which keeps the child).
    """
    n = len(child)
    v = child[q]
    for b in c.basis:
        bv = b.values
        k = len(bv)
        if k > n:
            continue
        search = _contains_pinned if k <= 6 else _contains_any
        for t in range(max(0, k - n + q), min(k - 1, q) + 1):
            # index t at (q, v) needs t entries left, k-1-t right, bv[t]-1 below, k-bv[t] above
            if bv[t] > v or k - bv[t] > n - v:
                continue
            if search(bv, child, t, q):
                return True
    return False


class ShadingGrid:
    """The (n+1) x (n+1) slot grid of a class member, marking the slots
    whose insertion would create a forbidden pattern.

    ``is_blocked`` computes one cell on each call; ``blocked`` computes the
    whole grid once and keeps it.
    """

    def __init__(self, host: Permutation, pclass: PermClass):
        self.host = host
        self.pclass = pclass
        self._blocked: Optional[frozenset[Slot]] = None

    def is_blocked(self, slot: Slot) -> bool:
        """Does inserting at ``slot`` create a basis pattern?  Builds the
        child, unlike ``_slot_test``: this is the slot kernels' oracle,
        and the traced grid cells go through ``_insertion_creates``."""
        n = len(self.host)
        if not (1 <= slot.pos_slot <= n + 1 and 1 <= slot.val_slot <= n + 1):
            raise ValueError(f"slot {slot} outside the {n + 1}x{n + 1} grid")
        ps = slot.pos_slot
        return _insertion_creates(self.pclass, _insert_raw(self.host.values, ps, slot.val_slot), ps - 1)

    @property
    def blocked(self) -> frozenset[Slot]:
        if self._blocked is None:
            n = len(self.host)
            self._blocked = frozenset(
                slot
                for ps in range(1, n + 2)
                for vs in range(1, n + 2)
                if self.is_blocked(slot := Slot(ps, vs))
            )
        return self._blocked

    def __repr__(self) -> str:
        return f"ShadingGrid(host={self.host}, class={self.pclass})"


def shading_grid(p: Permutation, c: PermClass) -> ShadingGrid:
    """The shading grid of a member ``p`` of ``c``; non-members are rejected
    because the grid's meaning presumes membership."""
    if not avoids(p, c):
        raise ValueError(f"{p} is not a member of {c}")
    return ShadingGrid(p, c)
