"""Avoidance classes: membership, generating-tree enumeration, counting,
and slot shading grids.

A class is given by a finite basis of forbidden patterns; membership is
avoidance of every basis element.  Enumeration walks the generating tree
that inserts a new maximum into each member — sound because deleting the
maximum of a member yields a member, and duplicate-free because every
child has a unique parent.  Each member's open slots, where a new maximum
keeps it in the class, follow from its parent's by two facts.
Inheritance: a slot blocked in the parent stays blocked in the child.
Second pin: at an inherited open slot, any basis occurrence the new
maximum completes also uses the member's own maximum, so the two play the
basis element's values k and k - 1 and only k - 2 indices are free
(``perm_core._top_kernel``; k >= 9 runs the full slot kernel).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

from .perm_core import (
    MAX_LENGTH,
    Permutation,
    Slot,
    _contains_any,
    _contains_pinned,
    _slot_kernel,
    _top_kernel,
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


def _any_of(
    tests: list[Callable[[tuple[int, ...], int, int], bool]]
) -> Callable[[tuple[int, ...], int, int], bool]:
    """One slot test from the basis elements' own: the element's test for a
    principal class, else an ``any`` over them."""
    if len(tests) == 1:
        return tests[0]
    return lambda vals, ps, x: any(blocked(vals, ps, x) for blocked in tests)


def _slot_test(c: PermClass) -> Callable[[tuple[int, ...], int, int], bool]:
    """The slot test of ``c``: ``blocked(vals, ps, vs)`` is True iff a new
    entry at slot (ps, vs) of the member ``vals`` completes a basis
    occurrence, from the basis elements' ``_slot_kernel``."""
    return _any_of([_slot_kernel(b.values) for b in c.basis])


def _top_test(c: PermClass) -> Callable[[tuple[int, ...], int, int], bool]:
    """The second-pin slot test of ``c``: ``blocked(vals, ps, s)`` is True
    iff a new maximum at slot ps of the member ``vals``, whose maximum
    sits at position s, completes a basis occurrence, from the basis
    elements' ``_top_kernel``.  Valid only at an inherited open slot."""
    return _any_of([_top_kernel(b.values) for b in c.basis])


class _Level(list):
    """One length's members, as ``_class_levels`` yields them, and ``masks``:
    the open-slot mask of each member of the level before, in order.  The
    members are one run of children per parent, one per set bit of its mask."""

    masks: list[int]


def _class_levels(c: PermClass, max_len: int) -> Iterator[_Level]:
    """Members of ``c`` as raw value tuples, one ``_Level`` per length 1..max_len.

    Children are generated by inserting the new maximum at every open slot,
    left to right, of each parent in order.  A member's open slots are an
    int bit mask (bit q: the new maximum before position q), computed when
    the member is expanded, from the slots ``cand`` it inherits open and
    the position s of its own maximum, both read off its parent's mask by
    ``_candidates``.  Second pin: at a slot in ``cand``, the parent with a
    new maximum at the matching slot is a member, so a new occurrence uses
    both the new maximum and the member's own, and ``_top_kernel`` tests
    it with two pins and k - 2 free indices (the full ``_slot_kernel`` for
    k >= 9).

    The root's one child, (1), is a member iff it avoids the basis.  Each
    level keeps one mask reference per parent in ``masks``, one list
    allocated at full size, and equal masks share one int object.  The
    tree drops a level once it has yielded the next.  It is every walker's
    one check of the bound: ``max_len`` below 1, or above ``MAX_LENGTH``
    where no member exists, raises ``ValueError``.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if max_len > MAX_LENGTH:
        raise ValueError(f"max_len {max_len} exceeds the supported maximum {MAX_LENGTH}")
    blocked = _top_test(c)
    level = _Level([(1,)] if _avoids_raw((1,), c) else [])
    level.masks = [len(level)]  # the root's open slots
    yield level
    for n in range(2, max_len + 1):
        parents, level = level, _Level()
        level.masks = opened = [0] * len(parents)  # preallocated: appends raise peak RSS
        shared: dict[int, int] = {}  # one int object per distinct mask, not per member
        for j, (vals, s, cand) in enumerate(_candidates(parents)):
            om = 0
            for q in range(n):
                if cand >> q & 1 and not blocked(vals, q + 1, s):
                    om |= 1 << q
                    level.append(vals[:q] + (n,) + vals[q:])
            opened[j] = shared.setdefault(om, om)
        del parents  # the caller may drop it
        yield level


def _candidates(level: _Level) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """(vals, s, cand) for each member of one ``_class_levels`` level, in
    order: s is the position of the maximum of ``vals``, and ``cand`` the
    slots it inherits open from its parent's mask ``pm`` in the level's
    ``masks``, whose set bits are the members' s in turn.  Inheritance:
    parent slot q is slot q of the member when q <= s and slot q + 1 when
    q > s (slot s splits into both), and a blocked slot stays blocked, so
    ``cand = (pm & ((2 << s) - 1)) | ((pm >> s) << (s + 1))``.  A slot
    outside ``cand`` is blocked, and ``_top_test`` decides one inside it."""
    members = iter(level)
    for pm in level.masks:
        for s in range(pm.bit_length()):
            if pm >> s & 1:
                yield next(members), s, (pm & ((2 << s) - 1)) | ((pm >> s) << (s + 1))


def enumerate_class(c: PermClass, max_len: int) -> Iterator[Permutation]:
    """Yield every member of ``c`` of length 1..max_len, grouped by length,
    each exactly once.  Memory stays bounded by one length level plus the
    parent level's masks."""
    for level in _class_levels(c, max_len):
        for vals in level:
            yield Permutation(vals)


def enumerate_simples(c: PermClass, max_len: int) -> list[Permutation]:
    """All simple members of ``c`` with length <= max_len."""
    out = []
    for level in _class_levels(c, max_len):
        out.extend(Permutation(vals) for vals in level if _is_simple(vals))
    return out


def count_profile(c: PermClass, max_len: int) -> list[tuple[int, int, int]]:
    """Per-length (length, member_count, simple_count) rows."""
    rows = []
    for n, level in enumerate(_class_levels(c, max_len), start=1):
        simple = sum(1 for vals in level if _is_simple(vals))
        rows.append((n, len(level), simple))
    return rows


def _insertion_creates(c: PermClass, vals: tuple[int, ...], ps: int, vs: int) -> bool:
    """Does a new entry at slot (ps, vs) of the member ``vals`` complete a
    basis occurrence?  ``_slot_test``'s question, asked per call through
    ``_contains_pinned`` so that ``perfbench`` can count it: its callers
    are ``ShadingGrid.is_blocked`` and ``_bfs_extension``."""
    return any(_contains_pinned(b.values, vals, ps, vs) for b in c.basis)


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
        """Does inserting at ``slot`` create a basis pattern?  Asks the slot
        kernels on the host through ``_insertion_creates``; for basis
        elements of length <= 7 no child is built."""
        n = len(self.host)
        if not (1 <= slot.pos_slot <= n + 1 and 1 <= slot.val_slot <= n + 1):
            raise ValueError(f"slot {slot} outside the {n + 1}x{n + 1} grid")
        return _insertion_creates(self.pclass, self.host.values, slot.pos_slot, slot.val_slot)

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
