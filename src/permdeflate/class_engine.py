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
(``perm_core._emit_kernel``'s mode "top", one call per member: it takes
the inherited open mask and returns the open one, and each occurrence it
finds blocks its whole range of slots).  A level keeps the members two
lengths down, and a walker rebuilds a parent only with one of its
children, so no level holds the members one length short.  A kernel refuses a member too
short for its pattern, so the slot and top tests hold every basis
element and take no length bound.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Union

from .perm_core import (
    MAX_LENGTH,
    Permutation,
    Slot,
    _SYMMETRY_FUNCS,
    _contains_any,
    _contains_pinned,
    _emit_kernel,
    contains,
    parse_permutation,
)
from .decomposition import _is_simple


class PermClass:
    """An avoidance class described by its basis.

    The basis is normalised on construction: duplicates are dropped, any
    element containing another is dropped (minimality, by ``contains``:
    its forward check refutes a short element in a long rigid one at once,
    and reads a present pair's least occurrence in position order), and
    the rest are sorted by (length, values) so equal classes compare equal.
    """

    __slots__ = ("basis",)

    def __init__(self, basis: tuple[Permutation, ...]) -> None:
        items = sorted(set(basis), key=lambda b: (len(b), b.values))
        if not items:
            raise ValueError("a class needs a non-empty basis")
        minimal = [b for b in items if not any(o is not b and contains(o, b) for o in items)]
        object.__setattr__(self, "basis", tuple(minimal))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return PermClass, (self.basis,)

    def __eq__(self, other: object) -> bool:
        return self.basis == other.basis if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.basis,))

    def __repr__(self) -> str:
        return f"PermClass(basis={self.basis!r})"

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


def _slot_test(c: PermClass) -> Callable[[tuple[int, ...], int, int], Union[tuple[int, int], bool]]:
    """The slot test of ``c``, the one cell test of every bond certificate:
    ``blocked(vals, ps, vs)`` is truthy iff a new entry at slot (ps, vs) of
    the member ``vals`` completes a basis occurrence, from the
    slot kernel of each basis element (the kernel itself for one
    element, else the first truthy result over them).  A truthy result is
    the cell's reach ``(ps_hi, vs_hi)``: one basis element's occurrence
    blocks every cell from (ps, vs) to it, so the first one found speaks
    for the class.  A kernel refuses a member too short for its pattern,
    so a basis element longer than the member plus one costs one call.
    Unlike ``ShadingGrid`` it checks neither membership nor range."""
    tests = [_emit_kernel(b.values, "slot") for b in c.basis]
    if len(tests) == 1:
        return tests[0]
    return lambda vals, ps, vs: next(filter(None, (blocked(vals, ps, vs) for blocked in tests)), False)


def _top_test(c: PermClass) -> Callable[[tuple[int, ...], int, int], int]:
    """The second-pin test of ``c``: ``top(vals, s, cand)`` is the mask of
    the slots in ``cand`` where a new maximum leaves the member ``vals``,
    whose maximum sits at position s, in the class.  It chains the
    top kernel of each basis element, each taking the mask the one
    before left open, until the mask is 0; a kernel whose pattern is too
    long for the member leaves the mask as it is.  Valid only for slots
    ``vals`` inherits open.  ``_shut_bonds`` asks it once per member of
    the witness scan's last level, with the bonds whose top strip cells
    are inherited open, before a bond's strips are walked with
    ``_slot_test``."""
    tests = [_emit_kernel(b.values, "top") for b in c.basis]
    if len(tests) == 1:
        return tests[0]

    def top(vals: tuple[int, ...], s: int, cand: int) -> int:
        for test in tests:
            if not cand:
                break
            cand = test(vals, s, cand)
        return cand

    return top


class _SetBits(dict):
    """mask -> the set bits of the mask, low to high, each found once: one
    walk of the tree meets few distinct masks."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        bits = self[mask] = tuple(b for b in range(mask.bit_length()) if mask >> b & 1)
        return bits


class _Level:
    """One length n's members, as ``_class_levels`` yields them, kept as
    ``grandparents``, the members of length n - 2, their open-slot masks
    ``grandmasks``, and ``masks``, those of the members of length n - 1,
    in order, with the walk's ``bits``; ``len`` is counted in the build.
    Level 1's grandparent is a stand-in, ``()`` with one open slot."""

    __slots__ = ("n", "grandparents", "grandmasks", "masks", "_size", "bits", "__weakref__")

    def __init__(self, n: int, grandparents: list, grandmasks: list, masks: list, size: int, bits):
        self.n, self.grandparents, self.grandmasks = n, grandparents, grandmasks
        self.masks, self._size, self.bits = masks, size, bits

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return (vals for vals, _, _ in _candidates(self))


def _check_length_bound(name: str, bound: int) -> None:
    """Refuse a length bound, named ``name`` in the message, above
    ``MAX_LENGTH``: no member, and no extension, is longer."""
    if bound > MAX_LENGTH:
        raise ValueError(f"{name} {bound} exceeds the supported maximum {MAX_LENGTH}")


def _class_levels(c: PermClass, max_len: int) -> Iterator[_Level]:
    """Members of ``c`` as raw value tuples, one ``_Level`` per length 1..max_len.

    Children are generated by inserting the new maximum at every open slot,
    left to right, of each parent in order.  A member's open slots are an
    int bit mask (bit q: the new maximum before position q), computed when
    the member is expanded, from the slots ``cand`` it inherits open and
    the position s of its own maximum, both read off its parent's mask by
    ``_children``.  Second pin: at a slot in ``cand``, the parent with a
    new maximum at the matching slot is a member, so a new occurrence uses
    both the new maximum and the member's own, and the top kernel tests
    it with two pins and k - 2 free indices.  Each member takes one call
    of ``_top_test``, mask in and mask out; a basis element longer than
    the member plus one leaves its mask alone.

    The root level is the empty parent with mask 1 if (1) avoids the basis,
    else 0.  The tree builds each member once, from its own list of the
    parents, for its mask, and keeps it for the next expansion but the
    last.  Masks are one list allocated at full size, and equal masks share
    one int.  A level holds no reference to the one before, and the tree
    drops a level once it has yielded the next.  It is every walker's one
    check of the bound: ``max_len`` below 1, or above ``MAX_LENGTH`` where
    no member exists, raises ``ValueError``.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    _check_length_bound("max_len", max_len)
    top = _top_test(c)
    root = 1 if _avoids_raw((1,), c) else 0  # the root's open slots
    parents, bits = [()], _SetBits()
    level = _Level(1, parents, [1], [root], root, bits)
    yield level
    for n in range(2, max_len + 1):
        # preallocated: appends raise peak RSS
        members = [()] * len(level) if n < max_len else None
        masks = [0] * len(level)
        shared: dict[int, int] = {}  # one int object per distinct mask, not per member
        size = 0
        for j, (vals, s, cand) in enumerate(_children(zip(parents, level.masks), n - 1, bits)):
            if members:
                members[j] = vals
            om = top(vals, s, cand)
            masks[j] = shared.setdefault(om, om)
            size += om.bit_count()
        # the caller may drop the level before
        level = _Level(n, parents, level.masks, masks, size, bits)
        parents = members
        yield level


def _parents(level: _Level) -> Iterator[tuple[tuple[int, ...], int, int, int]]:
    """(g, t, pm, bonds) for each parent of one ``_class_levels`` level
    with an open slot, in order, not built: it is ``g[:t] + (n - 1,) +
    g[t:]`` (``()`` at n = 1), ``pm`` is its mask and bit b of ``bonds``
    marks its entries b - 1 and b of consecutive values.  They are read
    off g's, found once per grandparent: the parent keeps those below t,
    and those past it one bit up, and its maximum makes a new one with
    n - 2 when the two are adjacent, at bit t or t + 1."""
    n, masks, bits = level.n, iter(level.masks), level.bits
    for g, gm in zip(level.grandparents, level.grandmasks):
        if not gm:
            continue
        bonds = 0
        for b in range(1, len(g)):
            if g[b] - g[b - 1] in (1, -1):
                bonds |= 1 << b
        u = g.index(n - 2) if n > 2 else -2  # -2 is next to no slot
        for t, pm in zip(bits[gm], masks):
            if pm:
                kept = (bonds & ((1 << t) - 1)) | ((bonds >> (t + 1)) << (t + 2))
                yield g, t, pm, kept | (2 << u if t - 1 <= u <= t else 0)


def _children(pairs: Iterator, n: int, bits: _SetBits) -> Iterator[tuple]:
    """(vals, s, cand) for each child ``p[:s] + (n,) + p[s:]`` of each
    parent p and its mask pm in ``pairs``, in order, one per set bit s of
    pm.  ``cand`` holds the slots it inherits open: parent slot q is its
    slot q when q <= s and q + 1 when q > s (slot s splits into both), and
    a blocked slot stays blocked.  One call of ``_top_test`` with ``cand``
    returns the member's open slots."""
    top = (n,)
    for p, pm in pairs:
        for s in bits[pm]:
            yield p[:s] + top + p[s:], s, (pm & ((2 << s) - 1)) | ((pm >> s) << (s + 1))


def _candidates(level: _Level) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """``_children`` of the parents ``_parents`` gives, each built once."""
    up = (level.n - 1,) if level.n > 1 else ()
    pairs = ((g[:t] + up + g[t:], pm) for g, t, pm, _ in _parents(level))
    return _children(pairs, level.n, level.bits)


def _shut_bonds(
    level: _Level, after: Optional[_Level], top: Callable[[tuple[int, ...], int, int], int]
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(vals, shut) for each member of one ``_class_levels`` level with a
    shut bond, in order.  Bit i of ``shut`` marks a bond, entries i - 1
    and i of consecutive values, that a new maximum cannot split (slot i
    is blocked), or the bond of the member's maximum n with n - 1, whose
    top strip cell a certificate exempts.  A member's bonds are read off
    its parent's from ``_parents`` by the rule it applies one length down.
    With ``after``, the next level, a kept bond's slot is read off
    ``after.masks``; without it, ``top``, the class's ``_top_test``, is
    asked once per member with the kept bonds it inherits open.  Only the
    members so reported, or without ``after`` with a bond, are built."""
    n, bits, j = level.n, level.bits, -1
    up, entry = (n - 1,) if n > 1 else (), (n,)
    for g, t, pm, bonds in _parents(level):
        p = None
        for s in bits[pm]:
            j += 1
            kept = (bonds & ((1 << s) - 1)) | ((bonds >> (s + 1)) << (s + 2))
            new = 2 << t if s - 1 <= t <= s and n > 1 else 0
            shut = kept | new if after is None else kept & ~after.masks[j] | new
            if not shut:
                continue
            if p is None:
                p = g[:t] + up + g[t:]
            vals = p[:s] + entry + p[s:]
            ask = after is None and kept & ((pm & ((2 << s) - 1)) | ((pm >> s) << (s + 1)))
            if ask:
                shut = kept & ~top(vals, s, ask) | new
            if shut:
                yield vals, shut


def _simple_members(level: _Level) -> list[tuple[int, ...]]:
    """The simple members of one ``_class_levels`` level, in order, read off
    the bonds of its parents from ``_parents``.  A child is not simple when
    its maximum n lands at an end or next to n - 1, or leaves a bond of
    the parent unsplit, and n splits at most the bond it falls between.
    So a parent with two bonds has no simple child, one with a bond at
    positions (b - 1, b) at most the child at slot b.  Only the survivors
    are built and go to ``_is_simple``, besides every member of the
    levels of length below 5."""
    n = level.n
    if n < 5:
        return [vals for vals in level if _is_simple(vals)]
    out, bits, ends = [], level.bits, 1 | 1 << (n - 1)
    up, top = (n - 1,), (n,)
    for g, t, pm, bonds in _parents(level):
        slots = pm & ~(ends | 3 << t) & (bonds or -1)  # not at an end, next to n - 1, on the bond
        if slots and not bonds & (bonds - 1):  # two bonds: a child splits at most one
            p = g[:t] + up + g[t:]
            for b in bits[slots]:
                vals = p[:b] + top + p[b:]
                if _is_simple(vals):
                    out.append(vals)
    return out


def enumerate_class(c: PermClass, max_len: int) -> Iterator[Permutation]:
    """Yield every member of ``c`` of length 1..max_len, grouped by length,
    each exactly once.  Memory stays bounded by the members of the length
    before and their masks, the last length's by those two lengths before:
    each length's members are built as they are yielded."""
    for level in _class_levels(c, max_len):
        for vals in level:
            yield Permutation(vals)


def enumerate_simples(c: PermClass, max_len: int) -> list[Permutation]:
    """All simple members of ``c`` with length <= max_len, each level's read
    off its parents' bonds by ``_simple_members``."""
    return [
        Permutation(vals) for level in _class_levels(c, max_len) for vals in _simple_members(level)
    ]


def count_profile(c: PermClass, max_len: int) -> list[tuple[int, int, int]]:
    """Per-length (length, member_count, simple_count) rows, the simple
    members counted by ``_simple_members``."""
    return [
        (n, len(level), len(_simple_members(level)))
        for n, level in enumerate(_class_levels(c, max_len), start=1)
    ]


def _class_symmetries(c: PermClass) -> tuple[Callable[[tuple[int, ...]], tuple[int, ...]], ...]:
    """The functions of ``_SYMMETRY_FUNCS`` that map the basis of ``c`` onto
    itself, identity first.  Each maps members to members of the same
    length, simple members to simple ones and containments to containments,
    so it carries any member's cover verdict to its image."""
    basis = {b.values for b in c.basis}
    return tuple(f for f in _SYMMETRY_FUNCS.values() if {f(b) for b in basis} == basis)


def _insertion_creates(c: PermClass, vals: tuple[int, ...], ps: int, vs: int) -> bool:
    """Does a new entry at slot (ps, vs) of the member ``vals`` complete a
    basis occurrence?  ``_slot_test``'s question, asked per call through
    ``_contains_pinned`` so that ``perfbench`` can count it: its callers
    are ``ShadingGrid.is_blocked`` and ``_bfs_extension``.  A basis
    element longer than ``len(vals) + 1`` cannot be completed, and its
    kernel says so: the entry has no room to play any of its indices."""
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
