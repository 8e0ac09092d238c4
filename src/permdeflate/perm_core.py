"""Core permutation values and the operations everything else builds on.

A permutation of length n is a rearrangement of the values 1..n written in
one-line notation.  ``Permutation`` is an immutable validated wrapper around
a tuple of values; every operation in this package is a pure function, so
values can be shared freely between threads or worker processes.

Hot paths (class enumeration, membership filtering, slot grids) work on raw
value tuples via the underscore helpers at the bottom of this module; the
public functions wrap them.  Containment has three engines.  Patterns of
length k <= 6 run a nested-loop kernel compiled once per (pattern, pin);
k >= 7 runs ``_contains_mrv``, an iterative forward-checking search that
keeps, per pattern index, the host positions still open to it as one int
bit mask and branches on the index with the fewest (most constrained
first, MRV); ``contains()``, which must report positions, runs a
left-to-right DFS for the lexicographically least occurrence.  Two entry
points pick between the first two by k.  ``_search_kernel`` tests a built
host: membership, and ``class_engine._insertion_creates`` for the shading
grid and the BFS over extensions.  ``_slot_kernel`` asks whether a new
entry at a slot completes the pattern, with the entry virtual so that no
child is built (pinned MRV on the child for k >= 7): the interval breaks
and the certificate walk ask it.  ``_top_kernel`` serves the generating
tree, where a new maximum goes into a member at a slot that the member
inherits open from its parent.  There a new occurrence must use both the
new maximum and the member's own, as the pattern's values k and k - 1, so
a second-pin nest from the same emitter places both and loops over the
other k - 2 indices only, each in the position zone the two pins fix
(k <= 8, so at most six loops; k >= 9 asks ``_slot_kernel``).  Nothing
recurses, so pattern length is bounded only by ``MAX_LENGTH``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Iterator, Optional, Sequence

#: Largest supported permutation length.  Everything this package is used
#: for lives far below this bound (the longest bundled witness has length
#: 35); the cap just keeps accidental huge inputs from hanging the O(n^2)
#: interval scans.
MAX_LENGTH = 4096


class ParseError(ValueError):
    """Text could not be read as a permutation."""


def _validate_values(values: tuple[int, ...]) -> None:
    n = len(values)
    if n == 0:
        raise ValueError("a permutation has at least one entry")
    if n > MAX_LENGTH:
        raise ValueError(f"permutation length {n} exceeds the supported maximum {MAX_LENGTH}")
    seen = [False] * (n + 1)
    for v in values:
        if not 1 <= v <= n:
            raise ValueError(f"value {v} outside 1..{n}")
        if seen[v]:
            raise ValueError(f"repeated value {v}")
        seen[v] = True


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} in one-line notation.

    >>> Permutation((2, 4, 1, 3))
    Permutation(2 4 1 3)
    >>> len(Permutation((1,)))
    1
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        _validate_values(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.values)

    def __repr__(self) -> str:
        return f"Permutation({self})"


@dataclass(frozen=True)
class Occurrence:
    """Positions (1-based, strictly increasing) of a pattern inside a host."""

    positions: tuple[int, ...]


@dataclass(frozen=True, order=True)
class Slot:
    """Coordinates of a one-point insertion.

    ``pos_slot`` in 1..n+1 puts the new entry immediately before that
    position (n+1 appends); ``val_slot`` in 1..n+1 gives the new entry that
    value after shifting every existing value >= val_slot up by one.
    """

    pos_slot: int
    val_slot: int


@dataclass(frozen=True)
class Bond:
    """Two adjacent entries that are also consecutive in value.

    ``left_pos`` is the 1-based position of the left entry, ``low_value``
    the smaller of the two values; ``kind`` is "increasing" when the pair
    ascends and "decreasing" when it descends.
    """

    left_pos: int
    kind: str
    low_value: int


class Symmetry(Enum):
    """The eight diagram symmetries (isometries of the square).

    ``r`` rotates the diagram 90 degrees clockwise; ``reverse`` flips
    left-right, ``complement`` flips top-bottom, ``inverse`` reflects over
    the main diagonal and ``antidiagonal`` over the other diagonal.
    """

    IDENTITY = "identity"
    R = "r"
    R2 = "r2"
    R3 = "r3"
    REVERSE = "reverse"
    COMPLEMENT = "complement"
    INVERSE = "inverse"
    ANTIDIAGONAL = "antidiagonal"


#: Canonical iteration order (the enum's definition order); deterministic
#: outputs rely on it.
SYMMETRY_ORDER: tuple[Symmetry, ...] = tuple(Symmetry)

_SYMMETRY_ALIASES = {
    "id": Symmetry.IDENTITY,
    "rot90": Symmetry.R,
    "r^2": Symmetry.R2,
    "rot180": Symmetry.R2,
    "rev-comp": Symmetry.R2,
    "r^3": Symmetry.R3,
    "rot270": Symmetry.R3,
    "rev-inv": Symmetry.R3,
    "reverse-inverse": Symmetry.R3,
    "comp-inv": Symmetry.R,
    "anti": Symmetry.ANTIDIAGONAL,
    "rev-comp-inv": Symmetry.ANTIDIAGONAL,
}

_SYMMETRY_INVERSE = {
    Symmetry.IDENTITY: Symmetry.IDENTITY,
    Symmetry.R: Symmetry.R3,
    Symmetry.R2: Symmetry.R2,
    Symmetry.R3: Symmetry.R,
    Symmetry.REVERSE: Symmetry.REVERSE,
    Symmetry.COMPLEMENT: Symmetry.COMPLEMENT,
    Symmetry.INVERSE: Symmetry.INVERSE,
    Symmetry.ANTIDIAGONAL: Symmetry.ANTIDIAGONAL,
}


def symmetry_from_name(name: str) -> Symmetry:
    """Resolve a symmetry name or alias, case-insensitively."""
    key = name.strip().lower()
    for sym in Symmetry:
        if key == sym.value:
            return sym
    if key in _SYMMETRY_ALIASES:
        return _SYMMETRY_ALIASES[key]
    raise ValueError(f"unknown symmetry {name!r}")


def parse_permutation(text: str) -> Permutation:
    """Parse whitespace-separated values, or a compact digit string for n <= 9.

    Every token is a run of ASCII digits: no sign, underscore or other
    script's digits.

    >>> parse_permutation("2 5 1 7 3 4 8 6").values
    (2, 5, 1, 7, 3, 4, 8, 6)
    >>> parse_permutation("2413").values
    (2, 4, 1, 3)
    """
    tokens = text.split()
    if not tokens:
        raise ParseError("empty input")
    for tok in tokens:
        if not (tok.isascii() and tok.isdigit()):
            raise ParseError(f"bad token {tok!r}")
    if len(tokens) == 1 and len(tokens[0]) > 1:
        # compact form: one digit per value, so only unambiguous for n <= 9
        if "0" in tokens[0]:
            raise ParseError(f"bad digit '0' in compact permutation {tokens[0]!r}")
        values = [int(ch) for ch in tokens[0]]
    else:
        values = [int(tok) for tok in tokens]
    try:
        return Permutation(tuple(values))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_permutation(p: Permutation) -> str:
    """Canonical text form: whitespace-separated decimal values."""
    return str(p)


def contains(pattern: Permutation, host: Permutation) -> Optional[Occurrence]:
    """Find the position-lexicographically least occurrence of ``pattern``.

    Returns None when the host avoids the pattern.

    >>> contains(parse_permutation("312"), parse_permutation("2531647"))
    Occurrence(positions=(2, 3, 6))
    """
    occ = _find_occurrence(pattern.values, host.values)
    if occ is None:
        return None
    return Occurrence(tuple(i + 1 for i in occ))


def apply_symmetry(p: Permutation, sym: Symmetry) -> Permutation:
    """Apply one of the eight diagram symmetries."""
    return Permutation(_SYMMETRY_FUNCS[sym](p.values))


def insert(p: Permutation, slot: Slot) -> Permutation:
    """One-point extension of ``p`` at the given slot."""
    n = len(p)
    if not 1 <= slot.pos_slot <= n + 1:
        raise ValueError(f"pos_slot {slot.pos_slot} outside 1..{n + 1}")
    if not 1 <= slot.val_slot <= n + 1:
        raise ValueError(f"val_slot {slot.val_slot} outside 1..{n + 1}")
    return Permutation(_insert_raw(p.values, slot.pos_slot, slot.val_slot))


def delete(p: Permutation, position: int) -> Permutation:
    """Remove the entry at a 1-based position, renormalising the values."""
    n = len(p)
    if n < 2:
        raise ValueError("cannot delete from a singleton permutation")
    if not 1 <= position <= n:
        raise ValueError(f"position {position} outside 1..{n}")
    return Permutation(_delete_raw(p.values, position - 1))


def bonds(p: Permutation) -> list[Bond]:
    """All bonds of ``p`` in left-to-right order."""
    return [Bond(*bond) for bond in _bond_scan(p.values)]


def inflate(skeleton: Permutation, parts: Sequence[Permutation]) -> Permutation:
    """Replace each entry of ``skeleton`` by a block patterned on ``parts``.

    >>> inflate(parse_permutation("2413"), [parse_permutation(t) for t in ("21", "1", "12", "21")])
    Permutation(4 3 7 1 2 6 5)
    """
    svals = skeleton.values
    if len(parts) != len(svals):
        raise ValueError(f"inflation of length {len(svals)} needs {len(svals)} parts, got {len(parts)}")
    sizes = [len(part) for part in parts]
    base = [0] * len(svals)
    acc = 0
    for i in sorted(range(len(svals)), key=lambda i: svals[i]):
        base[i] = acc
        acc += sizes[i]
    out: list[int] = []
    for i, part in enumerate(parts):
        out.extend(v + base[i] for v in part.values)
    return Permutation(tuple(out))


def direct_sum(a: Permutation, b: Permutation) -> Permutation:
    """The sum 12[a, b]: a in the lower left, b in the upper right."""
    return Permutation(a.values + tuple(v + len(a) for v in b.values))


def skew_sum(a: Permutation, b: Permutation) -> Permutation:
    """The skew sum 21[a, b]: a in the upper left, b in the lower right."""
    return Permutation(tuple(v + len(b) for v in a.values) + b.values)


# ---------------------------------------------------------------------------
# Raw-tuple helpers.  These avoid Permutation wrapping in enumeration loops;
# they assume already-validated inputs.
# ---------------------------------------------------------------------------


def _reverse(vals: tuple[int, ...]) -> tuple[int, ...]:
    return vals[::-1]


def _complement(vals: tuple[int, ...]) -> tuple[int, ...]:
    n = len(vals)
    return tuple(n + 1 - v for v in vals)


def _inverse(vals: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(vals)
    for i, v in enumerate(vals):
        out[v - 1] = i + 1
    return tuple(out)


_SYMMETRY_FUNCS = {
    Symmetry.IDENTITY: lambda vals: vals,
    Symmetry.R: lambda vals: _complement(_inverse(vals)),
    Symmetry.R2: lambda vals: _reverse(_complement(vals)),
    Symmetry.R3: lambda vals: _reverse(_inverse(vals)),
    Symmetry.REVERSE: _reverse,
    Symmetry.COMPLEMENT: _complement,
    Symmetry.INVERSE: _inverse,
    Symmetry.ANTIDIAGONAL: lambda vals: _reverse(_complement(_inverse(vals))),
}


def _insert_raw(vals: tuple[int, ...], pos_slot: int, val_slot: int) -> tuple[int, ...]:
    out = [v + 1 if v >= val_slot else v for v in vals]
    out.insert(pos_slot - 1, val_slot)
    return tuple(out)


def _delete_raw(vals: tuple[int, ...], index: int) -> tuple[int, ...]:
    removed = vals[index]
    return tuple(v - 1 if v > removed else v for i, v in enumerate(vals) if i != index)


def _bond_scan(vals: Sequence[int]) -> Iterator[tuple[int, str, int]]:
    """(left_pos, kind, low_value) of each bond, left to right."""
    for i in range(len(vals) - 1):
        a, b = vals[i], vals[i + 1]
        if b == a + 1:
            yield i + 1, "increasing", a
        elif a == b + 1:
            yield i + 1, "decreasing", b


def _pattern_of(values: Sequence[int]) -> tuple[int, ...]:
    """The 1..k pattern of a sequence of distinct integers."""
    rank = {v: i + 1 for i, v in enumerate(sorted(values))}
    return tuple(rank[v] for v in values)


def _neighbor_refs(pat: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For each pattern index, the earlier index with the nearest value
    below (resp. above) it, or -1.  These drive the value windows in the
    containment searches."""
    k = len(pat)
    lo_ref = [-1] * k
    hi_ref = [-1] * k
    for j in range(k):
        for m in range(j):
            if pat[m] < pat[j]:
                if lo_ref[j] < 0 or pat[m] > pat[lo_ref[j]]:
                    lo_ref[j] = m
            else:
                if hi_ref[j] < 0 or pat[m] < pat[hi_ref[j]]:
                    hi_ref[j] = m
    return tuple(lo_ref), tuple(hi_ref)


def _find_occurrence(pat: tuple[int, ...], host: tuple[int, ...]) -> Optional[list[int]]:
    """Position-lexicographically least occurrence (0-based), or None.

    Depth-first search choosing host positions left to right; the first
    complete assignment found is automatically the lexicographic minimum.
    Only ``contains()`` needs positions; existence tests use
    ``_search_kernel``.
    """
    k, n = len(pat), len(host)
    if k > n:
        return None
    lo_ref, hi_ref = _neighbor_refs(pat)
    # index j searches positions below tail + j, which leaves room for the
    # later indices
    tail = n - k + 1
    chosen = [0] * k
    j = 0
    pos = 0
    while True:
        lo = host[chosen[lo_ref[j]]] if lo_ref[j] >= 0 else 0
        hi = host[chosen[hi_ref[j]]] if hi_ref[j] >= 0 else n + 1
        limit = tail + j
        while pos < limit and not lo < host[pos] < hi:
            pos += 1
        if pos < limit:
            chosen[j] = pos
            if j == k - 1:
                return chosen
            j += 1
            pos += 1
        else:
            j -= 1
            if j < 0:
                return None
            pos = chosen[j] + 1


def _emit_kernel(
    pat: tuple[int, ...], pins: Sequence[int], slot: bool = False, second: int = -1
) -> Callable[..., bool]:
    """The one kernel emitter: compile nested ``for`` loops that look for
    ``pat`` in ``host``, one nest per pin in ``pins`` (-1 for none) behind
    a room check.  A nest places its pins first, then the indices left of
    the leftmost pin nearest first, then the rest left to right; loop
    ranges keep each index between its placed neighbours with room for
    the indices still unplaced, and each value is compared only with the
    nearest placed values below and above.  With ``slot`` the test is
    ``test(host, ps, vs)`` and the pinned entry is a virtual new entry of
    value ``vs`` before position ``q = ps - 1``: indices right of it start
    at ``q``, and ``v`` lies above it iff ``vs <= v``.  ``second >= 0``
    (with ``slot``) is the second-pin mode, ``test(host, ps, s)``: index
    ``second`` sits at host position ``s`` too, and the caller promises
    that the two pins hold the occurrence's two largest values, so no
    value is compared with theirs and only the other k - 2 indices loop,
    each in the position zone the two pins fix.  The text holds only
    identifiers and integers, never a host value."""
    k = len(pat)
    args = "host, ps, s" if second >= 0 else "host, ps, vs" if slot else "host, q"
    lines = [f"def test({args}):", "    q = ps - 1"] if slot else [f"def test({args}):"]
    lines.append("    n = len(host)")
    for pin_j in pins:
        # pinned index -> (host position, 1 if it takes that position, 0 if virtual)
        fixed = {} if pin_j < 0 else {pin_j: ("q", 0 if slot else 1)}
        if second >= 0:
            fixed[second] = ("s", 1)
        first = min(fixed, default=0)
        order = [*fixed, *range(first - 1, -1, -1), *(j for j in range(first, k) if j not in fixed)]
        indent = "    "
        if fixed:
            # the host positions left of the first pin, between two pins and
            # right of the last must hold the pattern indices there
            marks = sorted(fixed)
            last = marks[-1]
            room = [f"{fixed[first][0]} >= {first}"]
            for a, b in zip(marks, marks[1:]):
                room.append(f"{fixed[b][0]} - {fixed[a][0]} >= {b - a - 1 + fixed[a][1]}")
            room.append(f"n - {fixed[last][0]} >= {k - 1 - last + fixed[last][1]}")
            if slot and second < 0:
                # pat[pin_j]-1 values below vs, k-pat[pin_j] above
                room.append(f"vs >= {pat[pin_j]} and n - vs >= {k - 1 - pat[pin_j]}")
            lines.append(f"    if {' and '.join(room)}:")
            indent += "    "
        # the pattern read in placement order: its neighbour refs are, per
        # step, the earlier steps holding the nearest values below and above
        lo_ref, hi_ref = _neighbor_refs(tuple(pat[j] for j in order))
        pos = {j: fixed[j][0] if j in fixed else f"p{j}" for j in order}
        value = {j: f"v{j}" for j in order}
        for j, (at, takes) in fixed.items():
            if second >= 0:
                value[j] = ""  # one of the two largest values: never compared
            elif not takes:
                value[j] = "vs"
            else:
                lines.append(f"{indent}v{j} = host[{at}]")
        for step, j in enumerate(order):
            if j in fixed:
                continue
            if j < first:
                bounds = f"{j}, {pos[j + 1]}"
            else:
                virtual = j - 1 in fixed and not fixed[j - 1][1]
                start = "0" if j == 0 else pos[j - 1] if virtual else f"{pos[j - 1]} + 1"
                stop = min((f for f in fixed if f > j), default=k)
                limit = pos[stop] if stop < k else "n"
                bounds = f"{start}, {limit} - {stop - 1 - j}" if stop - 1 > j else f"{start}, {limit}"
            lines.append(f"{indent}for p{j} in range({bounds}):")
            indent += "    "
            lines.append(f"{indent}v{j} = host[p{j}]")
            below = value[order[lo_ref[step]]] if lo_ref[step] >= 0 else ""
            above = value[order[hi_ref[step]]] if hi_ref[step] >= 0 else ""
            below = "" if not below else "vs <= " if below == "vs" else f"{below} < "
            above = f" < {above}" if above else ""
            if below or above:
                lines.append(f"{indent}if {below}v{j}{above}:")
                indent += "    "
        lines.append(f"{indent}return True")
    lines.append("    return False")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["test"]


@lru_cache(maxsize=4096)
def _search_kernel(
    pat: tuple[int, ...], pin_j: int = -1
) -> Callable[[tuple[int, ...], int], bool]:
    """The existence test for ``pat``, built once per (pattern, pin) and
    cached: ``test(host, pin_pos)`` is True iff ``host`` contains ``pat``,
    with pattern index ``pin_j`` at host position ``pin_pos`` when
    ``pin_j >= 0`` (``pin_pos`` is ignored otherwise).  The engine of
    ``_contains_any`` and ``_contains_pinned``, for tests on a built host:
    for k <= 6 one loop nest from ``_emit_kernel``; for k >= 7, where any
    fixed loop order degenerates on long rigid patterns, ``_contains_mrv``,
    looked up at call time so that a wrapper on the module attribute sees
    every call.  ``_slot_kernel`` splits slot tests at the same k, and
    ``class_engine._insertion_creates`` calls ``_contains_pinned`` below it.
    """
    if len(pat) >= 7:
        return lambda host, pin_pos: _contains_mrv(pat, host, pin_j, pin_pos)
    return _emit_kernel(pat, [pin_j])


@lru_cache(maxsize=4096)
def _slot_kernel(pat: tuple[int, ...]) -> Callable[[tuple[int, ...], int, int], bool]:
    """The slot test for ``pat``, built once and cached: ``blocked(host, ps,
    vs)`` is True iff a new entry at slot (ps, vs) of ``host`` completes an
    occurrence of ``pat`` through it.  Each pattern index with room is tried
    in turn: for k <= 6 by a pinned nest from ``_emit_kernel``, with no
    child built; for k >= 7 by ``_contains_mrv`` on the child."""
    k = len(pat)
    if k <= 6:
        return _emit_kernel(pat, range(k), slot=True)
    def blocked(host: tuple[int, ...], ps: int, vs: int) -> bool:
        n, q, child = len(host), ps - 1, _insert_raw(host, ps, vs)
        return any(
            _contains_mrv(pat, child, t, q)
            for t in range(max(0, k - 1 - n + q), min(k - 1, q) + 1)
            if pat[t] <= vs and k - 1 - pat[t] <= n - vs
        )
    return blocked


@lru_cache(maxsize=4096)
def _top_kernel(pat: tuple[int, ...]) -> Callable[[tuple[int, ...], int, int], bool]:
    """The second-pin slot test for ``pat``, built once and cached:
    ``blocked(host, ps, s)`` is True iff a new maximum at slot ps of
    ``host``, whose own maximum sits at position s, completes ``pat``.
    The caller promises that ``host`` avoids ``pat`` and that the slot is
    inherited open: ``host`` minus its maximum, with a new maximum at the
    matching slot, avoids ``pat`` too.  Then every new occurrence uses
    both top entries, as ``pat``'s values k and k - 1, and for 2 <= k <= 8
    the test is one ``_emit_kernel`` nest that pins both and loops over
    the other k - 2 indices, no deeper than the one-pin kernels.  For
    k >= 9 it is the full ``_slot_kernel`` at value n + 1, exact on any
    slot; k = 1 takes that route too, though no host can keep the promise.
    """
    k = len(pat)
    if 2 <= k <= 8:
        return _emit_kernel(pat, [pat.index(k)], slot=True, second=pat.index(k - 1))
    blocked = _slot_kernel(pat)
    return lambda host, ps, s: blocked(host, ps, len(host) + 1)


def _contains_pinned(
    pat: tuple[int, ...], host: tuple[int, ...], pin_j: int, pin_pos: int
) -> bool:
    """Does ``host`` contain ``pat`` with pattern index ``pin_j`` at host
    position ``pin_pos``?  Used incrementally: when a host is one insertion
    away from a known avoider, any new occurrence must involve the inserted
    entry.  It calls the pinned kernel; it is a name of its own, apart from
    ``_contains_any``, so that pinned searches can be counted apart."""
    return _search_kernel(pat, pin_j)(host, pin_pos)


def _contains_any(
    pat: tuple[int, ...], host: tuple[int, ...], pin_j: int = -1, pin_pos: int = -1
) -> bool:
    """Existence-only containment test, pinned as in ``_contains_pinned``
    when ``pin_j >= 0``: the kernel of ``_search_kernel`` for this pattern
    and pin, after a length check."""
    return len(pat) <= len(host) and _search_kernel(pat, pin_j)(host, pin_pos)


def _contains_mrv(
    pat: tuple[int, ...], host: tuple[int, ...], pin_j: int = -1, pin_pos: int = -1
) -> bool:
    """Containment by an iterative forward-checking search on bit masks.

    Each pattern index g keeps the host positions it may still take as
    one int bit mask (bit r is position r), starting from ``range(g, n -
    k + 1 + g)``.  Assigning index f to position q drops from every
    unassigned g the positions r that leave too little room between the
    two indices, in position (``r >= q + (g - f)`` when g > f, ``r <= q -
    (f - g)`` when g < f) or in value (``host[r] >= host[q] + d`` when
    ``d = pat[g] - pat[f]`` is positive, ``host[r] <= host[q] + d`` when
    it is negative).  Each filter is two ANDs: the position window is one
    shift of q's bit, and the value bound is a mask from ``ge`` or
    ``le``, built once per call (``ge[v]`` holds the positions of the
    values >= v, ``le[v]`` those of the values <= v).  The search
    branches on the index with the fewest live positions, trying them
    left to right (lowest bit first), and backtracks as soon as a mask
    empties: Haralick and Elliott's forward checking with the fail-first
    rule, which keeps long rigid patterns cheap.  With ``pin_j >= 0``
    index ``pin_j`` may take only host position ``pin_pos``, so only
    occurrences through that entry count; a ``pin_pos`` outside the host
    leaves it nothing.

    Nothing recurses.  A filter that narrows a mask pushes the old mask
    onto a trail, and undoing an assignment assigns it back, so the trail
    holds at most one mask per (frame, index): O(k^2 * n) bits, besides
    the O(n^2) bits of ``ge`` and ``le``.
    """
    k, n = len(pat), len(host)
    if k > n:
        return False
    spots = [((1 << (n - k + 1)) - 1) << g for g in range(k)]
    if pin_j >= 0:
        spots[pin_j] &= 1 << pin_pos if 0 <= pin_pos < n else 0
    # bits[v] is the bit of value v's position, so the running sums le[v]
    # hold the positions of the values <= v; both tables end in k empty
    # masks, so a bound past n (or below 0, by negative indexing) keeps no
    # position
    bits = [0] * (n + 1)
    for r, v in enumerate(host):
        bits[v] = 1 << r
    le = [*accumulate(bits), *[0] * k]
    full = le[n]
    ge = [full, *[full ^ m for m in le[:n]], *[0] * k]
    trail: list[tuple[int, int]] = []  # (index, its mask before a filter narrowed it)
    frames: list[tuple[int, int, int]] = []  # (index, positions left to try, trail length)
    free = set(range(k))
    while free:
        f = min(free, key=lambda g: spots[g].bit_count())
        free.remove(f)
        frames.append((f, spots[f], len(trail)))
        # try the newest frame's next position; a frame with none left
        # frees its index and hands back to the frame before it
        while frames:
            f, todo, mark = frames[-1]
            while len(trail) > mark:
                g, old = trail.pop()
                spots[g] = old
            if not todo:
                frames.pop()
                free.add(f)
                continue
            low = todo & -todo
            frames[-1] = (f, todo ^ low, mark)
            hq, pf = host[low.bit_length() - 1], pat[f]
            for g in free:
                d = pat[g] - pf
                live = spots[g]
                kept = (
                    live
                    & (-(low << (g - f)) if g > f else (low >> (f - g - 1)) - 1)
                    & (ge[hq + d] if d > 0 else le[hq + d])
                )
                if kept != live:
                    trail.append((g, live))
                    spots[g] = kept
                    if not kept:
                        break
            else:
                break  # no mask emptied: place the next index
        else:
            return False
    return True
