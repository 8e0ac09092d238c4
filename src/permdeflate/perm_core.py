"""Core permutation values and the operations everything else builds on.

A permutation of length n is a rearrangement of the values 1..n written in
one-line notation.  ``Permutation`` is an immutable validated wrapper around
a tuple of values; every operation in this package is a pure function, so
values can be shared freely between threads or worker processes.

Hot paths (class enumeration, membership filtering, slot grids) work on raw
value tuples via the underscore helpers at the bottom of this module; the
public functions wrap them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator, Optional, Sequence

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


#: Canonical iteration order; deterministic outputs rely on it.
SYMMETRY_ORDER: tuple[Symmetry, ...] = (
    Symmetry.IDENTITY,
    Symmetry.R,
    Symmetry.R2,
    Symmetry.R3,
    Symmetry.REVERSE,
    Symmetry.COMPLEMENT,
    Symmetry.INVERSE,
    Symmetry.ANTIDIAGONAL,
)

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

    >>> parse_permutation("2 5 1 7 3 4 8 6").values
    (2, 5, 1, 7, 3, 4, 8, 6)
    >>> parse_permutation("2413").values
    (2, 4, 1, 3)
    """
    tokens = text.split()
    if not tokens:
        raise ParseError("empty input")
    if len(tokens) == 1 and len(tokens[0]) > 1 and tokens[0].isdigit():
        # compact form: one digit per value, so only unambiguous for n <= 9
        values = []
        for ch in tokens[0]:
            if ch == "0":
                raise ParseError(f"bad digit '0' in compact permutation {tokens[0]!r}")
            values.append(int(ch))
    else:
        values = []
        for tok in tokens:
            try:
                values.append(int(tok))
            except ValueError:
                raise ParseError(f"bad token {tok!r}") from None
    n = len(values)
    names = tokens if len(tokens) == n else [str(v) for v in values]
    seen = set()
    for name, v in zip(names, values):
        if v in seen:
            raise ParseError(f"repeated value {name!r}")
        seen.add(v)
        if not 1 <= v <= n:
            raise ParseError(f"value {name!r} outside 1..{n}")
    return Permutation(tuple(values))


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


@lru_cache(maxsize=4096)
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


def _find_occurrence(
    pat: tuple[int, ...], host: tuple[int, ...], pin_j: int = -1, pin_pos: int = -1
) -> Optional[list[int]]:
    """Position-lexicographically least occurrence (0-based), or None.

    With ``pin_j >= 0`` only occurrences that place pattern index ``pin_j``
    at host position ``pin_pos`` count.  Used incrementally: when a host is
    one insertion away from a known avoider, any new occurrence must
    involve the inserted entry, so the search can be pinned there.

    Depth-first search choosing host positions left to right; the first
    complete assignment found is automatically the lexicographic minimum.
    The working list itself is returned, without a tuple copy, because the
    hottest callers only test it for truth.
    """
    k, n = len(pat), len(host)
    # unpinned, with (-1, -1), this reduces to k > n
    if pin_j > pin_pos or k - pin_j > n - pin_pos:
        return None
    lo_ref, hi_ref = _neighbor_refs(pat)
    # index j searches positions below tail + j, which leaves room for the
    # later indices, or below head + j before the pin, which leaves room
    # for the indices up to the pin
    tail = n - k + 1
    head = pin_pos - pin_j + 1
    chosen = [0] * k
    j = 0
    pos = 0
    while True:
        lo = host[chosen[lo_ref[j]]] if lo_ref[j] >= 0 else 0
        hi = host[chosen[hi_ref[j]]] if hi_ref[j] >= 0 else n + 1
        if j > pin_j:
            limit = tail + j
        elif j < pin_j:
            limit = head + j
        else:
            # forced placement; backtracking skips this level
            pos = pin_pos
            limit = pin_pos + 1
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
            if j == pin_j:
                j -= 1
            if j < 0:
                return None
            pos = chosen[j] + 1


# pinned callers use this name: perfbench/tracing.py counts searches per binding name
_contains_pinned = _find_occurrence


def _contains_any(pat: tuple[int, ...], host: tuple[int, ...]) -> bool:
    """Existence-only containment test; free to search in any order."""
    k = len(pat)
    if k > len(host):
        return False
    if k >= 7:
        return _contains_mrv(pat, host)
    return _find_occurrence(pat, host) is not None


def _contains_mrv(pat: tuple[int, ...], host: tuple[int, ...]) -> bool:
    """Containment by most-constrained-first search.

    For long rigid patterns (parallel alternations and the bundled long
    witnesses) the left-to-right search degenerates; picking the pattern
    index with the fewest remaining host candidates keeps the tree small.
    """
    k, n = len(pat), len(host)
    assigned = [-1] * k

    def candidates(f: int) -> Optional[list[int]]:
        pf = pat[f]
        plo, phi = -1, n
        vlo, vhi = 0, n + 1
        near_lo = near_hi = -1
        for m in range(k):
            am = assigned[m]
            if am < 0:
                continue
            if m < f:
                if am > plo:
                    plo = am
                    near_lo = m
            else:
                if am < phi:
                    phi = am
                    near_hi = m
            if pat[m] < pf:
                if host[am] > vlo:
                    vlo = host[am]
            else:
                if host[am] < vhi:
                    vhi = host[am]
        # room check: the pattern indices forced between the two nearest
        # assigned neighbours must fit in the host gap
        lo_idx = near_lo if near_lo >= 0 else -1
        hi_idx = near_hi if near_hi >= 0 else k
        needed = hi_idx - lo_idx - 1
        if phi - plo - 1 < needed:
            return None
        return [q for q in range(plo + 1, phi) if vlo < host[q] < vhi]

    def search(depth: int) -> bool:
        if depth == k:
            return True
        best_f = -1
        best = None
        for f in range(k):
            if assigned[f] >= 0:
                continue
            cand = candidates(f)
            if cand is None or not cand:
                return False
            if best is None or len(cand) < len(best):
                best_f, best = f, cand
                if len(best) == 1:
                    break
        for q in best:
            assigned[best_f] = q
            if search(depth + 1):
                return True
        assigned[best_f] = -1
        return False

    return search(0)
