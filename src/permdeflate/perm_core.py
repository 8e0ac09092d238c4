"""Core permutation values and the operations everything else builds on.

A permutation of length n is a rearrangement of the values 1..n written in
one-line notation.  ``Permutation`` is an immutable validated wrapper around
a tuple of values; every operation in this package is a pure function, so
values can be shared freely between threads or worker processes.

Hot paths (class enumeration, membership filtering, slot grids) work on
raw value tuples via the underscore helpers at the bottom of this module;
the public functions wrap them.  Containment has two engines.  Short
patterns run nests of ``for`` loops; longer ones run ``_forward_check``,
an iterative forward-checking search that keeps, per pattern index, the
host positions still open to it as one int bit mask and branches on the
index with the fewest (most constrained first, MRV).  ``contains()``,
which must report the lexicographically least occurrence, runs the same
search branching in position order instead.  One emitter,
``_emit_kernel``, compiles and caches every kernel, once per pattern
and mode, and holds the one rule between them: a kernel is a nest
exactly when it has at most ``_NEST_LOOPS`` = 6 free loops, one per
pattern index not pinned, and else a forward check.  Its docstring says
what each mode answers.  ``_contains_any`` asks mode "plain", whether a
host contains the pattern.  Every cell question asks mode "slot",
whether a new entry at a slot of a host completes it: the interval
breaks and the certificate walks through ``class_engine._slot_test``,
the shading grid and the BFS through ``_contains_pinned``.  The
generating tree asks mode "top" through ``class_engine._top_test``, one
call per member, a mask in and a mask out.  Every kernel refuses a host
too short for its pattern, so callers need no length bound.  Nothing
recurses, so pattern length is bounded only by ``MAX_LENGTH``.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

#: Largest supported permutation length.  Everything this package is used
#: for lives far below this bound (the longest bundled witness has length
#: 35); the cap just keeps accidental huge inputs from hanging the O(n^2)
#: interval scans.
MAX_LENGTH = 4096

#: The loop budget of every kernel: a kernel is an emitted nest exactly
#: when the pattern indices its pins leave free number at most this many.
#: Past it, a fixed loop order degenerates on long rigid patterns, and the
#: kernel runs ``_forward_check`` instead.
_NEST_LOOPS = 6


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


class Permutation:
    """A permutation of {1, ..., n} in one-line notation.

    >>> Permutation((2, 4, 1, 3))
    Permutation(2 4 1 3)
    >>> len(Permutation((1,)))
    1
    """

    __slots__ = ("values",)

    def __init__(self, values: Sequence[int]) -> None:
        object.__setattr__(self, "values", tuple(values))
        _validate_values(self.values)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Permutation, (self.values,)

    def __eq__(self, other: object) -> bool:
        return self.values == other.values if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.values,))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.values)

    def __repr__(self) -> str:
        return f"Permutation({self})"


class Occurrence(NamedTuple):
    """Positions (1-based, strictly increasing) of a pattern inside a host."""

    positions: tuple[int, ...]


class Slot(NamedTuple):
    """Coordinates of a one-point insertion.

    ``pos_slot`` in 1..n+1 puts the new entry immediately before that
    position (n+1 appends); ``val_slot`` in 1..n+1 gives the new entry that
    value after shifting every existing value >= val_slot up by one.
    """

    pos_slot: int
    val_slot: int


class Bond(NamedTuple):
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

    Returns None when the host avoids the pattern, which ``_contains_mrv``
    decides first: the search in position order is slow on a long absent one.

    >>> contains(parse_permutation("312"), parse_permutation("2531647"))
    Occurrence(positions=(2, 3, 6))
    """
    occ = _contains_mrv(pattern.values, host.values) and _find_occurrence(pattern.values, host.values)
    return Occurrence(tuple(i + 1 for i in occ)) if occ else None


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

#: Each symmetry's inverse, read off the group: the eight images of 1342 are
#: distinct, so g undoes f exactly when g(f(1342)) = 1342.
_SYMMETRY_INVERSE = {
    f: g for f in Symmetry for g in Symmetry
    if _SYMMETRY_FUNCS[g](_SYMMETRY_FUNCS[f]((1, 3, 4, 2))) == (1, 3, 4, 2)
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
    """Position-lexicographically least occurrence (0-based), or None:
    ``_forward_check`` in position order.  Only ``contains()`` needs
    positions, and asks once ``_contains_mrv`` finds an occurrence;
    existence tests use ``_contains_any``."""
    if len(pat) > len(host):
        return None
    return _forward_check(pat, host, *_value_masks(host, len(pat)), least=True)


@lru_cache(maxsize=3 * 4096)
def _emit_kernel(pat: tuple[int, ...], mode: str) -> Callable[..., object]:
    """The one kernel emitter, and its one cache: compile a test for
    ``pat`` in ``host``, once per pattern and mode.

    Mode "plain", ``test(host)``: True iff ``host`` contains ``pat``.

    Mode "slot", ``test(host, ps, vs)``: does a new entry of value ``vs``
    before position ``q = ps - 1`` complete an occurrence through it?  For
    each pattern index the entry has room to play, it pins that index on
    the entry, left virtual.  It returns False on an open cell, and on a
    blocked one the cell's reach ``(ps_hi, vs_hi)``: the occurrence found,
    with the entry playing index j, stays one for every entry left of the
    host entry of index j + 1 and below that of value ``pat[j] + 1`` (slot
    n + 1 where there is none), so it blocks every cell of ``[ps, ps_hi] x
    [vs, vs_hi]``, and a walk along a strip skips what one occurrence
    settles.  It never calls ``_contains_mrv``, so that traced slot tests
    and plain searches stay apart.

    Mode "top", ``test(host, s, cand)``: the bits of the slot mask
    ``cand`` (bit q: a new maximum before position q) where a new maximum
    leaves ``host``, whose own maximum sits at position s, avoiding
    ``pat``.  The caller promises that ``host`` avoids ``pat`` and that
    every slot in ``cand`` is inherited open: ``host`` minus its maximum,
    with a new maximum at the matching slot, avoids ``pat`` too.  So a new
    occurrence uses both top entries, as the pattern's values k and k - 1
    (the second pin): the kernel walks the set bits q of ``cand`` lowest
    first and, at each, pins the index t of value k on the new maximum and
    that of value k - 1 at host position ``s``, and compares no value with
    theirs.  Its room check is one window of slots, cut from ``cand``
    once, since a slot outside it stays open.  An occurrence found at q is
    a real one wherever the new maximum sits between the host entries of
    indices t - 1 and t + 1, so it clears the slots ``p[t-1] + 1`` to
    ``p[t+1]`` (0 and n where a neighbour is missing) from the result and
    from the slots left to try.  For k = 1 the new maximum alone is an
    occurrence, so every slot is blocked, though no host can keep the
    promise; that kernel is the one not emitted.

    The one test of the loop budget is here: a block is a nest of ``for``
    loops exactly when its pins leave at most ``_NEST_LOOPS`` indices
    free, so k <= 6 in mode "plain", k <= 7 in mode "slot" and 2 <= k <=
    8 in mode "top".  A nest places its pins first, then the indices left
    of the leftmost pin nearest first, then the rest left to right; loop
    ranges keep each index between its placed neighbours with room for
    the indices still unplaced (indices right of the entry start at
    ``q``), and each value is compared only with the nearest placed values
    below and above (``v`` lies above the entry iff ``vs <= v``).  A nest
    returns on its first occurrence (True, or the reach ``(p{j+1} + 1,
    v{b})`` with ``pat[b] = pat[j] + 1``), or in mode "top" leaves through
    ``for`` ... ``else: continue`` / ``break`` closers to clear the range.
    Past the budget a kernel is ``_contains_mrv`` with no pin, else
    ``_forward_check`` with the pins on a child: in mode "top" one child
    per slot, and an occurrence clears only its own slot; in mode "slot"
    one loop over the indices j in ``range(max(0, q - n + k - 1), min(q,
    k - 1) + 1)`` with room in value, the first of which builds the child,
    so a host shorter than k - 1 builds none, and the reach is ``(at[j +
    1], child[at[b]] - 1)`` from the positions ``at`` the check returns.
    The pattern, and ``where`` (the index of each value), are default
    arguments, so such a text has as many lines for every k.  Every room
    check refuses a host too short for the pattern: there the kernel
    answers False, or leaves ``cand`` alone.  The text holds only
    identifiers and integers, never a host value, and runs in this
    module's globals, so a kernel looks up ``_contains_mrv``,
    ``_forward_check`` and ``_insert_raw`` when it is called."""
    k = len(pat)
    slot, top = mode == "slot", mode == "top"
    if top and k == 1:
        return lambda host, s, cand: 0
    pins = range(k) if slot else [pat.index(k)] if top else ()
    # the free loops of a nest: one per index that no pin holds
    nest = k - (1 + top if pins else 0) <= _NEST_LOOPS
    args = "host, s, cand" if top else "host, ps, vs" if slot else "host"
    if not nest:
        args += ", pat=pat, where=where" if slot else ", pat=pat"
    lines = [f"def test({args}):", "    q = ps - 1"] if slot else [f"def test({args}):"]
    lines.append("    n = len(host)")
    base = "    "
    if top:
        t, u = pat.index(k), pat.index(k - 1)
        # the host positions left of, between and right of the two pins
        # must hold the pattern indices there: one window of slots q
        lo, hi, room = (
            (f"{t}", f"s - {u - t - 1}" if u - t > 1 else "s", f"n - s >= {k - u}")
            if t < u
            else (f"s + {t - u}", f"n - {k - 1 - t}" if t < k - 1 else "n", f"s >= {u}")
        )
        # the slots of ``cand`` in the window, one at a time, lowest first
        lines += [
            f"    todo = cand & ((2 << {hi}) - (1 << {lo})) if {lo} <= {hi} and {room} else 0",
            "    while todo:",
            "        low = todo & -todo",
            "        todo ^= low",
            "        q = low.bit_length() - 1",
        ]
        base += "    "
    if not nest and slot:
        # the indices with room in position, then in value
        lines += [
            "    child = None",
            f"    for j in range(max(0, q - n + {k - 1}), min(q, {k - 1}) + 1):",
            "        v = pat[j]",
            f"        if vs >= v and n - vs >= {k - 1} - v:",
            "            if child is None:",
            "                child = _insert_raw(host, ps, vs)",
            f"                le, ge = _value_masks(child, {k})",
            "            at = _forward_check(pat, child, le, ge, j, q)",
            "            if at is not None:",
            f"                right = at[j + 1] if j < {k - 1} else n + 1",
            f"                return right, (child[at[where[v]]] - 1 if v < {k} else n + 1)",
        ]
    elif not nest and top:
        lines += [
            f"{base}child = _insert_raw(host, q + 1, n + 1)",
            f"{base}le, ge = _value_masks(child, {k})",
            f"{base}if _forward_check(pat, child, le, ge, {t}, q, {u}, s + (s >= q)) is not None:",
            f"{base}    cand ^= low",
        ]
    elif not nest:
        lines += ["    if _contains_mrv(pat, host):", "        return True"]
    for pin_j in (pins or [-1]) if nest else ():
        # pinned index -> (host position, 1 if it takes that position, 0 if virtual)
        fixed = {} if pin_j < 0 else {pin_j: ("q", 0)}
        if top:
            fixed[u] = ("s", 1)
        first = min(fixed, default=0)
        indent = base
        if slot:
            # the host positions left and right of the entry must hold the
            # pattern indices there, pat[pin_j]-1 values lie below vs and
            # k-pat[pin_j] above
            room = f"q >= {pin_j} and n - q >= {k - 1 - pin_j}"
            lines.append(f"    if {room} and vs >= {pat[pin_j]} and n - vs >= {k - 1 - pat[pin_j]}:")
            indent += "    "
            # the last slot right of, and the last value above, that the
            # occurrence still blocks: those of the pin's neighbours
            b = pat.index(pat[pin_j] + 1) if pat[pin_j] < k else -1
            reach = f"({f'p{pin_j + 1} + 1' if pin_j < k - 1 else 'n + 1'}, {f'v{b}' if b >= 0 else 'n + 1'})"
        order = [*fixed, *range(first - 1, -1, -1), *(j for j in range(first, k) if j not in fixed)]
        # the pattern read in placement order: its neighbour refs are, per
        # step, the earlier steps holding the nearest values below and above
        lo_ref, hi_ref = _neighbor_refs(tuple(pat[j] for j in order))
        pos = {j: fixed[j][0] if j in fixed else f"p{j}" for j in order}
        # the two largest values of the second-pin mode are never compared
        value = {j: ("" if top else "vs") if j in fixed else f"v{j}" for j in order}
        loops = []  # the indent of each ``for``, outermost first
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
            loops.append(indent)
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
        if not top:
            lines.append(f"{indent}return {reach if slot else True}")
            continue
        # leave the nest on its first occurrence: each loop that ends
        # without one tries the next position of the loop around it
        if loops:
            lines.append(f"{indent}break")
        for depth, outer in reversed(list(enumerate(loops))):
            lines += [f"{outer}else:", f"{outer}    continue"] + ([f"{outer}break"] if depth else [])
        # the occurrence holds wherever the new maximum sits between the
        # host entries of indices t - 1 and t + 1: clear all those slots
        left = f"{pos[t - 1]} + 1" if t else "0"
        right = pos[t + 1] if t < k - 1 else "n"
        lines += [f"{base}cand &= ~((2 << {right}) - (1 << {left}))", f"{base}todo &= cand"]
    lines.append("    return cand" if top else "    return False")
    # one filename per kernel, so that profilers keep one row per kernel
    filename = f"<kernel {' '.join(map(str, pat))} {mode}>"
    # where[v] is the index of value v + 1, the slot reach's upper neighbour
    namespace = {"pat": pat, "where": tuple(sorted(range(k), key=pat.__getitem__))}
    exec(compile("\n".join(lines), filename, "exec"), globals(), namespace)
    return namespace["test"]


def _contains_pinned(
    pat: tuple[int, ...], host: tuple[int, ...], ps: int, vs: int
) -> Union[tuple[int, int], bool]:
    """Does a new entry at slot (ps, vs) of ``host`` complete an occurrence
    of ``pat``?  The slot kernel (a nest with no child built for k <= 7),
    behind one name that a tracer can count: the shading grid's cells and
    the BFS's slot tests reach it through
    ``class_engine._insertion_creates``.  Its result is the kernel's: the
    reach of a blocked cell, False for an open one."""
    return _emit_kernel(pat, "slot")(host, ps, vs)


def _contains_any(pat: tuple[int, ...], host: tuple[int, ...]) -> bool:
    """Existence-only containment test: the plain kernel for this
    pattern, after a length check."""
    return len(pat) <= len(host) and _emit_kernel(pat, "plain")(host)


def _contains_mrv(pat: tuple[int, ...], host: tuple[int, ...]) -> bool:
    """Containment for long patterns: ``_forward_check`` with no index
    pinned."""
    return len(pat) <= len(host) and _forward_check(pat, host, *_value_masks(host, len(pat))) is not None


def _value_masks(host: tuple[int, ...], k: int) -> tuple[list[int], list[int]]:
    """The value bounds of ``_forward_check`` on ``host``, as bit masks:
    ``le[v]`` holds the positions of the values <= v, ``ge[v]`` those of
    the values >= v.  Both end in k empty masks, so a bound past n (or
    below 0, by negative indexing) keeps no position."""
    n = len(host)
    # bits[v] is the bit of value v's position, so its running sums are le
    bits = [0] * (n + 1)
    for r, v in enumerate(host):
        bits[v] = 1 << r
    le = [*accumulate(bits), *[0] * k]
    full = le[n]
    ge = [full, *[full ^ m for m in le[:n]], *[0] * k]
    return le, ge


def _forward_check(
    pat: tuple[int, ...],
    host: tuple[int, ...],
    le: list[int],
    ge: list[int],
    t: int = -1,
    q: int = 0,
    t2: int = -1,
    q2: int = 0,
    least: bool = False,
) -> Optional[list[int]]:
    """The host positions of an occurrence of ``pat`` in ``host``, one per
    pattern index, with index t, if t >= 0, at position q, and index t2,
    if t2 >= 0, at position q2; None when there is none.  ``le`` and
    ``ge`` are ``_value_masks(host, len(pat))``.  An iterative forward-checking
    search: each pattern index g keeps the host positions still open to it
    as one int bit mask, first ``range(g, n - k + 1 + g)``.  Assigning
    index f to position p drops from every unassigned g the positions r
    that leave too little room between the two indices, in position (``r
    >= p + (g - f)`` when g > f, ``r <= p - (f - g)`` when g < f) or in
    value (``host[r] >= host[p] + d`` when ``d = pat[g] - pat[f]`` is
    positive, ``host[r] <= host[p] + d`` when it is negative).  Each filter
    is two ANDs: the position window is one shift of p's bit, and the value
    bound is a mask from ``ge`` or ``le``.  The search branches on the
    index with the fewest live positions (the first such in ``free``'s
    order), trying them left to right (lowest bit first), and backtracks as
    soon as a mask empties: Haralick and Elliott's forward checking with
    the fail-first rule, which keeps long rigid patterns cheap.  With
    ``least`` it branches on the lowest free index instead, so it places
    the indices in position order, and its first occurrence is the
    position-lexicographically least: a filter drops only positions that
    conflict with the assignment so far, so none it skips starts a smaller
    occurrence.

    Nothing recurses.  A filter that narrows a mask pushes the old mask
    onto a trail, and undoing an assignment assigns it back, so the trail
    holds at most one mask per (frame, index): O(k^2 * n) bits, besides
    the O(n^2) bits of ``ge`` and ``le``.  The positions are read off the
    frames once all k stand, so finding them costs the search nothing.
    """
    k, n = len(pat), len(host)
    window = (1 << (n - k + 1)) - 1
    spots = [window << g for g in range(k)]
    if t >= 0:
        spots[t] = 1 << q
    if t2 >= 0:
        spots[t2] = 1 << q2
    trail: list[tuple[int, int]] = []  # (index, its mask before a filter narrowed it)
    frames: list[tuple[int, int, int]] = []  # (index, positions left to try, trail length)
    free = set(range(k))
    while free:
        if least:
            f = min(free)
        else:
            f, fewest = -1, n + 1
            for g in free:
                live = spots[g].bit_count()
                if live < fewest:
                    f, fewest = g, live
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
            return None
    # a frame's mask is fixed while it stands, and its position is the
    # highest bit it has tried
    at = [0] * k
    for f, todo, _ in frames:
        at[f] = (spots[f] ^ todo).bit_length() - 1
    return at
