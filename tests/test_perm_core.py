"""Core value type: parsing, containment, symmetries, insertion, bonds."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from permdeflate import perm_core
from permdeflate.perm_core import (
    Bond,
    MAX_LENGTH,
    ParseError,
    Permutation,
    Slot,
    Symmetry,
    SYMMETRY_ORDER,
    apply_symmetry,
    bonds,
    contains,
    delete,
    direct_sum,
    format_permutation,
    inflate,
    insert,
    parse_permutation,
    skew_sum,
    symmetry_from_name,
    _contains_any,
    _contains_mrv,
    _contains_pinned,
    _find_occurrence,
    _pattern_of,
    _search_kernel,
    _slot_kernel,
    _top_kernel,
)

P = parse_permutation


def all_perms(n):
    return [Permutation(q) for q in itertools.permutations(range(1, n + 1))]


def brute_contains(pattern: Permutation, host: Permutation) -> bool:
    k = len(pattern)
    return any(
        _pattern_of([host.values[i] for i in comb]) == pattern.values
        for comb in itertools.combinations(range(len(host)), k)
    )


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------


def test_parse_spaced_and_compact():
    assert P("2 5 1 7 3 4 8 6").values == (2, 5, 1, 7, 3, 4, 8, 6)
    assert P("1").values == (1,)
    assert P("2413").values == (2, 4, 1, 3)


@pytest.mark.parametrize(
    "text",
    [
        "", "   ", "2 2 1", "1 3", "0", "10", "a b", "1 2 x", "33", "1 -1 2",
        "1 2 3 4 5 6 7 8 9 1_0", "+2 1", "\u0661\u0662",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        P(text)


def test_parse_error_names_offending_token():
    with pytest.raises(ParseError, match="2"):
        P("2 2 1")
    with pytest.raises(ParseError, match="foo"):
        P("1 foo 2")


def test_parse_rejects_non_decimal_digits():
    # "1²".isdigit() holds, but int("²") fails: the token is not compact
    with pytest.raises(ParseError, match="bad token '1²'"):
        P("1²")


@given(st.integers(min_value=1, max_value=64).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
def test_round_trip_spaced(vals):
    p = Permutation(tuple(vals))
    assert parse_permutation(format_permutation(p)) == p


@given(st.integers(min_value=2, max_value=9).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
def test_round_trip_compact(vals):
    p = Permutation(tuple(vals))
    assert parse_permutation("".join(str(v) for v in p.values)) == p


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 3", "value 3 outside 1..2"),
        ("3 1 4 1", "repeated value 1"),
        (" ".join(map(str, range(1, MAX_LENGTH + 2))), f"exceeds the supported maximum {MAX_LENGTH}"),
    ],
)
def test_parse_reports_invalid_values_as_parse_errors(text, message):
    with pytest.raises(ParseError, match=message):
        P(text)


def test_validation():
    with pytest.raises(ValueError):
        Permutation(())
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation((2, 3))


# ---------------------------------------------------------------------------
# containment
# ---------------------------------------------------------------------------


def test_contains_returns_lexicographically_least():
    # 5 3 4 at positions (2, 3, 6) is the least 312 in 2531647; the
    # illustrative subsequence 5 1 4 at (2, 4, 6) is a later occurrence.
    occ = contains(P("312"), P("2531647"))
    assert occ.positions == (2, 3, 6)
    host = P("2531647")
    assert _pattern_of([host.values[i - 1] for i in (2, 4, 6)]) == (3, 1, 2)


def test_contains_singleton_and_absent():
    for host in ("1", "2413", "25173486"):
        assert contains(P("1"), P(host)).positions == (1,)
    assert contains(P("2413"), P("3142")) is None
    assert brute_contains(P("2413"), P("3142")) is False


def test_contains_matches_brute_force_randomised():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(1, 7)
        k = rng.randint(1, n)
        host = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        pattern = Permutation(_pattern_of(rng.sample(range(1, n + 1), k)))
        occ = contains(pattern, host)
        assert (occ is not None) == brute_contains(pattern, host)
        if occ is not None:
            assert _pattern_of([host.values[i - 1] for i in occ.positions]) == pattern.values


@st.composite
def searches(draw):
    """A pattern (k <= 6), a host (n <= 9) and an optional pin (t, q):
    pattern index t at host position q, both 0-based and possibly
    impossible to honour."""
    k = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=9))
    pat = tuple(draw(st.permutations(range(1, k + 1))))
    host = tuple(draw(st.permutations(range(1, n + 1))))
    pin = draw(st.none() | st.tuples(st.integers(0, k - 1), st.integers(0, n - 1)))
    return pat, host, pin


@settings(max_examples=400)
@given(searches())
def test_find_occurrence_matches_brute_force(case):
    """The DFS finds the least occurrence, and the compiled kernel and the
    entry points that call it find one exactly when itertools does."""
    pat, host, pin = case
    matches = [
        list(comb)
        for comb in itertools.combinations(range(len(host)), len(pat))
        if _pattern_of([host[i] for i in comb]) == pat
    ]
    # combinations come in lexicographic order, so the first match is the least
    assert _find_occurrence(pat, host) == (matches[0] if matches else None)
    if pin is None:
        expected = bool(matches)
        assert _search_kernel(pat)(host, -1) == expected
        assert _contains_any(pat, host) == expected
    else:
        t, q = pin
        expected = any(comb[t] == q for comb in matches)
        assert _search_kernel(pat, t)(host, q) == expected
        assert _contains_pinned(pat, host, t, q) == expected
        assert _contains_any(pat, host, t, q) == expected


@st.composite
def long_searches(draw):
    """A pattern with k in {7, ..., 10}, a host (n <= 14) and an optional
    pin, possibly impossible to honour, as in ``searches``.  Half the hosts
    long enough get a planted occurrence, since random ones rarely
    contain a pattern this long."""
    k = draw(st.integers(min_value=7, max_value=10))
    n = draw(st.integers(min_value=1, max_value=14))
    pat = tuple(draw(st.permutations(range(1, k + 1))))
    host = list(draw(st.permutations(range(1, n + 1))))
    if n >= k and draw(st.booleans()):
        where = sorted(draw(st.permutations(range(n)))[:k])
        vals = sorted(host[i] for i in where)
        for i, p in zip(where, pat):
            host[i] = vals[p - 1]
    host = tuple(host)
    pin = draw(st.none() | st.tuples(st.integers(0, k - 1), st.integers(0, n - 1)))
    return pat, host, pin


@settings(max_examples=300)
@given(long_searches())
def test_pinned_mrv_matches_brute_force(case):
    pat, host, pin = case
    pin = pin or ()
    combs = itertools.combinations(range(len(host)), len(pat))
    expected = any(
        _pattern_of([host[i] for i in comb]) == pat and (not pin or comb[pin[0]] == pin[1])
        for comb in combs
    )
    assert _contains_mrv(pat, host, *pin) == expected
    assert _contains_mrv_sets(pat, host, *pin) == expected
    assert _contains_any(pat, host, *pin) == expected


def _contains_mrv_sets(
    pat: tuple[int, ...], host: tuple[int, ...], pin_j: int = -1, pin_pos: int = -1
) -> bool:
    """The forward-checking search that ``_contains_mrv`` replaced, kept
    as its oracle: the same search order, with each pattern index's open
    host positions held in a ``set``.  A filter moves the positions it
    drops onto a trail, and undoing an assignment merges them back."""
    k, n = len(pat), len(host)
    spots = [set(range(g, n - k + 1 + g)) for g in range(k)]
    if pin_j >= 0:
        spots[pin_j] &= {pin_pos}
    trail: list[tuple[int, set[int]]] = []  # (index, the positions a filter dropped)
    frames: list[tuple[int, list[int], int]] = []  # (index, positions left to try, trail length)
    free = set(range(k))
    while free:
        f = min(free, key=lambda g: len(spots[g]))
        free.remove(f)
        frames.append((f, sorted(spots[f], reverse=True), len(trail)))
        # try the newest frame's next position; a frame with none left
        # frees its index and hands back to the frame before it
        while frames:
            f, todo, mark = frames[-1]
            while len(trail) > mark:
                g, dropped = trail.pop()
                spots[g] |= dropped
            if not todo:
                frames.pop()
                free.add(f)
                continue
            q = todo.pop()
            hq, pf = host[q], pat[f]
            for g in free:
                lo, hi = (q + g - f, n) if g > f else (0, q - f + g)
                d = pat[g] - pf
                vlo, vhi = (hq + d, n) if d > 0 else (1, hq + d)
                live = spots[g]
                kept = {r for r in live if lo <= r <= hi and vlo <= host[r] <= vhi}
                if len(kept) < len(live):
                    trail.append((g, live - kept))
                    spots[g] = kept
                    if not kept:
                        break
            else:
                break  # no set emptied: place the next index
        else:
            return False
    return True


def test_mrv_matches_set_oracle_on_long_hosts():
    """Hosts of length 40 to 200, whose masks span many machine words,
    against the set-based search; itertools cannot reach these.  Half the
    hosts hold a planted occurrence, and a pin is put on a planted entry
    or on a random position.  Proving absence unpinned in a random host
    can take seconds past n = 100, so unpinned cases stop there."""
    rnd = random.Random(13)
    verdicts = []
    for _ in range(160):
        pinned = rnd.random() < 0.5
        n, k = rnd.randint(40, 200 if pinned else 100), rnd.randint(7, 30)
        pat = tuple(rnd.sample(range(1, k + 1), k))
        host = rnd.sample(range(1, n + 1), n)
        where = sorted(rnd.sample(range(n), k))
        if rnd.random() < 0.5:
            vals = sorted(host[i] for i in where)
            for i, p in zip(where, pat):
                host[i] = vals[p - 1]
        host = tuple(host)
        t = rnd.randrange(k)
        pin = (t, rnd.choice((where[t], rnd.randrange(n)))) if pinned else ()
        got = _contains_mrv(pat, host, *pin)
        assert got == _contains_mrv_sets(pat, host, *pin), (pat, host, pin)
        verdicts.append((bool(pin), got))
    # every mix of pinned / unpinned and found / absent is exercised
    assert len(set(verdicts)) == 4


@pytest.mark.parametrize(
    "host, pin",
    [
        (tuple(range(1, 5)), ()),
        (tuple(range(1, 5)), (0, 0)),
        (tuple(range(1, 10)), (0, 9)),
        (tuple(range(1, 10)), (6, 9)),
        (tuple(range(1, 10)), (0, -1)),
        (tuple(range(1, 10)), (6, -3)),
        (tuple(range(1, 10)), (3, 2)),
    ],
    ids=[
        "k>n",
        "k>n-pinned",
        "pin_pos=n",
        "pin_pos=n-last-index",
        "pin_pos=-1",
        "pin_pos=-3-last-index",
        "pin_pos<pin_j",
    ],
)
def test_mrv_edge_cases_return_false(host, pin):
    # the identity 7 lies in the identity 9, so only the pin rules it out there
    identity = tuple(range(1, 8))
    assert not _contains_mrv(identity, host, *pin)
    assert not _contains_mrv_sets(identity, host, *pin)


def _std(seq):
    """Test-local pattern of a sequence of distinct values."""
    ranked = sorted(seq)
    return tuple(ranked.index(x) + 1 for x in seq)


def _literal_insert(host, ps, vs):
    child = [v + 1 if v >= vs else v for v in host]
    child.insert(ps - 1, vs)
    return child


def _completes(pat, host, ps, vs):
    """Oracle for ``_slot_kernel``: insert the new entry literally, then
    ask itertools for an occurrence of ``pat`` through it."""
    child, q = _literal_insert(host, ps, vs), ps - 1
    others = [i for i in range(len(child)) if i != q]
    return any(
        _std([child[i] for i in sorted((*comb, q))]) == pat
        for comb in itertools.combinations(others, len(pat) - 1)
    )


def test_slot_kernel_exhaustive_to_pattern_4_host_5():
    """Every pattern of length <= 4 against every host of length <= 5, at
    every slot; each child's patterns through the new entry come from
    itertools once and serve every pattern."""
    pats = [p for k in range(1, 5) for p in itertools.permutations(range(1, k + 1))]
    cells = 0
    for n in range(6):
        for host in itertools.permutations(range(1, n + 1)):
            for ps in range(1, n + 2):
                for vs in range(1, n + 2):
                    child, q = _literal_insert(host, ps, vs), ps - 1
                    others = [i for i in range(n + 1) if i != q]
                    found = {
                        _std([child[i] for i in sorted((*comb, q))])
                        for j in range(4)
                        for comb in itertools.combinations(others, j)
                    }
                    for pat in pats:
                        assert _slot_kernel(pat)(host, ps, vs) == (pat in found), (pat, host, ps, vs)
                    cells += 1
    assert cells == sum(math.factorial(n) * (n + 1) ** 2 for n in range(6))


@st.composite
def slot_cases(draw):
    """A pattern (k in 1..8), a host (n in 0..11) and a slot.  Half the
    cases whose child is long enough plant an occurrence of the pattern
    through the new entry: the host is a child holding one, minus that
    entry."""
    k = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=0, max_value=11))
    pat = tuple(draw(st.permutations(range(1, k + 1))))
    if n + 1 >= k and draw(st.booleans()):
        child = list(draw(st.permutations(range(1, n + 2))))
        where = sorted(draw(st.permutations(range(n + 1)))[:k])
        vals = sorted(child[i] for i in where)
        for i, p in zip(where, pat):
            child[i] = vals[p - 1]
        q = where[draw(st.integers(0, k - 1))]
        vs = child[q]
        host = tuple(v - 1 if v > vs else v for i, v in enumerate(child) if i != q)
        return pat, host, q + 1, vs
    host = tuple(draw(st.permutations(range(1, n + 1))))
    return pat, host, draw(st.integers(1, n + 1)), draw(st.integers(1, n + 1))


@settings(max_examples=300)
@given(slot_cases())
def test_slot_kernel_matches_literal_insert(case):
    pat, host, ps, vs = case
    assert _slot_kernel(pat)(host, ps, vs) == _completes(pat, host, ps, vs)


def test_slot_kernel_edge_cases(monkeypatch):
    # k = 1: every slot completes it, the empty host's one slot included
    assert _slot_kernel((1,))((), 1, 1)
    assert all(_slot_kernel((1,))((2, 1, 3), ps, vs) for ps in range(1, 5) for vs in range(1, 5))
    # the empty host has room for nothing longer
    assert not _slot_kernel((1, 2))((), 1, 1)
    assert not _slot_kernel((2, 1))((), 1, 1)
    # k > n + 1: no slot has room
    for pat in itertools.permutations(range(1, 5)):
        assert not any(_slot_kernel(pat)((2, 1), ps, vs) for ps in range(1, 4) for vs in range(1, 4))
    # k >= 7 builds the child and runs the forward-checking search
    calls = []
    mrv = perm_core._contains_mrv
    monkeypatch.setattr(perm_core, "_contains_mrv", lambda *a: calls.append(a) or mrv(*a))
    pat = (2, 4, 6, 1, 3, 5, 7)
    for t in range(7):
        host = tuple(v - 1 if v > pat[t] else v for i, v in enumerate(pat) if i != t)
        assert _slot_kernel(pat)(host, t + 1, pat[t])
        for ps in range(1, 8):
            for vs in range(1, 8):
                assert _slot_kernel(pat)(host, ps, vs) == _completes(pat, host, ps, vs), (t, ps, vs)
    assert calls


def _through_top_two(pat, host, t):
    """Oracle for ``_top_kernel``: put a new maximum at slot t of ``host``
    literally, then ask itertools for an occurrence of ``pat`` through both
    it and the host's own maximum."""
    n = len(host)
    child = [*host[:t], n + 1, *host[t:]]
    tops = sorted((t, child.index(n)))
    others = [i for i in range(n + 1) if i not in tops]
    return any(
        _std([child[i] for i in sorted((*comb, *tops))]) == pat
        for comb in itertools.combinations(others, len(pat) - 2)
    )


def _open_slots(pat, host):
    """Bit mask of the slots where a new maximum leaves ``host`` avoiding
    ``pat``, by itertools."""
    n = len(host)
    return sum(
        1 << q
        for q in range(n + 1)
        if not any(
            _std(sub) == pat for sub in itertools.combinations((*host[:q], n + 1, *host[q:]), len(pat))
        )
    )


def _planted_parent(rng, pat, m):
    """A host of length m: a permutation of length m + 2 holding ``pat``
    with its values k and k - 1 on the two largest entries, less those
    two entries."""
    k = len(pat)
    where = sorted(rng.sample(range(m + 2), k))
    low = sorted(rng.sample(range(1, m + 1), k - 2)) + [m + 1, m + 2]
    rest = [v for v in range(1, m + 1) if v not in low]
    rng.shuffle(rest)
    child = [low[pat[where.index(i)] - 1] if i in where else rest.pop() for i in range(m + 2)]
    return tuple(v for v in child if v <= m)


def test_top_kernel_matches_itertools():
    """At every slot a member inherits open, the second-pin test equals
    itertools' "the new maximum completes ``pat`` through both top
    entries".  Members come from parents of length up to 8 that avoid
    ``pat``, most of them planted so that the answer is sometimes yes;
    k = 7 and 8 run the two-pin nest's deepest loops, k = 9 and 10 the
    full slot kernel."""
    rng = random.Random(15)
    pats = [p for k in range(2, 5) for p in itertools.permutations(range(1, k + 1))]
    for k, count in ((5, 12), (6, 12), (7, 4), (8, 4), (9, 3), (10, 3)):
        pats += [tuple(rng.sample(range(1, k + 1), k)) for _ in range(count)]
    hits = {}
    for pat in pats:
        k = len(pat)
        parents = [_planted_parent(rng, pat, rng.randint(max(0, k - 2), 8)) for _ in range(3)]
        parents.append(tuple(rng.sample(range(1, 9), rng.randint(0, 8))))
        for parent in parents:
            parent = tuple(sorted(parent).index(v) + 1 for v in parent)
            m = len(parent)
            if any(_std(sub) == pat for sub in itertools.combinations(parent, k)):
                continue
            pm = _open_slots(pat, parent)
            for s in range(m + 1):
                if not pm >> s & 1:
                    continue
                host = (*parent[:s], m + 1, *parent[s:])
                cand = (pm & ((2 << s) - 1)) | ((pm >> s) << (s + 1))
                for t in range(m + 2):
                    if cand >> t & 1:
                        expected = _through_top_two(pat, host, t)
                        assert _top_kernel(pat)(host, t + 1, s) == expected, (pat, host, t, s)
                        hits[k] = hits.get(k, 0) + expected
    assert all(hits[k] for k in range(2, 11)), hits


def test_mrv_handles_patterns_longer_than_the_recursion_limit():
    identity = tuple(range(1, 1501))
    assert _contains_mrv(identity, tuple(range(1, 1502)))
    assert not _contains_mrv(identity, tuple(range(1501, 0, -1)))


def test_mrv_memory_stays_linear_in_the_search_space():
    # every index keeps about 200 live positions through a 200-deep
    # search, so copying the position lists at each level would hold
    # millions of entries
    identity = tuple(range(1, 201))
    host = tuple(range(2, 401, 2)) + tuple(range(1, 400, 2))
    tracemalloc.start()
    try:
        assert _contains_mrv(identity, host)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_mrv_memory_on_a_long_identity():
    # the identity 400 in the identity 800: every index keeps 401 live
    # positions and no filter narrows any of them; as sets they peaked at
    # about 18 MiB, as masks they take 401 bits each
    tracemalloc.start()
    try:
        assert _contains_mrv(tuple(range(1, 401)), tuple(range(1, 801)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_containment_is_a_partial_order_up_to_5():
    perms = [p for n in range(1, 6) for p in all_perms(n)]
    related = {
        (a.values, b.values)
        for a in perms
        for b in perms
        if len(a) <= len(b) and contains(a, b) is not None
    }
    for a in perms:
        assert (a.values, a.values) in related
    for a, b in related:
        if a != b:
            assert (b, a) not in related
    for a, b in related:
        for c in perms:
            if (b, c.values) in related:
                assert (a, c.values) in related


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------


def test_symmetry_examples():
    assert apply_symmetry(P("2413"), Symmetry.INVERSE) == P("3142")
    assert apply_symmetry(P("123"), Symmetry.REVERSE) == P("321")
    assert apply_symmetry(P("25173486"), Symmetry.IDENTITY) == P("25173486")


def test_symmetry_names_and_aliases():
    assert symmetry_from_name("reverse") is Symmetry.REVERSE
    assert symmetry_from_name("rot180") is Symmetry.R2
    assert symmetry_from_name("rev-inv") is Symmetry.R3
    assert symmetry_from_name("anti") is Symmetry.ANTIDIAGONAL
    with pytest.raises(ValueError):
        symmetry_from_name("transpose")


def test_group_law_on_a_free_test_permutation():
    test_perm = next(
        p for p in all_perms(5) if len({apply_symmetry(p, s).values for s in SYMMETRY_ORDER}) == 8
    )
    images = {apply_symmetry(test_perm, s).values for s in SYMMETRY_ORDER}
    assert len(images) == 8
    for f in SYMMETRY_ORDER:
        for g in SYMMETRY_ORDER:
            composed = apply_symmetry(apply_symmetry(test_perm, g), f)
            assert composed.values in images


def test_symmetry_equivariance_exhaustive_to_6():
    perms = {n: [q for q in itertools.permutations(range(1, n + 1))] for n in range(1, 7)}
    from permdeflate.perm_core import _SYMMETRY_FUNCS

    images = {
        q: [_SYMMETRY_FUNCS[s](q) for s in SYMMETRY_ORDER]
        for qs in perms.values()
        for q in qs
    }
    for a in range(1, 7):
        for b in range(a, 7):
            for pat in perms[a]:
                for host in perms[b]:
                    base = _contains_any(pat, host)
                    for i in range(1, 8):
                        assert _contains_any(images[pat][i], images[host][i]) == base


# ---------------------------------------------------------------------------
# insertion and deletion
# ---------------------------------------------------------------------------


def test_insert_examples():
    assert insert(P("12"), Slot(2, 1)) == P("213")
    assert insert(P("564213"), Slot(7, 1)) == P("6753241")
    assert insert(P("1"), Slot(1, 2)) == P("21")


def test_insert_rejects_out_of_range():
    with pytest.raises(ValueError):
        insert(P("12"), Slot(4, 1))
    with pytest.raises(ValueError):
        insert(P("12"), Slot(1, 0))


def test_insert_delete_inverse_exhaustive_to_6():
    for n in range(1, 7):
        for p in all_perms(n):
            for ps in range(1, n + 2):
                for vs in range(1, n + 2):
                    q = insert(p, Slot(ps, vs))
                    assert delete(q, ps) == p


def test_all_slots_give_all_one_point_extensions():
    # slots biject with (extension, inserted-entry) pairs; the extension
    # set alone can be smaller (deleting either entry of 12 gives 1)
    for n in range(1, 6):
        for p in all_perms(n):
            marked = {
                (insert(p, Slot(ps, vs)).values, ps)
                for ps in range(1, n + 2)
                for vs in range(1, n + 2)
            }
            assert len(marked) == (n + 1) ** 2
            children = {q for q, _ in marked}
            by_deletion = {
                (q.values, i)
                for q in all_perms(n + 1)
                for i in range(1, n + 2)
                if delete(q, i) == p
            }
            assert marked == by_deletion
            assert children == {q for q, _ in by_deletion}


def test_delete_errors():
    with pytest.raises(ValueError):
        delete(P("1"), 1)
    with pytest.raises(ValueError):
        delete(P("12"), 3)


# ---------------------------------------------------------------------------
# bonds, inflation, sums
# ---------------------------------------------------------------------------


def test_bonds_examples():
    assert bonds(P("134652")) == [Bond(2, "increasing", 3), Bond(4, "decreasing", 5)]
    assert bonds(P("2413")) == []
    assert bonds(P("12")) == [Bond(1, "increasing", 1)]


def test_inflate_examples():
    assert inflate(P("2413"), [P("21"), P("1"), P("12"), P("21")]) == P("4371265")
    assert inflate(P("251364"), [P("1"), P("12"), P("1"), P("1"), P("1"), P("1")]) == P("2561374")
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 8)
        sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        assert inflate(sigma, [P("1")] * n) == sigma


def test_inflate_arity_mismatch():
    with pytest.raises(ValueError):
        inflate(P("2413"), [P("1")] * 3)


def test_sums():
    assert direct_sum(P("1"), P("1")) == P("12")
    assert direct_sum(P("21"), P("1")) == P("213")
    assert skew_sum(P("564213"), P("1")) == P("6753241")
    assert direct_sum(P("12"), P("21")) == inflate(P("12"), [P("12"), P("21")])
    assert skew_sum(P("12"), P("21")) == inflate(P("21"), [P("12"), P("21")])
