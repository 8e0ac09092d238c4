"""Core value type: parsing, containment, symmetries, insertion, bonds."""

from __future__ import annotations

import cProfile
import itertools
import math
import pstats
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from permdeflate import perm_core
from permdeflate.class_engine import PermClass, _slot_test, _top_test
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
    _delete_raw,
    _emit_kernel,
    _find_occurrence,
    _pattern_of,
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


def test_contains_decides_absence_before_the_least_occurrence_search(monkeypatch):
    # the least-occurrence search (the forward check in position order)
    # takes seconds on the absent cases of this recipe; the forward check
    # in MRV order decides each in well under a second
    calls = []
    find = perm_core._find_occurrence

    def spy(pat, host):
        calls.append(pat)
        assert len(pat) < 20, "an absent pattern went to the least-occurrence search"
        return find(pat, host)

    monkeypatch.setattr(perm_core, "_find_occurrence", spy)
    absent = 0
    for seed in range(15):
        rng = random.Random(seed)
        pattern = Permutation(tuple(rng.sample(range(1, 21), 20)))
        host = Permutation(tuple(rng.sample(range(1, 102), 101)))
        if perm_core._contains_mrv(pattern.values, host.values):
            continue  # present: the least-occurrence search reads its positions
        assert contains(pattern, host) is None
        absent += 1
    assert absent == 13 and calls == []
    occ = contains(P("312"), P("2531647"))
    assert occ.positions == (2, 3, 6) and len(calls) == 1


def left_to_right_dfs(pat, host):
    """The least occurrence (0-based) by a depth-first search that shares
    nothing with ``_forward_check``: host positions chosen left to right,
    each value kept between its nearest earlier neighbours in value, so
    the first complete assignment is the least."""
    k, n = len(pat), len(host)
    if k > n:
        return None
    lo_ref, hi_ref = perm_core._neighbor_refs(pat)
    tail = n - k + 1
    chosen = [0] * k
    j = pos = 0
    while True:
        lo = host[chosen[lo_ref[j]]] if lo_ref[j] >= 0 else 0
        hi = host[chosen[hi_ref[j]]] if hi_ref[j] >= 0 else n + 1
        while pos < tail + j and not lo < host[pos] < hi:
            pos += 1
        if pos < tail + j:
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


def _assert_least_like_the_dfs(pat, host):
    expected = left_to_right_dfs(pat, host)
    assert _find_occurrence(pat, host) == expected, (pat, host)
    occ = contains(Permutation(pat), Permutation(host))
    assert occ == (None if expected is None else perm_core.Occurrence(tuple(i + 1 for i in expected)))


def test_least_occurrence_matches_the_dfs_for_every_k_to_12():
    # per (n, k), a pattern drawn from the host (present) and a random one
    # (mostly absent past k = 5); past k = n both give None
    rng = random.Random(5)
    for n in range(1, 13):
        for k in range(1, n + 3):
            for _ in range(20):
                host = tuple(rng.sample(range(1, n + 1), n))
                if k <= n:
                    drawn = _pattern_of([host[i] for i in sorted(rng.sample(range(n), k))])
                    _assert_least_like_the_dfs(drawn, host)
                _assert_least_like_the_dfs(tuple(rng.sample(range(1, k + 1), k)), host)


def test_least_occurrence_matches_the_dfs_on_long_present_patterns():
    # the present seeds of the k = 20, n = 101 recipe, where the DFS took
    # 0.3-0.5 s
    for seed in (3, 9):
        rng = random.Random(seed)
        pat = tuple(rng.sample(range(1, 21), 20))
        host = tuple(rng.sample(range(1, 102), 101))
        assert _contains_mrv(pat, host)
        _assert_least_like_the_dfs(pat, host)


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
    """A pattern (k <= 6), a host (n <= 9) and an optional pinned host
    position q, 0-based, inside the host."""
    k = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=9))
    pat = tuple(draw(st.permutations(range(1, k + 1))))
    host = tuple(draw(st.permutations(range(1, n + 1))))
    pin = draw(st.none() | st.integers(0, n - 1))
    return pat, host, pin


@settings(max_examples=400)
@given(searches())
def test_find_occurrence_matches_brute_force(case):
    """The forward check in position order finds the least occurrence, and
    the compiled kernels and the entry points that call them find one
    exactly when itertools does.  A pinned position q is asked in slot
    form: the entry at q is the new one at slot (q + 1, host[q]) of the
    host without it."""
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
        assert _emit_kernel(pat, "plain")(host) == expected
        assert _contains_any(pat, host) == expected
    else:
        expected = any(pin in comb for comb in matches)
        parent = _delete_raw(host, pin)
        assert bool(_emit_kernel(pat, "slot")(parent, pin + 1, host[pin])) == expected
        assert bool(_contains_pinned(pat, parent, pin + 1, host[pin])) == expected


@st.composite
def long_searches(draw):
    """A pattern with k in {7, ..., 10}, a host (n <= 14) and an optional
    pinned host position inside the host, as in ``searches``.  Half the hosts
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
    pin = draw(st.none() | st.integers(0, n - 1))
    return pat, host, pin


def _through_sets(pat, host, q):
    """The set oracle through host position q: some pattern index there."""
    return any(_contains_mrv_sets(pat, host, t, q) for t in range(len(pat)))


@settings(max_examples=300)
@given(long_searches())
def test_pinned_mrv_matches_brute_force(case):
    pat, host, pin = case
    combs = itertools.combinations(range(len(host)), len(pat))
    expected = any(
        _pattern_of([host[i] for i in comb]) == pat and (pin is None or pin in comb)
        for comb in combs
    )
    if pin is None:
        assert _contains_mrv(pat, host) == expected
        assert _contains_mrv_sets(pat, host) == expected
        assert _contains_any(pat, host) == expected
    else:
        assert bool(_contains_pinned(pat, _delete_raw(host, pin), pin + 1, host[pin])) == expected
        assert _through_sets(pat, host, pin) == expected


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
    hosts hold a planted occurrence, and a pinned position is a planted
    entry's or a random one.  Proving absence unpinned in a random host
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
        if pinned:
            q = rnd.choice((rnd.choice(where), rnd.randrange(n)))
            got = bool(_contains_pinned(pat, _delete_raw(host, q), q + 1, host[q]))
            assert got == _through_sets(pat, host, q), (pat, host, q)
        else:
            got = _contains_mrv(pat, host)
            assert got == _contains_mrv_sets(pat, host), (pat, host)
        verdicts.append((pinned, got))
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
        ((1, 2, 9, 3, 4, 5, 6, 7, 8), (3, 2)),
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
    # the identity 7 lies in each host of length 9, so only the pinned
    # position rules it out there: one outside the host, which must not
    # wrap, or the 9 at position 2, which has no room for the index it
    # would play (the set oracle pins index 3 there, left of its room)
    identity = tuple(range(1, 8))
    assert not _contains_mrv_sets(identity, host, *pin)
    if not pin:
        assert not _contains_mrv(identity, host)
        return
    q = pin[1]
    assert not _through_sets(identity, host, q)
    if not 0 <= q < len(host):
        return  # the slot form has no entry outside the host
    # the entry at q as the new one at slot (q + 1, host[q]), for the
    # forward check (k = 7) and the one-pin nests (k = 6)
    parent = _delete_raw(host, q)
    assert not _contains_pinned(identity, parent, q + 1, host[q])
    assert not _contains_pinned(identity[:6], parent, q + 1, host[q])


def _std(seq):
    """Test-local pattern of a sequence of distinct values."""
    ranked = sorted(seq)
    return tuple(ranked.index(x) + 1 for x in seq)


def _literal_insert(host, ps, vs):
    child = [v + 1 if v >= vs else v for v in host]
    child.insert(ps - 1, vs)
    return child


def _completes(pat, host, ps, vs):
    """Oracle for the slot kernel: insert the new entry literally, then
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
                        blocked = _emit_kernel(pat, "slot")(host, ps, vs)
                        assert bool(blocked) == (pat in found), (pat, host, ps, vs)
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
    assert bool(_emit_kernel(pat, "slot")(host, ps, vs)) == _completes(pat, host, ps, vs)


def test_slot_kernel_edge_cases(monkeypatch):
    # k = 1: every slot completes it, the empty host's one slot included
    assert _emit_kernel((1,), "slot")((), 1, 1)
    assert all(_emit_kernel((1,), "slot")((2, 1, 3), ps, vs) for ps in range(1, 5) for vs in range(1, 5))
    # the empty host has room for nothing longer
    assert not _emit_kernel((1, 2), "slot")((), 1, 1)
    assert not _emit_kernel((2, 1), "slot")((), 1, 1)
    # k > n + 1: no slot has room
    for pat in itertools.permutations(range(1, 5)):
        assert not any(_emit_kernel(pat, "slot")((2, 1), ps, vs) for ps in range(1, 4) for vs in range(1, 4))
    # k = 7 is a slot nest: the entry is virtual, so no child is built
    built = []
    insert_raw = perm_core._insert_raw
    monkeypatch.setattr(perm_core, "_insert_raw", lambda *a: built.append(a) or insert_raw(*a))
    pat = (2, 4, 6, 1, 3, 5, 7)
    for t in range(7):
        host = tuple(v - 1 if v > pat[t] else v for i, v in enumerate(pat) if i != t)
        assert _emit_kernel(pat, "slot")(host, t + 1, pat[t])
        for ps in range(1, 8):
            for vs in range(1, 8):
                blocked = _emit_kernel(pat, "slot")(host, ps, vs)
                assert bool(blocked) == _completes(pat, host, ps, vs), (t, ps, vs)
    # first in a child of length 7, the entry can only play index 0, of
    # value 2, which leaves no room for 5 values above the top value 7
    assert not _emit_kernel(pat, "slot")((1, 2, 3, 4, 5, 6), 1, 7)
    assert not _completes(pat, (1, 2, 3, 4, 5, 6), 1, 7)
    assert not built
    # k >= 8 builds the child for the forward check, and only when the new
    # entry fits some pattern index
    pat = (2, 4, 6, 8, 1, 3, 5, 7)
    for t in range(8):
        host = tuple(v - 1 if v > pat[t] else v for i, v in enumerate(pat) if i != t)
        assert _emit_kernel(pat, "slot")(host, t + 1, pat[t])
        for ps in range(1, 9):
            for vs in range(1, 9):
                blocked = _emit_kernel(pat, "slot")(host, ps, vs)
                assert bool(blocked) == _completes(pat, host, ps, vs), (t, ps, vs)
    assert built
    # first in a child of length 8, the entry can only play index 0, of
    # value 2, which leaves no room for 6 values above the top value 8
    built.clear()
    assert not _emit_kernel(pat, "slot")((1, 2, 3, 4, 5, 6, 7), 1, 8)
    assert not _completes(pat, (1, 2, 3, 4, 5, 6, 7), 1, 8)
    assert not built


def test_slot_nest_matches_itertools_at_k_7():
    """Twenty seeded patterns of length 7, the longest whose slot test is
    a nest, at every slot of random avoiders of length 6 to 12, against
    the built-child itertools oracle.  One host per pattern is planted:
    a child holding the pattern, minus one of its entries."""
    rng = random.Random(20)
    hits = 0
    for _ in range(20):
        pat = tuple(rng.sample(range(1, 8), 7))
        hosts = []
        while len(hosts) < 2:
            n = rng.randint(6, 12)
            if hosts:
                host = tuple(rng.sample(range(1, n + 1), n))
            else:
                child = rng.sample(range(1, n + 2), n + 1)
                where = sorted(rng.sample(range(n + 1), 7))
                vals = sorted(child[i] for i in where)
                for i, p in zip(where, pat):
                    child[i] = vals[p - 1]
                host = _delete_raw(tuple(child), rng.choice(where))
            if not any(_std(sub) == pat for sub in itertools.combinations(host, 7)):
                hosts.append(host)
        for host in hosts:
            n = len(host)
            for ps in range(1, n + 2):
                for vs in range(1, n + 2):
                    expected = _completes(pat, host, ps, vs)
                    assert bool(_emit_kernel(pat, "slot")(host, ps, vs)) == expected, (pat, host, ps, vs)
                    hits += expected
    assert hits


def _blocked_cells(pats, host):
    """The cells of ``host`` where a new entry completes an occurrence of
    some pattern in ``pats``: each child is built literally, and itertools
    lists its patterns through the new entry once for all of them."""
    n, lengths = len(host), {len(pat) for pat in pats}
    blocked = set()
    for ps in range(1, n + 2):
        for vs in range(1, n + 2):
            child, q = _literal_insert(host, ps, vs), ps - 1
            others = [i for i in range(n + 1) if i != q]
            found = {
                _std([child[i] for i in sorted((*comb, q))])
                for k in lengths
                for comb in itertools.combinations(others, k - 1)
            }
            if any(pat in found for pat in pats):
                blocked.add((ps, vs))
    return blocked


def _assert_reaches(test, host, blocked):
    """Each cell's result is truthy iff the cell is blocked, and a truthy
    result is a reach (ps_hi, vs_hi) with every cell from the cell to it
    blocked.  Returns how many reaches cover more than their own cell."""
    n, wide = len(host), 0
    for ps in range(1, n + 2):
        for vs in range(1, n + 2):
            reach = test(host, ps, vs)
            assert bool(reach) == ((ps, vs) in blocked), (host, ps, vs)
            if reach:
                ps_hi, vs_hi = reach
                assert ps <= ps_hi <= n + 1 and vs <= vs_hi <= n + 1, (host, ps, vs, reach)
                rectangle = itertools.product(range(ps, ps_hi + 1), range(vs, vs_hi + 1))
                assert blocked.issuperset(rectangle), (host, ps, vs, reach)
                wide += (ps_hi, vs_hi) != (ps, vs)
    return wide


def _planted_host(rng, pat, n):
    """A random host of length n, or mostly, when ``pat`` fits in n + 1
    entries, a child of length n + 1 holding ``pat`` minus one of its
    entries, so that some cell completes it."""
    if n + 1 < len(pat) or rng.random() < 0.3:
        return tuple(rng.sample(range(1, n + 1), n))
    child = rng.sample(range(1, n + 2), n + 1)
    where = sorted(rng.sample(range(n + 1), len(pat)))
    vals = sorted(child[i] for i in where)
    for i, p in zip(where, pat):
        child[i] = vals[p - 1]
    return _delete_raw(tuple(child), rng.choice(where))


def test_slot_reach_blocks_its_whole_rectangle_like_itertools():
    """Every truthy slot test result is a reach whose rectangle of cells
    the itertools oracle finds blocked, on seeded patterns of length 2 to
    10: nests for k <= 7, forward checks past that.  Then the same for
    ``_slot_test`` of classes of 2 or 3 basis elements, whose first
    truthy reach must lie in the union of their blocked cells.  Last, past
    the budget, hosts of length 1 to k - 2 leave every cell open."""
    rng = random.Random(31)
    wide = {"nest": 0, "forward check": 0}
    for k in range(2, 11):
        for _ in range(4 if k <= 7 else 12):
            pat = tuple(rng.sample(range(1, k + 1), k))
            host = _planted_host(rng, pat, rng.randint(k - 1, min(k + 3, 12)))
            engine = "nest" if k <= 7 else "forward check"
            wide[engine] += _assert_reaches(_emit_kernel(pat, "slot"), host, _blocked_cells([pat], host))
    assert all(count >= 20 for count in wide.values()), wide
    classes = 0
    while classes < 12:
        pats = [tuple(rng.sample(range(1, m + 1), m)) for m in rng.sample(range(2, 10), rng.randint(2, 3))]
        c = PermClass(tuple(map(Permutation, pats)))
        if len(c.basis) < 2:
            continue
        pats = [b.values for b in c.basis]
        host = _planted_host(rng, rng.choice(pats), rng.randint(6, 10))
        if any(_std(sub) in pats for m in map(len, pats) for sub in itertools.combinations(host, m)):
            continue  # not a member
        classes += 1
        _assert_reaches(_slot_test(c), host, _blocked_cells(pats, host))
    # a host shorter than k - 1 has no room for the pattern: the kernel
    # itself finds every cell open, as the oracle does
    rng = random.Random(32)
    for k in range(8, 11):
        for n in range(1, k - 1):
            pat = tuple(rng.sample(range(1, k + 1), k))
            host = tuple(rng.sample(range(1, n + 1), n))
            assert _blocked_cells([pat], host) == set()
            _assert_reaches(_emit_kernel(pat, "slot"), host, set())


def test_through_position_searches_never_call_contains_mrv(monkeypatch):
    """The tracer wraps ``_contains_pinned`` and ``_contains_mrv`` as leaf
    spans, which must not nest: for k >= 7 the slot kernels, which search
    through the new entry, run ``_forward_check`` directly."""
    def forbidden(*args):
        raise AssertionError("_contains_mrv called from a slot test")

    monkeypatch.setattr(perm_core, "_contains_mrv", forbidden)
    rnd = random.Random(7)
    for k in range(7, 11):
        pat = tuple(rnd.sample(range(1, k + 1), k))
        host = tuple(v - 1 if v > pat[0] else v for v in pat[1:])
        assert _emit_kernel(pat, "slot")(host, 1, pat[0])
        assert _contains_pinned(pat, _delete_raw(pat, k - 1), k, pat[k - 1])
        for _ in range(20):
            n = rnd.randint(k - 1, 14)
            host = tuple(rnd.sample(range(1, n + 1), n))
            _contains_pinned(pat, host, rnd.randint(1, n + 1), rnd.randint(1, n + 1))
            _emit_kernel(pat, "slot")(host, rnd.randint(1, n + 1), rnd.randint(1, n + 1))


def _through_top_two(pat, host, t):
    """Oracle for the top kernel: put a new maximum at slot t of ``host``
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


def _members_with_inherited_slots(rng, pat, count=3, longest=8):
    """(host, s, cand) for each member of a few parents of length up to
    ``longest`` that avoid ``pat``, most of them planted so that a new
    maximum sometimes completes it: s is the member's maximum's position
    and ``cand`` the slots it inherits open, by itertools."""
    k = len(pat)
    parents = [_planted_parent(rng, pat, rng.randint(max(0, k - 2), longest)) for _ in range(count)]
    parents.append(tuple(rng.sample(range(1, longest + 1), rng.randint(0, longest))))
    for parent in parents:
        parent = tuple(sorted(parent).index(v) + 1 for v in parent)
        m = len(parent)
        if any(_std(sub) == pat for sub in itertools.combinations(parent, k)):
            continue
        pm = _open_slots(pat, parent)
        for s in range(m + 1):
            if pm >> s & 1:
                cand = (pm & ((2 << s) - 1)) | ((pm >> s) << (s + 1))
                yield (*parent[:s], m + 1, *parent[s:]), s, cand


def test_top_kernel_matches_itertools():
    """At every slot a member inherits open, the second-pin test asked
    with that slot's one bit keeps it exactly when itertools finds no
    occurrence of ``pat`` through both top entries, and asked with the
    whole inherited mask keeps exactly those slots.  k = 7 and 8 run the
    two-pin nest's deepest loops, k = 9 and 10 one two-pin forward check
    per slot."""
    rng = random.Random(15)
    pats = [p for k in range(2, 5) for p in itertools.permutations(range(1, k + 1))]
    for k, count in ((5, 12), (6, 12), (7, 4), (8, 4), (9, 3), (10, 3)):
        pats += [tuple(rng.sample(range(1, k + 1), k)) for _ in range(count)]
    hits = {}
    for pat in pats:
        k = len(pat)
        for host, s, cand in _members_with_inherited_slots(rng, pat):
            opened = 0
            for t in range(len(host) + 1):
                if cand >> t & 1:
                    expected = _through_top_two(pat, host, t)
                    assert _emit_kernel(pat, "top")(host, s, 1 << t) == (not expected) << t, (pat, host, t, s)
                    opened |= (not expected) << t
                    hits[k] = hits.get(k, 0) + expected
            assert _emit_kernel(pat, "top")(host, s, cand) == opened, (pat, host, s, cand)
    assert all(hits[k] for k in range(2, 11)), hits


def test_top_kernel_clears_ranges_like_itertools_on_random_masks():
    """Differential test of the mask-in, mask-out second-pin test against
    ``_open_slots``: on random subsets of a member's inherited open slots,
    the slots kept are those in the subset where a new maximum keeps the
    member avoiding ``pat``, for k = 1 to 10, and for the chained
    ``_top_test`` of classes with two or three basis elements.  Planted
    parents make one occurrence block several slots of a subset, so a
    range cleared one slot too wide or too narrow shows."""
    assert _emit_kernel((1,), "top")((), 0, 1) == 0
    rng = random.Random(30)
    pats = [(1, 2), (2, 1)] + [tuple(rng.sample(range(1, k + 1), k)) for k in range(3, 11) for _ in range(5)]
    wide = {}  # per k: subsets in which one kernel call blocked two or more slots
    for pat in pats:
        k = len(pat)
        for host, s, cand in _members_with_inherited_slots(rng, pat, count=4, longest=max(8, k + 1)):
            opened = _open_slots(pat, host)
            for sub in {cand, *(cand & rng.getrandbits(len(host) + 1) for _ in range(4))}:
                assert _emit_kernel(pat, "top")(host, s, sub) == sub & opened, (pat, host, s, sub)
                wide[k] = wide.get(k, 0) + ((sub & ~opened).bit_count() >= 2)
    # k = 2 blocks one slot at most: Av(12) keeps only slot 0, Av(21) slot n
    assert all(wide[k] for k in range(3, 11)), str(sorted(wide.items()))
    chained = 0  # chained tests that blocked some slot
    for _ in range(40):
        basis = [tuple(rng.sample(range(1, k + 1), k)) for k in rng.sample(range(2, 8), rng.randint(2, 3))]
        c = PermClass(tuple(Permutation(b) for b in basis))
        basis = [b.values for b in c.basis]
        top = _top_test(c)
        for host, s, _ in _members_with_inherited_slots(rng, basis[0], count=2, longest=7):
            parent = host[:s] + host[s + 1 :]
            if any(_std(sub) == b for b in basis for sub in itertools.combinations(host, len(b))):
                continue
            pm = -1
            for b in basis:
                pm &= _open_slots(b, parent)
            cand = (pm & ((2 << s) - 1)) | ((pm >> s) << (s + 1))
            opened = -1
            for b in basis:
                opened &= _open_slots(b, host)
            for sub in {cand, cand & rng.getrandbits(len(host) + 1)}:
                assert top(host, s, sub) == sub & opened, (str(c), host, s, sub)
                chained += sub & ~opened != 0
    assert chained >= 100, chained


class _CountingHost(tuple):
    """A host that counts its entry reads."""

    reads = 0

    def __getitem__(self, i):
        type(self).reads += 1
        return tuple.__getitem__(self, i)


def test_one_occurrence_blocks_its_whole_slot_range_unsearched(monkeypatch):
    # in 2 3 1 4 the first occurrence of 2413 found, at slot 1, is 2 . 1 4
    # with the new maximum anywhere between the 2 and the 1: it blocks
    # slots 1 and 2, so slot 2 is never searched, and the search at slot 1
    # reads the three entries left of the 4
    monkeypatch.setattr(_CountingHost, "reads", 0)
    host = _CountingHost((2, 3, 1, 4))
    assert _emit_kernel((2, 4, 1, 3), "top")(host, 3, 0b11111) == 0b11001
    assert _CountingHost.reads == 3


def test_each_kernel_gets_its_own_profiler_row():
    # cProfile keys a function by (filename, line, name): every kernel is a
    # ``test`` at line 1, so only its own filename keeps two kernels apart,
    # a forward check past the loop budget as much as a nest
    first = perm_core._emit_kernel((2, 4, 1, 3), "slot")
    second = perm_core._emit_kernel((3, 1, 4, 2), "slot")
    third = perm_core._emit_kernel((2, 4, 6, 8, 1, 3, 5, 7, 9), "slot")
    fourth = perm_core._emit_kernel((3, 1, 4, 2, 5, 6, 7, 8, 9), "slot")
    host = (1, 2, 3, 4, 5)
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(1000):
        first(host, 3, 2)
    for _ in range(3000):
        second(host, 3, 2)
    for _ in range(200):
        third(host, 3, 2)
    for _ in range(400):
        fourth(host, 3, 2)
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    rows = sorted((key[0], calls) for key, (_, calls, *_) in stats.items() if key[2] == "test")
    assert rows == [
        ("<kernel 2 4 1 3 slot>", 1000),
        ("<kernel 2 4 6 8 1 3 5 7 9 slot>", 200),
        ("<kernel 3 1 4 2 5 6 7 8 9 slot>", 400),
        ("<kernel 3 1 4 2 slot>", 3000),
    ]


def test_kernel_filenames_name_pattern_and_mode():
    # within the loop budget and past it, in every mode
    for pat in ((2, 4, 1, 3), (2, 4, 6, 8, 1, 3, 5, 7, 9)):
        names = {perm_core._emit_kernel(pat, mode).__code__.co_filename for mode in ("plain", "slot", "top")}
        name = " ".join(map(str, pat))
        assert names == {f"<kernel {name} {mode}>" for mode in ("plain", "slot", "top")}
        # the top kernel takes a mask of slots where the others take one
        args = {mode: perm_core._emit_kernel(pat, mode).__code__.co_varnames[:3] for mode in ("slot", "top")}
        assert args == {"slot": ("host", "ps", "vs"), "top": ("host", "s", "cand")}


def test_kernels_look_up_the_traced_names_when_called(monkeypatch):
    # the tracer and the spies wrap module attributes: a kernel compiled
    # before the wrapper, here through the cache, must still call it
    search = _emit_kernel((2, 4, 6, 1, 3, 5, 7), "plain")
    slot = _emit_kernel((2, 4, 6, 8, 1, 3, 5, 7), "slot")
    top = _emit_kernel((2, 4, 6, 8, 1, 3, 5, 7, 9), "top")
    calls = dict.fromkeys(("_contains_mrv", "_forward_check", "_insert_raw"), 0)
    for name in calls:

        def counted(*args, _name=name, _real=getattr(perm_core, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(perm_core, name, counted)
    assert search((2, 4, 6, 1, 3, 5, 7))
    assert calls == {"_contains_mrv": 1, "_forward_check": 1, "_insert_raw": 0}
    # no index of 2 4 6 8 1 3 5 7 has room at slot (1, 1): no child is built
    assert not slot((2, 4, 6, 7, 1, 3, 5), 1, 1)
    assert calls == {"_contains_mrv": 1, "_forward_check": 1, "_insert_raw": 0}
    # at slot (8, 7) only the last index has room, and the entry completes it
    assert slot((2, 4, 6, 7, 1, 3, 5), 8, 7)
    assert calls == {"_contains_mrv": 1, "_forward_check": 2, "_insert_raw": 1}
    # one child and one forward check per slot in the mask: slot 8 has room
    # and blocks, slot 2 has none
    assert top((2, 4, 6, 8, 1, 3, 5, 7), 3, 1 << 8 | 1 << 2) == 1 << 2
    assert calls == {"_contains_mrv": 1, "_forward_check": 3, "_insert_raw": 2}


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


def test_derived_inverses_undo_their_symmetries_to_6():
    funcs, inverse = perm_core._SYMMETRY_FUNCS, perm_core._SYMMETRY_INVERSE
    assert list(inverse) == list(SYMMETRY_ORDER)
    for sym in SYMMETRY_ORDER:
        back = funcs[inverse[sym]]
        for n in range(1, 7):
            for q in itertools.permutations(range(1, n + 1)):
                assert back(funcs[sym](q)) == q, (sym, q)
    # every symmetry but the quarter turns is its own inverse
    assert [s for s in SYMMETRY_ORDER if inverse[s] is not s] == [Symmetry.R, Symmetry.R3]


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
