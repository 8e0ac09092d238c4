"""The bond lemma itself, tested adversarially, with no code from the engine.

Every certificate rests on one lemma: if a new entry at every cut slot of
a bond of a member sigma creates a basis occurrence, no simple member of
the class contains sigma.  A class in which that holds for sigma's bond is
a subclass of C = Av(every cut-slot extension of sigma at the bond), so the
lemma holds for that bond in every class iff no simple member of C
contains sigma.  This module searches C by brute force: itertools for
containment, and a direct scan of every window for intervals.  Nothing is
imported from ``permdeflate``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations


def _std(seq):
    """The pattern of ``seq``: its values replaced by their ranks 1..k."""
    rank = {v: r for r, v in enumerate(sorted(seq), start=1)}
    return tuple(rank[v] for v in seq)


def _contains(tau, pattern):
    return any(_std(sub) == pattern for sub in combinations(tau, len(pattern)))


def _is_interval(entries):
    """Whether the (position, value) ``entries`` occupy a run of positions
    and a run of values."""
    ps, vs = {p for p, _ in entries}, {v for _, v in entries}
    return max(ps) - min(ps) == len(ps) - 1 and max(vs) - min(vs) == len(vs) - 1


def _is_simple(tau):
    """No window of 2 to n - 1 consecutive positions holds a run of values."""
    n = len(tau)
    return not any(
        max(tau[a:b]) - min(tau[a:b]) == b - a - 1
        for a in range(n)
        for b in range(a + 2, min(a + n, n + 1))
    )


@lru_cache(maxsize=None)
def _simples(n):
    return [tau for tau in permutations(range(1, n + 1)) if _is_simple(tau)]


def _cut_slot_extensions(sigma, lo, hi):
    """Every extension of ``sigma`` by one new entry that cuts the interval
    at positions ``lo``..``hi`` (from 1) without joining it: in the
    extension neither the interval's entries, nor those with the new one,
    form an interval."""
    n = len(sigma)
    out = set()
    for ps in range(1, n + 2):  # the new entry becomes position ps
        for vs in range(1, n + 2):  # and takes value vs
            old = [(p + (p >= ps), v + (v >= vs)) for p, v in enumerate(sigma, start=1)]
            tau = [v for _, v in old]
            tau.insert(ps - 1, vs)
            inside = old[lo - 1 : hi]
            if not _is_interval(inside) and not _is_interval(inside + [(ps, vs)]):
                out.add(tuple(tau))
    return out


def _counterexamples(sigma, lo, hi, extra):
    """The simple permutations of length at most ``len(sigma) + extra`` that
    contain ``sigma`` and avoid each of its cut-slot extensions at the
    interval of positions ``lo``..``hi``."""
    m = len(sigma)
    banned = _cut_slot_extensions(sigma, lo, hi)
    found = []
    for n in range(m + 1, m + extra + 1):
        for tau in _simples(n):
            if _contains(tau, sigma) and not any(
                _std(sub) in banned for sub in combinations(tau, m + 1)
            ):
                found.append(tau)
    return found


def test_no_simple_permutation_refutes_the_bond_lemma_to_three_more_entries():
    pairs = [
        (sigma, i)
        for m in (3, 4)
        for sigma in permutations(range(1, m + 1))
        for i in range(1, m)
        if abs(sigma[i - 1] - sigma[i]) == 1
    ]
    assert len(pairs) == 44
    assert [len(_simples(n)) for n in range(1, 8)] == [1, 2, 0, 2, 6, 46, 338]
    for sigma, i in pairs:
        assert _counterexamples(sigma, i, i + 1, 3) == [], (sigma, i)


def test_the_same_search_refutes_the_lemma_for_an_interval_of_three():
    # 1324 with its interval 132 at positions 1-3: the simple 351462
    # contains 1324 and none of its cut-slot extensions, which is why
    # certificates stay on bonds; it also shows the search can fail
    assert _counterexamples((1, 3, 2, 4), 1, 3, 3)[0] == (3, 5, 1, 4, 6, 2)
