"""Avoidance classes: membership, enumeration, shading grids."""

from __future__ import annotations

import gc
import itertools
import random
import tracemalloc
import weakref

import pytest

from permdeflate import class_engine, perm_core, witness
from permdeflate.perm_core import (
    MAX_LENGTH,
    Permutation,
    Slot,
    SYMMETRY_ORDER,
    apply_symmetry,
    delete,
    parse_permutation,
    _bond_scan,
    _emit_kernel,
    _insert_raw,
    _pattern_of,
)
from permdeflate.decomposition import _is_simple
from permdeflate.class_engine import (
    PermClass,
    ShadingGrid,
    _avoids_raw,
    _candidates,
    _class_levels,
    _class_symmetries,
    _insertion_creates,
    _shut_bonds,
    _simple_members,
    _slot_test,
    _top_test,
    avoids,
    count_profile,
    enumerate_class,
    enumerate_simples,
    shading_grid,
)
from permdeflate.deflate_analysis import _locked_strips, empirical_deflatability
from permdeflate.witness import find_witnesses

P = parse_permutation


def filter_all(c: PermClass, n: int) -> list[tuple[int, ...]]:
    """Members of ``c`` of length ``n`` by brute force over itertools
    subsequences, with no call into the containment engines."""
    return [q for q in itertools.permutations(range(1, n + 1)) if _avoids_by_combinations(q, c)]


def _avoids_by_combinations(vals: tuple[int, ...], c: PermClass) -> bool:
    return not any(
        _pattern_of(s) == b.values for b in c.basis for s in itertools.combinations(vals, len(b))
    )


def _creates_by_child(c: PermClass, vals: tuple[int, ...], ps: int, vs: int) -> bool:
    """Oracle for the slot kernels on a member ``vals``: build the child and
    test its membership with the unpinned plain kernels (a nest for
    k <= 6, ``_contains_mrv`` for k >= 7).  Every new occurrence uses the new entry, since ``vals``
    avoids ``c``."""
    return not _avoids_raw(_insert_raw(vals, ps, vs), c)


def test_basis_normalisation():
    assert [str(b) for b in PermClass.of("321", "321654").basis] == ["3 2 1"]
    assert [str(b) for b in PermClass.of("132", "4321", "132").basis] == ["1 3 2", "4 3 2 1"]
    with pytest.raises(ValueError):
        PermClass(())


def _occurs(pattern: Permutation, host: Permutation) -> bool:
    """Does ``pattern`` occur in ``host``?  By itertools subsequences."""
    return any(_pattern_of(s) == pattern.values for s in itertools.combinations(host.values, len(pattern)))


def test_basis_normalisation_matches_an_itertools_minimal_basis():
    rng = random.Random(3402)
    dropped = kept_several = 0
    for _ in range(400):
        lengths = [rng.randint(1, 6) for _ in range(rng.randint(2, 4))]
        items = [Permutation(tuple(rng.sample(range(1, k + 1), k))) for k in lengths]
        distinct = sorted(set(items), key=lambda b: (len(b), b.values))
        expected = [b for b in distinct if not any(o != b and _occurs(o, b) for o in distinct)]
        assert PermClass(tuple(items)).basis == tuple(expected), items
        dropped += len(expected) < len(distinct)
        kept_several += len(expected) > 1
    assert dropped > 50 and kept_several > 50


def test_basis_minimality_asks_no_nest_on_a_long_rigid_element(monkeypatch):
    # a nest proving that the length-1 024 alternation avoids 321 is cubic
    # (1.65 s; about 115 s at length 4 096); the forward check is not
    def no_nest(*args):
        raise AssertionError("basis minimality asked for a kernel")

    monkeypatch.setattr(perm_core, "_emit_kernel", no_nest)
    monkeypatch.setattr(class_engine, "_emit_kernel", no_nest)
    monkeypatch.setattr(class_engine, "_contains_any", no_nest)
    alternation = witness.parallel_alternation(1024)
    assert PermClass((alternation, P("321"))).basis == (P("321"), alternation)
    assert PermClass((alternation, P("21"))).basis == (P("21"),)


def test_the_tree_checks_the_length_bound_for_every_walker():
    # one check in ``_class_levels``: the same message from each walker
    c = PermClass.of("12", "21")
    walkers = (
        lambda n: list(enumerate_class(c, n)),
        lambda n: enumerate_simples(c, n),
        lambda n: count_profile(c, n),
        lambda n: find_witnesses(c, n, 1),
    )
    for walk in walkers:
        for n in (0, -1):
            with pytest.raises(ValueError, match=r"^max_len must be at least 1$"):
                walk(n)
        # a finite class has no member longer than MAX_LENGTH, so a larger
        # bound is refused at once rather than walked level by level
        too_long = rf"^max_len {MAX_LENGTH + 1} exceeds the supported maximum {MAX_LENGTH}$"
        if walk is not walkers[-1]:
            with pytest.raises(ValueError, match=too_long):
                walk(MAX_LENGTH + 1)
    assert count_profile(c, MAX_LENGTH)[-1] == (MAX_LENGTH, 0, 0)
    # the witness scan cross-checks to max_len + 2, so it refuses a bound
    # that puts the cross-check past MAX_LENGTH before it walks
    for n in (MAX_LENGTH - 1, MAX_LENGTH, MAX_LENGTH + 1):
        cross = rf"^max_len {n} needs a cross-check to length {n + 2}, "
        cross += rf"past the supported maximum {MAX_LENGTH}$"
        with pytest.raises(ValueError, match=cross):
            walkers[-1](n)
    assert find_witnesses(c, MAX_LENGTH - 2, 1) == []


def test_avoids_examples():
    assert avoids(P("25173486"), PermClass.of("251364"))
    assert not avoids(P("2531647"), PermClass.of("312"))
    for p in ("1", "21", "25173486"):
        assert not avoids(P(p), PermClass.of("1"))


def test_enumerate_av21():
    members = list(enumerate_class(PermClass.of("21"), 5))
    assert [str(m) for m in members] == ["1", "1 2", "1 2 3", "1 2 3 4", "1 2 3 4 5"]


def test_enumerate_counts():
    assert [r[1] for r in count_profile(PermClass.of("231"), 5)] == [1, 2, 5, 14, 42]
    assert [r[1] for r in count_profile(PermClass.of("2413"), 5)] == [1, 2, 6, 23, 103]
    assert [r[1] for r in count_profile(PermClass.of("21"), 3)] == [1, 1, 1]
    assert [r[2] for r in count_profile(PermClass.of("231"), 4)] == [1, 2, 0, 0]


def test_enumeration_matches_filter_all():
    # basis elements of every length 3-6, and one of length 7 beside a
    # shorter one, so every kernel length and pinned MRV run in the tree
    bases = (
        ["231"], ["321"], ["2413"], ["132", "4321"], ["123", "3214"],
        ["25314"], ["246135"], ["2413", "4135762"],
    )
    for basis in bases:
        c = PermClass.of(*basis)
        assert len(c.basis) == len(basis)
        levels: dict[int, list[tuple[int, ...]]] = {n: [] for n in range(1, 8)}
        for p in enumerate_class(c, 7):
            levels[len(p)].append(p.values)
        # the tree's order, built independently: each parent in order gets
        # the new maximum at every position left to right, and a child is
        # kept iff itertools finds no basis pattern in it
        parents: list[tuple[int, ...]] = [()]
        for n in range(1, 8):
            assert len(set(levels[n])) == len(levels[n])
            assert sorted(levels[n]) == filter_all(c, n)
            parents = [
                child
                for parent in parents
                for q in range(n)
                if _avoids_by_combinations(child := parent[:q] + (n,) + parent[q:], c)
            ]
            assert levels[n] == parents, (basis, n)


def _class_levels_by_slot(c: PermClass, max_len: int):
    """Oracle: the generating tree before open-slot masks, which asks the
    full slot test at every slot of every member."""
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


@pytest.mark.parametrize(
    "basis, max_len",
    [
        ("2413", 9),
        ("25314", 8),
        ("24153", 8),
        ("23514", 8),
        ("24513", 8),
        ("1523764", 8),
        ("2413,4135762", 8),
        ("321", 11),
        ("321,214365879", 10),  # k = 9: a two-pin forward check beside a two-pin nest
        ("12", 6),
        ("1", 4),
        ("12,21", 4),
    ],
)
def test_class_levels_match_the_per_slot_tree(basis, max_len):
    c = PermClass.of(*basis.split(","))
    assert [list(level) for level in _class_levels(c, max_len)] == list(_class_levels_by_slot(c, max_len))


def test_class_levels_match_the_per_slot_tree_on_random_bases():
    # 1-3 elements of length 1-8: k = 1, both kernel routes and mixed bases
    rng = random.Random(15)
    for _ in range(200):
        lengths = [rng.randint(1, 8) for _ in range(rng.randint(1, 3))]
        c = PermClass(tuple(Permutation(tuple(rng.sample(range(1, k + 1), k))) for k in lengths))
        assert [list(level) for level in _class_levels(c, 7)] == list(_class_levels_by_slot(c, 7)), str(c)


@pytest.mark.parametrize("basis", ["2413", "25314", "2413,4135762"])
def test_open_slots_are_inherited(basis):
    # a member's open slots, by the full slot test, lie inside the parent's
    # open slots carried over: q for q <= s, q + 1 for q >= s, with the
    # member's maximum at s
    c = PermClass.of(*basis.split(","))
    blocked = _slot_test(c)
    opened = {(): 0 if blocked((), 1, 1) else 1}
    for level in _class_levels(c, 8):
        for vals in level:
            n = len(vals)
            om = sum(1 << q for q in range(n + 1) if not blocked(vals, q + 1, n + 1))
            s = vals.index(n)
            pm = opened[tuple(v for v in vals if v != n)]
            cand = (pm & ((2 << s) - 1)) | ((pm >> s) << (s + 1))
            assert om & ~cand == 0, vals
            opened[vals] = om


def _candidates_by_slot(c: PermClass, max_len: int):
    """Oracle for ``_candidates``: (vals, s, cand) for each member of the
    per-slot tree, where slot q is in ``cand`` iff the parent slot it
    descends from (q left of the maximum at s, q - 1 right of it) is open
    by the full slot test."""
    blocked = _slot_test(c)
    for level in _class_levels_by_slot(c, max_len):
        for vals in level:
            n = len(vals)
            s = vals.index(n)
            parent = vals[:s] + vals[s + 1 :]
            from_slot = [q if q <= s else q - 1 for q in range(n + 1)]
            cand = sum(1 << q for q in range(n + 1) if not blocked(parent, from_slot[q] + 1, n))
            yield vals, s, cand


def _check_candidates(c: PermClass, max_len: int) -> set[str]:
    """Assert each level's parent masks and ``_candidates`` against its
    oracle, and the top strip cell (i + 1, n + 1) of every bond whose cell
    it is, settled from ``cand`` and ``_top_test``, against the full slot
    test; return how the blocked cells were settled."""
    blocked, top = _slot_test(c), _top_test(c)
    oracle = _candidates_by_slot(c, max_len)
    settled = set()
    sizes = [1, 1]  # the stand-in grandparent and the root
    for level in _class_levels(c, max_len):
        # one grandmask per member two lengths before, one mask per member
        # of the length before, one set bit per member of the next
        assert len(level.grandparents) == len(level.grandmasks) == sizes[-2], str(c)
        assert sum(gm.bit_count() for gm in level.grandmasks) == len(level.masks) == sizes[-1], str(c)
        assert sum(pm.bit_count() for pm in level.masks) == len(level), str(c)
        candidates = list(_candidates(level))
        assert [vals for vals, _, _ in candidates] == list(level), str(c)
        sizes.append(len(level))
        for vals, s, cand in candidates:
            assert (vals, s, cand) == next(oracle), str(c)
            n = len(vals)
            for i, _, w in _bond_scan(vals):
                if w + 2 > n:
                    continue  # the top cell is exempt
                inherited = not cand >> i & 1
                verdict = inherited or not top(vals, s, 1 << i)
                assert verdict == bool(blocked(vals, i + 1, n + 1)), (str(c), vals, i)
                if verdict:
                    settled.add("inherited" if inherited else "second pin")
    assert next(oracle, None) is None, str(c)
    return settled


@pytest.mark.parametrize(
    "basis, max_len",
    [
        ("25314", 8),
        ("24153", 8),
        ("23514", 8),
        ("24513", 8),
        ("2413,3142", 7),
        ("251364,214365879", 8),  # k = 9: a two-pin forward check beside a two-pin nest
    ],
)
def test_candidates_and_top_cells_match_the_per_slot_tree(basis, max_len):
    c = PermClass.of(*basis.split(","))
    assert _check_candidates(c, max_len) == {"inherited", "second pin"}


@pytest.mark.parametrize(
    "basis, max_len",
    [("25314", 7), ("321", 7), ("2413,3142", 7), ("12", 5), ("1", 3), ("123,321", 6)],
)
def test_shut_bonds_match_a_per_member_scan(basis, max_len):
    # each member's bonds read off its parent's, and their slots off the
    # next level's masks or one top call on the last level, against every
    # member scanned on its own: a bond with n - 1 is shut, and another is
    # shut when a new maximum between its entries leaves the class
    c = PermClass.of(*basis.split(","))
    levels = list(_class_levels(c, max_len))
    top = _top_test(c)
    for n, level in enumerate(levels, start=1):
        expected = []
        for vals in level:
            shut = 0
            for i, _, w in _bond_scan(vals):
                if w == n - 1 or not _avoids_raw(vals[:i] + (n + 1,) + vals[i:], c):
                    shut |= 1 << i
            if shut:
                expected.append((vals, shut))
        after = levels[n] if n < len(levels) else None
        assert list(_shut_bonds(level, after, top)) == expected, (basis, n)


@pytest.mark.parametrize("basis", ["1", "12,21", "12", "123,321"])
def test_candidates_where_levels_empty_out_or_parents_have_no_open_slot(basis):
    # Av(1) is empty from length 1, Av(12, 21) from length 2 and Av(123, 321)
    # from length 5; in Av(12) every member has one open slot
    _check_candidates(PermClass.of(*basis.split(",")), 6)


def test_the_tree_drops_each_level_once_it_yields_the_next():
    # a caller that drops a level frees it: the tree keeps no reference to
    # a level it has yielded once it has yielded the next
    levels = _class_levels(PermClass.of("2413"), 7)
    previous = weakref.ref(next(levels))
    for level in levels:
        assert previous() is None
        previous = weakref.ref(level)
        del level
    assert previous() is None


def test_a_level_reads_as_a_list_of_its_members():
    # a level is kept as the members two lengths before, their masks and
    # the masks of the members one length before, on every level, the last
    # one included, and iterates as the members that one run of children
    # per parent gives
    c = PermClass.of("2413")
    oracle = list(_class_levels_by_slot(c, 6))
    blocked = _slot_test(c)
    before = [[()], [()]]  # the stand-in grandparent and the root
    for n, (level, members) in enumerate(zip(_class_levels(c, 6), oracle), start=1):
        assert level.n == n and level.grandparents == before[-2]
        for kept, grown in ((level.grandmasks, before[-2]), (level.masks, before[-1])):
            assert kept == [
                sum(1 << q for q in range(len(p) + 1) if not blocked(p, q + 1, len(p) + 1)) for p in grown
            ]
        assert len(level) == len(members) and bool(level)
        assert list(level) == members
        assert weakref.ref(level)() is level
        before.append(members)
    empty = list(_class_levels(PermClass.of("1"), 3))
    assert [len(level) for level in empty] == [0, 0, 0]
    assert [list(level) for level in empty] == [[], [], []] and not any(empty)
    assert [level.grandparents for level in empty] == [[()], [()], []]
    assert [level.masks for level in empty] == [[0], [], []]


def _built_parents(c: PermClass, bound: int, walker: str) -> int:
    """Oracle for the parents a walker builds from ``_parents``, one per
    distinct parent of the members it builds on each level: every member
    for ``iterate``, those with a bond for the witness scan's last level
    (``bonded``), those with a shut bond on its other levels (``shut``),
    and, from length 5, those with no bond and the maximum inside for
    ``simple``.  Below length 5 ``simple`` iterates the level."""
    built = []
    for n, members in enumerate(_class_levels_by_slot(c, bound), start=1):
        if walker == "shut" and n == bound:
            walker = "bonded"
        keep = []
        for vals in members:
            bonds = {i for i, _, _ in _bond_scan(vals)}
            if walker == "iterate" or walker == "simple" and n < 5:
                keep.append(vals)
            elif walker == "bonded" and bonds:
                keep.append(vals)
            elif walker == "shut" and any(
                w == n - 1 or not _avoids_raw(vals[:i] + (n + 1,) + vals[i:], c)
                for i, _, w in _bond_scan(vals)
            ):
                keep.append(vals)
            elif walker == "simple" and not bonds and 0 < vals.index(n) < n - 1:
                keep.append(vals)
        built.append(len({tuple(v for v in vals if v != n) for vals in keep}))
    return built


def test_the_last_level_is_never_built(monkeypatch):
    # no walker, and not the tree, holds a list of the members of length
    # bound - 1: the last level keeps those of length bound - 2, and the
    # generator keeps no list of its own once it has yielded it.  A walker
    # rebuilds a parent from ``_parents`` only with a child it builds,
    # counted exactly against the per-slot tree, one length at a time
    c, bound = PermClass.of("2413"), 8
    levels = _class_levels(c, bound)
    for _ in range(bound):
        last = next(levels)
    assert {len(g) for g in last.grandparents} == {bound - 2}
    lists = [v for v in levels.gi_frame.f_locals.values() if isinstance(v, list)]
    assert lists and not any(isinstance(v, tuple) for held in lists for v in held)
    built = []

    class Counted(tuple):
        """A grandparent whose parent builds, two slices each, are counted."""

        def __getitem__(self, key):
            built[-1] += 0.5
            return tuple.__getitem__(self, key)

    parents = class_engine._parents

    def recorded(level):
        built.append(0)
        for g, t, pm, bonds in parents(level):
            yield Counted(g), t, pm, bonds

    monkeypatch.setattr(class_engine, "_parents", recorded)
    simple = _built_parents(c, bound, "simple")
    walkers = (
        (lambda: count_profile(c, bound), simple),
        (lambda: enumerate_simples(c, bound), simple),
        (lambda: list(enumerate_class(c, bound)), _built_parents(c, bound, "iterate")),
        (lambda: find_witnesses(c, bound, 1), _built_parents(c, bound, "shut")),
    )
    for walk, expected in walkers:
        built.clear()
        walk()
        assert built == expected
    # the coverage check iterates each level to length 5 as its targets
    built.clear()
    empirical_deflatability(c, 5, bound)
    every = _built_parents(c, bound, "iterate")
    assert built == [x for n in range(1, 6) for x in (every[n - 1], simple[n - 1])] + simple[5:]
    assert find_witnesses(c, bound, 1) == []  # no witness: the scan read every level


@pytest.mark.parametrize("basis", ["1", "12,21", "123,321", "12", "2413", "321,214365879"])
def test_every_reader_of_a_level_matches_the_per_slot_tree(basis):
    # each reader of the levels kept two lengths down, on every max_len to
    # 8, against the per-slot oracles: Av(1) empties out at length 1,
    # Av(12, 21) at 2 and Av(123, 321) at 5, each member of Av(12) has one
    # open slot, and 214365879, k = 9, takes the top kernels past their
    # loop budget.  ``_shut_bonds`` must read the same with ``after`` as
    # with one top call per member
    c = PermClass.of(*basis.split(","))
    blocked, top = _slot_test(c), _top_test(c)
    for max_len in range(1, 9):
        levels, oracle = list(_class_levels(c, max_len)), list(_class_levels_by_slot(c, max_len))
        assert [list(level) for level in levels] == oracle, (basis, max_len)
        assert [len(level) for level in levels] == [len(members) for members in oracle]
        assert [x for level in levels for x in _candidates(level)] == list(_candidates_by_slot(c, max_len))
        simples = [[vals for vals in members if _is_simple(vals)] for members in oracle]
        assert [_simple_members(level) for level in levels] == simples, (basis, max_len)
        for n, (level, members) in enumerate(zip(levels, oracle), start=1):
            expected = []
            for vals in members:
                shut = sum(
                    1 << i
                    for i, _, w in _bond_scan(vals)
                    if w == n - 1 or not _avoids_raw(vals[:i] + (n + 1,) + vals[i:], c)
                )
                if shut:
                    expected.append((vals, shut))
            after = levels[n] if n < max_len else None
            assert list(_shut_bonds(level, after, top)) == expected, (basis, max_len, n)
            assert list(_shut_bonds(level, None, top)) == expected, (basis, max_len, n)
        rows = [(n, len(members), len(s)) for n, (members, s) in enumerate(zip(oracle, simples), start=1)]
        assert count_profile(c, max_len) == rows
        assert enumerate_simples(c, max_len) == [Permutation(vals) for s in simples for vals in s]
        assert list(enumerate_class(c, max_len)) == [Permutation(vals) for m in oracle for vals in m]
        if max_len <= 6:  # each witness is cross-checked to max_len + 2
            certified = ((vals, _locked_strips(vals, blocked)) for m in oracle for vals in m)
            found = [(Permutation(vals), cert) for vals, cert in certified if cert]
            got = [(r.witness, r.certificate) for r in find_witnesses(c, max_len, 2)]
            assert got == found[:2], (basis, max_len)


def test_the_last_level_holds_no_member_one_length_short():
    # the last level of Av(2413) to 9 reaches members of length 7, never
    # of length 8, through its lists and tuples
    *_, last = _class_levels(PermClass.of("2413"), 9)
    reached, frontier = {}, [last]
    for _ in range(4):
        refs = [ref for obj in frontier for ref in gc.get_referents(obj) if isinstance(ref, (list, tuple))]
        frontier = [reached.setdefault(id(ref), ref) for ref in refs if id(ref) not in reached]
    lengths = {len(ref) for ref in reached.values() if isinstance(ref, tuple)}
    assert 7 in lengths and 8 not in lengths


def test_count_profile_to_9_peaks_below_one_megabyte():
    # tracemalloc peak of count_profile(Av(2413), 9): about 0.25 MB warm and
    # 0.53 MB on a first call, against 1.77 MB while the last level held its
    # 15 485 members of length 8; the bound leaves about 2x headroom on a
    # first call and fails the old layout
    c = PermClass.of("2413")
    count_profile(c, 5)  # the class's kernels
    tracemalloc.start()
    try:
        assert count_profile(c, 9)[-1] == (9, 91245, 280)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_the_top_test_with_two_pins_matches_the_slot_test_for_k_9_and_10():
    # k >= 9: one forward check with both pins, after the order and room
    # checks; at every slot a member inherits open it must agree with the
    # full slot test at value n + 1.  Each basis pairs a random length-3
    # element with a random member of its class of length 9 or 10, so both
    # are kept, and a length-10 element blocks at least its own slot
    rng = random.Random(27)
    lengths, long_blocks = set(), 0
    for _ in range(6):
        short = tuple(rng.sample(range(1, 4), 3))
        k = rng.choice((9, 10))
        for members in _class_levels_by_slot(PermClass.of(" ".join(map(str, short))), k):
            pass
        long = rng.choice(members)
        c = PermClass((Permutation(short), Permutation(long)))
        assert len(c.basis) == 2
        top, blocked, by_long = _top_test(c), _slot_test(c), _emit_kernel(long, "slot")
        for level in _class_levels(c, 9):
            for vals, s, cand in _candidates(level):
                n = len(vals)
                opened = 0
                for q in range(n + 1):
                    if cand >> q & 1:
                        verdict = bool(blocked(vals, q + 1, n + 1))
                        assert (not top(vals, s, 1 << q)) == verdict, (str(c), vals, q)
                        opened |= (not verdict) << q
                        long_blocks += verdict and bool(by_long(vals, q + 1, n + 1))
                assert top(vals, s, cand) == opened, (str(c), vals)
        lengths.add(k)
    assert lengths == {9, 10} and long_blocks >= 6


def test_candidates_and_top_cells_match_the_per_slot_tree_on_random_bases():
    # 1-3 elements of length 2-8: both kernel routes and mixed bases
    rng = random.Random(17)
    for _ in range(50):
        lengths = [rng.randint(2, 8) for _ in range(rng.randint(1, 3))]
        c = PermClass(tuple(Permutation(tuple(rng.sample(range(1, k + 1), k))) for k in lengths))
        _check_candidates(c, 7)


def test_enumeration_is_grouped_by_length():
    lengths = [len(p) for p in enumerate_class(PermClass.of("2413"), 6)]
    assert lengths == sorted(lengths)


def test_downward_closure_of_members():
    rng = random.Random(2)
    for basis in (["231"], ["2413"], ["251364"]):
        c = PermClass.of(*basis)
        members = list(enumerate_class(c, 8))
        for p in rng.sample(members, min(120, len(members))):
            if len(p) == 1:
                continue
            for i in range(1, len(p) + 1):
                assert avoids(delete(p, i), c)


def test_enumerate_simples():
    assert {str(s) for s in enumerate_simples(PermClass.of("231"), 10)} == {"1", "1 2", "2 1"}
    assert enumerate_simples(PermClass.of("1"), 5) == []
    assert {str(s) for s in enumerate_simples(PermClass.of("1 2 3 4 5 6 7 8 9 10"), 4)} == {
        "1",
        "1 2",
        "2 1",
        "2 4 1 3",
        "3 1 4 2",
    }


_SIMPLE_MEMBER_CLASSES = [
    ("2413", 9),
    ("25314", 8), ("24153", 8), ("23514", 8), ("24513", 8),
    ("231", 8), ("21", 8), ("12,21", 6),
    ("2413,3142", 8), ("251364,214365879", 8),
]


def _random_small_bases(seed: int, count: int) -> list[PermClass]:
    """``count`` seeded random classes of 1-2 basis elements of length 3-6."""
    rng = random.Random(seed)
    return [
        PermClass(
            tuple(
                Permutation(tuple(rng.sample(range(1, k + 1), k)))
                for k in (rng.randint(3, 6) for _ in range(rng.randint(1, 2)))
            )
        )
        for _ in range(count)
    ]


def test_simple_members_match_is_simple_on_every_level():
    # the oracle runs ``_is_simple`` on every member; the classes together
    # give empty levels, levels below length 5 and, from length 5 on,
    # parents with 0, 1 and 2 or more bonds
    cases = [(PermClass.of(*b.split(",")), n) for b, n in _SIMPLE_MEMBER_CLASSES]
    cases += [(c, 7) for c in _random_small_bases(26, 60)]
    seen = {"empty": 0, "short": 0, 0: 0, 1: 0, 2: 0}
    for c, max_len in cases:
        for length, level in enumerate(_class_levels(c, max_len), start=1):
            assert _simple_members(level) == [v for v in level if _is_simple(v)], (c, length)
            if not level:
                seen["empty"] += 1
            elif length < 5:
                seen["short"] += 1
            else:
                for vals in level:
                    n = len(vals)
                    parent = tuple(v for v in vals if v != n)
                    seen[min(2, sum(1 for _ in _bond_scan(parent)))] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize(
    "basis, order",
    [("1342", 1), ("231", 2), ("251364", 2), ("2413", 4), ("2413,3142", 8), ("12,21", 8)],
)
def test_class_symmetries_are_the_stabilizer_of_the_basis(basis, order):
    c = PermClass.of(*basis.split(","))
    syms = _class_symmetries(c)
    assert len(syms) == order
    probe = (1, 3, 4, 2)  # its eight images are distinct
    assert syms[0](probe) == probe
    images = {f(probe) for f in syms}
    assert {g(f(probe)) for f in syms for g in syms} == images
    basis_set = {b.values for b in c.basis}
    for f in syms:
        assert {f(b) for b in basis_set} == basis_set


def test_empty_class():
    assert list(enumerate_class(PermClass.of("1"), 5)) == []


def test_shading_grid_singleton():
    grid = shading_grid(P("1"), PermClass.of("12"))
    assert grid.blocked == frozenset({Slot(1, 1), Slot(2, 2)})


def test_shading_grid_requires_membership():
    with pytest.raises(ValueError, match="not a member"):
        shading_grid(P("2531647"), PermClass.of("312"))


def test_shading_grid_empty_when_basis_too_long():
    grid = shading_grid(P("123"), PermClass.of("12345"))
    assert grid.blocked == frozenset()


def _completing_slots(host: tuple[int, ...], pat: tuple[int, ...]) -> set[Slot]:
    """Slots whose new entry completes ``pat`` together with k-1 entries of
    ``host``: for every itertools subsequence matching ``pat`` minus index
    t, the entry must go between the subsequence's (t-1)th and tth entries
    in position, and between its entries of rank pat[t]-1 and pat[t] in
    value.  For a member these are exactly the blocked slots."""
    n, k = len(host), len(pat)
    roles: dict[tuple[int, ...], list[int]] = {}
    for t in range(k):
        roles.setdefault(_pattern_of(pat[:t] + pat[t + 1 :]), []).append(t)
    out = set()
    for where in itertools.combinations(range(1, n + 1), k - 1):
        vals = [host[i - 1] for i in where]
        pos = [0, *where, n + 1]
        ranked = [0, *sorted(vals), n + 1]
        for t in roles.get(_pattern_of(vals), ()):
            r = pat[t]
            out.update(
                Slot(ps, vs)
                for ps in range(pos[t] + 1, pos[t + 1] + 1)
                for vs in range(ranked[r - 1] + 1, ranked[r] + 1)
            )
    return out


def _near_miss(rng: random.Random, c: PermClass, n: int) -> Permutation:
    """A random member of length n that some insertions take out of ``c``:
    a basis element planted in a random permutation, minus one of its
    entries."""
    while True:
        b = rng.choice(c.basis).values
        host = rng.sample(range(1, n + 2), n + 1)
        where = sorted(rng.sample(range(n + 1), len(b)))
        vals = sorted(host[i] for i in where)
        for i, r in zip(where, b):
            host[i] = vals[r - 1]
        p = delete(Permutation(tuple(host)), rng.choice(where) + 1)
        if avoids(p, c):
            return p


def test_shading_grid_matches_definition():
    from permdeflate.perm_core import insert

    # bases of length 3..8 reach both slot-test engines (a nest for k <= 7,
    # the forward check for k >= 8); every full grid has edge slots where the entry cannot play
    # most pattern indices
    rng = random.Random(7)
    classes = [("2413", "3142"), ("231",), ("25314",), ("251364",), ("4321", "2461357"), ("24681357",)]
    cases = [(P("2143"), PermClass.of("2413", "3142"))]
    for basis in classes:
        c = PermClass.of(*basis)
        cases.extend((_near_miss(rng, c, n), c) for n in (7, 9))
    witness = P("5 8 11 2 13 4 14 16 18 9 10 6 1 15 17 3 7 12")
    cases.append((witness, PermClass.of("2 4 6 8 1 3 5 7")))

    for host, c in cases:
        n = len(host)
        expected = set().union(*(_completing_slots(host.values, b.values) for b in c.basis))
        if n <= 9:
            # brute force: some itertools subsequence of the extension matches
            brute = {
                Slot(ps, vs)
                for ps in range(1, n + 2)
                for vs in range(1, n + 2)
                if any(
                    _pattern_of(sub) == b.values
                    for b in c.basis
                    for sub in itertools.combinations(insert(host, Slot(ps, vs)).values, len(b))
                )
            }
            assert brute == expected, host
        assert shading_grid(host, c).blocked == expected, (host, c)


def _slot_image(slot: Slot, sym, n: int) -> Slot:
    """Push a slot of an n-entry host through a diagram symmetry."""
    def rev(s):
        return Slot(n + 2 - s.pos_slot, s.val_slot)

    def comp(s):
        return Slot(s.pos_slot, n + 2 - s.val_slot)

    def inv(s):
        return Slot(s.val_slot, s.pos_slot)

    from permdeflate.perm_core import Symmetry

    chains = {
        Symmetry.IDENTITY: [],
        Symmetry.R: [inv, comp],
        Symmetry.R2: [comp, rev],
        Symmetry.R3: [inv, rev],
        Symmetry.REVERSE: [rev],
        Symmetry.COMPLEMENT: [comp],
        Symmetry.INVERSE: [inv],
        Symmetry.ANTIDIAGONAL: [inv, comp, rev],
    }
    for step in chains[sym]:
        slot = step(slot)
    return slot


@pytest.mark.parametrize(
    "basis", ["2413", "25314", "251364", "2 4 6 8 1 3 5 7", "2413,4135762", "321,24681357"]
)
def test_slot_test_matches_the_grid_to_7(basis):
    # the slot test and the grid against the built-child membership test,
    # on every cell of every member; the alternation class runs the k >= 8
    # forward check, "2413,4135762" meets a k <= 6 nest and a k = 7 slot
    # nest in one any(), and the last class a k <= 6 nest and the forward
    # check
    c = PermClass.of(*basis.split(","))
    blocked = _slot_test(c)
    for level in _class_levels(c, 7):
        for vals in level:
            n = len(vals)
            cells = [Slot(ps, vs) for ps in range(1, n + 2) for vs in range(1, n + 2)]
            expected = {s for s in cells if _creates_by_child(c, vals, s.pos_slot, s.val_slot)}
            assert {s for s in cells if blocked(vals, s.pos_slot, s.val_slot)} == expected, vals
            assert ShadingGrid(Permutation(vals), c).blocked == expected, vals


def test_insertion_creates_matches_the_slot_test_on_random_classes(monkeypatch):
    """The per-call and the per-class slot tests against the built-child
    membership test, at every slot of random members up to length 10,
    over classes with one basis element of length <= 6 and one of length
    7 or 8, so that both engines run: a spy checks that the slot tests
    reach the forward check of k = 8."""
    forward_check = perm_core._forward_check
    checks = [0]

    def counting_check(*args, **kwargs):
        checks[0] += 1
        return forward_check(*args, **kwargs)

    monkeypatch.setattr(perm_core, "_forward_check", counting_check)
    slot_checks = 0
    rng = random.Random(5)
    for _ in range(12):
        while True:
            lengths = (rng.randint(3, 6), rng.randint(7, 8))
            c = PermClass(tuple(Permutation(tuple(rng.sample(range(1, m + 1), m))) for m in lengths))
            if len(c.basis) == 2:  # the long element avoids the short one
                break
        blocked = _slot_test(c)
        vals: tuple[int, ...] = (1,)
        while len(vals) <= 10:
            n = len(vals)
            open_slots = []
            for ps in range(1, n + 2):
                for vs in range(1, n + 2):
                    creates = _creates_by_child(c, vals, ps, vs)
                    # the oracle's _contains_mrv runs the forward check too
                    before = checks[0]
                    assert _insertion_creates(c, vals, ps, vs) == creates, (c, vals, ps, vs)
                    assert bool(blocked(vals, ps, vs)) == creates, (c, vals, ps, vs)
                    slot_checks += checks[0] - before
                    if not creates:
                        open_slots.append(_insert_raw(vals, ps, vs))
            if not open_slots:
                break
            vals = rng.choice(open_slots)
            assert avoids(Permutation(vals), c)
    assert slot_checks


def test_shading_commutes_with_symmetries():
    cases = [("25173486", ["251364"]), ("1", ["12"]), ("2143", ["2413", "3142"])]
    for host_text, basis in cases:
        host = P(host_text)
        c = PermClass.of(*basis)
        n = len(host)
        base_blocked = shading_grid(host, c).blocked
        for sym in SYMMETRY_ORDER:
            image_host = apply_symmetry(host, sym)
            image_class = PermClass(tuple(apply_symmetry(b, sym) for b in c.basis))
            image_blocked = shading_grid(image_host, image_class).blocked
            assert image_blocked == {_slot_image(s, sym, n) for s in base_blocked}
