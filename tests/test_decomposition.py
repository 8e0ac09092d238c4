"""Intervals, simplicity, components, and the decomposition tree."""

from __future__ import annotations

import dataclasses
import itertools
import random
import sys

import pytest

from permdeflate.perm_core import (
    MAX_LENGTH,
    Permutation,
    Slot,
    SYMMETRY_ORDER,
    _pattern_of,
    apply_symmetry,
    bonds,
    inflate,
    insert,
    parse_permutation,
)
from permdeflate.decomposition import (
    DecompositionTree,
    IntervalSpan,
    cut_slots,
    is_simple,
    maximal_intervals,
    proper_intervals,
    quadrants,
    sd_measure,
    substitution_decompose,
    sum_components,
    _component_ends,
    _cut_slot_pairs,
    _is_decomposable,
    _is_simple,
    _maximal_interval_spans,
)

P = parse_permutation


def all_perms(n):
    return [Permutation(q) for q in itertools.permutations(range(1, n + 1))]


def oracle_intervals(p: Permutation) -> list[tuple[int, int, int, int]]:
    """Independent reference: test every box for the contiguity property."""
    vals = p.values
    n = len(vals)
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if j - i + 1 == n:
                continue
            window = vals[i - 1 : j]
            lo, hi = min(window), max(window)
            if hi - lo == j - i:
                out.append((i, j, lo, hi))
    return out


def test_proper_intervals_examples():
    assert [(s.pos_lo, s.pos_hi, s.val_lo, s.val_hi) for s in proper_intervals(P("4371265"))] == [
        (1, 2, 3, 4),
        (4, 5, 1, 2),
        (6, 7, 5, 6),
    ]
    assert proper_intervals(P("2413")) == []
    assert [(s.pos_lo, s.pos_hi) for s in proper_intervals(P("123"))] == [(1, 2), (2, 3)]


def test_proper_intervals_match_oracle_to_7():
    for n in range(1, 8):
        for p in all_perms(n):
            got = [(s.pos_lo, s.pos_hi, s.val_lo, s.val_hi) for s in proper_intervals(p)]
            assert got == sorted(oracle_intervals(p))


def test_is_simple_examples_and_convention():
    assert is_simple(P("2413"))
    assert is_simple(P("1")) and is_simple(P("12")) and is_simple(P("21"))
    assert not any(is_simple(p) for p in all_perms(3))
    assert not is_simple(P("4371265"))


def test_simple_counts_to_8():
    counts = [sum(1 for p in all_perms(n) if is_simple(p)) for n in range(1, 9)]
    assert counts == [1, 2, 0, 2, 6, 46, 338, 2926]


def test_simplicity_is_symmetry_invariant_to_7():
    for n in range(1, 8):
        for p in all_perms(n):
            base = is_simple(p)
            assert all(is_simple(apply_symmetry(p, s)) == base for s in SYMMETRY_ORDER)


def test_sum_components():
    assert [str(c) for c in sum_components(P("123456"), "direct")] == ["1"] * 6
    assert [str(c) for c in sum_components(P("6753241"), "skew")] == ["1 2", "1", "2 1 3", "1"]
    assert len(sum_components(P("2413"), "direct")) == 1
    with pytest.raises(ValueError):
        sum_components(P("123"), "sideways")


def test_substitution_decompose_examples():
    t = substitution_decompose(P("4371265"))
    assert t.skeleton == P("2413")
    assert [str(c.reinflate()) for c in t.children] == ["2 1", "1", "1 2", "2 1"]

    t = substitution_decompose(P("2413"))
    assert t.skeleton == P("2413") and all(c.is_leaf for c in t.children)

    t = substitution_decompose(P("123"))
    assert t.skeleton == P("12")
    assert t.children[0].is_leaf
    assert t.children[1].reinflate() == P("12")


def test_decompose_reinflates_and_is_canonical_to_8():
    for n in range(1, 9):
        for p in all_perms(n):
            t = substitution_decompose(p)
            assert t.reinflate() == p
            if t.is_leaf:
                assert len(p) == 1
                continue
            skel = t.skeleton
            if len(skel) > 2:
                assert is_simple(skel)
            else:
                kind = "direct" if skel == P("12") else "skew"
                # first child indecomposable of the matching kind
                assert len(sum_components(t.children[0].reinflate(), kind)) == 1


def _recursive_decompose(p: Permutation) -> DecompositionTree:
    """Reference: the decomposition as it was first written, peeling one
    sum component off per recursive call, so a sum of m components
    recurses m deep."""
    vals = p.values
    if len(vals) == 1:
        return DecompositionTree(None)
    for kind, skel in (("direct", P("12")), ("skew", P("21"))):
        e = _component_ends(vals, kind)[0]
        if e < len(vals):
            return DecompositionTree(
                skel,
                (
                    _recursive_decompose(Permutation(_pattern_of(vals[:e]))),
                    _recursive_decompose(Permutation(_pattern_of(vals[e:]))),
                ),
            )
    blocks = _maximal_interval_spans(vals)
    skeleton = Permutation(_pattern_of([lo for (_, _, lo, _) in blocks]))
    assert len(skeleton) > 2 and _is_simple(skeleton.values)
    children = tuple(
        _recursive_decompose(Permutation(_pattern_of(vals[pl - 1 : ph]))) for (pl, ph, _, _) in blocks
    )
    return DecompositionTree(skeleton, children)


def _preorder(tree: DecompositionTree) -> list:
    """The skeletons of a tree in preorder (None for a leaf), walked with an
    explicit stack; the skeleton lengths fix the shape, so equal lists mean
    equal trees."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        out.append(None if node.is_leaf else node.skeleton.values)
        stack.extend(reversed(node.children))
    return out


_SKELETONS = [P("12"), P("21"), *(p for n in (4, 5) for p in all_perms(n) if is_simple(p))]


def _random_inflation(rng: random.Random, n: int) -> Permutation:
    """A random permutation of length n built by nested inflations of 12,
    21 and the simple permutations of length 4 and 5."""
    if n <= 3:
        return Permutation(tuple(rng.sample(range(1, n + 1), n)))
    skeleton = rng.choice([s for s in _SKELETONS if len(s) <= n])
    cuts = sorted(rng.sample(range(1, n), len(skeleton) - 1))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    return inflate(skeleton, [_random_inflation(rng, m) for m in sizes])


def test_decompose_matches_the_recursive_reference():
    rng = random.Random(21)

    def near_identity(n, reverse):
        vals = list(range(1, n + 1))
        for _ in range(rng.randint(0, 4)):
            i = rng.randrange(n - 1)
            vals[i], vals[i + 1] = vals[i + 1], vals[i]
        return Permutation(tuple(vals[::-1] if reverse else vals))

    cases = [_random_inflation(rng, rng.randint(2, 300)) for _ in range(500)]
    cases += [near_identity(rng.randint(2, 300), reverse) for reverse in (False, True) for _ in range(50)]
    for p in cases:
        assert _preorder(substitution_decompose(p)) == _preorder(_recursive_decompose(p)), p
    assert min(map(len, cases)) == 2 and max(map(len, cases)) >= 290


def test_identity_of_max_length_decomposes_at_the_default_recursion_limit():
    # a sum of n components is a right comb built in a loop: no recursion
    # along it, so the longest accepted input decomposes in process
    assert sys.getrecursionlimit() < MAX_LENGTH
    for vals, skel in ((range(1, MAX_LENGTH + 1), P("12")), (range(MAX_LENGTH, 0, -1), P("21"))):
        node = substitution_decompose(Permutation(tuple(vals)))
        teeth = 0
        while not node.is_leaf:
            assert node.skeleton == skel and node.children[0].is_leaf
            node = node.children[1]
            teeth += 1
        assert teeth == MAX_LENGTH - 1


def _recursive_reinflate(tree: DecompositionTree) -> Permutation:
    """Reference: re-inflation as it was first written, one recursive call
    per node, so a tree of depth d recurses d deep."""
    if tree.is_leaf:
        return Permutation((1,))
    return inflate(tree.skeleton, [_recursive_reinflate(child) for child in tree.children])


def test_reinflate_matches_the_recursive_reference():
    rng = random.Random(22)
    for _ in range(200):
        p = _random_inflation(rng, rng.randint(1, 200))
        tree = substitution_decompose(p)
        assert tree.reinflate() == _recursive_reinflate(tree) == p, p


def test_identity_of_max_length_reinflates_at_the_default_recursion_limit():
    # its tree is a comb of depth MAX_LENGTH - 1, which recursion along
    # the tree could not walk
    assert sys.getrecursionlimit() < MAX_LENGTH
    for vals in (range(1, MAX_LENGTH + 1), range(MAX_LENGTH, 0, -1)):
        p = Permutation(tuple(vals))
        assert substitution_decompose(p).reinflate() == p


def test_alternating_sum_of_max_length_decomposes_at_the_default_recursion_limit():
    # p = 1 repeatedly becomes the direct sum of 1 and the skew sum of p
    # and 1: nested sums, not one comb, give a tree of depth n - 1 whose
    # skeletons alternate 12 and 21
    vals = (1,)
    while len(vals) < MAX_LENGTH - 1:
        vals = (1, *(v + 2 for v in vals), 2)
    p = Permutation(vals)
    tree = substitution_decompose(p)
    assert tree.reinflate() == p
    node, spine = tree, []
    while not node.is_leaf:
        spine.append(node.skeleton)
        # a sum's single entry is its first child, a skew sum's its last
        entry, node = node.children if node.skeleton == P("12") else node.children[::-1]
        assert entry.is_leaf
    assert spine == [P("12"), P("21")] * ((MAX_LENGTH - 2) // 2)


def test_deep_trees_print_compare_and_hash_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() < MAX_LENGTH
    leaf = "DecompositionTree(skeleton=None, children=())"
    combs = []
    for vals, skel in ((range(1, MAX_LENGTH + 1), P("12")), (range(MAX_LENGTH, 0, -1), P("21"))):
        p = Permutation(tuple(vals))
        t, u = substitution_decompose(p), substitution_decompose(p)
        tooth = f"DecompositionTree(skeleton={skel!r}, children=({leaf}, "
        assert repr(t) == tooth * (MAX_LENGTH - 1) + leaf + "))" * (MAX_LENGTH - 1)
        assert t is not u and t == u and hash(t) == hash(u) and len({t, u}) == 1
        combs.append(t)
    assert combs[0] != combs[1]


#: The tree as first declared, a plain frozen dataclass: its generated
#: ``repr`` and ``==`` recurse once per level.
_DataclassTree = dataclasses.make_dataclass(
    "DecompositionTree", [("skeleton", object), ("children", tuple)], frozen=True
)


def _dataclass_copy(tree: DecompositionTree):
    """Reference: ``tree`` as a ``_DataclassTree``, one recursive call per node."""
    return _DataclassTree(tree.skeleton, tuple(_dataclass_copy(c) for c in tree.children))


def test_repr_eq_and_hash_match_the_dataclass_reference():
    rng = random.Random(47)
    # short permutations repeat, so distinct inputs give some equal trees
    lengths = [rng.choice((rng.randint(1, 4), rng.randint(5, 120))) for _ in range(200)]
    perms = [_random_inflation(rng, n) for n in lengths]
    trees = [substitution_decompose(p) for p in perms]
    twins = [substitution_decompose(p) for p in perms]  # equal but distinct objects
    shapes = [_preorder(t) for t in trees]
    copies = [_dataclass_copy(t) for t in trees]
    for tree, twin, copy in zip(trees, twins, copies):
        assert repr(tree) == repr(twin) == repr(copy)
        assert twin is not tree and twin == tree and hash(twin) == hash(tree)
    equal_pairs = 0
    for i, j in itertools.product(range(len(trees)), repeat=2):
        same = trees[i] == twins[j]
        assert same == (shapes[i] == shapes[j]) == (copies[i] == copies[j]), (perms[i], perms[j])
        if same:
            assert hash(trees[i]) == hash(twins[j])
            equal_pairs += i != j
    assert equal_pairs > 0
    assert len(set(trees) | set(twins)) == len(set(perms))
    # a hand-built node with one child prints its children as a 1-tuple
    lone = DecompositionTree(P("1"), (DecompositionTree(None),))
    assert repr(lone) == repr(_dataclass_copy(lone))
    assert lone.__eq__(P("1")) is NotImplemented and lone != P("1")


def test_inflate_then_decompose_recovers_blocks():
    rng = random.Random(11)
    simples = [p for n in (4, 5, 6) for p in all_perms(n) if is_simple(p)]
    for _ in range(60):
        skeleton = rng.choice(simples)
        parts = []
        for _ in range(len(skeleton)):
            m = rng.randint(1, 3)
            parts.append(Permutation(tuple(rng.sample(range(1, m + 1), m))))
        whole = inflate(skeleton, parts)
        tree = substitution_decompose(whole)
        assert tree.skeleton == skeleton
        assert [c.reinflate() for c in tree.children] == parts


def test_maximal_intervals_examples():
    assert [(s.pos_lo, s.pos_hi) for s in maximal_intervals(P("4371265"))] == [
        (1, 2),
        (3, 3),
        (4, 5),
        (6, 7),
    ]
    assert [(s.pos_lo, s.pos_hi) for s in maximal_intervals(P("2413"))] == [
        (1, 1),
        (2, 2),
        (3, 3),
        (4, 4),
    ]
    assert [(s.pos_lo, s.pos_hi) for s in maximal_intervals(P("25173486"))] == [
        (1, 1),
        (2, 2),
        (3, 3),
        (4, 4),
        (5, 6),
        (7, 7),
        (8, 8),
    ]
    with pytest.raises(ValueError, match="not well-defined"):
        maximal_intervals(P("123"))
    with pytest.raises(ValueError, match="not well-defined"):
        maximal_intervals(P("2134"))


def _spans(p: Permutation) -> list[tuple[int, int, int, int]]:
    return [(s.pos_lo, s.pos_hi, s.val_lo, s.val_hi) for s in maximal_intervals(p)]


def test_maximal_intervals_partition_positions_to_8():
    for n in range(1, 9):
        for p in all_perms(n):
            if _is_decomposable(p.values):
                continue
            blocks = _spans(p)
            covered = []
            for pl, ph, _, _ in blocks:
                covered.extend(range(pl, ph + 1))
            assert covered == list(range(1, n + 1))
            # maximality: the blocks are intervals, and no interval crosses
            # a block boundary or contains a block of its own
            intervals = oracle_intervals(p)
            assert all(b in intervals for b in blocks if b[0] < b[1]), p
            for il, ih, _, _ in intervals:
                assert any(pl <= il and ih <= ph for pl, ph, _, _ in blocks), (p, il, ih)


def test_maximal_intervals_of_nested_inflations():
    rng = random.Random(6)
    simples = [p for n in (4, 5) for p in all_perms(n) if is_simple(p)]

    def nested(budget):
        skeleton = rng.choice(simples)
        parts = []
        for _ in skeleton:
            if budget >= 8 and rng.random() < 0.5:
                parts.append(nested(budget // len(skeleton)))
            else:
                m = rng.randint(1, 3)
                parts.append(Permutation(tuple(rng.sample(range(1, m + 1), m))))
        return inflate(skeleton, parts)

    def oracle_maximal(p):
        intervals = oracle_intervals(p)
        maximal = [
            s
            for s in intervals
            if not any(t != s and t[0] <= s[0] and s[1] <= t[1] for t in intervals)
        ]
        inside = {i for pl, ph, _, _ in maximal for i in range(pl, ph + 1)}
        singles = [
            (i, i, v, v) for i, v in enumerate(p.values, start=1) if i not in inside
        ]
        return sorted(maximal + singles)

    lengths = []
    for _ in range(40):
        p = nested(150)
        lengths.append(len(p))
        assert _spans(p) == oracle_maximal(p), p
    assert max(lengths) >= 60


def test_sd_measure():
    for p in ("2413", "3142", "25314", "1"):
        assert sd_measure(P(p)) == 0
    assert sd_measure(P("4371265")) == 3
    assert sd_measure(P("25173486")) == 1
    with pytest.raises(ValueError):
        sd_measure(P("123"))


def test_sd_zero_iff_simple_to_8():
    for n in range(1, 9):
        for p in all_perms(n):
            if _is_decomposable(p.values):
                continue
            assert (sd_measure(p) == 0) == is_simple(p)


def _cut_slots_by_definition(p: Permutation, span: IntervalSpan) -> set[Slot]:
    """Semantic reference: the slots after whose insertion neither the
    interval's entries nor those entries with the new one occupy
    contiguous positions and values."""

    def is_block(ext, positions):
        vals = [ext.values[i - 1] for i in positions]
        return (
            max(positions) - min(positions) == len(positions) - 1
            and max(vals) - min(vals) == len(vals) - 1
        )

    n = len(p)
    positions = range(span.pos_lo, span.pos_hi + 1)
    expected = set()
    for ps in range(1, n + 2):
        for vs in range(1, n + 2):
            ext = insert(p, Slot(ps, vs))
            moved = [i if i < ps else i + 1 for i in positions]
            if not is_block(ext, moved) and not is_block(ext, moved + [ps]):
                expected.add(Slot(ps, vs))
    return expected


def test_cut_slots_split_an_interval_without_joining_it_to_6():
    for n in range(2, 7):
        for p in all_perms(n):
            for span in proper_intervals(p):
                assert cut_slots(n, span) == _cut_slots_by_definition(p, span), (p, span)


def test_cut_slot_pairs_come_sorted_and_once_to_6():
    for n in range(2, 7):
        for p in all_perms(n):
            for span in proper_intervals(p):
                pairs = list(_cut_slot_pairs(n, span.pos_lo, span.pos_hi, span.val_lo, span.val_hi))
                assert len(set(pairs)) == len(pairs), (p, span)
                assert pairs == sorted((s.pos_slot, s.val_slot) for s in cut_slots(n, span)), (p, span)
    # every bond of every permutation of length 7 and 8, as the certificate
    # walk asks for it; the pairs depend only on n and the bond's span, so
    # one permutation per (n, span) is checked against the definition
    spans = {}
    for n in (7, 8):
        for p in all_perms(n):
            for b in bonds(p):
                spans.setdefault((n, b.left_pos, b.low_value), p)
    assert len(spans) == 6 * 6 + 7 * 7
    for (n, i, w), p in spans.items():
        pairs = list(_cut_slot_pairs(n, i, i + 1, w, w + 1))
        expected = _cut_slots_by_definition(p, IntervalSpan(i, i + 1, w, w + 1))
        assert pairs == sorted((s.pos_slot, s.val_slot) for s in expected), (p, i, w)


def test_quadrants_examples():
    view = quadrants(P("25173486"), IntervalSpan(5, 6, 3, 4))
    assert [v for _, v in view.beta] == [2, 1]
    assert [v for _, v in view.gamma] == [5, 7]
    assert [v for _, v in view.delta] == [8, 6]
    assert view.epsilon == ()

    view = quadrants(P("4371265"), IntervalSpan(4, 5, 1, 2))
    assert view.beta == () and view.epsilon == ()

    p = P("2413")
    for i, v in enumerate(p.values, start=1):
        view = quadrants(p, IntervalSpan(i, i, v, v))
        total = len(view.beta) + len(view.gamma) + len(view.delta) + len(view.epsilon)
        assert total == len(p) - 1


def test_quadrants_rejects_non_intervals():
    with pytest.raises(ValueError):
        quadrants(P("2413"), IntervalSpan(1, 2, 2, 4))
    with pytest.raises(ValueError):
        quadrants(P("2413"), IntervalSpan(1, 4, 1, 4))
