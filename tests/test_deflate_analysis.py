"""Embedding, breakability, simple extensions, and the classifier."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from permdeflate import class_engine, deflate_analysis, perm_core
from permdeflate.cli import run
from permdeflate.perm_core import (
    Permutation,
    Slot,
    SYMMETRY_ORDER,
    apply_symmetry,
    insert,
    parse_permutation,
    _bond_scan,
    _contains_any,
    _insert_raw,
    _pattern_of,
)
from permdeflate.decomposition import (
    is_simple,
    maximal_intervals,
    sd_measure,
    _components,
    _cut_slot_pairs,
    _is_decomposable,
    _is_simple,
)
from permdeflate.class_engine import (
    PermClass,
    avoids,
    enumerate_class,
    enumerate_simples,
    shading_grid,
    _avoids_raw,
    _class_levels,
    _class_symmetries,
    _slot_test,
)
from permdeflate.deflate_analysis import (
    EMBED_EXCLUDED,
    EmpiricalReport,
    SimpleExtension,
    UncoveredMember,
    breaking_extensions,
    classify_principal,
    condition_ddagger,
    embed_indecomposable,
    empirical_deflatability,
    extend_to_simple,
    known_deflatable_bases,
    RULE_LABELS,
    STATUS_DEFLATABLE,
    STATUS_NON_DEFLATABLE,
    TheoremVerdict,
    _RULES,
    _bfs_extension,
    _corner_point_stages,
    _ddagger_raw,
    _first_bond_slots,
    _form_1n2,
    _has_bond,
    _locked_strips,
    _one_plus_tail,
    _pred_1n2_no_bond,
    _pred_descent_no_bond,
    _pred_t33,
    _pred_t38,
    _pred_three_sum,
    _pred_two_sum,
    _pred_witness_table,
    _strips_locked,
)
from permdeflate.witness import bond_certificate

P = parse_permutation


def all_perms(n):
    return [Permutation(q) for q in itertools.permutations(range(1, n + 1))]


# ---------------------------------------------------------------------------
# embedding into indecomposables
# ---------------------------------------------------------------------------


def test_embed_corner_point_progression():
    trace = embed_indecomposable(P("564213"), P("123"))
    assert trace.case_used == "corner_point"
    assert [str(s) for s in trace.stages] == [
        "5 6 4 2 1 3",
        "6 7 5 3 2 4 1",
        "8 9 6 7 4 3 5 1 2",
        "11 9 12 8 6 10 5 4 2 7 1 3",
    ]


def test_embed_trivial_when_already_indecomposable():
    trace = embed_indecomposable(P("2413"), P("123456"))
    assert trace.stages == (P("2413"),)
    assert trace.case_used is None
    assert embed_indecomposable(P("1"), P("321")).stages == (P("1"),)


def test_embed_outer_case():
    trace = embed_indecomposable(P("123"), P("2413"))
    assert trace.case_used == "outer_2413"
    final = trace.result
    assert not _is_decomposable(final.values)
    assert avoids(final, PermClass.of("2413"))
    assert _contains_any(P("123").values, final.values)


def test_embed_rejects_excluded_and_contained():
    for pat in sorted(EMBED_EXCLUDED):
        with pytest.raises(ValueError):
            embed_indecomposable(P("1"), Permutation(pat))
    with pytest.raises(ValueError):
        embed_indecomposable(P("2531647"), P("312"))


def test_embed_postconditions_small_grid():
    # length-4 bases over members up to length 4; the acceptance suite
    # pushes the same property to the full 4..5 / 6 grid
    for pi in all_perms(4):
        c = PermClass((pi,))
        for w in enumerate_class(c, 4):
            trace = embed_indecomposable(w, pi)
            final = trace.result
            assert not _is_decomposable(final.values)
            assert avoids(final, c)
            for earlier, later in zip(trace.stages, trace.stages[1:]):
                assert _contains_any(earlier.values, later.values)


def _reference_corner_point_stages(u):
    """The construction as first written: track each part's positions and
    shift them after every link."""
    u_hat = tuple(v + 1 for v in u) + (1,)
    parts = [(1, 2) if c == (1,) else c for c in _components(u_hat, "skew")]
    seq, positions = [], []
    offset = sum(len(p) for p in parts)
    pos = 1
    for part in parts:
        offset -= len(part)
        positions.append(list(range(pos, pos + len(part))))
        seq.extend(v + offset for v in part)
        pos += len(part)
    u_bar = tuple(seq)
    linked = u_bar
    for i in range(len(parts) - 1):
        anchor_pos = max(positions[i])
        top_value = max(linked[p - 1] for p in positions[i + 1])
        linked = insert(Permutation(linked), Slot(anchor_pos, top_value)).values
        for plist in positions:
            for t, p in enumerate(plist):
                if p >= anchor_pos:
                    plist[t] = p + 1
    return (u, u_hat, u_bar, linked)


def test_corner_point_stages_match_position_tracking():
    rng = random.Random(8)
    inputs = [q for n in range(1, 9) for q in itertools.permutations(range(1, n + 1))]
    for _ in range(3000):
        q = list(range(1, rng.randint(9, 40) + 1))
        rng.shuffle(q)
        inputs.append(tuple(q))
    for u in inputs:
        assert _corner_point_stages(u) == _reference_corner_point_stages(u), u


# ---------------------------------------------------------------------------
# breakability
# ---------------------------------------------------------------------------


def test_breaking_extensions_examples():
    reports = breaking_extensions(P("24513"), PermClass.of("321"))
    assert reports, "the {4,5} interval of 24513 should split inside Av(321)"
    alpha = reports[0].interval
    assert (alpha.pos_lo, alpha.pos_hi, alpha.val_lo, alpha.val_hi) == (2, 3, 4, 5)


def test_breaking_picks_leftmost_longest_interval():
    # 346125 has two longest maximal intervals ({3,4} and {1,2}); the
    # leftmost one is the deterministic choice
    reports = breaking_extensions(P("346125"), PermClass.of("7654321"))
    alpha = reports[0].interval
    assert (alpha.pos_lo, alpha.pos_hi, alpha.val_lo, alpha.val_hi) == (1, 2, 3, 4)

    assert breaking_extensions(P("25173486"), PermClass.of("251364")) == []

    with pytest.raises(ValueError):
        breaking_extensions(P("2413"), PermClass.of("321"))  # simple
    with pytest.raises(ValueError):
        breaking_extensions(P("123"), PermClass.of("321"))  # decomposable
    with pytest.raises(ValueError):
        breaking_extensions(P("321"), PermClass.of("321"))  # not a member


def test_break_reports_satisfy_their_invariants():
    c = PermClass.of("321")
    for report in breaking_extensions(P("24513"), c):
        ext = report.extension
        assert avoids(ext, c)
        assert not _is_decomposable(ext.values)
        assert sd_measure(ext) < sd_measure(P("24513"))
        # the new point cuts the interval: it lands strictly inside one
        # coordinate range and outside the other
        s, a = report.slot, report.interval
        pos_inside = a.pos_lo < s.pos_slot <= a.pos_hi
        val_inside = a.val_lo < s.val_slot <= a.val_hi
        assert pos_inside != val_inside


def _qualifying_slots(p: Permutation):
    """Slots cutting the longest maximal interval without joining it."""
    blocks = maximal_intervals(p)
    alpha = max(blocks, key=lambda s: (s.size, -s.pos_lo))
    if alpha.size < 2:
        return alpha, []
    n = len(p)
    slots = []
    for ps in range(alpha.pos_lo + 1, alpha.pos_hi + 1):
        slots.extend(Slot(ps, vs) for vs in range(1, alpha.val_lo))
        slots.extend(Slot(ps, vs) for vs in range(alpha.val_hi + 2, n + 2))
    for vs in range(alpha.val_lo + 1, alpha.val_hi + 1):
        slots.extend(Slot(ps, vs) for ps in range(1, alpha.pos_lo))
        slots.extend(Slot(ps, vs) for ps in range(alpha.pos_hi + 2, n + 2))
    return alpha, slots


def test_interval_cut_property_exhaustive_to_6():
    # class-free consequence check: any cut of the longest interval that
    # does not absorb the new point leaves the result indecomposable and
    # strictly reduces the interval measure
    for n in range(4, 7):
        for p in all_perms(n):
            if _is_decomposable(p.values) or is_simple(p):
                continue
            before = sd_measure(p)
            _, slots = _qualifying_slots(p)
            assert slots
            for slot in slots:
                ext = insert(p, slot)
                assert not _is_decomposable(ext.values)
                assert sd_measure(ext) < before


def _avoids_by_combinations(vals: tuple[int, ...], basis: list[tuple[int, ...]]) -> bool:
    # a subsequence has the pattern of b when its entries rise in the order
    # that b's indices take when sorted by value
    for b in basis:
        order = sorted(range(len(b)), key=b.__getitem__)
        steps = list(zip(order, order[1:]))
        for sub in itertools.combinations(vals, len(b)):
            if all(sub[i] < sub[j] for i, j in steps):
                return False
    return True


def test_breaking_extensions_match_brute_force_membership():
    # every indecomposable non-simple member of length 4..7: the reports
    # are the cut slots of the leftmost longest block, in sorted order,
    # whose literal insertion avoids the basis by itertools; the alternation
    # (k = 8) sends the length-7 members through pinned MRV, and the last
    # basis, of two elements, the slot test's any() over two kernels
    for basis in ("321", "2413", "25314", "251364", "2 4 6 8 1 3 5 7", "2413,4135762"):
        c = PermClass.of(*basis.split(","))
        assert len(c.basis) == len(basis.split(","))
        bv = [b.values for b in c.basis]
        for w in enumerate_class(c, 7):
            if len(w) < 4 or _is_decomposable(w.values) or is_simple(w):
                continue
            alpha, slots = _qualifying_slots(w)
            expected = []
            for slot in sorted(slots, key=lambda s: (s.pos_slot, s.val_slot)):
                ext = insert(w, slot)
                if _avoids_by_combinations(ext.values, bv):
                    expected.append((alpha, slot, ext))
            got = [(r.interval, r.slot, r.extension) for r in breaking_extensions(w, c)]
            assert got == expected, (basis, w)


# ---------------------------------------------------------------------------
# extension to simples
# ---------------------------------------------------------------------------


def test_extend_simple_input_returns_itself():
    res = extend_to_simple(P("2413"), PermClass.of("321"), 6)
    assert res.simple == P("2413") and res.chain == ()
    res = extend_to_simple(P("12"), PermClass.of("321"), 6)
    assert res.simple == P("12") and res.chain == ()


def test_extend_finds_simple_members():
    c = PermClass.of("321")
    for w in ("132", "2143", "24513"):
        res = extend_to_simple(P(w), c, 10)
        assert res is not None
        assert is_simple(res.simple) and avoids(res.simple, c)
        assert _contains_any(P(w).values, res.simple.values)
        for report in res.chain:
            assert avoids(report.extension, c)
            assert not _is_decomposable(report.extension.values)


def test_extend_witness_is_stuck():
    assert extend_to_simple(P("25173486"), PermClass.of("251364"), 12) is None


def _unpruned_bfs(w, c, max_len):
    """Reference for ``_bfs_extension``: every slot of every frontier member
    at every level, with no pruning of the last level to bond-splitting
    slots, and each child built and tested for membership with the plain
    kernels rather than the slot kernels."""
    frontier = {w.values}
    for n in range(len(w), max_len):
        nxt = set()
        for vals in frontier:
            for ps in range(1, n + 2):
                for vs in range(1, n + 2):
                    child = _insert_raw(vals, ps, vs)
                    if _avoids_raw(child, c):
                        nxt.add(child)
        for child in sorted(nxt):
            if _is_simple(child):
                return SimpleExtension(Permutation(child), ())
        frontier = nxt
        if not frontier:
            return None
    return None


def _bfs_without_inheritance(w, c, max_len, first_bond=True):
    """Reference for ``_bfs_extension``'s inheritance: the same levels, the
    same first-bond rule and last-level pruning, but every such cell of
    every frontier member is tested, including those whose parent image is
    blocked.  With ``first_bond=False`` every level but the last tries the
    whole grid: the search before the first-bond rule."""
    frontier = {w.values}
    for n in range(len(w), max_len):
        nxt = set()
        for vals in frontier:
            if n + 1 < max_len and first_bond:
                slots = deflate_analysis._first_bond_slots(vals)
            elif n + 1 < max_len:
                slots = itertools.product(range(1, n + 2), repeat=2)
            else:
                slots = deflate_analysis._bond_splitting_slots(vals)
            for ps, vs in slots:
                if not class_engine._insertion_creates(c, vals, ps, vs):
                    nxt.add(_insert_raw(vals, ps, vs))
        for child in sorted(nxt):
            if _is_simple(child):
                return SimpleExtension(Permutation(child), ())
        frontier = nxt
        if not frontier:
            return None
    return None


def test_bfs_matches_the_search_without_inheritance(monkeypatch):
    # the same result, and the same open cells found: inheritance skips
    # only blocked cells, so every open cell is still tested; and the same
    # result as the search that tries the whole grid below the last level
    got, want = set(), set()

    def recording(opened, creates=class_engine._insertion_creates):
        def test(c, vals, ps, vs):
            blocked = creates(c, vals, ps, vs)
            if not blocked:
                opened.add((vals, ps, vs))
            return blocked

        return test

    monkeypatch.setattr(deflate_analysis, "_insertion_creates", recording(got))
    monkeypatch.setattr(class_engine, "_insertion_creates", recording(want))
    rng = random.Random(22)
    found = cases = 0
    for _ in range(60):
        m = rng.randint(3, 6)
        c = PermClass.of(" ".join(map(str, rng.sample(range(1, m + 1), m))))
        members = [w for w in enumerate_class(c, 6) if len(w) >= 3]
        for w in rng.sample(members, min(5, len(members))):
            for bound in (len(w) + 1, len(w) + 2, len(w) + 3):
                got.clear()
                want.clear()
                res = _bfs_extension(w, c, bound)
                assert res == _bfs_without_inheritance(w, c, bound), (c, w, bound)
                assert got == want, (c, w, bound)
                assert res == _bfs_without_inheritance(w, c, bound, first_bond=False), (c, w, bound)
                found += res is not None
                cases += 1
    # 648 of the 900 cases have a simple extension
    assert cases == 900 and 0 < found < cases


def test_a_cell_whose_parent_image_is_blocked_is_blocked():
    # the lemma _bfs_extension relies on, checked on every one-point child
    # of the length-18 corpus row: deleting the child's new entry maps the
    # child plus a point at (ps, vs) onto the parent plus a point at the
    # cell's image, so an occurrence in the latter is one in the former
    c = PermClass.of("24681357")
    parent = P("5 8 11 2 13 4 14 16 18 9 10 6 1 15 17 3 7 12").values
    blocked = class_engine._slot_test(c)
    cells = list(itertools.product(range(1, len(parent) + 2), repeat=2))
    parent_blocked = {cell for cell in cells if blocked(parent, *cell)}
    checked = 0
    for p1, v1 in cells:
        if (p1, v1) in parent_blocked:
            continue
        child = _insert_raw(parent, p1, v1)
        for ps, vs in itertools.product(range(1, len(child) + 2), repeat=2):
            if (ps - (ps > p1), vs - (vs > v1)) in parent_blocked:
                assert blocked(child, ps, vs), (p1, v1, ps, vs)
                checked += 1
    assert checked > 20_000


def test_a_simple_permutation_splits_the_first_bond_of_each_part():
    # the lemma behind _bfs_extension's first-bond rule, by brute force: in
    # a simple permutation of length 4-7, every proper part of length >= 3
    # with a bond leaves out a point strictly between the first bond's two
    # entries in position or in value, else they would be a bond of the
    # whole; and adding any such point to the part lands in one of the
    # part's first-bond slots
    checked = 0
    for n in range(4, 8):
        for sigma in itertools.permutations(range(1, n + 1)):
            if not _is_simple(sigma):
                continue
            for k in range(3, n):
                for kept in itertools.combinations(range(n), k):
                    part = _pattern_of([sigma[q] for q in kept])
                    bond = next(_bond_scan(part), None)
                    if bond is None:
                        continue
                    left, right = kept[bond[0] - 1], kept[bond[0]]
                    lo, hi = sorted((sigma[left], sigma[right]))
                    between = [q for q in range(n) if left < q < right or lo < sigma[q] < hi]
                    assert between, (sigma, kept)
                    slots = set(_first_bond_slots(part))
                    for q in between:
                        ps = 1 + sum(r < q for r in kept)
                        vs = 1 + sum(sigma[r] < sigma[q] for r in kept)
                        assert (ps, vs) in slots, (sigma, kept, q)
                    checked += 1
    assert checked > 20_000


def test_bfs_breaks_first_bonds_on_two_levels():
    # at len(w) + 3 the first-bond rule applies to the root and to its
    # children; few members of a principal class get that far, so six
    # two-element bases, whose members often have no simple extension
    # within two points, join the oracle's eight classes
    bases = [(b,) for b in ("321", "2413", "3142", "4321", "25314", "251364", "1234", "2143")]
    bases += [("3142", "2314"), ("4132", "2314"), ("1342", "2431"), ("1423", "4132")]
    bases += [("2413", "2134"), ("2413", "2341")]
    deep = 0
    for basis in bases:
        c = PermClass.of(*basis)
        for w in enumerate_class(c, 4):
            if len(w) >= 3:
                bound = len(w) + 3
                res = _bfs_extension(w, c, bound)
                assert res == _unpruned_bfs(w, c, bound), (basis, w)
                deep += res is None or len(res.simple) == bound
    assert deep >= 60


def test_bfs_tests_only_cells_with_an_open_parent_image(monkeypatch):
    # the k = 10 corpus row to length 26 takes 97 slot tests; the search
    # without inheritance makes 141, and with the whole grid below the last
    # level they were 674 and 16 675, nearly all re-proving its certificate
    calls = []
    creates = deflate_analysis._insertion_creates

    def counting_test(*args):
        calls.append(args)
        return creates(*args)

    monkeypatch.setattr(deflate_analysis, "_insertion_creates", counting_test)
    c = PermClass.of("2 4 6 8 10 1 3 5 7 9")
    w = P("2 7 10 13 4 16 9 18 6 20 8 22 24 14 15 11 1 19 21 3 23 5 12 17")
    assert _bfs_extension(w, c, 26) is None
    assert 0 < len(calls) <= 110


@pytest.mark.parametrize("basis", ["321", "2413", "3142", "4321", "25314", "251364", "1234", "2143"])
def test_bfs_matches_unpruned_oracle(basis):
    # called directly: through extend_to_simple the greedy path would
    # answer most of these before the search runs
    c = PermClass.of(basis)
    for w in enumerate_class(c, 5):
        if len(w) < 3:
            continue
        for bound in (len(w) + 1, len(w) + 2):
            assert _bfs_extension(w, c, bound) == _unpruned_bfs(w, c, bound), (w, bound)


def test_bfs_last_level_splits_two_bonds_at_once():
    # 2143 has the bonds 21 and 43; its least simple extension 24153 comes
    # from the one slot that cuts both
    res = _bfs_extension(P("2143"), PermClass.of("321"), 5)
    assert res == SimpleExtension(P("2 4 1 5 3"), ())
    assert res == _unpruned_bfs(P("2143"), PermClass.of("321"), 5)


def test_no_child_is_built_to_test_a_cell(monkeypatch):
    """For a class of basis length <= 7 the shading grid builds no child,
    and the BFS builds one child per slot that its test finds open."""
    built = []
    insert_raw = perm_core._insert_raw

    def counting_insert(*args):
        built.append(args)
        return insert_raw(*args)

    for module in (perm_core, class_engine, deflate_analysis):
        if hasattr(module, "_insert_raw"):
            monkeypatch.setattr(module, "_insert_raw", counting_insert)
    opened = []
    creates = deflate_analysis._insertion_creates

    def counting_test(c, vals, ps, vs):
        blocked = creates(c, vals, ps, vs)
        if not blocked:
            opened.append((vals, ps, vs))
        return blocked

    monkeypatch.setattr(deflate_analysis, "_insertion_creates", counting_test)
    # the second case is the corpus row of basis length 7
    cases = [(P("25173486"), PermClass.of("251364")), (P("2 6 1 3 9 4 5 7 10 8"), PermClass.of("2613475"))]
    for host, c in cases:
        built.clear()
        assert shading_grid(host, c).blocked
        assert not built
        opened.clear()
        # two levels, the last one on bond-splitting slots only, and no
        # simple member at either
        assert _bfs_extension(host, c, len(host) + 2) is None
        assert opened and built == opened


def test_extend_validates_inputs():
    with pytest.raises(ValueError):
        extend_to_simple(P("321"), PermClass.of("321"), 8)
    with pytest.raises(ValueError):
        extend_to_simple(P("2413"), PermClass.of("321"), 3)
    # no extension is longer than MAX_LENGTH: the tree's message, at once
    too_long = "^max_len 4097 exceeds the supported maximum 4096$"
    with pytest.raises(ValueError, match=too_long):
        extend_to_simple(P("25173486"), PermClass.of("251364"), perm_core.MAX_LENGTH + 1)


def test_extend_refuses_a_basis_element_too_long_to_fire(monkeypatch, capsys):
    # one new entry in a member of length n completes no pattern longer than
    # n + 1, so the kernels of a length-4096 basis element refuse every cell
    # the greedy breaks and the breadth-first search ask, without building a
    # child, and their texts are no longer than a length-9 pattern's; the
    # output is what it was when no kernel of it was built.  "1 2 3" reaches
    # its simple extension by the search, "2 3 5 1 4" by one break
    rng = random.Random(4096)
    long = tuple(rng.sample(range(1, perm_core.MAX_LENGTH + 1), perm_core.MAX_LENGTH))
    text = " ".join(map(str, long))
    cases = [
        ("1 2 3", "6", "simple extension: 2 4 1 5 3\n"),
        ("2 3 5 1 4", "7", "simple extension: 3 1 4 6 2 5\n  break at slot (2 1) -> 3 1 4 6 2 5\n"),
    ]
    for perm, max_len, expected in cases:
        assert run(["extend", "--perm", perm, "--basis", text, "--max-len", max_len]) == 0
        assert capsys.readouterr().out == expected
    # beside 7654321, which a random element would contain and so drop
    # from the basis, the identity of length 4096 stays and changes nothing
    identity = tuple(range(1, perm_core.MAX_LENGTH + 1))
    c = PermClass((Permutation(identity), P("7654321")))
    assert len(c.basis) == 2
    for perm in ("2 3 5 1 4", "2 1 3"):
        assert extend_to_simple(P(perm), c, 7) == extend_to_simple(P(perm), PermClass.of("7654321"), 7)
    sources = {}

    def keeping_compile(source, filename, mode):
        sources[filename] = source
        return compile(source, filename, mode)

    monkeypatch.setattr(perm_core, "compile", keeping_compile, raising=False)
    for mode in ("plain", "slot", "top"):
        kernels = [perm_core._emit_kernel.__wrapped__(pat, mode) for pat in (long, identity[:9])]
        names = [kernel.__code__.co_filename for kernel in kernels]
        assert len({len(sources[name].splitlines()) for name in names}) == 1, mode
    inserts = []
    monkeypatch.setattr(perm_core, "_insert_raw", lambda *args: inserts.append(args) or _insert_raw(*args))
    slot = perm_core._emit_kernel(long, "slot")
    for _ in range(40):
        vals = tuple(rng.sample(range(1, 9), 8))
        assert not any(slot(vals, ps, vs) for ps in range(1, 10) for vs in range(1, 10)), vals
    assert not inserts


def test_extend_agrees_with_simple_containment_search():
    # reachability by one-point extensions == containment in some simple
    # member, thanks to downward closure; spot-check both directions
    c = PermClass.of("231")
    simples = [s.values for s in enumerate_simples(c, 6)]
    for w in enumerate_class(c, 4):
        res = extend_to_simple(w, c, 6)
        contained = any(len(s) >= len(w) and _contains_any(w.values, s) for s in simples)
        assert (res is not None) == contained


# ---------------------------------------------------------------------------
# the marker condition and the classifier
# ---------------------------------------------------------------------------


def test_condition_ddagger():
    assert condition_ddagger(P("153264")) is True
    assert condition_ddagger(P("1432")) is False
    assert condition_ddagger(P("15432")) is False  # the 2 sits last
    with pytest.raises(ValueError):
        condition_ddagger(P("2134"))
    with pytest.raises(ValueError):
        condition_ddagger(P("132"))


def test_classifier_spec_examples():
    cases = {
        "123456": ("non_deflatable", "T3.1"),
        "2413": ("non_deflatable", "P5.1"),
        "251364": ("deflatable", "witness-table"),
        "25314": ("unknown", "unknown"),
    }
    for text, expected in cases.items():
        verdict = classify_principal(P(text))
        assert (verdict.status, verdict.rule) == expected


def test_classifier_base_cases():
    assert classify_principal(P("1")).rule == "degenerate"
    for t in ("12", "21"):
        v = classify_principal(P(t))
        assert (v.status, v.rule) == ("deflatable", "base-12")
    for t in ("132", "213", "231", "312"):
        v = classify_principal(P(t))
        assert (v.status, v.rule) == ("deflatable", "base-231")
    for t in ("123", "321"):
        assert classify_principal(P(t)).status == "non_deflatable"


def test_classifier_length_4_rules():
    expected = {
        "1234": "T3.1",
        "1243": "T3.1",
        "1324": "T3.1",
        "1342": "T3.3",
        "1432": "T3.5",
        "2143": "T3.2",
        "2413": "P5.1",
    }
    for text, rule in expected.items():
        verdict = classify_principal(P(text))
        assert verdict.status == "non_deflatable"
        assert verdict.rule == rule, (text, verdict)


def test_classifier_bond_rules_at_length_5():
    # hand-checked hypothesis matches
    assert classify_principal(P("14523")).rule == "T3.3"  # tail 3412, no decreasing bond
    assert classify_principal(P("15432")).rule == "T3.5"  # 1 n ... 2, no increasing bond
    assert classify_principal(P("15342")).rule == "T3.7"  # 1 n ... 2, no decreasing bond
    assert classify_principal(P("14532")).rule == "T3.8"  # 1 z ... 2 with z = 4


def _ref_t34(vals):
    rho = _one_plus_tail(vals)
    if rho is None or len(vals) < 4 or rho[0] < rho[1]:
        return False
    return not _has_bond(rho, "increasing") and _ddagger_raw(vals)


def _ref_t35(vals):
    return _form_1n2(vals) and not _has_bond(vals[1:], "increasing")


def _ref_t36(vals):
    rho = _one_plus_tail(vals)
    if rho is None or len(vals) < 4 or rho[0] < rho[1]:
        return False
    return not _has_bond(rho, "decreasing") and _ddagger_raw(vals)


def _ref_t37(vals):
    return _form_1n2(vals) and not _has_bond(vals, "decreasing")


def test_bond_kind_rules_match_one_predicate_per_theorem():
    rules = {rule: pred for rule, _, _, pred in _RULES}
    refs = {"T3.4": _ref_t34, "T3.5": _ref_t35, "T3.6": _ref_t36, "T3.7": _ref_t37}
    for n in range(1, 9):
        for vals in itertools.permutations(range(1, n + 1)):
            for rule, ref in refs.items():
                assert rules[rule](vals) == ref(vals), (rule, vals)


#: The classifier's tables as they stood when labels, statuses and
#: hypotheses were written in two tables and four literal predicates.
_OLD_RULE_LABELS = {
    "degenerate": "single-point-basis",
    "base-12": "monotone",
    "base-231": "short-base",
    "T3.1": "three-sum",
    "T3.2": "two-sum",
    "T3.3": "ascent-missing-bond",
    "T3.4": "descent-no-increasing-bond",
    "T3.5": "1n...2-no-increasing-bond",
    "T3.6": "descent-no-decreasing-bond",
    "T3.7": "1n...2-no-decreasing-bond",
    "T3.8": "1z...2",
    "P5.1": "2413",
    "witness-table": "known-witness",
    "unknown": "undecided",
}


def _old_pred_degenerate(vals):
    return len(vals) == 1


def _old_pred_base_12(vals):
    return vals in ((1, 2), (2, 1))


def _old_pred_base_231(vals):
    return vals == (2, 3, 1)


def _old_pred_p51(vals):
    return vals == (2, 4, 1, 3)


_OLD_RULES = (
    ("degenerate", STATUS_DEFLATABLE, _old_pred_degenerate),
    ("base-12", STATUS_DEFLATABLE, _old_pred_base_12),
    ("base-231", STATUS_DEFLATABLE, _old_pred_base_231),
    ("T3.1", STATUS_NON_DEFLATABLE, _pred_three_sum),
    ("T3.2", STATUS_NON_DEFLATABLE, _pred_two_sum),
    ("T3.3", STATUS_NON_DEFLATABLE, _pred_t33),
    ("T3.4", STATUS_NON_DEFLATABLE, lambda vals: _pred_descent_no_bond("increasing", vals)),
    ("T3.5", STATUS_NON_DEFLATABLE, lambda vals: _pred_1n2_no_bond("increasing", vals)),
    ("T3.6", STATUS_NON_DEFLATABLE, lambda vals: _pred_descent_no_bond("decreasing", vals)),
    ("T3.7", STATUS_NON_DEFLATABLE, lambda vals: _pred_1n2_no_bond("decreasing", vals)),
    ("T3.8", STATUS_NON_DEFLATABLE, _pred_t38),
    ("P5.1", STATUS_NON_DEFLATABLE, _old_pred_p51),
    ("witness-table", STATUS_DEFLATABLE, _pred_witness_table),
)


def _old_classify(pi):
    images = [(sym, perm_core._SYMMETRY_FUNCS[sym](pi.values)) for sym in SYMMETRY_ORDER]
    for rule, status, pred in _OLD_RULES:
        for sym, image in images:
            if pred(image):
                return TheoremVerdict(status, rule, sym)
    return TheoremVerdict("unknown", "unknown", perm_core.Symmetry.IDENTITY)


def _old_describe(verdict):
    label = _OLD_RULE_LABELS.get(verdict.rule, "")
    shown = f"{verdict.rule} {label}" if label else verdict.rule
    return f"{verdict.status} ({shown})"


def test_rule_labels_are_the_table_of_rules():
    assert RULE_LABELS == _OLD_RULE_LABELS
    assert list(RULE_LABELS) == list(_OLD_RULE_LABELS)
    assert [row[0] for row in _RULES] == [rule for rule, _, _ in _OLD_RULES]
    assert all(label == RULE_LABELS[rule] for rule, label, _, _ in _RULES)


def test_one_table_of_rules_matches_the_two_tables_to_8():
    # same verdict (status, rule and symmetry) and the same display on
    # every principal class with a basis of length <= 8
    for n in range(1, 9):
        for q in itertools.permutations(range(1, n + 1)):
            pi = Permutation(q)
            verdict, old = classify_principal(pi), _old_classify(pi)
            assert verdict == old, q
            assert verdict.describe() == _old_describe(old), q


def test_classifier_symmetry_invariance_to_5():
    for n in range(1, 6):
        for pi in all_perms(n):
            base = classify_principal(pi)
            for sym in SYMMETRY_ORDER:
                image = classify_principal(apply_symmetry(pi, sym))
                assert image.status == base.status
                assert image.rule == base.rule


def test_classifier_soundness_cross_checks():
    for basis_vals in sorted(known_deflatable_bases()):
        for sym in SYMMETRY_ORDER:
            image = apply_symmetry(Permutation(basis_vals), sym)
            assert classify_principal(image).status != "non_deflatable"
    for text in ("2413", "3142", "321", "123", "1234", "2143", "1342"):
        assert classify_principal(P(text)).status != "deflatable"


# ---------------------------------------------------------------------------
# bounded empirical checks
# ---------------------------------------------------------------------------


def test_empirical_av231_reports_uncovered():
    report = empirical_deflatability(PermClass.of("231"), 4, 10)
    assert not report.covered
    uncovered = {str(u.member) for u in report.uncovered}
    # every member of length >= 3 is uncovered: the only simples are 1, 12, 21
    assert "1 2 3" in uncovered and "3 2 1" in uncovered
    assert len(uncovered) == 5 + 14


def test_empirical_av21_uncovered():
    report = empirical_deflatability(PermClass.of("21"), 3, 5)
    assert [str(u.member) for u in report.uncovered] == ["1 2 3"]


def test_empirical_av2413_small_bounds_covered():
    report = empirical_deflatability(PermClass.of("2413"), 4, 8)
    assert report.covered
    assert report.members_checked == 1 + 2 + 6 + 23


def test_the_cover_check_to_length_10_stays_small_in_a_subprocess():
    # the tree keeps its last level as the parents and their masks, so the
    # paper's check of Av(2413) to length 10 never holds the 555 662 members
    # of length 10: its peak RSS reads about 30 MiB, against about 100 MiB
    # when the tree built them.  A process inherits the ``ru_maxrss`` of
    # the one that forked it, so the check runs as the child of a fresh
    # interpreter, which reads its peak through RUSAGE_CHILDREN
    work = (
        "from permdeflate.class_engine import PermClass\n"
        "from permdeflate.deflate_analysis import empirical_deflatability\n"
        "report = empirical_deflatability(PermClass.of('2413'), 6, 10)\n"
        "print(report.covered, report.members_checked)\n"
    )
    launcher = (
        "import resource, subprocess, sys\n"
        f"run = subprocess.run([sys.executable, '-c', {work!r}], capture_output=True, text=True)\n"
        "sys.stderr.write(run.stderr)\n"
        "peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(run.returncode, run.stdout.strip(), peak_kib)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", launcher], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0 and proc.stdout.split()[0] == "0", proc.stderr
    _, covered, checked, peak_kib = proc.stdout.split()
    assert covered == "True" and int(checked) == 1 + 2 + 6 + 23 + 103 + 512
    assert int(peak_kib) < 64 * 1024, f"peak RSS {int(peak_kib) / 1024:.1f} MiB"


def test_empirical_validates_bounds():
    with pytest.raises(ValueError):
        empirical_deflatability(PermClass.of("231"), 5, 4)
    # the message names the parameter the caller passed
    too_long = "^search_len 5000 exceeds the supported maximum 4096$"
    with pytest.raises(ValueError, match=too_long):
        empirical_deflatability(PermClass.of("12", "21"), 1, 5000)


def test_empirical_certificates_match_bond_certificate():
    # uncovered members are certified without a second membership proof;
    # the certificates must equal those of the guarded public entry
    c = PermClass.of("231")
    report = empirical_deflatability(c, 4, 10)
    assert len(report.uncovered) == 19
    assert sum(u.certificate is not None for u in report.uncovered) == 16
    for u in report.uncovered:
        assert u.certificate == bond_certificate(u.member, c)


def _check_strip_walk(vals, i, w):
    """The walk of the bond (i, w) of ``vals`` against its oracle, the
    sorted ``_cut_slot_pairs``: with a stub that opens no cell, then each
    cell in turn, it must ask exactly the oracle's prefix up to and
    including the open cell, in order, and lock only when none is open.  A
    bond of length 2 is the whole permutation: nothing asked, no lock."""
    cells = list(_cut_slot_pairs(len(vals), i, i + 1, w, w + 1))
    for stop, opened in [(len(cells), None), *enumerate(cells, start=1)]:
        asked = []

        def blocked(host, ps, vs):
            assert host is vals
            asked.append((ps, vs))
            return (ps, vs) != opened and (ps, vs)  # the reach of the cell alone

        locks = opened is None and len(vals) > 2
        assert _strips_locked(vals, blocked, i, w) is locks, (vals, i, w, opened)
        assert asked == cells[:stop], (vals, i, w, opened)


@pytest.mark.parametrize("basis", ["25314", "2413,3142"])
def test_strip_walk_asks_the_sorted_cut_slots_on_every_class_bond(basis):
    walked = 0
    for level in _class_levels(PermClass.of(*basis.split(",")), 7):
        for vals in level:
            for i, _, w in _bond_scan(vals):
                _check_strip_walk(vals, i, w)
                walked += 1
    assert walked > 1000


def test_strip_walk_asks_the_sorted_cut_slots_on_random_hosts_with_edge_bonds():
    # every bond position and low value, both kinds, around seeded random
    # entries, for n = 2..12: the runs left of i = 1, below w = 1, above
    # w = n - 1 and right of i = n - 1 are empty
    rng = random.Random(28)
    for n in range(2, 13):
        for i, w in itertools.product(range(1, n), repeat=2):
            for pair in ((w, w + 1), (w + 1, w)):
                rest = [v for v in range(1, n + 1) if v not in pair]
                rng.shuffle(rest)
                vals = (*rest[: i - 1], *pair, *rest[i - 1 :])
                kind = "increasing" if pair[0] < pair[1] else "decreasing"
                assert (i, kind, w) in _bond_scan(vals)
                _check_strip_walk(vals, i, w)


def _empirical_by_every_target(c: PermClass, cover_len: int, search_len: int) -> EmpiricalReport:
    """Oracle for orbit settling: the coverage scan before it, which tests
    every non-simple target for containment in a longer simple member."""
    targets, simples = [], []
    for n, level in enumerate(_class_levels(c, search_len), start=1):
        if n <= cover_len:
            targets.extend(level)
        simples.extend(vals for vals in level if _is_simple(vals))
    recent, uncovered_vals = [], []
    for vals in targets:
        if _is_simple(vals):
            continue
        hit = next((s for s in recent if len(s) >= len(vals) and _contains_any(vals, s)), None)
        if hit is None:
            hit = next((s for s in simples if len(s) > len(vals) and _contains_any(vals, s)), None)
            if hit is not None:
                recent.insert(0, hit)
                del recent[8:]
        if hit is None:
            uncovered_vals.append(vals)
    blocked = _slot_test(c)
    uncovered = tuple(
        UncoveredMember(Permutation(vals), _locked_strips(vals, blocked)) for vals in uncovered_vals
    )
    return EmpiricalReport(c, cover_len, search_len, len(targets), uncovered)


@pytest.mark.parametrize(
    "basis, cover_len, search_len, order, uncovered",
    [
        ("1342", 5, 9, 1, 0),
        ("231", 4, 10, 2, 19),
        ("251364", 6, 9, 2, 2),
        ("2413", 5, 9, 4, 0),
        ("2413,3142", 5, 8, 8, 118),
    ],
)
def test_orbit_settling_matches_scanning_every_target(basis, cover_len, search_len, order, uncovered):
    # one scan per orbit of the class's stabilizer gives the same report,
    # members, order and certificates, as one scan per target
    c = PermClass.of(*basis.split(","))
    assert len(_class_symmetries(c)) == order
    report = empirical_deflatability(c, cover_len, search_len)
    assert report == _empirical_by_every_target(c, cover_len, search_len)
    assert len(report.uncovered) == uncovered


def test_orbit_settling_matches_scanning_every_target_on_random_bases():
    rng = random.Random(26)
    orders, uncovered = set(), 0
    for _ in range(30):
        c = PermClass(
            tuple(
                Permutation(tuple(rng.sample(range(1, k + 1), k)))
                for k in (rng.randint(3, 6) for _ in range(rng.randint(1, 2)))
            )
        )
        report = empirical_deflatability(c, 4, 7)
        assert report == _empirical_by_every_target(c, 4, 7), str(c)
        orders.add(len(_class_symmetries(c)))
        uncovered += len(report.uncovered)
    assert len(orders) > 1 and uncovered > 0


def test_orbit_settling_scans_one_target_per_orbit(monkeypatch):
    # Av(2413) is fixed by 4 symmetries: 291 containment tests here,
    # against 1 508 when every target is scanned
    calls = 0

    def counted(pat, host):
        nonlocal calls
        calls += 1
        return _contains_any(pat, host)

    monkeypatch.setattr(deflate_analysis, "_contains_any", counted)
    assert empirical_deflatability(PermClass.of("2413"), 5, 9).covered
    assert 0 < calls < 400
