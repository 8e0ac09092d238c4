"""Bond certificates, witness search, parallel alternations, the family."""

from __future__ import annotations

import itertools
import json
import re
from functools import lru_cache

import pytest

from permdeflate import perm_core, witness
from permdeflate.cli import run
from permdeflate.perm_core import (
    MAX_LENGTH,
    Bond,
    ParseError,
    Permutation,
    Slot,
    SYMMETRY_ORDER,
    apply_symmetry,
    parse_permutation,
    _bond_scan,
)
from permdeflate.class_engine import (
    PermClass,
    ShadingGrid,
    _candidates,
    _class_levels,
    _slot_test,
    _top_test,
    avoids,
    enumerate_class,
    shading_grid,
)
from permdeflate.deflate_analysis import (
    _certificate,
    _strips_locked,
    extend_to_simple,
    known_deflatable_bases,
)
from permdeflate.witness import (
    bond_certificate,
    bond_strip_slots,
    find_witnesses,
    inflation_family,
    load_corpus,
    parallel_alternation,
    verify_corpus,
)

P = parse_permutation


# ---------------------------------------------------------------------------
# strip geometry
# ---------------------------------------------------------------------------


def test_strip_slots_match_reference_cells():
    # increasing bond at positions (3,4), values {3,4}, inside a 6-host:
    # two cells at each end of both strips
    cells = {(s.pos_slot, s.val_slot) for s in bond_strip_slots(6, Bond(3, "increasing", 3))}
    assert cells == {(4, 1), (4, 2), (4, 6), (4, 7), (1, 4), (2, 4), (6, 4), (7, 4)}


def test_strip_slot_count_two_ways():
    for n in range(2, 11):
        for i in range(1, n):
            for kind, w in (("increasing", 2), ("decreasing", 3)):
                if w + 1 > n:
                    continue
                bond = Bond(i, kind, w)
                cells = bond_strip_slots(n, bond)
                assert len(cells) == 2 * (n + 1) - 6
                # independent enumeration: walk the full strips and drop the
                # crossing cell plus the four adjacent cells
                direct = set()
                for vs in range(1, n + 2):
                    direct.add(Slot(i + 1, vs))
                for ps in range(1, n + 2):
                    direct.add(Slot(ps, w + 1))
                exempt = {
                    Slot(i + 1, w + 1),
                    Slot(i + 1, w),
                    Slot(i + 1, w + 2),
                    Slot(i, w + 1),
                    Slot(i + 2, w + 1),
                }
                assert cells == frozenset(direct - exempt)


def test_strips_are_symmetric_for_both_orientations():
    assert bond_strip_slots(8, Bond(5, "increasing", 3)) == bond_strip_slots(
        8, Bond(5, "decreasing", 3)
    )


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_certificate_on_the_bundled_witness():
    witness, cls = P("25173486"), PermClass.of("251364")
    cert = bond_certificate(witness, cls)
    assert cert is not None
    assert (cert.bond.left_pos, cert.bond.kind, cert.bond.low_value) == (5, "increasing", 3)
    grid = shading_grid(witness, cls)
    assert all(grid.is_blocked(slot) for slot in cert.checked_slots)


def test_certificate_absent_without_bonds():
    assert bond_certificate(P("2413"), PermClass.of("321")) is None


def test_whole_permutation_bond_certifies_nothing():
    # for 12 and 21 every strip cell is exempt; the vacuous condition must
    # not count as a certificate (both extend to simple members)
    assert bond_certificate(P("21"), PermClass.of("321")) is None
    assert bond_certificate(P("12"), PermClass.of("231")) is None
    assert find_witnesses(PermClass.of("321"), 3, limit=1) == []


def test_certificate_requires_membership():
    with pytest.raises(ValueError, match="not a member"):
        bond_certificate(P("251364"), PermClass.of("251364"))


def test_certificate_for_long_table_row():
    cert = bond_certificate(
        P("6 8 9 3 4 1 10 14 7 13 5 12 11 2"), PermClass.of("1 3 4 6 5 2")
    )
    assert cert is not None


def test_certificate_soundness_desk_scale():
    # a certificate claims no simple extension exists at any length; verify
    # exhaustively three levels up for the two shortest bundled witnesses
    for witness_text, basis_text in (
        ("2 5 1 7 3 4 8 6", "2 5 1 3 6 4"),
        ("2 6 1 8 4 3 7 9 5", "2 5 1 4 6 3"),
    ):
        witness = P(witness_text)
        c = PermClass.of(basis_text)
        assert bond_certificate(witness, c) is not None
        assert extend_to_simple(witness, c, len(witness) + 3) is None


def test_certificate_commutes_with_symmetries():
    witness = P("25173486")
    c = PermClass.of("251364")
    for sym in SYMMETRY_ORDER:
        image = apply_symmetry(witness, sym)
        image_class = PermClass((apply_symmetry(c.basis[0], sym),))
        assert bond_certificate(image, image_class) is not None


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_find_witnesses_in_av251364():
    reports = find_witnesses(PermClass.of("251364"), 8, limit=1)
    assert len(reports) == 1
    report = reports[0]
    assert report.witness == P("25173486")
    assert report.cross_check_bound == 10
    assert avoids(report.witness, PermClass.of("251364"))


@pytest.mark.parametrize("basis, length", [("251364", 8), ("251463", 9)])
def test_the_short_corpus_witnesses_have_the_least_certified_length(basis, length):
    # the search walks lengths in order: no member one shorter than the
    # corpus witness carries a certificate, and the first certified member
    # of the witness's length is the corpus witness itself
    c = PermClass.of(basis)
    w = next(w for b, w in load_corpus() if PermClass((b,)) == c)
    assert len(w) == length
    assert find_witnesses(c, length - 1) == []
    assert [r.witness for r in find_witnesses(c, length, 1)] == [w]


def test_find_witnesses_none_in_av321():
    assert find_witnesses(PermClass.of("321"), 8, limit=1) == []


def test_find_witnesses_empty_class():
    assert find_witnesses(PermClass.of("1"), 6, limit=3) == []


def _kernel_lines(monkeypatch, pat):
    """The line count of each mode's kernel text for ``pat``, compiled past
    the caches, in the order plain, slot, top."""
    sources = {}

    def keeping_compile(source, filename, mode):
        sources[filename] = source
        return compile(source, filename, mode)

    with monkeypatch.context() as m:
        m.setattr(perm_core, "compile", keeping_compile, raising=False)
        factories = (perm_core._search_kernel, perm_core._slot_kernel, perm_core._top_kernel)
        kernels = [factory.__wrapped__(pat) for factory in factories]
    return [len(sources[kernel.__code__.co_filename].splitlines()) for kernel in kernels]


def test_a_bounded_search_refuses_a_basis_element_too_long_to_fire(monkeypatch):
    # a member of length <= max_len with one new entry is at most max_len + 1
    # long, so a longer basis element never fires: its kernels refuse such a
    # member without building a child, and their texts are no longer than a
    # length-9 pattern's.  The identity of length 4096 avoids 7654321, so
    # the class keeps both, and it must answer as Av(7654321) does
    long = tuple(range(1, MAX_LENGTH + 1))
    text = " ".join(map(str, long))
    assert run(["witness", "search", "--basis", text, "--max-len", "4"]) == 1
    c, short = PermClass((Permutation(long), P("7654321"))), PermClass.of("7654321")
    assert len(c.basis) == 2

    def found(cls):
        return [(r.witness, r.certificate) for r in find_witnesses(cls, 8, 1)]

    assert found(c) == found(short)
    assert [len(level) for level in _class_levels(c, 8)] == [
        len(level) for level in _class_levels(short, 8)
    ]
    argv = ["witness", "check", "--perm", "6 5 4 3 2 1", "--basis", text + ",7654321"]
    assert run(argv) == 1
    assert find_witnesses(PermClass.of("2 4 6 1 3 5 7"), 6, 1) == []
    assert _kernel_lines(monkeypatch, long) == _kernel_lines(monkeypatch, (2, 4, 6, 8, 1, 3, 5, 7, 9))
    inserts = []
    insert_raw = perm_core._insert_raw
    monkeypatch.setattr(perm_core, "_insert_raw", lambda *args: inserts.append(args) or insert_raw(*args))
    slot, top = perm_core._slot_kernel(long), perm_core._top_kernel(long)
    members = list(_class_levels(short, 8))[-1]
    for vals in itertools.islice(members, 40):
        assert not any(slot(vals, ps, vs) for ps in range(1, 10) for vs in range(1, 10)), vals
        assert top(vals, vals.index(8), 0b111111111) == 0b111111111, vals
    assert not inserts


def test_find_witnesses_validates_arguments():
    with pytest.raises(ValueError):
        find_witnesses(PermClass.of("321"), 0, 1)
    with pytest.raises(ValueError):
        find_witnesses(PermClass.of("321"), 5, 0)


def _cert_key(cert):
    return None if cert is None else (cert.bond, cert.checked_slots)


def _grid(vals, c):
    """The cell test of an unguarded ``ShadingGrid`` in the slot test's form:
    a blocked cell's reach is the cell itself, so a walk asks every cell.
    The oracle of the certificate walk, which skips each reach."""
    grid = ShadingGrid(Permutation(vals), c)
    return lambda _vals, ps, vs: grid.is_blocked(Slot(ps, vs)) and (ps, vs)


@lru_cache(maxsize=None)
def _public_certificates(basis, max_len):
    """(member, public certificate or None) in enumeration order; shared by
    the differential and the order tests."""
    c = PermClass.of(*basis.split(","))
    return [(member, bond_certificate(member, c)) for member in enumerate_class(c, max_len)]


@pytest.mark.parametrize(
    "basis, max_len",
    [
        ("251364", 8),
        ("2413", 8),
        ("321", 8),
        ("2 4 6 8 1 3 5 7", 8),
        ("25314", 7),
        ("24153", 7),
        ("23514", 7),
        ("24513", 7),
    ],
)
def test_raw_certificate_scan_matches_public_certificate(basis, max_len):
    # the search path skips the membership guard; on every tree member it
    # must find the public path's bond and cells, and both must match a walk
    # that asks every cell of the grid
    c = PermClass.of(basis)
    tree = [vals for level in _class_levels(c, max_len) for vals in level]
    public = _public_certificates(basis, max_len)
    assert [member.values for member, _ in public] == tree
    blocked = _slot_test(c)
    certified = 0
    for (_, cert), vals in zip(public, tree):
        raw = witness._locked_strips(vals, blocked)
        assert _cert_key(raw) == _cert_key(cert), vals
        assert _cert_key(witness._locked_strips(vals, _grid(vals, c))) == _cert_key(cert), vals
        certified += raw is not None
    assert (certified > 0) == (basis == "251364")


def test_raw_certificate_scan_matches_public_certificate_on_the_corpus():
    # an unguarded grid and the class's slot test, walked straight, against
    # the public path on every published row (k = 6 to 14)
    for basis, w in load_corpus():
        c = PermClass((basis,))
        public = _cert_key(bond_certificate(w, c))
        assert public is not None, w
        assert _cert_key(witness._locked_strips(w.values, _grid(w.values, c))) == public
        assert _cert_key(witness._locked_strips(w.values, _slot_test(c))) == public


def test_public_certificate_asks_one_cell_per_occurrence(monkeypatch):
    # the length-35 corpus row: the walk with reaches asks 17 of the 66
    # strip cells, and they make 89 forward checks; asking every cell made 297
    basis, w = max(load_corpus(), key=lambda row: len(row[1]))
    assert len(w) == 35
    cells, checks = [], []
    forward_check, slot_test = perm_core._forward_check, witness._slot_test

    def counting_check(*args):
        checks.append(args)
        return forward_check(*args)

    def counted(c):
        blocked = slot_test(c)

        def test(vals, ps, vs):
            cells.append((ps, vs))
            with pytest.MonkeyPatch.context() as m:
                m.setattr(perm_core, "_forward_check", counting_check)
                return blocked(vals, ps, vs)

        return test

    monkeypatch.setattr(witness, "_slot_test", counted)
    cert = bond_certificate(w, PermClass((basis,)))
    assert len(cert.checked_slots) == 66
    assert len(cells) == len(set(cells)) == 17
    assert len(checks) == 89


#: Each corpus row's certifying bond (left position, kind, low value), as
#: the cell-by-cell walk found it before slot tests returned their reach.
_CORPUS_BONDS = {
    "1 3 4 6 5 2": (4, "increasing", 3),
    "2 4 6 1 3 5": (6, "increasing", 5),
    "2 4 6 5 1 3": (8, "increasing", 6),
    "2 5 1 3 6 4": (5, "increasing", 3),
    "2 5 1 4 6 3": (5, "decreasing", 3),
    "2 5 4 6 1 3": (8, "increasing", 6),
    "2 5 6 4 1 3": (7, "increasing", 5),
    "1 5 2 3 7 6 4": (7, "increasing", 6),
    "2 6 1 3 4 7 5": (6, "increasing", 4),
    "2 6 3 1 5 7 4": (6, "decreasing", 4),
    "2 4 6 8 1 3 5 7": (10, "increasing", 9),
    "2 4 6 8 10 1 3 5 7 9": (14, "increasing", 14),
    "2 4 6 8 10 12 1 3 5 7 9 11": (17, "increasing", 17),
    "2 4 6 8 10 12 14 1 3 5 7 9 11 13": (21, "increasing", 21),
}


def test_reach_walk_matches_the_cell_walk_on_every_corpus_bond():
    # the walk that skips each reach against one that asks every cell,
    # and against every cut slot asked on its own, on every bond of the 14
    # witnesses; then each certificate is the one published before
    rows = load_corpus()
    assert sorted(str(b) for b, _ in rows) == sorted(_CORPUS_BONDS)
    locked = 0
    for basis, w in rows:
        c, vals = PermClass((basis,)), w.values
        blocked = _slot_test(c)

        def each_cell(host, ps, vs):
            return bool(blocked(host, ps, vs)) and (ps, vs)

        for i, _, low in _bond_scan(vals):
            verdict = witness._strips_locked(vals, blocked, i, low)
            assert verdict == witness._strips_locked(vals, each_cell, i, low), (w, i)
            cells = bond_strip_slots(len(vals), Bond(i, "increasing", low))
            assert verdict == all(blocked(vals, s.pos_slot, s.val_slot) for s in cells), (w, i)
            locked += verdict
        cert = witness._locked_strips(vals, blocked)
        bond = (cert.bond.left_pos, cert.bond.kind, cert.bond.low_value)
        assert bond == _CORPUS_BONDS[str(basis)], w
        assert cert.checked_slots == bond_strip_slots(len(vals), cert.bond)
    assert locked >= 14


_PINNED_SEARCHES = [
    ("251364", 8, 2),
    ("12", 5, 3),
    ("321", 8, 4),
    ("2413,4135762", 8, 2),
    ("251364,214365879", 8, 2),  # k = 9: the top cells' two-pin forward check
    ("25314", 7, 1),  # the four open length-5 classes: no witness
    ("24153", 7, 1),
    ("23514", 7, 1),
    ("24513", 7, 1),
]


def test_certificates_check_exactly_the_bond_strip_slots():
    # a certificate names the cut slots of its bond, the cells its walk
    # found blocked, on every corpus row and every pinned search's witness
    certs = []
    for basis, w in load_corpus():
        c = PermClass((basis,))
        certs.append((w, bond_certificate(w, c)))
        certs.append((w, witness._locked_strips(w.values, _slot_test(c))))
    for basis, max_len, limit in _PINNED_SEARCHES:
        reports = find_witnesses(PermClass.of(*basis.split(",")), max_len, limit)
        certs.extend((r.witness, r.certificate) for r in reports)
    assert len(certs) == 2 * 14 + 7
    for w, cert in certs:
        assert cert is not None, w
        assert cert.checked_slots == bond_strip_slots(len(w), cert.bond), w


def test_class_walk_tries_every_basis_element():
    # a cell is blocked when either kernel says so; in the separable class
    # thousands of strip cells are blocked by 3142 and not by 2413
    c = PermClass.of("2413", "3142")
    blocked = _slot_test(c)
    certified = 0
    for level in _class_levels(c, 7):
        for vals in level:
            cert = witness._locked_strips(vals, blocked)
            assert _cert_key(cert) == _cert_key(witness._locked_strips(vals, _grid(vals, c))), vals
            certified += cert is not None
    assert certified > 0


def _scan_witnesses(basis, max_len, limit):
    """Test-local search: the first ``limit`` members in enumeration order
    that the public ``bond_certificate`` certifies."""
    found = [(m, cert, max_len + 2) for m, cert in _public_certificates(basis, max_len) if cert]
    return found[:limit]


@pytest.mark.parametrize("basis, max_len, limit", _PINNED_SEARCHES)
def test_find_witnesses_order_matches_public_scan(basis, max_len, limit):
    c = PermClass.of(*basis.split(","))
    reports = find_witnesses(c, max_len, limit)
    assert [(r.witness, r.certificate, r.cross_check_bound) for r in reports] == _scan_witnesses(
        basis, max_len, limit
    )
    assert all(r.class_basis == c.basis for r in reports)


def test_find_witnesses_settles_top_cells_before_the_walk(monkeypatch):
    # the walk asks the full slot test only for bonds whose top strip cell
    # is blocked: 3 899 calls here, against 13 451 when every bond is walked
    calls = 0
    slot_test = witness._slot_test

    def counted(c):
        blocked = slot_test(c)

        def test(vals, ps, vs):
            nonlocal calls
            calls += 1
            return blocked(vals, ps, vs)

        return test

    monkeypatch.setattr(witness, "_slot_test", counted)
    assert find_witnesses(PermClass.of("25314"), 7, 1) == []
    assert 0 < calls < 4500


def _per_bond_witnesses(c, max_len, limit, walked=None):
    """Test-local oracle: the per-member, per-bond scan.  Each member comes
    from ``_candidates`` with the slots it inherits open; a bond's top
    strip cell is exempt when w + 2 > n, else blocked when not inherited
    open, else asked of ``_top_test`` with that slot's one bit.  A bond
    whose top cell is not open goes to ``_strips_locked``, and is
    appended to ``walked`` as (vals, i, w) if given.  No cross-check:
    the first ``limit`` (witness, certificate, bound)."""
    blocked, top = _slot_test(c), _top_test(c)
    found = []
    for n, level in enumerate(_class_levels(c, max_len), start=1):
        for vals, s, cand in _candidates(level):
            for i, kind, w in _bond_scan(vals):
                if w + 2 > n or not cand >> i & 1 or not top(vals, s, 1 << i):
                    if walked is not None:
                        walked.append((vals, i, w))
                    if _strips_locked(vals, blocked, i, w):
                        found.append((Permutation(vals), _certificate(n, i, kind, w), max_len + 2))
                        break
            if len(found) == limit:
                return found
    return found


_DIFFERENTIAL_CLASSES = (
    "1",
    "12",
    "321",
    "251364",
    "2613475",
    "2413,3142",
    "25314",
    "24153",
    "23514",
    "24513",
)


def test_find_witnesses_matches_the_per_bond_scan(monkeypatch):
    # the scan reads each member's bonds off its parent's and its open
    # slots off the next level: it must report what the per-bond scan does,
    # on every length to 8 and every limit to 3
    early = exempt = 0
    for basis in _DIFFERENTIAL_CLASSES:
        c = PermClass.of(*basis.split(","))
        asked = []
        with monkeypatch.context() as m:
            if basis == "2413,3142":
                # every simple permutation of length >= 4 contains 2413 or
                # 3142, so the cross-check of a separable witness finds
                # nothing, after seconds at length 10: record it instead
                m.setattr(witness, "extend_to_simple", lambda p, c, bound: asked.append((p, bound)))
            for max_len in range(1, 9):
                expected = _per_bond_witnesses(c, max_len, 3)
                for limit in (1, 2, 3):
                    reports = find_witnesses(c, max_len, limit)
                    got = [(r.witness, r.certificate, r.cross_check_bound) for r in reports]
                    assert got == expected[:limit], (basis, max_len, limit)
                    early += len(got) == limit and len(got[-1][0]) < max_len
                    exempt += any(len(w) - 1 == cert.bond.low_value for w, cert, _ in got)
                    if basis == "2413,3142":
                        assert asked == [(w, bound) for w, _, bound in got]
                        asked.clear()
    # a limit reached below max_len, and a certificate on the (n - 1, n)
    # bond, whose top strip cell is exempt, as Av(12)'s 3 2 1
    assert early > 0 and exempt > 0
    (w, cert, _), = _per_bond_witnesses(PermClass.of("12"), 8, 1)
    assert (w, cert.bond) == (P("321"), Bond(1, "decreasing", 2))


@pytest.mark.parametrize(
    "basis, max_len, limit", [("25314", 7, 1), ("251364", 8, 2), ("321", 7, 1), ("12", 5, 3)]
)
def test_find_witnesses_asks_the_top_test_only_on_its_last_level(monkeypatch, basis, max_len, limit):
    # below max_len the next level's masks settle every top strip cell; on
    # the last level one call per member settles all of its bonds.  The
    # bonds walked are the per-bond scan's, in its order
    asked, walked = [], []
    top_test = witness._top_test

    def counted(c):
        top = top_test(c)

        def test(vals, s, cand):
            asked.append(vals)
            return top(vals, s, cand)

        return test

    def walk(vals, blocked, i, w):
        walked.append((vals, i, w))
        return _strips_locked(vals, blocked, i, w)

    monkeypatch.setattr(witness, "_top_test", counted)
    monkeypatch.setattr(witness, "_strips_locked", walk)
    c = PermClass.of(basis)
    find_witnesses(c, max_len, limit)
    expected = []
    _per_bond_witnesses(c, max_len, limit, expected)
    assert walked == expected
    assert {len(vals) for vals in asked} <= {max_len}
    assert len(set(asked)) == len(asked)
    # a member of Av(12) inherits no bond's slot open, so it asks none
    assert (len(asked) > 0) == (basis != "12")


@pytest.mark.parametrize("basis, max_len, limit, found", [("251364", 8, 2, 1), ("25314", 7, 1, 0)])
def test_find_witnesses_reads_levels_through_a_re_yielding_wrapper(
    monkeypatch, basis, max_len, limit, found
):
    # the benchmark's tracer and its cover workload wrap ``_class_levels``
    # in a plain generator that re-yields each level: the search must get
    # the tree's own level objects through it
    c = PermClass.of(basis)
    reports = find_witnesses(c, max_len, limit)
    assert len(reports) == found
    levels = witness._class_levels

    def observed(*args):
        for level in levels(*args):
            yield level

    monkeypatch.setattr(witness, "_class_levels", observed)
    assert find_witnesses(c, max_len, limit) == reports


@pytest.mark.parametrize(
    "basis, max_len, found, position, kind",
    [("12", 5, "3 2 1", 1, "decreasing"), ("251364", 8, "2 5 1 7 3 4 8 6", 5, "increasing")],
)
def test_witness_search_json_is_pinned(capsys, basis, max_len, found, position, kind):
    argv = ["witness", "search", "--basis", basis, "--max-len", str(max_len), "--json"]
    assert run(argv) == 0
    report = json.loads(capsys.readouterr().out)
    report.pop("timing_ms")
    row = {
        "witness": found,
        "bond_position": position,
        "bond_kind": kind,
        "cross_check_bound": max_len + 2,
    }
    assert report == {
        "command": "witness search",
        "inputs": {"basis": [" ".join(basis)], "max_len": max_len, "limit": 1},
        "results": {"witnesses": [row]},
    }


@pytest.mark.parametrize("basis", ["25314", "24153", "23514", "24513"])
def test_witness_search_finds_none_in_the_open_classes_to_7(capsys, basis):
    # pinned bytes, minus timing_ms: no member of length <= 7 certifies
    argv = ["witness", "search", "--basis", basis, "--max-len", "7", "--json"]
    assert run(argv) == 1
    out = re.sub(r', "timing_ms": \d+', "", capsys.readouterr().out)
    spaced = json.dumps(" ".join(basis))
    assert out == (
        '{"command": "witness search", "inputs": {"basis": [' + spaced + '], "max_len": 7, '
        '"limit": 1}, "results": {"witnesses": []}}\n'
    )


def test_find_witnesses_keeps_its_cross_check(monkeypatch):
    # the raw scan must still hand each certified member to the exhaustive
    # search, and a simple extension found there must stop the search
    monkeypatch.setattr(witness, "extend_to_simple", lambda p, c, bound: p)
    with pytest.raises(AssertionError, match="contradicted by a simple extension"):
        find_witnesses(PermClass.of("12"), 3, limit=1)


# ---------------------------------------------------------------------------
# parallel alternations and the inflation family
# ---------------------------------------------------------------------------


def test_parallel_alternation_values():
    assert parallel_alternation(4) == P("2413")
    assert parallel_alternation(6) == P("246135")
    assert parallel_alternation(8) == P("24681357")
    with pytest.raises(ValueError):
        parallel_alternation(5)
    with pytest.raises(ValueError):
        parallel_alternation(2)


def test_inflation_family_base_case():
    check = inflation_family(P("1"))
    assert check.pi_star == P("251364")
    assert check.omega_star == P("25173486")
    assert check.verified


def test_inflation_family_growing_blocks():
    check = inflation_family(P("12"))
    assert check.pi_star == P("2561374")
    assert len(check.omega_star) == 10
    assert check.verified
    assert inflation_family(P("21")).verified
    for theta in itertools.permutations(range(1, 4)):
        assert inflation_family(Permutation(theta)).verified


def test_inflation_family_is_mechanically_checked():
    check = inflation_family(P("312"))
    c = PermClass((check.pi_star,))
    assert avoids(check.omega_star, c)
    vals = check.omega_star.values
    i = vals.index(3)
    assert vals[i + 1] == 4
    from permdeflate.perm_core import insert

    for slot in sorted(bond_strip_slots(len(vals), Bond(i + 1, "increasing", 3))):
        assert not avoids(insert(check.omega_star, slot), c)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def test_corpus_loads_fourteen_rows():
    rows = load_corpus()
    assert len(rows) == 14
    assert all(avoids(w, PermClass((b,))) for b, w in rows)
    assert len(known_deflatable_bases()) == 14


def test_corpus_subset_verifies(tmp_path):
    subset = tmp_path / "subset.txt"
    subset.write_text(
        "2 5 1 3 6 4 | 2 5 1 7 3 4 8 6\n"
        "2 4 6 8 1 3 5 7 | 5 8 11 2 13 4 14 16 18 9 10 6 1 15 17 3 7 12\n"
    )
    rows = verify_corpus(subset)
    assert [r.passed for r in rows] == [True, True]
    assert rows[0].cross_check_bound == 10 and rows[0].cross_check_passed
    assert rows[1].cross_check_bound is None  # above the explicit-search cap


#: The rows that verify-paper leaves without a search because they are
#: longer than CROSS_CHECK_CAP; the longest, of length 35, takes about
#: 0.4 s to length + 2.
_ROWS_ABOVE_CAP = [(b, w) for b, w in load_corpus() if witness.CROSS_CHECK_CAP < len(w) <= 35]


def test_rows_above_cap_are_the_five_of_length_18_to_35():
    assert sorted(len(w) for _, w in _ROWS_ABOVE_CAP) == [18, 24, 24, 29, 35]


@pytest.mark.parametrize(
    "basis, member", _ROWS_ABOVE_CAP, ids=[str(b).replace(" ", "") for b, _ in _ROWS_ABOVE_CAP]
)
def test_corpus_row_above_cap_has_no_simple_extension(basis, member):
    assert extend_to_simple(member, PermClass((basis,)), len(member) + 2) is None


def test_corpus_empty_file(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    assert verify_corpus(empty) == []


def test_corpus_rejects_malformed_rows(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 4 1 3\n")
    with pytest.raises(ValueError, match="basis \\| witness"):
        load_corpus(bad)


def test_corpus_detects_bogus_witness(tmp_path):
    # 123 lies in Av(321) but has no certificate and extends to simples;
    # the row must fail, not raise
    bogus = tmp_path / "bogus.txt"
    bogus.write_text("3 2 1 | 1 2 3\n2 5 1 3 6 4 | 2 5 1 7 3 4 8 6\n")
    rows = verify_corpus(bogus)
    assert [r.passed for r in rows] == [False, True]
    assert rows[0].in_class  # 123 avoids 321
    assert not rows[0].certified


def test_corpus_bad_row_names_its_line(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("# basis | witness\n2 5 1 3 6 4 | 2 5 1 7 3 4 8 x\n")
    with pytest.raises(ParseError, match=":2: bad token 'x'"):
        load_corpus(bad)


def test_verify_corpus_proves_membership_once(monkeypatch):
    # verify_corpus proves membership with its own avoids, once per row; a
    # second proof, through bond_certificate's guard, would be wasted work
    calls = []
    proof = witness.avoids
    monkeypatch.setattr(witness, "avoids", lambda p, c: calls.append(p) or proof(p, c))
    rows = verify_corpus()
    assert len(rows) == 14
    assert all(r.passed for r in rows)
    assert calls == [w for _, w in load_corpus()]
