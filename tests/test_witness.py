"""Bond certificates, witness search, parallel alternations, the family."""

from __future__ import annotations

import itertools

import pytest

from permdeflate.perm_core import (
    Bond,
    Permutation,
    Slot,
    SYMMETRY_ORDER,
    apply_symmetry,
    parse_permutation,
)
from permdeflate.class_engine import PermClass, avoids, shading_grid
from permdeflate.deflate_analysis import extend_to_simple
from permdeflate.witness import (
    bond_certificate,
    bond_strip_slots,
    find_witnesses,
    inflation_family,
    known_deflatable_bases,
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


def test_find_witnesses_none_in_av321():
    assert find_witnesses(PermClass.of("321"), 8, limit=1) == []


def test_find_witnesses_empty_class():
    assert find_witnesses(PermClass.of("1"), 6, limit=3) == []


def test_find_witnesses_validates_arguments():
    with pytest.raises(ValueError):
        find_witnesses(PermClass.of("321"), 0, 1)
    with pytest.raises(ValueError):
        find_witnesses(PermClass.of("321"), 5, 0)


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
