"""The package's value types: plain records are ``typing.NamedTuple``s, and
``Permutation``, ``PermClass`` and ``DecompositionTree`` are slotted classes.
Each keeps its field order, its repr text, its hash formula and its
immutability, and ``Slot`` and ``IntervalSpan`` order by their fields."""

from __future__ import annotations

import copy
import itertools
import pickle

import pytest

from permdeflate import (
    Bond,
    BondCertificate,
    BreakReport,
    CorpusRowResult,
    DecompositionTree,
    EmbeddingTrace,
    EmpiricalReport,
    IntervalSpan,
    Occurrence,
    PermClass,
    Permutation,
    QuadrantView,
    Slot,
    Symmetry,
    TheoremVerdict,
    UncoveredMember,
    WitnessReport,
    parse_permutation as P,
)

_LEAF = DecompositionTree(None)
_SPAN = IntervalSpan(3, 4, 2, 3)
_BOND = Bond(5, "increasing", 3)
_CERT = BondCertificate(_BOND, frozenset({Slot(6, 1)}))


def _tree_hash(skeleton, children):
    """The tree's hash as its fold computes it, one level deep."""
    return hash((skeleton, tuple(hash(child) for child in children)))


#: (type, field names, field values, repr, hash of the field values); the
#: hash is that of the tuple of fields unless the row names another.
RECORDS = [
    (Permutation, ("values",), ((2, 4, 1, 3),), "Permutation(2 4 1 3)", None),
    (Occurrence, ("positions",), ((2, 3, 6),), "Occurrence(positions=(2, 3, 6))", None),
    (Slot, ("pos_slot", "val_slot"), (2, 3), "Slot(pos_slot=2, val_slot=3)", None),
    (
        Bond,
        ("left_pos", "kind", "low_value"),
        (5, "increasing", 3),
        "Bond(left_pos=5, kind='increasing', low_value=3)",
        None,
    ),
    (
        IntervalSpan,
        ("pos_lo", "pos_hi", "val_lo", "val_hi"),
        (3, 4, 2, 3),
        "IntervalSpan(pos_lo=3, pos_hi=4, val_lo=2, val_hi=3)",
        None,
    ),
    (
        QuadrantView,
        ("alpha", "beta", "gamma", "delta", "epsilon"),
        (_SPAN, ((1, 1),), ((2, 4),), ((5, 5),), ()),
        "QuadrantView(alpha=IntervalSpan(pos_lo=3, pos_hi=4, val_lo=2, val_hi=3), "
        "beta=((1, 1),), gamma=((2, 4),), delta=((5, 5),), epsilon=())",
        None,
    ),
    (
        EmbeddingTrace,
        ("stages", "case_used"),
        ((P("21"), P("231")), "corner"),
        "EmbeddingTrace(stages=(Permutation(2 1), Permutation(2 3 1)), case_used='corner')",
        None,
    ),
    (
        BreakReport,
        ("interval", "slot", "extension"),
        (_SPAN, Slot(4, 1), P("31524")),
        "BreakReport(interval=IntervalSpan(pos_lo=3, pos_hi=4, val_lo=2, val_hi=3), "
        "slot=Slot(pos_slot=4, val_slot=1), extension=Permutation(3 1 5 2 4))",
        None,
    ),
    (
        TheoremVerdict,
        ("status", "rule", "symmetry_used"),
        ("deflatable", "thm", Symmetry.R),
        "TheoremVerdict(status='deflatable', rule='thm', symmetry_used=<Symmetry.R: 'r'>)",
        None,
    ),
    (
        BondCertificate,
        ("bond", "checked_slots"),
        (_BOND, frozenset({Slot(6, 1)})),
        "BondCertificate(bond=Bond(left_pos=5, kind='increasing', low_value=3), "
        "checked_slots=frozenset({Slot(pos_slot=6, val_slot=1)}))",
        None,
    ),
    (
        UncoveredMember,
        ("member", "certificate"),
        (P("2413"), None),
        "UncoveredMember(member=Permutation(2 4 1 3), certificate=None)",
        None,
    ),
    (
        EmpiricalReport,
        ("pclass", "cover_len", "search_len", "members_checked", "uncovered"),
        (PermClass.of("2413"), 6, 10, 42, ()),
        "EmpiricalReport(pclass=PermClass(basis=(Permutation(2 4 1 3),)), cover_len=6, "
        "search_len=10, members_checked=42, uncovered=())",
        None,
    ),
    (
        WitnessReport,
        ("class_basis", "witness", "certificate", "cross_check_bound"),
        ((P("251364"),), P("25173486"), _CERT, 10),
        "WitnessReport(class_basis=(Permutation(2 5 1 3 6 4),), witness=Permutation(2 5 1 7 3 4 8 6), "
        "certificate=BondCertificate(bond=Bond(left_pos=5, kind='increasing', low_value=3), "
        "checked_slots=frozenset({Slot(pos_slot=6, val_slot=1)})), cross_check_bound=10)",
        None,
    ),
    (
        CorpusRowResult,
        ("basis", "witness", "in_class", "certified", "cross_check_bound", "cross_check_passed"),
        (P("251364"), P("25173486"), True, True, None, None),
        "CorpusRowResult(basis=Permutation(2 5 1 3 6 4), witness=Permutation(2 5 1 7 3 4 8 6), "
        "in_class=True, certified=True, cross_check_bound=None, cross_check_passed=None)",
        None,
    ),
    (
        PermClass,
        ("basis",),
        ((P("132"), P("4321")),),
        "PermClass(basis=(Permutation(1 3 2), Permutation(4 3 2 1)))",
        None,
    ),
    (
        DecompositionTree,
        ("skeleton", "children"),
        (P("21"), (_LEAF, _LEAF)),
        "DecompositionTree(skeleton=Permutation(2 1), children=("
        "DecompositionTree(skeleton=None, children=()), "
        "DecompositionTree(skeleton=None, children=())))",
        _tree_hash,
    ),
]


@pytest.mark.parametrize("row", RECORDS, ids=lambda row: row[0].__name__)
def test_record_fields_equality_hash_repr_and_immutability(row):
    kind, names, values, text, hash_of = row
    obj = kind(*values)
    assert tuple(getattr(obj, name) for name in names) == values
    twin = kind(**dict(zip(names, values)))
    assert twin is not obj and twin == obj and not twin != obj
    assert hash(twin) == hash(obj) == (hash_of or (lambda *v: hash(v)))(*values)
    assert len({obj, twin}) == 1
    assert repr(obj) == text
    for name in names:
        with pytest.raises(AttributeError):
            setattr(obj, name, values[0])
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert tuple(getattr(obj, name) for name in names) == values
    with pytest.raises(AttributeError):
        obj.extra = 1
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert clone == obj and repr(clone) == text


def test_the_record_table_covers_every_value_type():
    assert len(RECORDS) == len({row[0] for row in RECORDS}) == 16


@pytest.mark.parametrize("kind", [Slot, IntervalSpan], ids=lambda k: k.__name__)
def test_slots_and_spans_order_by_their_fields(kind):
    width = len(kind._fields)
    items = [kind(*v) for v in itertools.product((1, 2, 3), repeat=width)]
    shuffled = items[::-1][::2] + items[::-1][1::2]
    assert sorted(shuffled) == items
    for a, b in itertools.product(items[:9], repeat=2):
        assert (a < b) == (tuple(a) < tuple(b)) and (a <= b) == (tuple(a) <= tuple(b))


def test_permutations_and_classes_are_not_ordered():
    with pytest.raises(TypeError):
        P("12") < P("21")
    with pytest.raises(TypeError):
        PermClass.of("12") < PermClass.of("21")


def test_record_properties():
    assert _SPAN.size == 2
    assert EmbeddingTrace((P("21"), P("231")), "corner").result == P("231")
    assert TheoremVerdict("unknown", "none", Symmetry.IDENTITY).describe().startswith("unknown (none")
    assert EmpiricalReport(PermClass.of("2413"), 6, 10, 42, ()).covered
    row = CorpusRowResult(P("251364"), P("25173486"), True, True, 10, None)
    assert row.passed and not row._replace(cross_check_passed=False).passed
