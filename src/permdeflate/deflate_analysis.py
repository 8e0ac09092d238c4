"""Breakability machinery and the deflatability classifier.

Whether a principal class Av(pi) is deflatable — its simple members all fit
inside a proper subclass — is attacked from two sides here:

* constructively: every member embeds into an indecomposable member
  (``embed_indecomposable``), and an indecomposable non-simple member can
  often be pushed one point closer to a simple one by cutting its longest
  maximal interval (``breaking_extensions``, ``extend_to_simple``);
* by classification: ``classify_principal`` evaluates, over all eight
  symmetries, the hypotheses of the known non-deflatability results for
  decomposable bases plus the 2413 special case, and recognises the bundled
  deflatability witnesses.

Bounded empirical checks (``empirical_deflatability``) report which short
members fail to extend to a simple member within a length budget.

Bond certificates (``bond_strip_slots``, ``_locked_strips``) and the
bundled witness corpus (``load_corpus``) live here as well; ``witness``
builds on them.
"""

from __future__ import annotations

from functools import lru_cache, partial
from importlib import resources
from itertools import accumulate, product
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .perm_core import (
    Bond,
    ParseError,
    Permutation,
    Slot,
    Symmetry,
    SYMMETRY_ORDER,
    _SYMMETRY_FUNCS,
    _SYMMETRY_INVERSE,
    _bond_scan,
    _contains_any,
    _insert_raw,
    _pattern_of,
    parse_permutation,
)
from .decomposition import (
    IntervalSpan,
    _component_ends,
    _components,
    _cut_slot_pairs,
    _is_decomposable,
    _is_simple,
    _maximal_interval_spans,
    cut_slots,
    sd_measure,
)
from .class_engine import (
    PermClass,
    _avoids_raw,
    _check_length_bound,
    _class_levels,
    _class_symmetries,
    _insertion_creates,
    _simple_members,
    _slot_test,
    avoids,
)

#: Bases with no general embedding of members into indecomposable members
#: (their classes contain permutations with only decomposable extensions).
EMBED_EXCLUDED: frozenset[tuple[int, ...]] = frozenset(
    {(1,), (1, 2), (2, 1), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)}
)

STATUS_NON_DEFLATABLE = "non_deflatable"
STATUS_DEFLATABLE = "deflatable"
STATUS_UNKNOWN = "unknown"

class EmbeddingTrace(NamedTuple):
    """Stages of the embedding of a member into an indecomposable member.

    Corner-point construction: (w, w-with-anchor, doubled, linked); adding
    outer points: (w, extended).  An already indecomposable input is the
    single stage (w,) and ``case_used`` is None.
    """

    stages: tuple[Permutation, ...]
    case_used: Optional[str]

    @property
    def result(self) -> Permutation:
        return self.stages[-1]


class BreakReport(NamedTuple):
    """One admissible break of the longest maximal interval: the cut slot,
    and the resulting extension (still in the class, indecomposable, with a
    strictly smaller interval measure)."""

    interval: IntervalSpan
    slot: Slot
    extension: Permutation


class SimpleExtension(NamedTuple):
    simple: Permutation
    chain: tuple[BreakReport, ...]


class TheoremVerdict(NamedTuple):
    """Outcome of the principal-class classifier: a status, the rule that
    decided it, and the symmetry image on which the rule fired."""

    status: str
    rule: str
    symmetry_used: Symmetry

    def describe(self) -> str:
        label = RULE_LABELS.get(self.rule, "")
        return f"{self.status} ({self.rule} {label})" if label else f"{self.status} ({self.rule})"


class BondCertificate(NamedTuple):
    """Evidence that a member extends to no simple member of its class:
    every required strip slot around ``bond`` is blocked."""

    bond: Bond
    checked_slots: frozenset[Slot]


class UncoveredMember(NamedTuple):
    """A member with no simple extension within the search bound, plus the
    bond certificate for it if one exists."""

    member: Permutation
    certificate: Optional[BondCertificate]


class EmpiricalReport(NamedTuple):
    pclass: PermClass
    cover_len: int
    search_len: int
    members_checked: int
    uncovered: tuple[UncoveredMember, ...]

    @property
    def covered(self) -> bool:
        return not self.uncovered


def embed_indecomposable(w: Permutation, pi: Permutation) -> EmbeddingTrace:
    """Embed ``w`` (avoiding ``pi``) into an indecomposable permutation that
    still avoids ``pi``.

    When some symmetry of ``pi`` starts with its minimum, the construction
    anchors ``w`` below-right, doubles singleton skew components, and links
    consecutive components; otherwise four outer points in a 2413 layout
    are wrapped around ``w`` (after a symmetry making the outer points of
    ``pi`` differ from 2413).  Postconditions are asserted, not assumed.
    """
    if pi.values in EMBED_EXCLUDED:
        raise ValueError(f"no general indecomposable embedding exists for basis {pi}")
    if _contains_any(pi.values, w.values):
        raise ValueError(f"{w} contains {pi}")
    if not _is_decomposable(w.values):
        return EmbeddingTrace((w,), None)

    if _has_corner_point(pi.values):
        f = _first_symmetry(lambda img: img[0] == 1, pi.values)
        stages_img = _corner_point_stages(_SYMMETRY_FUNCS[f](w.values))
        case = "corner_point"
    else:
        f = _first_symmetry(lambda img: _outer_pattern(img) != (2, 4, 1, 3), pi.values)
        u = _SYMMETRY_FUNCS[f](w.values)
        m = len(u)
        zeta = (2, m + 4) + tuple(v + 2 for v in u) + (1, m + 3)
        stages_img = (u, zeta)
        case = "outer_2413"

    back = _SYMMETRY_FUNCS[_SYMMETRY_INVERSE[f]]
    stages = tuple(Permutation(back(s)) for s in stages_img)

    for prev, cur in zip(stages, stages[1:]):
        if not _contains_any(prev.values, cur.values):
            raise AssertionError(f"embedding stage {cur} lost {prev}")
    final = stages[-1]
    if _is_decomposable(final.values):
        raise AssertionError(f"embedding of {w} produced decomposable {final}")
    if _contains_any(pi.values, final.values):
        raise AssertionError(f"embedding of {w} introduced {pi}")
    return EmbeddingTrace(stages, case)


def _has_corner_point(vals: tuple[int, ...]) -> bool:
    n = len(vals)
    return vals[0] in (1, n) or vals[-1] in (1, n)


def _outer_pattern(vals: tuple[int, ...]) -> tuple[int, ...]:
    """Pattern of the left-, right-, top- and bottom-most entries; length 4
    exactly when there is no corner point."""
    n = len(vals)
    idx = sorted({0, n - 1, vals.index(n), vals.index(1)})
    return _pattern_of([vals[i] for i in idx])


def _first_symmetry(pred, vals: tuple[int, ...]) -> Symmetry:
    for sym in SYMMETRY_ORDER:
        if pred(_SYMMETRY_FUNCS[sym](vals)):
            return sym
    raise AssertionError("no symmetry satisfies the required normal form")


def _corner_point_stages(u: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Stages for the case where the (symmetrised) basis starts with 1:
    anchor below-right, double singleton skew components, link neighbours.

    With ``ends`` the running totals of the part lengths, ``u_bar`` puts
    part i at value offset ``ends[-1] - ends[i]``.  Link i inserts, just
    before the final point of part i, a point valued just below the topmost
    point of part i+1.  Each earlier link j < i inserted inside part j, so
    it moved parts i and i+1 one place right: part i ends at 1-based
    position ``ends[i] + i`` and part i+1 fills
    ``linked[ends[i] + i : ends[i + 1] + i]``.
    """
    u_hat = tuple(v + 1 for v in u) + (1,)
    parts = [(1, 2) if c == (1,) else c for c in _components(u_hat, "skew")]
    ends = list(accumulate(map(len, parts)))
    u_bar = tuple(v + ends[-1] - end for part, end in zip(parts, ends) for v in part)

    linked = u_bar
    for i in range(len(parts) - 1):
        slot = ends[i] + i
        linked = _insert_raw(linked, slot, max(linked[slot : ends[i + 1] + i]))
    return (u, u_hat, u_bar, linked)


def breaking_extensions(w: Permutation, c: PermClass) -> list[BreakReport]:
    """All one-point extensions of ``w`` that cut its longest maximal
    interval without absorbing the new point, and stay inside ``c``.

    Requires an indecomposable, non-simple member.  Each surviving report
    is checked for the guaranteed consequences: the extension is
    indecomposable and its interval measure strictly drops.
    """
    vals = w.values
    if not _avoids_raw(vals, c):
        raise ValueError(f"{w} is not a member of {c}")
    if _is_decomposable(vals):
        raise ValueError(f"{w} is decomposable; breakability is defined on indecomposable members")
    blocks = [IntervalSpan(*span) for span in _maximal_interval_spans(vals)]
    alpha = max(blocks, key=lambda s: (s.size, -s.pos_lo))
    if alpha.size < 2:
        raise ValueError(f"{w} is simple; nothing to break")

    before = sum(s.size - 1 for s in blocks)
    blocked = _slot_test(c)
    reports = []
    for ps, vs in _cut_slot_pairs(len(vals), alpha.pos_lo, alpha.pos_hi, alpha.val_lo, alpha.val_hi):
        # w avoids c (checked above), so any basis occurrence in the
        # extension uses the new entry, and the slot test settles membership
        if blocked(vals, ps, vs):
            continue
        ext = _insert_raw(vals, ps, vs)
        extension = Permutation(ext)
        slot = Slot(ps, vs)
        if _is_decomposable(ext):
            raise AssertionError(f"cut at {slot} left {extension} decomposable")
        if sd_measure(extension) >= before:
            raise AssertionError(f"cut at {slot} did not shrink the interval measure of {w}")
        reports.append(BreakReport(alpha, slot, extension))
    return reports


def extend_to_simple(w: Permutation, c: PermClass, max_len: int) -> Optional[SimpleExtension]:
    """A simple member of ``c`` of length <= max_len containing ``w``, with
    the chain of interval breaks that produced it, or None if none exists
    within the bound.

    Strategy: embed into an indecomposable member when the class is
    principal, then break the longest interval greedily (each break is
    guaranteed progress); if that stalls or overshoots, fall back to a
    breadth-first search over one-point extensions.  It skips only cells
    whose parent image is blocked, which are blocked too, and on its last
    level slots whose children cannot be simple, so it misses no simple
    extension, and an absent result genuinely means no simple extension
    within ``max_len``.  Raises ``ValueError`` when ``w`` is not a member,
    or ``max_len`` is below its length or above ``MAX_LENGTH``.
    """
    if not avoids(w, c):
        raise ValueError(f"{w} is not a member of {c}")
    if max_len < len(w):
        raise ValueError(f"max_len {max_len} is below the length of {w}")
    _check_length_bound("max_len", max_len)
    if _is_simple(w.values):
        return SimpleExtension(w, ())

    return _greedy_extension(w, c, max_len) or _bfs_extension(w, c, max_len)


def _greedy_extension(w: Permutation, c: PermClass, max_len: int) -> Optional[SimpleExtension]:
    current = w
    if _is_decomposable(current.values):
        if len(c.basis) != 1 or c.basis[0].values in EMBED_EXCLUDED:
            return None
        current = embed_indecomposable(current, c.basis[0]).result
        if len(current) > max_len:
            return None
    chain: list[BreakReport] = []
    while not _is_simple(current.values):
        if len(current) >= max_len:
            return None
        reports = breaking_extensions(current, c)
        if not reports:
            return None
        chain.append(reports[0])
        current = reports[0].extension
    return SimpleExtension(current, tuple(chain))


def _bfs_extension(w: Permutation, c: PermClass, max_len: int) -> Optional[SimpleExtension]:
    """The least simple member of ``c`` reached from ``w`` by one-point
    extensions, at the shortest length in len(w)+1..max_len that has one;
    else None.

    Every level but the last tries every slot of every frontier member.  The
    last (children of length max_len) tries only the slots that cut every
    bond of the parent.  Any other slot either leaves a bond intact, or is
    the crossing cell of the bond or one of the four cells next to it, where
    the new entry and the bond form an interval of size 3.  Either way the
    child is not simple: the interval is proper from length 4 on, and no
    permutation of length 3 is simple.  So the last level has the same
    simple children, and the same least one, as the full grid.  Earlier
    levels keep every slot: a child that keeps a bond may split it later.
    Each slot is tested on its parent, so only the children kept are built.

    Inheritance: deleting the new entry of a member made at slot (p1, v1)
    maps its cell (ps, vs) to the parent's (ps - [ps > p1], vs - [vs > v1]),
    and a cell whose parent image is blocked is blocked.  ``frontier`` maps
    each member to its record (p1, v1, the parent's open cells), and only
    cells with an open image are tested; the root has no record.  The cells
    that test open are the member's own open set, shared by its children.
    A child reached from two parents keeps the first record: either is
    sound.  The last level's children are never expanded.
    """
    frontier: dict = {w.values: None}
    for n in range(len(w), max_len):
        nxt: dict = {}
        for vals, record in frontier.items():
            if n + 1 < max_len:
                slots = product(range(1, n + 2), repeat=2)
            else:
                slots = _bond_splitting_slots(vals)
            if record is not None:
                p1, v1, inherited = record
                slots = [(ps, vs) for ps, vs in slots if (ps - (ps > p1), vs - (vs > v1)) in inherited]
            opened: set = set()
            for ps, vs in slots:
                if not _insertion_creates(c, vals, ps, vs):
                    opened.add((ps, vs))
                    nxt.setdefault(_insert_raw(vals, ps, vs), (ps, vs, opened))
        for child in sorted(nxt):
            if _is_simple(child):
                return SimpleExtension(Permutation(child), ())
        frontier = nxt
        if not frontier:
            return None
    return None


def _bond_splitting_slots(vals: tuple[int, ...]) -> Iterable[tuple[int, int]]:
    """(pos_slot, val_slot) of each slot of ``vals`` that is a cut slot of
    every bond, as a size-2 interval; the whole grid when there is no bond.
    Distinct bonds have distinct positions and distinct values, so a slot
    cuts at most two of them."""
    n = len(vals)
    spans = [(i, i + 1, lo, lo + 1) for i, _, lo in _bond_scan(vals)]
    if not spans:
        return product(range(1, n + 2), repeat=2)
    if len(spans) > 2:
        return ()
    return set.intersection(*(set(_cut_slot_pairs(n, *span)) for span in spans))


def _strips_locked(vals: tuple[int, ...], blocked: Callable[..., object], i: int, w: int) -> bool:
    """Whether ``blocked`` holds on every strip slot of the bond at positions
    (i, i + 1) with values {w, w + 1}, walked in ``_cut_slot_pairs``' order
    as four runs (left, below, above, right) up to the first open cell.
    ``blocked`` is the class's ``_slot_test``, the one cell test of every
    certificate: falsy on an open cell (ps, vs), and on a blocked one its
    reach ``(ps_hi, vs_hi)``: every cell from (ps, vs) up to ``ps_hi`` and
    up to ``vs_hi`` is blocked too, so the walk skips to the cell past the
    reach along its run.  The run's other coordinate stays fixed, so each
    skipped cell lies in the rectangle.  A bond certifies nothing when
    n = 2: it is the whole permutation, its strips are empty, and the
    argument needs the surrounding box to be a proper part of any
    extension.  So that length returns False at once."""
    n, across, between = len(vals), w + 1, i + 1
    if n <= 2:
        return False
    ps = 1
    while ps < i:
        reach = blocked(vals, ps, across)
        if not reach:
            return False
        ps = reach[0] + 1
    vs = 1
    while vs < w:
        reach = blocked(vals, between, vs)
        if not reach:
            return False
        vs = reach[1] + 1
    vs = w + 3
    while vs <= n + 1:
        reach = blocked(vals, between, vs)
        if not reach:
            return False
        vs = reach[1] + 1
    ps = i + 3
    while ps <= n + 1:
        reach = blocked(vals, ps, across)
        if not reach:
            return False
        ps = reach[0] + 1
    return True


def bond_strip_slots(n: int, bond: Bond) -> frozenset[Slot]:
    """The strip slots a certificate must see blocked, for a bond at
    positions (i, i+1) with values {w, w+1} in a length-n host: the cut
    slots of the bond as a size-2 interval.  That is the whole vertical
    strip pos_slot = i+1 except val_slots {w, w+1, w+2}, plus the whole
    horizontal strip val_slot = w+1 except pos_slots {i, i+1, i+2}.
    The exceptions are the crossing cell and the four adjacent cells; the
    same formula covers both bond orientations.
    """
    i, w = bond.left_pos, bond.low_value
    return cut_slots(n, IntervalSpan(i, i + 1, w, w + 1))


def _certificate(n: int, i: int, kind: str, w: int) -> BondCertificate:
    """The certificate on the bond (i, kind, w) of a length-``n`` member."""
    bond = Bond(i, kind, w)
    return BondCertificate(bond, bond_strip_slots(n, bond))


def _locked_strips(vals: tuple[int, ...], blocked: Callable[..., object]) -> Optional[BondCertificate]:
    """The certificate on the first bond of the member ``vals``, left to
    right, whose strip slots, ``bond_strip_slots``, are all blocked by
    ``blocked(vals, ps, vs)``, walked by ``_strips_locked``.  Every caller
    passes the class's ``_slot_test``, which answers with each blocked
    cell's reach, so the walk asks one cell per occurrence; a basis
    element too long for the member answers False at once.  Skipping is
    sound because every cell in a reach's rectangle is blocked by the
    occurrence that gave it."""
    for i, kind, w in _bond_scan(vals):
        if _strips_locked(vals, blocked, i, w):
            return _certificate(len(vals), i, kind, w)
    return None


def condition_ddagger(pi: Permutation) -> bool:
    """For pi starting with its minimum: is some entry to the right of the
    value 2 smaller than pi's second entry (the leftmost entry of the rest)?
    """
    vals = pi.values
    if vals[0] != 1 or len(vals) < 4:
        raise ValueError(f"{pi} is not of the form 1 plus a tail of length >= 3")
    return _ddagger_raw(vals)


def _ddagger_raw(vals: tuple[int, ...]) -> bool:
    threshold = vals[1]
    after_two = vals.index(2) + 1
    return any(v < threshold for v in vals[after_two:])


def _has_bond(vals: tuple[int, ...], kind: str) -> bool:
    return any(k == kind for _, k, _ in _bond_scan(vals))


def _one_plus_tail(vals: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """The tail pattern rho when vals = 1 (+) rho with |rho| >= 2."""
    if len(vals) < 3 or vals[0] != 1:
        return None
    return tuple(v - 1 for v in vals[1:])


def _form_1n2(vals: tuple[int, ...]) -> bool:
    n = len(vals)
    return n >= 3 and vals[0] == 1 and vals[1] == n and vals[-1] == 2


def _pred_three_sum(vals: tuple[int, ...]) -> bool:
    return len(_component_ends(vals, "direct")) >= 3


def _pred_two_sum(vals: tuple[int, ...]) -> bool:
    ends = _component_ends(vals, "direct")
    return len(ends) == 2 and 2 <= ends[0] <= len(vals) - 2


def _pred_t33(vals: tuple[int, ...]) -> bool:
    rho = _one_plus_tail(vals)
    if rho is None or len(_component_ends(rho, "direct")) > 1 or rho[0] > rho[1]:
        return False
    return not _has_bond(rho, "increasing") or not _has_bond(rho, "decreasing")


def _pred_descent_no_bond(kind: str, vals: tuple[int, ...]) -> bool:
    rho = _one_plus_tail(vals)
    if rho is None or len(vals) < 4 or rho[0] < rho[1]:
        return False
    return not _has_bond(rho, kind) and _ddagger_raw(vals)


def _pred_1n2_no_bond(kind: str, vals: tuple[int, ...]) -> bool:
    return _form_1n2(vals) and not _has_bond(vals, kind)


def _pred_t38(vals: tuple[int, ...]) -> bool:
    n = len(vals)
    return n >= 4 and vals[0] == 1 and vals[-1] == 2 and vals[1] not in (3, n)


def _default_corpus() -> Path:
    return Path(str(resources.files("permdeflate").joinpath("witness_corpus.txt")))


def load_corpus(path: Union[str, Path, None] = None) -> list[tuple[Permutation, Permutation]]:
    """Rows of the witness corpus: (basis, witness) per non-comment line,
    separated by '|', both sides in the canonical text format.  A bad row
    raises ParseError naming its file and line."""
    source = Path(path) if path is not None else _default_corpus()
    rows = []
    for lineno, line in enumerate(source.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        left, sep, right = line.partition("|")
        if not sep:
            raise ParseError(f"{source}:{lineno}: expected 'basis | witness'")
        try:
            rows.append((parse_permutation(left), parse_permutation(right)))
        except ParseError as exc:
            raise ParseError(f"{source}:{lineno}: {exc}") from None
    return rows


@lru_cache(maxsize=1)
def known_deflatable_bases() -> frozenset[tuple[int, ...]]:
    """Value tuples of every basis in the bundled corpus (identity images
    only; callers fold in symmetries themselves)."""
    return frozenset(basis.values for basis, _ in load_corpus())


def _pred_witness_table(vals: tuple[int, ...]) -> bool:
    return vals in known_deflatable_bases()


#: (rule, label, status, hypothesis) in priority order; the first hypothesis
#: that holds on any symmetry image decides the verdict.  A literal basis is
#: a set of value tuples (12 and 21 both, so each fires on its own symmetry).
#: T3.4/T3.6 and T3.5/T3.7 are the paper's theorem pairs that differ only in
#: the kind of bond the tail must lack, so each pair shares one predicate of
#: that kind.  T3.5 and T3.7 can both test the whole of ``1 n ... 2``: its
#: leading ``1 n`` (n >= 3) is never a bond, so dropping the 1 changes
#: neither bond test.
_RULES = (
    ("degenerate", "single-point-basis", STATUS_DEFLATABLE, {(1,)}.__contains__),
    ("base-12", "monotone", STATUS_DEFLATABLE, {(1, 2), (2, 1)}.__contains__),
    ("base-231", "short-base", STATUS_DEFLATABLE, {(2, 3, 1)}.__contains__),
    ("T3.1", "three-sum", STATUS_NON_DEFLATABLE, _pred_three_sum),
    ("T3.2", "two-sum", STATUS_NON_DEFLATABLE, _pred_two_sum),
    ("T3.3", "ascent-missing-bond", STATUS_NON_DEFLATABLE, _pred_t33),
    ("T3.4", "descent-no-increasing-bond", STATUS_NON_DEFLATABLE,
     partial(_pred_descent_no_bond, "increasing")),
    ("T3.5", "1n...2-no-increasing-bond", STATUS_NON_DEFLATABLE,
     partial(_pred_1n2_no_bond, "increasing")),
    ("T3.6", "descent-no-decreasing-bond", STATUS_NON_DEFLATABLE,
     partial(_pred_descent_no_bond, "decreasing")),
    ("T3.7", "1n...2-no-decreasing-bond", STATUS_NON_DEFLATABLE,
     partial(_pred_1n2_no_bond, "decreasing")),
    ("T3.8", "1z...2", STATUS_NON_DEFLATABLE, _pred_t38),
    ("P5.1", "2413", STATUS_NON_DEFLATABLE, {(2, 4, 1, 3)}.__contains__),
    ("witness-table", "known-witness", STATUS_DEFLATABLE, _pred_witness_table),
)

#: Short display labels for classifier rules.
RULE_LABELS = {rule: label for rule, label, _, _ in _RULES} | {"unknown": "undecided"}


def classify_principal(pi: Permutation) -> TheoremVerdict:
    """Decide (non-)deflatability of Av(pi) where a known rule applies.

    Deflatability is invariant under the eight symmetries, so every rule is
    evaluated on every symmetry image; the first applicable (rule, image)
    pair in the fixed priority and symmetry order is reported.  Anything
    not matched is honestly ``unknown``.
    """
    images = [(sym, _SYMMETRY_FUNCS[sym](pi.values)) for sym in SYMMETRY_ORDER]
    for rule, _, status, pred in _RULES:
        for sym, image in images:
            if pred(image):
                return TheoremVerdict(status, rule, sym)
    return TheoremVerdict(STATUS_UNKNOWN, "unknown", Symmetry.IDENTITY)


def empirical_deflatability(c: PermClass, cover_len: int, search_len: int) -> EmpiricalReport:
    """Check that every member of length <= cover_len extends to a simple
    member of length <= search_len.

    Because the class is downward closed, a member extends to a simple
    member within the bound exactly when it is contained in one, so one
    enumeration pass suffices: collect the simple members up to
    ``search_len``, each level's by ``_simple_members``, and test the short
    non-simple members for containment in one of them.  Orbit settling:
    only the first member of each orbit of ``_class_symmetries``, in
    target order, is scanned (the last 8 hits, then every longer simple
    member), and its verdict is recorded for every image.  Members that
    extend to nothing are reported in target order, each with its own bond
    certificate (when one exists), tested without a second membership proof.
    """
    if cover_len < 1:
        raise ValueError("cover_len must be at least 1")
    if cover_len > search_len:
        raise ValueError("cover_len must not exceed search_len")
    _check_length_bound("search_len", search_len)

    targets: list[tuple[int, ...]] = []
    simples: list[tuple[int, ...]] = []
    for n, level in enumerate(_class_levels(c, search_len), start=1):
        if n <= cover_len:
            targets.extend(level)
        simples.extend(_simple_members(level))

    symmetries = _class_symmetries(c)
    covered = dict.fromkeys((s for s in simples if len(s) <= cover_len), True)
    recent: list[tuple[int, ...]] = []
    for vals in targets:
        if vals in covered:
            continue
        hit = next((s for s in recent if len(s) >= len(vals) and _contains_any(vals, s)), None)
        if hit is None:
            hit = next(
                (s for s in simples if len(s) > len(vals) and _contains_any(vals, s)), None
            )
            if hit is not None:
                recent.insert(0, hit)
                del recent[8:]
        for f in symmetries:
            covered[f(vals)] = hit is not None

    blocked = _slot_test(c)
    uncovered = tuple(
        UncoveredMember(Permutation(vals), _locked_strips(vals, blocked))
        for vals in targets
        if not covered[vals]
    )
    return EmpiricalReport(c, cover_len, search_len, len(targets), uncovered)
