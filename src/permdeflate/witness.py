"""Bond certificates and witnesses of deflatability.

A member of a class is a witness of deflatability when no simple member of
the class contains it; finding one proves the class deflatable.  The
sufficient test used here inspects a bond: if every slot in the
vertical strip between the bond's positions and the horizontal strip
between its values is blocked — excepting only the crossing cell and the
four cells adjacent to the bond — then the bond can never be split apart
by later insertions, so no extension is simple.

Every certificate asks one cell test, the class's ``_slot_test`` bounded
by the members' length: the public ``bond_certificate`` proves membership
with ``avoids`` and hands it to ``deflate_analysis._locked_strips``;
``verify_corpus`` does the same after its own ``avoids``, and
``find_witnesses`` trusts the generating tree's membership proof.  Each
blocked cell answers with its reach, the rectangle of cells that one
occurrence blocks, so a walk jumps past every strip cell an occurrence
already blocks, and asks the kernels once per occurrence, not once per
cell.  The ``ShadingGrid``, which asks each cell it is given, serves
only the ``shade`` command and ``inflation_family``.

Each tree level is kept as its parents and their open-slot masks, and
``_candidates`` builds each member with the slots it inherits open, so
``find_witnesses`` walks a member's bonds one by one: it settles each
bond's top strip cell by inheritance or by ``_top_test`` asked with that
slot's one bit, and hands only a bond whose top cell is blocked to the
per-bond walk ``_strips_locked``.  Its slot and top tests hold only the
basis elements a member of length <= ``max_len`` can meet with one new
entry, so a basis element too long to fire compiles no kernel.

The bundled corpus (``deflate_analysis.load_corpus``) ships fourteen
published witness rows (ten sporadic classes and four parallel
alternations); ``verify_corpus`` replays the whole table.
``inflation_family`` mechanically checks the inflation construction that
turns one witness into an infinite family of deflatable principal classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Union

from .perm_core import MAX_LENGTH, Bond, Permutation, inflate
from .class_engine import (
    PermClass,
    ShadingGrid,
    _candidates,
    _class_levels,
    _slot_test,
    _top_test,
    avoids,
)
from .deflate_analysis import (
    BondCertificate,
    _certificate,
    _locked_strips,
    _strips_locked,
    bond_strip_slots,
    extend_to_simple,
    load_corpus,
)

#: Witnesses longer than this skip the explicit no-simple-extension search
#: during corpus verification; their certificates still get checked.
CROSS_CHECK_CAP = 14

_FAMILY_PATTERN = Permutation((2, 5, 1, 3, 6, 4))
_FAMILY_WITNESS = Permutation((2, 5, 1, 7, 3, 4, 8, 6))


@dataclass(frozen=True)
class WitnessReport:
    class_basis: tuple[Permutation, ...]
    witness: Permutation
    certificate: BondCertificate
    cross_check_bound: int


class FamilyCheck(NamedTuple):
    """Result of the infinite-family construction for one inflating block."""

    pi_star: Permutation
    omega_star: Permutation
    verified: bool


@dataclass(frozen=True)
class CorpusRowResult:
    basis: Permutation
    witness: Permutation
    in_class: bool
    certified: bool
    cross_check_bound: Optional[int]
    cross_check_passed: Optional[bool]

    @property
    def passed(self) -> bool:
        return self.in_class and self.certified and self.cross_check_passed is not False


def bond_certificate(p: Permutation, c: PermClass) -> Optional[BondCertificate]:
    """The certificate on the first certifying bond of ``p`` (left-to-right
    order), or None.  A returned certificate implies ``p`` witnesses the
    deflatability of ``c``.  Raises ValueError when ``p`` is not a member
    of ``c``; a member's strips are walked with the class's slot test,
    bounded by ``len(p)``, as every certificate is.
    """
    if not avoids(p, c):
        raise ValueError(f"{p} is not a member of {c}")
    return _locked_strips(p.values, _slot_test(c, len(p)))


def find_witnesses(c: PermClass, max_len: int, limit: int = 1) -> list[WitnessReport]:
    """Scan class members in enumeration order for bond certificates,
    returning up to ``limit`` reports.  Each witness is cross-checked by an
    exhaustive search for simple extensions up to max_len + 2, which must
    come back empty, so a ``max_len`` above ``MAX_LENGTH`` - 2 is refused
    before the walk.  The scan trusts the tree's membership proof: it
    tests raw tuples with the class's slot test, as ``bond_certificate``
    does after its membership guard, and finds the same certificates.

    Bonds are walked one by one, left to right.  A bond at left position i
    with low value w first has the top cell of its vertical strip,
    (i + 1, n + 1), settled from ``cand``, the slots the member inherits
    open, read off its parent's mask by ``_candidates``: exempt when
    w + 2 > n, blocked when bit i of ``cand`` is clear, else decided by
    ``_top_test`` with the one-bit mask ``1 << i``, whose precondition an
    open parent slot meets.  Only then does ``_strips_locked`` walk the
    bond."""
    if limit < 1:
        raise ValueError("limit must be at least 1")
    bound = max_len + 2
    if bound > MAX_LENGTH:
        raise ValueError(
            f"max_len {max_len} needs a cross-check to length {bound}, "
            f"past the supported maximum {MAX_LENGTH}"
        )
    reports: list[WitnessReport] = []
    blocked = _slot_test(c, max_len)
    top = _top_test(c, max_len)
    for n, level in enumerate(_class_levels(c, max_len), start=1):
        for vals, s, cand in _candidates(level):
            # the bonds (i, kind, w) left to right, as ``_bond_scan`` finds
            # them but without a generator per member
            a = vals[0]
            for i in range(1, n):
                b = vals[i]
                if b == a + 1:
                    kind, w = "increasing", a
                elif a == b + 1:
                    kind, w = "decreasing", b
                else:
                    a = b
                    continue
                a = b
                if w + 2 > n or not cand >> i & 1 or not top(vals, s, 1 << i):
                    if _strips_locked(vals, blocked, i, w):
                        break
            else:
                continue
            member = Permutation(vals)
            if extend_to_simple(member, c, bound) is not None:
                raise AssertionError(f"certificate for {member} contradicted by a simple extension")
            reports.append(WitnessReport(c.basis, member, _certificate(n, i, kind, w), bound))
            if len(reports) >= limit:
                return reports
    return reports


def parallel_alternation(n: int) -> Permutation:
    """The parallel alternation 2 4 6 ... n 1 3 5 ... n-1 (one symmetry
    class representative)."""
    if n % 2 != 0 or n < 4:
        raise ValueError(f"parallel alternations need an even length >= 4, got {n}")
    return Permutation(tuple(range(2, n + 1, 2)) + tuple(range(1, n, 2)))


def inflation_family(theta: Permutation) -> FamilyCheck:
    """Inflate one block of the 251364 / 25173486 witness pair by ``theta``
    and mechanically verify the construction: the inflated witness avoids
    the inflated basis, and every slot splitting its {3,4} interval without
    joining it creates the basis pattern.  A True result exhibits one more
    deflatable principal class."""
    one = Permutation((1,))
    pi_star = inflate(_FAMILY_PATTERN, [one, theta, one, one, one, one])
    omega_star = inflate(_FAMILY_WITNESS, [one, theta, one, theta, one, one, one, one])
    cls = PermClass((pi_star,))
    if not avoids(omega_star, cls):
        return FamilyCheck(pi_star, omega_star, False)
    # the block inflations leave values untouched below 5, so the {3,4}
    # bond of the base witness survives with the same values
    vals = omega_star.values
    i = vals.index(3) + 1
    if vals[i] != 4:
        raise AssertionError(f"expected the {{3,4}} bond to survive inflation in {omega_star}")
    bond, grid = Bond(i, "increasing", 3), ShadingGrid(omega_star, cls)
    verified = all(grid.is_blocked(s) for s in bond_strip_slots(len(vals), bond))
    return FamilyCheck(pi_star, omega_star, verified)


def verify_corpus(path: Union[str, Path, None] = None) -> list[CorpusRowResult]:
    """Replay every corpus row: the witness must lie in the class and carry
    a bond certificate, and witnesses of length <= CROSS_CHECK_CAP must
    survive an exhaustive no-simple-extension search to length + 2.
    Membership is proved by ``avoids``, and the certificate trusts that
    proof; ``extend_to_simple`` proves it again for each cross-checked
    row.  Failures become report rows, not exceptions."""
    results = []
    for basis, witness in load_corpus(path):
        c = PermClass((basis,))
        in_class = avoids(witness, c)
        certified = False
        bound: Optional[int] = None
        cross_ok: Optional[bool] = None
        if in_class:
            certified = _locked_strips(witness.values, _slot_test(c, len(witness))) is not None
            if len(witness) <= CROSS_CHECK_CAP:
                bound = len(witness) + 2
                cross_ok = extend_to_simple(witness, c, bound) is None
        results.append(CorpusRowResult(basis, witness, in_class, certified, bound, cross_ok))
    return results
