"""The unitary-group invariant and three-valued isomorphism comparison.

Two countable abelian groups have topologically isomorphic unitary groups
of their group C*-algebras iff their torsion subgroups have the same
cardinal alpha and the alpha-fold amplifications of their torsion-free
quotients are isomorphic.  Amplified (and K-group) free parts are compared
by a sound engine that answers Isomorphic only with a decidable-class
equality or a validated witness, NotIsomorphic only with a genuinely
separating invariant, and Unknown otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .fg import Cardinal, torsion_cardinal
from .groups import (AbGroupDesc, CompletelyDecomposable, FreeOfRank,
                     FreePart, OmegaCopies, Summands, TowerForm,
                     direct_sum_of, flatten, summand_towers, OMEGA_COPIES)
from .matrices import (IntMatrix, RatMatrix, SingularMatrixError,
                       integer_inverse)
from .towers import (INF, Supernatural, Tower, TypeClass,
                     _first_stage_reaching_zero, characteristic,
                     direct_sum_towers, mod_p_rank, unit_element)
from .wedge import _top_wedge, k1 as _k1

ISOMORPHIC = "isomorphic"
NOT_ISOMORPHIC = "not_isomorphic"
UNKNOWN = "unknown"


class DimensionMismatchError(ValueError):
    pass


class SingularWitnessError(ValueError):
    pass


@dataclass(frozen=True)
class Verdict:
    """One labelled answer with its evidence.

    The single result shape of the package: comparisons return label
    "verdict" with ISOMORPHIC, NOT_ISOMORPHIC or UNKNOWN, gallery claims
    "<entry>.<claim kind>" with a claim status, and the CLI reports every
    command's answers as a tuple of these.
    """

    label: str
    verdict: str
    evidence: str = ""


@dataclass(frozen=True)
class Witness:
    """Explicit rational matrix certifying (src)^copies iso (dst)^copies.

    The map acts on stage-0 rational coordinates of the combined towers.
    """

    copies: int
    map: RatMatrix
    src: FreePart
    dst: FreePart
    name: str = "witness"


def _reduced(rows, d: int) -> tuple[list[tuple[int, ...]], int]:
    """The integer rows over the denominator d, with the common factor of
    d and every entry divided out."""
    g = math.gcd(d, *(x for row in rows for x in row))
    if g == 1:
        return rows, d
    return [tuple(x // g for x in row) for row in rows], d // g


def _maps_lattices_into(tower: Tower, other: Tower, rows, d: int) -> bool:
    """Whether the matrix rows / d maps the stage-s lattice of tower into
    the limit group of other for every s up to tower's prefix plus two
    periods.

    The stage-s generators are the columns of T(0, s)^-1, so their images
    are the columns of G_s = (rows / d) T(0, s)^-1, carried as integer
    rows over one denominator: G_s = G_(s-1) Q_(s-1)^-1, with each
    distinct connecting matrix Q inverted once.  All n images are decided
    by one residue walk mod the denominator of G_s in other.
    """
    bound = len(tower.prefix) + 2 * max(1, len(tower.period))
    inverses = {}
    for s in range(bound + 1):
        if s:
            q = tower.stage_matrix(s - 1)
            if q not in inverses:
                b, e = integer_inverse(q)
                inverses[q] = tuple(zip(*b.entries)), e
            cols, e = inverses[q]
            rows, d = _reduced([tuple(sum(x * y for x, y in zip(row, col))
                                      for col in cols) for row in rows],
                               d * e)
        if _first_stage_reaching_zero(other, 0, zip(*rows), d) is None:
            return False
    return True


def check_witness(w: Witness) -> bool:
    """Check a witness by membership tests in both directions.

    Every stage-s lattice generator of the source must map into the target
    and vice versa under the inverse, for every s up to the prefix plus
    two full periods of the tower it comes from.  This is a finite check,
    not a proof: nothing shows that the images past that horizon stay in
    the limit group, and the identity map from Z[1/2]^2 to (1/8)Z^2, two
    non-isomorphic groups, passes it.  The check runs in integers: the
    map and each connecting matrix are inverted once as an integer matrix
    over a denominator, and one residue walk per stage decides all
    generators at once.
    """
    # copies below 1 count as one copy; the ranks are compared before any
    # direct sum is built, so an oversized copies count is rejected at once
    copies = max(w.copies, 1)
    src_towers, dst_towers = summand_towers(w.src), summand_towers(w.dst)
    src_rank = copies * sum(t.rank for t in src_towers)
    dst_rank = copies * sum(t.rank for t in dst_towers)
    n = w.map.rows
    if w.map.cols != n or src_rank != n or dst_rank != n:
        raise DimensionMismatchError(
            f"witness map is {w.map.rows}x{w.map.cols}, towers have ranks "
            f"{src_rank} and {dst_rank}")
    den = math.lcm(*(x.denominator for row in w.map.entries for x in row))
    a = IntMatrix(tuple(tuple(x.numerator * (den // x.denominator)
                              for x in row) for row in w.map.entries))
    try:
        b, e = integer_inverse(a)
    except SingularMatrixError:
        raise SingularWitnessError("witness map is singular") from None
    src = direct_sum_towers(src_towers * copies)
    dst = direct_sum_towers(dst_towers * copies)
    # (a / den)^-1 = den * b / e
    inv = _reduced([tuple(den * x for x in row) for row in b.entries], e)
    return (_maps_lattices_into(src, dst, a.entries, den)
            and _maps_lattices_into(dst, src, *inv))


@dataclass(frozen=True)
class UnitaryInvariant:
    """alpha = |torsion| and the alpha-fold amplified torsion-free quotient."""

    alpha: Cardinal
    amplified: FreePart


def _type_counts(s: Summands) -> dict[TypeClass, object]:
    """Canonical type -> multiplicity (int or omega) map, the free rank
    counted as copies of the zero type."""
    from .towers import ZERO_TYPE
    counts: dict[TypeClass, object] = {}
    for tc in s.types:
        counts[tc] = counts.get(tc, 0) + 1
    if s.free_rank:
        counts[ZERO_TYPE] = counts.get(ZERO_TYPE, 0) + s.free_rank
    for tc in s.omega_types:
        counts[tc] = OMEGA_COPIES
    return counts


def amplify(f: FreePart, alpha: Cardinal) -> FreePart:
    """The alpha-fold direct sum, in canonical form.

    Finite alpha multiplies multiplicities.  For alpha = omega every present
    type gets multiplicity omega (free summands count as the zero type) and
    every tower summand becomes an omega-copies marker, deduplicated
    structurally.
    """
    s = flatten(f)
    if not alpha.is_omega:
        n = alpha.value
        if n == 1:
            return f
        parts: list[FreePart] = []
        if s.free_rank:
            parts.append(FreeOfRank(n * s.free_rank))
        counts: dict[TypeClass, int] = {}
        for tc in s.types:
            counts[tc] = counts.get(tc, 0) + 1
        if counts:
            parts.append(CompletelyDecomposable(
                tuple(sorted(((tc, n * c) for tc, c in counts.items()),
                             key=lambda x: sorted(x[0].representative
                                                  .infinite_support())))))
        for t in s.towers:
            parts.extend([TowerForm(t)] * n)
        for tc in s.omega_types:
            parts.append(CompletelyDecomposable(((tc, OMEGA_COPIES),)))
        for t in s.omega_towers:
            parts.append(OmegaCopies(t))
        return direct_sum_of(parts) if parts else FreeOfRank(0)
    # omega amplification
    from .towers import ZERO_TYPE
    types: set[TypeClass] = set(s.types) | set(s.omega_types)
    if s.free_rank:
        types.add(ZERO_TYPE)
    parts = []
    if types:
        parts.append(CompletelyDecomposable(
            tuple(sorted(((tc, OMEGA_COPIES) for tc in types),
                         key=lambda x: sorted(x[0].representative
                                              .infinite_support())))))
    seen: list[Tower] = []
    for t in list(s.towers) + list(s.omega_towers):
        if t not in seen:
            seen.append(t)
            parts.append(OmegaCopies(t))
    return direct_sum_of(parts) if parts else FreeOfRank(0)


def unitary_invariant(d: AbGroupDesc) -> UnitaryInvariant:
    alpha = torsion_cardinal(d.torsion)
    return UnitaryInvariant(alpha, amplify(d.free, alpha))


def _top_wedge_characteristic(s: Summands) -> Supernatural:
    """Characteristic of the top exterior power of the whole (finite) sum:
    the tensor of the summands' top wedges, so exponents add.  Each top
    wedge is the rank-1 tower of its summand's connecting determinants."""
    total: dict[int, object] = {}

    def add(sup: Supernatural):
        for p, e in sup.items:
            cur = total.get(p, 0)
            total[p] = INF if INF in (cur, e) else cur + e

    for tc in s.types:
        add(tc.representative)
    for t in s.towers:
        top = _top_wedge(t)
        add(characteristic(top, unit_element(top)))
    return Supernatural.of(total)


def _relevant_primes(*summands: Summands) -> set[int]:
    primes: set[int] = set()
    for s in summands:
        for t in s.towers:
            primes.update(t.determinant_primes())
        for tc in s.types:
            primes.update(tc.representative.infinite_support())
    return primes


def _p_rank(s: Summands, p: int) -> int:
    rank = s.free_rank
    rank += sum(0 if p in tc.representative.infinite_support() else 1
                for tc in s.types)
    rank += sum(mod_p_rank(t, p) for t in s.towers)
    return rank


def _remove_multiset(pool: list[Tower], items: list[Tower]) -> bool:
    """Structurally remove items from pool; False (pool untouched) if any
    item is missing."""
    trial = list(pool)
    for it in items:
        if it in trial:
            trial.remove(it)
        else:
            return False
    pool[:] = trial
    return True


def _format_counts(counts: dict) -> str:
    bits = [f"{tc} x {mult}" for tc, mult in
            sorted(counts.items(),
                   key=lambda x: sorted(x[0].representative.infinite_support()))]
    return "{" + ", ".join(bits) + "}" if bits else "{}"


def compare_free_parts(f1: FreePart, f2: FreePart,
                       witnesses=()) -> Verdict:
    s1, s2 = flatten(f1), flatten(f2)

    if s1.has_omega or s2.has_omega:
        if s1.has_omega != s2.has_omega:
            fin = s1.finite_rank() if not s1.has_omega else s2.finite_rank()
            return Verdict(
                "verdict", NOT_ISOMORPHIC,
                f"rank: finite ({fin}) vs countably infinite")
        if not (s1.towers or s2.towers or s1.omega_towers or s2.omega_towers):
            c1, c2 = _type_counts(s1), _type_counts(s2)
            if c1 == c2:
                return Verdict(
                    "verdict", ISOMORPHIC,
                    "equal type multisets of completely decomposable parts: "
                    + _format_counts(c1))
            return Verdict(
                "verdict", NOT_ISOMORPHIC,
                f"type multiset {_format_counts(c1)} vs {_format_counts(c2)}")
        if (sorted(s1.omega_towers, key=repr) == sorted(s2.omega_towers, key=repr)
                and sorted(s1.towers, key=repr) == sorted(s2.towers, key=repr)
                and _type_counts(s1) == _type_counts(s2)):
            return Verdict(
                "verdict", ISOMORPHIC,
                "structurally identical omega-amplified summands")
        return Verdict(
            "verdict", UNKNOWN,
            "omega-amplified tower summands cannot be compared without "
            "structural equality; deciding such direct sums is outside the "
            "decidable class")

    r1, r2 = s1.finite_rank(), s2.finite_rank()
    decidable = not s1.towers and not s2.towers
    if r1 != r2:
        label = "free rank" if decidable and not s1.types and not s2.types \
            else "torsion-free rank"
        return Verdict("verdict", NOT_ISOMORPHIC, f"{label} {r1} vs {r2}")

    if decidable:
        c1, c2 = _type_counts(s1), _type_counts(s2)
        if c1 == c2:
            return Verdict(
                "verdict", ISOMORPHIC,
                "equal rank and type multiset " + _format_counts(c1))
        return Verdict(
            "verdict", NOT_ISOMORPHIC,
            f"type multiset {_format_counts(c1)} vs {_format_counts(c2)}")

    # towers of rank >= 2 present: attempt a certified summand matching
    pool1, pool2 = list(s1.towers), list(s2.towers)
    used = []
    for w in witnesses:
        src = summand_towers(w.src) * w.copies
        dst = summand_towers(w.dst) * w.copies
        for a, b in ((src, dst), (dst, src)):
            trial1, trial2 = list(pool1), list(pool2)
            if _remove_multiset(trial1, a) and _remove_multiset(trial2, b):
                # both orientations check the same map: check it once
                if check_witness(w):
                    pool1, pool2 = trial1, trial2
                    used.append(w.name)
                break
    # structural cancellation of identical presentations
    for t in list(pool1):
        if t in pool2:
            pool1.remove(t)
            pool2.remove(t)
    if not pool1 and not pool2:
        c1, c2 = _type_counts(s1), _type_counts(s2)
        if c1 == c2:
            via = f" via witnesses [{', '.join(used)}]" if used else ""
            return Verdict(
                "verdict", ISOMORPHIC,
                "summand-wise matching: towers matched" + via
                + ", remaining type multisets equal")

    # separating invariants computed on the full groups
    for p in sorted(_relevant_primes(s1, s2)):
        p1, p2 = _p_rank(s1, p), _p_rank(s2, p)
        if p1 != p2:
            return Verdict(
                "verdict", NOT_ISOMORPHIC,
                f"p-rank at p={p}: {p1} vs {p2}")
    top1, top2 = _top_wedge_characteristic(s1), _top_wedge_characteristic(s2)
    if TypeClass(top1) != TypeClass(top2):
        return Verdict(
            "verdict", NOT_ISOMORPHIC,
            f"type of the top exterior power: {TypeClass(top1)} vs "
            f"{TypeClass(top2)}")
    return Verdict(
        "verdict", UNKNOWN,
        f"unmatched tower summands ({len(pool1)} vs {len(pool2)} left) and "
        "no separating invariant found; register a witness to certify an "
        "isomorphism")


def compare_unitary(d1: AbGroupDesc, d2: AbGroupDesc,
                    witnesses=()) -> Verdict:
    """Compare unitary groups of the two group C*-algebras."""
    a1, a2 = torsion_cardinal(d1.torsion), torsion_cardinal(d2.torsion)
    if a1 != a2:
        return Verdict(
            "verdict", NOT_ISOMORPHIC,
            f"torsion subgroup cardinality {a1} vs {a2}")
    res = compare_free_parts(amplify(d1.free, a1), amplify(d2.free, a2),
                              witnesses)
    return replace(res,
                   evidence=f"alpha = {a1}; amplified parts: {res.evidence}")


def compare_k1(d1: AbGroupDesc, d2: AbGroupDesc,
               witnesses=()) -> Verdict:
    """Compare K1 groups of the two group C*-algebras."""
    res = compare_free_parts(_k1(d1), _k1(d2), witnesses)
    return replace(res, evidence=f"K1 summands: {res.evidence}")
