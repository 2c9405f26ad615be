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

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass, replace

from .fg import TorsionDesc
from .groups import (AbGroupDesc, CompletelyDecomposable, Copies, FreeOfRank,
                     FreePart, Summands, TowerForm, add_copies, check_copies,
                     direct_sum_of, flatten, summand_towers, times_copies,
                     NO_TOWER_FORM, OMEGA_COPIES)
from .matrices import (IntMatrix, RatMatrix, SingularMatrixError,
                       integer_inverse)
from .towers import (ZERO_CHARACTERISTIC, ZERO_TYPE, Tower, TypeClass,
                     _first_stage_reaching_zero, _stage_counts, _stage_value,
                     mod_p_rank)
from .wedge import k1 as _k1

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

    def __post_init__(self):
        if type(self.copies) is not int or self.copies < 1:
            raise ValueError("witness copies must be a positive int")

    # cached_property stores into the instance dict, which a frozen
    # dataclass leaves writable and keeps out of ==/hash, as on Tower
    @functools.cached_property
    def _valid(self) -> bool:
        """check_witness's answer, computed on first call."""
        # the ranks come from the counts, so an oversized count (of the
        # witness or a summand) is rejected at once
        src_rank = self.copies * flatten(self.src).finite_rank()
        dst_rank = self.copies * flatten(self.dst).finite_rank()
        n = self.map.rows
        if self.map.cols != n or src_rank != n or dst_rank != n:
            raise DimensionMismatchError(
                f"witness map is {self.map.rows}x{self.map.cols}, towers "
                f"have ranks {src_rank} and {dst_rank}")
        den = math.lcm(*(x.denominator for row in self.map.entries
                         for x in row))
        a = IntMatrix(tuple(tuple(x.numerator * (den // x.denominator)
                                  for x in row) for row in self.map.entries))
        try:
            b, e = integer_inverse(a)
        except SingularMatrixError:
            raise SingularWitnessError("witness map is singular") from None
        src = _blocks(summand_towers(self.src) * self.copies)
        dst = _blocks(summand_towers(self.dst) * self.copies)
        # (a / den)^-1 = den * b / e
        inv = _reduced([tuple(den * x for x in row) for row in b.entries], e)
        return (_maps_lattices_into(src, dst, a.entries, den)
                and _maps_lattices_into(dst, src, *inv))


def _blocks(towers) -> list[tuple[int, Tower]]:
    """(offset, tower) of each diagonal block of the direct sum of towers."""
    out, offset = [], 0
    for t in towers:
        out.append((offset, t))
        offset += t.rank
    return out


def _reduced(rows, d: int) -> tuple[list[tuple[int, ...]], int]:
    """The integer rows over the denominator d, with the common factor of
    d and every entry divided out."""
    g = math.gcd(d, *(x for row in rows for x in row))
    if g == 1:
        return rows, d
    return [tuple(x // g for x in row) for row in rows], d // g


def _maps_lattices_into(blocks, other, rows, d: int) -> bool:
    """Whether the matrix rows / d maps the stage-s lattice of the direct
    sum of blocks into the limit group of the direct sum of other, for
    every s up to the blocks' longest prefix plus two of their common
    periods (_stage_counts).  blocks and other list (offset, tower) of
    each diagonal block.

    The stage-s generators are the columns of T(0, s)^-1, so their images
    are the columns of G_s = (rows / d) T(0, s)^-1, carried as integer
    rows over one denominator: G_s = G_(s-1) Q_(s-1)^-1.  Q is block
    diagonal, so it is inverted block by block: each block's
    integer_inverse, once per block tower and position in its prefix and
    period, scaled to the lcm of the block denominators; a block past the
    prefix of an empty period is the identity.  All n images are decided
    by one residue walk per block of other, mod the denominator of G_s,
    on that block's slice of them: a vector of a direct sum lies in it iff
    every slice lies in its block.  No block-diagonal matrix is built.
    """
    a, b = _stage_counts([f for _, f in blocks])
    inverses = {}
    for s in range(a + 2 * b + 1):
        if s:
            stage = []
            for i, f in blocks:
                # the index of f's map at stage s - 1 among its prefix and
                # period matrices, None for the identity
                pos = _stage_value(f, s - 1, range(sum(f.stage_counts)),
                                   None)
                if pos is None:
                    stage.append((i, f.rank, None, 1))
                    continue
                if (f, pos) not in inverses:
                    inv, e = integer_inverse(f.stage_matrix(s - 1))
                    inverses[f, pos] = tuple(zip(*inv.entries)), e
                stage.append((i, f.rank, *inverses[f, pos]))
            e = math.lcm(*(e for *_, e in stage))
            rows, d = _reduced([_times_blocks(row, stage, e)
                                for row in rows], d * e)
        images = list(zip(*rows))
        for i, f in other:
            if _first_stage_reaching_zero(
                    f, 0, [v[i:i + f.rank] for v in images], d) is None:
                return False
    return True


def _times_blocks(row, blocks, e: int) -> tuple[int, ...]:
    """e times row times the block-diagonal matrix of blocks, each
    (offset, rank, columns over its denominator, or None for the
    identity, denominator), e a multiple of every denominator."""
    out = []
    for i, r, cols, d in blocks:
        part, k = row[i:i + r], e // d
        if cols is None:
            out.extend(x * k for x in part)
        else:
            out.extend(sum(map(operator.mul, part, col)) * k for col in cols)
    return tuple(out)


def check_witness(w: Witness) -> bool:
    """Check a witness by membership tests in both directions.

    Every stage-s lattice generator of the source must map into the target
    and vice versa under the inverse, for every s up to the prefix plus
    two full periods of the tower it comes from.  This is a finite check,
    not a proof: nothing shows that the images past that horizon stay in
    the limit group, and the identity map from Z[1/2]^2 to (1/8)Z^2, two
    non-isomorphic groups, passes it.

    The check runs in integers.  The map is inverted once as an integer
    matrix over a denominator.  The towers are direct sums of the copies
    of the summands, and no block-diagonal matrix is built: each stage
    map is inverted block by block, and per stage one residue walk in
    each block of the target decides all generators at once
    (_maps_lattices_into).  A witness is checked once: the answer is kept
    on it, so the gallery's entries, which share one witness, check it
    once.  A witness that raises is checked again on the next call.
    """
    return w._valid


@dataclass(frozen=True)
class UnitaryInvariant:
    """alpha = |torsion| and the alpha-fold amplified torsion-free quotient."""

    alpha: Copies
    amplified: FreePart


def _type_counts(s: Summands) -> dict[TypeClass, Copies]:
    """Canonical type -> multiplicity map, the free rank counted as copies
    of the zero type."""
    counts: dict[TypeClass, Copies] = {}
    for sup, c in s.types.items():
        tc = TypeClass(sup)
        counts[tc] = add_copies(counts.get(tc, 0), c)
    if s.free_rank:
        counts[ZERO_TYPE] = add_copies(counts.get(ZERO_TYPE, 0), s.free_rank)
    return counts


def torsion_cardinal(t: TorsionDesc) -> Copies:
    """Size of the torsion subgroup as a count: its order (1 for the
    trivial group) or omega."""
    return OMEGA_COPIES if t.is_countably_infinite else t.finite.order()


def amplify(f: FreePart, alpha: Copies) -> FreePart:
    """The alpha-fold direct sum, in canonical form: every multiplicity
    times alpha.  Free summands are a rank for finite alpha and the zero
    type with multiplicity omega for alpha = omega.
    """
    check_copies(alpha)
    if alpha == 1:
        return f
    s = flatten(f)
    types = {sup: times_copies(c, alpha) for sup, c in s.types.items()}
    free = times_copies(s.free_rank, alpha) if s.free_rank else 0
    parts: list[FreePart] = []
    if free == OMEGA_COPIES:
        types[ZERO_CHARACTERISTIC] = free
    elif free:
        parts.append(FreeOfRank(free))
    if types:
        parts.append(CompletelyDecomposable(tuple(sorted(
            ((TypeClass(sup), c) for sup, c in types.items()),
            key=lambda x: x[0]))))
    parts.extend(TowerForm(t, times_copies(c, alpha))
                 for t, c in s.towers.items())
    return direct_sum_of(parts) if parts else FreeOfRank(0)


def unitary_invariant(d: AbGroupDesc) -> UnitaryInvariant:
    alpha = torsion_cardinal(d.torsion)
    return UnitaryInvariant(alpha, amplify(d.free, alpha))


def _relevant_primes(*summands: Summands) -> set[int]:
    primes: set[int] = set()
    for s in summands:
        for t in s.towers:
            primes.update(t.determinant_primes())
        for sup in s.types:
            primes.update(sup.infinite_support())
    return primes


def _p_rank(s: Summands, p: int) -> int:
    rank = s.free_rank
    rank += sum(c for sup, c in s.types.items()
                if p not in sup.infinite_support())
    rank += sum(c * mod_p_rank(t, p) for t, c in s.towers.items())
    return rank


def _tower_multiset(f: FreePart, copies: int) -> Counter | None:
    """summand_towers(f) * copies, counted instead of listed, or None when
    f has a free or rank-1 summand: the pools of compare_free_parts hold
    only the towers of rank >= 2 that are not free, so such a side never
    fits."""
    s = flatten(f)
    if s.has_omega:
        raise ValueError(NO_TOWER_FORM)
    if s.types or s.free_rank:
        return None
    return Counter({t: c * copies for t, c in s.towers.items()})


def _format_counts(counts: dict) -> str:
    bits = [f"{tc} x {mult}"
            for tc, mult in sorted(counts.items(), key=lambda x: x[0])]
    return "{" + ", ".join(bits) + "}" if bits else "{}"


def compare_free_parts(f1: FreePart, f2: FreePart,
                       witnesses=()) -> Verdict:
    """Compare two free parts: ranks, then type multisets in the decidable
    class, then witnesses and identical towers, then the p-ranks.

    The p-ranks at the primes of _relevant_primes are the one separating
    invariant at a prime.  The type of the top wedge Lambda^r of a sum of
    rank r is its infinite support (every characteristic here is finitely
    supported), and p lies in it iff the p-rank is below r: a rank-1 type
    has p-rank 0 iff p is in its infinite support, and a tower has p-rank
    below its rank iff p divides a period determinant.  Every such p is
    relevant, so equal p-ranks give equal top types.
    """
    s1, s2 = flatten(f1), flatten(f2)
    c1, c2 = _type_counts(s1), _type_counts(s2)

    if s1.has_omega or s2.has_omega:
        if s1.has_omega != s2.has_omega:
            fin = s1.finite_rank() if not s1.has_omega else s2.finite_rank()
            return Verdict(
                "verdict", NOT_ISOMORPHIC,
                f"rank: finite ({fin}) vs countably infinite")
        if not (s1.towers or s2.towers):
            if c1 == c2:
                return Verdict(
                    "verdict", ISOMORPHIC,
                    "equal type multisets of completely decomposable parts: "
                    + _format_counts(c1))
            return Verdict(
                "verdict", NOT_ISOMORPHIC,
                f"type multiset {_format_counts(c1)} vs {_format_counts(c2)}")
        if s1.towers == s2.towers and c1 == c2:
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
        if c1 == c2:
            return Verdict(
                "verdict", ISOMORPHIC,
                "equal rank and type multiset " + _format_counts(c1))
        return Verdict(
            "verdict", NOT_ISOMORPHIC,
            f"type multiset {_format_counts(c1)} vs {_format_counts(c2)}")

    # non-free towers of rank >= 2 present: attempt a certified matching
    pool1, pool2 = Counter(s1.towers), Counter(s2.towers)
    used = []
    for w in witnesses:
        src = _tower_multiset(w.src, w.copies)
        dst = _tower_multiset(w.dst, w.copies)
        if src is None or dst is None:
            continue
        for a, b in ((src, dst), (dst, src)):
            if a <= pool1 and b <= pool2:
                # both orientations check the same map: check it once
                if check_witness(w):
                    pool1, pool2 = pool1 - a, pool2 - b
                    used.append(w.name)
                break
    # structural cancellation of identical presentations
    common = pool1 & pool2
    pool1, pool2 = pool1 - common, pool2 - common
    if not pool1 and not pool2 and c1 == c2:
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
    return Verdict(
        "verdict", UNKNOWN,
        f"unmatched tower summands ({pool1.total()} vs {pool2.total()} left) "
        "and no separating invariant found; register a witness to certify "
        "an isomorphism")


def compare_unitary(d1: AbGroupDesc, d2: AbGroupDesc,
                    witnesses=()) -> Verdict:
    """Compare unitary groups of the two group C*-algebras."""
    u1, u2 = unitary_invariant(d1), unitary_invariant(d2)
    if u1.alpha != u2.alpha:
        return Verdict(
            "verdict", NOT_ISOMORPHIC,
            f"torsion subgroup cardinality {u1.alpha} vs {u2.alpha}")
    res = compare_free_parts(u1.amplified, u2.amplified, witnesses)
    return replace(res, evidence=f"alpha = {u1.alpha}; amplified parts: "
                                 f"{res.evidence}")


def compare_k1(d1: AbGroupDesc, d2: AbGroupDesc,
               witnesses=()) -> Verdict:
    """Compare K1 groups of the two group C*-algebras."""
    res = compare_free_parts(_k1(d1), _k1(d2), witnesses)
    return replace(res, evidence=f"K1 summands: {res.evidence}")
