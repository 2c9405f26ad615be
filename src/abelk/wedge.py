"""Exterior powers of towers and K-groups of abelian group C*-algebras.

For a torsion-free abelian group F, K1 of C*(F) is the direct sum of the
odd exterior powers of F and K0 the direct sum of the even ones.  k1 and
k0 compute these groups for the torsion-free quotient F of the group
described: its torsion part T is discarded.  For T nonzero that is not
the K-theory of C*(T (+) F) = C(T^) (x) C*(F), whose K-groups are
C(T^, Z) (x) the even or odd exterior powers of F by the Kuenneth theorem
(ROADMAP item 4).  Exterior powers commute with direct limits, so the
wedge of a tower is the tower of compound matrices.  Lambda of a direct
sum is the tensor product of the summands' exterior algebras: a K-group
folds them as counts keyed by (degree mod 2, tensor factors), free part
first and then in flatten order.  A summand whose connecting
determinants are all +-1 (towers.is_free) is free and joins the free
part, so no tensor product of the others is free.  Each exterior power
of each distinct summand tower is made once, and each distinct tensor
product once, with its count and its factors sorted by summand.  Their
entries are built on first read, by compound_matrix of the power's own
order.  k1 and k0 never read them, and compare_k1 only for two tensor
products of equal rank, stage counts and determinants whose factors do
not pair up by rank and stage counts.

Each exterior power but the first is a _Wedge, and each tensor product a
towers._Tensor: a tower that holds only its recipe and computes from it,
on its own overrides of the Tower members, what a comparison reads (the
connecting determinants, p-ranks, determinant primes and the scalar
ratios that decide equality; see towers.Tower), none of it on a compound
or Kronecker matrix.  So the Hessenberg kernel of mod_p_rank and
factorize only ever see a summand tower of the input, at its own rank.
wedge_power_tower builds the compound matrices and derives nothing: it
is the reference.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections import Counter

from .matrices import (IntMatrix, binomial, compound_determinant,
                       compound_matrix)
from .groups import (AbGroupDesc, CompletelyDecomposable, FreeOfRank,
                     FreePart, KGroupDesc, TowerForm, direct_sum_of, flatten)
from .towers import (GroupElement, Tower, TypeClass, _Built, _fitting_stage,
                     is_divisible, is_free, mod_p_rank, push_to_stage,
                     rank1_tower_from_supernatural, tensor_towers,
                     tower_type, unit_element)


class _Wedge(_Built):
    """Lambda^k of the tower base, the tower of its k-th compound
    matrices, for k != 1.  At rank 1 (k = 0 or k = base.rank) its 1 x 1
    entries are its determinants; otherwise they come on first read from
    compound_matrix of each connecting matrix of base (prefix then
    period)."""

    def __init__(self, base: Tower, k: int):
        super().__init__(binomial(base.rank, k), base.stage_counts,
                         base=base, k=k)

    def _build(self):
        mats = ([IntMatrix(((d,),)) for d in self.connecting_dets]
                if self.rank == 1 else
                [compound_matrix(m, self.k)
                 for m in self.base.prefix + self.base.period])
        a = self.stage_counts[0]
        return mats[:a], mats[a:]

    @functools.cached_property
    def connecting_dets(self) -> tuple[int, ...]:
        # Sylvester-Franke: det Lambda^k A = det(A)^C(n-1, k-1), 1 for k = 0
        return tuple(compound_determinant(d, self.base.rank, self.k)
                     for d in self.base.connecting_dets)

    @functools.cached_property
    def _determinant_primes(self) -> frozenset[int]:
        # those of the base, since C(n-1, k-1) >= 1 for k >= 1
        return self.base.determinant_primes() if self.k else frozenset()

    def _p_rank(self, p: int) -> int:
        """C(r, k) for the p-rank r of the base.  The period product is
        Lambda^k Q (compounds are multiplicative), and over F_p the stable
        image of (Lambda^k Q)^N = Lambda^k(Q^N) has dimension
        C(rank Q^N, k)."""
        return binomial(mod_p_rank(self.base, p), self.k)

    def _ratios(self, other: Tower) -> list:
        """The bases' ratios to the k-th power, for two k-th powers of
        rank-n bases of rank C(n, k) > 1, so 1 <= k <= n - 1:
        Lambda^k(cA) = c^k Lambda^k A, and Lambda^k M is a scalar only
        when M is (its kernel on SL_n is normal and proper, so central, as
        PSL_n is simple).  Any other pair compares entries."""
        if (self.rank > 1 and isinstance(other, _Wedge)
                and (other.k, other.base.rank) == (self.k, self.base.rank)):
            return [r and (r[0] ** self.k, r[1] ** self.k)
                    for r in self.base._ratios(other.base)]
        return super()._ratios(other)


def wedge_power_tower(t: Tower, k: int) -> Tower:
    """Tower of the k-th exterior power: compound matrices stage by stage,
    a plain Tower that computes every invariant from them.  The reference
    for _wedge_towers."""
    if not 0 <= k <= t.rank:
        raise ValueError(f"wedge power {k} out of range for rank {t.rank}")
    return Tower(binomial(t.rank, k),
                 tuple(compound_matrix(m, k) for m in t.prefix),
                 tuple(compound_matrix(m, k) for m in t.period))


def _wedge_towers(t: Tower) -> list[Tower]:
    """Towers equal to wedge_power_tower(t, k) for every k = 0..rank: t
    itself for k = 1 and a _Wedge for every other k."""
    return [t if k == 1 else _Wedge(t, k) for k in range(t.rank + 1)]


def _rank1_algebra(factors: tuple, copies: int) -> Counter:
    """Lambda(R^copies) for R = Z (factors ()) or a rank-1 summand (one
    factor): Z in degree 0, R in 2^(copies-1) odd and 2^(copies-1) - 1
    even degrees.  R^(x k) is never built: its characteristic k * chi
    differs from chi at finitely many primes (every characteristic here
    is finitely supported), so it has the type of R."""
    half = 2 ** (copies - 1)
    return (Counter({(0, ()): 1, (1, factors): half})
            + Counter({(0, factors): half - 1}))


def _tower_algebra(i: int, rank: int, copies: int) -> dict:
    """Lambda(t^copies) = Lambda(t)^(x copies) for a tower t of the given
    rank: a term per multiset of degrees, counted by its multinomial,
    whose factors (i, d) are the positive-degree powers Lambda^d t in
    increasing d."""
    return {(sum(ds) % 2, tuple((i, d) for d in ds if d)):
            math.factorial(copies)
            // math.prod(math.factorial(ds.count(d)) for d in set(ds))
            for ds in itertools.combinations_with_replacement(
                range(rank + 1), copies)}


def _k_group(f: FreePart, parity: int) -> KGroupDesc:
    """Direct sum of the exterior powers of f of degree == parity mod 2,
    its parts in order of first occurrence in the fold."""
    s = flatten(f)
    if s.has_omega:
        raise ValueError(f"K{parity} of omega-amplified parts is not modeled")
    rank, limit = s.finite_rank(), sys.get_int_max_str_digits()
    # 2^(rank-1) has floor((rank - 1) * log10(2)) + 1 decimal digits
    if limit and (rank - 1) * math.log10(2) >= limit:
        raise ValueError(f"K-groups of total rank {rank} count up to "
                         f"2^{rank - 1} summands, more than {limit} digits "
                         "(sys.get_int_max_str_digits)")
    if parity and 0 < rank <= 2:
        return f  # the only odd exterior power is the first
    # free summands (is_free) join the free part; a factor (i, d) is
    # powers[i][d], Lambda^d of the i-th other summand, and order[i] sorts
    # that summand by rank, then prefix and period
    free_rank, algebras, powers, order = s.free_rank, [], [], []
    for t, c in [*((rank1_tower_from_supernatural(sup), c)
                   for sup, c in s.types.items()), *s.towers.items()]:
        if is_free(t):
            free_rank += c * t.rank
            continue
        order.append((t.rank, [m.entries for m in t.prefix],
                      [m.entries for m in t.period]))
        algebras.append(_rank1_algebra(((len(powers), 1),), c) if t.rank == 1
                        else _tower_algebra(len(powers), t.rank, c))
        powers.append(_wedge_towers(t))
    if free_rank:
        algebras.insert(0, _rank1_algebra((), free_rank))
    terms = {(0, ()): 1}
    for algebra in algebras:
        folded = {}
        for (p, fs), c in terms.items():
            for (q, gs), d in algebra.items():
                key = ((p + q) % 2, fs + gs)
                folded[key] = folded.get(key, 0) + c * d
        terms = folded
    out_free, parts = 0, []
    for (p, key), n in terms.items():
        if p != parity:
            continue
        # the empty product is Z, and no other is free: a factor
        # Lambda^d t (d >= 1) of a summand t that is not free has
        # det(A)^C(rank - 1, d - 1) at a stage where t has a determinant
        # det(A) other than +-1, and a tensor product has at that stage a
        # power of it times nonzero integers
        if not key:
            out_free += n
            continue
        # Kronecker factors in the order of their summands, so equal
        # products are equal towers whatever order the summands came in;
        # permuting factors conjugates each stage by one permutation
        factors = [powers[i][d]
                   for i, d in sorted(key, key=lambda x: (order[x[0]], x[1]))]
        t = tensor_towers(factors)
        if t.rank > 1 or n == 1:
            parts.append(TowerForm(t, n))
        else:
            parts.append(CompletelyDecomposable(((tower_type(t), n),)))
    return direct_sum_of([FreeOfRank(out_free), *parts])


def k1(desc: AbGroupDesc) -> KGroupDesc:
    """K1 of the group C*-algebra described by desc.

    The torsion part is discarded first.  Free parts of rank <= 2 come back
    structurally unchanged (the only odd wedge power is the first); a free
    group of rank m yields free rank 2^(m-1).
    """
    return _k_group(desc.free, parity=1)


def k0(desc: AbGroupDesc) -> KGroupDesc:
    """K0: direct sum of even exterior powers, including wedge^0 == Z."""
    return _k_group(desc.free, parity=0)


def wedge_square_type(t: Tower) -> TypeClass:
    """Type of the rank-1 group wedge^2 of a rank-2 tower, i.e. the
    characteristic driven by the running product of connecting determinants."""
    if t.rank != 2:
        raise ValueError("wedge_square_type requires a rank-2 tower")
    return tower_type(_Wedge(t, 2))


def _congruence_pair_solvable(c1: int, d1: int, c2: int, d2: int,
                              n: int) -> bool:
    """Whether c1 + d1*y == 0 and c2 + d2*y == 0 (mod n) have a common root."""
    g1 = math.gcd(d1, n)
    if c1 % g1:
        return False
    # particular solution of the first congruence, step n // g1
    y0 = (-c1 // g1 * pow(d1 // g1, -1, n // g1)) % (n // g1) if n // g1 > 1 else 0
    step = n // g1
    g2 = math.gcd(d2 * step, n)
    return (c2 + d2 * y0) % g2 == 0


def _kernel_has_unit_slot(m: IntMatrix, slot: int, n: int) -> bool:
    """Whether some v with m @ v == 0 mod n has v[slot] a unit mod n.

    Kernels are closed under unit scaling, so it suffices to look for a
    solution with v[slot] == 1.
    """
    other = 1 - slot
    return _congruence_pair_solvable(m[0, slot] % n, m[0, other] % n,
                                     m[1, slot] % n, m[1, other] % n, n)


def wedge_divisible_by_search(t: Tower, m: int) -> bool:
    """Search for an element k1*x1 + k2*x2 divisible by m with k1 or k2
    coprime to m (x1, x2 the stage-0 standard basis of a rank-2 tower).

    Equivalent to scanning all (k1, k2) in [0, m)^2: such an element
    exists iff some stage kernel mod m contains a vector whose first
    (resp. second) coordinate is a unit mod m.  Those kernels, of the
    maps from stage 0 on (Z/m)^2, grow with the stage and stop growing by
    the Fitting bound of the walk (towers._fitting_stage), so the kernel
    of the map to that stage holds them all.  Its columns are the two
    unit vectors pushed there.

    Such an element certifies m-divisibility of x1 ^ x2 for every m, and
    for prime m the converse holds as well (a nonzero kernel vector over a
    prime field always has a unit coordinate).  For composite m the
    converse can fail: in the group (1/2)Z (+) (1/8)Z the wedge x1 ^ x2 is
    divisible by 16, yet every 16-divisible combination has both
    coefficients even.  See wedge_unit_divisible for the unconditional
    divisibility test.
    """
    if t.rank != 2:
        raise ValueError("requires a rank-2 tower")
    if m < 2:
        raise ValueError("divisor must be >= 2")
    s = _fitting_stage(t, 0, m)
    cols = [push_to_stage(t, GroupElement(0, e), s).coords
            for e in ((1, 0), (0, 1))]
    mat = IntMatrix(tuple(zip(*cols)))
    return any(_kernel_has_unit_slot(mat, slot, m) for slot in (0, 1))


# Not used by the package: perfbench/run.py clears it before every
# operation it times, so it stays, empty.
_factor_cache: dict[int, dict[int, int]] = {}


def wedge_unit_divisible(t: Tower, m: int) -> bool:
    """m-divisibility of x1 ^ x2 checked directly in the wedge-square tower;
    the independent route against wedge_divisible_by_search."""
    w = wedge_power_tower(t, 2)
    return is_divisible(w, unit_element(w), m)
