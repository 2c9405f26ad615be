"""Exterior powers of towers and K-groups of abelian group C*-algebras.

K1 of the group C*-algebra of a countable abelian group is the direct sum of
the odd exterior powers of its torsion-free quotient; K0 is the direct sum
of the even ones (the torsion part contributes nothing beyond a single Z in
degree zero).  Exterior powers commute with direct limits, so the wedge of a
tower is the tower of compound matrices.
"""

from __future__ import annotations

import itertools
import math

from .matrices import IntMatrix, binomial, compound_matrix
from .groups import (AbGroupDesc, FreeOfRank, FreePart, KGroupDesc,
                     Rank1, TowerForm, direct_sum_of, flatten,
                     summand_towers)
from .towers import (Tower, TypeClass, is_divisible, stable_period_power,
                     tensor_towers, tower_type, unit_element)


def wedge_power_tower(t: Tower, k: int) -> Tower:
    """Tower of the k-th exterior power: compound matrices stage by stage."""
    if not 0 <= k <= t.rank:
        raise ValueError(f"wedge power {k} out of range for rank {t.rank}")
    return Tower(binomial(t.rank, k),
                 tuple(compound_matrix(m, k) for m in t.prefix),
                 tuple(compound_matrix(m, k) for m in t.period))


def _is_trivial_tower(t: Tower) -> bool:
    ident = IntMatrix.identity(t.rank)
    return all(m == ident for m in t.prefix + t.period)


def _odd_even_sum(f: FreePart, parity: int) -> KGroupDesc:
    """Direct sum of the exterior powers of f with total degree == parity
    mod 2, computed summand by summand via the binomial expansion of the
    wedge of a direct sum."""
    s = flatten(f)
    if s.has_omega:
        raise ValueError("K-groups of omega-amplified parts are not modeled")
    # free summands (including any structurally trivial tower) only
    # contribute multiplicities, so split them off combinatorially
    free_rank = 0
    towers = []
    for t in summand_towers(f):
        if _is_trivial_tower(t):
            free_rank += t.rank
        else:
            towers.append(t)
    out_free = 0
    out_parts: list[FreePart] = []
    ranges = [range(t.rank + 1) for t in towers]
    for a in range(free_rank + 1):
        for degrees in itertools.product(*ranges):
            if (a + sum(degrees)) % 2 != parity:
                continue
            copies = binomial(free_rank, a)
            factors = [wedge_power_tower(t, d)
                       for t, d in zip(towers, degrees) if d >= 1]
            if not factors:
                out_free += copies
                continue
            summand = factors[0] if len(factors) == 1 else tensor_towers(factors)
            if _is_trivial_tower(summand):
                out_free += copies * summand.rank
            else:
                wrapped: FreePart = (Rank1(summand) if summand.rank == 1
                                     else TowerForm(summand))
                out_parts.extend([wrapped] * copies)
    parts: list[FreePart] = []
    if out_free or not out_parts:
        parts.append(FreeOfRank(out_free))
    parts.extend(out_parts)
    return direct_sum_of(parts)


def k1(desc: AbGroupDesc) -> KGroupDesc:
    """K1 of the group C*-algebra described by desc.

    The torsion part is discarded first.  Free parts of rank <= 2 come back
    structurally unchanged (the only odd wedge power is the first); a free
    group of rank m yields free rank 2^(m-1).
    """
    f = desc.free
    s = flatten(f)
    if s.has_omega:
        raise ValueError("K1 of omega-amplified parts is not modeled")
    rank = s.finite_rank()
    if rank == 0:
        return FreeOfRank(0)
    if isinstance(f, FreeOfRank):
        return FreeOfRank(2 ** (rank - 1))
    if rank <= 2:
        return f
    return _odd_even_sum(f, parity=1)


def k0(desc: AbGroupDesc) -> KGroupDesc:
    """K0: direct sum of even exterior powers, including wedge^0 == Z."""
    f = desc.free
    s = flatten(f)
    if s.has_omega:
        raise ValueError("K0 of omega-amplified parts is not modeled")
    if isinstance(f, FreeOfRank):
        return FreeOfRank(1 if f.rank == 0 else 2 ** (f.rank - 1))
    return _odd_even_sum(f, parity=0)


def wedge_square_type(t: Tower) -> TypeClass:
    """Type of the rank-1 group wedge^2 of a rank-2 tower, i.e. the
    characteristic driven by the running product of connecting determinants."""
    if t.rank != 2:
        raise ValueError("wedge_square_type requires a rank-2 tower")
    return tower_type(wedge_power_tower(t, 2))


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
    (resp. second) coordinate is a unit mod m.  Those kernels grow with
    the stage, and past the prefix they are the kernels of Q^j T(0, a)
    for the period product Q; (Z/m)^2 has length 2 * Omega(m), less than
    2 * m.bit_length(), so they stop growing at the stable power Q^N for
    that length, and the one matrix Q^N T(0, a) mod m holds them all.

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
    mat = (stable_period_power(t, m, m.bit_length())
           @ t.transition(0, len(t.prefix)))
    return any(_kernel_has_unit_slot(mat, slot, m) for slot in (0, 1))


# Not used by the package: perfbench/run.py clears it before every
# operation it times, so it stays, empty.
_factor_cache: dict[int, dict[int, int]] = {}


def wedge_unit_divisible(t: Tower, m: int) -> bool:
    """m-divisibility of x1 ^ x2 checked directly in the wedge-square tower;
    the independent route against wedge_divisible_by_search."""
    w = wedge_power_tower(t, 2)
    return is_divisible(w, unit_element(w), m)
