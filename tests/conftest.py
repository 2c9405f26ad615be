"""Shared generators and naive oracles for the test suite."""

import itertools
import random
from fractions import Fraction

from abelk import (INF, DimensionMismatchError, GroupElement, IntMatrix,
                   RatMatrix, SingularWitnessError, Supernatural, Tower,
                   characteristic, compound_matrix, direct_sum_towers,
                   membership, push_to_stage, rational_inverse,
                   unit_element)
from abelk.groups import (FreeOfRank, TowerForm, direct_sum_of,
                          flatten, summand_towers)
from abelk.matrices import binomial
from abelk.towers import _reduce, tensor_towers
from abelk.wedge import _kernel_has_unit_slot, _wedge_towers


def to_rational(a: IntMatrix) -> RatMatrix:
    """a with Fraction entries."""
    return RatMatrix.from_rows(a.entries)


def rat_matmul(x: RatMatrix, y: RatMatrix) -> RatMatrix:
    """Matrix product over Fraction."""
    if x.cols != y.rows:
        raise ValueError(f"dimension mismatch {x.cols} vs {y.rows}")
    yt = tuple(zip(*y.entries))
    return RatMatrix(tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in yt)
        for row in x.entries))


def rat_apply(m: RatMatrix, vec) -> tuple[Fraction, ...]:
    """Matrix-vector product over Fraction."""
    if m.cols != len(vec):
        raise ValueError("dimension mismatch")
    return tuple(sum(a * Fraction(b) for a, b in zip(row, vec))
                 for row in m.entries)


def rat_det(m: RatMatrix) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    n = m.rows
    if n != m.cols:
        raise ValueError("determinant of non-square matrix")
    rows = [list(row) for row in m.entries]
    d = Fraction(1)
    for i in range(n):
        pivot = next((r for r in range(i, n) if rows[r][i] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            rows[i], rows[pivot] = rows[pivot], rows[i]
            d = -d
        d *= rows[i][i]
        inv = 1 / rows[i][i]
        for r in range(i + 1, n):
            if rows[r][i] != 0:
                f = rows[r][i] * inv
                for c in range(i, n):
                    rows[r][c] -= f * rows[i][c]
    return d


def transition(t: Tower, s0: int, s1: int) -> IntMatrix:
    """Product of the connecting maps carrying stage s0 coordinates to
    stage s1."""
    if s1 < s0:
        raise ValueError("cannot transition backwards")
    m = IntMatrix.identity(t.rank)
    for s in range(s0, s1):
        m = t.stage_matrix(s) @ m
    return m


def period_product(t: Tower) -> IntMatrix:
    """Composite of one full period (the identity when it is empty)."""
    a, b = t.stage_counts
    return transition(t, a, a + b)


def krylov(q: IntMatrix, vec) -> list[tuple[int, ...]]:
    """The Krylov vectors vec, q vec, ..., q^n vec of an n x n matrix q."""
    out = [tuple(vec)]
    for _ in range(q.rows):
        out.append(q.apply(out[-1]))
    return out


def stable_period_power(t: Tower, mod: int) -> IntMatrix:
    """Q^N mod `mod` for the period product Q and a power of two
    N >= rank * mod.bit_length(), by repeated squaring.

    mod.bit_length() bounds the length of Z/mod, so (Z/mod)^rank has
    length at most rank * mod.bit_length(), and by Fitting's lemma Q^N has
    the kernel and the image of every later power."""
    q = _reduce(period_product(t), mod)
    for _ in range((t.rank * mod.bit_length() - 1).bit_length()):
        q = _reduce(q @ q, mod)
    return q


def stable_power_search(t: Tower, m: int) -> bool:
    """wedge_divisible_by_search by the stable power: every stage kernel
    mod m of a rank-2 tower lies in that of Q^N T(0, a) mod m."""
    mat = stable_period_power(t, m) @ transition(t, 0, len(t.prefix))
    return any(_kernel_has_unit_slot(mat, slot, m) for slot in (0, 1))


def fraction_min_poly(q: IntMatrix, vec) -> list[Fraction]:
    """Monic minimal polynomial of q on the cyclic subspace generated by
    vec, as coefficients [c0, c1, ..., 1] (low to high degree): the
    reference echelon over Fraction that finds the first Krylov vector
    dependent on the ones before it."""
    krylov: list[tuple[int, ...]] = []
    cur = tuple(vec)
    # row-echelon basis over Q with column pivots, to find first dependence
    basis: list[list[Fraction]] = []
    pivots: list[int] = []
    # raw[bi][j]: coefficient of krylov[j] in basis[bi]
    raw: list[list[Fraction]] = []
    while True:
        residual = [Fraction(x) for x in cur]
        coeffs = [Fraction(0)] * len(raw)
        for bi, (brow, piv) in enumerate(zip(basis, pivots)):
            f = residual[piv] / brow[piv]
            if f:
                coeffs[bi] = f
                residual = [x - f * y for x, y in zip(residual, brow)]
        piv = next((i for i, x in enumerate(residual) if x != 0), None)
        if piv is None:
            # cur = sum coeffs[i] * basis[i]: unwind to krylov coords
            combo = [Fraction(0)] * len(krylov)
            for bi, f in enumerate(coeffs):
                for j, g in enumerate(raw[bi]):
                    combo[j] += f * g
            return [-c for c in combo] + [Fraction(1)]
        krylov.append(cur)
        basis.append(residual)
        pivots.append(piv)
        newraw = [Fraction(0)] * len(krylov)
        newraw[-1] = Fraction(1)
        for bi, f in enumerate(coeffs):
            for j, g in enumerate(raw[bi]):
                newraw[j] -= f * g
        raw.append(newraw)
        cur = q.apply(cur)


def rand_nonsingular(rng: random.Random, n: int, lo=-9, hi=9) -> IntMatrix:
    while True:
        m = IntMatrix.from_rows([[rng.randint(lo, hi) for _ in range(n)]
                                 for _ in range(n)])
        if m.det() != 0:
            return m


def unimodular_pair(rng, n: int) -> tuple[IntMatrix, IntMatrix]:
    """A random U with det +-1 and its inverse, by elementary row moves."""
    u = IntMatrix.identity(n)
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        e = [[int(r == c) for c in range(n)] for r in range(n)]
        e[i][j] = rng.choice((-2, -1, 1, 2))
        u = IntMatrix.from_rows(e) @ u
    inv = rational_inverse(to_rational(u))
    return u, IntMatrix.from_rows([[int(x) for x in row]
                                   for row in inv.entries])


def rand_tower(rng: random.Random, rank: int, max_prefix=4,
               max_period=3) -> Tower:
    prefix = tuple(rand_nonsingular(rng, rank)
                   for _ in range(rng.randint(0, max_prefix)))
    period = tuple(rand_nonsingular(rng, rank)
                   for _ in range(rng.randint(0, max_period)))
    return Tower(rank, prefix, period)


def naive_divisible(t: Tower, e: GroupElement, m: int, depth: int) -> bool:
    """Unrolled oracle: e is m-divisible iff some pushed representative has
    all coordinates divisible by m (checked up to the given stage)."""
    for s in range(e.stage, depth + 1):
        cur = push_to_stage(t, e, s)
        if all(c % m == 0 for c in cur.coords):
            return True
    return False


def unroll_depth(t: Tower, periods: int = 4) -> int:
    return len(t.prefix) + periods * max(1, len(t.period))


def orbit_first_stage(t: Tower, stage: int, vec, p: int,
                      k: int) -> int | None:
    """Reference walk: least s >= stage with transition(t, stage, s) vec
    == 0 mod p^k, or None.

    Past the prefix the residue orbit lives on a finite state space keyed
    by (period phase, residue vector), so a repeated state proves
    unreachability.  The orbit can be about p^(k-1) times the order of the
    period product mod p long, so this suits small moduli only.
    """
    mod = p ** k
    a, b = len(t.prefix), len(t.period)
    # p divides no period determinant: past the prefix, residues evolve
    # invertibly and can never newly reach zero
    invertible = period_product(t).det() % p != 0
    cur = tuple(x % mod for x in vec)
    s = stage
    seen: set = set()
    while True:
        if all(x == 0 for x in cur):
            return s
        if s >= a:
            if b == 0:
                return None
            if (s - a) % b == 0 and invertible:
                return None
            state = ((s - a) % b, cur)
            if state in seen:
                return None
            seen.add(state)
        cur = tuple(sum(x * y for x, y in zip(row, cur)) % mod
                    for row in t.stage_matrix(s).entries)
        s += 1


def orbit_first_stage_mod(t: Tower, stage: int, vec, m: int) -> int | None:
    """orbit_first_stage for any modulus: reaching 0 mod m is reaching 0
    mod every prime power of m, and 0 stays 0 once reached."""
    best = stage
    d = 2
    while m > 1:
        k = 0
        while m % d == 0:
            m //= d
            k += 1
        if k:
            s = orbit_first_stage(t, stage, vec, d, k)
            if s is None:
                return None
            best = max(best, s)
        d += 1
    return best


def naive_check_witness(w) -> bool:
    """Reference witness check over Fraction: for each direction and each
    stage s up to the prefix plus two periods, rebuild T(0, s), invert it,
    apply the map to every generator column and test its membership one
    column at a time."""
    def combined(f):
        towers = summand_towers(f)
        block = direct_sum_towers(towers) if len(towers) > 1 else towers[0]
        if w.copies > 1:
            block = direct_sum_towers([block] * w.copies)
        return block

    src, dst = combined(w.src), combined(w.dst)
    n = w.map.rows
    if w.map.cols != n or src.rank != n or dst.rank != n:
        raise DimensionMismatchError("dimension mismatch")
    if rat_det(w.map) == 0:
        raise SingularWitnessError("witness map is singular")
    inv = rational_inverse(w.map)
    for tower, other, mat in ((src, dst, w.map), (dst, src, inv)):
        bound = len(tower.prefix) + 2 * max(1, len(tower.period))
        for s in range(bound + 1):
            gens = rational_inverse(to_rational(transition(tower, 0, s)))
            for j in range(n):
                image = rat_apply(mat, tuple(row[j] for row in gens.entries))
                if membership(other, image) is None:
                    return False
    return True


def naive_top_wedge_characteristic(s) -> Supernatural:
    """Characteristic of the top exterior power of the flattened sum s by
    the full-order route: each tower summand's top wedge is the tower of
    its full-order compound matrices, and its characteristic is computed
    from scratch (determinants included)."""
    total: dict = {}

    def add(sup):
        for p, e in sup.items:
            cur = total.get(p, 0)
            total[p] = INF if INF in (cur, e) else cur + e

    for sup, copies in s.types.items():
        for _ in range(copies):
            add(sup)
    for t, copies in s.towers.items():
        top = Tower(1, tuple(compound_matrix(m, t.rank) for m in t.prefix),
                    tuple(compound_matrix(m, t.rank) for m in t.period))
        for _ in range(copies):
            add(characteristic(top, unit_element(top)))
    return Supernatural.of(total)


def _listed_is_free(t) -> bool:
    """Whether every connecting matrix of t, read entry by entry, has
    determinant +-1, so that t presents Z^rank."""
    return all(abs(m.det()) == 1 for m in t.prefix + t.period)


def _listed_tensor_of_powers(powers, degrees):
    """The tensor product of the exterior powers powers[i][degrees[i]],
    as a free summand when its tower is free."""
    factors = [w[d] for w, d in zip(powers, degrees) if d >= 1]
    if not factors:
        return FreeOfRank(1)
    summand = factors[0] if len(factors) == 1 else tensor_towers(factors)
    if _listed_is_free(summand):
        return FreeOfRank(summand.rank)
    return TowerForm(summand)


def listed_odd_even_sum(f, parity: int):
    """Reference for the K-groups: the direct sum of the exterior powers of
    f of degree == parity mod 2, by the binomial expansion of the wedge of
    a direct sum over every listed copy of every summand (one part per
    copy, each degree tuple's product built once)."""
    free_rank = 0
    towers = []
    for t in summand_towers(f):
        if _listed_is_free(t):
            free_rank += t.rank
        else:
            towers.append(t)
    out_free = 0
    out_parts = []
    powers = [_wedge_towers(t) for t in towers]
    ranges = [range(t.rank + 1) for t in towers]
    products = {}
    for a in range(free_rank + 1):
        for degrees in itertools.product(*ranges):
            if (a + sum(degrees)) % 2 != parity:
                continue
            copies = binomial(free_rank, a)
            if degrees not in products:
                products[degrees] = _listed_tensor_of_powers(powers, degrees)
            part = products[degrees]
            if isinstance(part, FreeOfRank):
                out_free += copies * part.rank
            else:
                out_parts.extend([part] * copies)
    parts = []
    if out_free or not out_parts:
        parts.append(FreeOfRank(out_free))
    parts.extend(out_parts)
    return direct_sum_of(parts)


def listed_k_group(desc, parity: int):
    """Reference k1 (parity 1) or k0 (parity 0): free parts of rank 1 or 2
    are their own K1, everything else is listed_odd_even_sum."""
    rank = flatten(desc.free).finite_rank()
    if parity and 0 < rank <= 2:
        return desc.free
    return listed_odd_even_sum(desc.free, parity)
