"""Shared generators and naive oracles for the test suite."""

import random

from abelk import (INF, DimensionMismatchError, GroupElement, IntMatrix,
                   SingularWitnessError, Supernatural, Tower,
                   characteristic, compound_matrix, direct_sum_towers,
                   membership, push_to_stage, rational_inverse,
                   unit_element)
from abelk.groups import summand_towers


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
    inv = rational_inverse(u.to_rational())
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
    """Reference walk: least s >= stage with (transition to s)(vec) == 0
    mod p^k, or None.

    Past the prefix the residue orbit lives on a finite state space keyed
    by (period phase, residue vector), so a repeated state proves
    unreachability.  The orbit can be about p^(k-1) times the order of the
    period product mod p long, so this suits small moduli only.
    """
    mod = p ** k
    a, b = len(t.prefix), len(t.period)
    cur = tuple(x % mod for x in vec)
    s = stage
    seen: set = set()
    while True:
        if all(x == 0 for x in cur):
            return s
        if s >= a:
            if b == 0:
                return None
            # p divides no period determinant: residues evolve invertibly
            # and can never newly reach zero
            if (s - a) % b == 0 and t.period_product().det() % p != 0:
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
    if w.map.det() == 0:
        raise SingularWitnessError("witness map is singular")
    inv = rational_inverse(w.map)
    for tower, other, mat in ((src, dst, w.map), (dst, src, inv)):
        bound = len(tower.prefix) + 2 * max(1, len(tower.period))
        for s in range(bound + 1):
            gens = rational_inverse(tower.transition(0, s).to_rational())
            for j in range(n):
                image = mat.apply(tuple(row[j] for row in gens.entries))
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

    for tc in s.types:
        add(tc.representative)
    for t in s.towers:
        top = Tower(1, tuple(compound_matrix(m, t.rank) for m in t.prefix),
                    tuple(compound_matrix(m, t.rank) for m in t.period))
        add(characteristic(top, unit_element(top)))
    return Supernatural.of(total)
