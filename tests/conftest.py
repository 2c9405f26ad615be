"""Shared generators and naive oracles for the test suite."""

import random

from abelk import GroupElement, IntMatrix, Tower, push_to_stage


def rand_nonsingular(rng: random.Random, n: int, lo=-9, hi=9) -> IntMatrix:
    while True:
        m = IntMatrix.from_rows([[rng.randint(lo, hi) for _ in range(n)]
                                 for _ in range(n)])
        if m.det() != 0:
            return m


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
