"""The Fitting-bounded tower engine against the orbit-walk reference,
the stable period power behind p-ranks, and primality at the boundary."""

import random
from fractions import Fraction

import pytest

from abelk import (GroupElement, INF, IntMatrix, Tower, direct_sum_towers,
                   height, is_divisible, membership, parse_group_file,
                   smith_normal_form, tensor_towers)
from abelk import towers
from abelk.towers import is_prime, mod_p_rank

from conftest import orbit_first_stage, orbit_first_stage_mod, rand_tower

MODULI = (2, 3, 4, 6, 8, 9, 12, 25, 27, 36)


def rank1(prefix=(), period=()):
    return Tower(1, tuple(IntMatrix.from_rows([[x]]) for x in prefix),
                 tuple(IntMatrix.from_rows([[x]]) for x in period))


def random_cases(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        t = rand_tower(rng, rng.randint(1, 3), max_prefix=3, max_period=3)
        yield rng, t


def random_element(rng, t: Tower) -> GroupElement:
    return GroupElement(rng.randint(0, 2),
                        tuple(rng.randint(-40, 40) for _ in range(t.rank)))


class TestAgainstOrbitWalk:
    def test_is_divisible(self):
        for rng, t in random_cases(701, 150):
            e = random_element(rng, t)
            for m in MODULI:
                s = orbit_first_stage_mod(t, e.stage, e.coords, m)
                assert is_divisible(t, e, m) == (s is not None), (t, e, m)

    def test_membership_stage_and_coords(self):
        for rng, t in random_cases(703, 150):
            for m in MODULI:
                w = tuple(rng.randint(-40, 40) for _ in range(t.rank))
                v = tuple(Fraction(x, m) for x in w)
                s = orbit_first_stage_mod(t, 0, w, m)
                got = membership(t, v)
                if s is None:
                    assert got is None, (t, v)
                    continue
                coords = t.transition(0, s).to_rational().apply(v)
                assert got == GroupElement(s, tuple(int(c) for c in coords)), \
                    (t, v)

    def test_height(self):
        for rng, t in random_cases(707, 150):
            e = random_element(rng, t)
            if e.is_zero:
                continue
            for p in (2, 3, 5):
                h = height(t, e, p)
                if h == INF:
                    assert all(orbit_first_stage(t, e.stage, e.coords, p, k)
                               is not None for k in (1, 2, 3)), (t, e, p)
                    continue
                assert h == 0 or orbit_first_stage(
                    t, e.stage, e.coords, p, h) is not None, (t, e, p)
                assert orbit_first_stage(
                    t, e.stage, e.coords, p, h + 1) is None, (t, e, p)


def rank_mod_p_by_smith(m: IntMatrix, p: int) -> int:
    return sum(1 for d in smith_normal_form(m).diagonal() if d % p)


class TestModPRank:
    def test_matches_rank_of_period_power(self):
        for _, t in random_cases(709, 120):
            q = t.period_product()
            power = IntMatrix.identity(t.rank)
            for _ in range(t.rank):
                power = q @ power
            for p in (2, 3, 5, 7):
                assert mod_p_rank(t, p) == rank_mod_p_by_smith(power, p), \
                    (t, p)

    def test_rank1_empty_period(self):
        for t in (Tower.free(1), rank1(prefix=[2]), rank1(prefix=[6, 5])):
            for p in (2, 3, 5):
                assert mod_p_rank(t, p) == 1

    def test_rank1_periodic(self):
        assert mod_p_rank(rank1(period=[6]), 2) == 0
        assert mod_p_rank(rank1(period=[6]), 5) == 1


FIB = IntMatrix.from_rows([[0, 1], [1, 1]])
DIAG_101 = Tower(3, (), (IntMatrix.from_rows([[101]]).block_diag(FIB),))
SEMIPRIME = 1000000007 * 998244353


class TestFittingBound:
    """Each case is out of reach of the orbit walk with its seen set."""

    def test_deep_prime_power(self):
        m = 101 ** 6
        assert not is_divisible(DIAG_101, GroupElement(0, (0, 1, 0)), m)
        assert is_divisible(DIAG_101, GroupElement(0, (1, 0, 0)), m)
        assert (membership(DIAG_101, (Fraction(1, m), 0, 0))
                == GroupElement(6, (1, 0, 0)))

    def test_semiprime_modulus_is_not_factorized(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"factorize({n}) called")

        monkeypatch.setattr(towers, "factorize", refuse)
        one = GroupElement(0, (1,))
        assert is_divisible(rank1(period=[SEMIPRIME]), one, SEMIPRIME)
        assert not is_divisible(rank1(period=[1000000007]), one, SEMIPRIME)
        v = (Fraction(1, SEMIPRIME),)
        assert membership(rank1(period=[SEMIPRIME]), v) == GroupElement(1, (1,))
        assert membership(rank1(period=[998244353]), v) is None


class TestCommonShape:
    def test_prefixes_out_of_step_with_periods(self):
        # no prefix length is a whole number of periods past both prefixes
        # (1 and 0, periods of length 3); the stage maps need none
        t, u = rank1(prefix=[8], period=[-2, 9, -5]), rank1(period=[3, 4, -5])
        for combine, op in ((direct_sum_towers, IntMatrix.block_diag),
                            (tensor_towers, IntMatrix.kron)):
            c = combine([t, u])
            for s in range(12):
                assert c.stage_matrix(s) == op(t.stage_matrix(s),
                                               u.stage_matrix(s)), (op, s)


class TestIsPrime:
    def test_small_against_trial_division(self):
        for n in range(-3, 3000):
            want = n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
            assert is_prime(n) == want, n

    def test_strong_pseudoprimes(self):
        # strong pseudoprimes to the first 4, 9 and 12 prime bases
        for n in (3215031751, 3825123056546413051, 318665857834031151167461):
            assert not is_prime(n), n
        assert is_prime(2 ** 61 - 1) and is_prime(1000000007)

    def test_beyond_proven_range_rejected(self):
        # the least strong pseudoprime to all 13 bases
        with pytest.raises(ValueError):
            is_prime(3317044064679887385961981)
        assert not is_prime(10 ** 30)
        with pytest.raises(ValueError):
            parse_group_file('{"free": {"rank1": {"%d": "inf"}}}'
                             % (2 ** 89 - 1))

    def test_height_rejects_composite(self):
        with pytest.raises(ValueError):
            height(rank1(period=[2]), GroupElement(0, (1,)), 4)
