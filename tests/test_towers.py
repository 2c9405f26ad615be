"""Towers: membership, divisibility, heights, characteristics, types."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from abelk import (GroupElement, INF, IntMatrix, Supernatural, Tower,
                   TypeClass, ZeroElementError, characteristic,
                   direct_sum_towers, elements_equal, height, is_divisible,
                   membership, push_to_stage, rank1_isomorphic,
                   rank1_tower_from_supernatural, tensor_towers, tower_type,
                   types_equivalent, unit_element, validate_tower)
from abelk.towers import mod_p_rank

from conftest import naive_divisible, rand_tower, unroll_depth


def rank1(prefix=(), period=()):
    return Tower(1, tuple(IntMatrix.from_rows([[x]]) for x in prefix),
                 tuple(IntMatrix.from_rows([[x]]) for x in period))


DOUBLING = rank1(period=[2])


class TestValidation:
    def test_ok(self):
        assert validate_tower(rank1(prefix=[2], period=[3])) == []

    def test_singular_period(self):
        t = Tower(2, (), (IntMatrix.from_rows([[1, 0], [0, 0]]),))
        assert any("singular" in d for d in validate_tower(t))

    def test_size_mismatch(self):
        t = Tower(2, (IntMatrix.identity(3),), ())
        assert any("3x3" in d for d in validate_tower(t))

    def test_bad_rank(self):
        assert validate_tower(Tower(0)) != []


class TestPush:
    def test_push_by_zero(self):
        e = GroupElement(2, (5,))
        assert push_to_stage(DOUBLING, e, 2) == e

    def test_repeated_doubling(self):
        e = GroupElement(0, (1,))
        assert push_to_stage(DOUBLING, e, 3) == GroupElement(3, (8,))

    def test_push_composes(self):
        rng = random.Random(9)
        for _ in range(20):
            t = rand_tower(rng, 2)
            e = GroupElement(0, (rng.randint(-5, 5), rng.randint(-5, 5)))
            s1, s2 = sorted((rng.randint(0, 6), rng.randint(0, 6)))
            assert (push_to_stage(t, push_to_stage(t, e, s1), s2)
                    == push_to_stage(t, e, s2))

    def test_backwards_raises(self):
        with pytest.raises(ValueError):
            push_to_stage(DOUBLING, GroupElement(3, (1,)), 1)

    def test_elements_equal_across_stages(self):
        e = GroupElement(0, (4,))
        assert elements_equal(DOUBLING, e, GroupElement(2, (16,)))
        assert not elements_equal(DOUBLING, e, GroupElement(2, (4,)))


class TestMembership:
    def test_integer_vector(self):
        assert membership(DOUBLING, [7]) == GroupElement(0, (7,))

    def test_eighth_member_at_stage_three(self):
        got = membership(DOUBLING, [Fraction(1, 8)])
        assert got == GroupElement(3, (1,))

    def test_third_not_member(self):
        assert membership(DOUBLING, [Fraction(1, 3)]) is None

    def test_membership_pushback_reproduces(self):
        rng = random.Random(13)
        for _ in range(30):
            t = rand_tower(rng, 2)
            num = (rng.randint(-8, 8), rng.randint(-8, 8))
            den = rng.randint(1, 12)
            v = tuple(Fraction(n, den) for n in num)
            e = membership(t, v)
            if e is None:
                continue
            back = t.transition(0, e.stage).to_rational()
            # back @ v must equal the integer coords found
            assert back.apply(v) == tuple(Fraction(c) for c in e.coords)


class TestDivisibility:
    def test_one_divides_everything(self):
        assert is_divisible(DOUBLING, GroupElement(0, (3,)), 1)

    def test_powers_of_two(self):
        assert is_divisible(DOUBLING, GroupElement(0, (1,)), 16)
        assert not is_divisible(DOUBLING, GroupElement(0, (1,)), 3)

    def test_multiplicative_over_coprime_factors(self):
        rng = random.Random(17)
        for _ in range(40):
            t = rand_tower(rng, 2)
            e = GroupElement(0, (rng.randint(-6, 6), rng.randint(-6, 6)))
            m, n = rng.choice([(2, 3), (4, 9), (2, 5), (8, 3), (5, 9)])
            assert is_divisible(t, e, m * n) == (
                is_divisible(t, e, m) and is_divisible(t, e, n))

    def test_against_unrolling_oracle(self):
        rng = random.Random(19)
        for _ in range(60):
            rank = rng.choice([1, 2])
            t = rand_tower(rng, rank)
            e = GroupElement(0, tuple(rng.randint(-6, 6)
                                      for _ in range(rank)))
            depth = unroll_depth(t)
            for m in range(2, 13):
                got = is_divisible(t, e, m)
                want = naive_divisible(t, e, m, depth)
                if got != want:
                    # the decision procedure is complete; the bounded
                    # oracle may only miss positives, never invent them
                    assert got and not want
                    assert naive_divisible(t, e, m, depth * 8)


class TestHeight:
    def test_infinite_two_height(self):
        assert height(DOUBLING, GroupElement(0, (1,)), 2) == INF

    def test_zero_three_height(self):
        assert height(DOUBLING, GroupElement(0, (1,)), 3) == 0

    def test_prefix_only_contribution(self):
        t = rank1(prefix=[12], period=[5])
        assert height(t, GroupElement(0, (1,)), 3) == 1

    def test_zero_element_raises(self):
        with pytest.raises(ZeroElementError):
            height(DOUBLING, GroupElement(0, (0,)), 2)

    def test_invariant_under_push(self):
        rng = random.Random(23)
        for _ in range(25):
            t = rand_tower(rng, 2)
            e = GroupElement(0, (rng.randint(-5, 5), rng.randint(1, 5)))
            pushed = push_to_stage(t, e, rng.randint(1, 5))
            for p in (2, 3, 5):
                assert height(t, e, p) == height(t, pushed, p)

    def test_quadratic_period_heights(self):
        # the period acts like multiplication by a norm-(-11) quadratic
        # integer: only one of the two primes above 11 is inverted, so
        # element heights at 11 stay finite even though the running
        # determinant product is divisible by arbitrarily high powers of 11
        t = Tower(2, (), (IntMatrix.from_rows([[2, 15], [1, 2]]),))
        assert height(t, GroupElement(0, (1, 0)), 11) == 0
        assert height(t, GroupElement(0, (1, 0)), 2) == 0
        wedge = Tower(1, (), (IntMatrix.from_rows([[-11]]),))
        assert height(wedge, GroupElement(0, (1,)), 11) == INF

    def test_matches_divisibility_sup(self):
        rng = random.Random(29)
        for _ in range(25):
            t = rand_tower(rng, 2, max_prefix=2, max_period=2)
            e = GroupElement(0, (rng.randint(1, 6), rng.randint(-6, 6)))
            for p in (2, 3):
                h = height(t, e, p)
                if h == INF:
                    assert is_divisible(t, e, p ** 6)
                else:
                    assert is_divisible(t, e, p ** h)
                    assert not is_divisible(t, e, p ** (h + 1))


class TestCharacteristic:
    def test_free_tower_is_zero(self):
        t = Tower.free(2)
        assert characteristic(t, GroupElement(0, (1, 0))) == Supernatural()

    def test_period_six(self):
        t = rank1(period=[6])
        got = characteristic(t, GroupElement(0, (1,)))
        assert got == Supernatural.of({2: INF, 3: INF})

    def test_prefix_four_period_three(self):
        t = rank1(prefix=[4], period=[3])
        got = characteristic(t, GroupElement(0, (1,)))
        assert got == Supernatural.of({2: 2, 3: INF})

    def test_doubling_element_bumps_two_only(self):
        rng = random.Random(31)
        for _ in range(20):
            t = rand_tower(rng, 2, max_prefix=2, max_period=2)
            coords = (rng.randint(1, 5), rng.randint(-5, 5))
            e = GroupElement(0, coords)
            e2 = GroupElement(0, tuple(2 * c for c in coords))
            c1 = characteristic(t, e)
            c2 = characteristic(t, e2)
            for p in sorted(c1.primes() | c2.primes()):
                if p == 2:
                    want = c1.exponent(2) + 1 if c1.exponent(2) != INF else INF
                    assert c2.exponent(2) == want
                else:
                    assert c2.exponent(p) == c1.exponent(p)


def supernaturals():
    return st.dictionaries(
        st.sampled_from([2, 3, 5, 7, 11]),
        st.one_of(st.integers(0, 9), st.just(INF)),
        max_size=4).map(Supernatural.of)


class TestTypes:
    def test_finite_disagreement_equivalent(self):
        assert types_equivalent(Supernatural.of({2: INF, 3: 1}),
                                Supernatural.of({2: INF}))

    def test_infinite_disagreement_not(self):
        assert not types_equivalent(Supernatural.of({2: INF}), Supernatural())

    @given(supernaturals())
    def test_reflexive(self, s):
        assert types_equivalent(s, s)

    @given(supernaturals(), supernaturals())
    def test_symmetric(self, a, b):
        assert types_equivalent(a, b) == types_equivalent(b, a)

    @given(supernaturals(), supernaturals(), supernaturals())
    def test_transitive(self, a, b, c):
        if types_equivalent(a, b) and types_equivalent(b, c):
            assert types_equivalent(a, c)

    def test_rank1_isomorphic(self):
        assert rank1_isomorphic(rank1(period=[2]),
                                rank1(prefix=[3], period=[2]))
        assert not rank1_isomorphic(rank1(period=[2]), rank1(period=[3]))
        t = rank1(prefix=[5], period=[14])
        assert rank1_isomorphic(t, t)

    def test_canonical_tower_roundtrip(self):
        s = Supernatural.of({2: 3, 5: INF})
        t = rank1_tower_from_supernatural(s)
        assert characteristic(t, unit_element(t)) == s

    def test_supernatural_rejects_composite_key(self):
        with pytest.raises(ValueError, match="not prime"):
            Supernatural.of({4: 1})
        with pytest.raises(ValueError, match="not prime"):
            Supernatural.of({4: 0})

    def test_typeclass_equality_and_hash(self):
        a = TypeClass(Supernatural.of({2: INF, 3: 4}))
        b = TypeClass(Supernatural.of({2: INF}))
        assert a == b and hash(a) == hash(b)
        assert a != TypeClass(Supernatural.of({3: INF}))


class TestCombinations:
    def test_direct_sum_is_blockwise(self):
        rng = random.Random(37)
        t1, t2 = rand_tower(rng, 1), rand_tower(rng, 2)
        s = direct_sum_towers([t1, t2])
        assert s.rank == 3
        for stage in range(6):
            m = s.stage_matrix(stage)
            # off-diagonal blocks vanish
            assert all(m[0, j] == 0 for j in (1, 2))
            assert all(m[i, 0] == 0 for i in (1, 2))

    def test_tensor_of_rank1_multiplies(self):
        a, b = rank1(period=[2]), rank1(period=[3])
        t = tensor_towers([a, b])
        assert t.rank == 1
        assert tower_type(t) == TypeClass(Supernatural.of({2: INF, 3: INF}))

    def test_mod_p_rank(self):
        t = Tower(2, (), (IntMatrix.from_rows([[2, 0], [0, 1]]),))
        assert mod_p_rank(t, 2) == 1
        assert mod_p_rank(t, 3) == 2
        assert mod_p_rank(Tower.free(4), 5) == 4
