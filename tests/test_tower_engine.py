"""The Fitting-bounded tower engine against the orbit-walk reference,
p-ranks against the stable period power and sympy, and primality at the
boundary.  The references multiply connecting matrices; the engine does
not (but for the p-rank's product mod p)."""

import math
import random
from fractions import Fraction

import pytest

from abelk import (FreeOfRank, GroupElement, INF, IntMatrix, Tower,
                   characteristic, direct_sum_towers, height, is_divisible,
                   membership, parse_group_file, smith_normal_form,
                   tensor_towers, wedge_divisible_by_search)
from abelk import towers
from abelk.towers import is_prime, mod_p_rank
from abelk import wedge
from abelk.wedge import wedge_power_tower

from conftest import (fraction_min_poly, krylov, orbit_first_stage,
                      orbit_first_stage_mod, period_product,
                      rand_nonsingular, rand_tower, rat_apply,
                      stable_period_power, stable_power_search, to_rational,
                      transition, unimodular_pair)

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
                coords = rat_apply(to_rational(transition(t, 0, s)), v)
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


def jordan_conjugate(rng, n: int, p: int) -> tuple[IntMatrix, int]:
    """U J U^-1 for J a random sum of Jordan blocks, each with an eigenvalue
    that is 0 mod p (a nilpotent chain mod p) or a unit mod p, and the
    total size of the blocks whose eigenvalue is a unit."""
    diag, sup, units = [], [], 0
    while len(diag) < n:
        size = rng.randint(1, n - len(diag))
        if rng.random() < 0.5:
            lam = rng.choice((p, -p, 2 * p))
        else:
            lam = rng.choice((1, -1, p + 1, rng.randint(1, p - 1)))
            units += size
        diag += [lam] * size
        sup += [1] * (size - 1) + [0]
    j = IntMatrix.from_rows([[diag[r] if r == c else
                              sup[r] if c == r + 1 else 0
                              for c in range(n)] for r in range(n)])
    u, u_inv = unimodular_pair(rng, n)
    return u @ j @ u_inv, units


def rank_mod_p_by_sympy(t: Tower, p: int) -> int:
    """Rank over GF(p) of Q^rank for the period product Q."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    q = DomainMatrix([[sympy.ZZ(x) for x in row]
                      for row in period_product(t).entries],
                     (t.rank, t.rank), sympy.ZZ).convert_to(sympy.GF(p))
    return (q ** t.rank).rank()


def jordan_towers(seed: int, count: int):
    """(tower, p, expected p-rank or None when the period has more than
    one matrix), with ranks 1-8 and period lengths 0-3."""
    rng = random.Random(seed)
    for _ in range(count):
        n, p = rng.randint(1, 8), rng.choice((2, 3, 5, 7))
        length = rng.randint(0, 3)
        pairs = [jordan_conjugate(rng, n, p) for _ in range(length)]
        prefix = tuple(rand_nonsingular(rng, n, -3, 3)
                       for _ in range(rng.randint(0, 1)))
        expected = (n if not pairs else pairs[0][1] if length == 1
                    else None)
        yield Tower(n, prefix, tuple(m for m, _ in pairs)), p, expected


class TestModPRank:
    def test_matches_rank_of_period_power(self):
        for _, t in random_cases(709, 120):
            q = period_product(t)
            power = IntMatrix.identity(t.rank)
            for _ in range(t.rank):
                power = q @ power
            for p in (2, 3, 5, 7):
                assert mod_p_rank(t, p) == rank_mod_p_by_smith(power, p), \
                    (t, p)

    def test_rank1_empty_period(self):
        for t in (Tower(1), rank1(prefix=[2]), rank1(prefix=[6, 5])):
            for p in (2, 3, 5):
                assert mod_p_rank(t, p) == 1

    def test_rank1_periodic(self):
        assert mod_p_rank(rank1(period=[6]), 2) == 0
        assert mod_p_rank(rank1(period=[6]), 5) == 1

    def test_jordan_blocks_against_stable_power(self):
        # zero subdiagonals and long nilpotent chains mod p
        for t, p, expected in jordan_towers(711, 150):
            got = mod_p_rank(t, p)
            if expected is not None:
                assert got == expected, (t, p)
            assert got == rank_mod_p_by_smith(stable_period_power(t, p),
                                              p), (t, p)

    def test_against_sympy(self):
        for t, p, _ in jordan_towers(713, 80):
            assert mod_p_rank(t, p) == rank_mod_p_by_sympy(t, p), (t, p)
        rng = random.Random(715)
        for _ in range(40):
            t = rand_tower(rng, rng.randint(4, 8), max_prefix=1,
                           max_period=3)
            for p in (2, 3):
                assert mod_p_rank(t, p) == rank_mod_p_by_sympy(t, p), (t, p)

    def test_wedge_powers_take_binomials(self):
        for t, p, _ in jordan_towers(717, 60):
            if t.rank > 6:
                continue
            r = mod_p_rank(t, p)
            for k in range(t.rank + 1):
                assert (mod_p_rank(wedge_power_tower(t, k), p)
                        == math.comb(r, k)), (t, p, k)

    def test_additive_over_sums_multiplicative_over_tensors(self):
        rng = random.Random(719)
        cases = [(t, p) for t, p, _ in jordan_towers(721, 120)
                 if t.rank <= 4]
        for _ in range(40):
            (t, p), (u, _) = rng.sample(cases, 2)
            rt, ru = mod_p_rank(t, p), mod_p_rank(u, p)
            assert mod_p_rank(direct_sum_towers([t, u]), p) == rt + ru, \
                (t, u, p)
            assert mod_p_rank(tensor_towers([t, u]), p) == rt * ru, \
                (t, u, p)


def direct(w: Tower) -> Tower:
    """w rebuilt from its matrices, carrying nothing derived."""
    return Tower(w.rank, w.prefix, w.period)


def jordan_tower(rng, n: int, p: int, prefix: int, period: int) -> Tower:
    """A rank-n tower with the given numbers of prefix and period
    matrices, each period matrix a conjugate of Jordan blocks mod p."""
    return Tower(n, tuple(rand_nonsingular(rng, n, -3, 3)
                          for _ in range(prefix)),
                 tuple(jordan_conjugate(rng, n, p)[0] for _ in range(period)))


class TestInheritedInvariants:
    """The p-ranks and determinant primes that exterior powers and tensor
    products read off the towers they are built from, against the direct
    computation on the same matrices."""

    def test_wedge_p_ranks(self):
        # nilpotent chains mod p, and empty periods
        for t, p, _ in jordan_towers(731, 80):
            if t.rank > 6:
                continue
            for k, w in enumerate(wedge._wedge_towers(t)):
                for q in {p, 2, 3}:
                    assert mod_p_rank(w, q) == mod_p_rank(direct(w), q), \
                        (t, q, k)

    def test_tensor_p_ranks(self):
        rng = random.Random(733)
        for _ in range(60):
            p, n = rng.choice((2, 3, 5, 7)), rng.randint(2, 3)
            # every factor with its own prefix and period length
            shapes = zip(rng.sample(range(3), n), rng.sample(range(4), n))
            factors = [jordan_tower(rng, rng.randint(1, 3 if n == 2 else 2),
                                    p, a, b) for a, b in shapes]
            if n == 2 and rng.random() < 0.5:
                base = jordan_tower(rng, 4, p, rng.randint(0, 1),
                                    rng.randint(0, 2))
                factors[0] = wedge._wedge_towers(base)[rng.randint(1, 3)]
            t = tensor_towers(factors)
            assert mod_p_rank(t, p) == mod_p_rank(direct(t), p), (factors, p)

    def test_determinant_primes(self):
        rng = random.Random(735)

        def small(n):
            return rand_nonsingular(rng, n, -3, 3)

        for _ in range(40):
            pair = [Tower(n, tuple(small(n) for _ in range(a)),
                          tuple(small(n) for _ in range(b)))
                    for n, a, b in zip((rng.randint(1, 4), rng.randint(1, 3)),
                                       rng.sample(range(3), 2),
                                       rng.sample(range(3), 2))]
            powers = [wedge._wedge_towers(t) for t in pair]
            for w in powers[0] + powers[1]:
                assert w.determinant_primes() == direct(w).determinant_primes()
            j, k = (rng.randint(0, t.rank) for t in pair)
            t = tensor_towers([powers[0][j], powers[1][k]])
            assert t.determinant_primes() == direct(t).determinant_primes()

    def test_wedge_p_ranks_against_sympy(self):
        pytest.importorskip("sympy")
        for t, p, _ in jordan_towers(737, 30):
            if t.rank > 5:
                continue
            for k, w in enumerate(wedge._wedge_towers(t)):
                assert mod_p_rank(w, p) == rank_mod_p_by_sympy(w, p), \
                    (t, p, k)


def min_poly_cases(seed: int, count: int):
    """(q, vec) with q of rank 1-6: dense, upper triangular, nilpotent
    (a unimodular conjugate of a strictly upper triangular matrix) or
    scalar, and vec random, the first basis vector (an eigenvector of a
    triangular q), the zero vector, or a column of the adjugate of
    q - lam I, an eigenvector for the eigenvalue lam of a triangular,
    nilpotent (lam = 0) or scalar q."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        kind = rng.randrange(4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if kind in (1, 2):
            rows = [[x if c > r or (c == r and kind == 1) else 0
                     for c, x in enumerate(row)]
                    for r, row in enumerate(rows)]
        if kind == 3:
            lam = rng.randint(-4, 4)
            rows = [[lam * (r == c) for c in range(n)] for r in range(n)]
        q = IntMatrix.from_rows(rows)
        if kind == 2:
            u, u_inv = unimodular_pair(rng, n)
            q = u @ q @ u_inv
        start = rng.randrange(4)
        if start == 0:
            vec = tuple(rng.randint(-9, 9) for _ in range(n))
        elif start == 1:
            vec = (1,) + (0,) * (n - 1)
        elif start == 2:
            vec = (0,) * n
        else:
            # (q - lam I) adj(q - lam I) = det(q - lam I) I = 0 when lam
            # is an eigenvalue
            lam = 0 if kind == 2 else q[0, 0]
            shifted = IntMatrix.from_rows(
                [[x - lam * (r == c) for c, x in enumerate(row)]
                 for r, row in enumerate(q.entries)])
            vec = next((col for col in zip(*_adjugate(shifted).entries)
                        if any(col)), (1,) + (0,) * (n - 1))
        yield q, vec


def _adjugate(a: IntMatrix) -> IntMatrix:
    n = a.rows
    if n == 1:
        return IntMatrix.identity(1)

    def minor(i, j):
        return IntMatrix.from_rows(
            [[x for c, x in enumerate(row) if c != j]
             for r, row in enumerate(a.entries) if r != i]).det()

    return IntMatrix.from_rows([[(-1) ** (i + j) * minor(j, i)
                                 for j in range(n)] for i in range(n)])


class TestIntegerMinPoly:
    def test_matches_fraction_oracle(self):
        for q, vec in min_poly_cases(723, 1500):
            got = towers._cyclic_min_poly(krylov(q, vec))
            assert all(type(c) is int for c in got), (q, vec)
            assert got == fraction_min_poly(q, vec), (q, vec)

    def test_annihilates_the_start(self):
        # sum c_i q^i vec == 0, and vec != 0 needs degree >= 1
        for q, vec in min_poly_cases(725, 300):
            poly = towers._cyclic_min_poly(krylov(q, vec))
            total, power = [0] * q.rows, tuple(vec)
            for c in poly:
                total = [x + c * y for x, y in zip(total, power)]
                power = q.apply(power)
            assert not any(total), (q, vec)
            assert (len(poly) > 1) == any(vec), (q, vec)

    def test_eigenvector_has_degree_one(self):
        q = IntMatrix.from_rows([[3, 1, 0], [0, 3, 0], [0, 0, -2]])
        assert towers._cyclic_min_poly(krylov(q, (1, 0, 0))) == [-3, 1]
        assert towers._cyclic_min_poly(krylov(q, (0, 0, 5))) == [2, 1]
        assert (towers._cyclic_min_poly(krylov(q, (0, 1, 1)))
                == [18, -3, -4, 1])


class TestNoMatrixProduct:
    def test_answers_with_matmul_refused(self, monkeypatch):
        # heights, characteristics, membership, divisibility and the
        # wedge search push vectors; the references below multiply
        def refused(a, b):
            raise AssertionError("a matrix product was formed")

        answers = []
        with monkeypatch.context() as mp:
            mp.setattr(IntMatrix, "__matmul__", refused)
            for rng, t in random_cases(731, 80):
                e = random_element(rng, t)
                if e.is_zero:
                    continue
                w = tuple(rng.randint(-40, 40) for _ in range(t.rank))
                answers.append((t, e, w, (
                    height(t, e, 2), characteristic(t, e),
                    membership(t, tuple(Fraction(x, 6) for x in w)),
                    is_divisible(t, e, 12),
                    t.rank == 2 and wedge_divisible_by_search(t, 12))))
        assert sum(t.rank == 2 for t, *_ in answers) > 10
        for t, e, w, (h, chi, member, divisible, search) in answers:
            assert chi.exponent(2) == h, (t, e)
            if h == INF:
                assert all(orbit_first_stage(t, e.stage, e.coords, 2, k)
                           is not None for k in (1, 2, 3)), (t, e)
            else:
                assert orbit_first_stage(
                    t, e.stage, e.coords, 2, h + 1) is None, (t, e)
            s = orbit_first_stage_mod(t, 0, w, 6)
            assert member == (None if s is None else GroupElement(s, tuple(
                int(c) for c in rat_apply(to_rational(transition(t, 0, s)),
                                          [Fraction(x, 6) for x in w])))), \
                (t, w)
            assert divisible == (orbit_first_stage_mod(
                t, e.stage, e.coords, 12) is not None), (t, e)
            if t.rank == 2:
                assert search == stable_power_search(t, 12), t


class TestHeightOfMultiples:
    def test_multiplying_by_p_adds_one(self):
        # p e is 0 mod p yet has finite height whenever e does
        finite_zero_mod_p = 0
        for rng, t in random_cases(727, 200):
            e = random_element(rng, t)
            if e.is_zero:
                continue
            for p in (2, 3, 5):
                h = height(t, e, p)
                pe = GroupElement(e.stage, tuple(p * x for x in e.coords))
                assert height(t, pe, p) == h + 1, (t, e, p)
                finite_zero_mod_p += h != INF
        assert finite_zero_mod_p > 100

    def test_infinite_stays_infinite(self):
        t = Tower(2, (), (IntMatrix.from_rows([[2, 0], [0, 3]]),))
        for p, coords in ((2, (1, 0)), (3, (0, 1))):
            e = GroupElement(0, coords)
            assert height(t, e, p) == INF
            pe = GroupElement(0, tuple(p * x for x in coords))
            assert height(t, pe, p) == INF
        assert height(t, GroupElement(0, (2, 0)), 3) == 0
        assert height(t, GroupElement(0, (0, 4)), 2) == 2


class TestMembershipCoordinates:
    def test_int_and_fraction_give_the_same_element(self):
        for rng, t in random_cases(729, 150):
            w = tuple(rng.randint(-40, 40) for _ in range(t.rank))
            got = membership(t, w)
            assert got == GroupElement(0, w)
            assert membership(t, tuple(Fraction(x) for x in w)) == got
            m = rng.choice(MODULI)
            mixed = tuple(Fraction(x, m) if i % 2 else x * m
                          for i, x in enumerate(w))
            assert (membership(t, mixed)
                    == membership(t, tuple(Fraction(x) for x in mixed)))

    @pytest.mark.parametrize("bad", [0.5, 1.0, "1/2", "3"])
    def test_other_types_raise_type_error(self, bad):
        t = Tower(2, (), (IntMatrix.from_rows([[2, 0], [0, 3]]),))
        with pytest.raises(TypeError):
            membership(t, (1, bad))


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


class TestNoConnectingMatrices:
    """A tower with no connecting matrix is Z^rank: no answer about it
    builds a rank x rank identity."""

    def test_rank_5000_builds_no_identity(self, monkeypatch):
        identity = IntMatrix.identity

        def small_only(n):
            if n > 64:
                raise AssertionError(f"{n} x {n} identity built")
            return identity(n)

        monkeypatch.setattr(IntMatrix, "identity", staticmethod(small_only))
        n = 5000
        g = parse_group_file('{"free": {"tower": {"rank": %d}}}' % n)
        t = g.free.tower
        assert wedge.k1(g) == wedge.k0(g) == FreeOfRank(2 ** (n - 1))
        zeros = (0,) * (n - 1)
        assert height(t, GroupElement(0, (1,) + zeros), 2) == 0
        assert height(t, GroupElement(0, (12,) + zeros), 2) == 2
        assert height(t, GroupElement(3, zeros + (8,)), 2) == 3
        assert membership(t, (Fraction(6),) + zeros) == \
            GroupElement(0, (6,) + zeros)
        assert membership(t, (Fraction(1, 2),) + zeros) is None


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
