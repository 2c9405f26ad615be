"""The integer witness check against the Fraction-based reference check,
and the batched residue walk it runs on."""

import functools
import math
import random
from fractions import Fraction

import pytest

from abelk import (DimensionMismatchError, IntMatrix, RatMatrix,
                   SingularWitnessError, Tower, TowerForm, Witness,
                   check_witness, direct_sum_of)
from abelk.gallery import default_pair_config
from abelk.matrices import integer_inverse, rational_inverse
from abelk.towers import _first_stage_reaching_zero

from conftest import (naive_check_witness, orbit_first_stage_mod,
                      rand_tower, to_rational, transition,
                      unimodular_pair)


def outcome(check, w):
    """The check's answer, or the class of the exception it raised."""
    try:
        return check(w)
    except (DimensionMismatchError, SingularWitnessError) as e:
        return type(e)


def conjugate(t: Tower, u: IntMatrix, ui: IntMatrix) -> Tower:
    return Tower(t.rank, tuple(u @ m @ ui for m in t.prefix),
                 tuple(u @ m @ ui for m in t.period))


def tower_of_dets(rng: random.Random, rank: int, primes) -> Tower:
    """A tower with prefix and period of 0-2 matrices, each U D V for
    unimodular U, V and D diagonal with entries 1 or one of primes, so
    that every determinant is +- a product of them."""
    def mat():
        d = [rng.choice(primes) if rng.random() < 0.5 else 1
             for _ in range(rank)]
        diag = IntMatrix.from_rows([[d[i] if i == j else 0
                                     for j in range(rank)]
                                    for i in range(rank)])
        return unimodular_pair(rng, rank)[0] @ diag @ unimodular_pair(
            rng, rank)[1]
    return Tower(rank, tuple(mat() for _ in range(rng.randint(0, 2))),
                 tuple(mat() for _ in range(rng.randint(0, 2))))


def rand_map(rng: random.Random, u: IntMatrix) -> RatMatrix:
    """u itself, u scaled by p/q, or a random rational matrix."""
    kind = rng.randrange(3)
    if kind == 0:
        return to_rational(u)
    if kind == 1:
        s = Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 2, 3, 7]))
        return RatMatrix.from_rows([[s * x for x in row]
                                    for row in u.entries])
    n = u.rows
    return RatMatrix.from_rows(
        [[Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
          for _ in range(n)] for _ in range(n)])


def rand_witness(rng: random.Random) -> Witness:
    """Towers of rank 1-4, prefix 0-2, period 0-2, one or the direct sum
    of two, copies 1-3, against a unimodular conjugate."""
    src, dst, blocks = [], [], []
    for _ in range(rng.randint(1, 2)):
        t = rand_tower(rng, rng.randint(1, 4), max_prefix=2, max_period=2)
        u, ui = unimodular_pair(rng, t.rank)
        src.append(TowerForm(t))
        dst.append(TowerForm(conjugate(t, u, ui)))
        blocks.append(u)
    copies = rng.randint(1, 3)
    u = functools.reduce(IntMatrix.block_diag, blocks * copies)
    return Witness(copies, rand_map(rng, u), direct_sum_of(src),
                   direct_sum_of(dst))


def alpha_fold_witnesses(rng: random.Random, count: int):
    """(valid, witness) pairs: a tower against a unimodular conjugate
    U T U^-1, in 2-4 copies of total rank at most 9, through the
    block-diagonal U, valid at every stage, and through U/2, valid only
    when a stage clears the denominator 2 (None: not known)."""
    for _ in range(count):
        copies = rng.randint(2, 4)
        t = rand_tower(rng, rng.randint(1, 9 // copies), max_prefix=2,
                       max_period=2)
        u, ui = unimodular_pair(rng, t.rank)
        src, dst = TowerForm(t), TowerForm(conjugate(t, u, ui))
        big = to_rational(functools.reduce(IntMatrix.block_diag,
                                           [u] * copies))
        halved = RatMatrix.from_rows([[x / 2 for x in row]
                                      for row in big.entries])
        yield True, Witness(copies, big, src, dst)
        yield None, Witness(copies, halved, src, dst)


class TestAgainstNaive:
    def test_random_witnesses(self):
        rng = random.Random(2024)
        seen = {True: 0, False: 0}
        for _ in range(80):
            w = rand_witness(rng)
            want = outcome(naive_check_witness, w)
            assert outcome(check_witness, w) == want, w
            if isinstance(want, bool):
                seen[want] += 1
        # both answers occur, so neither branch is vacuous
        assert seen[True] >= 10 and seen[False] >= 10

    def test_fuchs_pair(self):
        cfg = default_pair_config()
        w = Witness(cfg.witness_copies, cfg.witness_map,
                    TowerForm(cfg.gamma1), TowerForm(cfg.gamma2))
        assert check_witness(w) is naive_check_witness(w) is True
        rng = random.Random(5)
        for _ in range(10):
            rows = [list(r) for r in cfg.witness_map.entries]
            i, j = rng.randrange(4), rng.randrange(4)
            rows[i][j] += Fraction(rng.choice([-1, 1]), rng.choice([1, 2]))
            bad = Witness(w.copies, RatMatrix.from_rows(rows), w.src, w.dst)
            assert outcome(check_witness, bad) == outcome(naive_check_witness,
                                                          bad)

    def test_alpha_fold_witnesses(self):
        seen = {True: 0, False: 0}
        for valid, w in alpha_fold_witnesses(random.Random(77), 12):
            want = naive_check_witness(w)
            assert check_witness(w) is want, w
            assert valid in (None, want)
            seen[want] += 1
        assert seen[False] >= 3

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_alpha_fold_check_builds_no_block_diagonal_matrix(
            self, monkeypatch, seed):
        # the copies are inverted and walked block by block: no
        # block-diagonal matrix of the direct sum is built
        def refused(*args):
            raise AssertionError("block-diagonal matrix built")

        witnesses = [w for _, w in alpha_fold_witnesses(random.Random(seed),
                                                          4)]
        monkeypatch.setattr(IntMatrix, "block_diag", refused)
        for w in witnesses:
            check_witness(w)

    def test_singular_and_mismatched(self):
        cfg = default_pair_config()
        src, dst = TowerForm(cfg.gamma1), TowerForm(cfg.gamma2)
        singular = RatMatrix.from_rows([[1, 2, 0, 0], [2, 4, 0, 0],
                                        [0, 0, 1, 0], [0, 0, 0, 1]])
        for w, exc in ((Witness(2, singular, src, dst), SingularWitnessError),
                       (Witness(1, singular, src, dst),
                        DimensionMismatchError),
                       (Witness(2, RatMatrix.identity(4), src,
                                direct_sum_of([dst, dst])),
                        DimensionMismatchError)):
            assert outcome(check_witness, w) is exc
            assert outcome(naive_check_witness, w) is exc


class TestIntegerInverse:
    def test_against_rational_inverse(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(1, 5)
            a = IntMatrix.from_rows([[rng.choice([0, rng.randint(-9, 9)])
                                      for _ in range(n)] for _ in range(n)])
            if a.det() == 0:
                continue
            b, d = integer_inverse(a)
            inv = rational_inverse(to_rational(a))
            assert d > 0
            assert all(Fraction(b[i, j], d) == inv[i, j]
                       for i in range(n) for j in range(n))


class TestBatchedWalk:
    @pytest.mark.parametrize("m", [2, 4, 6, 9, 12, 25])
    def test_stage_is_max_of_single_stages(self, m):
        rng = random.Random(m)
        for _ in range(60):
            t = rand_tower(rng, rng.randint(1, 3), max_prefix=2,
                           max_period=2)
            stage = rng.randint(0, 3)
            vecs = [tuple(rng.randint(-20, 20) for _ in range(t.rank))
                    for _ in range(rng.randint(1, 4))]
            singles = [_first_stage_reaching_zero(t, stage, [v], m)
                       for v in vecs]
            assert singles == [orbit_first_stage_mod(t, stage, v, m)
                               for v in vecs]
            want = None if None in singles else max(singles)
            assert _first_stage_reaching_zero(t, stage, vecs, m) == want

    @pytest.mark.parametrize("m, primes", [(18, (3,)), (100, (2, 3, 5, 7)),
                                           (168, (2, 3, 5, 7)),
                                           (100, (3, 7)), (168, (3,))])
    def test_moduli_mixing_determinant_primes(self, m, primes):
        # m has determinant primes and others, and the walk starts past
        # stage 0.  Each vector is a multiple of a divisor of m, or one
        # that reaches 0 by some stage
        rng = random.Random(m * 7 + len(primes))
        divisors = [k for k in range(1, m + 1) if m % k == 0]
        seen = {"none": 0, "start": 0, "walked": 0}
        for _ in range(60):
            t = tower_of_dets(rng, rng.randint(1, 3), primes)
            stage = rng.randint(1, 4)
            vecs = []
            for _ in range(rng.randint(1, 2)):
                w = [rng.randint(-9, 9) for _ in range(t.rank)]
                if rng.random() < 0.5:
                    vecs.append(tuple(rng.choice(divisors) * x for x in w))
                    continue
                # c b w with T(stage, s) b = e I and m | c e: 0 by stage s
                b, e = integer_inverse(transition(t, stage,
                                                  stage + rng.randint(1, 4)))
                c = m // math.gcd(m, e)
                vecs.append(tuple(c * x for x in b.apply(w)))
            singles = [_first_stage_reaching_zero(t, stage, [v], m)
                       for v in vecs]
            assert singles == [orbit_first_stage_mod(t, stage, v, m)
                               for v in vecs]
            want = None if None in singles else max(singles)
            assert _first_stage_reaching_zero(t, stage, vecs, m) == want
            seen["none" if want is None else
                 "start" if want == stage else "walked"] += 1
        # when m is prime to every determinant every map is invertible
        # mod m: a vector is 0 at once or never
        if math.gcd(m, math.prod(primes)) == 1:
            del seen["walked"]
        assert min(seen.values()) >= 3, seen

    def test_no_vectors_reach_zero_at_once(self):
        t = Tower(1, period=(IntMatrix.from_rows([[2]]),))
        assert _first_stage_reaching_zero(t, 3, [], 8) == 3
