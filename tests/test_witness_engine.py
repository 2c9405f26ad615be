"""The integer witness check against the Fraction-based reference check,
and the batched residue walk it runs on."""

import functools
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
                      rand_tower, to_rational, unimodular_pair)


def outcome(check, w):
    """The check's answer, or the class of the exception it raised."""
    try:
        return check(w)
    except (DimensionMismatchError, SingularWitnessError) as e:
        return type(e)


def conjugate(t: Tower, u: IntMatrix, ui: IntMatrix) -> Tower:
    return Tower(t.rank, tuple(u @ m @ ui for m in t.prefix),
                 tuple(u @ m @ ui for m in t.period))


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

    def test_no_vectors_reach_zero_at_once(self):
        t = Tower(1, period=(IntMatrix.from_rows([[2]]),))
        assert _first_stage_reaching_zero(t, 3, [], 8) == 3
