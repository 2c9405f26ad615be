"""Exterior powers, K-groups and the rank-2 divisibility equivalence."""

import itertools
import math
import random
import sys
from collections import Counter

import pytest

from abelk import (AbGroupDesc, CompletelyDecomposable, DirectSum,
                   FgAbGroup, FreeOfRank, GroupElement, INF, IntMatrix,
                   Supernatural, TorsionDesc, Tower, TowerForm,
                   TypeClass, compare_k1, direct_sum_of, is_divisible, k0,
                   k1, rank1_tower_from_supernatural,
                   wedge_divisible_by_search, wedge_power_tower,
                   wedge_square_type, wedge_unit_divisible)
from abelk import compare, towers, wedge
from abelk.matrices import compound_matrix
from abelk.groups import describe, flatten, summand_towers

from conftest import (listed_k_group, naive_top_wedge_characteristic,
                      period_product, rand_nonsingular, rand_tower,
                      stable_power_search, unimodular_pair)


class TestWedgePowerTower:
    def test_first_power_identity_functor(self):
        rng = random.Random(41)
        t = rand_tower(rng, 3)
        assert wedge_power_tower(t, 1) == t

    def test_top_power_is_determinants(self):
        t = Tower(2, (), (IntMatrix.from_rows([[2, 15], [1, 2]]),))
        top = wedge_power_tower(t, 2)
        assert top.rank == 1
        assert top.period[0] == IntMatrix.from_rows([[-11]])

    def test_periodicity_preserved(self):
        rng = random.Random(43)
        t = rand_tower(rng, 3, max_prefix=2, max_period=3)
        w = wedge_power_tower(t, 2)
        assert len(w.prefix) == len(t.prefix)
        assert len(w.period) == len(t.period)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            wedge_power_tower(Tower(2), 3)

    def test_reference_derives_nothing(self, monkeypatch):
        # the p-rank of Lambda^2 of a rank-5 tower comes from its own
        # 10 x 10 period matrix, not from the base
        sizes = []
        hessenberg = towers._hessenberg_charpoly

        def recorded_charpoly(m, p):
            sizes.append(len(m))
            return hessenberg(m, p)

        monkeypatch.setattr(towers, "_hessenberg_charpoly", recorded_charpoly)
        w = wedge_power_tower(kgroups_style_towers(1)[0], 2)
        assert type(w) is Tower
        assert towers.mod_p_rank(w, 1021) == math.comb(4, 2)
        assert sizes == [10]


def sum_of_ranks_3_3_2(seed: int, conjugate=False) -> AbGroupDesc:
    """Random towers of ranks 3, 3 and 2 with prefix and period matrices;
    with conjugate, the first one is replaced by a unimodular conjugate
    (the same towers for the same seed)."""
    rng = random.Random(seed)

    def mat(n):
        return rand_nonsingular(rng, n, -3, 3)

    towers = [Tower(3, (mat(3),), (mat(3),)), Tower(3, (), (mat(3), mat(3))),
              Tower(2, (mat(2),), (mat(2), mat(2)))]
    if conjugate:
        u, v = unimodular_pair(rng, 3)
        t = towers[0]
        towers[0] = Tower(3, tuple(u @ m @ v for m in t.prefix),
                          tuple(u @ m @ v for m in t.period))
    return AbGroupDesc.torsion_free(
        direct_sum_of([TowerForm(t) for t in towers]))


def kgroups_style_towers(seed: int, rank: int = 5):
    """A rank-5 tower whose one period matrix is U diag(p, q, 1, ..) V
    for unimodular U, V and det p * q, a unimodular conjugate of it, and
    a tower built the same way whose determinant primes are disjoint."""
    rng = random.Random(seed)

    def mixed(*primes):
        ds = list(primes) + [1] * (rank - len(primes))
        (u, _), (v, _) = unimodular_pair(rng, rank), unimodular_pair(rng, rank)
        return u @ IntMatrix.from_rows(
            [[ds[i] if i == j else 0 for j in range(rank)]
             for i in range(rank)]) @ v

    a = mixed(1021, 1031)
    w, w_inv = unimodular_pair(rng, rank)
    return (Tower(rank, (), (a,)), Tower(rank, (), (w @ a @ w_inv,)),
            Tower(rank, (), (mixed(1033, 1039),)))


def refuse_compounds(monkeypatch):
    def refused(*args):
        raise AssertionError("compound matrix built")

    monkeypatch.setattr(wedge, "compound_matrix", refused)


class TestWorkDone:
    """k1, k0 and compare_k1 build no entries of an exterior power (an
    entry read builds each power's entries once) and take no determinant
    of a compound or tensor matrix."""

    def test_no_compound_in_a_k_group(self, monkeypatch):
        g = sum_of_ranks_3_3_2(71)
        refuse_compounds(monkeypatch)
        for kgroup in (k1, k0):
            kgroup(g)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_compound_in_compare_k1(self, monkeypatch, seed):
        base, conj, disjoint = (AbGroupDesc.torsion_free(TowerForm(t))
                                for t in kgroups_style_towers(seed))
        refuse_compounds(monkeypatch)
        assert compare_k1(base, conj).verdict in ("isomorphic", "unknown")
        assert compare_k1(base, disjoint).verdict == "not_isomorphic"

    def test_one_pass_per_distinct_tower(self, monkeypatch):
        # three copies of one tower: k1 and k0 build no compound, and
        # reading the periods builds compound_matrix(m, k) once per power
        # Lambda^k (k not 0, 1 or the rank) and connecting matrix m
        rng = random.Random(103)
        gamma = Tower(3, (rand_nonsingular(rng, 3, -3, 3),),
                      (rand_nonsingular(rng, 3, -3, 3),
                       rand_nonsingular(rng, 3, -3, 3)))
        g = AbGroupDesc.torsion_free(direct_sum_of([TowerForm(gamma)] * 3))
        seen = []
        kernel = wedge.compound_matrix

        def counted(m, k):
            seen.append((m, k))
            return kernel(m, k)

        monkeypatch.setattr(wedge, "compound_matrix", counted)
        for kgroup in (k1, k0):
            seen.clear()
            result = flatten(kgroup(g))
            assert seen == []
            for t in result.towers:
                assert len(t.period) == t.stage_counts[1]
            assert Counter(seen) == Counter(
                (m, k) for k in range(2, gamma.rank)
                for m in gamma.prefix + gamma.period)

    def test_equal_sums_compare_without_compounds(self, monkeypatch):
        # equal tensor products are told equal from their factors
        g = sum_of_ranks_3_3_2(73)
        refuse_compounds(monkeypatch)
        assert compare_k1(g, g).verdict == "isomorphic"

    def test_conjugate_rank_14_sum_builds_no_compound(self, monkeypatch):
        # a rank-14 tower, one period matrix of det 1021 * 1031, (+) Gamma1,
        # against its conjugate by I + E_12: Lambda^j of the towers are
        # told apart from their bases, with no compound entry built
        n, d = 14, [1021, 1031] + [1] * 12
        m = IntMatrix.from_rows([[d[i] if i == j else int(j == i + 1)
                                  for j in range(n)] for i in range(n)])
        p = IntMatrix.from_rows([[int(i == j or (i, j) == (0, 1))
                                  for j in range(n)] for i in range(n)])
        p_inv = IntMatrix.from_rows([[int(i == j) - int((i, j) == (0, 1))
                                      for j in range(n)] for i in range(n)])
        gamma1 = TowerForm(Tower(2, (), (IntMatrix.from_rows([[2, 15],
                                                             [1, 2]]),)))
        g, h = (AbGroupDesc.torsion_free(direct_sum_of(
            [TowerForm(Tower(n, (), (x,))), gamma1]))
            for x in (m, p @ m @ p_inv))
        refuse_compounds(monkeypatch)
        assert compare_k1(g, h).verdict == "unknown"

    def test_each_tensor_product_once(self, monkeypatch):
        # Z^2 (+) rank-3 tower (+) rank-2 tower: degrees (1-3, 1-2) give 6
        # products and 5 lone powers per K-group, each reached from every
        # free degree of matching parity (18 products for k1 and k0
        # together); a lone power goes through tensor_towers unchanged
        rng = random.Random(89)
        g = AbGroupDesc.torsion_free(direct_sum_of([
            FreeOfRank(2),
            TowerForm(Tower(3, (rand_nonsingular(rng, 3, -3, 3),),
                            (rand_nonsingular(rng, 3, -3, 3),))),
            TowerForm(Tower(2, (), (rand_nonsingular(rng, 2, -3, 3),)))]))
        built = []
        tensor = wedge.tensor_towers

        def counted(factors):
            built.append(tuple(factors))
            return tensor(factors)

        monkeypatch.setattr(wedge, "tensor_towers", counted)
        for kgroup in (k1, k0):
            before = len(built)
            kgroup(g)
            assert len(set(built[before:])) == len(built) - before == 11
            assert sum(len(fs) == 2 for fs in built[before:]) == 6
        assert len(built) == 22

    def test_no_determinant_beyond_the_base_rank(self, monkeypatch):
        sizes = []
        det = IntMatrix.det

        def recorded(self):
            sizes.append(self.rows)
            return det(self)

        monkeypatch.setattr(IntMatrix, "det", recorded)
        g, h = sum_of_ranks_3_3_2(73), sum_of_ranks_3_3_2(73, conjugate=True)
        assert compare_k1(g, g).verdict == "isomorphic"
        # conjugate, not equal: p-ranks and the top wedge are computed
        assert compare_k1(g, h).verdict == "unknown"
        k0(g)
        assert sizes and max(sizes) <= 3

    def test_p_ranks_from_the_base(self, monkeypatch):
        g, h = sum_of_ranks_3_3_2(73), sum_of_ranks_3_3_2(73, conjugate=True)
        charpolys, factored = [], []
        hessenberg, factorize = towers._hessenberg_charpoly, towers.factorize

        def recorded_charpoly(m, p):
            charpolys.append((tuple(map(tuple, m)), p))
            return hessenberg(m, p)

        def recorded_factorize(n):
            factored.append(abs(n))
            return factorize(n)

        monkeypatch.setattr(towers, "_hessenberg_charpoly", recorded_charpoly)
        monkeypatch.setattr(towers, "factorize", recorded_factorize)
        # conjugate, not equal: the p-rank loop runs
        assert compare_k1(g, h).verdict == "unknown"
        assert charpolys and max(len(m) for m, _ in charpolys) <= 3
        # each charpoly is the period product mod p of a summand tower,
        # at most once per (summand tower, prime, side)
        bases = [t for d in (g, h) for t in summand_towers(d.free)]
        allowed = Counter(
            (tuple(tuple(x % p for x in row)
                   for row in period_product(t).entries), p)
            for t in bases for p in {p for _, p in charpolys})
        assert not Counter(charpolys) - allowed
        # only the summand towers' own determinants are factorized (and
        # the content 1 of a unit element), never a derived power
        dets = {abs(d) for t in bases for d in t.connecting_dets}
        assert factored and set(factored) <= dets | {1}

    def test_p_ranks_read_the_top_wedge_type(self):
        # the type of the top wedge, built from full-order compounds, is
        # its infinite support: the relevant primes at which the p-rank
        # falls short of the rank, so equal p-ranks give equal top types
        rng = random.Random(79)
        sums = [flatten(k1(sum_of_ranks_3_3_2(79))),
                flatten(k0(sum_of_ranks_3_3_2(79, conjugate=True)))]
        for _ in range(30):
            parts = [TowerForm(rand_tower(rng, rng.randint(2, 4), 2, 2))
                     for _ in range(rng.randint(1, 2))]
            parts.append(TowerForm(rand_tower(rng, 1, 1, 1)))
            sums.append(flatten(direct_sum_of(parts)))
        for s in sums:
            top = naive_top_wedge_characteristic(s).infinite_support()
            relevant = compare._relevant_primes(s)
            assert top <= relevant
            for p in relevant:
                assert (p in top) == (compare._p_rank(s, p)
                                      < s.finite_rank()), (s, p)

    def test_wedge_tower_determinants_are_derived(self):
        rng = random.Random(83)
        for _ in range(10):
            t = rand_tower(rng, rng.randint(1, 4), 2, 2)
            for k, w in enumerate(wedge._wedge_towers(t)):
                assert w is t if k == 1 else type(w) is wedge._Wedge
                reference = wedge_power_tower(t, k)
                assert w == reference
                assert w.connecting_dets == reference.connecting_dets
            top = wedge._Wedge(t, t.rank)
            assert top == wedge_power_tower(t, t.rank)


def entries_of_power(t: Tower, k: int):
    return [compound_matrix(m, k) for m in t.prefix + t.period]


class TestLazyEquality:
    """Equality, hashing and freeness of exterior powers decided from
    their bases, against the compound matrices."""

    @staticmethod
    def pairs(seed: int):
        """(t, u) of ranks 3 and 4 with entries in {-1, 0, 1}: each stage
        matrix of u is that of t, its negative or a random one."""
        rng = random.Random(seed)
        for _ in range(40):
            n = rng.choice((3, 4))
            counts = rng.choice(((0, 1), (1, 1), (1, 2)))
            t = [rand_nonsingular(rng, n, -1, 1) for _ in range(sum(counts))]
            u = [rng.choice((m, -m, rand_nonsingular(rng, n, -1, 1)))
                 for m in t]
            a = counts[0]
            yield (Tower(n, tuple(t[:a]), tuple(t[a:])),
                   Tower(n, tuple(u[:a]), tuple(u[a:])))

    def test_equality_and_hash_agree_with_entries(self):
        for t, u in self.pairs(151):
            for k, (v, w) in enumerate(zip(wedge._wedge_towers(t),
                                           wedge._wedge_towers(u))):
                same = entries_of_power(t, k) == entries_of_power(u, k)
                assert (v == w) == (w == v) == same, (t, u, k)
                if same:
                    assert hash(v) == hash(w)
                # deciding it built no entries
                assert "_entries" not in v.__dict__ | w.__dict__

    def test_lazy_equals_eager_with_the_same_entries(self):
        for t, _ in self.pairs(153):
            for k, v in enumerate(wedge._wedge_towers(t)):
                mats = entries_of_power(t, k)
                a = len(t.prefix)
                eager = Tower(v.rank, tuple(mats[:a]), tuple(mats[a:]))
                assert hash(v) == hash(eager)
                assert v == eager and eager == v

    @staticmethod
    def unit_and_double_stages(n: int):
        """I, -I, a determinant-1 shear that is no scalar, and
        diag(2, 1, ..., 1), of rank n."""
        ident = IntMatrix.identity(n)
        shear = IntMatrix.from_rows(
            [[int(i == j or (i, j) == (0, 1)) for j in range(n)]
             for i in range(n)])
        double = IntMatrix.from_rows(
            [[(2 if i == 0 else 1) * int(i == j) for j in range(n)]
             for i in range(n)])
        return ident, -ident, shear, double

    def test_trivial_powers_of_scalar_stages(self):
        # a power is free iff its compound entries all have determinant
        # +-1, decided from the base's determinants alone
        for n in (3, 4):
            for stages in itertools.product(self.unit_and_double_stages(n),
                                            repeat=2):
                t = Tower(n, stages[:1], stages[1:])
                for k, v in enumerate(wedge._wedge_towers(t)):
                    assert towers.is_free(v) == all(
                        abs(m.det()) == 1
                        for m in entries_of_power(t, k)), (t, k)
                    assert "_entries" not in v.__dict__

    def test_trivial_tensor_products_of_scalar_stages(self):
        # Lambda^k t (x) Lambda^j u (k, j >= 1) is free iff t and u are
        for a, b, k, j in itertools.product(range(4), range(4), (1, 2),
                                            (1, 2, 3)):
            t = Tower(3, (), (self.unit_and_double_stages(3)[a],))
            u = Tower(4, (IntMatrix.identity(4),),
                      (self.unit_and_double_stages(4)[b],))
            prod = towers.tensor_towers([wedge._wedge_towers(t)[k],
                                         wedge._wedge_towers(u)[j]])
            free = towers.is_free(prod)
            assert "_entries" not in prod.__dict__
            assert free == all(abs(m.det()) == 1
                               for m in prod.prefix + prod.period)
            assert free == (towers.is_free(t) and towers.is_free(u))

    def test_tensor_products_compare_entries(self):
        pairs = list(itertools.islice(self.pairs(155), 10))
        # u = -t at every stage: for odd k, Lambda^k(-A) (x) -A equals
        # Lambda^k A (x) A, though no factor pair is equal
        t = next(t for t, _ in pairs if t.rank == 4)
        minus = Tower(4, tuple(-m for m in t.prefix),
                      tuple(-m for m in t.period))
        for t, u in pairs + [(t, minus)]:
            vs, ws = wedge._wedge_towers(t), wedge._wedge_towers(u)
            for k in range(1, t.rank):
                v = towers.tensor_towers([vs[k], vs[1]])
                w = towers.tensor_towers([ws[k], ws[1]])
                fresh = towers.tensor_towers([wedge._wedge_towers(t)[k], t])
                assert v == fresh and hash(v) == hash(fresh)
                same = v.prefix + v.period == w.prefix + w.period
                assert (v == w) == same
                if same:
                    assert hash(v) == hash(w)
                if u is minus:
                    assert same == (k % 2 == 1)


def scaled(c: int, m: IntMatrix) -> IntMatrix:
    return IntMatrix(tuple(tuple(c * x for x in row) for row in m.entries))


def power(t: Tower, k: int) -> Tower:
    """Lambda^k t as _k_group makes it: t itself for k = 1."""
    return t if k == 1 else wedge._Wedge(t, k)


def eager(t: Tower) -> Tower:
    """A plain tower with the entries of t: compound matrices of the base
    for an exterior power, and Kronecker products stage by stage of the
    eager factors for a tensor product."""
    if isinstance(t, towers._Tensor):
        prefix, period = towers._stagewise([eager(f) for f in t.factors],
                                           IntMatrix.kron)
        return Tower(t.rank, prefix, period)
    if isinstance(t, wedge._Wedge):
        return wedge_power_tower(t.base, t.k)
    return t


class TestTensorRatios:
    """Equality of tensor products from the scalar ratios of their
    factors, against the eager Kronecker entries."""

    @staticmethod
    def random_pairs(seed: int):
        """Tensor products of two or three factors of equal stage counts:
        plain towers and exterior powers of towers with entries in
        {-1, 0, 1}, up to scalars.  Each right factor is the power of the
        same order of a base whose stages are the left base's times a
        sign, or random ones.  At one stage two factors carry powers of 2
        on opposite sides that cancel in the product (Lambda^k(2^e A) =
        2^(ek) Lambda^k A).  One right factor in ten is replaced by its
        entries as a plain tower."""
        rng = random.Random(seed)
        for _ in range(400):
            a = rng.choice((0, 1))
            stages = a + rng.choice((0, 1, 1, 2) if a else (1, 2))
            specs = []
            for _ in range(rng.choice((2, 2, 3))):
                n = rng.choice((1, 2, 3, 3, 4))
                specs.append((n, rng.choice((1, 1, *range(n + 1)))))
            # scales[i][s]: 2-exponents of factor i at stage s, left, right
            scales = [[(0, 0)] * stages for _ in specs]
            i, j = rng.sample(range(len(specs)), 2)
            s = rng.randrange(stages)
            scales[i][s] = (specs[j][1], 0)
            scales[j][s] = (0, specs[i][1])
            left, right = [], []
            for (n, k), scale in zip(specs, scales):
                sides = ([], [])
                for e, f in scale:
                    m = rand_nonsingular(rng, n, -1, 1)
                    sides[0].append(scaled(2 ** e, m))
                    sides[1].append(scaled(rng.choice((1, -1)) * 2 ** f, m)
                                    if rng.random() < 0.9
                                    else rand_nonsingular(rng, n, -1, 1))
                x, y = (power(Tower(n, tuple(ms[:a]), tuple(ms[a:])), k)
                        for ms in sides)
                left.append(x)
                right.append(eager(y) if rng.random() < 0.1 else y)
            yield left, right

    @staticmethod
    def named_pairs():
        """(2A) (x) B against A (x) (2B), (-A) (x) (-B) against A (x) B,
        Lambda^2(2A) (x) B against Lambda^2 A (x) (4B), their unequal
        variants, and three factors."""
        rng = random.Random(157)

        def tower(*mats):
            return Tower(mats[0].rows, mats[:1], mats[1:])

        a = [rand_nonsingular(rng, 3, -1, 1) for _ in range(2)]
        b = [rand_nonsingular(rng, 2, -1, 1) for _ in range(2)]
        c = [rand_nonsingular(rng, 4, -1, 1) for _ in range(2)]

        def t(mats, x=1):
            return tower(*(scaled(x, m) for m in mats))

        yield [t(a, 2), t(b)], [t(a), t(b, 2)], True
        yield [t(a, -1), t(b, -1)], [t(a), t(b)], True
        # det(-A) enters squared (B has rank 2): equal determinants, and
        # the products are not equal
        yield [t(a, -1), t(b)], [t(a), t(b)], False
        yield [power(t(c, 2), 2), t(b)], [power(t(c), 2), t(b, 4)], True
        yield [power(t(c, 2), 2), t(b)], [power(t(c), 2), t(b, -4)], False
        yield ([t(a, 2), power(t(c), 3), t(b, -1)],
               [t(a), power(t(c, -1), 3), t(b, 2)], True)
        yield ([t(a, 2), power(t(c), 3), t(b, -1)],
               [t(a), power(t(c), 3), t(b, 2)], False)

    @staticmethod
    def check(left, right) -> bool:
        v, w = towers.tensor_towers(left), towers.tensor_towers(right)
        ev, ew = eager(v), eager(w)
        same = ev.prefix + ev.period == ew.prefix + ew.period
        assert hash(v) == hash(ev) and hash(w) == hash(ew)
        assert (v == w) == (w == v) == same, (left, right)
        if same:
            assert hash(v) == hash(w)
        assert "_entries" not in v.__dict__ | w.__dict__
        return hash(v) == hash(w)

    def test_random_pairs_agree_with_entries(self):
        told = Counter()
        for left, right in self.random_pairs(159):
            if self.check(left, right):
                told[left == right, towers.tensor_towers(left)
                     == towers.tensor_towers(right)] += 1
        # equal products from unequal factors, and unequal products of
        # equal hash, are both reached
        assert told[False, True] >= 50 and told[False, False] >= 50, told

    def test_named_pairs(self):
        for left, right, equal in self.named_pairs():
            assert self.check(left, right)
            assert (towers.tensor_towers(left)
                    == towers.tensor_towers(right)) == equal

    def test_misaligned_factors_compare_entries(self):
        # ranks (3, 2) against (2, 3): A (x) B and B (x) A are conjugate
        # by a permutation, equal only for scalar stages
        rng = random.Random(161)
        a = Tower(3, (), (rand_nonsingular(rng, 3, -1, 1),))
        b = Tower(2, (rand_nonsingular(rng, 2, -1, 1),),
                  (rand_nonsingular(rng, 2, -1, 1),))
        ident = IntMatrix.identity
        cases = [(a, b, False),
                 (Tower(3, (), (scaled(2, ident(3)),)),
                  Tower(2, (), (scaled(-1, ident(2)),)), True)]
        for x, y, equal in cases:
            v, w = towers.tensor_towers([x, y]), towers.tensor_towers([y, x])
            ev, ew = eager(v), eager(w)
            assert hash(v) == hash(w)
            assert (v == w) == (w == v) == equal
            assert equal == (ev.prefix + ev.period == ew.prefix + ew.period)


class TestK1:
    def test_free_ranks(self):
        for m in range(1, 7):
            assert k1(AbGroupDesc.free_abelian(m)) \
                == FreeOfRank(2 ** (m - 1))

    def test_trivial_group(self):
        assert k1(AbGroupDesc.free_abelian(0)) == FreeOfRank(0)

    def test_torsion_discarded(self):
        g = AbGroupDesc(TorsionDesc.countably_infinite(), FreeOfRank(1))
        assert k1(g) == FreeOfRank(1)
        g2 = AbGroupDesc(TorsionDesc(FgAbGroup(0, (2, 4))), FreeOfRank(3))
        assert k1(g2) == FreeOfRank(4)

    def test_low_rank_towers_unchanged(self):
        rng = random.Random(47)
        for _ in range(50):
            rank = rng.choice([1, 2])
            t = rand_tower(rng, rank)
            f = TowerForm(t)
            assert k1(AbGroupDesc.torsion_free(f)) == f

    def test_four_rank_decomposition(self):
        # Z^2 (+) Gamma with Gamma of rank 2: odd wedges give
        # Z^2 (+) Gamma^2 (+) (wedge-square)^2
        gamma = Tower(2, (), (IntMatrix.from_rows([[2, 15], [1, 2]]),))
        g = AbGroupDesc.torsion_free(
            direct_sum_of([FreeOfRank(2), TowerForm(gamma)]))
        s = flatten(k1(g))
        assert s.free_rank == 2
        assert s.towers == {gamma: 2}
        assert sum(s.types.values()) == 2
        assert all(TypeClass(sup) == TypeClass(Supernatural.of({11: INF}))
                   for sup in s.types)


class TestK0:
    def test_free_ranks(self):
        assert k0(AbGroupDesc.free_abelian(0)) == FreeOfRank(1)
        for m in range(1, 7):
            assert k0(AbGroupDesc.free_abelian(m)) \
                == FreeOfRank(2 ** (m - 1))

    def test_four_rank_decomposition(self):
        # even wedges of Z^2 (+) Gamma: wedge^0 and the top wedge are Z
        # and det-towers; middle degree contributes Z (+) Gamma^2 (+) w2
        gamma = Tower(2, (), (IntMatrix.from_rows([[2, 15], [1, 2]]),))
        g = AbGroupDesc.torsion_free(
            direct_sum_of([FreeOfRank(2), TowerForm(gamma)]))
        s = flatten(k0(g))
        assert s.free_rank == 2          # wedge^0 plus the Z from degree 2
        assert s.towers[gamma] == 2
        # wedge-square types, degrees 2 and 4
        assert sum(s.types.values()) == 2
        assert flatten(k0(g)).finite_rank() == flatten(k1(g)).finite_rank()

    def test_total_rank_power_of_two(self):
        rng = random.Random(53)
        for _ in range(10):
            t = rand_tower(rng, rng.choice([2, 3]))
            g = AbGroupDesc.torsion_free(
                direct_sum_of([FreeOfRank(rng.randint(0, 2)), TowerForm(t)]))
            total = flatten(g.free).finite_rank()
            assert (flatten(k0(g)).finite_rank()
                    + flatten(k1(g)).finite_rank()) == 2 ** total


GAMMA1 = Tower(2, (), (IntMatrix.from_rows([[2, 15], [1, 2]]),))
HALVES = Supernatural.of({2: INF})


def random_sum(rng: random.Random):
    """A direct sum of free, rank-1, completely decomposable (counts up to
    3) and rank-2/3 tower summands of total rank at most 6, often with a
    summand repeated."""
    def sup():
        return Supernatural.of({p: rng.choice((INF, INF, 0, 1))
                                for p in rng.sample((2, 3, 5), 2)})

    parts, pool, rank = [], [], 0
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if pool and kind < 0.3:
            part = rng.choice(pool)
        elif kind < 0.45:
            part = FreeOfRank(rng.randint(0, 2))
        elif kind < 0.65:
            part = TowerForm(rng.choice((rank1_tower_from_supernatural(sup()),
                                     rand_tower(rng, 1, 1, 1))))
        elif kind < 0.8:
            part = CompletelyDecomposable(tuple(
                (TypeClass(sup()), rng.randint(1, 3))
                for _ in range(rng.randint(1, 2))))
        else:
            part = TowerForm(rand_tower(rng, rng.choice((2, 3)), 1, 2))
        r = flatten(part).finite_rank()
        if rank + r > 6:
            break
        parts.append(part)
        pool.append(part)
        rank += r
    return direct_sum_of(parts)


def kgroup_counts(kg):
    """Free rank, count per type and count of towers per rank."""
    s = flatten(kg)
    types, ranks = Counter(), Counter()
    for sup, c in s.types.items():
        types[TypeClass(sup)] += c
    for t, c in s.towers.items():
        ranks[t.rank] += c
    return s.free_rank, types, ranks


class TestCountedKGroups:
    """k1 and k0 count each distinct product once; the listing reference
    (one part per copy) agrees on every count."""

    def test_counts_match_listed_reference(self):
        rng = random.Random(101)
        plain = repeated = 0
        for _ in range(320):
            g = AbGroupDesc.torsion_free(random_sum(rng))
            for parity, kgroup in ((1, k1), (0, k0)):
                got, ref = kgroup(g), listed_k_group(g, parity)
                assert kgroup_counts(got) == kgroup_counts(ref), g
                parts = [p for p in (ref.parts if isinstance(ref, DirectSum)
                                     else (ref,))
                         if not isinstance(p, FreeOfRank)]
                if len(set(parts)) == len(parts):
                    plain += 1
                    assert describe(got) == describe(ref), g
                else:
                    repeated += 1
        assert plain > 150 and repeated > 150

    @pytest.mark.parametrize("free, parity, text", [
        (CompletelyDecomposable(((TypeClass(HALVES), 18),)), 1,
         "completely decomposable(type[2^inf] x 131072)"),
        (CompletelyDecomposable(((TypeClass(HALVES), 18),)), 0,
         "free rank 1 + completely decomposable(type[2^inf] x 131071)"),
        (CompletelyDecomposable(((TypeClass(HALVES), 200),)), 1,
         f"completely decomposable(type[2^inf] x {2 ** 199})"),
        (direct_sum_of([FreeOfRank(20), TowerForm(GAMMA1)]), 1,
         "free rank 524288 + 524288 copies of rank-2 tower group"
         " + completely decomposable(type[11^inf] x 524288)"),
        (direct_sum_of([FreeOfRank(40), TowerForm(GAMMA1)]), 0,
         "free rank 549755813888"
         " + completely decomposable(type[11^inf] x 549755813888)"
         " + 549755813888 copies of rank-2 tower group"),
        (direct_sum_of([TowerForm(GAMMA1)] * 3), 1,
         "3 copies of rank-2 tower group + 6 copies of rank-2 tower group"
         " + tower group of rank 8 + 3 copies of rank-2 tower group"),
        (direct_sum_of([TowerForm(GAMMA1)] * 3), 0,
         "free rank 1 + completely decomposable(type[11^inf] x 3)"
         " + 3 copies of rank-4 tower group"
         " + completely decomposable(type[11^inf] x 3)"
         " + 3 copies of rank-4 tower group + rank-1 group of type[11^inf]"),
    ])
    def test_descriptions_grow_with_distinct_parts(self, free, parity, text):
        kgroup = k1 if parity else k0
        assert describe(kgroup(AbGroupDesc.torsion_free(free))) == text

    def test_nine_copies(self):
        # one part per multiset of 9 degrees in {0, 1, 2} of that parity
        g = AbGroupDesc.torsion_free(direct_sum_of([TowerForm(GAMMA1)] * 9))
        for kgroup, parts in ((k1, 25), (k0, 30)):
            kg = kgroup(g)
            assert len(kg.parts) == parts
            assert flatten(kg).finite_rank() == 2 ** 17

    def test_rank_guard_at_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        # the largest rank whose count 2^(rank-1) prints within the
        # limit: 2^rank is the first power of 2 with more digits
        bound = 10 ** limit
        rank = next(n for n in range(3 * limit, 4 * limit)
                    if 2 ** n >= bound)
        assert k1(AbGroupDesc.free_abelian(rank)) \
            == FreeOfRank(2 ** (rank - 1))
        for kgroup in (k1, k0):
            with pytest.raises(ValueError,
                               match=f"rank {rank + 1} .* {limit} digits"):
                kgroup(AbGroupDesc.free_abelian(rank + 1))

    @pytest.mark.parametrize("rank", [10 ** 5, 10 ** 9])
    def test_huge_ranks_rejected(self, rank):
        huge = [AbGroupDesc.free_abelian(rank),
                AbGroupDesc.torsion_free(direct_sum_of(
                    [FreeOfRank(rank - 2), TowerForm(GAMMA1)]))]
        for g in huge:
            for kgroup in (k1, k0):
                with pytest.raises(ValueError, match=f"total rank {rank} "):
                    kgroup(g)

    def test_no_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert k0(AbGroupDesc.free_abelian(20000)) \
                == FreeOfRank(2 ** 19999)
        finally:
            sys.set_int_max_str_digits(limit)


class TestWedgeSquareType:
    def test_free_is_zero_type(self):
        assert wedge_square_type(Tower(2)) \
            == TypeClass(Supernatural())

    def test_half_integer_plane(self):
        t = Tower(2, (), (IntMatrix.from_rows([[2, 0], [0, 1]]),))
        assert wedge_square_type(t) == TypeClass(Supernatural.of({2: INF}))

    def test_rank_guard(self):
        with pytest.raises(ValueError):
            wedge_square_type(Tower(3))


def naive_coprime_search(t: Tower, m: int) -> bool:
    """Literal search for an m-divisible combination with a unit slot."""
    for a in range(m):
        for b in range(m):
            if math.gcd(a, m) != 1 and math.gcd(b, m) != 1:
                continue
            if is_divisible(t, GroupElement(0, (a, b)), m):
                return True
    return False


class TestDivisibilityEquivalence:
    def test_coprime_determinants_always_false(self):
        t = Tower(2, (), (IntMatrix.from_rows([[2, 1], [1, 1]]),))  # det 1
        assert not wedge_divisible_by_search(t, 5)
        assert not wedge_unit_divisible(t, 5)

    def test_half_integer_plane_divisible(self):
        t = Tower(2, (), (IntMatrix.from_rows([[2, 0], [0, 1]]),))
        assert wedge_divisible_by_search(t, 4)
        assert wedge_unit_divisible(t, 4)

    def test_search_matches_naive(self):
        rng = random.Random(59)
        for _ in range(25):
            t = rand_tower(rng, 2, max_prefix=2, max_period=2)
            for m in (2, 3, 4, 5, 6, 8, 9, 12):
                assert wedge_divisible_by_search(t, m) \
                    == naive_coprime_search(t, m), (t, m)

    def test_search_matches_the_stable_power(self):
        # the unit vectors pushed to the Fitting stage span the kernel
        # mod m of Q^N T(0, a), for the stable power Q^N mod m, at moduli
        # past the reach of naive_coprime_search
        rng = random.Random(71)
        found = Counter()
        for _ in range(60):
            t = rand_tower(rng, 2, max_prefix=2, max_period=3)
            if rng.random() < 0.5:
                # stage maps of determinant 2^i 3^j 5^k, so that the
                # composite moduli can divide
                t = Tower(2, *(tuple(IntMatrix.from_rows(
                    [[rng.choice((1, 2, 3, 5, 6, 10)), rng.randint(-3, 3)],
                     [0, rng.choice((1, 2, 3, 5))]]) for _ in range(n))
                    for n in (rng.randint(0, 2), rng.randint(0, 3))))
            for m in (4, 8, 12, 16, 36, 2 ** 61 - 1, 10 ** 18):
                expected = stable_power_search(t, m)
                assert wedge_divisible_by_search(t, m) == expected, (t, m)
                found[m, expected] += 1
        assert all(found[m, True] and found[m, False]
                   for m in (4, 8, 12, 16, 36, 10 ** 18)), found

    def test_search_implies_divisible(self):
        # sound direction, every modulus: a coprime-coefficient element
        # divisible by m always certifies m-divisibility of the wedge
        rng = random.Random(61)
        for _ in range(40):
            t = rand_tower(rng, 2)
            for m in range(2, 25):
                if wedge_divisible_by_search(t, m):
                    assert wedge_unit_divisible(t, m), (t, m)

    def test_two_routes_agree_for_primes(self):
        rng = random.Random(67)
        for _ in range(40):
            t = rand_tower(rng, 2)
            for m in (2, 3, 5, 7, 11, 13, 17, 19, 23):
                assert wedge_divisible_by_search(t, m) \
                    == wedge_unit_divisible(t, m), (t, m)

    def test_composite_modulus_gap(self):
        # the converse fails for composite m: with coordinate 2-heights 1
        # and 3 the wedge picks up 2-height 4, but no single combination
        # with an odd coefficient is divisible by 16 (both slots would
        # need heights >= 4); same shape at m = 6 with split primes
        t = Tower(2, (IntMatrix.from_rows([[2, 0], [0, 8]]),), ())
        assert wedge_unit_divisible(t, 16)
        assert not wedge_divisible_by_search(t, 16)
        assert not naive_coprime_search(t, 16)
        t6 = Tower(2, (IntMatrix.from_rows([[2, 0], [0, 3]]),), ())
        assert wedge_unit_divisible(t6, 6)
        assert not wedge_divisible_by_search(t6, 6)
        assert not naive_coprime_search(t6, 6)
