"""Unitary-group invariant, witnesses and the comparison engine."""

import random
from fractions import Fraction

import pytest

from abelk import (AbGroupDesc, Cardinal, CompletelyDecomposable,
                   DimensionMismatchError, FgAbGroup, FreeOfRank, INF,
                   IntMatrix, RatMatrix, Rank1, SingularWitnessError,
                   Supernatural, TorsionDesc, Tower, TowerForm, TypeClass,
                   Witness, amplify, check_witness, compare_free_parts,
                   compare_k1, compare_unitary, direct_sum_of,
                   rank1_tower_from_supernatural, unitary_invariant)
from abelk.gallery import default_pair_config
from abelk.groups import OMEGA_COPIES, flatten

from conftest import rand_tower

TAU2 = TypeClass(Supernatural.of({2: INF}))
TAU3 = TypeClass(Supernatural.of({3: INF}))


def rank1_of(sup_dict):
    return Rank1(rank1_tower_from_supernatural(Supernatural.of(sup_dict)))


class TestAmplify:
    def test_finite_multiplies(self):
        f = direct_sum_of([FreeOfRank(1), rank1_of({2: INF})])
        s = flatten(amplify(f, Cardinal.fin(3)))
        assert s.free_rank == 3
        assert list(s.types) == [TAU2] * 3

    def test_one_is_identity(self):
        f = rank1_of({2: INF})
        assert amplify(f, Cardinal.fin(1)) == f

    def test_omega_erases_multiplicity(self):
        f1 = amplify(FreeOfRank(1), Cardinal.omega())
        f2 = amplify(FreeOfRank(5), Cardinal.omega())
        assert f1 == f2
        s = flatten(f1)
        assert s.free_rank == 0 and s.omega_types

    def test_omega_towers_deduplicated(self):
        t = Tower(2, (), (IntMatrix.from_rows([[2, 15], [1, 2]]),))
        f = direct_sum_of([TowerForm(t), TowerForm(t)])
        s = flatten(amplify(f, Cardinal.omega()))
        assert list(s.omega_towers) == [t]

    def test_trivial_group_stays_trivial(self):
        assert amplify(FreeOfRank(0), Cardinal.omega()) == FreeOfRank(0)


class TestUnitaryInvariant:
    def test_alpha_is_torsion_cardinal(self):
        g = AbGroupDesc(TorsionDesc(FgAbGroup(0, (2, 4))), FreeOfRank(1))
        inv = unitary_invariant(g)
        assert inv.alpha == Cardinal.fin(8)
        assert flatten(inv.amplified).free_rank == 8


class TestCompareDecidable:
    def test_free_ranks(self):
        res = compare_free_parts(FreeOfRank(3), FreeOfRank(3))
        assert res.verdict == "isomorphic"
        res = compare_free_parts(FreeOfRank(1), FreeOfRank(2))
        assert res.verdict == "not_isomorphic"
        assert res.evidence == "free rank 1 vs 2"

    def test_type_multisets(self):
        a = CompletelyDecomposable(((TAU2, 2), (TAU3, 1)))
        b = direct_sum_of([rank1_of({2: INF}), rank1_of({2: INF, 7: 3}),
                           rank1_of({3: INF})])
        assert compare_free_parts(a, b).verdict == "isomorphic"
        c = CompletelyDecomposable(((TAU2, 1), (TAU3, 2)))
        assert compare_free_parts(a, c).verdict == "not_isomorphic"

    def test_rank1_types_decide(self):
        same1 = rank1_of({2: INF, 3: 5})
        same2 = rank1_of({2: INF})
        assert compare_free_parts(same1, same2).verdict == "isomorphic"
        disjoint = rank1_of({5: INF})
        assert (compare_free_parts(same1, disjoint).verdict
                == "not_isomorphic")

    def test_completely_decomposable_never_unknown(self):
        rng = random.Random(71)
        primes = [2, 3, 5, 7]
        for _ in range(40):
            def rand_part():
                sup = {p: rng.choice([0, 1, INF]) for p in primes}
                return rank1_of({p: e for p, e in sup.items() if e})
            a = direct_sum_of([FreeOfRank(rng.randint(0, 2))]
                              + [rand_part() for _ in range(rng.randint(0, 3))])
            b = direct_sum_of([FreeOfRank(rng.randint(0, 2))]
                              + [rand_part() for _ in range(rng.randint(0, 3))])
            assert compare_free_parts(a, b).verdict != "unknown"

    def test_omega_multiplicities(self):
        a = CompletelyDecomposable(((TAU2, OMEGA_COPIES),))
        b = direct_sum_of([CompletelyDecomposable(((TAU2, OMEGA_COPIES),)),
                           rank1_of({2: INF})])
        # omega + 1 copies of the same type is still omega copies
        assert compare_free_parts(a, b).verdict == "isomorphic"
        c = CompletelyDecomposable(((TAU3, OMEGA_COPIES),))
        assert compare_free_parts(a, c).verdict == "not_isomorphic"

    def test_finite_vs_infinite_rank(self):
        a = FreeOfRank(4)
        b = CompletelyDecomposable(((TAU2, OMEGA_COPIES),))
        res = compare_free_parts(a, b)
        assert res.verdict == "not_isomorphic"
        assert "finite" in res.evidence


class TestCompareSeparation:
    def test_p_rank_separates(self):
        # Z[1/2] (+) Z[1/2] against a genuinely rank-2 tower with full
        # 2-divisible plane: mod-2 ranks differ
        t_plane = Tower(2, (), (IntMatrix.from_rows([[2, 0], [0, 2]]),))
        t_line = Tower(2, (), (IntMatrix.from_rows([[2, 0], [0, 1]]),))
        res = compare_free_parts(TowerForm(t_plane), TowerForm(t_line))
        assert res.verdict == "not_isomorphic"
        assert "p-rank at p=2" in res.evidence

    def test_top_wedge_separates(self):
        cfg = default_pair_config()
        t11 = cfg.gamma1  # wedge-square type 11^inf
        t_free_wedge = Tower(2, (), (IntMatrix.from_rows([[2, 1], [1, 1]]),))
        res = compare_free_parts(TowerForm(t11), TowerForm(t_free_wedge))
        assert res.verdict == "not_isomorphic"

    def test_unknown_without_witness(self):
        cfg = default_pair_config()
        res = compare_free_parts(TowerForm(cfg.gamma1),
                                 TowerForm(cfg.gamma2))
        assert res.verdict == "unknown"

    def test_structural_equality_matches(self):
        rng = random.Random(73)
        for _ in range(10):
            t = rand_tower(rng, 2)
            assert compare_free_parts(TowerForm(t),
                                      TowerForm(t)).verdict == "isomorphic"


class TestSymmetry:
    def test_verdicts_symmetric(self):
        rng = random.Random(79)
        cfg = default_pair_config()
        parts = [FreeOfRank(2), rank1_of({2: INF}),
                 TowerForm(cfg.gamma1), TowerForm(cfg.gamma2),
                 direct_sum_of([FreeOfRank(1), rank1_of({3: INF})])]
        for a in parts:
            for b in parts:
                assert (compare_free_parts(a, b).verdict
                        == compare_free_parts(b, a).verdict)


class TestWitness:
    def fl_witness(self):
        cfg = default_pair_config()
        return Witness(cfg.witness_copies, cfg.witness_map,
                       TowerForm(cfg.gamma1), TowerForm(cfg.gamma2),
                       name="squares")

    def test_configured_witness_valid(self):
        assert check_witness(self.fl_witness())

    def test_perturbed_witness_invalid(self):
        w = self.fl_witness()
        rows = [list(r) for r in w.map.entries]
        rows[0][0] += 1
        bad = Witness(w.copies, RatMatrix.from_rows(rows), w.src, w.dst)
        try:
            ok = check_witness(bad)
        except SingularWitnessError:
            ok = False
        assert not ok

    def test_singular_witness_raises(self):
        w = self.fl_witness()
        zero = RatMatrix.from_rows([[Fraction(0)] * 4] * 4)
        with pytest.raises(SingularWitnessError):
            check_witness(Witness(w.copies, zero, w.src, w.dst))

    def test_dimension_mismatch_raises(self):
        w = self.fl_witness()
        small = RatMatrix.from_rows([[Fraction(1)]])
        with pytest.raises(DimensionMismatchError):
            check_witness(Witness(w.copies, small, w.src, w.dst))

    def test_witness_certifies_isomorphism(self):
        cfg = default_pair_config()
        w = self.fl_witness()
        a = direct_sum_of([TowerForm(cfg.gamma1)] * 2)
        b = direct_sum_of([TowerForm(cfg.gamma2)] * 2)
        assert compare_free_parts(a, b, (w,)).verdict == "isomorphic"
        # orientation does not matter
        assert compare_free_parts(b, a, (w,)).verdict == "isomorphic"


class TestCompareGroups:
    def test_mixed_rank_pair(self):
        inf = TorsionDesc.countably_infinite()
        g1 = AbGroupDesc(inf, FreeOfRank(1))
        g2 = AbGroupDesc(inf, FreeOfRank(2))
        assert compare_unitary(g1, g2).verdict == "isomorphic"
        res = compare_k1(g1, g2)
        assert res.verdict == "not_isomorphic"
        assert "free rank 1 vs 2" in res.evidence

    def test_torsion_cardinality_separates(self):
        g1 = AbGroupDesc(TorsionDesc(FgAbGroup(0, (2,))), FreeOfRank(1))
        g2 = AbGroupDesc(TorsionDesc(FgAbGroup(0, (3,))), FreeOfRank(1))
        res = compare_unitary(g1, g2)
        assert res.verdict == "not_isomorphic"
        assert "cardinality" in res.evidence

    def test_same_finite_torsion_order_isomorphic(self):
        # different listed structure, same cardinal and free part
        g1 = AbGroupDesc(TorsionDesc(FgAbGroup(0, (4,))), FreeOfRank(1))
        g2 = AbGroupDesc(TorsionDesc(FgAbGroup(0, (2, 2))), FreeOfRank(1))
        assert compare_unitary(g1, g2).verdict == "isomorphic"
