"""Unitary-group invariant, witnesses and the comparison engine."""

import random
from fractions import Fraction

import pytest

from abelk import (AbGroupDesc, CompletelyDecomposable,
                   DimensionMismatchError, FgAbGroup, FreeOfRank, INF,
                   IntMatrix, RatMatrix, SingularWitnessError,
                   Supernatural, TorsionDesc, Tower, TowerForm, TypeClass,
                   Witness, amplify, check_witness, compare_free_parts,
                   compare_k1, compare_unitary, describe, direct_sum_of,
                   rank1_tower_from_supernatural, unitary_invariant)
from abelk import compare, k0, k1, towers, wedge
from abelk.gallery import default_pair_config
from abelk.groups import (OMEGA_COPIES, flatten, summand_towers,
                          times_copies)
from abelk.towers import mod_p_rank

from conftest import rand_tower, unimodular_pair

TAU2 = TypeClass(Supernatural.of({2: INF}))
TAU3 = TypeClass(Supernatural.of({3: INF}))


def rank1_of(sup_dict):
    return TowerForm(rank1_tower_from_supernatural(Supernatural.of(sup_dict)))


class TestAmplify:
    def test_finite_multiplies(self):
        f = direct_sum_of([FreeOfRank(1), rank1_of({2: INF})])
        s = flatten(amplify(f, 3))
        assert s.free_rank == 3
        assert s.types == {TAU2.representative: 3}

    def test_one_is_identity(self):
        f = rank1_of({2: INF})
        assert amplify(f, 1) == f

    def test_omega_erases_multiplicity(self):
        f1 = amplify(FreeOfRank(1), OMEGA_COPIES)
        f2 = amplify(FreeOfRank(5), OMEGA_COPIES)
        assert f1 == f2
        s = flatten(f1)
        assert s.free_rank == 0 and s.types == {Supernatural(): OMEGA_COPIES}

    def test_omega_towers_deduplicated(self):
        t = Tower(2, (), (IntMatrix.from_rows([[2, 15], [1, 2]]),))
        f = direct_sum_of([TowerForm(t), TowerForm(t)])
        s = flatten(amplify(f, OMEGA_COPIES))
        assert s.towers == {t: OMEGA_COPIES}

    def test_trivial_group_stays_trivial(self):
        assert amplify(FreeOfRank(0), OMEGA_COPIES) == FreeOfRank(0)


class TestUnitaryInvariant:
    def test_alpha_is_torsion_cardinal(self):
        g = AbGroupDesc(TorsionDesc(FgAbGroup(0, (2, 4))), FreeOfRank(1))
        inv = unitary_invariant(g)
        assert inv.alpha == 8
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

    def test_p_rank_separates_by_the_determinant_prime(self):
        # Gamma1 (period det 11, wedge-square type 11^inf) against a tower
        # with a period of det 1: the p-rank at 11 separates them, as it
        # does whenever the top wedges' types differ
        cfg = default_pair_config()
        t11 = cfg.gamma1
        t_free_wedge = Tower(2, (), (IntMatrix.from_rows([[2, 1], [1, 1]]),))
        res = compare_free_parts(TowerForm(t11), TowerForm(t_free_wedge))
        assert res.verdict == "not_isomorphic"
        assert res.evidence == "p-rank at p=11: 1 vs 2"

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

    @pytest.mark.parametrize("copies", [0, -1, True, 1.5, "2"])
    def test_copies_validated_at_construction(self, copies):
        # a witness of no copies would match the empty multiset and be
        # reported as used without certifying anything
        g = TowerForm(default_pair_config().gamma1)
        with pytest.raises(ValueError, match="positive int"):
            Witness(copies, RatMatrix.identity(2), g, g, name="zero")

    def test_oversized_copies_rejected_before_any_direct_sum(self,
                                                             monkeypatch):
        # the ranks come from the free parts, so a map that cannot fit is
        # rejected before the summands of a million copies are listed
        def no_summands(f):
            raise AssertionError("summands listed before the rank check")

        monkeypatch.setattr(compare, "summand_towers", no_summands)
        t = TowerForm(Tower(2, period=(IntMatrix.from_rows([[2, 1],
                                                            [1, 1]]),)))
        w = Witness(10 ** 6, RatMatrix.identity(2), t, t)
        with pytest.raises(DimensionMismatchError):
            check_witness(w)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: finite horizon")
    def test_identity_into_eighth_lattice_is_invalid(self):
        # Z[1/2]^2 is not isomorphic to (1/8)Z^2 = Z^2, but the identity
        # passes every stage up to the checked horizon
        halves = TowerForm(Tower(2, period=(IntMatrix.from_rows(
            [[2, 0], [0, 2]]),)))
        eighths = TowerForm(Tower(2, prefix=(IntMatrix.from_rows(
            [[8, 0], [0, 8]]),)))
        w = Witness(1, RatMatrix.identity(2), halves, eighths, name="bogus")
        assert check_witness(w) is False

    def test_one_check_per_witness(self, monkeypatch):
        # T + T' against T' + T matches the pools in both orientations; an
        # invalid witness is still checked once
        cfg = default_pair_config()
        a, b = TowerForm(cfg.gamma1), TowerForm(cfg.gamma2)
        calls = []

        def counting(w):
            calls.append(w.name)
            return False

        monkeypatch.setattr(compare, "check_witness", counting)
        w = Witness(1, RatMatrix.identity(4), direct_sum_of([a, b]),
                    direct_sum_of([b, a]), name="swap")
        compare_free_parts(direct_sum_of([a, b]), direct_sum_of([b, a]),
                           (w,))
        assert calls == ["swap"]

    def z_plus_fuchs_witness(self):
        """Z + Gamma1 to Z + Gamma2, two copies: the identity on the Z
        coordinates and the packaged map on the Gamma ones, in the order
        the witness lays them out, [Z, Gamma, Z, Gamma]."""
        cfg = default_pair_config()
        rows = [[Fraction(0)] * 6 for _ in range(6)]
        rows[0][0] = rows[3][3] = Fraction(1)
        gamma = (1, 2, 4, 5)
        for i, row in enumerate(cfg.witness_map.entries):
            for j, x in enumerate(row):
                rows[gamma[i]][gamma[j]] = x
        return Witness(2, RatMatrix.from_rows(rows),
                       direct_sum_of([FreeOfRank(1), TowerForm(cfg.gamma1)]),
                       direct_sum_of([FreeOfRank(1), TowerForm(cfg.gamma2)]),
                       name="z-plus-squares")

    def test_z_plus_fuchs_witness_valid(self):
        assert check_witness(self.z_plus_fuchs_witness())

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 13: a witness "
                       "side with a free or rank-1 summand matches no pool")
    def test_z_plus_fuchs_witness_certifies(self):
        # w certifies (Z + Gamma1)^2 = (Z + Gamma2)^2, the pair it covers
        w = self.z_plus_fuchs_witness()
        a, b = (direct_sum_of([side] * 2) for side in (w.src, w.dst))
        assert compare_free_parts(a, b, (w,)).verdict == "isomorphic"

    def test_z_plus_fuchs_witness_leaves_one_copy_open(self):
        # Hom(Gamma_i, Z) = 0, so an isomorphism Z + Gamma1 -> Z + Gamma2
        # would map Gamma1 onto Gamma2: the one-copy pair is not
        # isomorphic, and the two-copy witness must not say it is
        w = self.z_plus_fuchs_witness()
        for a, b in ((w.src, w.dst), (w.dst, w.src)):
            assert compare_free_parts(a, b, (w,)).verdict != "isomorphic"

    def test_free_side_matches_tower_without_matrices(self):
        # towers whose connecting determinants are all +-1 are Z^2: the
        # pair is decided in the decidable class, the witness unread
        t = Tower(2, (IntMatrix.from_rows([[2, 1], [1, 1]]),))
        w = Witness(1, RatMatrix.from_rows([[2, 1], [1, 1]]), FreeOfRank(2),
                    TowerForm(t), name="unimodular")
        res = compare_free_parts(TowerForm(Tower(2)), TowerForm(t), (w,))
        assert res.verdict == "isomorphic"
        assert res.evidence.startswith("equal rank and type multiset")
        shear = Tower(2, (), (IntMatrix.from_rows([[1, 1], [0, 1]]),))
        minus = Tower(2, (), (IntMatrix.from_rows([[-1, 0], [0, -1]]),))
        for t in (Tower(2), shear, minus):
            for c in (1, 3, OMEGA_COPIES):
                z = amplify(FreeOfRank(2), c)
                for f1, f2 in ((z, TowerForm(t, c)), (TowerForm(t, c), z)):
                    res = compare_free_parts(f1, f2)
                    assert res.verdict == "isomorphic", (t, c)
                    assert res.evidence.startswith(
                        "equal type multisets" if c == OMEGA_COPIES
                        else "equal rank and type multiset"), (t, c)

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

    def test_k1_does_not_depend_on_summand_order(self):
        # K1 holds Lambda^1 t (x) Lambda^1 u (x) Lambda^1 v; its Kronecker
        # factors come in one order of the summands, so the two sides
        # cancel structurally
        t, u, v = (TowerForm(Tower(2, (), (IntMatrix.from_rows(m),)))
                   for m in ([[2, 15], [1, 2]], [[3, 1], [1, 2]],
                             [[1, 7], [2, 3]]))
        g1 = AbGroupDesc.torsion_free(direct_sum_of([t, u, v]))
        g2 = AbGroupDesc.torsion_free(direct_sum_of([v, u, t]))
        assert compare_unitary(g1, g2).verdict == "isomorphic"
        assert compare_k1(g1, g2).verdict == "isomorphic"


def rand_parts(rng, cfg):
    """One to three free, rank-1, completely decomposable and tower
    summands, the Fuchs towers among them."""
    kinds = (
        lambda: FreeOfRank(rng.randint(0, 2)),
        lambda: rank1_of({p: rng.choice([1, INF])
                          for p in rng.sample([2, 3, 5], rng.randint(1, 2))}),
        lambda: CompletelyDecomposable(((TAU2, rng.randint(1, 2)),
                                        (TAU3, rng.randint(1, 2)))),
        lambda: TowerForm(cfg.gamma1),
        lambda: TowerForm(cfg.gamma2),
        lambda: TowerForm(rand_tower(rng, rng.choice([2, 3]), 1, 1)),
    )
    return [rng.choice(kinds)() for _ in range(rng.randint(1, 3))]


def rand_pair(rng, cfg):
    """Two free parts: equal, the same with the Fuchs towers swapped, or
    unrelated."""
    parts = rand_parts(rng, cfg)
    swap = {cfg.gamma1: cfg.gamma2, cfg.gamma2: cfg.gamma1}
    r = rng.random()
    other = (parts if r < 0.2 else rand_parts(rng, cfg) if r < 0.4
             else [TowerForm(swap.get(p.tower, p.tower))
                   if isinstance(p, TowerForm) else p for p in parts])
    return direct_sum_of(parts), direct_sum_of(other)


class TestMultiplicityCounts:
    """A multiplicity is a count from flatten to the verdict: amplifying
    never lists a summand alpha times."""

    def fuchs_pair(self, torsion):
        cfg = default_pair_config()
        tors = TorsionDesc(FgAbGroup(0, torsion))
        return (AbGroupDesc(tors, TowerForm(cfg.gamma1)),
                AbGroupDesc(tors, TowerForm(cfg.gamma2)))

    def test_large_torsion_reads_counts(self, monkeypatch):
        # alpha = 4096: one p-rank per distinct tower and prime, not one
        # per copy
        calls = []
        stable_rank = towers._stable_rank_mod_p

        def counting(t, p):
            calls.append((t, p))
            return stable_rank(t, p)

        monkeypatch.setattr(towers, "_stable_rank_mod_p", counting)
        g1, g2 = self.fuchs_pair((64, 64))
        res = compare_unitary(g1, g2)
        assert res.verdict == "unknown"
        assert "unmatched tower summands (4096 vs 4096 left)" in res.evidence
        # one per Fuchs tower, at its one determinant prime 11
        assert [p for _, p in calls] == [11, 11]
        assert {t for t, _ in calls} == {g1.free.tower, g2.free.tower}

    def test_huge_witness_copies_give_a_verdict(self):
        # the witness sides are counted, so 10^9 copies cost no memory;
        # they match no summand of the pair and are never checked
        cfg = default_pair_config()
        a, b = TowerForm(cfg.gamma1), TowerForm(cfg.gamma2)
        w = Witness(10 ** 9, RatMatrix.identity(2), a, b, name="huge")
        assert compare_free_parts(a, b, (w,)).verdict == "unknown"

    def test_repeated_omega_towers_count_once(self):
        t = default_pair_config().gamma1
        omega = TowerForm(t, OMEGA_COPIES)
        for twice in (direct_sum_of([omega, omega]),
                      direct_sum_of([TowerForm(t), omega])):
            assert flatten(twice).towers == {t: OMEGA_COPIES}
            res = compare_free_parts(twice, omega)
            assert res.verdict == "isomorphic"
            assert res.evidence == ("structurally identical omega-amplified "
                                    "summands")

    def test_copies_are_validated_and_described(self):
        t = default_pair_config().gamma1
        for bad in (0, -1, "many", 1.5):
            with pytest.raises(ValueError):
                TowerForm(t, bad)
        assert describe(TowerForm(t)) == "tower group of rank 2"
        assert describe(TowerForm(t, 3)) == "3 copies of rank-2 tower group"
        assert (describe(TowerForm(t, OMEGA_COPIES))
                == "omega copies of rank-2 tower group")

    def test_only_counts_are_multiplicities(self):
        # a bool is an int to isinstance, but never a count
        t = default_pair_config().gamma1
        f = TowerForm(t)
        for bad in (True, False, 0):
            with pytest.raises(ValueError):
                TowerForm(t, bad)
            with pytest.raises(ValueError):
                CompletelyDecomposable(((TAU2, bad),))
            with pytest.raises(ValueError):
                amplify(f, bad)
        with pytest.raises(ValueError):
            amplify(f, "many")

    def test_amplify_is_the_repeated_direct_sum(self):
        rng = random.Random(97)
        cfg = default_pair_config()
        fuchs = Witness(cfg.witness_copies, cfg.witness_map,
                        TowerForm(cfg.gamma1), TowerForm(cfg.gamma2),
                        name="squares")
        for _ in range(60):
            f1, f2 = rand_pair(rng, cfg)
            ws = (fuchs,) if rng.random() < 0.5 else ()
            n = rng.choice([2, 3])
            by_counts = compare_free_parts(amplify(f1, n), amplify(f2, n), ws)
            by_copies = compare_free_parts(direct_sum_of([f1] * n),
                                           direct_sum_of([f2] * n), ws)
            assert by_counts == by_copies, (f1, f2, n)

    def test_counts_agree_with_listed_copies(self):
        # rank and p-ranks read off the counts of the amplified sum,
        # against every copy listed
        rng = random.Random(103)
        cfg = default_pair_config()
        for _ in range(30):
            f, n = direct_sum_of(rand_parts(rng, cfg)), rng.choice([2, 3])
            s = flatten(amplify(f, n))
            listed = summand_towers(direct_sum_of([f] * n))
            assert s.finite_rank() == sum(t.rank for t in listed)
            for p in compare._relevant_primes(s):
                assert compare._p_rank(s, p) == sum(mod_p_rank(t, p)
                                                    for t in listed)

    def test_witness_needs_both_sides(self):
        # the squares witness Gamma1^2 -> Gamma2^2 finds Gamma2^2 on one
        # side but only one Gamma1 on the other: no match, and one
        # identical Gamma2 cancels
        cfg = default_pair_config()
        a, b = TowerForm(cfg.gamma1), TowerForm(cfg.gamma2)
        w = Witness(cfg.witness_copies, cfg.witness_map, a, b, name="squares")
        res = compare_free_parts(direct_sum_of([a, b]),
                                 direct_sum_of([b, b]), (w,))
        assert res.verdict == "unknown"
        assert "unmatched tower summands (1 vs 1 left)" in res.evidence

    def test_amplify_composes(self):
        rng = random.Random(101)
        cfg = default_pair_config()
        alphas = [1, 2, 3, OMEGA_COPIES]
        for _ in range(30):
            f = direct_sum_of(rand_parts(rng, cfg))
            for m in alphas:
                for n in alphas:
                    assert (flatten(amplify(amplify(f, m), n))
                            == flatten(amplify(f, times_copies(m, n)))), \
                        (f, m, n)


def conjugated(t, rng):
    """t with every stage matrix conjugated by one random unimodular U:
    U carries the stage-s lattice of t onto that of the result, so the
    two groups are isomorphic."""
    u, inv = unimodular_pair(rng, t.rank)
    return Tower(t.rank, tuple(u @ m @ inv for m in t.prefix),
                 tuple(u @ m @ inv for m in t.period))


def unimodular_towers(seed: int):
    """(t, u, in_period): 30 seeded towers t of rank n <= 4 whose stages
    are products of elementary matrices and sign flips, so that t is Z^n,
    and u, t with one more stage diag(2, 1, ..., 1) in its prefix or, when
    in_period, in its period."""
    rng = random.Random(seed)

    def gl(n):
        u, _ = unimodular_pair(rng, n)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        return IntMatrix.from_rows([[c * x for x in row]
                                    for c, row in zip(signs, u.entries)])

    for _ in range(30):
        n = rng.randint(1, 4)
        prefix = [gl(n) for _ in range(rng.randint(0, 2))]
        period = [gl(n) for _ in range(rng.randint(0, 2))]
        t = Tower(n, tuple(prefix), tuple(period))
        in_period = rng.random() < 0.5
        stages = period if in_period else prefix
        stages.insert(rng.randint(0, len(stages)), IntMatrix.from_rows(
            [[(2 if i == 0 else 1) * int(i == j) for j in range(n)]
             for i in range(n)]))
        yield t, Tower(n, tuple(prefix), tuple(period)), in_period


TORSIONS = (TorsionDesc.trivial(), TorsionDesc(FgAbGroup(0, (2, 6))),
            TorsionDesc.countably_infinite())


class TestMetamorphic:
    """Verdicts under changes that keep the isomorphism type."""

    def test_change_of_basis_never_separates(self):
        rng = random.Random(107)
        for _ in range(150):
            t = rand_tower(rng, rng.randint(2, 4), 2, 2)
            a, b = TowerForm(t), TowerForm(conjugated(t, rng))
            tors = rng.choice(TORSIONS)
            for res in (compare_free_parts(a, b),
                        compare_k1(AbGroupDesc.torsion_free(a),
                                   AbGroupDesc.torsion_free(b)),
                        compare_unitary(AbGroupDesc(tors, a),
                                        AbGroupDesc(tors, b))):
                assert res.verdict != "not_isomorphic", (t, res)

    def test_unimodular_towers_are_free(self):
        # every presentation of Z^n is Z^n, in both orders and at every
        # torsion cardinal; a rank-1 tower is read by its type, here that
        # of the integers
        for t, _, _ in unimodular_towers(211):
            z, f = FreeOfRank(t.rank), TowerForm(t)
            s = flatten(f)
            assert (s.free_rank, s.types) == (
                (t.rank, {}) if t.rank > 1 else (0, {Supernatural(): 1})), t
            for a, b in ((z, f), (f, z)):
                assert compare_free_parts(a, b).verdict == "isomorphic", t
                for tors in TORSIONS:
                    res = compare_unitary(AbGroupDesc(tors, a),
                                          AbGroupDesc(tors, b))
                    assert res.verdict == "isomorphic", (t, tors)

    def test_unimodular_towers_have_free_k_groups(self):
        # k1 of rank <= 2 returns its input as written, which compare_k1
        # still tells is free
        for t, _, _ in unimodular_towers(213):
            g = AbGroupDesc.torsion_free(TowerForm(t))
            z = AbGroupDesc.free_abelian(t.rank)
            assert describe(k0(g)) == describe(k0(z)), t
            if t.rank > 2:
                assert describe(k1(g)) == describe(k1(z)), t
            else:
                assert k1(g) == g.free
            assert compare_k1(g, z).verdict == "isomorphic", t
            assert compare_k1(z, g).verdict == "isomorphic", t

    def test_a_stage_of_determinant_two_does_not_fold(self):
        # in the period it separates at p = 2; in the prefix the group is
        # still Z^n, told at rank 1 by its type, but the tower stays in
        # the pool with its finite exponents, so the answer stays unknown
        for _, u, in_period in unimodular_towers(215):
            n, f = u.rank, TowerForm(u)
            assert flatten(f).free_rank == 0, u
            expected = ("not_isomorphic" if in_period
                        else "isomorphic" if n == 1 else "unknown")
            for a, b in ((FreeOfRank(n), f), (f, FreeOfRank(n))):
                assert compare_free_parts(a, b).verdict == expected, u
            if n > 1:
                g = AbGroupDesc.torsion_free(f)
                assert (describe(k0(g))
                        != describe(k0(AbGroupDesc.free_abelian(n)))), u

    def test_folding_reads_no_entries(self, monkeypatch):
        # is_free reads determinants: no compound or Kronecker matrix is
        # built to fold a tower, or to keep one
        def refused(*args):
            raise AssertionError("entries built")

        def outputs(v):
            g = AbGroupDesc.torsion_free(TowerForm(v))
            return (describe(k1(g)), describe(k0(g)),
                    compare_free_parts(FreeOfRank(v.rank), g.free))

        cases = [v for t, u, _ in unimodular_towers(217) for v in (t, u)]
        expected = [outputs(v) for v in cases]
        monkeypatch.setattr(wedge, "compound_matrix", refused)
        monkeypatch.setattr(IntMatrix, "kron", refused)
        for v, out in zip(cases, expected):
            assert outputs(Tower(v.rank, v.prefix, v.period)) == out, v

    def test_adding_z_keeps_the_verdict(self):
        # not asserted for K1: K1(G (+) Z) = K1(G) (+) K0(G); nor for
        # countable torsion, where Z (+) Z^(omega) = Z^(omega) turns Z^2
        # against 0 from not_isomorphic into isomorphic
        rng = random.Random(109)
        cfg = default_pair_config()
        fuchs = Witness(cfg.witness_copies, cfg.witness_map,
                        TowerForm(cfg.gamma1), TowerForm(cfg.gamma2),
                        name="squares")
        z = FreeOfRank(1)
        for i in range(400):
            f1, f2 = rand_pair(rng, cfg)
            ws = (fuchs,) if rng.random() < 0.5 else ()
            plus1, plus2 = direct_sum_of([f1, z]), direct_sum_of([f2, z])
            assert (compare_free_parts(f1, f2, ws).verdict
                    == compare_free_parts(plus1, plus2, ws).verdict), (f1, f2)
            if i % 2:
                continue
            tors = rng.choice(TORSIONS[:2])
            g1, g2 = AbGroupDesc(tors, f1), AbGroupDesc(tors, f2)
            h1, h2 = AbGroupDesc(tors, plus1), AbGroupDesc(tors, plus2)
            assert (compare_unitary(g1, g2, ws).verdict
                    == compare_unitary(h1, h2, ws).verdict), (f1, f2, tors)
