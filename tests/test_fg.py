"""Finitely generated groups, torsion descriptors and cardinals."""

import random

import pytest

from abelk import (FgAbGroup, IntMatrix, TorsionDesc, TRIVIAL_GROUP,
                   fg_isomorphic, from_relations, smith_normal_form,
                   torsion_cardinal)
from abelk.groups import OMEGA_COPIES

from conftest import rand_nonsingular


class TestFgAbGroup:
    def test_invariant_factor_validation(self):
        with pytest.raises(ValueError):
            FgAbGroup(0, (1,))
        with pytest.raises(ValueError):
            FgAbGroup(0, (4, 6))  # 4 does not divide 6
        assert FgAbGroup(1, (2, 4)).invariant_factors == (2, 4)

    def test_order(self):
        assert TRIVIAL_GROUP.order() == 1
        assert FgAbGroup(0, (2, 6)).order() == 12
        with pytest.raises(ValueError):
            FgAbGroup(1, ()).order()

    def test_str(self):
        assert str(FgAbGroup(2, (3,))) == "Z + Z + Z/3"
        assert str(TRIVIAL_GROUP) == "0"


class TestFromRelations:
    def test_diagonal_relations(self):
        rel = IntMatrix.from_rows([[2, 0, 0], [0, 6, 0]])
        g = from_relations(rel)
        assert g == FgAbGroup(1, (2, 6))

    def test_full_rank_relations_give_finite(self):
        rel = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        g = from_relations(rel)
        assert g.free_rank == 0
        assert g.order() == abs(rel.det())

    def test_presentation_invariance(self):
        # unimodular row/column changes present the same group
        rng = random.Random(2)
        rel = IntMatrix.from_rows([[4, 2, 0], [0, 12, 0]])
        base = from_relations(rel)
        for _ in range(20):
            u = rand_nonsingular(rng, 2, -2, 2)
            while abs(u.det()) != 1:
                u = rand_nonsingular(rng, 2, -2, 2)
            assert fg_isomorphic(from_relations(u @ rel), base)

    def test_order_matches_smith_diagonal(self):
        rng = random.Random(4)
        for _ in range(30):
            a = rand_nonsingular(rng, 3)
            g = from_relations(a)
            diag = smith_normal_form(a).diagonal()
            assert g.order() == abs(a.det())
            assert g.invariant_factors == tuple(d for d in diag if d > 1)


class TestTorsionAndAlpha:
    def test_torsion_free_rank_rejected(self):
        with pytest.raises(ValueError):
            TorsionDesc(FgAbGroup(1, (2,)))

    def test_cardinals(self):
        assert torsion_cardinal(TorsionDesc.trivial()) == 1
        assert torsion_cardinal(TorsionDesc(FgAbGroup(0, (2, 4)))) == 8
        assert (torsion_cardinal(TorsionDesc.countably_infinite())
                == OMEGA_COPIES)
