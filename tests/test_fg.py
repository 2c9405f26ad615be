"""Finitely generated groups, torsion descriptors and cardinals."""

import json
import math
import random

import pytest

from abelk import (AbGroupDesc, FgAbGroup, FreeOfRank, IntMatrix,
                   TorsionDesc, TRIVIAL_GROUP, emit_group, fg_isomorphic,
                   from_relations, parse_group_file, smith_normal_form,
                   torsion_cardinal)
from abelk.fg import from_cyclic_orders
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


def first_primes(n: int) -> list[int]:
    primes, k = [], 2
    while len(primes) < n:
        if all(k % q for q in primes):
            primes.append(k)
        k += 1
    return primes


class TestFromCyclicOrders:
    @staticmethod
    def diagonal(orders):
        n = len(orders)
        return IntMatrix.from_rows([[orders[i] if i == j else 0
                                     for j in range(n)] for i in range(n)])

    def test_agrees_with_the_diagonal_relations(self):
        rng = random.Random(5)
        primes = first_primes(6)
        for _ in range(300):
            orders = [math.prod(rng.choice(primes) ** rng.randint(0, 3)
                                for _ in range(3))
                      for _ in range(rng.randint(1, 7))]
            g = from_cyclic_orders(orders)
            assert g == from_relations(self.diagonal(orders)), orders
            desc = AbGroupDesc(TorsionDesc(g), FreeOfRank(1))
            assert parse_group_file(emit_group(desc)) == desc

    def test_examples(self):
        assert from_cyclic_orders([]) == TRIVIAL_GROUP
        assert from_cyclic_orders([1, 1]) == TRIVIAL_GROUP
        # valuations 1, 2, 0 at 2 and 1, 0, 2 at 3, each sorted
        assert from_cyclic_orders([6, 4, 9]) == FgAbGroup(0, (6, 36))

    def test_nonpositive_orders_rejected(self):
        for bad in ([0], [2, -3]):
            with pytest.raises(ValueError):
                from_cyclic_orders(bad)

    def test_two_hundred_primes_give_one_invariant_factor(self):
        # a file of about 1 KB listing 200 distinct primes as torsion:
        # one invariant factor, their product, with no 200 x 200 relation
        # matrix, and the file round-trips through emit_group
        primes = first_primes(200)
        text = json.dumps({"torsion": primes, "free": {"free": 1}})
        g = parse_group_file(text)
        assert g == AbGroupDesc(
            TorsionDesc(FgAbGroup(0, (math.prod(primes),))), FreeOfRank(1))
        assert parse_group_file(emit_group(g)) == g


class TestTorsionAndAlpha:
    def test_torsion_free_rank_rejected(self):
        with pytest.raises(ValueError):
            TorsionDesc(FgAbGroup(1, (2,)))

    def test_cardinals(self):
        assert torsion_cardinal(TorsionDesc.trivial()) == 1
        assert torsion_cardinal(TorsionDesc(FgAbGroup(0, (2, 4)))) == 8
        assert (torsion_cardinal(TorsionDesc.countably_infinite())
                == OMEGA_COPIES)
