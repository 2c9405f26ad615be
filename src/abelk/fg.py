"""Finitely generated abelian groups in invariant-factor form.

Also hosts the torsion descriptor used by the unitary-group invariant: a
torsion subgroup is either a concrete finite group or an unstructured
countably infinite one (finer structure of infinite torsion is deliberately
not modeled; only its cardinal, compare.torsion_cardinal, matters
downstream).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .matrices import IntMatrix, smith_normal_form


@dataclass(frozen=True)
class FgAbGroup:
    """Z^free_rank + Z/d1 + ... + Z/dk with d1 | d2 | ... and all di >= 2."""

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        factors = self.invariant_factors
        if any(d < 2 for d in factors):
            raise ValueError("invariant factors must be >= 2")
        if any(factors[i + 1] % factors[i] for i in range(len(factors) - 1)):
            raise ValueError("invariant factors must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def order(self) -> int:
        """Group order; only defined for torsion groups (free_rank == 0)."""
        if self.free_rank:
            raise ValueError("infinite group has no order")
        return math.prod(self.invariant_factors)

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"


TRIVIAL_GROUP = FgAbGroup(0, ())


def from_relations(relations: IntMatrix) -> FgAbGroup:
    """Group presented as Z^cols modulo the row space of the relation matrix."""
    diag = smith_normal_form(relations).diagonal()
    nonzero = [d for d in diag if d != 0]
    return FgAbGroup(free_rank=relations.cols - len(nonzero),
                     invariant_factors=tuple(d for d in nonzero if d > 1))


def from_cyclic_orders(orders) -> FgAbGroup:
    """Z/d1 + ... + Z/dk for positive cyclic orders, in invariant-factor
    form, without a relation matrix.

    (di, dj) <- (gcd, lcm) keeps the product and puts the smaller
    p-valuation first at every prime p at once, so sweeping every pair
    i < j is a selection sort of the valuations: the result is a
    divisibility chain, and dropping its 1s gives the invariant factors.
    """
    d = list(orders)
    if any(x < 1 for x in d):
        raise ValueError("cyclic orders must be positive")
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = math.gcd(d[i], d[j]), math.lcm(d[i], d[j])
    return FgAbGroup(0, tuple(x for x in d if x > 1))


def fg_isomorphic(g1: FgAbGroup, g2: FgAbGroup) -> bool:
    """Structure-theorem comparison: equal ranks and invariant factors."""
    return (g1.free_rank == g2.free_rank
            and g1.invariant_factors == g2.invariant_factors)


@dataclass(frozen=True)
class TorsionDesc:
    """Torsion subgroup: Finite(group with free_rank 0) or CountablyInfinite."""

    finite: FgAbGroup | None = None  # None means countably infinite

    def __post_init__(self):
        if self.finite is not None and self.finite.free_rank != 0:
            raise ValueError("finite torsion descriptor must have free rank 0")

    @property
    def is_countably_infinite(self) -> bool:
        return self.finite is None

    @staticmethod
    def trivial() -> "TorsionDesc":
        return TorsionDesc(TRIVIAL_GROUP)

    @staticmethod
    def countably_infinite() -> "TorsionDesc":
        return TorsionDesc(None)

    def __str__(self):
        return "countable" if self.finite is None else str(self.finite)
