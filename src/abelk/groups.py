"""Symbolic descriptions of countable abelian groups.

A group is a torsion descriptor plus a torsion-free ("free part")
descriptor.  Free parts are built from free groups, tower groups (a
rank-1 group given by a tower is a rank-1 TowerForm), completely
decomposable multisets of types and direct sums.  A multiplicity is a
count, never a list of copies: a positive int or omega (which absorbs
sums and products), in a CompletelyDecomposable and in TowerForm(t,
copies).  flatten reads a free part as one such multiset.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fg import TorsionDesc
from .towers import (ZERO_CHARACTERISTIC, Supernatural, Tower, TypeClass,
                     is_free, rank1_tower_from_supernatural, tower_type,
                     validate_tower)

OMEGA_COPIES = "omega"  # the countably infinite multiplicity

Copies = int | str  # a positive int or OMEGA_COPIES


def check_copies(copies: Copies) -> None:
    """Reject anything but a positive int (bool is not a count) or omega."""
    if copies != OMEGA_COPIES and (type(copies) is not int or copies < 1):
        raise ValueError("multiplicities must be >= 1 or omega")


def add_copies(a: Copies, b: Copies) -> Copies:
    """a + b, with omega absorbing."""
    return OMEGA_COPIES if OMEGA_COPIES in (a, b) else a + b


def times_copies(a: Copies, b: Copies) -> Copies:
    """a * b for positive counts, with omega absorbing."""
    return OMEGA_COPIES if OMEGA_COPIES in (a, b) else a * b


@dataclass(frozen=True)
class FreeOfRank:
    """Z^rank; rank 0 is the trivial group."""

    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")


@dataclass(frozen=True)
class CompletelyDecomposable:
    """Multiset of rank-1 types; multiplicities are positive ints or omega."""

    parts: tuple[tuple[TypeClass, Copies], ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("empty completely decomposable descriptor")
        for _, mult in self.parts:
            check_copies(mult)


@dataclass(frozen=True)
class TowerForm:
    """copies (a positive int or omega) copies of the finite-rank
    torsion-free group presented by a tower; at rank 1, a rank-1 group."""

    tower: Tower
    copies: Copies = 1

    def __post_init__(self):
        check_copies(self.copies)
        defects = validate_tower(self.tower)
        if defects:
            raise ValueError("invalid tower: " + "; ".join(defects))


@dataclass(frozen=True)
class DirectSum:
    parts: tuple["FreePart", ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("empty direct sum")


# PEP 604 unions, not typing.Union: typing caches every Union it makes,
# which would keep these classes, and with them this module, alive after
# abelk is dropped from sys.modules and imported again
FreePart = FreeOfRank | CompletelyDecomposable | TowerForm | DirectSum

# K-group results are the same symbolic shapes
KGroupDesc = FreePart


@dataclass(frozen=True)
class AbGroupDesc:
    """A countable abelian group: torsion descriptor + free part."""

    torsion: TorsionDesc
    free: FreePart

    @staticmethod
    def torsion_free(free: FreePart) -> "AbGroupDesc":
        return AbGroupDesc(TorsionDesc.trivial(), free)

    @staticmethod
    def free_abelian(rank: int) -> "AbGroupDesc":
        return AbGroupDesc.torsion_free(FreeOfRank(rank))


def direct_sum_of(parts) -> FreePart:
    """Flattened direct sum; merges free ranks, drops trivial summands."""
    flat: list[FreePart] = []

    def walk(p: FreePart):
        if isinstance(p, DirectSum):
            for q in p.parts:
                walk(q)
        else:
            flat.append(p)

    for p in parts:
        walk(p)
    free_rank = sum(p.rank for p in flat if isinstance(p, FreeOfRank))
    rest = [p for p in flat if not isinstance(p, FreeOfRank)]
    out: list[FreePart] = []
    if free_rank or not rest:
        out.append(FreeOfRank(free_rank))
    out.extend(rest)
    if len(out) == 1:
        return out[0]
    return DirectSum(tuple(out))


NO_TOWER_FORM = "omega-amplified parts have no finite tower form"


@dataclass(frozen=True)
class Summands:
    """A free part as a multiset: Z^free_rank, and the count of each
    rank-1 summand, keyed by its exact characteristic, and of each tower
    summand of rank >= 2 that is not free.  A free tower (towers.is_free:
    every connecting determinant is +-1) counts in free_rank, or as the
    zero characteristic when it has omega copies.  Two characteristics of
    one type stay two keys, so each summand keeps its finite exponents."""

    free_rank: int
    types: dict[Supernatural, Copies]
    towers: dict[Tower, Copies]

    @property
    def has_omega(self) -> bool:
        return (OMEGA_COPIES in self.types.values()
                or OMEGA_COPIES in self.towers.values())

    def finite_rank(self) -> int:
        if self.has_omega:
            raise ValueError(NO_TOWER_FORM)
        return (self.free_rank + sum(self.types.values())
                + sum(t.rank * c for t, c in self.towers.items()))


def _walk(f: FreePart):
    """Every summand of f in the order of the tree, as (key, copies): the
    key is an int rank for a free summand, the characteristic of a rank-1
    summand, or a tower of rank >= 2, kept as written even when it is
    free, so that summand_towers lists the towers a witness reads."""
    if isinstance(f, DirectSum):
        for q in f.parts:
            yield from _walk(q)
    elif isinstance(f, FreeOfRank):
        yield f.rank, 1
    elif isinstance(f, CompletelyDecomposable):
        for tc, mult in f.parts:
            yield tc.representative, mult
    elif isinstance(f, TowerForm):
        t = f.tower
        yield (tower_type(t).representative if t.rank == 1 else t), f.copies
    else:
        raise TypeError(f"not a free part: {f!r}")


def flatten(f: FreePart) -> Summands:
    free_rank, types, towers = 0, {}, {}
    for key, copies in _walk(f):
        if isinstance(key, Tower) and is_free(key):
            # Z^rank: a rank per copy, or omega copies of the zero type
            # as amplify counts them
            key = key.rank if copies != OMEGA_COPIES else ZERO_CHARACTERISTIC
        if isinstance(key, int):
            free_rank += key * copies
        else:
            counts = towers if isinstance(key, Tower) else types
            counts[key] = add_copies(counts.get(key, 0), copies)
    return Summands(free_rank, types, towers)


def summand_towers(f: FreePart) -> list[Tower]:
    """Every summand as a concrete tower (finite-rank descriptors only):
    Z^free_rank first, then the rank-1 summands, then the towers of rank
    >= 2, each in walk order with every copy listed."""
    free_rank, types, towers = 0, [], []
    for key, copies in _walk(f):
        if copies == OMEGA_COPIES:
            raise ValueError(NO_TOWER_FORM)
        if isinstance(key, int):
            free_rank += key
        elif isinstance(key, Tower):
            towers.extend([key] * copies)
        else:
            types.extend([rank1_tower_from_supernatural(key)] * copies)
    return ([Tower(free_rank)] if free_rank else []) + types + towers


def describe(f: FreePart) -> str:
    """Compact human-readable rendering of a free part / K-group value."""
    if isinstance(f, FreeOfRank):
        return f"free rank {f.rank}" if f.rank else "trivial"
    if isinstance(f, CompletelyDecomposable):
        bits = [f"{tc} x {mult}" for tc, mult in f.parts]
        return "completely decomposable(" + ", ".join(bits) + ")"
    if isinstance(f, TowerForm):
        if f.copies == 1:
            return (f"rank-1 group of {tower_type(f.tower)}"
                    if f.tower.rank == 1
                    else f"tower group of rank {f.tower.rank}")
        return f"{f.copies} copies of rank-{f.tower.rank} tower group"
    if isinstance(f, DirectSum):
        return " + ".join(describe(p) for p in f.parts)
    raise TypeError(f"not a free part: {f!r}")
