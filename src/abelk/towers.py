"""Finite-rank torsion-free groups as eventually-periodic inductive limits.

A Tower is a system Z^r -> Z^r -> ... whose connecting matrices are a finite
prefix followed by a repeating period (an empty period means the group is
free beyond the prefix).  Elements are (stage, coords) threads; two elements
are equal iff they agree after pushing to a common stage.

Divisibility, membership and p-heights are decided exactly:

* an element reaches 0 mod m at a stage bounded in advance, or never.
  Past the prefix, the kernels of the powers Q^j of one period's product
  Q (from any phase) on (Z/m)^r form an increasing chain of submodules.
  That module has length r * Omega(m) < r * m.bit_length(), so by
  Fitting's lemma the chain stops growing within that many periods: a
  residue that is not 0 by then never becomes 0.  Walking the residues
  that far, checking for 0 at every stage, gives the least stage or
  proves there is none;
* the same bound gives the stable power Q^N mod m (N >= r * Omega(m), by
  repeated squaring) whose kernel and image are those of every later
  power; p-ranks (m = p) and the wedge divisibility search read it off;
* infinite p-height is detected by a minimal-polynomial criterion: the
  p-valuation of the element's coordinates grows without bound iff every
  root of the minimal polynomial of the period product on the element's
  cyclic subspace has positive p-adic valuation, i.e. the polynomial is
  congruent to a power of x mod p.  The walk bounds no finite height, so
  it cannot replace this test.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .matrices import IntMatrix

INF = float("inf")


class ZeroElementError(ValueError):
    """Heights and characteristics are undefined for the zero element."""


# the first 13 primes; as Miller-Rabin bases they decide primality of every
# n < _MR_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin.

    An n >= _MR_LIMIT with no factor among the bases raises ValueError
    rather than risk a wrong answer.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large to test for primality")
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; n is small at desk scale."""
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class Tower:
    """Eventually-periodic inductive system of full-rank integer matrices."""

    rank: int
    prefix: tuple[IntMatrix, ...] = ()
    period: tuple[IntMatrix, ...] = ()

    @staticmethod
    def free(rank: int) -> "Tower":
        return Tower(rank)

    def stage_matrix(self, s: int) -> IntMatrix:
        """Connecting map from stage s to stage s + 1."""
        a = len(self.prefix)
        if s < a:
            return self.prefix[s]
        if not self.period:
            return IntMatrix.identity(self.rank)
        return self.period[(s - a) % len(self.period)]

    def transition(self, s0: int, s1: int) -> IntMatrix:
        """Product of connecting maps carrying stage s0 coords to stage s1."""
        if s1 < s0:
            raise ValueError("cannot transition backwards")
        m = IntMatrix.identity(self.rank)
        for s in range(s0, s1):
            m = self.stage_matrix(s) @ m
        return m

    def period_product(self) -> IntMatrix:
        """Composite of one full period (identity when the period is empty)."""
        m = IntMatrix.identity(self.rank)
        for q in self.period:
            m = q @ m
        return m

    def determinant_primes(self) -> frozenset[int]:
        """Primes dividing any connecting-matrix determinant."""
        primes: set[int] = set()
        for m in self.prefix + self.period:
            primes.update(factorize(m.det()))
        return frozenset(primes)


@dataclass(frozen=True)
class GroupElement:
    """A thread representative: integer coordinates at a given stage."""

    stage: int
    coords: tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


def validate_tower(t: Tower) -> list[str]:
    """Empty list when well-formed; otherwise human-readable defects."""
    defects = []
    if t.rank < 1:
        defects.append(f"rank must be >= 1, got {t.rank}")
        return defects
    for kind, mats in (("prefix", t.prefix), ("period", t.period)):
        for i, m in enumerate(mats):
            if m.rows != t.rank or m.cols != t.rank:
                defects.append(f"{kind}[{i}] is {m.rows}x{m.cols}, "
                               f"expected {t.rank}x{t.rank}")
            elif m.det() == 0:
                defects.append(f"{kind}[{i}] is singular")
    return defects


def push_to_stage(t: Tower, e: GroupElement, s: int) -> GroupElement:
    if s < e.stage:
        raise ValueError(f"cannot push element from stage {e.stage} "
                         f"back to stage {s}")
    return GroupElement(s, t.transition(e.stage, s).apply(e.coords))


def elements_equal(t: Tower, e1: GroupElement, e2: GroupElement) -> bool:
    s = max(e1.stage, e2.stage)
    return push_to_stage(t, e1, s).coords == push_to_stage(t, e2, s).coords


def _first_stage_reaching_zero(t: Tower, stage: int, vec,
                               m: int) -> int | None:
    """Least s >= stage with (transition to s)(vec) == 0 mod m, or None.

    Exact: by the Fitting bound in the module docstring, a residue that
    ever reaches 0 does so by stage
    max(stage, prefix length) + rank * m.bit_length() * period length.
    """
    last = (max(stage, len(t.prefix))
            + t.rank * m.bit_length() * len(t.period))
    cur = tuple(x % m for x in vec)
    s = stage
    while any(cur):
        if s == last:
            return None
        cur = tuple(sum(a * x for a, x in zip(row, cur)) % m
                    for row in t.stage_matrix(s).entries)
        s += 1
    return s


def membership(t: Tower, v) -> GroupElement | None:
    """Element with the given stage-0 rational coordinates, or None.

    v belongs to the limit group iff some stage's transition matrix clears
    all denominators.  Returns a representative at the least such stage.
    """
    v = tuple(Fraction(x) for x in v)
    if len(v) != t.rank:
        raise ValueError("coordinate length does not match tower rank")
    d = math.lcm(*(x.denominator for x in v))
    w = tuple(int(x * d) for x in v)
    s = _first_stage_reaching_zero(t, 0, w, d)
    if s is None:
        return None
    coords = t.transition(0, s).apply(w)
    assert all(c % d == 0 for c in coords)
    return GroupElement(s, tuple(c // d for c in coords))


def is_divisible(t: Tower, e: GroupElement, m: int) -> bool:
    """Whether e is divisible by m within the limit group."""
    if m < 1:
        raise ValueError("divisor must be >= 1")
    return _first_stage_reaching_zero(t, e.stage, e.coords, m) is not None


def _min_valuation(vec, p: int):
    """min_i v_p(vec_i); INF for the zero vector."""
    best = INF
    for x in vec:
        if x == 0:
            continue
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        best = min(best, v)
        if best == 0:
            return 0
    return best


def _cyclic_min_poly(q: IntMatrix, vec) -> list[Fraction]:
    """Monic minimal polynomial of q on the cyclic subspace generated by vec.

    Returned as coefficient list [c0, c1, ..., 1] (low to high degree).
    """
    n = q.rows
    krylov: list[tuple[int, ...]] = []
    cur = tuple(vec)
    # row-echelon basis over Q with column pivots, to find first dependence
    basis: list[list[Fraction]] = []
    pivots: list[int] = []
    raw: list[list[Fraction]] = []
    while True:
        residual = [Fraction(x) for x in cur]
        coeffs = [Fraction(0)] * len(raw)
        for bi, (brow, piv) in enumerate(zip(basis, pivots)):
            f = residual[piv] / brow[piv]
            if f:
                coeffs[bi] = f
                residual = [x - f * y for x, y in zip(residual, brow)]
        piv = next((i for i, x in enumerate(residual) if x != 0), None)
        if piv is None:
            # cur = sum coeffs[i] * raw-combination; unwind to krylov coords
            # basis rows are linear combos of krylov vectors: track alongside
            combo = [Fraction(0)] * len(krylov)
            for bi, f in enumerate(coeffs):
                for j, g in enumerate(raw[bi]):
                    combo[j] += f * g
            poly = [-c for c in combo] + [Fraction(1)]
            return poly
        krylov.append(cur)
        basis.append(residual)
        pivots.append(piv)
        # raw[bi][j]: coefficient of krylov[j] in basis[bi]
        newraw = [Fraction(0)] * len(krylov)
        newraw[-1] = Fraction(1)
        for bi, f in enumerate(coeffs):
            for j, g in enumerate(raw[bi]):
                newraw[j] -= f * g
        raw.append(newraw)
        cur = q.apply(cur)


def height(t: Tower, e: GroupElement, p: int):
    """p-height of e in the limit group: an integer >= 0 or INF."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e.is_zero:
        raise ZeroElementError("p-height of the zero element is undefined")
    a, b = len(t.prefix), len(t.period)
    # push past the prefix and align to a period boundary; coordinate
    # valuations are nondecreasing along pushes, so nothing is lost
    s = max(e.stage, a)
    if b:
        s = a + b * math.ceil((s - a) / b)
    e = push_to_stage(t, e, s)
    if not b:
        return _min_valuation(e.coords, p)
    q = t.period_product()
    minpoly = _cyclic_min_poly(q, e.coords)
    # every non-leading coefficient divisible by p <=> all roots have
    # positive valuation <=> the valuation grows without bound
    if all(c.numerator % p == 0 for c in minpoly[:-1]):
        return INF
    k = _min_valuation(e.coords, p)
    while _first_stage_reaching_zero(t, s, e.coords, p ** (k + 1)) is not None:
        k += 1
    return k


@dataclass(frozen=True)
class Supernatural:
    """Formal product of p^e with e in N union {inf}, finitely supported."""

    items: tuple[tuple[int, int | float], ...] = ()

    @staticmethod
    def of(assignments: dict) -> "Supernatural":
        for p in assignments:
            if not is_prime(int(p)):
                raise ValueError(f"{p} is not prime")
        items = tuple(sorted((int(p), e) for p, e in assignments.items()
                             if e not in (0, None)))
        for p, e in items:
            if e != INF and (not isinstance(e, int) or e < 0):
                raise ValueError(f"exponent of {p} must be a natural or inf")
        return Supernatural(items)

    def exponent(self, p: int):
        for q, e in self.items:
            if q == p:
                return e
        return 0

    def infinite_support(self) -> frozenset[int]:
        return frozenset(p for p, e in self.items if e == INF)

    def primes(self) -> frozenset[int]:
        return frozenset(p for p, _ in self.items)

    def __str__(self):
        if not self.items:
            return "1"
        return " * ".join(f"{p}^{'inf' if e == INF else e}"
                          for p, e in self.items)


ZERO_CHARACTERISTIC = Supernatural()


def characteristic(t: Tower, e: GroupElement) -> Supernatural:
    """Height sequence of e over all primes, finitely supported and exact.

    Only primes dividing a connecting determinant or the content of the
    element's coordinates can have nonzero height; all other connecting maps
    are invertible over the p-adics.
    """
    if e.is_zero:
        raise ZeroElementError("characteristic of the zero element undefined")
    primes = set(t.determinant_primes())
    content = math.gcd(*e.coords)
    primes.update(factorize(content))
    return Supernatural.of({p: height(t, e, p) for p in sorted(primes)})


def types_equivalent(s1: Supernatural, s2: Supernatural) -> bool:
    """Equality of types: characteristics may differ in finitely many finite
    entries, so finitely-supported characteristics are equivalent exactly
    when their infinite supports coincide."""
    return s1.infinite_support() == s2.infinite_support()


@dataclass(frozen=True)
class TypeClass:
    """Equivalence class of characteristics (a rank-1 isomorphism type)."""

    representative: Supernatural

    def __eq__(self, other):
        if not isinstance(other, TypeClass):
            return NotImplemented
        return types_equivalent(self.representative, other.representative)

    def __hash__(self):
        return hash(self.representative.infinite_support())

    def __lt__(self, other):
        return (sorted(self.representative.infinite_support())
                < sorted(other.representative.infinite_support()))

    def __str__(self):
        sup = sorted(self.representative.infinite_support())
        return "type[" + ", ".join(f"{p}^inf" for p in sup) + "]" if sup \
            else "type[integers]"


ZERO_TYPE = TypeClass(ZERO_CHARACTERISTIC)


def unit_element(t: Tower) -> GroupElement:
    return GroupElement(0, (1,) + (0,) * (t.rank - 1))


def tower_type(t: Tower) -> TypeClass:
    """Type of a rank-1 tower (the type of any nonzero element)."""
    if t.rank != 1:
        raise ValueError("types classify rank-1 towers only")
    return TypeClass(characteristic(t, unit_element(t)))


def rank1_isomorphic(t1: Tower, t2: Tower) -> bool:
    """Rank-1 groups are isomorphic iff their types coincide."""
    if t1.rank != 1 or t2.rank != 1:
        raise ValueError("rank1_isomorphic requires rank-1 towers")
    return tower_type(t1) == tower_type(t2)


def rank1_tower_from_supernatural(s: Supernatural) -> Tower:
    """Canonical rank-1 tower whose unit element has the given characteristic."""
    finite = math.prod(p ** e for p, e in s.items if e != INF)
    infinite = math.prod(p for p, e in s.items if e == INF)
    prefix = (IntMatrix.from_rows([[finite]]),) if finite > 1 else ()
    period = (IntMatrix.from_rows([[infinite]]),) if infinite > 1 else ()
    return Tower(1, prefix, period)


def _stagewise(towers, combine) -> Tower:
    """Tower whose stage-s map is combine folded over the summands'
    stage-s maps, for s below the longest prefix plus the lcm of the
    period lengths (an empty period counts as length 1)."""
    a = max(len(t.prefix) for t in towers)
    b = math.lcm(*(len(t.period) or 1 for t in towers))
    maps = [functools.reduce(combine, (t.stage_matrix(s) for t in towers))
            for s in range(a + b)]
    return Tower(maps[0].rows, tuple(maps[:a]), tuple(maps[a:]))


def direct_sum_towers(towers) -> Tower:
    """Block-diagonal tower presenting the direct sum of the summands."""
    towers = list(towers)
    if not towers:
        raise ValueError("direct sum of no towers")
    if len(towers) == 1:
        return towers[0]
    t = _stagewise(towers, IntMatrix.block_diag)
    if all(m == IntMatrix.identity(t.rank) for m in t.period):
        return Tower(t.rank, t.prefix)
    return t


def tensor_towers(towers) -> Tower:
    """Tower of the tensor product: Kronecker products stage by stage."""
    towers = [t for t in towers]
    if not towers:
        raise ValueError("tensor of no towers")
    # drop trivial rank-1 factors that are identity at every stage
    nontrivial = [t for t in towers
                  if not (t.rank == 1 and all(m == IntMatrix.identity(1)
                                              for m in t.prefix + t.period))]
    if not nontrivial:
        return Tower.free(1)
    if len(nontrivial) == 1:
        return nontrivial[0]
    return _stagewise(nontrivial, IntMatrix.kron)


def _reduce(m: IntMatrix, n: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(x % n for x in row) for row in m.entries))


def stable_period_power(t: Tower, mod: int, length: int) -> IntMatrix:
    """Q^N mod `mod` for the period product Q and some N >= rank * length.

    length must bound the length of Z/mod as a module over itself, the
    number of prime factors of mod with multiplicity: e for mod = p^e,
    mod.bit_length() for any mod.  (Z/mod)^rank then has length at most
    rank * length, so by Fitting's lemma the kernels and images of the
    powers of Q stop changing by then: Q^N has the kernel and the image of
    every later power.  N is a power of two, reached by
    ceil(log2(rank * length)) squarings of the reduced period product.
    """
    q = _reduce(t.period_product(), mod)
    for _ in range((t.rank * length - 1).bit_length()):
        q = _reduce(q @ q, mod)
    return q


def mod_p_rank(t: Tower, p: int) -> int:
    """Dimension of (limit group)/p over F_p.

    Equals the rank mod p of the stable period power, whose image is the
    limit of the images of the period products; the prefix is
    cofinal-irrelevant.
    """
    rows = [list(row) for row in stable_period_power(t, p, 1).entries]
    rank = 0
    col = 0
    n = len(rows)
    while rank < n and col < n:
        piv = next((r for r in range(rank, n) if rows[r][col] % p), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank
