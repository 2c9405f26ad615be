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
* by that same stage the kernel mod m of the map from stage 0 stops
  growing, so the wedge divisibility search reads it off the two unit
  vectors pushed that far.  No product of connecting matrices is formed
  but one: a p-rank multiplies the period matrices mod p, and over F_p
  the stable image has dimension r minus the multiplicity of 0 as an
  eigenvalue of that product Q, read off the characteristic polynomial
  of Q mod p after a Hessenberg reduction.  Exterior powers and tensor
  products (wedge._Wedge, _Tensor) compute their p-ranks and determinant
  primes from the towers they are built from instead;
* infinite p-height is detected by a minimal-polynomial criterion: the
  p-valuation of the element's coordinates grows without bound iff every
  root of the minimal polynomial of the period product on the element's
  cyclic subspace has positive p-adic valuation, i.e. the polynomial is
  congruent to a power of x mod p.  That polynomial divides the monic
  integer characteristic polynomial, so by Gauss's lemma its
  coefficients are integers, and the fraction-free Gauss-Jordan kernel
  behind integer_inverse reads them off the Krylov vectors e, Qe, ...,
  Q^r e, which are the element pushed by whole periods.  The walk bounds
  no finite height, so it cannot replace this test.

Everything here runs in integers: rational coordinates enter membership
as numerators over one common denominator.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .matrices import IntMatrix, _gauss_jordan

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


@dataclass(frozen=True, eq=False)
class Tower:
    """Eventually-periodic inductive system of full-rank integer matrices.

    Towers hash on their rank, stage counts (prefix length, period length)
    and connecting determinants, and are equal exactly when their entries
    are, so equal towers hash equal.  Once rank, stage counts and
    determinants agree, equality asks that every scalar ratio of their
    connecting matrices (_ratios) be (1, 1).

    A tower built from others, a _Built subclass (an exterior power
    wedge._Wedge, a tensor product _Tensor), holds only its recipe and
    makes its entries on first read of prefix or period: by stage_matrix,
    the p-heights and membership walks, or ratios that its recipe does
    not settle.  It overrides the members that read entries here
    (connecting_dets, _determinant_primes, _p_rank and _ratios) to
    compute them from its recipe, so its hashing, p-ranks, is_free and
    validate_tower read no entries.
    """

    rank: int
    prefix: tuple[IntMatrix, ...] = ()
    period: tuple[IntMatrix, ...] = ()

    def stage_matrix(self, s: int) -> IntMatrix:
        """Connecting map from stage s to stage s + 1."""
        a = len(self.prefix)
        if s < a:
            return self.prefix[s]
        if not self.period:
            return IntMatrix.identity(self.rank)
        return self.period[(s - a) % len(self.period)]

    # Per-object caches: cached_property stores into the instance dict,
    # which a frozen dataclass leaves writable and keeps out of ==/hash.
    # Towers are dict keys of the summand counts (groups.flatten): hash
    # them once.
    def __hash__(self):
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.rank, self.stage_counts, self.connecting_dets))

    def __eq__(self, other):
        if not isinstance(other, Tower):
            return NotImplemented
        if self is other:
            return True
        if (self.rank != other.rank or self.stage_counts != other.stage_counts
                or self.connecting_dets != other.connecting_dets):
            return False
        return all(r == (1, 1) for r in self._ratios(other))

    def _ratios(self, other: "Tower") -> list:
        """Per connecting matrix X of self and Y of other (towers of equal
        rank and stage counts), _ratio of Y to X, or None where Y is no
        multiple of X: off the determinants at rank 1, else the entries."""
        if self.rank == 1:
            return [_ratio(x, y) for x, y in zip(self.connecting_dets,
                                                 other.connecting_dets)]
        return [_matrix_ratio(x, y)
                for x, y in zip(self.prefix + self.period,
                                other.prefix + other.period)]

    @functools.cached_property
    def stage_counts(self) -> tuple[int, int]:
        """(prefix length, period length); set, not counted, on a tower
        built from others."""
        return len(self.prefix), len(self.period)

    @functools.cached_property
    def connecting_dets(self) -> tuple[int, ...]:
        """Determinants of the prefix matrices, then of the period
        matrices, computed once per tower."""
        return tuple(m.det() for m in self.prefix + self.period)

    def determinant_primes(self) -> frozenset[int]:
        """Primes dividing any connecting-matrix determinant, found once
        per tower."""
        return self._determinant_primes

    @functools.cached_property
    def _determinant_primes(self) -> frozenset[int]:
        primes: set[int] = set()
        for d in self.connecting_dets:
            primes.update(factorize(d))
        return frozenset(primes)

    def _p_rank(self, p: int) -> int:
        """mod_p_rank from the period matrices, once per prime."""
        ranks = self._p_ranks
        if p not in ranks:
            ranks[p] = _stable_rank_mod_p(self, p)
        return ranks[p]

    @functools.cached_property
    def _p_ranks(self) -> dict[int, int]:
        return {}


def _ratio(x: int, y: int) -> tuple[int, int]:
    """(n, d) in lowest terms with d > 0 and d y == n x, for x != 0."""
    g = math.gcd(x, y) * (-1 if x < 0 else 1)
    return y // g, x // g


def _matrix_ratio(x: IntMatrix, y: IntMatrix):
    """_ratio of y to x, or None: the first nonzero entry of x fixes the
    one candidate, checked on every entry (x == 0 only matches 0).  Equal
    matrices, as in most comparisons, take one tuple comparison."""
    if x == y:
        return 1, 1
    pairs = [(a, b) for rx, ry in zip(x.entries, y.entries)
             for a, b in zip(rx, ry)]
    n, d = _ratio(*next(((a, b) for a, b in pairs if a), (1, 1)))
    return (n, d) if all(d * b == n * a for a, b in pairs) else None


class _Built(Tower):
    """A tower built from others: its rank and stage counts are given,
    its recipe is kept as attributes, and _build() makes its entries, as
    (prefix, period), on first read."""

    def __init__(self, rank: int, stage_counts: tuple[int, int], **recipe):
        self.__dict__.update(rank=rank, stage_counts=stage_counts, **recipe)

    @functools.cached_property
    def _entries(self) -> tuple[tuple[IntMatrix, ...], tuple[IntMatrix, ...]]:
        prefix, period = self._build()
        return tuple(prefix), tuple(period)

    prefix = property(lambda self: self._entries[0])
    period = property(lambda self: self._entries[1])


@dataclass(frozen=True)
class GroupElement:
    """A thread representative: integer coordinates at a given stage."""

    stage: int
    coords: tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


def validate_tower(t: Tower) -> list[str]:
    """Empty list when well-formed; otherwise human-readable defects.

    A tower built from others has the right shape by construction, so only
    its derived determinants are checked, and no entry is built."""
    defects = []
    if t.rank < 1:
        defects.append(f"rank must be >= 1, got {t.rank}")
        return defects
    a = t.stage_counts[0]
    misshaped = {} if isinstance(t, _Built) else {
        i: m for i, m in enumerate(t.prefix + t.period)
        if (m.rows, m.cols) != (t.rank, t.rank)}
    # the cached determinants only when all of them exist
    dets = (t.connecting_dets if not misshaped
            else [None if i in misshaped else m.det()
                  for i, m in enumerate(t.prefix + t.period)])
    for i, d in enumerate(dets):
        kind, j = ("prefix", i) if i < a else ("period", i - a)
        if i in misshaped:
            m = misshaped[i]
            defects.append(f"{kind}[{j}] is {m.rows}x{m.cols}, "
                           f"expected {t.rank}x{t.rank}")
        elif d == 0:
            defects.append(f"{kind}[{j}] is singular")
    return defects


def push_to_stage(t: Tower, e: GroupElement, s: int) -> GroupElement:
    """e at stage s: each connecting map applied to the coordinates in
    turn, none past the prefix of an empty period (the identity there)."""
    if s < e.stage:
        raise ValueError(f"cannot push element from stage {e.stage} "
                         f"back to stage {s}")
    a, b = t.stage_counts
    coords = e.coords
    for k in range(e.stage, s if b else min(s, a)):
        coords = t.stage_matrix(k).apply(coords)
    return GroupElement(s, coords)


def elements_equal(t: Tower, e1: GroupElement, e2: GroupElement) -> bool:
    s = max(e1.stage, e2.stage)
    return push_to_stage(t, e1, s).coords == push_to_stage(t, e2, s).coords


def _fitting_stage(t: Tower, stage: int, m: int) -> int:
    """The Fitting bound of the module docstring: a vector at the given
    stage that ever reaches 0 mod m has done so by this stage, so mod m
    the kernel of the map from that stage stops growing here."""
    a, b = t.stage_counts
    return max(stage, a) + t.rank * m.bit_length() * b


def _first_stage_reaching_zero(t: Tower, stage: int, vecs,
                               m: int) -> int | None:
    """Least s >= stage such that every v in vecs, pushed from stage to
    s, is 0 mod m, or None.

    Exact: a residue that ever reaches 0 does so by _fitting_stage and
    stays 0 from then on, so one walk drops each vector once it is 0 and
    fails if any is left at that stage.
    """
    last = _fitting_stage(t, stage, m)
    live = [cur for cur in (tuple(x % m for x in v) for v in vecs)
            if any(cur)]
    s = stage
    while live:
        if s == last:
            return None
        rows = t.stage_matrix(s).entries
        nxt = []
        for v in live:
            cur = tuple(sum(map(operator.mul, row, v)) % m for row in rows)
            if any(cur):
                nxt.append(cur)
        live = nxt
        s += 1
    return s


def membership(t: Tower, v) -> GroupElement | None:
    """Element with the given stage-0 rational coordinates, or None.

    Each coordinate is an exact rational with numerator and denominator
    attributes, such as an int; any other type raises TypeError.  v
    belongs to the limit group iff pushing it to some stage clears all
    denominators.  Returns a representative at the least such stage.
    """
    v = tuple(v)
    if len(v) != t.rank:
        raise ValueError("coordinate length does not match tower rank")
    try:
        d = math.lcm(*(x.denominator for x in v))
        w = tuple(x.numerator * (d // x.denominator) for x in v)
    except AttributeError:
        raise TypeError(f"coordinates must be exact rationals, got {v!r}"
                        ) from None
    s = _first_stage_reaching_zero(t, 0, [w], d)
    if s is None:
        return None
    coords = push_to_stage(t, GroupElement(0, w), s).coords
    assert all(c % d == 0 for c in coords)
    return GroupElement(s, tuple(c // d for c in coords))


def is_divisible(t: Tower, e: GroupElement, m: int) -> bool:
    """Whether e is divisible by m within the limit group."""
    if m < 1:
        raise ValueError("divisor must be >= 1")
    return _first_stage_reaching_zero(t, e.stage, [e.coords], m) is not None


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


def _cyclic_min_poly(krylov) -> list[int]:
    """Monic minimal polynomial of q on the cyclic subspace generated by
    v, as integer coefficients [c0, c1, ..., 1] (low to high degree), from
    the Krylov vectors v, q v, ..., q^n v of an n x n matrix q.

    One Gauss-Jordan pass over them as columns stops at the first q^k v
    that depends on the ones before it, and holds d times its
    coefficients in them.
    """
    rows, d = _gauss_jordan([list(r) for r in zip(*krylov)], len(krylov))
    k = len(rows)
    return [-row[k] // d for row in rows] + [1]


def height(t: Tower, e: GroupElement, p: int):
    """p-height of e in the limit group: an integer >= 0 or INF."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e.is_zero:
        raise ZeroElementError("p-height of the zero element is undefined")
    a, b = t.stage_counts
    # push past the prefix and align to a period boundary; coordinate
    # valuations are nondecreasing along pushes, so nothing is lost
    s = max(e.stage, a)
    if b:
        s = a + b * -(-(s - a) // b)
    e = push_to_stage(t, e, s)
    if not b:
        return _min_valuation(e.coords, p)
    # the Krylov vectors of the period product: pushes by whole periods
    krylov = [e]
    for _ in range(t.rank):
        krylov.append(push_to_stage(t, krylov[-1], krylov[-1].stage + b))
    minpoly = _cyclic_min_poly([x.coords for x in krylov])
    # every non-leading coefficient divisible by p <=> all roots have
    # positive valuation <=> the valuation grows without bound
    if all(c % p == 0 for c in minpoly[:-1]):
        return INF
    k = _min_valuation(e.coords, p)
    while _first_stage_reaching_zero(t, s, [e.coords],
                                     p ** (k + 1)) is not None:
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


def _stage_counts(towers) -> tuple[int, int]:
    """Stage counts of a stage-by-stage combination of towers: the longest
    prefix and the lcm of the period lengths (an empty period counts as
    length 1)."""
    return (max(t.stage_counts[0] for t in towers),
            math.lcm(*(t.stage_counts[1] or 1 for t in towers)))


def _stagewise(towers, combine):
    """(prefix, period) of the tower whose stage-s map is combine folded
    over the towers' stage-s maps, in _stage_counts(towers) stages."""
    a, b = _stage_counts(towers)
    maps = [functools.reduce(combine, (t.stage_matrix(s) for t in towers))
            for s in range(a + b)]
    return tuple(maps[:a]), tuple(maps[a:])


def _stage_value(t: Tower, s: int, values, identity=1):
    """The entry of values, one per connecting matrix of t (prefix then
    period, like connecting_dets), for t.stage_matrix(s), found from the
    stage counts; past the prefix of an empty period, identity, the value
    of the identity matrix (its determinant by default)."""
    a, b = t.stage_counts
    if s < a:
        return values[s]
    return values[a + (s - a) % b] if b else identity


def direct_sum_towers(towers) -> Tower:
    """Block-diagonal tower presenting the direct sum of the summands."""
    towers = list(towers)
    if not towers:
        raise ValueError("direct sum of no towers")
    if len(towers) == 1:
        return towers[0]
    rank = sum(t.rank for t in towers)
    prefix, period = _stagewise(towers, IntMatrix.block_diag)
    if all(m == IntMatrix.identity(rank) for m in period):
        return Tower(rank, prefix)
    return Tower(rank, prefix, period)


def is_free(t: Tower) -> bool:
    """Whether t presents Z^rank: every connecting determinant is +-1.
    Each connecting map is then in GL_rank(Z), so every stage lattice is
    Z^rank in stage-0 coordinates.  Only the determinants are read, which
    a tower built from others derives from its recipe, so no entry is
    built."""
    return all(d in (1, -1) for d in t.connecting_dets)


class _Tensor(_Built):
    """Tensor product of factor towers: Kronecker products stage by stage,
    over _stage_counts(factors) stages."""

    def __init__(self, factors):
        super().__init__(math.prod(f.rank for f in factors),
                         _stage_counts(factors), factors=tuple(factors))

    def _build(self):
        return _stagewise(self.factors, IntMatrix.kron)

    @functools.cached_property
    def connecting_dets(self) -> tuple[int, ...]:
        # det(A (x) B) = det(A)^rank(B) * det(B)^rank(A), for any number
        # of factors: each determinant to the product of the other ranks
        return tuple(math.prod(_stage_value(f, s, f.connecting_dets)
                               ** (self.rank // f.rank) for f in self.factors)
                     for s in range(sum(self.stage_counts)))

    @functools.cached_property
    def _determinant_primes(self) -> frozenset[int]:
        # every exponent in connecting_dets is >= 1
        return frozenset().union(*(f.determinant_primes()
                                   for f in self.factors))

    def _p_rank(self, p: int) -> int:
        """The product of the factors' p-ranks.  (Q1 (x) Q2)^N =
        Q1^N (x) Q2^N has rank the product of the ranks over F_p.  The
        period starts at the longest prefix and spans the lcm of the
        period lengths, so each factor enters as a power of a cyclic
        rotation of its own period product; AB and BA have the same
        stable rank ((AB)^(N+1) = A (BA)^N B), so that phase shift does
        not matter."""
        return math.prod(mod_p_rank(f, p) for f in self.factors)

    def _ratios(self, other: Tower) -> list:
        """From the factors, when each factor pair has equal rank and
        stage counts.  Kronecker factors are fixed up to scalars: for
        nonzero X_i, Y_i, (x)_i Y_i = c (x)_i X_i iff Y_i = c_i X_i with
        c = prod c_i.  So a stage's ratio is the product of the factor
        ratios there (None if one is None), a factor past the prefix of
        an empty period giving (1, 1).  Any other pair compares entries."""
        if not (isinstance(other, _Tensor)
                and len(other.factors) == len(self.factors)
                and all((f.rank, f.stage_counts) == (g.rank, g.stage_counts)
                        for f, g in zip(self.factors, other.factors))):
            return super()._ratios(other)
        ratios = [(f, f._ratios(g))
                  for f, g in zip(self.factors, other.factors)]
        stages = [[_stage_value(f, s, r, (1, 1)) for f, r in ratios]
                  for s in range(sum(self.stage_counts))]
        return [None if None in rs else _ratio(math.prod(d for _, d in rs),
                                               math.prod(n for n, _ in rs))
                for rs in stages]


def tensor_towers(towers) -> Tower:
    """Tower of the tensor product: Kronecker products stage by stage,
    built on first read (_Tensor)."""
    towers = list(towers)
    if not towers:
        raise ValueError("tensor of no towers")
    return towers[0] if len(towers) == 1 else _Tensor(towers)


def _reduce(m: IntMatrix, n: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(x % n for x in row) for row in m.entries))


def _hessenberg_charpoly(h: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial mod p of the square list of rows h, as
    coefficients from degree 0 up (monic); h is overwritten.

    h is first brought to upper Hessenberg form by similarity transforms
    over F_p (each row operation with its inverse column operation), then
    the polynomial follows from the recurrence on its leading principal
    minors (H. Cohen, A Course in Computational Algebraic Number Theory,
    GTM 138, ch. 2).
    """
    n = len(h)
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        inv = pow(h[m][m - 1], -1, p)
        pivot_row = h[m]
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % p
            if not u:
                continue
            # row i -= u * row m, then column m += u * column i
            h[i] = [(x - u * y) % p for x, y in zip(h[i], pivot_row)]
            for row in h:
                row[m] = (row[m] + u * row[i]) % p
    # polys[k]: characteristic polynomial of the leading k x k block
    polys = [[1]]
    for k in range(n):
        nxt = [0] + polys[k]
        for d, c in enumerate(polys[k]):
            nxt[d] = (nxt[d] - h[k][k] * c) % p
        sub = 1
        for i in range(k - 1, -1, -1):
            sub = sub * h[i + 1][i] % p
            if not sub:
                break
            f = h[i][k] * sub % p
            for d, c in enumerate(polys[i]):
                nxt[d] = (nxt[d] - f * c) % p
        polys.append(nxt)
    return polys[n]


def mod_p_rank(t: Tower, p: int) -> int:
    """Dimension of (limit group)/p over F_p.

    The image of the limit group in (stage group)/p is the stable image of
    the period product Q mod p (the prefix is cofinal-irrelevant).  By
    Fitting's lemma over F_p its dimension is the rank minus the
    multiplicity of 0 as an eigenvalue of Q mod p, the order at x of the
    characteristic polynomial: one Hessenberg reduction, no powers of Q.
    A tower computes this once per prime and keeps it; a tower built from
    others takes it from its recipe instead (Tower._p_rank).
    """
    return t._p_rank(p)


def _stable_rank_mod_p(t: Tower, p: int) -> int:
    """mod_p_rank of t from its own period matrices."""
    if not t.period:
        return t.rank
    q = _reduce(t.period[0], p)
    for m in t.period[1:]:
        q = _reduce(_reduce(m, p) @ q, p)
    chi = _hessenberg_charpoly([list(row) for row in q.entries], p)
    return t.rank - next(d for d, c in enumerate(chi) if c)
