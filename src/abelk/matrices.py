"""Exact integer linear algebra, and rational matrices as parsed.

Integer matrices are immutable and use Python's arbitrary-precision ints.
Eliminations are fraction-free: determinants and compound minors run
Bareiss elimination, and one Gauss-Jordan kernel gives exact inverses as
an integer matrix over a denominator and, in towers, the integer
coefficients of minimal polynomials.  RatMatrix is a plain container of
Fraction entries for witness maps as they are read from files; only
rational_inverse computes with it.  Also provides Smith normal form with
transform matrices, and compound_matrix, the one compound kernel: the
exterior-power matrix of a single order, which an exterior power builds
only when its entries are read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction


class SingularMatrixError(ValueError):
    """Raised when an inverse of a singular matrix is requested."""


def _bareiss(m: list[list[int]]) -> int:
    """Determinant of the square list of rows m, by fraction-free Bareiss
    elimination; m is overwritten."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pk = m[k]
        akk = pk[k]
        for i in range(k + 1, n):
            ri = m[i]
            aik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * akk - aik * pk[j]) // prev
        prev = akk
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix stored row-major as a tuple of row tuples."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = self.entries
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(x) for x in row) for row in rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n))
                               for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(tuple((0,) * cols for _ in range(rows)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch {self.cols} vs {other.rows}")
        ot = tuple(zip(*other.entries))
        return IntMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
            for row in self.entries))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-x for x in row) for row in self.entries))

    def apply(self, vec) -> tuple[int, ...]:
        """Matrix-vector product."""
        if self.cols != len(vec):
            raise ValueError("dimension mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)))

    def det(self) -> int:
        """Determinant by fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        return _bareiss([list(row) for row in self.entries])

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        """Kronecker product (basis ordered with self's index major)."""
        out = []
        for arow in self.entries:
            for brow in other.entries:
                out.append(tuple(a * b for a in arow for b in brow))
        return IntMatrix(tuple(out))

    def block_diag(self, other: "IntMatrix") -> "IntMatrix":
        top = tuple(row + (0,) * other.cols for row in self.entries)
        bot = tuple((0,) * self.cols + row for row in other.entries)
        return IntMatrix(top + bot)


@dataclass(frozen=True)
class RatMatrix:
    """Dense matrix of exact rationals: a container, with no arithmetic."""

    entries: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows) -> "RatMatrix":
        return RatMatrix(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix.from_rows(IntMatrix.identity(n).entries)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]


def rational_inverse(a: RatMatrix) -> RatMatrix:
    """Exact inverse by Gauss-Jordan elimination.

    Raises SingularMatrixError when det(a) == 0.
    """
    n = a.rows
    if n != a.cols:
        raise ValueError("inverse of non-square matrix")
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a.entries)]
    for i in range(n):
        pivot = next((r for r in range(i, n) if m[r][i] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
        inv = 1 / m[i][i]
        m[i] = [x * inv for x in m[i]]
        for r in range(n):
            if r != i and m[r][i] != 0:
                f = m[r][i]
                m[r] = [x - f * y for x, y in zip(m[r], m[i])]
    return RatMatrix(tuple(tuple(row[n:]) for row in m))


def _gauss_jordan(m: list[list[int]],
                  cols: int) -> tuple[list[list[int]], int]:
    """Fraction-free Gauss-Jordan elimination (the Jordan variant of
    Bareiss) of the integer rows m, in place.

    Pivots on columns 0, 1, ... in turn, clearing each pivot column above
    and below its pivot, and stops at the first column c < cols with no
    nonzero entry at or below row c.  Every division by the previous
    pivot is exact.  Returns the c pivot rows and the last pivot d (1 when
    c == 0).  The pivot rows begin with d times the c x c identity.  A
    column c where the kernel stops is a combination of the pivot
    columns, and its entries in the pivot rows are d times the
    coefficients (Cramer's rule).

    Left of the pivot column k every row is 0 but for the earlier pivots
    on the diagonal, and a step only rescales those to the new pivot, so
    each step updates the columns from k on and writes the new pivot
    onto that diagonal.
    """
    n = len(m)
    prev = 1
    for k in range(cols):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return m[:k], prev
        m[k], m[pivot] = m[pivot], m[k]
        pk = m[k]
        akk = pk[k]
        for i in range(n):
            if i == k:
                continue
            ri = m[i]
            aik = ri[k]
            for j in range(k, len(ri)):
                ri[j] = (ri[j] * akk - aik * pk[j]) // prev
            if i < k:
                ri[i] = akk
        prev = akk
    return m[:cols], prev


def integer_inverse(a: IntMatrix) -> tuple[IntMatrix, int]:
    """Inverse of an integer matrix as (B, d) with a @ B == d * I, d > 0
    and no common factor of d and all entries of B: a^-1 = B / d.

    Gauss-Jordan on [a | I]: the left block ends as +-det(a) * I and the
    right block as the same multiple of a^-1.
    Raises SingularMatrixError when det(a) == 0.
    """
    n = a.rows
    if n != a.cols:
        raise ValueError("inverse of non-square matrix")
    rows, d = _gauss_jordan([list(row) + [int(i == j) for j in range(n)]
                             for i, row in enumerate(a.entries)], n)
    if len(rows) < n:
        raise SingularMatrixError("matrix is singular")
    g = math.gcd(d, *(x for row in rows for x in row[n:]))
    if d < 0:
        g = -g
    inv = IntMatrix(tuple(tuple(x // g for x in row[n:]) for row in rows))
    return inv, d // g


@dataclass(frozen=True)
class SmithForm:
    """U @ A @ V == D with U, V unimodular and D a divisibility-chain diagonal."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D[i, i] for i in range(min(self.D.rows, self.D.cols)))


def smith_normal_form(a: IntMatrix) -> SmithForm:
    """Smith normal form of an arbitrary rectangular integer matrix.

    The diagonal entries are normalized nonnegative with d1 | d2 | ... ;
    signs are absorbed into U.  D is canonical; U and V are not.
    """
    m, n = a.rows, a.cols
    M = [list(row) for row in a.entries]
    U = [list(row) for row in IntMatrix.identity(m).entries]
    V = [list(row) for row in IntMatrix.identity(n).entries]

    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        # row dst += q * row src
        M[dst] = [x + q * y for x, y in zip(M[dst], M[src])]
        U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]

    def addmul_col(dst, src, q):
        for row in M:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def negate_row(i):
        M[i] = [-x for x in M[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(m, n):
        # locate a nonzero pivot in the trailing submatrix
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if M[i][j] != 0 and (pivot is None
                                     or abs(M[i][j]) < abs(M[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if M[i][t] != 0:
                    q = M[i][t] // M[t][t]
                    addmul_row(i, t, -q)
                    if M[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, n):
                if M[t][j] != 0:
                    q = M[t][j] // M[t][t]
                    addmul_col(j, t, -q)
                    if M[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the rest of the block by the pivot
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if M[i][j] % M[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            addmul_row(t, offender, 1)
        if M[t][t] < 0:
            negate_row(t)
        t += 1
    return SmithForm(IntMatrix.from_rows(U), IntMatrix.from_rows(M),
                     IntMatrix.from_rows(V))


def compound_matrix(a: IntMatrix, k: int) -> IntMatrix:
    """Matrix of all k x k minors, the induced map on the k-th exterior power.

    Rows and columns are indexed by size-k index subsets in lexicographic
    order, which fixes the basis order e_{i1} ^ ... ^ e_{ik} once and for all.
    k == 0 yields the 1 x 1 identity, k == 1 returns a copy of the input.
    """
    if not 0 <= k <= min(a.rows, a.cols):
        raise ValueError(f"compound order {k} out of range for "
                         f"{a.rows}x{a.cols} matrix")
    if k == 0:
        return IntMatrix.identity(1)
    col_sets = list(itertools.combinations(range(a.cols), k))
    return IntMatrix(tuple(
        tuple(_bareiss([[row[j] for j in cs] for row in rs])
              for cs in col_sets)
        for rs in itertools.combinations(a.entries, k)))


def compound_determinant(det_a: int, n: int, k: int) -> int:
    """det(compound_matrix(a, k)) for an n x n matrix a with det(a) == det_a,
    by the Sylvester-Franke theorem: det(a)^C(n-1, k-1), and 1 for k == 0."""
    if not 0 <= k <= n:
        raise ValueError(f"compound order {k} out of range for size {n}")
    return det_a ** math.comb(n - 1, k - 1) if k else 1


def binomial(n: int, k: int) -> int:
    return math.comb(n, k)
