"""Exact linear algebra: determinants, Smith form, compounds, inverses."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from abelk import (IntMatrix, RatMatrix, SingularMatrixError,
                   compound_matrix, rational_inverse, smith_normal_form)
from abelk.matrices import _gauss_jordan, binomial, compound_determinant

from conftest import rand_nonsingular, rat_matmul, to_rational


def square(n, lo=-9, hi=9):
    return st.lists(st.lists(st.integers(lo, hi), min_size=n, max_size=n),
                    min_size=n, max_size=n).map(IntMatrix.from_rows)


class TestDeterminant:
    def test_identity(self):
        assert IntMatrix.identity(5).det() == 1

    def test_two_by_two(self):
        assert IntMatrix.from_rows([[2, 15], [1, 2]]).det() == -11

    def test_singular(self):
        assert IntMatrix.from_rows([[1, 2], [2, 4]]).det() == 0

    @given(square(3), square(3))
    def test_multiplicative(self, a, b):
        assert (a @ b).det() == a.det() * b.det()

    def test_transpose_invariant(self):
        rng = random.Random(7)
        for _ in range(25):
            a = rand_nonsingular(rng, 4)
            assert a.det() == a.transpose().det()


class TestRational:
    def test_inverse_roundtrip(self):
        rng = random.Random(1)
        for _ in range(30):
            a = to_rational(rand_nonsingular(rng, 4))
            assert rat_matmul(rational_inverse(a), a) == RatMatrix.identity(4)

    def test_inverse_singular_raises(self):
        a = to_rational(IntMatrix.from_rows([[1, 2], [2, 4]]))
        with pytest.raises(SingularMatrixError):
            rational_inverse(a)


def full_width_gauss_jordan(m, cols):
    """The fraction-free Gauss-Jordan kernel updating every column of
    every row at each pivot step: the reference for _gauss_jordan."""
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
            for j in range(len(ri)):
                ri[j] = (ri[j] * akk - aik * pk[j]) // prev
        prev = akk
    return m[:cols], prev


class TestGaussJordan:
    """The kernel that skips the columns left of the pivot returns the
    rows of the one that updates them all."""

    def check(self, a: IntMatrix, cols: int):
        rows, d = _gauss_jordan([list(r) for r in a.entries], cols)
        assert (rows, d) == full_width_gauss_jordan(
            [list(r) for r in a.entries], cols), (a, cols)
        c = len(rows)
        # the pivot rows begin with d times the c x c identity
        assert all(row[:c] == [d * (i == j) for j in range(c)]
                   for i, row in enumerate(rows)), (a, cols)

    def test_square(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(1, 7)
            self.check(rand_matrix(rng, n, n), n)

    def test_augmented_and_rectangular(self):
        rng = random.Random(8)
        for _ in range(150):
            rows, width = rng.randint(1, 7), rng.randint(1, 9)
            self.check(rand_matrix(rng, rows, width),
                       rng.randint(0, width))

    def test_rank_deficient(self):
        rng = random.Random(9)
        for _ in range(150):
            n, width = rng.randint(2, 7), rng.randint(2, 9)
            a = [list(row) for row in rand_matrix(rng, n, width).entries]
            # a row combination of the others, and sometimes a zero column
            a[-1] = [sum(rng.randint(-2, 2) * row[j] for row in a[:-1])
                     for j in range(width)]
            if rng.random() < 0.5:
                j = rng.randrange(width)
                for row in a:
                    row[j] = 0
            self.check(IntMatrix.from_rows(a), rng.randint(1, width))
            self.check(IntMatrix.from_rows(a), min(n, width))


class TestSmithNormalForm:
    def check(self, a: IntMatrix):
        f = smith_normal_form(a)
        assert abs(f.U.det()) == 1
        assert abs(f.V.det()) == 1
        d = f.U @ a @ f.V
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j:
                    assert d[i, j] == 0
        diag = f.diagonal()
        assert all(x >= 0 for x in diag)
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            # zeros may only trail nonzeros
            if diag[i] == 0:
                assert diag[i + 1] == 0

    def test_known_form(self):
        a = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert smith_normal_form(a).diagonal() == (2, 2, 156)

    def test_rectangular_and_zero(self):
        self.check(IntMatrix.from_rows([[0, 0], [0, 0], [0, 0]]))
        self.check(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    def test_random_matrices(self):
        rng = random.Random(3)
        for _ in range(100):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            a = IntMatrix.from_rows([[rng.randint(-20, 20) for _ in range(c)]
                                     for _ in range(r)])
            self.check(a)


class TestCompound:
    def test_degree_zero_and_full(self):
        a = IntMatrix.from_rows([[2, 15], [1, 2]])
        assert compound_matrix(a, 0) == IntMatrix.identity(1)
        assert compound_matrix(a, 2) == IntMatrix.from_rows([[-11]])

    def test_degree_one_is_matrix(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert compound_matrix(a, 1) == a

    def test_dimensions(self):
        a = IntMatrix.identity(5)
        for k in range(6):
            c = compound_matrix(a, k)
            assert c.rows == c.cols == binomial(5, k)
            assert c == IntMatrix.identity(binomial(5, k))

    @settings(max_examples=60)
    @given(square(4, -5, 5), square(4, -5, 5), st.integers(0, 4))
    def test_functorial(self, a, b, k):
        assert (compound_matrix(a @ b, k)
                == compound_matrix(a, k) @ compound_matrix(b, k))

    def test_determinant_power_law(self):
        # det of the k-compound of an n-matrix is det^C(n-1, k-1)
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(2, 4)
            a = rand_nonsingular(rng, n, -4, 4)
            for k in range(1, n + 1):
                assert (compound_matrix(a, k).det()
                        == a.det() ** binomial(n - 1, k - 1))


def sympy_minor_dets(a: IntMatrix, k: int) -> list[list[int]]:
    """Every k x k minor of a by sympy, in the lexicographic subset order."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    out = []
    for rs in itertools.combinations(range(a.rows), k):
        row = []
        for cs in itertools.combinations(range(a.cols), k):
            minor = [[sympy.ZZ(a[i, j]) for j in cs] for i in rs]
            row.append(int(DomainMatrix(minor, (k, k), sympy.ZZ).det()))
        out.append(row)
    return out


class TestCompoundAgainstSympy:
    def test_wide_entries(self):
        # entries of about 300 bits, the size the K-group towers reach
        rng = random.Random(13)
        for _ in range(3):
            a = IntMatrix.from_rows([[rng.randint(-2 ** 300, 2 ** 300)
                                      for _ in range(6)] for _ in range(6)])
            for k in range(1, 7):
                assert (compound_matrix(a, k)
                        == IntMatrix.from_rows(sympy_minor_dets(a, k))), k

    def test_sparse_minors_need_row_swaps(self):
        # mostly zeros: many minors have a zero leading entry, so the
        # elimination must swap rows inside them (or find them singular)
        rng = random.Random(17)
        for _ in range(12):
            n = rng.randint(3, 6)
            a = IntMatrix.from_rows([[rng.choice((0, 0, 0, 0, 1, -1, 3))
                                      for _ in range(n)] for _ in range(n)])
            for k in range(1, n + 1):
                assert (compound_matrix(a, k)
                        == IntMatrix.from_rows(sympy_minor_dets(a, k))), \
                    (a, k)


def rand_matrix(rng, rows, cols, entries=tuple(range(-9, 10))):
    return IntMatrix.from_rows([[rng.choice(entries) for _ in range(cols)]
                                for _ in range(rows)])


class TestCompoundMatrices:
    """compound_matrix at every order of one matrix."""

    def test_wide_entries_against_sympy(self):
        rng = random.Random(31)
        for _ in range(2):
            a = IntMatrix.from_rows([[rng.randint(-2 ** 300, 2 ** 300)
                                      for _ in range(6)] for _ in range(6)])
            for k in range(1, 7):
                assert (compound_matrix(a, k)
                        == IntMatrix.from_rows(sympy_minor_dets(a, k))), k

    def test_sylvester_franke(self):
        # det of the k-th compound of an n x n matrix is det^C(n-1, k-1),
        # 1 for k == 0, and 0 for k >= 1 when the matrix is singular
        rng = random.Random(37)
        for n in range(1, 8):
            for singular in (False, True):
                a = [list(row) for row in rand_matrix(rng, n, n).entries]
                if singular:
                    a[-1] = [2 * x for x in a[0]] if n > 1 else [0]
                a = IntMatrix.from_rows(a)
                assert a.det() == 0 or not singular
                for k in range(n + 1):
                    assert (compound_determinant(a.det(), n, k)
                            == compound_matrix(a, k).det()), (a, k)

    def test_sylvester_franke_range(self):
        with pytest.raises(ValueError):
            compound_determinant(5, 3, 4)
        with pytest.raises(ValueError):
            compound_determinant(5, 3, -1)


class TestBlockOperations:
    def test_kron_identity(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert a.kron(IntMatrix.identity(1)) == a

    def test_block_diag_det(self):
        rng = random.Random(5)
        a, b = rand_nonsingular(rng, 2), rand_nonsingular(rng, 3)
        assert a.block_diag(b).det() == a.det() * b.det()

    def test_kron_mixed_product(self):
        rng = random.Random(6)
        a, b = rand_nonsingular(rng, 2), rand_nonsingular(rng, 2)
        c, d = rand_nonsingular(rng, 3), rand_nonsingular(rng, 3)
        assert (a @ b).kron(c @ d) == a.kron(c) @ b.kron(d)
