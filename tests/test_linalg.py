import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from cartaninv.linalg import (
    Matrix,
    direct_sum,
    invariant_factors,
    smith_normal_form,
    symmetric_power,
)


def tridiagonal(n):
    return Matrix(
        [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
         for i in range(n)]
    )


def test_matrix_basics():
    m = Matrix([[1, 0], [1, 2]])
    assert m.rows == 2 and m.cols == 2
    assert m[(1, 1)] == 2
    assert m.is_integral()
    assert not Matrix([[Fraction(1, 2)]]).is_integral()
    # integral Fractions normalize to ints
    assert isinstance(Matrix([[Fraction(4, 2)]])[(0, 0)], int)
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(TypeError):
        Matrix([[1.5]])


def test_mul_and_shape_errors():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[1], [1]])
    assert (a * b).data == ((3,), (7,))
    with pytest.raises(ValueError):
        b * a
    with pytest.raises(ValueError):
        a + b


def test_det_and_inverse():
    assert tridiagonal(3).det() == 4
    inv = Matrix([[1, 0], [1, 2]]).inverse()
    assert inv == Matrix([[1, 0], [Fraction(-1, 2), Fraction(1, 2)]])
    with pytest.raises(ValueError):
        Matrix([[1, 1], [1, 1]]).inverse()
    # Bareiss and Fraction elimination agree
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 6)
        m = Matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        assert m.det() == m._det_fraction()


def test_kron_and_direct_sum():
    m = Matrix([[1, 2], [3, 4]])
    assert Matrix.identity(2).kron(m) == direct_sum([m, m])
    a = Matrix([[1, 2]])
    b = Matrix([[0, 1], [1, 0]])
    k = a.kron(b)
    assert k.rows == 2 and k.cols == 4
    assert k.data == ((0, 1, 0, 2), (1, 0, 2, 0))


def test_symmetric_power():
    y = Matrix([[2, -1], [-1, 2]])
    assert symmetric_power(y, 1) == y
    assert symmetric_power(y, 0) == Matrix([[1]])
    s2 = symmetric_power(y, 2)
    idx = list(combinations_with_replacement(range(2), 2))
    assert s2[(idx.index((0, 0)), idx.index((1, 1)))] == 1
    # dimension of the m-th power of a k x k matrix is C(k+m-1, m)
    assert symmetric_power(Matrix.identity(3), 3).rows == 10
    # diagonal input stays diagonal with product entries
    d = Matrix.diagonal([2, 3, 5])
    s = symmetric_power(d, 2)
    pairs = list(combinations_with_replacement(range(3), 2))
    for i, u in enumerate(pairs):
        for j, v in enumerate(pairs):
            expected = (d[(u[0], u[0])] * d[(u[1], u[1])]) if u == v else 0
            assert s[(i, j)] == expected


def test_symmetric_power_determinant():
    # induced-map determinant for a 2x2 seed is det^(m(m+1)/2)
    y = Matrix([[2, -1], [-1, 2]])
    for m in range(1, 5):
        assert symmetric_power(y, m).det() == 3 ** (m * (m + 1) // 2)


def test_snf_examples():
    assert invariant_factors(Matrix([[4, 0], [6, 16]])) == (2, 32)
    assert invariant_factors(Matrix.diagonal([2, 3])) == (1, 6)
    for ell in range(2, 9):
        chain = invariant_factors(tridiagonal(ell - 1))
        assert chain == (1,) * (ell - 2) + (ell,)
    with pytest.raises(ValueError):
        smith_normal_form(Matrix([[Fraction(1, 2)]]))


def test_snf_zero_and_rectangular():
    assert invariant_factors(Matrix([[0, 0], [0, 0]])) == (0, 0)
    assert invariant_factors(Matrix([[2, 4, 6]])) == (2,)
    assert invariant_factors(Matrix([[2], [3]])) == (1,)


def test_snf_rank_deficient():
    # rank-one outer product: one nonzero factor, the rest zero
    u, v = (2, 4, 6), (3, 5)
    m = Matrix([[a * b for b in v] for a in u])
    chain = _check_snf(m)
    assert sum(1 for x in chain if x) == 1
    with_zero_row = Matrix([[1, 2], [0, 0], [3, 4]])
    chain = _check_snf(with_zero_row)
    assert chain == (1, 2)


def test_snf_transpose_invariance():
    rng = random.Random(17)
    for _ in range(15):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = Matrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        assert invariant_factors(m) == invariant_factors(m.transpose())


def _check_snf(m):
    res = smith_normal_form(m, want_transforms=True)
    chain = res.invariant_factors
    # divisibility, nonnegativity, zeros last
    for a, b in zip(chain, chain[1:]):
        assert a >= 0 and b >= 0
        if b != 0:
            assert a != 0 and b % a == 0
    assert res.left.det() in (1, -1)
    assert res.right.det() in (1, -1)
    assert res.left * m * res.right == res.diagonal(m.rows, m.cols)
    return chain


def test_snf_randomized_transforms():
    rng = random.Random(2024)
    for _ in range(60):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = Matrix(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)])
        chain = _check_snf(m)
        if rows == cols:
            det = m.det()
            if det:
                prod = 1
                for x in chain:
                    prod *= x
                assert prod == abs(det)


def test_snf_permutation_invariance():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 6)
        m = Matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        rows = list(range(n))
        cols = list(range(n))
        rng.shuffle(rows)
        rng.shuffle(cols)
        permuted = Matrix([[m[(i, j)] for j in cols] for i in rows])
        assert invariant_factors(m) == invariant_factors(permuted)


def test_snf_large_entries():
    # arbitrary precision: no overflow anywhere
    big = 10 ** 30
    m = Matrix([[big, 1], [0, big]])
    chain = invariant_factors(m)
    assert chain == (1, big * big)


def test_snf_matches_sympy():
    # an independent oracle; the transform-carrying array must give the same
    # chain, including on non-square inputs where left and right differ in size
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors
    from sympy.polys.domains import ZZ

    rng = random.Random(31)
    deficient = 0
    for trial in range(90):
        rows = rng.randint(1, 7)
        cols = rows if trial % 3 == 0 else rng.randint(1, 7)
        m = Matrix([[rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)])
        if trial % 3 == 2 and min(rows, cols) > 1:
            rank = rng.randint(1, min(rows, cols) - 1)
            u = Matrix([[rng.randint(-5, 5) for _ in range(rank)] for _ in range(rows)])
            v = Matrix([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rank)])
            m = u * v
        expected = tuple(int(x) for x in sympy_factors(sympy.Matrix(m.data), domain=ZZ))
        assert invariant_factors(m) == expected
        assert smith_normal_form(m, want_transforms=True).invariant_factors == expected
        deficient += 0 in expected
    assert deficient >= 10
