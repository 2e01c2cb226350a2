"""Dense exact linear algebra over arbitrary-precision integers and rationals.

Entries are Python ints or :class:`fractions.Fraction`; nothing here ever
touches floating point, and no machine-word bound is assumed anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction


def _norm(x):
    """Collapse integral Fractions to plain ints."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return x
    if isinstance(x, int):
        return x
    raise TypeError(f"matrix entries must be int or Fraction, got {type(x).__name__}")


class Matrix:
    """Immutable dense matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        data = tuple(tuple(_norm(x) for x in row) for row in data)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and column")
        cols = len(data[0])
        if any(len(row) != cols for row in data):
            raise ValueError("rows must all have the same length")
        self.data = data
        self.rows = len(data)
        self.cols = cols

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries) -> "Matrix":
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def is_integral(self) -> bool:
        return all(isinstance(x, int) for row in self.data for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for ra, rb in zip(self.data, other.data) for a, b in zip(ra, rb))
        )

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.data]!r})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)]
        )

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        bt = list(zip(*other.data))
        return Matrix(
            [
                [sum(a * b for a, b in zip(row, col)) for col in bt]
                for row in self.data
            ]
        )

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.data)))

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; index pairs flatten row-major, (i, k) -> i*rows2 + k."""
        rb, cb = other.rows, other.cols
        out = []
        for i in range(self.rows):
            for k in range(rb):
                out.append(
                    [
                        self.data[i][j] * other.data[k][l]
                        for j in range(self.cols)
                        for l in range(cb)
                    ]
                )
        return Matrix(out)

    def det(self):
        """Exact determinant (int for integral matrices, Fraction otherwise)."""
        if not self.is_square():
            raise ValueError("determinant requires a square matrix")
        if self.is_integral():
            return self._det_bareiss()
        return self._det_fraction()

    def _det_bareiss(self) -> int:
        n = self.rows
        m = [list(row) for row in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def _det_fraction(self):
        n = self.rows
        m = [[Fraction(x) for x in row] for row in self.data]
        det = Fraction(1)
        for c in range(n):
            piv = next((r for r in range(c, n) if m[r][c]), None)
            if piv is None:
                return Fraction(0)
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                det = -det
            det *= m[c][c]
            inv = 1 / m[c][c]
            for r in range(c + 1, n):
                if m[r][c]:
                    f = m[r][c] * inv
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]
        return det

    def inverse(self) -> "Matrix":
        """Exact inverse via Gauss-Jordan elimination over the rationals."""
        if not self.is_square():
            raise ValueError("inverse requires a square matrix")
        n = self.rows
        m = [
            [Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
            for i, row in enumerate(self.data)
        ]
        for c in range(n):
            piv = next((r for r in range(c, n) if m[r][c]), None)
            if piv is None:
                raise ValueError("matrix is singular")
            m[c], m[piv] = m[piv], m[c]
            inv = 1 / m[c][c]
            m[c] = [x * inv for x in m[c]]
            for r in range(n):
                if r != c and m[r][c]:
                    f = m[r][c]
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]
        return Matrix([row[n:] for row in m])


def direct_sum(matrices) -> Matrix:
    """Block-diagonal assembly of the given matrices, in order."""
    matrices = list(matrices)
    if not matrices:
        raise ValueError("direct_sum of nothing is empty")
    rows = sum(m.rows for m in matrices)
    cols = sum(m.cols for m in matrices)
    out = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in matrices:
        for i in range(m.rows):
            row = m.data[i]
            for j in range(m.cols):
                out[r0 + i][c0 + j] = row[j]
        r0 += m.rows
        c0 += m.cols
    return Matrix(out)


def symmetric_power(y: Matrix, m: int) -> Matrix:
    """The m-th symmetric power of a k x k matrix.

    Rows and columns are indexed by weakly increasing m-tuples from 1..k in
    lexicographic order.  The row for the tuple u holds the coefficients,
    on monomials x^v, of the product over t of the linear forms
    sum_j y[u_t][j] x_j.  For tuples without repeated entries this is the
    plain product y[u_1][v_1] ... y[u_m][v_m] summed over the matchings of
    equal column indices; it is the matrix of the induced map on degree-m
    polynomials.
    """
    if not y.is_square():
        raise ValueError("symmetric_power requires a square matrix")
    if m < 0:
        raise ValueError("m must be >= 0")
    k = y.rows
    index = list(itertools.combinations_with_replacement(range(k), m))
    rows = []
    for u in index:
        poly = {(): 1}
        for t in u:
            nxt: dict[tuple, object] = {}
            row_t = y.data[t]
            for v, c in poly.items():
                for j in range(k):
                    if row_t[j]:
                        w = tuple(sorted(v + (j,)))
                        nxt[w] = nxt.get(w, 0) + c * row_t[j]
            poly = nxt
        rows.append([poly.get(v, 0) for v in index])
    return Matrix(rows)


@dataclass
class SnfResult:
    """Invariant factors d_1 | d_2 | ... plus optional unimodular transforms.

    When transforms are requested, left * input * right equals the diagonal
    matrix of the invariant factors and both transforms have determinant +-1.
    """

    invariant_factors: tuple[int, ...]
    left: Matrix | None = None
    right: Matrix | None = None

    def diagonal(self, rows: int | None = None, cols: int | None = None) -> Matrix:
        n = len(self.invariant_factors)
        rows = n if rows is None else rows
        cols = n if cols is None else cols
        out = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(self.invariant_factors):
            out[i][i] = d
        return Matrix(out)


def smith_normal_form(mat: Matrix, want_transforms: bool = False) -> SnfResult:
    """Smith normal form of an integral matrix.

    Pivots are chosen as the nonzero entry of minimal absolute value in the
    remaining submatrix; rows and columns are reduced with floor division,
    and before each pivot is finalized every remaining entry is forced to
    be divisible by it, so the diagonal comes out as a divisibility chain
    directly.  Entry growth is handled by arbitrary-precision ints.

    For an n x m input A the working array is A itself, or with
    ``want_transforms`` the augmented ``[[A, I_n], [I_m, 0]]``.  Row
    operations act on whole rows, so columns m.. of the first n rows carry
    ``left``; column operations walk every row, so rows n.. carry
    ``right``.  Pivot search and reduction read only the n x m block of A.
    """
    if not mat.is_integral():
        raise ValueError("smith_normal_form requires an integral matrix")
    n, m = mat.rows, mat.cols
    a = [list(row) for row in mat.data]
    if want_transforms:
        a = [row + [int(i == k) for k in range(n)] for i, row in enumerate(a)]
        a += [[int(j == k) for k in range(m)] + [0] * n for j in range(m)]

    factors = []
    for t in range(min(n, m)):
        best = None
        for i in range(t, n):
            for j in range(t, m):
                v = a[i][j]
                if v and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        r, c = best  # the row and column to swap into position t
        while True:
            if r != t:
                a[t], a[r] = a[r], a[t]
            if c != t:
                for row in a:
                    row[t], row[c] = row[c], row[t]
            r = c = t
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            p = a[t][t]
            for i in range(t + 1, n):
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if a[i][t]:
                    # remainder is smaller than the pivot; promote it
                    r = i
                    break
            if r != t:
                continue
            for j in range(t + 1, m):
                q = a[t][j] // p
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                if a[t][j]:
                    c = j
                    break
            if c != t:
                continue
            bad = next((i for i in range(t + 1, n)
                        if any(x % p for x in a[i][t + 1:m])), None)
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
        factors.append(a[t][t])
    factors.extend([0] * (min(n, m) - len(factors)))
    if not want_transforms:
        return SnfResult(tuple(factors))
    return SnfResult(tuple(factors), left=Matrix([row[m:] for row in a[:n]]),
                     right=Matrix([row[:m] for row in a[n:]]))


def invariant_factors(mat: Matrix) -> tuple[int, ...]:
    """Shorthand for the invariant-factor chain alone."""
    return smith_normal_form(mat).invariant_factors
