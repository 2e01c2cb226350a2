"""Dense exact linear algebra over arbitrary-precision integers.

Entries are Python ints, except the :class:`fractions.Fraction` entries that
:meth:`Matrix.inverse` returns; nothing here ever touches floating point,
and no machine-word bound is assumed anywhere.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import namedtuple
from functools import lru_cache

from .partitions import valuation
from .series import _pack


def _norm(x):
    """Collapse integral Fractions to plain ints.  ``fractions`` is imported
    only by :meth:`Matrix.inverse`; until some module imports it, no
    Fraction exists, so it is looked up rather than imported here."""
    if isinstance(x, int):
        return x
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(x, fractions.Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"matrix entries must be int or Fraction, got {type(x).__name__}")


def _diagonal_blocks(rows) -> list[tuple[int, int]]:
    """The finest cut of a square array into contiguous diagonal blocks with
    only zeros above them, as (start, stop) pairs, in one O(n^2) scan: a
    block closes at row i once no row so far reaches past column i."""
    blocks, start, end = [], 0, 0
    for i, row in enumerate(rows):
        # the reach: 1 + the last nonzero column at or past lo, else lo
        lo = max(end, i + 1)
        last = itertools.compress(range(len(row) - 1, lo - 1, -1), reversed(row))
        end = 1 + next(last, lo - 1)
        if end == i + 1:
            blocks.append((start, end))
            start = end
    return blocks


def _bareiss(m: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination (Bareiss) on the square array m,
    which it overwrites; returns the determinant."""
    n = len(m)
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


class Matrix:
    """Immutable dense matrix of ints, since cached transitions share theirs;
    only :meth:`inverse` makes one with rational entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        data = tuple(row if {int}.issuperset(map(type, row)) else tuple(map(_norm, row))
                     for row in map(tuple, data))
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and column")
        cols = len(data[0])
        if any(len(row) != cols for row in data):
            raise ValueError("rows must all have the same length")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, *args):
        raise AttributeError("Matrix is immutable")

    __delattr__ = __setattr__

    @classmethod
    def diagonal(cls, entries) -> "Matrix":
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def is_integral(self) -> bool:
        """Every entry is an int (``bool`` included); one C-level scan per
        row, by exact type first and by ``isinstance`` only if that fails."""
        return all({int}.issuperset(map(type, row))
                   or all(map(isinstance, row, itertools.repeat(int)))
                   for row in self.data)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.data]!r})"

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

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; index pairs flatten row-major, (i, k) -> i*rows2 + k."""
        return Matrix([[a * b for a in ra for b in rb] for ra in self.data for rb in other.data])

    def det(self) -> int:
        """Exact determinant of an integral matrix.

        The matrix is cut into its finest contiguous diagonal blocks with
        only zeros above them (:func:`_diagonal_blocks`), and the
        determinant is the product of the blocks' Bareiss determinants; a
        dense matrix is one block.
        """
        if not self.is_square():
            raise ValueError("determinant requires a square matrix")
        if not self.is_integral():
            raise ValueError("determinant requires an integral matrix")
        rows = self.data
        det = 1
        for start, stop in _diagonal_blocks(rows):
            det *= _bareiss([list(row[start:stop]) for row in rows[start:stop]])
            if not det:
                break
        return det

    def inverse(self) -> "Matrix":
        """Exact inverse via Gauss-Jordan elimination over the rationals."""
        from fractions import Fraction

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
    cols, start, out = sum(m.cols for m in matrices), 0, []
    for m in matrices:
        out += [(0,) * start + row + (0,) * (cols - start - m.cols) for row in m.data]
        start += m.cols
    return Matrix(out)


@lru_cache(maxsize=None)
def _grow_index(k: int, m: int) -> tuple:
    """For each weakly increasing (m-1)-tuple v from 0..k-1, in
    lexicographic order, the positions of sorted(v + (j,)) among the m-tuples
    for j = 0..k-1: multiplication of a monomial x^v by x_j."""
    pos = {u: i for i, u in enumerate(itertools.combinations_with_replacement(range(k), m))}
    return tuple(tuple(pos[tuple(sorted(v + (j,)))] for j in range(k))
                 for v in itertools.combinations_with_replacement(range(k), m - 1))


@lru_cache(maxsize=None)
def _symmetric_power_rows(y: tuple, m: int) -> tuple:
    """Rows of the m-th symmetric power of the square rows ``y``.  Row u is
    row u[:-1] of the (m-1)-th power, a polynomial, times the linear form of
    row y[u[-1]], through :func:`_grow_index`; u runs over the extensions of
    each (m-1)-tuple v by t >= v[-1], which is lexicographic order."""
    if not m:
        return ((1,),)
    k = len(y)
    prev, grow, n = _symmetric_power_rows(y, m - 1), _grow_index(k, m), math.comb(m + k - 1, m)
    rows = []
    for v, p_v in zip(itertools.combinations_with_replacement(range(k), m - 1), prev):
        for t in range(v[-1] if v else 0, k):
            row = [0] * n
            for c, up in itertools.compress(zip(p_v, grow), p_v):
                for j, y_j in itertools.compress(zip(up, y[t]), y[t]):
                    row[j] += c * y_j
            rows.append(tuple(row))
    return tuple(rows)


def symmetric_power(y: Matrix, m: int) -> Matrix:
    """The m-th symmetric power of a k x k matrix.

    Rows and columns are indexed by weakly increasing m-tuples from 1..k in
    lexicographic order.  The row for the tuple u holds the coefficients,
    on monomials x^v, of the product over t of the linear forms
    sum_j y[u_t][j] x_j; it is the matrix of the induced map on degree-m
    polynomials.  Rows are built one factor at a time and cached per
    (rows of y, m) (:func:`_symmetric_power_rows`).
    """
    if not y.is_square():
        raise ValueError("symmetric_power requires a square matrix")
    if m < 0:
        raise ValueError("m must be >= 0")
    return Matrix(_symmetric_power_rows(y.data, m))


class SnfResult(namedtuple("SnfResult", "invariant_factors")):
    """Invariant factors d_1 | d_2 | ..., the Smith normal form's diagonal."""

    __slots__ = ()


def _two_adic_exponents(rows, k: int) -> tuple[list[int], int]:
    """:func:`_local_exponents` at p = 2 on rows packed into one int each
    (:func:`series._pack`), in slots of at least 2k + 2 bits; returns the
    exponents and the number of rows left unpivoted.

    Every slot holds its entry mod q = 2^k, the low k bits that ``mask``
    keeps.  A unit is a set bit of ``r & low``, where ``low`` sets bit 0 of
    every slot.  The pivot row, times the pivot's inverse, has a 1 in the
    pivot column, so a row with c there becomes (r + (q - c) * prow) & mask,
    one multiply, add and mask, as no slot reaches 2^(2k+1); the column is
    then zero in every row left and is never removed.  With no unit every
    slot is even, so ``r >> 1`` halves them all, and the mask narrows.
    """
    width = (2 * k + 9) // 8  # bytes, so 8 * width >= 2k + 2 bits
    low = _pack([1] * len(rows[0]), width)
    q, shift, exps = 1 << k, 0, []
    mask = low * (q - 1)
    a = [_pack([x % q for x in row], width) for row in rows]
    while a and q > 1:
        i = next((i for i, r in enumerate(a) if r & low), None)
        if i is None:
            a = [r >> 1 for r in a]
            q >>= 1
            mask = low * (q - 1)
            shift += 1
            continue
        prow = a.pop(i)
        unit = prow & low
        at = (unit & -unit).bit_length() - 1
        prow = prow * pow(prow >> at & q - 1, -1, q) & mask
        exps.append(shift)
        for j, r in enumerate(a):
            c = r >> at & q - 1
            if c:
                a[j] = (r + (q - c) * prow) & mask
    return exps, len(a)


def _list_exponents(rows, p: int, k: int) -> tuple[list[int], int]:
    """:func:`_local_exponents` on rows kept as lists of entries mod p^k,
    from which each pivot column is popped; returns the exponents and the
    number of rows left unpivoted.  Any p works; odd p is sent here."""
    q, shift, exps = p ** k, 0, []
    a = [[x % q for x in row] for row in rows]
    while a and q > 1:
        unit = next(((i, j) for i, row in enumerate(a)
                     for j, x in enumerate(row) if x % p), None)
        if unit is None:
            a = [[x // p for x in row] for row in a]
            q //= p
            shift += 1
            continue
        i, j = unit
        prow = a.pop(i)
        inv = pow(prow.pop(j), -1, q)
        prow = [x * inv % q for x in prow]
        exps.append(shift)
        schur = []
        for row in a:
            c = row.pop(j)
            schur.append([(x - c * y) % q for x, y in zip(row, prow)] if c else row)
        a = schur
    return exps, len(a)


def _local_exponents(rows, p: int, k: int) -> list[int]:
    """Exponents of the prime ``p`` in the invariant factors of a nonsingular
    square matrix, ascending, by one elimination over Z/p^k.

    Any entry not divisible by p is a unit pivot: its row is scaled by the
    inverse and the rest becomes the Schur complement, so the pivot records
    the current shift.  A block with no unit is p times a block known to
    one digit less, so it is divided by p and the shift grows by one.  A
    block still left once the precision is used up has every factor
    divisible by p^k, an ``ArithmeticError``.  At p = 2 each row is one
    packed int (:func:`_two_adic_exponents`), at odd p a list
    (:func:`_list_exponents`).
    """
    exps, left = _two_adic_exponents(rows, k) if p == 2 else _list_exponents(rows, p, k)
    if left:
        raise ArithmeticError(f"{left} invariant factors are divisible by {p}^{k}")
    return exps


def smith_normal_form(mat: Matrix, *, det, bounds) -> SnfResult:
    """Smith normal form of a square nonsingular integral matrix, per prime.

    ``det`` is D = |det mat|, which the caller supplies; the builders know
    it in closed form (``invariants._det_exponent``), so no determinant is
    computed here.  ``bounds`` maps each prime p of D to a non-negative int
    e no less than p's exponent in the largest factor.  One elimination
    over Z/p^k, k = min(v_p(D), e) + 1, gives the exponents of p
    (:func:`_local_exponents`), which must sum to v_p(D); D must have no
    prime outside ``bounds``.  So a ``det`` whose exponent is wrong at a
    prime of ``bounds``, or that has any other prime, fails; a prime of the
    true |det| missing from both goes unseen, which is why ``det`` must be
    proven.  A failed check, or a bound set too low, is an
    ``ArithmeticError``; a rectangular input, a ``det`` below 1, or a bad
    bound, a ``ValueError``.  The factors are the per-prime chains' products.
    """
    if not mat.is_integral():
        raise ValueError("smith_normal_form requires an integral matrix")
    if not (mat.is_square() and isinstance(det, int) and det >= 1):
        raise ValueError(f"det= and bounds= take a square nonsingular matrix and its |det| >= 1,"
                         f" not a {mat.rows}x{mat.cols} matrix and det={det!r}")
    rest = det
    factors = [1] * mat.rows
    for p, e in bounds.items():
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"the bound {e!r} at {p} is not a non-negative int")
        v = valuation(rest, p)
        rest //= p ** v
        exps = _local_exponents(mat.data, p, min(v, e) + 1)
        if sum(exps) != v:
            raise ArithmeticError(
                f"the exponents {exps} of {p} do not sum to v_{p}(|det|) = {v}")
        factors = [f * p ** x for f, x in zip(factors, exps)]
    if rest != 1:
        raise ArithmeticError(f"|det| has the factor {rest} outside the primes {[*bounds]}")
    return SnfResult(tuple(factors))
