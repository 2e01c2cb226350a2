"""Partition combinatorics, an integer Smith normal form, dict-expansion
transition and symmetric-power builders, and small helpers that only the
tests use.

No command reaches these: the closed forms come from products over part
sizes and q-series, not from enumerating partitions, the package's Smith
normal form works one prime at a time on square nonsingular input, and the
package builds transitions and symmetric powers from cached operator
tables.  They stay here as independent checks on those routes.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import prod
from types import MappingProxyType

from cartaninv.linalg import Matrix
from cartaninv.partitions import Partition, factorial_valuation, is_prime, multipartitions
from cartaninv.series import Series


def partition_defect(lam: Partition, p: int) -> int:
    """Sum of :func:`factorial_valuation` over the part multiplicities."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return sum(factorial_valuation(m, p) for m in lam.multiplicities().values())


def adic_decomposition(lam: Partition, base: int) -> list[Partition]:
    """Split ``lam`` into base-class-regular layers.

    A part ``n = base^i * n'`` with ``base`` not dividing ``n'`` contributes
    the part ``n'`` to layer ``i``.  ``recompose`` inverts the construction.
    """
    if base < 2:
        raise ValueError("base must be >= 2")
    layers: dict[int, list[int]] = {}
    for n in lam.parts:
        i = 0
        while n % base == 0:
            n //= base
            i += 1
        layers.setdefault(i, []).append(n)
    top = max(layers) if layers else 0
    return [
        Partition(sorted(layers.get(i, ()), reverse=True)) for i in range(top + 1)
    ]


def recompose(layers, base: int) -> Partition:
    """Rebuild a partition from its layers: part n in layer i gives base^i * n."""
    if base < 2:
        raise ValueError("base must be >= 2")
    parts = []
    for i, layer in enumerate(layers):
        scale = base ** i
        parts.extend(scale * n for n in layer.parts)
    return Partition(sorted(parts, reverse=True))


def regular_split(mu: Partition, ell: int) -> tuple[Partition, Partition]:
    """Split a class-regular ``mu`` as hat + ell * check on multiplicities.

    The hat part keeps each multiplicity reduced mod ``ell`` (so it is both
    ell-regular and ell-class-regular); the check part collects the
    quotients and stays ell-class-regular.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if not mu.is_class_regular(ell):
        raise ValueError(f"{mu!r} has a part divisible by {ell}")
    hat, check = [], []
    for r, m in mu.multiplicities().items():
        hat.extend([r] * (m % ell))
        check.extend([r] * (m // ell))
    return (
        Partition(sorted(hat, reverse=True)),
        Partition(sorted(check, reverse=True)),
    )


def repeat_parts(lam: Partition, times: int) -> Partition:
    """Multiply every part multiplicity by ``times``."""
    if times < 1:
        raise ValueError("times must be >= 1")
    parts = []
    for p in lam.parts:
        parts.extend([p] * times)
    return Partition(sorted(parts, reverse=True))


def glaisher(lam: Partition, ell: int) -> Partition:
    """Classical multiplicity-expansion bijection onto regular partitions.

    Each multiplicity is written in base ``ell``; the digit at ell^i of the
    multiplicity of k becomes the multiplicity of the part ell^i * k.  The
    map sends ell-class-regular partitions bijectively onto ell-regular
    ones, preserving size.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if not lam.is_class_regular(ell):
        raise ValueError(f"{lam!r} has a part divisible by {ell}")
    parts = []
    for k, m in lam.multiplicities().items():
        scale = 1
        while m:
            m, digit = divmod(m, ell)
            parts.extend([scale * k] * digit)
            scale *= ell
    return Partition(sorted(parts, reverse=True))


def core(lam: Partition, ell: int) -> Partition:
    """The ell-core, computed on first-column hook lengths.

    Beads are pushed down within their residue class mod ``ell``, which is
    equivalent to removing rim hooks of length ``ell`` until none remains
    and is independent of removal order.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    n = lam.length
    if n == 0:
        return Partition()
    beta = [lam.parts[i] + (n - 1 - i) for i in range(n)]
    counts = [0] * ell
    for b in beta:
        counts[b % ell] += 1
    new_beta = []
    for r, c in enumerate(counts):
        new_beta.extend(r + ell * j for j in range(c))
    new_beta.sort(reverse=True)
    parts = []
    for i, b in enumerate(new_beta):
        part = b - (n - 1 - i)
        if part > 0:
            parts.append(part)
    return Partition(parts)


def degree_vector(mp: tuple[Partition, ...]) -> tuple[int, ...]:
    """The sizes of the components of a multipartition."""
    return tuple(c.size for c in mp)


def transpose(m: Matrix) -> Matrix:
    """The transpose of a matrix."""
    return Matrix(list(zip(*m.data)))


def snf_diagonal(invariant_factors, rows: int, cols: int) -> Matrix:
    """The rows x cols matrix with the invariant factors down its diagonal."""
    out = [[0] * cols for _ in range(rows)]
    for i, d in enumerate(invariant_factors):
        out[i][i] = d
    return Matrix(out)


def truncate(series: Series, order: int) -> Series:
    """The coefficients c_0..c_order of a series, as a series of that order."""
    if order > series.order:
        raise ValueError("cannot extend a truncated series")
    return Series(series.coeffs[: order + 1], order)


def max_value(multiset) -> int:
    """The largest entry of an :class:`InvariantMultiset`, 1 when empty."""
    return max(multiset.entries) if multiset.entries else 1


@dataclass
class IntegerSnf:
    """Invariant factors d_1 | d_2 | ... plus optional unimodular transforms.

    When transforms are requested, left * input * right equals the diagonal
    matrix of the invariant factors and both transforms have determinant +-1.
    """

    invariant_factors: tuple[int, ...]
    left: Matrix | None = None
    right: Matrix | None = None


def integer_snf(mat: Matrix, want_transforms: bool = False) -> IntegerSnf:
    """Smith normal form over Z, for any shape, with optional transforms.

    Pivots are chosen as the nonzero entry of minimal absolute value in the
    remaining submatrix; rows and columns are reduced with floor division,
    and before each pivot is finalized every remaining entry is forced to be
    divisible by it, so the diagonal comes out as a divisibility chain
    directly.  Entry growth is handled by arbitrary-precision ints.

    For an n x m input A the working array is A itself, or with
    ``want_transforms`` the augmented ``[[A, I_n], [I_m, 0]]``.  Row
    operations act on whole rows, so columns m.. of the first n rows carry
    ``left``; column operations walk every row, so rows n.. carry
    ``right``.  Pivot search and reduction read only the n x m block of A.
    """
    if not mat.is_integral():
        raise ValueError("integer_snf requires an integral matrix")
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
        return IntegerSnf(tuple(factors))
    return IntegerSnf(tuple(factors), left=Matrix([row[m:] for row in a[:n]]),
                      right=Matrix([row[:m] for row in a[n:]]))


def multiply_power_sum(support, r: int) -> dict:
    """Multiply a monomial-basis expansion, a {mu: coefficient} dict, by the
    degree-r power sum.

    Adding r either extends a monomial shape by a new part r (growing the
    sentinel part 0) or grows one distinct part value v to v + r; the
    multiplicity of the grown part in the result counts the ways the same
    shape arises.  The grown part moves from the first position i of v to
    the position j found by a backward scan over the larger parts, and its
    multiplicity is one more than the run of parts equal to v + r before j.
    """
    out: dict[tuple[int, ...], int] = {}
    for mu, c in support.items():
        values = mu + (0,)
        for i, v in enumerate(values):
            if i and values[i - 1] == v:
                continue
            w = v + r
            j = i
            while j and mu[j - 1] < w:
                j -= 1
            k = j
            while k and mu[k - 1] == w:
                k -= 1
            nu = mu[:j] + (w,) + mu[j:i] + mu[i + 1:]
            out[nu] = out.get(nu, 0) + c * (j - k + 1)
    return out


@lru_cache(maxsize=None)
def power_sum_support(parts: tuple[int, ...]) -> MappingProxyType:
    """Monomial expansion of the power sum p_parts, by the recurrence
    p_parts = p_parts[:-1] * p_parts[-1], each prefix expanded once."""
    if not parts:
        return MappingProxyType({(): 1})
    return MappingProxyType(multiply_power_sum(power_sum_support(parts[:-1]), parts[-1]))


def transition_by_support(k: int, d: int) -> Matrix:
    """The tensor transition over the k-multipartitions of d (k = 1: the
    p-to-m transition): entry (i, j) is the product over colors of the
    coefficient of m_mu_j in p_lam_i, read off the prefix-dict expansions."""
    keys = [tuple(comp.parts for comp in mp) for mp in multipartitions(k, d)]
    return Matrix([[prod(power_sum_support(lam).get(mu, 0) for lam, mu in zip(row, col))
                    for col in keys] for row in keys])


def symmetric_power_by_expansion(y: Matrix, m: int) -> Matrix:
    """The m-th symmetric power of a square matrix, each row expanded as a
    {monomial: coefficient} dict, one linear form sum_j y[t][j] x_j at a
    time, over weakly increasing m-tuples in lexicographic order."""
    k = y.rows
    index = list(combinations_with_replacement(range(k), m))
    rows = []
    for u in index:
        poly = {(): 1}
        for t in u:
            nxt: dict[tuple, int] = {}
            for v, c in poly.items():
                for j, y_tj in enumerate(y.data[t]):
                    if y_tj:
                        w = tuple(sorted(v + (j,)))
                        nxt[w] = nxt.get(w, 0) + c * y_tj
            poly = nxt
        rows.append([poly.get(v, 0) for v in index])
    return Matrix(rows)
