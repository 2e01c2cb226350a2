"""Cartan-type block matrices over partitions and multipartitions, their
closed-form graded invariant factors, and the verification procedures that
compare the two.

The central construction conjugates a block-diagonal matrix attached to a
square seed matrix Y by the power-sum-to-monomial transition; the one-color
case (Y = [ell]) gives the matrix whose cokernel is the block Cartan group,
and Y = the type-A Lie Cartan matrix gives the multipartition-indexed
version with the same invariant factors as a weight-d block.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, reduce
from itertools import compress
from math import comb, factorial, gcd, prod
from types import MappingProxyType

from .linalg import Matrix, direct_sum, smith_normal_form, symmetric_power
from .partitions import (
    Partition,
    factorial_valuation,
    is_prime,
    partitions,
    prime_factorization,
    total_length,
    valuation,
)
from .series import (class_regular_series, count_multipartitions, count_partitions,
                     multiplicity_m, multipartition_series, partition_series,
                     regular_class_regular_series)
from .symfunc import transition_tensor

MAX_PARTITION_INDEX = 1000
MAX_MULTIPARTITION_INDEX = 3000


class SizeGuardError(RuntimeError):
    """Raised when a requested matrix index set exceeds its fixed bound."""


def _check_index(d: int, ell: int | None = None) -> None:
    """Reject, before any work, an ell below 2, a negative d, or an index past
    its bound: the partitions of d, or with ``ell`` the (ell-1)-multipartitions
    of d."""
    if ell is not None and ell < 2:
        raise ValueError("ell must be >= 2")
    if d < 0:
        raise ValueError("d must be >= 0")
    if ell is None:
        size, bound, what = count_partitions(d), MAX_PARTITION_INDEX, f"partition index for d={d}"
    else:
        size, bound = count_multipartitions(ell - 1, d), MAX_MULTIPARTITION_INDEX
        what = f"multipartition index for ell={ell}, d={d}"
    if size > bound:
        raise SizeGuardError(f"{what} has {size} labels, exceeding the bound {bound}")


# ---------------------------------------------------------------------------
# matrix builders


def lie_cartan_matrix(ell: int) -> Matrix:
    """Tridiagonal (ell-1) x (ell-1) matrix with 2 on and -1 off the diagonal."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    n = ell - 1
    return Matrix(
        [
            [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
            for i in range(n)
        ]
    )


def length_power_diagonal(ell: int, d: int) -> Matrix:
    """diag(ell^length(lam)) over the canonical partition order."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    return Matrix.diagonal([ell ** lam.length for lam in partitions(d)])


@lru_cache(maxsize=None)
def _seed_block(seed: Matrix, mults: tuple[int, ...]) -> tuple:
    """Rows of the block of B for a partition with part multiplicities
    ``mults`` in descending part order: the Kronecker product of the
    symmetric powers of the seed in them.  With that factor order the row
    labels coincide with the canonical multipartition order."""
    return reduce(Matrix.kron, (symmetric_power(seed, m) for m in mults), Matrix([[1]])).data


def _seed_blocks(seed: Matrix, d: int) -> list[tuple]:
    """The rows of each block of B, over the partitions of d in order."""
    return [_seed_block(seed, tuple(lam.multiplicities().values())) for lam in partitions(d)]


def tensor_diagonal_blocks(seed: Matrix, d: int) -> Matrix:
    """Block-diagonal matrix B of symmetric-power tensors over partitions of
    d, the direct sum of the blocks of :func:`_seed_blocks`."""
    return direct_sum(map(Matrix, _seed_blocks(seed, d)))


def _conjugated(seed: Matrix, d: int) -> Matrix:
    """The integral matrix X = T^-1 * B * T, with T the tensor transition and
    B the symmetric-power blocks of the seed, built with integers only.

    T is lower triangular with nonzero diagonal in the canonical order, so
    T * X = B * T is solved row by row by forward substitution; every
    division by T[i][i] must be exact, and a remainder means X is not
    integral, which is an upstream bug.  T, B and X are sparse, so the work
    runs over nonzeros only: row i of B * T sums B[i][m] times row m of T
    over the nonzero columns m of row i in its own block, so B is never
    assembled, and each X[j] with T[i][j] nonzero is subtracted over its
    own nonzero columns.  The column lists are local, not cached beside T,
    and share one list of column numbers.  Callers check the size guard first.
    """
    t = transition_tensor(seed.rows, d).matrix.data
    n = len(t)
    cols = list(range(n))
    t_nonzero = [list(compress(cols, row)) for row in t]
    b_rows: list[tuple[int, tuple]] = []
    for block in _seed_blocks(seed, d):
        start = len(b_rows)
        b_rows += [(start, b_row) for b_row in block]
    x_nonzero: list[list[int]] = []
    rows: list[list[int]] = []
    for i, (start, b_i) in enumerate(b_rows):
        # row i of B * T, less T[i][j] * X[j] for j < i, is T[i][i] * X[i]
        row = [0] * n
        for m in compress(cols, b_i):
            c, t_m = b_i[m], t[start + m]
            for j in t_nonzero[start + m]:
                row[j] += c * t_m[j]
        t_i = t[i]
        for j in t_nonzero[i]:
            if j < i:
                c, x_j = t_i[j], rows[j]
                for k in x_nonzero[j]:
                    row[k] -= c * x_j[k]
        pivot = t_i[i]
        nonzero = list(compress(cols, row))
        for k in nonzero:
            row[k], rem = divmod(row[k], pivot)
            if rem:
                raise ArithmeticError(f"conjugated matrix for d={d} is not integral; upstream bug")
        x_nonzero.append(nonzero)
        rows.append(row)
    return Matrix(rows)


def gram_matrix(ell: int, d: int) -> Matrix:
    """Integral matrix on degree-d symmetric functions scaling power sums by ell.

    Conjugate of diag(ell^length) by the p-to-m transition, built by an
    integer-only forward substitution; equal to the Gram matrix pairing
    monomials against complete homogeneous functions under the form with
    <p, p> = ell^length * centralizer order.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    _check_index(d)
    return _conjugated(Matrix([[ell]]), d)


def tensor_gram_matrix(ell: int, d: int) -> Matrix:
    """The analogue of :func:`gram_matrix` over the (ell-1)-multipartitions
    of d, for the seed equal to the type-A Lie Cartan matrix; its invariant
    factors are those of a weight-d block of the full Cartan matrix."""
    _check_index(d, ell)
    return _conjugated(lie_cartan_matrix(ell), d)


# ---------------------------------------------------------------------------
# independent Gram oracle (complete homogeneous route)


def _h_dict_mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(sorted(ka + kb, reverse=True))
            out[key] = out.get(key, 0) + va * vb
    return out


@lru_cache(maxsize=None)
def _scaled_h(n: int, ell: int) -> MappingProxyType:
    """h_n[ell X], the image of h_n under p_r -> ell * p_r, in the h basis.

    h_n[X_1 + ... + X_ell] is the sum of h_(i_1)...h_(i_ell) over the weak
    compositions of n into ell parts (Macdonald I.5), so h_kappa, for kappa
    with at most ell parts, has as coefficient the number of orderings of
    kappa padded with zeros to ell parts.  Read-only because the cache
    shares it.
    """
    out = {}
    for kappa in partitions(n):
        if kappa.length <= ell:
            orderings = factorial(ell) // factorial(ell - kappa.length)
            out[kappa.parts] = orderings // prod(
                map(factorial, kappa.multiplicities().values()))
    return MappingProxyType(out)


def gram_matrix_oracle(ell: int, d: int) -> Matrix:
    """Independent reconstruction of :func:`gram_matrix` for testing.

    Expands the image of each h_mu under p_r -> ell*p_r back in the h
    basis; the (lam, mu) entry is the coefficient of h_lam.  Shares no
    code with the monomial-basis route.
    """
    index = partitions(d)
    cols = []
    for mu in index:
        img = {(): 1}
        for part in mu.parts:
            img = _h_dict_mul(img, _scaled_h(part, ell))
        cols.append([img.get(lam.parts, 0) for lam in index])
    return Matrix(list(zip(*cols)))


# ---------------------------------------------------------------------------
# graded invariant factors and KOR numbers


class GradedInvariant(namedtuple("GradedInvariant", "value degree source")):
    """One closed-form invariant factor, remembering where it came from."""

    __slots__ = ()


def graded_invariants(ell: int, d: int) -> list[GradedInvariant]:
    """The degree-d graded invariant factors, one per partition of d."""
    return [
        GradedInvariant(value=graded_invariant(lam, ell), degree=d, source=lam)
        for lam in partitions(d)
    ]


def graded_invariant_prime_power(lam: Partition, p: int, r: int) -> int:
    """Closed-form invariant factor attached to ``lam`` at the prime power p^r:
    p^((r - v_p(n)) m_n + v_p(m_n!)) over parts n with multiplicity m_n and
    v_p(n) < r.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1:
        raise ValueError("r must be >= 1")
    exponent = 0
    for n, m in lam.multiplicities().items():  # parts and multiplicities are >= 1
        v = valuation(n, p)
        if v < r:
            exponent += (r - v) * m + factorial_valuation(m, p)
    return p ** exponent


def graded_invariant(lam: Partition, ell: int) -> int:
    """Product of the prime-power invariants over the factorization of ell."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    value = 1
    for p, r in prime_factorization(ell):
        value *= graded_invariant_prime_power(lam, p, r)
    return value


def kor_number(mu: Partition, ell: int) -> int:
    """Diagonal entry attached to an ell-class-regular partition.

    For each part value k with multiplicity m, writes f = floor(m / ell)
    and contributes (ell / gcd(ell, k))^f times, for every prime p of that
    quotient, the p-part of f!.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if not mu.is_class_regular(ell):
        raise ValueError(f"{mu!r} has a part divisible by {ell}")
    value = 1
    for k, m in mu.multiplicities().items():
        f = m // ell
        if f:
            ell_k = ell // gcd(ell, k)
            value *= ell_k ** f
            for p, _ in prime_factorization(ell_k):
                value *= p ** factorial_valuation(f, p)
    return value


# ---------------------------------------------------------------------------
# invariant multisets


class InvariantMultiset:
    """Multiset of positive integers with optional per-degree bookkeeping."""

    __slots__ = ("entries", "by_degree")

    def __init__(self, entries: dict[int, int],
                 by_degree: dict[int, dict[int, int]] | None = None):
        self.entries = entries
        self.by_degree = by_degree

    def total(self) -> int:
        return sum(self.entries.values())

    def __eq__(self, other):
        return isinstance(other, InvariantMultiset) and self.entries == other.entries


def _add_entry(entries: dict[int, int], value: int, mult: int):
    if mult:
        entries[value] = entries.get(value, 0) + mult


def _multiset_product(n: int, parts, value) -> list[dict[int, int]]:
    """Coefficients of q^0..q^n in prod_{k in parts} sum_m x^value(k, m) q^(k m),
    each a {value: count} dict.  Both closed forms multiply over part sizes,
    so value(k, m) is the closed form of the partition k^m."""
    coeffs: list[dict[int, int]] = [{} for _ in range(n + 1)]
    coeffs[0][1] = 1
    for k in parts:
        factor = [value(k, m) for m in range(1, n // k + 1)]
        # descending degrees, so coeffs[j - k*m] still lacks the factor
        for j in range(n, k - 1, -1):
            out = coeffs[j]
            for m, v in enumerate(factor[: j // k], start=1):
                for w, c in coeffs[j - k * m].items():
                    out[v * w] = out.get(v * w, 0) + c
    return coeffs


def _graded_multiset(ell: int, mults: list[int]) -> InvariantMultiset:
    """Graded invariant factors over the partitions of each degree d, with
    multiplicity mults[d]; recorded per degree too.  One product over part
    sizes gives every layer; layer d must count p(d) partitions."""
    top = len(mults) - 1
    layers = _multiset_product(top, range(1, top + 1),
                               lambda k, m: graded_invariant(Partition((k,) * m), ell))
    counts = partition_series(top).coeffs
    entries: dict[int, int] = {}
    by_degree: dict[int, dict[int, int]] = {}
    for d, (mult, layer) in enumerate(zip(mults, layers)):
        if sum(layer.values()) != counts[d]:
            raise ArithmeticError(f"graded layer {d} does not count the partitions of {d}")
        if mult:
            by_degree[d] = {v: c * mult for v, c in layer.items()}
            for v, c in by_degree[d].items():
                _add_entry(entries, v, c)
    return InvariantMultiset(entries=entries, by_degree=by_degree)


def block_invariants(ell: int, w: int) -> InvariantMultiset:
    """Graded invariant factors of a weight-w block, with multiplicities.

    Each partition of d <= w contributes its invariant with multiplicity
    equal to the number of (ell-2)-component multipartitions of w - d.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if w < 0:
        raise ValueError("w must be >= 0")
    return _graded_multiset(ell, list(multipartition_series(ell - 2, w).coeffs[::-1]))


def full_invariants(ell: int, n: int) -> InvariantMultiset:
    """Graded invariant factors of the full degree-n Cartan matrix."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    return _graded_multiset(
        ell, [multiplicity_m(ell, n, d) for d in range(n // ell + 1)])


def kor_invariants(ell: int, n: int) -> InvariantMultiset:
    """The multiset of KOR numbers over ell-class-regular partitions of n.

    It is the coefficient of q^n in prod_{ell∤k} sum_m x^kor(k, m // ell)
    q^(k m), each factor split as (1 + q^k + ... + q^((ell-1)k)) times
    sum_f x^kor(k, f) q^(ell k f): the first factors give R
    (:func:`regular_class_regular_series`), the second G(q^ell).  The counts
    must sum to the number of class-regular partitions of n.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    top = n // ell
    checks = _multiset_product(top, [k for k in range(1, top + 1) if k % ell],
                               lambda k, f: kor_number(Partition((k,) * (ell * f)), ell))
    hats = regular_class_regular_series(ell, n).coeffs
    entries: dict[int, int] = {}
    for a, layer in enumerate(checks):
        for v, c in layer.items():
            _add_entry(entries, v, hats[n - ell * a] * c)
    if sum(entries.values()) != class_regular_series(ell, n).coeff(n):
        raise ArithmeticError(f"KOR counts miss class-regular partitions of {n}")
    return InvariantMultiset(entries=entries)


def graded_to_snf(entries: dict[int, int]) -> tuple[int, ...]:
    """Invariant-factor chain of the diagonal matrix on which each value of
    the {value: multiplicity} mapping ``entries`` appears that many times.

    Each distinct value is factored once.  Per prime, the (valuation,
    multiplicity) pairs are sorted ascending and laid along the chain as
    runs, after the entries prime to it; the result divides along the chain
    and preserves both the product and every per-prime valuation multiset.
    """
    total = 0
    runs: dict[int, list[tuple[int, int]]] = {}
    for v, m in entries.items():
        if v < 1 or m < 0:
            raise ValueError("values must be positive and multiplicities non-negative")
        total += m
        if v > 1:
            for p, e in prime_factorization(v):
                runs.setdefault(p, []).append((e, m))
    chain = [1] * total
    for p, pairs in runs.items():
        start = total - sum(m for _, m in pairs)
        for e, m in sorted(pairs):
            power = p ** e
            chain[start:start + m] = [c * power for c in chain[start:start + m]]
            start += m
    return tuple(chain)


# ---------------------------------------------------------------------------
# verification procedures


class VerificationReport:
    """Outcome of one verification run.

    ``verified``/``refuted`` are reserved for claims that are theorems in
    the tested range; conjecture-range comparisons report
    ``unproven-match`` or ``unproven-mismatch`` instead.  Without a
    ``witness`` the report gets an empty dict of its own.
    """

    __slots__ = ("claim", "params", "status", "witness")

    def __init__(self, claim: str, params: dict, status: str, witness: dict | None = None):
        self.claim = claim
        self.params = params
        self.status = status
        self.witness = {} if witness is None else witness


def _exponent_bounds(ell: int, d: int) -> dict[int, int]:
    """{p: r*d + v_p(d!) for p^r exactly dividing ell}, the ``bounds`` of
    :func:`smith_normal_form` for a degree-d X = T^-1 * B * T of seed [ell]
    or the Lie Cartan matrix, since ell^d * d! annihilates coker X.
    d! * T^-1 is integral: prod m_i(lam)! * m_lam is an integer combination
    of power sums (Macdonald I.6, Moebius inversion on set partitions), and
    a tensor T is Kronecker products of one-color ones of total degree d.
    ell^d * B^-1 is integral: both seeds have determinant ell, and the block
    of lam is symmetric powers of the seed of total degree length(lam) <= d.
    It equals the closed-form invariant at lam = (1^d) without using it.
    Its keys are every prime of |det X| = ell^E (:func:`_det_exponent`).
    """
    return {p: r * d + factorial_valuation(d, p) for p, r in prime_factorization(ell)}


def _det_exponent(k: int, d: int) -> int:
    """E with |det X| = |det A|^E for the degree-d X = T^-1 * B * T of a
    k x k seed A, from the partitions of d alone.

    T * X = B * T is solved exactly, so det X = det B, the product of the
    blocks' determinants.  The block of lam is the Kronecker product of
    Sym^m(A) over the part multiplicities m of lam; Sym^m(A) has dimension
    C(m+k-1, k-1) and determinant det(A)^C(m+k-1, k), that is det(A) to
    m/k times its dimension, and det(F x G) = det(F)^dim G * det(G)^dim F.
    So the block contributes length(lam) * dim / k, an integer, and E(1, d)
    is the total length of the partitions of d.
    """
    return sum(lam.length * prod(comb(m + k - 1, k - 1) for m in lam.multiplicities().values())
               for lam in partitions(d)) // k


def _invariant_factors(x: Matrix, ell: int, d: int, k: int = 1) -> tuple[int, ...]:
    """The Smith chain of the degree-d X of a k x k seed of determinant ell,
    [ell] (k = 1) or the Lie Cartan matrix (k = ell - 1), at |det X| =
    ell^E(k, d) and the proven bounds; for k = 1 also of its B =
    diag(ell^length), which has the same |det| and is annihilated by ell^d."""
    return smith_normal_form(x, det=ell ** _det_exponent(k, d),
                             bounds=_exponent_bounds(ell, d)).invariant_factors


def verify_snf_conjecture(ell: int, d: int) -> VerificationReport:
    """Compare the computed invariant factors with the closed-form chain.

    Status is ``verified``/``refuted`` only for prime powers p^r with
    r <= p; other moduli are conjecture range and report ``unproven-*``.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    factorization = prime_factorization(ell)
    x = gram_matrix(ell, d)
    computed = _invariant_factors(x, ell, d)
    predicted = graded_to_snf(_graded_multiset(ell, [0] * d + [1]).entries)
    theorem = len(factorization) == 1 and factorization[0][1] <= factorization[0][0]
    match = computed == predicted
    if theorem:
        status = "verified" if match else "refuted"
    else:
        status = "unproven-match" if match else "unproven-mismatch"
    return VerificationReport(
        claim="snf-closed-form",
        params={"ell": ell, "d": d},
        status=status,
        witness={"computed": computed, "predicted": predicted},
    )


def verify_splitting(a: int, b: int, d: int) -> VerificationReport:
    """Check the product factorization of the one-color matrices.

    The matrix identity holds for any a, b >= 2; when a and b are coprime
    the invariant-factor chains multiply positionwise as well.
    """
    if a < 2 or b < 2:
        raise ValueError("a and b must be >= 2")
    xa = gram_matrix(a, d)
    xb = gram_matrix(b, d)
    xab = gram_matrix(a * b, d)
    ok = xab == xa * xb
    witness: dict = {"matrix_identity": ok}
    if gcd(a, b) == 1:
        sa = _invariant_factors(xa, a, d)
        sb = _invariant_factors(xb, b, d)
        sab = _invariant_factors(xab, a * b, d)
        product = tuple(x * y for x, y in zip(sa, sb))
        witness["snf_product"] = product
        witness["snf_computed"] = sab
        ok = ok and product == sab
    else:
        witness["snf_product"] = None
    return VerificationReport(
        claim="splitting",
        params={"a": a, "b": b, "d": d},
        status="verified" if ok else "refuted",
        witness=witness,
    )


def _seed_transforms(ell: int) -> tuple[Matrix, Matrix]:
    """Smith transforms U, V of the seed A = lie_cartan_matrix(ell), in closed
    form: U * A * V = diag(1, ..., 1, ell) and det U = det V = (-1)^ell.

    With n = ell - 1 and x = (1, ..., n), A * x = ell * e_n, so V is the
    identity's columns e_2, ..., e_n followed by x.  The top n - 1 rows of
    A * V are [L | 0] with L = -(I - N)^2 and N the lower shift, so the top
    rows of U are [L^-1 | 0], L^-1[i][j] = -(i - j + 1) for j <= i; the last
    row of U, (ell - 1 - j for j < n - 1) and then 1, clears row n of A * V
    down to ell in its last column.
    """
    n = ell - 1
    v = [[int(i == j + 1) for j in range(n - 1)] + [i + 1] for i in range(n)]
    u = [[j - i - 1 if j <= i else 0 for j in range(n)] for i in range(n - 1)]
    u.append([ell - 1 - j for j in range(n - 1)] + [1])
    return Matrix(u), Matrix(v)


def verify_reduction(ell: int, d: int) -> VerificationReport:
    """Check that the multipartition matrix reduces to the one-color data.

    Compares invariant factors of the tensor matrix with those of the
    block-diagonal reference, the direct sum over s <= d of
    gram_matrix(ell, s) repeated once per (ell-2)-multipartition of d - s.
    Multiplies out the closed-form Smith transforms U, V of the seed
    (:func:`_seed_transforms`) and checks that their symmetric-power tensor
    blocks are unimodular: the determinant of the blocks of U is
    det(U)^E(ell - 1, d) (:func:`_det_exponent`), so no block is built.
    The elementary divisors of a direct sum are the union of its blocks',
    so the reference chain is merged per prime (:func:`graded_to_snf`) from
    the small blocks' invariant factors.
    """
    computed = _invariant_factors(tensor_gram_matrix(ell, d), ell, d, ell - 1)
    mults = multipartition_series(ell - 2, d).coeffs
    divisors: dict[int, int] = {}
    for s in range(d + 1):
        if mults[d - s]:
            for f in _invariant_factors(gram_matrix(ell, s), ell, s):
                _add_entry(divisors, f, mults[d - s])
    reference = graded_to_snf(divisors)
    u, v = _seed_transforms(ell)
    smith = u * lie_cartan_matrix(ell) * v == Matrix.diagonal([1] * (ell - 2) + [ell])
    e = _det_exponent(ell - 1, d)
    det_u, det_v = u.det() ** e, v.det() ** e
    unimodular = abs(det_u) == 1 and abs(det_v) == 1
    ok = computed == reference and smith and unimodular
    return VerificationReport(
        claim="reduction",
        params={"ell": ell, "d": d},
        status="verified" if ok else "refuted",
        witness={
            "computed": computed,
            "reference": reference,
            "det_left": det_u,
            "det_right": det_v,
        },
    )


def _counting_lemma_sides(ell: int, n: int) -> tuple[list[int], list[int]]:
    """Both sides of the counting lemma for check parts of size a, at index a."""
    top = n // ell
    hats = regular_class_regular_series(ell, n).coeffs
    p = partition_series(top).coeffs
    lhs = [hats[n - ell * a] for a in range(top + 1)]
    rhs = [sum(p[j] * multiplicity_m(ell, n, a + ell * j)
               for j in range((top - a) // ell + 1))
           for a in range(top + 1)]
    return lhs, rhs


def verify_kor_multiset(ell: int, n: int) -> VerificationReport:
    """Multiset equality of KOR numbers with graded invariant factors,
    plus the supporting count: for every class-regular alpha, the number
    of mu with check part alpha equals the multiplicity-weighted number of
    lam whose class-regular head is alpha.

    Those mu are hat + ell * alpha with hat ell-regular and ell-class-
    regular, R(n - ell |alpha|) of them.  Those lam are alpha + ell * beta,
    beta a partition of j, weighing sum_j p(j) multiplicity_m(ell, n,
    |alpha| + ell j).  Both sides depend on alpha only through |alpha|, and
    come from independent series: R as a product over part sizes, the
    other from P and P_ell / P(q^ell).
    """
    kor = kor_invariants(ell, n)
    graded = full_invariants(ell, n)
    multiset_ok = kor == graded
    lhs, rhs = _counting_lemma_sides(ell, n)
    counting_ok = lhs == rhs
    ok = multiset_ok and counting_ok
    return VerificationReport(
        claim="kor-multiset",
        params={"ell": ell, "n": n},
        status="verified" if ok else "refuted",
        witness={
            "kor": dict(sorted(kor.entries.items())),
            "graded": dict(sorted(graded.entries.items())),
            "counting_lemma": counting_ok,
        },
    )


def verify_determinants(ell: int, d_max: int,
                        matrix_d_max: int | None = None) -> VerificationReport:
    """Determinant identities for the one-color matrices.

    The product of the graded invariant factors over partitions of d, layer
    d of one graded multiset, must equal ell^(total length) for every d <=
    d_max.  Matrix determinants are checked against the same power for d
    up to ``matrix_d_max`` (default: d_max), which may be lowered since the
    closed form is far cheaper than a matrix build.  A negative d_max, which
    checks nothing, is rejected, and the largest matrix is size-guarded
    before any work.
    """
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    matrix_d_max = d_max if matrix_d_max is None else min(d_max, matrix_d_max)
    if matrix_d_max >= 0:
        _check_index(matrix_d_max)
    layers = _graded_multiset(ell, [1] * (d_max + 1)).by_degree
    failures = []
    details = {}
    for d in range(d_max + 1):
        expected = ell ** total_length(d)
        product = prod(v ** c for v, c in layers[d].items())
        entry = {"expected": expected, "theta_product": product}
        if product != expected:
            failures.append(d)
        if d <= matrix_d_max:
            det = gram_matrix(ell, d).det()
            entry["det"] = det
            if det != expected:
                failures.append(d)
        details[d] = entry
    return VerificationReport(
        claim="determinants",
        params={"ell": ell, "d_max": d_max},
        status="verified" if not failures else "refuted",
        witness={"failures": sorted(set(failures)), "by_degree": details},
    )
