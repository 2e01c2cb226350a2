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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd
from types import MappingProxyType

from .linalg import Matrix, direct_sum, smith_normal_form, symmetric_power
from .partitions import (
    Partition,
    centralizer_order,
    class_regular_partitions,
    factorial_valuation,
    is_prime,
    partitions,
    prime_factorization,
    regular_split,
    total_length,
    valuation,
)
from .series import count_multipartitions, multiplicity_m
from .symfunc import transition_tensor

MAX_PARTITION_INDEX = 1000
MAX_MULTIPARTITION_INDEX = 3000


class SizeGuardError(RuntimeError):
    """Raised when a requested matrix index set exceeds its fixed bound."""


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


def tensor_diagonal_blocks(seed: Matrix, d: int) -> Matrix:
    """Block-diagonal matrix of symmetric-power tensors over partitions of d.

    The block for a partition is the Kronecker product, over distinct part
    values in descending order, of the symmetric powers of the seed in the
    part multiplicities; with that factor order the row labels coincide
    with the canonical multipartition order.
    """
    blocks = []
    for lam in partitions(d):
        mults = lam.multiplicities()
        block = None
        for r in sorted(mults, reverse=True):
            factor = symmetric_power(seed, mults[r])
            block = factor if block is None else block.kron(factor)
        blocks.append(block if block is not None else Matrix([[1]]))
    return direct_sum(blocks)


def _conjugated(seed: Matrix, d: int, bound: int, what: str) -> Matrix:
    """The integral matrix X = T^-1 * B * T, with T the tensor transition and
    B the symmetric-power blocks of the seed, built with integers only.

    T is lower triangular with nonzero diagonal in the canonical order, so
    T * X = B * T is solved row by row by forward substitution; every
    division by T[i][i] must be exact, and a remainder means X is not
    integral, which is an upstream bug.  An index of more than ``bound``
    labels raises :class:`SizeGuardError` before any work.
    """
    k = seed.rows
    size = count_multipartitions(k, d)
    if size > bound:
        raise SizeGuardError(f"{what} has {size} labels, exceeding the bound {bound}")
    t = transition_tensor(k, d).matrix.data
    b = tensor_diagonal_blocks(seed, d).data
    n = len(t)
    x: list[list[int]] = []
    for i in range(n):
        # row i of B * T, less T[i][j] * X[j] for j < i, is T[i][i] * X[i]
        row = [0] * n
        for m, c in enumerate(b[i]):
            if c:
                row = [r + c * v for r, v in zip(row, t[m])]
        for j in range(i):
            c = t[i][j]
            if c:
                row = [r - c * v for r, v in zip(row, x[j])]
        pivot = t[i][i]
        solved = []
        for v in row:
            q, rem = divmod(v, pivot)
            if rem:
                raise ArithmeticError(
                    f"conjugated matrix for {what} is not integral; upstream bug"
                )
            solved.append(q)
        x.append(solved)
    return Matrix(x)


def gram_matrix(ell: int, d: int) -> Matrix:
    """Integral matrix on degree-d symmetric functions scaling power sums by ell.

    Conjugate of diag(ell^length) by the p-to-m transition, built by an
    integer-only forward substitution; equal to the Gram matrix pairing
    monomials against complete homogeneous functions under the form with
    <p, p> = ell^length * centralizer order.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    return _conjugated(Matrix([[ell]]), d, MAX_PARTITION_INDEX,
                       f"partition index for d={d}")


def tensor_gram_matrix(ell: int, d: int) -> Matrix:
    """Multipartition-indexed analogue of :func:`gram_matrix` for the seed
    equal to the type-A Lie Cartan matrix; its invariant factors are those
    of a weight-d block of the full Cartan matrix."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    return _conjugated(lie_cartan_matrix(ell), d, MAX_MULTIPARTITION_INDEX,
                       f"multipartition index for ell={ell}, d={d}")


# ---------------------------------------------------------------------------
# independent Gram oracle (complete homogeneous route)


@lru_cache(maxsize=None)
def _power_in_h(n: int) -> MappingProxyType:
    """Power sum p_n expanded over products of complete homogeneous h's,
    via the Newton recursion n*h_n = sum_i p_i h_(n-i); read-only because
    the cache shares it."""
    out: dict[tuple[int, ...], Fraction] = {(n,): Fraction(n)}
    for i in range(1, n):
        for key, c in _power_in_h(n - i).items():
            new = tuple(sorted(key + (i,), reverse=True))
            out[new] = out.get(new, Fraction(0)) - c
    return MappingProxyType({k: v for k, v in out.items() if v})


def _h_dict_mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], Fraction] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(sorted(ka + kb, reverse=True))
            out[key] = out.get(key, Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def _scaled_h(n: int, ell: int) -> MappingProxyType:
    """Image of h_n under the ring map p_r -> ell * p_r, in the h basis;
    read-only because the cache shares it."""
    out: dict[tuple[int, ...], Fraction] = {}
    for kappa in partitions(n):
        coeff = Fraction(ell ** kappa.length, centralizer_order(kappa))
        term = {(): Fraction(1)}
        for part in kappa.parts:
            term = _h_dict_mul(term, _power_in_h(part))
        for key, c in term.items():
            out[key] = out.get(key, Fraction(0)) + coeff * c
    return MappingProxyType({k: v for k, v in out.items() if v})


def gram_matrix_oracle(ell: int, d: int) -> Matrix:
    """Independent reconstruction of :func:`gram_matrix` for testing.

    Expands the image of each h_mu under p_r -> ell*p_r back in the h
    basis; the (lam, mu) entry is the coefficient of h_lam.  Shares no
    code with the monomial-basis route.
    """
    index = partitions(d)
    cols = []
    for mu in index:
        img = {(): Fraction(1)}
        for part in mu.parts:
            img = _h_dict_mul(img, _scaled_h(part, ell))
        cols.append([img.get(lam.parts, Fraction(0)) for lam in index])
    entries = [[cols[j][i] for j in range(len(index))] for i in range(len(index))]
    m = Matrix(entries)
    if not m.is_integral():
        raise ArithmeticError("oracle produced non-integral entries")
    return m


# ---------------------------------------------------------------------------
# graded invariant factors and KOR numbers


@dataclass(frozen=True)
class GradedInvariant:
    """One closed-form invariant factor, remembering where it came from."""

    value: int
    degree: int
    source: Partition


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
    for n, m in lam.multiplicities().items():
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


@dataclass
class InvariantMultiset:
    """Multiset of positive integers with optional per-degree bookkeeping."""

    entries: dict[int, int]
    by_degree: dict[int, dict[int, int]] | None = None

    def total(self) -> int:
        return sum(self.entries.values())

    def max_value(self) -> int:
        return max(self.entries) if self.entries else 1

    def sorted_items(self, descending: bool = True) -> list[tuple[int, int]]:
        return sorted(self.entries.items(), key=lambda kv: kv[0], reverse=descending)

    def __eq__(self, other):
        return isinstance(other, InvariantMultiset) and self.entries == other.entries


def _add_entry(entries: dict[int, int], value: int, mult: int):
    if mult:
        entries[value] = entries.get(value, 0) + mult


def _graded_multiset(ell: int, degree_mults) -> InvariantMultiset:
    """Graded invariant factors over the partitions of each degree d, with
    multiplicity mult, for the (d, mult) pairs given; recorded per degree too."""
    entries: dict[int, int] = {}
    by_degree: dict[int, dict[int, int]] = {}
    for d, mult in degree_mults:
        if not mult:
            continue
        layer: dict[int, int] = {}
        for lam in partitions(d):
            value = graded_invariant(lam, ell)
            _add_entry(entries, value, mult)
            _add_entry(layer, value, mult)
        by_degree[d] = layer
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
    return _graded_multiset(
        ell, ((d, count_multipartitions(ell - 2, w - d)) for d in range(w + 1)))


def full_invariants(ell: int, n: int) -> InvariantMultiset:
    """Graded invariant factors of the full degree-n Cartan matrix."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    return _graded_multiset(
        ell, ((d, multiplicity_m(ell, n, d)) for d in range(n // ell + 1)))


def kor_invariants(ell: int, n: int) -> InvariantMultiset:
    """The multiset of KOR numbers over ell-class-regular partitions of n."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    entries: dict[int, int] = {}
    for mu in class_regular_partitions(n, ell):
        _add_entry(entries, kor_number(mu, ell), 1)
    return InvariantMultiset(entries=entries)


def graded_to_snf(multiset) -> tuple[int, ...]:
    """Invariant-factor chain of the diagonal matrix with the given entries.

    Per prime, the valuations of all entries are sorted ascending and the
    sorted sequences are recombined positionwise; the result divides along
    the chain and preserves both the product and every per-prime valuation
    multiset.
    """
    if isinstance(multiset, InvariantMultiset):
        items = multiset.entries.items()
    elif isinstance(multiset, dict):
        items = multiset.items()
    else:
        items = [(v, 1) for v in multiset]
    values = []
    for v, m in items:
        if v < 1:
            raise ValueError("entries must be positive")
        values.extend([v] * m)
    total = len(values)
    primes = set()
    for v in values:
        if v > 1:
            primes.update(p for p, _ in prime_factorization(v))
    chain = [1] * total
    for p in sorted(primes):
        vals = sorted(valuation(v, p) for v in values)
        for i, e in enumerate(vals):
            chain[i] *= p ** e
    return tuple(chain)


# ---------------------------------------------------------------------------
# verification procedures


@dataclass
class VerificationReport:
    """Outcome of one verification run.

    ``verified``/``refuted`` are reserved for claims that are theorems in
    the tested range; conjecture-range comparisons report
    ``unproven-match`` or ``unproven-mismatch`` instead.
    """

    claim: str
    params: dict
    status: str
    witness: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in ("verified", "unproven-match")


def verify_snf_conjecture(ell: int, d: int) -> VerificationReport:
    """Compare the computed invariant factors with the closed-form chain.

    Status is ``verified``/``refuted`` only for prime powers p^r with
    r <= p; other moduli are conjecture range and report ``unproven-*``.
    """
    x = gram_matrix(ell, d)
    computed = smith_normal_form(x).invariant_factors
    predicted = graded_to_snf([g.value for g in graded_invariants(ell, d)])
    factorization = prime_factorization(ell)
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
        sa = smith_normal_form(xa).invariant_factors
        sb = smith_normal_form(xb).invariant_factors
        sab = smith_normal_form(xab).invariant_factors
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


def _reduction_reference(ell: int, d: int) -> Matrix:
    """Direct sum of identity-tensored one-color matrices, weight by weight."""
    blocks = []
    for s in range(d + 1):
        mult = count_multipartitions(ell - 2, d - s)
        if not mult:
            continue
        xs = gram_matrix(ell, s)
        blocks.append(Matrix.identity(mult).kron(xs))
    return direct_sum(blocks)


def verify_reduction(ell: int, d: int) -> VerificationReport:
    """Check that the multipartition matrix reduces to the one-color data.

    Compares invariant factors of the tensor matrix with those of the
    block-diagonal reference, and checks that the conjugated symmetric
    powers of the Smith transforms of the seed are unimodular.
    """
    xa = tensor_gram_matrix(ell, d)
    computed = smith_normal_form(xa).invariant_factors
    reference = smith_normal_form(_reduction_reference(ell, d)).invariant_factors
    seed = lie_cartan_matrix(ell)
    snf_seed = smith_normal_form(seed, want_transforms=True)
    det_u = tensor_diagonal_blocks(snf_seed.left, d).det()
    det_v = tensor_diagonal_blocks(snf_seed.right, d).det()
    unimodular = abs(det_u) == 1 and abs(det_v) == 1
    ok = computed == reference and unimodular
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


def _class_regular_head(lam: Partition, ell: int) -> Partition:
    """The ell-class-regular part of lam = head + ell * rest."""
    return Partition([p for p in lam.parts if p % ell])


def verify_kor_multiset(ell: int, n: int) -> VerificationReport:
    """Multiset equality of KOR numbers with graded invariant factors,
    plus the supporting count: for every class-regular alpha, the number
    of mu with check part alpha equals the multiplicity-weighted number of
    lam whose class-regular head is alpha."""
    kor = kor_invariants(ell, n)
    graded = full_invariants(ell, n)
    multiset_ok = kor == graded
    lhs: dict[tuple[int, ...], int] = {}
    for mu in class_regular_partitions(n, ell):
        _, check = regular_split(mu, ell)
        lhs[check.parts] = lhs.get(check.parts, 0) + 1
    rhs: dict[tuple[int, ...], int] = {}
    for d in range(n // ell + 1):
        mult = multiplicity_m(ell, n, d)
        if not mult:
            continue
        for lam in partitions(d):
            head = _class_regular_head(lam, ell)
            rhs[head.parts] = rhs.get(head.parts, 0) + mult
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

    The product of the graded invariant factors over partitions of d must
    equal ell^(total length) for every d <= d_max.  Matrix determinants
    are checked against the same power for d up to ``matrix_d_max``
    (default: d_max), which may be lowered since the closed form is far
    cheaper than a matrix build.  A negative d_max checks nothing and is
    rejected rather than reported as verified.
    """
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    if matrix_d_max is None:
        matrix_d_max = d_max
    failures = []
    details = {}
    for d in range(d_max + 1):
        ld = total_length(d)
        expected = ell ** ld
        product = 1
        for lam in partitions(d):
            product *= graded_invariant(lam, ell)
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
