"""Truncated formal power series over the integers and the named
generating functions used by the invariant computations.

A :class:`Series` stores exact integer coefficients c_0..c_N.  Binary
operations truncate to the smaller of the two orders, so no inexact
coefficient is ever produced.
"""

from __future__ import annotations

from functools import lru_cache

DEFAULT_ORDER = 64
MAX_ORDER = 512


class Series:
    """Coefficients c_0..c_N of a truncated power series, all exact ints."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = list(coeffs)
        if order is None:
            if not coeffs:
                raise ValueError("need at least one coefficient or an explicit order")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        coeffs = coeffs[: order + 1]
        coeffs += [0] * (order + 1 - len(coeffs))
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"coefficients must be ints, got {type(c).__name__}")
        self.coeffs = tuple(coeffs)
        self.order = order

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([1], order)

    def coeff(self, d: int) -> int:
        if not 0 <= d <= self.order:
            raise ValueError(f"degree {d} outside truncation order {self.order}")
        return self.coeffs[d]

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return Series(self.coeffs[: order + 1], order)

    def __add__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series([a + b for a, b in zip(self.coeffs, other.coeffs)], n)

    def __sub__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series([a - b for a, b in zip(self.coeffs, other.coeffs)], n)

    def __mul__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [0] * (n + 1)
        for i in range(n + 1):
            ai = a[i]
            if ai:
                for j in range(n + 1 - i):
                    out[i + j] += ai * b[j]
        return Series(out, n)

    def __pow__(self, k: int) -> "Series":
        if k < 0:
            return self.invert() ** (-k)
        result = Series.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def invert(self) -> "Series":
        """Multiplicative inverse; requires constant term +-1."""
        if self.coeffs[0] not in (1, -1):
            raise ValueError("series with constant term != +-1 is not invertible over Z")
        n = self.order
        a = self.coeffs
        u = a[0]  # +-1, its own inverse
        b = [0] * (n + 1)
        b[0] = u
        for d in range(1, n + 1):
            s = 0
            for i in range(1, d + 1):
                if a[i]:
                    s += a[i] * b[d - i]
            b[d] = -u * s
        return Series(b, n)

    def substitute_power(self, a: int) -> "Series":
        """The series in q^a: coefficient at a*j is c_j, others vanish."""
        if a < 1:
            raise ValueError("substitution exponent must be >= 1")
        out = [0] * (self.order + 1)
        j = 0
        while a * j <= self.order:
            out[a * j] = self.coeffs[j]
            j += 1
        return Series(out, self.order)

    def __eq__(self, other):
        return (
            isinstance(other, Series)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"Series([{head}{tail}], order={self.order})"


# ---------------------------------------------------------------------------
# named series


@lru_cache(maxsize=None)
def partition_series(order: int) -> Series:
    """Generating function of partition counts, as the Euler product."""
    c = [0] * (order + 1)
    c[0] = 1
    for i in range(1, order + 1):
        # multiply by 1/(1-q^i)
        for j in range(i, order + 1):
            c[j] += c[j - i]
    return Series(c, order)


@lru_cache(maxsize=None)
def multipartition_series(k: int, order: int) -> Series:
    """Counts of k-component multipartitions by total size (P^k)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return partition_series(order) ** k


@lru_cache(maxsize=None)
def class_regular_series(ell: int, order: int) -> Series:
    """Counts of partitions with no part divisible by ell: P / P(q^ell)."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    P = partition_series(order)
    return P * P.substitute_power(ell).invert()


@lru_cache(maxsize=None)
def divisor_series(order: int) -> Series:
    """Coefficient of q^d is the number of divisors of d (0 at d=0)."""
    c = [0] * (order + 1)
    for i in range(1, order + 1):
        for j in range(i, order + 1, i):
            c[j] += 1
    return Series(c, order)


@lru_cache(maxsize=None)
def class_regular_divisor_series(ell: int, order: int) -> Series:
    """Coefficient of q^d counts divisors of d not divisible by ell."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    c = [0] * (order + 1)
    for i in range(1, order + 1):
        if i % ell:
            for j in range(i, order + 1, i):
                c[j] += 1
    return Series(c, order)


def length_series(order: int) -> Series:
    """Total number of parts over all partitions of d, computed as P*T."""
    return partition_series(order) * divisor_series(order)


def class_regular_length_series(ell: int, order: int) -> Series:
    """Total parts over class-regular partitions, computed as P_ell * T_ell."""
    return class_regular_series(ell, order) * class_regular_divisor_series(ell, order)


def length_series_direct(order: int) -> Series:
    """Independent route to the total length counts.

    Counts, for every part value j and copy threshold m, the partitions of d
    containing at least m copies of j; removing those copies leaves an
    unconstrained partition of d - j*m.
    """
    p = partition_series(order).coeffs
    c = [0] * (order + 1)
    for j in range(1, order + 1):
        for m in range(1, order // j + 1):
            w = j * m
            for d in range(w, order + 1):
                c[d] += p[d - w]
    return Series(c, order)


def class_regular_length_series_direct(ell: int, order: int) -> Series:
    """Independent route to the class-regular total length counts."""
    p = class_regular_series(ell, order).coeffs
    c = [0] * (order + 1)
    for j in range(1, order + 1):
        if j % ell == 0:
            continue
        for m in range(1, order // j + 1):
            w = j * m
            for d in range(w, order + 1):
                c[d] += p[d - w]
    return Series(c, order)


@lru_cache(maxsize=None)
def core_count_series(ell: int, order: int) -> Series:
    """Number of ell-cores by size: P / P(q^ell)^ell."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    P = partition_series(order)
    return P * (P.substitute_power(ell).invert() ** ell)


def cartan_det_series(ell: int, order: int) -> Series:
    """Exponent of ell in the full Cartan determinant: P_ell * T(q^ell)."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    return class_regular_series(ell, order) * divisor_series(order).substitute_power(ell)


def block_det_series(ell: int, order: int) -> Series:
    """Exponent of ell in the weight-w block determinant: P^(ell-1) * T."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    return multipartition_series(ell - 1, order) * divisor_series(order)


@lru_cache(maxsize=None)
def invariant_multiplicity_series(ell: int, order: int) -> Series:
    """P_ell / P(q^ell): multiplicities of graded invariant factors."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    P = partition_series(order)
    return P * (P.substitute_power(ell).invert() ** 2)


_NAMED = {
    "P": lambda order, ell, k: partition_series(order),
    "P_ell": lambda order, ell, k: class_regular_series(ell, order),
    "T": lambda order, ell, k: divisor_series(order),
    "T_ell": lambda order, ell, k: class_regular_divisor_series(ell, order),
    "L": lambda order, ell, k: length_series(order),
    "L_ell": lambda order, ell, k: class_regular_length_series(ell, order),
    "D0_ell": lambda order, ell, k: core_count_series(ell, order),
    "C_ell": lambda order, ell, k: cartan_det_series(ell, order),
    "B_ell": lambda order, ell, k: block_det_series(ell, order),
    "P^k": lambda order, ell, k: multipartition_series(k, order),
}

_NEEDS_ELL = {"P_ell", "T_ell", "L_ell", "D0_ell", "C_ell", "B_ell"}


def named_series(name: str, order: int = DEFAULT_ORDER, ell: int | None = None,
                 k: int | None = None) -> Series:
    """Build one of the named generating functions at the given order."""
    if name not in _NAMED:
        raise ValueError(f"unknown series {name!r}; choose from {sorted(_NAMED)}")
    if name in _NEEDS_ELL and ell is None:
        raise ValueError(f"series {name!r} requires ell")
    if name == "P^k" and k is None:
        raise ValueError("series 'P^k' requires k")
    return _NAMED[name](order, ell, k)


def count_partitions(d: int) -> int:
    return partition_series(max(d, 0)).coeff(d)


def count_multipartitions(k: int, d: int) -> int:
    return multipartition_series(k, max(d, 0)).coeff(d)


def core_count(ell: int, n: int) -> int:
    return core_count_series(ell, max(n, 0)).coeff(n)


def multiplicity_m(ell: int, n: int, d: int) -> int:
    """Multiplicity of a degree-d graded invariant factor in the full matrix at n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0 <= d <= n // ell:
        raise ValueError(f"d must lie in 0..{n // ell}")
    return invariant_multiplicity_series(ell, n).coeff(n - ell * d)


# ---------------------------------------------------------------------------
# identity checks

IDENTITY_NAMES = (
    "LPT",
    "l-LPT",
    "L-dec",
    "T-split",
    "Cartan-det",
    "Cartan-reduction",
    "full-and-block",
    "block-det",
)


def check_identity(name: str, order: int = 60, ell: int | None = None,
                   a: int | None = None, b: int | None = None) -> bool:
    """Exact coefficientwise check of one named identity up to ``order``.

    Where a side of an identity coincides with the construction route of a
    named series, an independently computed series is substituted so the
    check cannot be vacuous.
    """
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds configured maximum {MAX_ORDER}")
    if name == "LPT":
        return length_series_direct(order) == partition_series(order) * divisor_series(order)
    if name == "Cartan-reduction":
        if a is None or b is None:
            raise ValueError("Cartan-reduction requires a and b")
        lhs = cartan_det_series(a * b, order)
        rhs = class_regular_series(a, order) * cartan_det_series(b, order).substitute_power(a)
        return lhs == rhs
    if ell is None:
        raise ValueError(f"identity {name!r} requires ell")
    P = partition_series(order)
    if name == "l-LPT":
        lhs = class_regular_length_series_direct(ell, order)
        return lhs == class_regular_series(ell, order) * class_regular_divisor_series(ell, order)
    if name == "L-dec":
        L = length_series(order)
        rhs = class_regular_series(ell, order) * L.substitute_power(ell) \
            + P.substitute_power(ell) * class_regular_length_series(ell, order)
        return L == rhs
    if name == "T-split":
        T = divisor_series(order)
        return T == T.substitute_power(ell) + class_regular_divisor_series(ell, order)
    if name == "Cartan-det":
        # full determinant assembled from the blocks: the block exponents are
        # graded by weight, so they enter at q^ell
        lhs = block_det_series(ell, order).substitute_power(ell) \
            * core_count_series(ell, order)
        return lhs == cartan_det_series(ell, order)
    if name == "full-and-block":
        # graded multiplicities of the full matrix as block counts times cores
        rhs = core_count_series(ell, order) \
            * multipartition_series(ell - 2, order).substitute_power(ell)
        return invariant_multiplicity_series(ell, order) == rhs
    if name == "block-det":
        lhs = multipartition_series(ell - 2, order) * length_series_direct(order)
        return lhs == block_det_series(ell, order)
    raise ValueError(f"unknown identity {name!r}; choose from {IDENTITY_NAMES}")
