"""Truncated formal power series over the integers and the named
generating functions used by the invariant computations.

A :class:`Series` stores exact integer coefficients c_0..c_N.  Binary
operations truncate to the smaller of the two orders, so no inexact
coefficient is ever produced.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, repeat
from math import gcd
from operator import mul
from struct import unpack

DEFAULT_ORDER = 64
MAX_ORDER = 512


def _halves(count: int, width: int) -> int:
    """Half a slot, 2^(8 width - 1), in each of ``count`` slots of
    ``width`` bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(coeffs, width: int) -> int:
    """Kronecker packing: the int sum of c_i 2^(8 width i) over the
    coefficients, for |c_i| < 2^(8 width - 1).  Each slot is written as
    c_i plus half a slot, which is non-negative, and the halves are then
    taken off the whole int."""
    half = 1 << (8 * width - 1)
    slots = map(int.to_bytes, map(half.__add__, coeffs), repeat(width), repeat("little"))
    return int.from_bytes(b"".join(slots), "little") - _halves(len(coeffs), width)


def _unpack(x: int, count: int, width: int) -> list[int]:
    """The signed values of the low ``count`` slots of a packed int whose
    slot values lie strictly between -2^(8 width - 1) and 2^(8 width - 1);
    the slots above them are ignored.  Half a slot is added to each slot,
    so every slot holds a non-negative value, and one ``struct.unpack``
    call splits the low bytes into the slots."""
    size = count * width
    low = (x + _halves(count, width)) & ((1 << 8 * size) - 1)
    slots = unpack(f"{width}s" * count, low.to_bytes(size, "little"))
    minus_half = -(1 << (8 * width - 1))
    return list(map(minus_half.__add__, map(int.from_bytes, slots, repeat("little"))))


def _stride(coeffs) -> int:
    """The largest s such that every nonzero coefficient sits at a degree
    divisible by s, so the series is f(q^s); ``len(coeffs)`` when only the
    constant term can be nonzero.  Stops at the first gcd of 1."""
    s = 0
    for d in compress(range(len(coeffs)), coeffs):
        s = gcd(s, d)
        if s == 1:
            return 1
    return s or len(coeffs)


class Series:
    """Coefficients c_0..c_N of a truncated power series, all exact ints;
    immutable, because the named series are cached and shared."""

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
        for kind in set(map(type, coeffs)):
            if not issubclass(kind, int):
                raise TypeError(f"coefficients must be ints, got {kind.__name__}")
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "order", order)

    def __setattr__(self, *args):
        raise AttributeError("Series is immutable")

    __delattr__ = __setattr__

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([1], order)

    def coeff(self, d: int) -> int:
        if not 0 <= d <= self.order:
            raise ValueError(f"degree {d} outside truncation order {self.order}")
        return self.coeffs[d]

    def __add__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series([a + b for a, b in zip(self.coeffs, other.coeffs)], n)

    def __mul__(self, other: "Series") -> "Series":
        """Truncated product by Kronecker substitution (Harvey 2009): each
        operand is packed into one signed int, one slot per coefficient, and
        the int product is read back from its low n+1 slots.

        A product coefficient c_k, k <= n, is at most
        min(sum|a| max|b|, max|a| sum|b|) in absolute value, and the slots
        are wide enough for that bound; the slots above n may overflow, but
        carries only move up, so the low n+1 slots are exact.  When one
        operand is f(q^s) with s >= 2, only the other one is packed, and the
        int product is the sum over j of f_j times that packed int shifted
        up by s j slots, which skips the zero coefficients of f(q^s)."""
        n = min(self.order, other.order)
        a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]
        abs_a, abs_b = list(map(abs, a)), list(map(abs, b))
        bound = min(sum(abs_a) * max(abs_b), max(abs_a) * sum(abs_b))
        if not bound:
            return Series([], n)
        width = (bound.bit_length() + 8) // 8  # bound < 2^(8 width - 1)
        stride_a, stride_b = _stride(a), _stride(b)
        if stride_a > stride_b:
            a, b, stride_b = b, a, stride_a
        packed = _pack(a, width)
        if stride_b > 1:
            f = b[::stride_b]
            step = 8 * width * stride_b
            shifts = range(0, step * len(f), step)
            product = sum(map(int.__mul__, compress(f, f),
                              map(packed.__lshift__, compress(shifts, f))))
        else:
            product = packed * (packed if b is a else _pack(b, width))
        return Series(_unpack(product, n + 1, width), n)

    def __pow__(self, k: int) -> "Series":
        if k < 0:
            return self.invert() ** (-k)
        if not k:
            return Series.one(self.order)
        result = None  # the lowest set bit of k starts it, not the unit series
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

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

    def substitute_power(self, a: int, order: int | None = None) -> "Series":
        """The series in q^a up to q^order (default: this series' order):
        coefficient at a*j is c_j, others vanish.  Only c_0..c_(order//a)
        are read, so a caller builds the inner series to order // a; a
        series shorter than that raises ``ValueError``."""
        if a < 1:
            raise ValueError("substitution exponent must be >= 1")
        if order is None:
            order = self.order
        if order // a > self.order:
            raise ValueError("cannot extend a truncated series")
        out = [0] * (order + 1)
        out[::a] = self.coeffs[: order // a + 1]
        return Series(out, order)

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
    """Counts of k-component multipartitions by total size (P^k), from the
    cached lower powers: P^(k-1) * P for odd k and (P^(k/2))^2 for even k.
    The chain k -> k-1 or k/2 is walked down to k < 2 and the powers on it
    are built in ascending order, each from the one cached before it, so no
    call recurses more than one level at any k.  A k not yet built takes as
    many products as binary powering, and the powers it passes through stay
    cached for the next k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    chain = [k]
    while chain[-1] >= 2:
        chain.append(chain[-1] - 1 if chain[-1] % 2 else chain[-1] // 2)
    for j in reversed(chain):
        power = _power_of_p(j, order)
    return power


@lru_cache(maxsize=None)
def _power_of_p(k: int, order: int) -> Series:
    """P^k from P^(k-1) or P^(k/2), which the caller has built first."""
    if k < 2:
        return partition_series(order) ** k
    if k % 2:
        return _power_of_p(k - 1, order) * partition_series(order)
    half = _power_of_p(k // 2, order)
    return half * half


@lru_cache(maxsize=None)
def euler_series(order: int) -> Series:
    """1/P, the product of 1 - q^i, by Euler's pentagonal number theorem:
    the sum over k >= 0 of (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2)), with the
    term at k = 0 taken once."""
    c = [0] * (order + 1)
    c[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 <= order:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e <= order:
                c[e] = (-1) ** k
        k += 1
    return Series(c, order)


def _over_partition_power(ell: int, k: int, order: int) -> Series:
    """P / P(q^ell)^k, with (1/P)^k built only to order // ell."""
    inner = euler_series(order // ell) ** k
    return partition_series(order) * inner.substitute_power(ell, order)


@lru_cache(maxsize=None)
def class_regular_series(ell: int, order: int) -> Series:
    """Counts of partitions with no part divisible by ell: P / P(q^ell)."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return _over_partition_power(ell, 1, order)


def regular_class_regular_series(ell: int, order: int) -> Series:
    """Counts of partitions both ell-regular and ell-class-regular, as the
    product over ell not dividing k of 1 + q^k + ... + q^((ell-1)k)."""
    c = [1] + [0] * order
    for k in range(1, order + 1):
        if k % ell:
            for j in range(k, order + 1):  # times 1 / (1 - q^k)
                c[j] += c[j - k]
            for j in range(order, ell * k - 1, -1):  # times 1 - q^(ell k)
                c[j] -= c[j - ell * k]
    return Series(c, order)


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


@lru_cache(maxsize=None)
def length_series(order: int) -> Series:
    """Total number of parts over all partitions of d, computed as P*T."""
    return partition_series(order) * divisor_series(order)


@lru_cache(maxsize=None)
def class_regular_length_series(ell: int, order: int) -> Series:
    """Total parts over class-regular partitions, computed as P_ell * T_ell."""
    return class_regular_series(ell, order) * class_regular_divisor_series(ell, order)


@lru_cache(maxsize=None)
def length_series_direct(order: int) -> Series:
    """Independent route to the total length counts.

    Counts, for every part value j and copy threshold m, the partitions of d
    containing at least m copies of j; removing those copies leaves an
    unconstrained partition of d - j*m.  Summed over m, these counts obey
    s[d] = p[d-j] + s[d-j], so the route takes O(order^2) steps.
    """
    return _length_counts(partition_series(order).coeffs, range(1, order + 1))


def class_regular_length_series_direct(ell: int, order: int) -> Series:
    """Independent route to the class-regular total length counts, by the
    same per-part recurrence over the parts not divisible by ell."""
    parts = [j for j in range(1, order + 1) if j % ell]
    return _length_counts(class_regular_series(ell, order).coeffs, parts)


def _length_counts(p, parts) -> Series:
    """c[d] = sum over j in parts and m >= 1 of p[d - j*m], p counting the
    partitions into those parts: a term counts the partitions of d with at
    least m copies of j, so c[d] is their total number of parts.

    Grouped by e = j*m, c[d] = sum over e of t[e] p[d - e], where t[e]
    counts the pairs (j, m) with j in parts and j*m = e; each c[d] is then
    one dot product of t against p reversed."""
    order = len(p) - 1
    t = [0] * (order + 1)
    for j in parts:
        for e in range(j, order + 1, j):
            t[e] += 1
    reverse = p[::-1]  # p[d - e] = reverse[order - d + e]
    return Series([sum(map(mul, t[1:d + 1], reverse[order - d + 1:]))
                   for d in range(order + 1)], order)


@lru_cache(maxsize=None)
def core_count_series(ell: int, order: int) -> Series:
    """Number of ell-cores by size: P / P(q^ell)^ell."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    return _over_partition_power(ell, ell, order)


@lru_cache(maxsize=None)
def cartan_det_series(ell: int, order: int) -> Series:
    """Exponent of ell in the full Cartan determinant: P_ell * T(q^ell)."""
    if ell < 2:
        raise ValueError("ell must be >= 2")
    T = divisor_series(order // ell)
    return class_regular_series(ell, order) * T.substitute_power(ell, order)


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
    return _over_partition_power(ell, 2, order)


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
    for flag, value, needed in (("ell", ell, name in _NEEDS_ELL),
                                ("k", k, name == "P^k")):
        if needed and value is None:
            raise ValueError(f"series {name!r} requires {flag}")
        if not needed and value is not None:
            raise ValueError(f"series {name!r} does not take {flag}")
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must lie in 0..{MAX_ORDER}, got {order}")
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
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must lie in 0..{MAX_ORDER}, got {order}")
    if name == "LPT":
        return length_series_direct(order) == length_series(order)
    if name == "Cartan-reduction":
        if a is None or b is None:
            raise ValueError("Cartan-reduction requires a and b")
        lhs = cartan_det_series(a * b, order)
        inner = cartan_det_series(b, order // a).substitute_power(a, order)
        rhs = class_regular_series(a, order) * inner
        return lhs == rhs
    if ell is None:
        raise ValueError(f"identity {name!r} requires ell")
    if name == "l-LPT":
        lhs = class_regular_length_series_direct(ell, order)
        return lhs == class_regular_length_series(ell, order)
    if name == "L-dec":
        rhs = class_regular_series(ell, order) \
            * length_series(order // ell).substitute_power(ell, order) \
            + partition_series(order // ell).substitute_power(ell, order) \
            * class_regular_length_series(ell, order)
        return length_series(order) == rhs
    if name == "T-split":
        rhs = divisor_series(order // ell).substitute_power(ell, order)
        return divisor_series(order) == rhs + class_regular_divisor_series(ell, order)
    if name == "Cartan-det":
        # full determinant assembled from the blocks: the block exponents are
        # graded by weight, so they enter at q^ell
        lhs = block_det_series(ell, order // ell).substitute_power(ell, order) \
            * core_count_series(ell, order)
        return lhs == cartan_det_series(ell, order)
    if name == "full-and-block":
        # graded multiplicities of the full matrix as block counts times cores
        rhs = core_count_series(ell, order) \
            * multipartition_series(ell - 2, order // ell).substitute_power(ell, order)
        return invariant_multiplicity_series(ell, order) == rhs
    if name == "block-det":
        lhs = multipartition_series(ell - 2, order) * length_series_direct(order)
        return lhs == block_det_series(ell, order)
    raise ValueError(f"unknown identity {name!r}; choose from {IDENTITY_NAMES}")
