"""Partition combinatorics and small helpers that only the tests use.

No command reaches these: the closed forms come from products over part
sizes and q-series, not from enumerating partitions.  They stay here as
independent checks on those routes.
"""

from cartaninv.linalg import Matrix
from cartaninv.partitions import Multipartition, Partition, factorial_valuation, is_prime
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


def degree_vector(mp: Multipartition) -> tuple[int, ...]:
    """The sizes of the components of a multipartition."""
    return tuple(c.size for c in mp.components)


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
