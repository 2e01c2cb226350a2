"""Integer partitions, multipartitions, and partition-level statistics.

Everything here is a pure function of immutable values.  The canonical
ordering used throughout the package (and by all matrix indices) is
descending lexicographic on the part tuples within a fixed size, so
``(d)`` comes first and ``(1^d)`` last.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial


class Partition:
    """A weakly decreasing tuple of positive integer parts."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(parts)
        for i, p in enumerate(parts):
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"parts must be positive integers, got {p!r}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        self.parts = parts

    @classmethod
    def _trusted(cls, parts: tuple) -> "Partition":
        # enumeration-internal: parts already known weakly decreasing
        self = object.__new__(cls)
        self.parts = parts
        return self

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def multiplicities(self) -> dict[int, int]:
        """Map part value -> number of occurrences, keys descending."""
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def is_class_regular(self, ell: int) -> bool:
        """True iff no part is divisible by ``ell``."""
        return all(p % ell for p in self.parts)

    def is_regular(self, ell: int) -> bool:
        """True iff no part is repeated ``ell`` or more times."""
        return all(m < ell for m in self.multiplicities().values())

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other):
        return self.parts < other.parts

    def __le__(self, other):
        return self.parts <= other.parts

    def __repr__(self):
        return f"Partition({self.parts!r})"


class Multipartition:
    """An ordered tuple of ``k`` partitions with a common total size."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(
            c if isinstance(c, Partition) else Partition(c) for c in components
        )
        if not components:
            raise ValueError("a multipartition needs at least one component")
        self.components = components

    @property
    def num_components(self) -> int:
        return len(self.components)

    @property
    def size(self) -> int:
        return sum(c.size for c in self.components)

    def degree_vector(self) -> tuple[int, ...]:
        return tuple(c.size for c in self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __eq__(self, other):
        return isinstance(other, Multipartition) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        inner = " | ".join(str(c.parts) for c in self.components)
        return f"Multipartition({inner})"


@dataclass(frozen=True)
class IndexedPartition:
    """A partition together with a color in ``1..num_colors`` for each part.

    Colors must be weakly increasing along runs of equal parts, which makes
    the pair an unambiguous encoding of a multipartition.
    """

    base: Partition
    colors: tuple[int, ...]
    num_colors: int

    def __post_init__(self):
        lam, colors, k = self.base, self.colors, self.num_colors
        if len(colors) != lam.length:
            raise ValueError("need one color per part")
        for j, c in enumerate(colors):
            if not 1 <= c <= k:
                raise ValueError(f"color {c} out of range 1..{k}")
            if j and lam.parts[j - 1] == lam.parts[j] and colors[j - 1] > c:
                raise ValueError("colors must be weakly increasing on equal parts")


EMPTY = Partition()


def _partition_tuples(d: int):
    """Yield the partitions of ``d`` as tuples in descending lexicographic order."""
    if d == 0:
        yield ()
        return
    cur = [d]
    yield (d,)
    while True:
        i = len(cur) - 1
        while i >= 0 and cur[i] == 1:
            i -= 1
        if i < 0:
            return
        rest = len(cur) - i  # the decremented unit plus all trailing ones
        cur[i] -= 1
        m = cur[i]
        del cur[i + 1:]
        while rest > m:
            cur.append(m)
            rest -= m
        cur.append(rest)
        yield tuple(cur)


@lru_cache(maxsize=None)
def _partitions_cached(d: int) -> tuple[Partition, ...]:
    return tuple(Partition._trusted(t) for t in _partition_tuples(d))


def partitions(d: int) -> list[Partition]:
    """All partitions of ``d`` in canonical (descending lexicographic) order."""
    if d < 0:
        raise ValueError("d must be non-negative")
    return list(_partitions_cached(d))


def class_regular_partitions(d: int, ell: int) -> list[Partition]:
    """Partitions of ``d`` with no part divisible by ``ell``, canonical order."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return [lam for lam in partitions(d) if lam.is_class_regular(ell)]


def regular_partitions(d: int, ell: int) -> list[Partition]:
    """Partitions of ``d`` in which every part occurs fewer than ``ell`` times."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return [lam for lam in partitions(d) if lam.is_regular(ell)]


def color_sequences(lam: Partition, k: int) -> list[tuple[int, ...]]:
    """All admissible color tuples for ``lam`` with colors in ``1..k``.

    Runs of equal parts carry weakly increasing colors; the list is in
    lexicographic order, which is the canonical inner order for
    multipartition indexing.
    """
    groups = []
    parts = lam.parts
    i = 0
    while i < len(parts):
        j = i
        while j < len(parts) and parts[j] == parts[i]:
            j += 1
        groups.append(j - i)
        i = j
    pools = [
        list(itertools.combinations_with_replacement(range(1, k + 1), g))
        for g in groups
    ]
    return [sum(combo, ()) for combo in itertools.product(*pools)]


def multipartitions(k: int, d: int) -> list[Multipartition]:
    """All multipartitions with ``k`` components and total size ``d``.

    The order is canonical: outer loop over the flattened partition in
    descending lexicographic order, inner loop over color tuples in
    lexicographic order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    out = []
    for lam in partitions(d):
        parts = lam.parts
        for colors in color_sequences(lam, k):
            buckets: list[list[int]] = [[] for _ in range(k)]
            for part, c in zip(parts, colors):
                buckets[c - 1].append(part)
            mp = object.__new__(Multipartition)
            mp.components = tuple(Partition._trusted(tuple(b)) for b in buckets)
            out.append(mp)
    return out


def index_multipartition(mp: Multipartition) -> IndexedPartition:
    """Flatten a multipartition into its (partition, colors) encoding."""
    pairs = []
    for c, comp in enumerate(mp.components, start=1):
        for part in comp.parts:
            pairs.append((part, c))
    pairs.sort(key=lambda pc: (-pc[0], pc[1]))
    lam = Partition(p for p, _ in pairs)
    colors = tuple(c for _, c in pairs)
    return IndexedPartition(lam, colors, mp.num_components)


def multipartition_from_indexed(ip: IndexedPartition) -> Multipartition:
    """Inverse of :func:`index_multipartition`."""
    buckets: list[list[int]] = [[] for _ in range(ip.num_colors)]
    for part, color in zip(ip.base.parts, ip.colors):
        buckets[color - 1].append(part)
    return Multipartition(Partition(b) for b in buckets)


def centralizer_order(lam: Partition) -> int:
    """The product over part values r of ``r^m(r) * m(r)!``."""
    z = 1
    for r, m in lam.multiplicities().items():
        z *= r ** m * factorial(m)
    return z


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _require_prime(p: int):
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def valuation(n: int, p: int) -> int:
    """Exponent of the prime ``p`` in ``n >= 1``."""
    _require_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def factorial_valuation(a: int, p: int) -> int:
    """Exponent of the prime ``p`` in ``a!`` (sum of floor(a/p^j))."""
    _require_prime(p)
    if a < 0:
        raise ValueError("a must be >= 0")
    total = 0
    q = p
    while q <= a:
        total += a // q
        q *= p
    return total


def partition_defect(lam: Partition, p: int) -> int:
    """Sum of :func:`factorial_valuation` over the part multiplicities."""
    _require_prime(p)
    return sum(factorial_valuation(m, p) for m in lam.multiplicities().values())


def prime_factorization(n: int) -> list[tuple[int, int]]:
    """Prime factorization of ``n >= 2`` as (prime, exponent) pairs."""
    if n < 2:
        raise ValueError("n must be >= 2")
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += 1 if f == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


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
        return EMPTY
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


def total_length(d: int) -> int:
    """Sum of the number of parts over all partitions of ``d``."""
    return sum(lam.length for lam in partitions(d))
