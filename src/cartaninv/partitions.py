"""Integer partitions, multipartitions, and partition-level statistics.

A partition is its weakly decreasing tuple of parts, a multipartition a
tuple of them, and everything here a pure function of immutable values.
The canonical order of the package (and of all matrix indices) is
descending lexicographic within a fixed size: ``(d,)`` first, ``(1,) * d`` last.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


def multiplicities(parts) -> dict[int, int]:
    """Map part value -> number of occurrences, keys in order of first
    occurrence (descending for a partition)."""
    out: dict[int, int] = {}
    for p in parts:
        out[p] = out.get(p, 0) + 1
    return out


def _check_parts(parts) -> tuple[int, ...]:
    """The parts as a tuple, or ``ValueError`` if one is not a positive int;
    their order is not checked, as no result read from them depends on it."""
    parts = tuple(parts)
    for p in parts:
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"parts must be positive integers, got {p!r}")
    return parts


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
def partitions(d: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of ``d`` in canonical (descending lexicographic) order,
    as one cached tuple of parts tuples shared by every caller."""
    if d < 0:
        raise ValueError("d must be >= 0")
    return tuple(_partition_tuples(d))


def class_regular_partitions(d: int, ell: int) -> list[tuple[int, ...]]:
    """Partitions of ``d`` with no part divisible by ``ell``, canonical order."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return [lam for lam in partitions(d) if all(p % ell for p in lam)]


def regular_partitions(d: int, ell: int) -> list[tuple[int, ...]]:
    """Partitions of ``d`` in which every part occurs fewer than ``ell`` times."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return [lam for lam in partitions(d) if all(m < ell for m in multiplicities(lam).values())]


def color_sequences(lam: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    """All admissible color tuples for ``lam`` with colors in ``1..k``.

    Runs of equal parts carry weakly increasing colors; the list is in
    lexicographic order, which is the canonical inner order for
    multipartition indexing.
    """
    pools = [
        list(itertools.combinations_with_replacement(range(1, k + 1), len(list(run))))
        for _, run in itertools.groupby(lam)
    ]
    return [sum(combo, ()) for combo in itertools.product(*pools)]


def multipartitions(k: int, d: int) -> list[tuple[tuple[int, ...], ...]]:
    """All multipartitions with ``k`` components and total size ``d``, each
    a k-tuple of partitions.

    The order is canonical, by the pair (partition, colors): the outer loop
    runs over the flattened partition (all parts of all components) in
    descending lexicographic order, the inner loop over its color tuples
    from :func:`color_sequences` in lexicographic order, component c taking
    the parts colored c.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    out = []
    for lam in partitions(d):
        for colors in color_sequences(lam, k):
            buckets: list[list[int]] = [[] for _ in range(k)]
            for part, c in zip(lam, colors):
                buckets[c - 1].append(part)
            out.append(tuple(map(tuple, buckets)))
    return out


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    return n >= 2 and prime_factorization(n) == [(n, 1)]


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

