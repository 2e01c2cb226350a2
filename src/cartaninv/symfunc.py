"""Transition matrices from the power-sum basis to the monomial basis of
symmetric functions, in one-color and tensor (multipartition) form.

The expansion of p_lam is built one part at a time, p_lam = p_lam' * p_r
with lam' the partition lam less its last part r, and each prefix is cached,
so partitions sharing a prefix share its expansion.  The arithmetic is on
integer coefficients only, and both the single-color and the tensor matrix
are lower triangular with nonzero diagonal in the canonical
(multi)partition order.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product
from math import prod
from types import MappingProxyType

from .linalg import Matrix
from .partitions import Partition, multipartitions, partitions


class TransitionMatrix(namedtuple("TransitionMatrix", "degree index matrix")):
    """A square exact matrix together with its row/column label tuple."""

    __slots__ = ()


def _multiply_power_sum(support, r: int) -> dict:
    """Multiply a monomial-basis expansion by the degree-r power sum.

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
def _power_sum_support(parts: tuple[int, ...]) -> MappingProxyType:
    """Monomial expansion of the power sum p_parts, by the recurrence
    p_parts = p_parts[:-1] * p_parts[-1].  Every prefix of a partition is a
    partition, so each prefix is expanded once and shared through the cache;
    the result is read-only because the cache shares it."""
    if not parts:
        return MappingProxyType({(): 1})
    return MappingProxyType(
        _multiply_power_sum(_power_sum_support(parts[:-1]), parts[-1]))


def power_to_monomial(lam: Partition) -> dict[Partition, int]:
    """Expansion of the power sum of shape ``lam`` in the monomial basis."""
    return {
        Partition(mu): c for mu, c in _power_sum_support(lam.parts).items()
    }


def _fill(keys) -> Matrix:
    """The matrix whose entry (i, j) is the product over colors c of the
    coefficient of m_keys[j][c] in p_keys[i][c], for keys listing the part
    tuples of each color.  Each row is filled from the product of its
    components' supports, every term of which is a key of the same degree
    vector, so only the nonzero entries are visited."""
    pos = {key: j for j, key in enumerate(keys)}
    rows = []
    for key in keys:
        row = [0] * len(keys)
        for terms in product(*(_power_sum_support(parts).items() for parts in key)):
            mus, coeffs = zip(*terms)
            row[pos[mus]] = prod(coeffs)
        rows.append(row)
    return Matrix(rows)


@lru_cache(maxsize=None)
def transition_p_to_m(d: int) -> TransitionMatrix:
    """Degree-d matrix expressing power sums in monomials, canonical index."""
    index = tuple(partitions(d))
    matrix = _fill([(lam.parts,) for lam in index])
    return TransitionMatrix(degree=d, index=index, matrix=matrix)


@lru_cache(maxsize=None)
def transition_tensor(k: int, d: int) -> TransitionMatrix:
    """Tensor transition matrix over the canonical multipartition index.

    The entry at (lam, mu) is the product over colors of the one-color
    entries when the componentwise degrees agree, and zero otherwise.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    index = tuple(multipartitions(k, d))
    keys = [tuple(comp.parts for comp in mp.components) for mp in index]
    return TransitionMatrix(degree=d, index=index, matrix=_fill(keys))
