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

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .linalg import Matrix
from .partitions import Partition, multipartitions, partitions


@dataclass(frozen=True)
class TransitionMatrix:
    """A square exact matrix together with its row/column label tuple."""

    degree: int
    index: tuple
    matrix: Matrix


def _multiply_power_sum(support, r: int) -> dict:
    """Multiply a monomial-basis expansion by the degree-r power sum.

    Adding r either extends a monomial shape by a new part r (growing the
    sentinel part 0) or grows one distinct part value v to v + r; the
    multiplicity of the grown part in the result counts the ways the same
    shape arises.
    """
    out: dict[tuple[int, ...], int] = {}
    for mu, c in support.items():
        values = mu + (0,)
        for i, v in enumerate(values):
            if i and values[i - 1] == v:
                continue
            nu = tuple(sorted(mu[:i] + mu[i + 1:] + (v + r,), reverse=True))
            out[nu] = out.get(nu, 0) + c * nu.count(v + r)
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


@lru_cache(maxsize=None)
def transition_p_to_m(d: int) -> TransitionMatrix:
    """Degree-d matrix expressing power sums in monomials, canonical index."""
    index = tuple(partitions(d))
    rows = []
    for lam in index:
        support = _power_sum_support(lam.parts)
        rows.append([support.get(mu.parts, 0) for mu in index])
    return TransitionMatrix(degree=d, index=index, matrix=Matrix(rows))


@lru_cache(maxsize=None)
def transition_tensor(k: int, d: int) -> TransitionMatrix:
    """Tensor transition matrix over the canonical multipartition index.

    The entry at (lam, mu) is the product over colors of the one-color
    entries when the componentwise degrees agree, and zero otherwise.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    index = tuple(multipartitions(k, d))
    n = len(index)
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, mp in enumerate(index):
        groups.setdefault(mp.degree_vector(), []).append(i)
    supports = [
        tuple(_power_sum_support(comp.parts) for comp in mp.components) for mp in index
    ]
    rows = [[0] * n for _ in range(n)]
    for members in groups.values():
        for i in members:
            sup_i = supports[i]
            row = rows[i]
            for j in members:
                v = 1
                for sup, comp in zip(sup_i, index[j].components):
                    v *= sup.get(comp.parts, 0)
                    if not v:
                        break
                row[j] = v
    return TransitionMatrix(degree=d, index=index, matrix=Matrix(rows))
