"""Transition matrices from the power-sum basis to the monomial basis of
symmetric functions, in one-color and tensor (multipartition) form.

Expansions are computed by exact multiset combinatorics on exponent
vectors; no rational arithmetic is involved, and both the single-color
and the tensor matrix are lower triangular with nonzero diagonal in the
canonical (multi)partition order.
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


def _insert_sorted(mu: tuple[int, ...], value: int) -> tuple[int, ...]:
    out = list(mu)
    for i, p in enumerate(out):
        if value >= p:
            out.insert(i, value)
            break
    else:
        out.append(value)
    return tuple(out)


def _multiply_power_sum(support: dict[tuple[int, ...], int], r: int) -> dict:
    """Multiply a monomial-basis expansion by the degree-r power sum.

    Adding r either extends a monomial shape by a new part r or increases
    one part value v to v + r; the multiplicity of the grown part in the
    result counts the ways the same shape arises.
    """
    out: dict[tuple[int, ...], int] = {}
    for mu, c in support.items():
        nu = _insert_sorted(mu, r)
        out[nu] = out.get(nu, 0) + c * nu.count(r)
        seen = set()
        for i, v in enumerate(mu):
            if v in seen:
                continue
            seen.add(v)
            rest = mu[:i] + mu[i + 1:]
            nu2 = _insert_sorted(rest, v + r)
            out[nu2] = out.get(nu2, 0) + c * nu2.count(v + r)
    return out


@lru_cache(maxsize=None)
def _power_sum_support(parts: tuple[int, ...]) -> MappingProxyType:
    """Monomial expansion of a power sum, read-only because the cache shares it."""
    support = {(): 1}
    for r in parts:
        support = _multiply_power_sum(support, r)
    return MappingProxyType(support)


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
    degree_vectors = [mp.degree_vector() for mp in index]
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, dv in enumerate(degree_vectors):
        groups.setdefault(dv, []).append(i)
    supports = [
        tuple(_power_sum_support(comp.parts) for comp in mp.components) for mp in index
    ]
    rows = [[0] * n for _ in range(n)]
    for dv, members in groups.items():
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
