"""Transition matrices from the power-sum basis to the monomial basis of
symmetric functions, in one-color and tensor (multipartition) form.

The row of p_lam is the cached row of lam' times the cached table of
multiplication by p_r (:func:`_times_power_sum`), with lam' the partition
lam less its last part r, so partitions sharing a prefix share its row.
The arithmetic is on integer coefficients only, and both the single-color
and the tensor matrix are lower triangular with nonzero diagonal in the
canonical (multi)partition order.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import compress, product
from math import prod

from .linalg import Matrix
from .partitions import _check_parts, multipartitions, partitions


class TransitionMatrix(namedtuple("TransitionMatrix", "degree index matrix")):
    """A square exact matrix together with its row/column label tuple."""

    __slots__ = ()


@lru_cache(maxsize=None)
def _times_power_sum(d: int, r: int) -> tuple:
    """Multiplication by the degree-r power sum, from degree d to d + r: for
    each mu of d in canonical order, the (index, coefficient) pairs of
    m_mu * p_r over the partitions of d + r.

    Adding r either extends mu by a new part r (growing the sentinel part 0)
    or grows one distinct part value v to v + r; the multiplicity of the
    grown part in the result counts the ways the same shape arises.  The
    grown part moves from the first position i of v to the position j found
    by a backward scan over the larger parts, and its multiplicity is one
    more than the run of parts equal to v + r before j.
    """
    pos = {nu: j for j, nu in enumerate(partitions(d + r))}
    table = []
    for mu in partitions(d):
        values = mu + (0,)
        terms = []
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
            terms.append((pos[mu[:j] + (w,) + mu[j:i] + mu[i + 1:]], j - k + 1))
        table.append(tuple(terms))
    return tuple(table)


@lru_cache(maxsize=None)
def _row(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The monomial coefficients of the power sum p_parts over the
    partitions of its degree: the row of parts[:-1] times the table of
    p_parts[-1].  Every prefix of a partition is a partition, so each prefix
    row is built once and shared through the cache."""
    if not parts:
        return (1,)
    r, n, prev = parts[-1], sum(parts), _row(parts[:-1])
    row = [0] * len(partitions(n))
    for c, terms in compress(zip(prev, _times_power_sum(n - r, r)), prev):
        for j, t in terms:
            row[j] += c * t
    return tuple(row)


@lru_cache(maxsize=None)
def _support(parts: tuple[int, ...]) -> tuple:
    """The (mu, coefficient) pairs of the nonzero entries of :func:`_row`."""
    return tuple((mu, c) for mu, c in zip(partitions(sum(parts)), _row(parts)) if c)


def power_to_monomial(lam) -> dict[tuple[int, ...], int]:
    """Expansion of the power sum of shape ``lam`` in the monomial basis; a
    part that is not a positive int raises ``ValueError``.  The parts are
    sorted first, so that each shape is cached once, whatever their order."""
    return dict(_support(tuple(sorted(_check_parts(lam), reverse=True))))


@lru_cache(maxsize=None)
def transition_p_to_m(d: int) -> TransitionMatrix:
    """Degree-d matrix expressing power sums in monomials, canonical index."""
    index = partitions(d)
    matrix = Matrix([_row(lam) for lam in index])
    return TransitionMatrix(degree=d, index=index, matrix=matrix)


@lru_cache(maxsize=None)
def transition_tensor(k: int, d: int) -> TransitionMatrix:
    """Tensor transition matrix over the canonical multipartition index,
    whose labels are k-tuples of partitions.

    The entry at (lam, mu) is the product over colors of the one-color
    entries when the componentwise degrees agree, and zero otherwise: row
    lam is the product of its colors' cached supports, every term of which
    is a multipartition of the same degree vector.  One color is
    :func:`transition_p_to_m` itself, indexed by partitions.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return transition_p_to_m(d)
    index = tuple(multipartitions(k, d))
    pos = {mp: j for j, mp in enumerate(index)}
    rows = []
    for mp in index:
        row = [0] * len(index)
        for terms in product(*map(_support, mp)):
            mus, coeffs = zip(*terms)
            row[pos[mus]] = prod(coeffs)
        rows.append(row)
    return TransitionMatrix(degree=d, index=index, matrix=Matrix(rows))
