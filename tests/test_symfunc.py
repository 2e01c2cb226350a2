from dataclasses import FrozenInstanceError
from itertools import permutations
from math import factorial

import pytest

from cartaninv import symfunc
from cartaninv.linalg import Matrix
from cartaninv.partitions import Partition, partitions
from cartaninv.symfunc import power_to_monomial, transition_p_to_m, transition_tensor


def monomial_value_at_ones(mu, t):
    """m_mu evaluated at x_1 = ... = x_t = 1: distinct rearrangements."""
    if mu.length > t:
        return 0
    count = factorial(t)
    for m in mu.multiplicities().values():
        count //= factorial(m)
    count //= factorial(t - mu.length)
    return count


def test_small_matrices():
    assert transition_p_to_m(0).matrix == Matrix([[1]])
    t2 = transition_p_to_m(2)
    assert [p.parts for p in t2.index] == [(2,), (1, 1)]
    assert t2.matrix == Matrix([[1, 0], [1, 2]])
    t3 = transition_p_to_m(3)
    assert t3.matrix == Matrix([[1, 0, 0], [1, 1, 0], [1, 3, 6]])


def test_power_to_monomial_support():
    sup = power_to_monomial(Partition((2, 1)))
    assert sup == {Partition((3,)): 1, Partition((2, 1)): 1}


def test_lower_triangular_invertible():
    # the integer forward substitution in the matrix builders relies on this
    cases = [transition_p_to_m(d) for d in range(11)]
    cases += [transition_tensor(k, d) for k in (2, 3, 4, 5) for d in range(4)]
    cases += [transition_tensor(2, d) for d in (4, 5, 6)]
    for t in cases:
        m = t.matrix
        for i in range(m.rows):
            assert m[(i, i)] != 0
            for j in range(i + 1, m.cols):
                assert m[(i, j)] == 0
        assert m.det() != 0


def test_evaluation_at_ones():
    # both bases evaluated at t ones must agree: p_lam gives t^length
    for t in range(1, 5):
        for d in range(7):
            tm = transition_p_to_m(d)
            for i, lam in enumerate(tm.index):
                total = sum(
                    tm.matrix[(i, j)] * monomial_value_at_ones(mu, t)
                    for j, mu in enumerate(tm.index))
                assert total == t ** lam.length


def test_tensor_reduces_to_single_color():
    for d in range(5):
        assert transition_tensor(1, d).matrix == transition_p_to_m(d).matrix


def test_tensor_degree_blocks():
    t = transition_tensor(2, 1)
    assert t.matrix == Matrix.identity(2)
    t = transition_tensor(3, 2)
    index = t.index
    for i, a in enumerate(index):
        for j, b in enumerate(index):
            if a.degree_vector() != b.degree_vector():
                assert t.matrix[(i, j)] == 0


def test_tensor_entries_factor():
    t = transition_tensor(2, 3)
    singles = {d: transition_p_to_m(d) for d in range(4)}
    for i, a in enumerate(t.index):
        for j, b in enumerate(t.index):
            if a.degree_vector() != b.degree_vector():
                continue
            expected = 1
            for ca, cb in zip(a.components, b.components):
                tm = singles[ca.size]
                expected *= tm.matrix[(tm.index.index(ca), tm.index.index(cb))]
            assert t.matrix[(i, j)] == expected


def test_tensor_matches_kron_blocks():
    # within a fixed degree vector the tensor matrix is a Kronecker product
    # of the single-color matrices, up to the canonical index order
    t = transition_tensor(2, 2)
    dv = (1, 1)
    members = [i for i, mp in enumerate(t.index) if mp.degree_vector() == dv]
    sub = [[t.matrix[(i, j)] for j in members] for i in members]
    single = transition_p_to_m(1).matrix
    assert Matrix(sub) == single.kron(single)


def test_cached_transitions_are_immutable():
    for t in (transition_p_to_m(3), transition_tensor(2, 2)):
        with pytest.raises(FrozenInstanceError):
            t.index = ()
        with pytest.raises(TypeError):
            t.index[0] = t.index[1]
        with pytest.raises(AttributeError):
            t.index.append(t.index[0])
    with pytest.raises(TypeError):
        symfunc._power_sum_support((2, 1))[(3,)] = 0
