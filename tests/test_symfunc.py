from itertools import permutations, product
from math import factorial

import pytest

from cartaninv import invariants, linalg, symfunc
from cartaninv.invariants import lie_cartan_matrix
from cartaninv.linalg import Matrix
from cartaninv.partitions import multiplicities, partitions
from cartaninv.symfunc import power_to_monomial, transition_p_to_m, transition_tensor
from oracles import degree_vector, transition_by_support


def monomial_value_at_ones(mu, t):
    """m_mu evaluated at x_1 = ... = x_t = 1: distinct rearrangements."""
    if len(mu) > t:
        return 0
    count = factorial(t)
    for m in multiplicities(mu).values():
        count //= factorial(m)
    count //= factorial(t - len(mu))
    return count


def test_small_matrices():
    assert transition_p_to_m(0).matrix == Matrix([[1]])
    t2 = transition_p_to_m(2)
    assert t2.index == ((2,), (1, 1))
    assert t2.matrix == Matrix([[1, 0], [1, 2]])
    t3 = transition_p_to_m(3)
    assert t3.matrix == Matrix([[1, 0, 0], [1, 1, 0], [1, 3, 6]])


def test_power_to_monomial_support():
    symfunc._support.cache_clear()
    sup = power_to_monomial((2, 1))
    assert sup == {(3,): 1, (2, 1): 1}
    # the parts are sorted before the cache, so each shape is cached once
    assert power_to_monomial((1, 2)) == sup
    assert symfunc._support.cache_info().currsize == 1


def test_power_to_monomial_against_definition():
    # the coefficient of m_mu in p_lam counts the maps from the parts of lam
    # to the positions of mu whose part sums at each position j equal mu_j
    for d in range(7):
        for lam in partitions(d):
            expansion = power_to_monomial(lam)
            for mu in partitions(d):
                count = 0
                for f in product(range(len(mu)), repeat=len(lam)):
                    sums = [0] * len(mu)
                    for part, j in zip(lam, f):
                        sums[j] += part
                    count += sums == list(mu)
                assert expansion.get(mu, 0) == count, (lam, mu)


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
                assert total == t ** len(lam)


def test_tensor_reduces_to_single_color():
    # one color is the p-to-m transition itself, indexed by partitions
    for d in range(5):
        assert transition_tensor(1, d) is transition_p_to_m(d)


def test_one_color_builds_no_multipartitions(monkeypatch):
    def refuse(k, d):
        raise AssertionError(f"multipartitions({k}, {d}) built for one color")

    transition_p_to_m.cache_clear()
    transition_tensor.cache_clear()
    monkeypatch.setattr(symfunc, "multipartitions", refuse)
    assert invariants.gram_matrix(4, 9) == invariants.gram_matrix_oracle(4, 9)


def test_tensor_degree_blocks():
    t = transition_tensor(2, 1)
    assert t.matrix == Matrix.diagonal([1, 1])
    t = transition_tensor(3, 2)
    index = t.index
    for i, a in enumerate(index):
        for j, b in enumerate(index):
            if degree_vector(a) != degree_vector(b):
                assert t.matrix[(i, j)] == 0


def test_tensor_entries_factor():
    singles = {d: transition_p_to_m(d) for d in range(5)}
    for k, d in [(2, 3)] + [(3, d) for d in range(5)]:
        t = transition_tensor(k, d)
        for i, a in enumerate(t.index):
            for j, b in enumerate(t.index):
                expected = 0
                if degree_vector(a) == degree_vector(b):
                    expected = 1
                    for ca, cb in zip(a, b):
                        tm = singles[sum(ca)]
                        expected *= tm.matrix[(tm.index.index(ca), tm.index.index(cb))]
                assert t.matrix[(i, j)] == expected


def test_tensor_matches_kron_blocks():
    # within a fixed degree vector the tensor matrix is a Kronecker product
    # of the single-color matrices, up to the canonical index order
    t = transition_tensor(2, 2)
    dv = (1, 1)
    members = [i for i, mp in enumerate(t.index) if degree_vector(mp) == dv]
    sub = [[t.matrix[(i, j)] for j in members] for i in members]
    single = transition_p_to_m(1).matrix
    assert Matrix(sub) == single.kron(single)


def test_cached_transitions_are_immutable():
    for t in (transition_p_to_m(3), transition_tensor(2, 2)):
        index = t.index
        with pytest.raises(AttributeError):
            t.index = ()
        assert t.index is index
        with pytest.raises(TypeError):
            t.index[0] = t.index[1]
        with pytest.raises(AttributeError):
            t.index.append(t.index[0])
        # nor can the shared matrix be changed, which every later build reads
        m = t.matrix
        for name, value in (("data", Matrix.diagonal([1] * m.rows).data),
                            ("rows", 1), ("cols", 1)):
            kept = getattr(m, name)
            with pytest.raises(AttributeError):
                setattr(m, name, value)
            with pytest.raises(AttributeError):
                delattr(m, name)
            assert getattr(m, name) is kept
    # a cached partition is its parts tuple, shared by every caller
    lam = partitions(3)[0]
    with pytest.raises(AttributeError):
        lam.parts = (1, 1, 1)
    with pytest.raises(TypeError):
        lam[0] = 1
    assert partitions(3) == ((3,), (2, 1), (1, 1, 1))
    # the cached operator tables, rows, supports and seed blocks are tuples
    seed = lie_cartan_matrix(4)
    for table in (symfunc._times_power_sum(2, 1), symfunc._row((2, 1)),
                  symfunc._support((2, 1)), linalg._grow_index(3, 2),
                  linalg._symmetric_power_rows(seed.data, 2),
                  invariants._seed_block(seed, (2, 1))):
        with pytest.raises(TypeError):
            table[0] = table[-1]


def test_transitions_equal_prefix_dict_oracle():
    # the operator-table rows against the prefix-dict expansion they replace
    for d in range(17):
        assert transition_p_to_m(d).matrix == transition_by_support(1, d), d
    cases = [(k, d) for k in range(1, 6) for d in range(5)] + [(2, 5), (2, 6)]
    for k, d in cases:
        assert transition_tensor(k, d).matrix == transition_by_support(k, d), (k, d)
