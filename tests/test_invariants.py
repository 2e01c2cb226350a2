from math import gcd

import pytest

import cartaninv.invariants as invariants
from cartaninv.invariants import (
    InvariantMultiset,
    SizeGuardError,
    block_invariants,
    full_invariants,
    graded_invariant,
    graded_invariant_prime_power,
    graded_to_snf,
    gram_matrix,
    gram_matrix_oracle,
    kor_invariants,
    kor_number,
    length_power_diagonal,
    lie_cartan_matrix,
    tensor_diagonal_blocks,
    tensor_gram_matrix,
    verify_determinants,
    verify_kor_multiset,
    verify_reduction,
    verify_snf_conjecture,
    verify_splitting,
)
from cartaninv.linalg import Matrix, invariant_factors
from cartaninv.partitions import (
    Partition,
    class_regular_partitions,
    factorial_valuation,
    partitions,
    repeat_parts,
    total_length,
)
from cartaninv.series import class_regular_series, count_multipartitions
from cartaninv.symfunc import TransitionMatrix, transition_p_to_m, transition_tensor


def test_lie_cartan():
    assert lie_cartan_matrix(2) == Matrix([[2]])
    assert invariant_factors(lie_cartan_matrix(4)) == (1, 1, 4)
    for ell in range(2, 11):
        assert lie_cartan_matrix(ell).det() == ell
    with pytest.raises(ValueError):
        lie_cartan_matrix(1)


def test_length_power_diagonal():
    assert length_power_diagonal(4, 2) == Matrix.diagonal([4, 16])
    assert length_power_diagonal(5, 0) == Matrix([[1]])
    assert length_power_diagonal(6, 3).det() == 6 ** 6


def test_gram_matrix_values():
    assert gram_matrix(4, 2) == Matrix([[4, 0], [6, 16]])
    assert gram_matrix(6, 2) == Matrix([[6, 0], [15, 36]])
    for ell in (2, 3, 7):
        assert gram_matrix(ell, 1) == Matrix([[ell]])
        assert gram_matrix(ell, 0) == Matrix([[1]])
    assert invariant_factors(gram_matrix(4, 2)) == (2, 32)


def test_gram_matrix_oracle_agrees():
    for ell in (2, 3, 4, 6):
        for d in range(5):
            assert gram_matrix_oracle(ell, d) == gram_matrix(ell, d)


def test_gram_matrices_match_rational_conjugation():
    # the integer forward substitution against T^-1 * B * T over Fractions
    for ell in range(2, 7):
        for d in range(6):
            t = transition_p_to_m(d).matrix
            assert gram_matrix(ell, d) == t.inverse() * length_power_diagonal(ell, d) * t
    for ell in (3, 4):
        for d in range(4):
            t = transition_tensor(ell - 1, d).matrix
            b = tensor_diagonal_blocks(lie_cartan_matrix(ell), d)
            assert tensor_gram_matrix(ell, d) == t.inverse() * b * t


def test_gram_matrix_rejects_non_integral_conjugate(monkeypatch):
    # with this transition, row (1, 1) of X at ell=2 is [2, 12] / 3
    fake = TransitionMatrix(2, transition_p_to_m(2).index, Matrix([[1, 0], [1, 3]]))
    monkeypatch.setattr(invariants, "transition_tensor", lambda k, d: fake)
    with pytest.raises(ArithmeticError):
        gram_matrix(2, 2)


def test_gram_matrix_size_guard():
    with pytest.raises(SizeGuardError, match="1002 labels, exceeding the bound 1000"):
        gram_matrix(2, 22)
    with pytest.raises(SizeGuardError, match="24842 labels, exceeding the bound 3000"):
        tensor_gram_matrix(3, 20)


def test_cached_h_expansions_are_read_only():
    for cached in (invariants._power_in_h(3), invariants._scaled_h(2, 3)):
        with pytest.raises(TypeError):
            cached[(1, 1)] = 0


def test_tensor_gram_matrix():
    for d in range(5):
        assert tensor_gram_matrix(2, d) == gram_matrix(2, d)
    assert tensor_gram_matrix(4, 1) == lie_cartan_matrix(4)
    assert invariant_factors(tensor_gram_matrix(4, 2)) == (
        1, 1, 1, 1, 1, 2, 4, 4, 32)


def test_graded_invariant_prime_power():
    assert graded_invariant_prime_power(Partition((1, 1)), 2, 2) == 32
    assert graded_invariant_prime_power(Partition(()), 7, 3) == 1
    for p in (2, 3):
        for r in (1, 2, 3):
            for d in range(1, 8):
                expected = p ** (r * d) * p ** factorial_valuation(d, p)
                assert graded_invariant_prime_power(
                    Partition((1,) * d), p, r) == expected
    with pytest.raises(ValueError):
        graded_invariant_prime_power(Partition((1,)), 4, 1)


def test_graded_invariant_closed_forms_agree_everywhere():
    # the exponent form against the product of (p^r / gcd(p^r, n))^m_n
    # times the p-part of m_n!
    for p in (2, 3, 5):
        for r in (1, 2, 3, 4):
            for d in range(11):
                for lam in partitions(d):
                    alt = 1
                    for n, m in lam.multiplicities().items():
                        if n % p ** r:
                            alt *= (p ** r // gcd(p ** r, n)) ** m \
                                * p ** factorial_valuation(m, p)
                    assert graded_invariant_prime_power(lam, p, r) == alt


def test_graded_invariant_table_values():
    theta6 = [graded_invariant(lam, 6) for lam in partitions(3)]
    assert theta6 == [2, 18, 1296]
    theta6 = {lam.parts: graded_invariant(lam, 6) for lam in partitions(4)}
    assert theta6 == {(4,): 3, (3, 1): 12, (2, 2): 9, (2, 1, 1): 216,
                      (1, 1, 1, 1): 31104}
    assert graded_invariant(Partition((2, 1)), 6) == 18


def test_graded_invariant_depends_on_class_regular_head():
    for ell in (4, 6):
        for d in range(9):
            for lam in partitions(d):
                head = Partition([p for p in lam.parts if p % ell])
                assert graded_invariant(lam, ell) == graded_invariant(head, ell)


def test_graded_invariant_unique_max():
    for p, r in ((2, 1), (2, 2), (3, 1)):
        for d in range(1, 11):
            values = [graded_invariant_prime_power(lam, p, r)
                      for lam in partitions(d)]
            top = p ** (r * d) * p ** factorial_valuation(d, p)
            assert values.count(top) == 1
            assert max(values) == top


def test_kor_number():
    assert kor_number(Partition((1,) * 8), 4) == 32
    assert kor_number(Partition((2, 2, 1, 1, 1, 1)), 4) == 4
    assert kor_number(Partition((3, 2, 1)), 4) == 1
    with pytest.raises(ValueError):
        kor_number(Partition((4,)), 4)


def test_kor_number_of_stretched_partition():
    # ell-fold stretching of a class-regular partition recovers theta
    for ell in (4, 6, 12):
        for a in range(1, 11):
            for alpha in class_regular_partitions(a, ell):
                stretched = repeat_parts(alpha, ell)
                assert kor_number(stretched, ell) == graded_invariant(alpha, ell)


def test_kor_number_depends_only_on_check_part():
    from cartaninv.partitions import regular_split

    for ell in (4, 6):
        for n in range(13):
            for mu in class_regular_partitions(n, ell):
                _, check = regular_split(mu, ell)
                stretched = repeat_parts(check, ell) if check.parts else check
                assert kor_number(mu, ell) == kor_number(stretched, ell)


def test_block_invariants():
    ms = block_invariants(4, 2)
    assert ms.entries == {32: 1, 4: 2, 2: 1, 1: 5}
    assert block_invariants(5, 0).entries == {1: 1}
    ms = block_invariants(6, 4)
    assert ms.entries == {1: 105, 2: 4, 3: 15, 6: 40, 9: 1, 12: 1, 18: 4,
                          72: 14, 216: 1, 1296: 4, 31104: 1}


def test_full_invariants():
    ms = full_invariants(6, 18)
    assert ms.entries == {1: 222, 2: 1, 3: 9, 6: 54, 18: 1, 72: 9, 1296: 1}
    ms = full_invariants(4, 8)
    assert ms.entries == {1: 11, 2: 1, 4: 3, 32: 1}
    assert ms.total() == 16
    assert ms.by_degree[1] == {4: 3}


def test_full_invariants_counts():
    for ell in (4, 6):
        for n in range(25):
            assert full_invariants(ell, n).total() == len(
                class_regular_partitions(n, ell))


def test_full_invariants_low_degree_rows():
    # at n = 6 only degrees 0 and 1 carry nonzero multiplicity
    ms = full_invariants(6, 6)
    assert set(ms.by_degree) == {0, 1}
    assert ms.entries == {1: 9, 6: 1}


def test_graded_invariants_record():
    from cartaninv.invariants import graded_invariants

    records = graded_invariants(6, 3)
    assert [g.value for g in records] == [2, 18, 1296]
    for g in records:
        assert g.degree == 3 == g.source.size
        assert g.value == graded_invariant(g.source, 6)


def test_kor_invariants():
    ms = kor_invariants(4, 8)
    assert ms.entries == {32: 1, 4: 3, 2: 1, 1: 11}
    for n in range(1, 4):
        ms = kor_invariants(4, n)
        assert ms.entries == {1: len(partitions(n))}
    assert kor_invariants(6, 18) == full_invariants(6, 18)


def test_graded_to_snf():
    assert graded_to_snf([2, 3]) == (1, 6)
    assert graded_to_snf([3, 6, 72]) == (3, 6, 72)
    assert graded_to_snf([4, 2, 8]) == (2, 4, 8)
    assert graded_to_snf(InvariantMultiset(entries={2: 2, 12: 1})) == (2, 2, 12)
    chain = graded_to_snf([6, 10, 15])
    assert chain == (1, 30, 30)
    for a, b in zip(chain, chain[1:]):
        assert b % a == 0
    with pytest.raises(ValueError):
        graded_to_snf([0, 2])


def test_graded_to_snf_preserves_product():
    import random

    from cartaninv.partitions import prime_factorization, valuation

    rng = random.Random(11)
    for _ in range(30):
        values = [rng.choice((1, 2, 3, 4, 6, 8, 9, 12, 18, 36))
                  for _ in range(rng.randint(1, 8))]
        chain = graded_to_snf(values)
        prod_in = prod_out = 1
        for v in values:
            prod_in *= v
        for v in chain:
            prod_out *= v
        assert prod_in == prod_out
        for p in (2, 3):
            left = sorted(valuation(v, p) for v in values)
            right = sorted(valuation(v, p) for v in chain)
            assert left == right


def test_verify_snf_conjecture_statuses():
    r = verify_snf_conjecture(4, 2)
    assert r.status == "verified"
    assert r.witness["computed"] == (2, 32)
    for d in range(5):
        assert verify_snf_conjecture(9, d).status == "verified"
    r = verify_snf_conjecture(6, 3)
    assert r.status == "unproven-match"
    r = verify_snf_conjecture(8, 3)
    assert r.status in ("unproven-match", "unproven-mismatch")


def test_verify_splitting():
    r = verify_splitting(2, 3, 2)
    assert r.status == "verified"
    assert gram_matrix(2, 2) * gram_matrix(3, 2) == gram_matrix(6, 2)
    for d in range(6):
        assert verify_splitting(2, 2, d).status == "verified"
    for d in range(7):
        assert verify_splitting(2, 3, d).status == "verified"
    assert verify_splitting(2, 2, 3).witness["snf_product"] is None


def test_pure_functions_run_concurrently():
    # builders share no mutable state, so a thread pool must agree with the
    # sequential answers
    from concurrent.futures import ThreadPoolExecutor

    jobs = [(ell, d) for ell in (2, 3, 4, 6, 9) for d in range(6)]
    sequential = [invariant_factors(gram_matrix(ell, d)) for ell, d in jobs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(
            lambda job: invariant_factors(gram_matrix(*job)), jobs))
    assert threaded == sequential


def test_verify_reduction():
    for d in range(4):
        r = verify_reduction(3, d)
        assert r.status == "verified"
        assert abs(r.witness["det_left"]) == 1
        assert abs(r.witness["det_right"]) == 1
    for d in range(3):
        assert verify_reduction(4, d).status == "verified"
    assert verify_reduction(2, 4).status == "verified"


def test_verify_kor_multiset():
    assert verify_kor_multiset(4, 8).status == "verified"
    assert verify_kor_multiset(6, 18).status == "verified"
    for n in range(4):
        assert verify_kor_multiset(5, n).status == "verified"


def test_verify_determinants():
    r = verify_determinants(4, 4)
    assert r.status == "verified"
    assert r.witness["by_degree"][2]["det"] == 64
    product = 1
    for lam in partitions(3):
        product *= graded_invariant(lam, 6)
    assert product == 46656 == 6 ** total_length(3)
    assert verify_determinants(6, 5).status == "verified"
    # the closed-form identity also holds past the proven invariant range
    assert verify_determinants(16, 10, matrix_d_max=3).status == "verified"
    # an empty degree range checks nothing, so it must not report verified
    with pytest.raises(ValueError):
        verify_determinants(4, -1)


def test_block_invariant_counts_and_max():
    from cartaninv.partitions import prime_factorization

    for ell in range(2, 9):
        for w in range(7):
            ms = block_invariants(ell, w)
            assert ms.total() == count_multipartitions(ell - 1, w)
            expected = ell ** w
            for p, _ in prime_factorization(ell):
                expected *= p ** factorial_valuation(w, p)
            assert ms.max_value() == expected
