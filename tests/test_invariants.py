from collections import Counter
from hashlib import sha256
from math import gcd, prod

import pytest

import cartaninv.invariants as invariants
from cartaninv.invariants import (
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
from cartaninv.linalg import Matrix, direct_sum, smith_normal_form
from cartaninv.partitions import (
    Partition,
    class_regular_partitions,
    factorial_valuation,
    is_prime,
    partitions,
    prime_factorization,
    total_length,
    valuation,
)
from cartaninv.series import class_regular_series, count_multipartitions, partition_series
from cartaninv.symfunc import TransitionMatrix, transition_p_to_m, transition_tensor
from oracles import integer_snf, max_value, regular_split, repeat_parts


def test_lie_cartan():
    assert lie_cartan_matrix(2) == Matrix([[2]])
    assert integer_snf(lie_cartan_matrix(4)).invariant_factors == (1, 1, 4)
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
    assert integer_snf(gram_matrix(4, 2)).invariant_factors == (2, 32)


def test_gram_matrix_oracle_agrees():
    for ell in range(2, 9):
        for d in range(7):
            assert gram_matrix_oracle(ell, d) == gram_matrix(ell, d)


def test_gram_matrices_match_rational_conjugation():
    # the forward substitution solves T * X = B * T; T is invertible, so the
    # product identity in integers pins X = T^-1 * B * T
    for ell in range(2, 7):
        for d in range(9):
            t = transition_p_to_m(d).matrix
            assert t * gram_matrix(ell, d) == length_power_diagonal(ell, d) * t
    for ell in (3, 4, 5, 6):
        for d in range(5 if ell >= 5 else 4):
            t = transition_tensor(ell - 1, d).matrix
            b = tensor_diagonal_blocks(lie_cartan_matrix(ell), d)
            assert t * tensor_gram_matrix(ell, d) == b * t
    # past the product checks, the builds are pinned byte for byte
    for mat, digest in [
        (gram_matrix(4, 17),
         "ac627a3002a612530c00d9e5670a1e4207faba058656b9c4d380e06b5dadab88"),
        (tensor_gram_matrix(6, 5),
         "d1d05bcb51ffaf69bcccbcb84f3aa57a5ff716aa3df9b878edfc12b800581d66"),
    ]:
        assert sha256(repr(mat.data).encode()).hexdigest() == digest


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
    with pytest.raises(TypeError):
        invariants._scaled_h(2, 3)[(1, 1)] = 0


def test_tensor_gram_matrix():
    for d in range(5):
        assert tensor_gram_matrix(2, d) == gram_matrix(2, d)
    assert tensor_gram_matrix(4, 1) == lie_cartan_matrix(4)
    assert integer_snf(tensor_gram_matrix(4, 2)).invariant_factors == (
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
    # p is checked once, before the unchecked valuations of the parts
    for p in (-3, 0, 1, 4, 6, 9):
        for lam in (Partition(()), Partition((1,)), Partition((6, 4, 2, 2, 1))):
            with pytest.raises(ValueError, match="not prime"):
                graded_invariant_prime_power(lam, p, 1)


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
    # past the reach of enumeration: p(100) is 190,569,292
    ms = kor_invariants(6, 100)
    assert ms.total() == class_regular_series(6, 100).coeff(100) == 58590891


def tally(values):
    out = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return out


def test_multisets_match_enumeration():
    for ell in range(2, 13):
        for n in range(26):
            expected = tally(kor_number(mu, ell) for mu in partitions(n)
                             if mu.is_class_regular(ell))
            assert kor_invariants(ell, n).entries == expected, (ell, n)
        # layer d of a weight-d block carries multiplicity 1
        for d in range(15):
            expected = tally(graded_invariant(lam, ell) for lam in partitions(d))
            assert block_invariants(ell, d).by_degree[d] == expected, (ell, d)


def test_multisets_check_their_counts(monkeypatch):
    # a wrong hat series R
    monkeypatch.setattr(invariants, "regular_class_regular_series",
                        lambda ell, n: partition_series(n))
    with pytest.raises(ArithmeticError):
        kor_invariants(4, 9)
    monkeypatch.undo()
    # a product kernel that misses the largest part size
    real = invariants._multiset_product
    monkeypatch.setattr(invariants, "_multiset_product",
                        lambda n, parts, value: real(n, list(parts)[:-1], value))
    with pytest.raises(ArithmeticError):
        kor_invariants(4, 9)
    with pytest.raises(ArithmeticError):
        full_invariants(4, 8)


def test_graded_to_snf():
    assert graded_to_snf({2: 1, 3: 1}) == (1, 6)
    assert graded_to_snf({3: 1, 6: 1, 72: 1}) == (3, 6, 72)
    assert graded_to_snf(Counter([4, 2, 8])) == (2, 4, 8)
    assert graded_to_snf({2: 2, 12: 1}) == (2, 2, 12)
    chain = graded_to_snf(Counter([6, 10, 15]))
    assert chain == (1, 30, 30)
    for a, b in zip(chain, chain[1:]):
        assert b % a == 0
    with pytest.raises(ValueError):
        graded_to_snf({0: 1, 2: 1})
    with pytest.raises(ValueError):
        graded_to_snf({2: 3, 4: -1})


def test_graded_to_snf_preserves_product():
    import random

    rng = random.Random(11)
    cases = [Counter(rng.choice((1, 2, 3, 4, 6, 8, 9, 12, 18, 36))
                     for _ in range(rng.randint(1, 8))) for _ in range(30)]
    # values over the primes 2, 3, 5, 7 (1 among them), every multiplicity 1..60
    values = [2 ** a * 3 ** b * 5 ** c * 7 ** e
              for a in range(4) for b in range(3) for c in range(2) for e in range(2)]
    for m in range(1, 61):
        entries = {v: rng.randint(1, 60) for v in rng.sample(values, rng.randint(1, 6))}
        entries[rng.choice(values)] = m
        cases.append(entries)
    cases.append({1: 7})
    assert sum(1 in entries for entries in cases) >= 5
    for entries in cases:
        chain = graded_to_snf(entries)
        # the chain rebuilt per prime from the expanded list: each prime's
        # sorted valuations, laid positionwise
        expanded = [v for v, m in entries.items() for _ in range(m)]
        rebuilt = [1] * len(expanded)
        for p in (2, 3, 5, 7):
            for i, e in enumerate(sorted(valuation(v, p) for v in expanded)):
                rebuilt[i] *= p ** e
        assert chain == tuple(rebuilt), entries
        assert prod(chain) == prod(expanded)


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


def test_verify_snf_conjecture_past_the_cli_grid():
    # d <= 10 reaches 42 labels, past the CLI's default grids (d <= 8)
    for ell in range(2, 13):
        (p, r), *rest = prime_factorization(ell)
        theorem = not rest and r <= p
        for d in range(11):
            report = verify_snf_conjecture(ell, d)
            assert report.status in ("verified", "unproven-match"), (ell, d, report.witness)
            assert (report.status == "verified") == theorem, (ell, d)


def _top_exponents(m, primes):
    # the exponents of the primes in the largest invariant factor, computed
    # at the bound v_p(|det|), which no exponent can pass
    det = abs(m.det())
    snf = smith_normal_form(m, det=det, bounds={p: valuation(det, p) for p in primes})
    return {p: valuation(snf.invariant_factors[-1], p) for p in primes}


def test_exponent_bounds_hold_and_are_attained():
    # ell^d * d! annihilates the cokernel of the one-color and tensor
    # matrices, d! that of M_pm, and on these grids their p-parts are the
    # largest invariant factor's: every exponent is at most its bound, which
    # is attained
    for ell in range(2, 17):
        for d in range(11):
            bounds = invariants._exponent_bounds(ell, d)
            assert _top_exponents(gram_matrix(ell, d), bounds) == bounds, (ell, d)
    for d in range(13):
        bounds = {p: factorial_valuation(d, p) for p in range(2, d + 1) if is_prime(p)}
        assert _top_exponents(transition_p_to_m(d).matrix, bounds) == bounds, d
    for ell in (3, 4, 5, 6, 8):
        for w in range(4):
            bounds = invariants._exponent_bounds(ell, w)
            assert _top_exponents(tensor_gram_matrix(ell, w), bounds) == bounds, (ell, w)
    # a bound one short of the largest exponent fails rather than returning
    # a shorter chain
    assert invariants._exponent_bounds(4, 6) == {2: 16}
    x = gram_matrix(4, 6)
    assert smith_normal_form(x, det=abs(x.det()), bounds={2: 16}).invariant_factors[-1] == 2 ** 16
    with pytest.raises(ArithmeticError, match="divisible by"):
        smith_normal_form(x, det=abs(x.det()), bounds={2: 15})


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
    sequential = [integer_snf(gram_matrix(ell, d)).invariant_factors for ell, d in jobs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(
            lambda job: integer_snf(gram_matrix(*job)).invariant_factors, jobs))
    assert threaded == sequential


def _direct_sum_chain(ell, d):
    # the reduction reference as one matrix: gram_matrix(ell, s) repeated
    # once per (ell-2)-multipartition of d - s, and its SNF
    blocks = [Matrix.diagonal([1] * count_multipartitions(ell - 2, d - s)).kron(gram_matrix(ell, s))
              for s in range(d + 1) if count_multipartitions(ell - 2, d - s)]
    m = direct_sum(blocks)
    return smith_normal_form(m, det=abs(m.det()),
                             bounds=invariants._exponent_bounds(ell, d)).invariant_factors


def test_verify_reduction():
    for d in range(4):
        r = verify_reduction(3, d)
        assert r.status == "verified"
        assert abs(r.witness["det_left"]) == 1
        assert abs(r.witness["det_right"]) == 1
    for d in range(5):
        assert verify_reduction(4, d).status == "verified"
    assert verify_reduction(2, 4).status == "verified"


def test_det_exponent_matches_bareiss():
    # |det X| = ell^E(k, d), read off the partitions of d, is the Bareiss
    # determinant: one color (k = 1, where E is the total length) and tensors
    # (k = ell - 1)
    for d in range(11):
        assert invariants._det_exponent(1, d) == total_length(d)
    for ell in (2, 3, 4, 6):
        for d in range(7):
            assert abs(gram_matrix(ell, d).det()) == ell ** invariants._det_exponent(1, d)
    for ell, w in ((3, 4), (4, 4), (5, 3), (6, 3), (8, 3)):
        x = tensor_gram_matrix(ell, w)
        assert abs(x.det()) == ell ** invariants._det_exponent(ell - 1, w), (ell, w)


def test_seed_block_determinants_match_det_exponent():
    # the blocks of B for a k x k seed A have determinant det(A)^E(k, d),
    # sign included: on the seed transforms, whose blocks verify_reduction
    # no longer builds, for ell = 3..8, and on two seeds with |det| > 1
    seeds = [Matrix([[2, 1], [1, 3]]), Matrix([[1, 2, 0], [0, 3, 1], [2, 0, -1]])]
    for ell in range(3, 9):
        seeds += invariants._seed_transforms(ell)
    for seed in seeds:
        for d in range(5):
            blocks = prod(Matrix(block).det() for block in invariants._seed_blocks(seed, d))
            assert blocks == seed.det() ** invariants._det_exponent(seed.rows, d), (seed, d)
    # which verify_reduction reports
    for ell, d in ((3, 3), (4, 2), (5, 1)):
        u, v = invariants._seed_transforms(ell)
        witness = verify_reduction(ell, d).witness
        assert [witness["det_left"], witness["det_right"]] == [
            prod(Matrix(block).det() for block in invariants._seed_blocks(t, d)) for t in (u, v)]


def test_seed_transforms_closed_form(monkeypatch):
    # U * A * V = diag(1, ..., 1, ell) with integral U and V of determinant
    # (-1)^ell, the determinants of the integer kernel's transforms up to 12
    for ell in range(2, 41):
        u, v = invariants._seed_transforms(ell)
        assert u.is_integral() and v.is_integral()
        assert u * lie_cartan_matrix(ell) * v == Matrix.diagonal([1] * (ell - 2) + [ell])
        assert u.det() == v.det() == (-1) ** ell
        if ell <= 12:
            snf = integer_snf(lie_cartan_matrix(ell), want_transforms=True)
            assert (snf.left.det(), snf.right.det()) == (u.det(), v.det()), ell
    # unimodular transforms that do not diagonalize the seed refute the claim
    identity = Matrix.diagonal([1, 1])
    monkeypatch.setattr(invariants, "_seed_transforms", lambda ell: (identity, identity))
    assert verify_reduction(3, 2).status == "refuted"


def test_reduction_reference_is_the_direct_sum_chain():
    # merged per prime from the small blocks, the reference chain must be
    # the SNF of the whole direct sum
    for ell, d in ((2, 4), (3, 3), (4, 2), (4, 4), (5, 3), (6, 3)):
        r = verify_reduction(ell, d)
        assert r.status == "verified"
        assert r.witness["reference"] == _direct_sum_chain(ell, d), (ell, d)


def test_verify_kor_multiset():
    assert verify_kor_multiset(4, 8).status == "verified"
    assert verify_kor_multiset(6, 18).status == "verified"
    for n in range(4):
        assert verify_kor_multiset(5, n).status == "verified"
    assert verify_kor_multiset(6, 120).status == "verified"


def test_counting_lemma_sides_match_enumeration():
    from cartaninv.series import multiplicity_m

    for ell in range(2, 8):
        for n in range(26):
            checks = tally(regular_split(mu, ell)[1].parts for mu in partitions(n)
                           if mu.is_class_regular(ell))
            heads = {}
            for d in range(n // ell + 1):
                for lam in partitions(d):
                    head = tuple(p for p in lam.parts if p % ell)
                    heads[head] = heads.get(head, 0) + multiplicity_m(ell, n, d)
            lhs, rhs = invariants._counting_lemma_sides(ell, n)
            assert len(lhs) == len(rhs) == n // ell + 1
            for a in range(n // ell + 1):
                for alpha in class_regular_partitions(a, ell):
                    assert lhs[a] == checks.get(alpha.parts, 0), (ell, n, alpha)
                    assert rhs[a] == heads.get(alpha.parts, 0), (ell, n, alpha)


def test_counting_lemma_catches_wrong_multiplicities(monkeypatch):
    from cartaninv.series import multiplicity_m

    monkeypatch.setattr(invariants, "multiplicity_m",
                        lambda ell, n, d: multiplicity_m(ell, n, d) + 1)
    report = verify_kor_multiset(4, 12)
    assert report.status == "refuted"
    assert report.witness["counting_lemma"] is False


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
    # 231 labels at d = 16, past the CLI's default grid
    r = verify_determinants(4, 16)
    assert r.status == "verified"
    assert r.witness["by_degree"][16]["det"] == 4 ** total_length(16)


def test_gram_matrix_is_lower_triangular():
    for ell in range(2, 9):
        for d in range(11):
            x = gram_matrix(ell, d).data
            assert not any(x[i][j] for i in range(len(x)) for j in range(i + 1, len(x)))


def test_tensor_gram_blocks_lie_within_seed_blocks():
    # the finest diagonal-block cut of X is at least as fine as that of B
    from cartaninv.linalg import _diagonal_blocks

    for ell in range(2, 7):
        for d in range(5 if ell < 6 else 4):
            seed = lie_cartan_matrix(ell)
            x_stops = {stop for _, stop in _diagonal_blocks(tensor_gram_matrix(ell, d).data)}
            b_blocks = _diagonal_blocks(tensor_diagonal_blocks(seed, d).data)
            assert len(b_blocks) >= len(partitions(d))
            assert {stop for _, stop in b_blocks} <= x_stops, (ell, d)


def test_block_invariant_counts_and_max():
    from cartaninv.partitions import prime_factorization

    for ell in range(2, 9):
        for w in range(7):
            ms = block_invariants(ell, w)
            assert ms.total() == count_multipartitions(ell - 1, w)
            expected = ell ** w
            for p, _ in prime_factorization(ell):
                expected *= p ** factorial_valuation(w, p)
            assert max_value(ms) == expected
