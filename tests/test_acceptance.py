"""Acceptance suite: each test pins one numbered criterion at its exact
tolerance and prints a pass line when it holds."""

import time

from cartaninv.cli import main
from cartaninv.invariants import (
    _exponent_bounds,
    block_invariants,
    full_invariants,
    graded_invariant,
    graded_to_snf,
    tensor_gram_matrix,
    verify_determinants,
    verify_kor_multiset,
    verify_reduction,
    verify_snf_conjecture,
)
from cartaninv.linalg import smith_normal_form
from cartaninv.partitions import (
    class_regular_partitions,
    factorial_valuation,
    partitions,
    prime_factorization,
    valuation,
)
from cartaninv.series import check_identity, count_multipartitions, length_series
from oracles import integer_snf, max_value


def _report(number, text):
    print(f"criterion {number}: PASS - {text}")


def _cli_lines(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out.strip().splitlines()


def test_criterion_1_example_block(capsys):
    start = time.perf_counter()
    lines = _cli_lines(capsys, "invariants", "--ell", "4", "--weight", "2")
    assert lines[-1] == "total multiset: 32^1 4^2 2^1 1^5"
    assert integer_snf(tensor_gram_matrix(4, 2)).invariant_factors == (
        1, 1, 1, 1, 1, 2, 4, 4, 32)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"weight-2 block at ell=4 and its 9x9 invariant chain "
               f"({elapsed:.2f}s)")


def test_criterion_2_full_multiset_18(capsys):
    start = time.perf_counter()
    ms = full_invariants(6, 18)
    assert ms.entries == {1: 222, 2: 1, 3: 9, 6: 54, 18: 1, 72: 9, 1296: 1}
    lines = _cli_lines(capsys, "invariants", "--ell", "6", "--n", "18")
    assert "0 | 1 | 40×1+14×5+4×20+1×32=222" in lines
    assert "1 | 6 | 14×1+4×5+1×20=54" in lines
    assert "2 | 3, 72 | 4×1+1×5=9" in lines
    assert "3 | 2, 18, 1296 | 1×1=1" in lines
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"full multiset at ell=6, n=18 with degree breakdowns "
               f"({elapsed:.2f}s)")


def test_criterion_3_full_and_block_24():
    start = time.perf_counter()
    full = full_invariants(6, 24)
    assert full.entries == {1: 751, 2: 9, 3: 55, 6: 222, 9: 1, 12: 1, 18: 9,
                            72: 54, 216: 1, 1296: 9, 31104: 1}
    block = block_invariants(6, 4)
    assert block.entries == {1: 105, 2: 4, 3: 15, 6: 40, 9: 1, 12: 1, 18: 4,
                             72: 14, 216: 1, 1296: 4, 31104: 1}
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(3, f"full multiset at ell=6, n=24 and weight-4 block "
               f"({elapsed:.2f}s)")


def test_criterion_4_theorem_range_snf():
    start = time.perf_counter()
    for p, r in ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (5, 1)):
        for d in range(9):
            report = verify_snf_conjecture(p ** r, d)
            assert report.status == "verified", (p, r, d, report.witness)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(4, f"invariant factors match the closed form on the proven grid "
               f"({elapsed:.2f}s)")


def test_criterion_5_composite_probes():
    for ell in (6, 12):
        for d in range(7):
            report = verify_snf_conjecture(ell, d)
            assert report.status == "unproven-match", (ell, d, report.witness)
    statuses = []
    for d in range(5):
        report = verify_snf_conjecture(8, d)
        assert report.status in ("unproven-match", "unproven-mismatch")
        statuses.append(f"d={d}:{report.status}")
    _report(5, "composite ell in {6,12} match exactly; ell=8 probe reports: "
               + ", ".join(statuses))


def test_criterion_6_determinants():
    start = time.perf_counter()
    for ell in (2, 3, 4, 6, 9, 12):
        report = verify_determinants(ell, 8)
        assert report.status == "verified", (ell, report.witness["failures"])
    for p in (2, 3, 5):
        for r in (1, 2, 3, 4):
            ell = p ** r
            for d in range(13):
                log_sum = sum(
                    valuation(graded_invariant(lam, ell), p)
                    for lam in partitions(d))
                assert log_sum == r * length_series(d).coeff(d), (p, r, d)
    elapsed = time.perf_counter() - start
    _report(6, f"matrix determinants to d=8 and closed-form exponent sums "
               f"to d=12 ({elapsed:.2f}s)")


def test_criterion_7_series_identities():
    start = time.perf_counter()
    assert check_identity("LPT", 60)
    for name in ("l-LPT", "L-dec", "T-split", "Cartan-det", "full-and-block",
                 "block-det"):
        for ell in range(2, 13):
            assert check_identity(name, 60, ell=ell), (name, ell)
    for a in range(2, 13):
        for b in range(2, 13):
            assert check_identity("Cartan-reduction", 60, a=a, b=b), (a, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(7, f"all eight identities to order 60 for ell, a, b in 2..12 "
               f"({elapsed:.2f}s)")


def test_criterion_8_kor_multiset():
    start = time.perf_counter()
    for ell in (4, 6, 12):
        for n in range(25):
            report = verify_kor_multiset(ell, n)
            assert report.status == "verified", (ell, n)
    elapsed = time.perf_counter() - start
    _report(8, f"diagonal-entry multisets and the counting identity for "
               f"ell in {{4,6,12}}, n <= 24 ({elapsed:.2f}s)")


def test_criterion_9_reduction():
    start = time.perf_counter()
    for ell, d_max in ((3, 3), (4, 2)):
        for d in range(d_max + 1):
            report = verify_reduction(ell, d)
            assert report.status == "verified", (ell, d, report.witness)
            assert abs(report.witness["det_left"]) == 1
            assert abs(report.witness["det_right"]) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(9, f"tensor-space reduction and unimodular transforms "
               f"({elapsed:.2f}s)")


def test_criterion_9_table2_block_from_its_matrix():
    # the weight-4 block of Table 2 at ell=6 (golden/table2_block_ell6_w4.txt),
    # from the Smith form of the actual 190 x 190 multipartition matrix
    start = time.perf_counter()
    x = tensor_gram_matrix(6, 4)
    assert x.rows == 190
    assert smith_normal_form(x, det=abs(x.det()),
                             bounds=_exponent_bounds(6, 4)).invariant_factors == graded_to_snf(
        block_invariants(6, 4).entries)
    elapsed = time.perf_counter() - start
    _report(9, f"Table 2 weight-4 block at ell=6 from its 190x190 matrix "
               f"({elapsed:.2f}s)")


def test_criterion_10_structural_counts():
    for ell in (4, 6):
        for n in range(25):
            assert full_invariants(ell, n).total() == len(
                class_regular_partitions(n, ell))
    for ell in range(2, 9):
        for w in range(7):
            ms = block_invariants(ell, w)
            assert ms.total() == count_multipartitions(ell - 1, w)
            expected = ell ** w
            for p, _ in prime_factorization(ell):
                expected *= p ** factorial_valuation(w, p)
            assert max_value(ms) == expected
    _report(10, "multiset sizes match the partition counts and the largest "
                "block entry matches its closed form")
