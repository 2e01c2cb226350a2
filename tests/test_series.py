import random
from fractions import Fraction

import pytest

from cartaninv.partitions import class_regular_partitions, partitions
from cartaninv.series import (
    MAX_ORDER,
    Series,
    _length_counts,
    _pack,
    _unpack,
    cartan_det_series,
    check_identity,
    class_regular_length_series,
    class_regular_length_series_direct,
    class_regular_series,
    core_count,
    core_count_series,
    count_multipartitions,
    divisor_series,
    euler_series,
    invariant_multiplicity_series,
    length_series,
    length_series_direct,
    multipartition_series,
    multiplicity_m,
    named_series,
    partition_series,
)
from oracles import core, partition_defect, truncate


def euler_product_restricted(ell, order):
    """P_ell built directly as the product over parts not divisible by ell."""
    c = [0] * (order + 1)
    c[0] = 1
    for i in range(1, order + 1):
        if i % ell:
            for j in range(i, order + 1):
                c[j] += c[j - i]
    return Series(c, order)


def test_series_basics():
    s = Series([1, 2, 3])
    assert s.order == 2 and s.coeffs == (1, 2, 3)
    assert Series([1], 3).coeffs == (1, 0, 0, 0)
    with pytest.raises(TypeError):
        Series([1.5])
    with pytest.raises(TypeError, match="Fraction"):
        Series([1, True, Fraction(2)])
    assert Series([True, 2, False]).coeffs == (1, 2, 0)
    with pytest.raises(ValueError):
        s.coeff(5)
    # arithmetic truncates to the smaller order
    a = Series([1, 1, 1, 1])
    b = Series([1, 2], 1)
    assert (a + b).order == 1
    assert (a * b).coeffs == (1, 3)


def test_cached_series_are_immutable():
    cached = partition_series(5)
    for name, value in (("coeffs", (9,)), ("order", 0), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(cached, name, value)
    with pytest.raises(AttributeError):
        del cached.coeffs
    assert partition_series(5) is cached
    assert cached.coeffs == (1, 1, 2, 3, 5, 7) and cached.order == 5
    # Cartan-reduction reads C_ab once for every factorization ab
    det = cartan_det_series(6, 30)
    assert cartan_det_series(6, 30) is det
    with pytest.raises(AttributeError):
        det.coeffs = (0,) * 31
    assert det == cartan_det_series.__wrapped__(6, 30)
    # the powers of P and the length series are cached and shared as well
    for build, args in ((multipartition_series, (5, 30)), (multipartition_series, (4, 30)),
                        (length_series, (30,)), (class_regular_length_series, (6, 30))):
        cached = build(*args)
        assert build(*args) is cached, build
        with pytest.raises(AttributeError):
            cached.coeffs = (0,) * 31
        assert cached == build.__wrapped__(*args), build


def schoolbook(a, b):
    n = min(a.order, b.order)
    return [sum(a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1))
            for k in range(n + 1)]


def test_mul_matches_schoolbook():
    rng = random.Random(6)
    cases = [(Series([0], 0), Series([5], 0)), (Series([-3], 0), Series([7], 0)),
             (Series([], 9), Series([1, -1, 2], 9)), (Series([], 4), Series([], 4)),
             (Series([0, 0, -1]), Series([2, 0, 0]))]
    for _ in range(60):
        bits = rng.choice((1, 4, 64, 230))
        orders = (rng.randint(0, 40), rng.randint(0, 40))
        a, b = (Series([rng.randint(-2 ** bits, 2 ** bits) * rng.randint(0, 1)
                        for _ in range(order + 1)]) for order in orders)
        cases.append((a, b))
    big = sum(1 for a, b in cases if max(map(abs, a.coeffs)) > 2 ** 200)
    assert big >= 5

    def signed(order, bits):
        return Series([rng.randint(-2 ** bits, 2 ** bits) * rng.randint(0, 1)
                       for _ in range(order + 1)])

    # operands f(q^s), which take the shift-and-add route: s from 2 to past
    # the order, f signed, one or both operands strided, f its constant term
    for order in (0, 1, 5, 17, 40):
        for s in range(2, order + 3):
            f, g = signed(order // s, 64), signed(order // 2, 8)
            strided = f.substitute_power(s, order)
            cases += [(signed(order, 64), strided), (strided, signed(order, 4)),
                      (strided, g.substitute_power(2, order)),
                      (strided, Series([f.coeffs[0]], order))]
    cases += [(Series([3], 6), Series([-2], 6)), (Series([5], 6), Series([0, 1], 6))]
    # coefficients at the edge of a slot width: the bound is 2^(8k-1) - 1,
    # the largest value a slot of k bytes holds, or one more
    for k in (1, 2, 3, 9):
        for edge in (2 ** (8 * k - 1) - 1, 2 ** (8 * k - 1)):
            for sign in (1, -1):
                cases += [(Series([sign * edge, -sign * edge, 0, sign * edge]), Series([1], 3)),
                          (Series([sign * edge]), Series([-1])),
                          (Series([-edge, -edge], 1), Series([sign, sign], 1)),
                          (Series([sign * edge, 0, edge], 2), Series([-1, 0, 0], 2))]
    for a, b in cases:
        product = a * b
        assert product.order == min(a.order, b.order)
        assert list(product.coeffs) == schoolbook(a, b), (a, b)


def test_pow_matches_repeated_multiplication():
    for s in (Series([1, -2, 0, 5, 3]), Series([-1, 4, 1], 6), Series([3, 1, 2]),
              Series([1], 0), Series([-1], 0), Series([7], 0)):
        expected = Series.one(s.order)
        for k in range(10):
            assert s ** k == expected, (s, k)
            expected = expected * s
        if s.coeffs[0] not in (1, -1):
            with pytest.raises(ValueError):
                s ** -1
            continue
        inverse, expected = s.invert(), Series.one(s.order)
        for k in range(1, 10):
            expected = expected * inverse
            assert s ** -k == expected, (s, -k)
            assert s ** -k * s ** k == Series.one(s.order)


def test_multipartition_series_is_the_power_of_p():
    # P^k comes from the cached lower powers; each must equal the plain power
    for n in (0, 1, 7, 60):
        for k in range(13):
            assert multipartition_series(k, n) == partition_series(n) ** k, (k, n)
    for k in range(41):
        assert multipartition_series(k, 30) == partition_series(30) ** k, k
    # about 4000 powers on the chain of a huge k, none of them a recursion
    k = 2 ** 2000 - 1
    assert multipartition_series(k, 1).coeffs == (1, k)


def test_pack_unpack_round_trip():
    for width in range(1, 18):
        edge = 2 ** (8 * width - 1) - 1
        for count in (1, 513):
            values = [(edge, 0, -edge)[i % 3] for i in range(count)]
            packed = _pack(values, width)
            assert _unpack(packed, count, width) == values, (width, count)
            # junk in the slots above count is ignored
            junk = packed + (_pack([-edge, edge, 1], width) << (8 * width * count))
            assert _unpack(junk, count, width) == values, (width, count)


def test_length_counts_against_brute_force():
    parts, order = (2, 3, 7), 40
    p = [0] * (order + 1)  # partitions into the parts 2, 3 and 7
    p[0] = 1
    for j in parts:
        for d in range(j, order + 1):
            p[d] += p[d - j]
    expected = [sum(p[d - j * m] for j in parts for m in range(1, d // j + 1))
                for d in range(order + 1)]
    assert _length_counts(p, parts).coeffs == tuple(expected)


def test_truncate():
    s = partition_series(10)
    assert truncate(s, 4).coeffs == (1, 1, 2, 3, 5)
    with pytest.raises(ValueError):
        truncate(s, 20)


def test_invert_and_substitute():
    P = partition_series(20)
    assert P * P.invert() == Series.one(20)
    geom = Series([1, -1], 10).invert()
    assert geom.coeffs == (1,) * 11
    with pytest.raises(ValueError):
        Series([2, 1], 4).invert()
    sub = P.substitute_power(2)
    assert sub.coeff(4) == 2  # p(2)
    assert sub.coeff(3) == 0
    with pytest.raises(ValueError):
        P.substitute_power(0)


def test_euler_series_is_the_inverse_of_p():
    # the pentagonal-number series equals 1/P at every order up to MAX_ORDER:
    # a truncated inverse is the truncation of the inverse
    whole = partition_series(MAX_ORDER).invert()
    for n in range(MAX_ORDER + 1):
        assert euler_series(n).coeffs == whole.coeffs[: n + 1], n
    for n in (0, 1, 2, 5, 12, 40, 100, MAX_ORDER):
        assert euler_series(n) == partition_series(n).invert(), n
    assert euler_series(12).coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)


def test_substitute_power_to_an_order():
    f = Series([3, -1, 4, 1, -5])
    for a in range(1, 6):
        # one argument: f(q^a) at the order of f, as before
        assert f.substitute_power(a) == f.substitute_power(a, f.order) == Series(
            [f.coeffs[i // a] if i % a == 0 else 0 for i in range(5)])
        for order in range(6 * a):
            if order // a > f.order:
                with pytest.raises(ValueError):
                    f.substitute_power(a, order)
                continue
            sub = f.substitute_power(a, order)
            assert sub.order == order
            assert sub.coeffs == tuple(
                f.coeffs[i // a] if i % a == 0 else 0 for i in range(order + 1))
    assert partition_series(3).substitute_power(4, 15).coeffs == (
        1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0)


def test_reduced_order_series_match_full_order_formulas():
    # each named series builds its q^ell part only to order // ell; the
    # full-order formulas below are the definitions it must still equal
    cases = [(ell, order) for ell in range(2, 13) for order in range(3 * ell + 3)]
    cases += [(ell, 300) for ell in (2, 7, 12)]
    for ell, order in cases:
        P, T = partition_series(order), divisor_series(order)
        inverse = P.substitute_power(ell).invert()
        assert class_regular_series(ell, order) == P * inverse, (ell, order)
        assert core_count_series(ell, order) == P * (inverse ** ell), (ell, order)
        assert invariant_multiplicity_series(ell, order) == P * (inverse ** 2), (ell, order)
        assert cartan_det_series(ell, order) == \
            P * inverse * T.substitute_power(ell), (ell, order)
        if order < 3 * ell + 3:
            for name in ("L-dec", "T-split", "Cartan-det", "full-and-block"):
                assert check_identity(name, order, ell=ell), (name, ell, order)
    for a, b in ((2, 3), (3, 2), (4, 3)):
        for order in range(3 * a * b + 3):
            assert check_identity("Cartan-reduction", order, a=a, b=b), (a, b, order)


def test_partition_series_values():
    P = partition_series(30)
    assert P.coeffs[:7] == (1, 1, 2, 3, 5, 7, 11)
    for d in range(31):
        assert P.coeff(d) == len(partitions(d))


def test_divisor_series():
    T = divisor_series(20)
    assert T.coeff(0) == 0
    assert T.coeff(6) == 4
    assert T.coeff(12) == 6
    for d in range(1, 21):
        assert T.coeff(d) == sum(1 for i in range(1, d + 1) if d % i == 0)


def test_class_regular_series_matches_direct_product():
    for ell in range(2, 9):
        assert class_regular_series(ell, 30) == euler_product_restricted(ell, 30)
        for d in range(21):
            assert class_regular_series(ell, 30).coeff(d) == len(
                class_regular_partitions(d, ell))


def test_named_series_dispatch():
    assert named_series("P", 10) == partition_series(10)
    assert named_series("P^k", 10, k=4).coeff(3) == 40
    assert named_series("D0_ell", 24, ell=6).coeff(24) == 38
    with pytest.raises(ValueError):
        named_series("Q", 10)
    with pytest.raises(ValueError):
        named_series("P_ell", 10)
    with pytest.raises(ValueError):
        named_series("P^k", 10)
    # a parameter the series does not read is rejected, not ignored
    for name, params, flag in [
        ("P", {"ell": 4}, "ell"),
        ("P", {"k": 3}, "k"),
        ("P^k", {"k": 3, "ell": 4}, "ell"),
        ("P_ell", {"ell": 4, "k": 3}, "k"),
    ]:
        with pytest.raises(ValueError, match=f"does not take {flag}"):
            named_series(name, 10, **params)
    with pytest.raises(ValueError, match="order"):
        named_series("P", order=-1)
    # the library call is bounded as the CLI is, before any work
    assert named_series("P", MAX_ORDER).order == MAX_ORDER
    for order in (MAX_ORDER + 1, 100000):
        with pytest.raises(ValueError, match=f"0..{MAX_ORDER}"):
            named_series("P", order=order)


def test_multipartition_counts():
    assert count_multipartitions(4, 3) == 40
    assert count_multipartitions(2, 2) == 5
    assert count_multipartitions(0, 0) == 1
    assert count_multipartitions(0, 3) == 0


def test_core_counts():
    assert core_count(6, 6) == 5
    assert core_count(6, 12) == 20
    assert core_count(6, 18) == 32
    assert core_count(6, 24) == 38
    # against the rim-hook census
    for ell in (4, 6):
        for n in range(21):
            census = sum(
                1 for lam in partitions(n) if core(lam, ell) == lam)
            assert core_count(ell, n) == census


def test_total_length_series_against_enumeration():
    L = length_series(20)
    for d in range(21):
        assert L.coeff(d) == sum(lam.length for lam in partitions(d))


def test_direct_length_routes_match_enumeration():
    L = length_series_direct(20)
    for d in range(21):
        assert L.coeff(d) == sum(lam.length for lam in partitions(d))
    for ell in range(2, 8):
        L = class_regular_length_series_direct(ell, 20)
        for d in range(21):
            assert L.coeff(d) == sum(
                lam.length for lam in class_regular_partitions(d, ell)), (ell, d)


def test_cartan_det_series_against_defect_sums():
    for p in (2, 3):
        C = cartan_det_series(p, 15)
        for n in range(16):
            defect_sum = sum(
                partition_defect(lam, p) for lam in class_regular_partitions(n, p))
            assert C.coeff(n) == defect_sum


def test_multiplicity_m():
    assert multiplicity_m(6, 18, 2) == 9
    assert multiplicity_m(6, 18, 3) == 1
    assert multiplicity_m(4, 8, 1) == 3
    with pytest.raises(ValueError):
        multiplicity_m(6, 18, 4)
    # cross-check: sum over weights of core count times block count
    for ell in (2, 3, 4, 6):
        for n in range(15):
            for d in range(n // ell + 1):
                expected = sum(
                    count_multipartitions(ell - 2, w - d) * core_count(ell, n - ell * w)
                    for w in range(d, n // ell + 1))
                assert multiplicity_m(ell, n, d) == expected


def test_multiplicity_totals():
    # the multiplicities account for every class-regular partition
    for ell in (4, 6, 12):
        for n in range(20):
            total = sum(
                len(partitions(d)) * multiplicity_m(ell, n, d)
                for d in range(n // ell + 1))
            assert total == class_regular_series(ell, n).coeff(n)


def test_identities_small_order():
    assert check_identity("LPT", 40)
    for ell in range(2, 13):
        for name in ("l-LPT", "L-dec", "T-split", "Cartan-det",
                     "full-and-block", "block-det"):
            assert check_identity(name, 40, ell=ell), (name, ell)
    for a, b in ((2, 3), (3, 2), (2, 2), (4, 3), (6, 2)):
        assert check_identity("Cartan-reduction", 40, a=a, b=b)
    with pytest.raises(ValueError):
        check_identity("nope", 40)
    with pytest.raises(ValueError):
        check_identity("l-LPT", 40)
    with pytest.raises(ValueError):
        check_identity("LPT", 1000)
    # a negative order is out of range, not an IndexError from the series
    with pytest.raises(ValueError, match="order"):
        check_identity("LPT", -1)


def test_lpt_value():
    L = length_series(10)
    P, T = partition_series(10), divisor_series(10)
    assert L.coeff(4) == sum(P.coeff(4 - j) * T.coeff(j) for j in range(5)) == 12
