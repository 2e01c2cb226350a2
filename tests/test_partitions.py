import importlib
import math

import pytest

from cartaninv.partitions import (
    Partition,
    class_regular_partitions,
    color_sequences,
    factorial_valuation,
    multipartitions,
    partitions,
    regular_partitions,
    total_length,
    valuation,
)
from oracles import (
    adic_decomposition,
    core,
    glaisher,
    partition_defect,
    recompose,
    regular_split,
    repeat_parts,
)


def partition_count_oracle(limit):
    """p(0..limit) via the pentagonal-number recurrence."""
    p = [1] + [0] * limit
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((2, -1))
    assert Partition(()).size == 0
    assert Partition(()).length == 0


def test_enumeration_order():
    assert [p.parts for p in partitions(0)] == [()]
    assert [p.parts for p in partitions(2)] == [(2,), (1, 1)]
    four = [p.parts for p in partitions(4)]
    assert four[0] == (4,)
    assert four[-1] == (1, 1, 1, 1)
    assert four == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    # descending lexicographic throughout
    for d in range(9):
        ps = [p.parts for p in partitions(d)]
        assert ps == sorted(ps, reverse=True)
        assert len(set(ps)) == len(ps)


def test_counts_against_pentagonal_oracle():
    oracle = partition_count_oracle(30)
    for d in range(31):
        assert len(partitions(d)) == oracle[d]


def test_class_regular_and_regular():
    assert {p.parts for p in class_regular_partitions(3, 2)} == {(3,), (1, 1, 1)}
    assert {p.parts for p in class_regular_partitions(4, 4)} == {
        (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)}
    assert len(class_regular_partitions(6, 6)) == 10
    assert {p.parts for p in regular_partitions(3, 2)} == {(3,), (2, 1)}
    assert len(regular_partitions(8, 4)) == 16
    # the two families are equinumerous for every (d, ell)
    for ell in range(1, 9):
        for d in range(16):
            assert len(class_regular_partitions(d, ell)) == len(
                regular_partitions(d, ell))


def multipartition_count_convolution(k, limit):
    """|M_k(d)| for d <= limit via k-fold convolution of partition counts."""
    oracle = partition_count_oracle(limit)
    conv = [0] * (limit + 1)
    conv[0] = 1
    for _ in range(k):
        nxt = [0] * (limit + 1)
        for a in range(limit + 1):
            if conv[a]:
                for b in range(limit + 1 - a):
                    nxt[a + b] += conv[a] * oracle[b]
        conv = nxt
    return conv


def test_enumerations_are_tuples_of_partitions():
    # partitions(d) is one cached tuple, and each multipartition a k-tuple
    # of partitions whose sizes add up to d
    assert partitions(6) is partitions(6)
    assert isinstance(partitions(6), tuple)
    for d in range(7):
        for mp in multipartitions(3, d):
            assert isinstance(mp, tuple) and len(mp) == 3
            assert all(isinstance(c, Partition) for c in mp)
            assert sum(c.size for c in mp) == d


def test_multipartition_counts_and_order():
    assert len(multipartitions(2, 2)) == 5
    assert len(multipartitions(4, 2)) == 14
    assert len(multipartitions(4, 4)) == 105
    for k in range(1, 5):
        conv = multipartition_count_convolution(k, 10)
        for d in range(11):
            mps = multipartitions(k, d)
            assert len(mps) == conv[d]
            assert len(set(mps)) == len(mps)


def test_multipartition_counts_binomial_oracle():
    # independent count: each part-value group of size m colors in
    # C(k + m - 1, m) ways
    for k in range(1, 7):
        conv = multipartition_count_convolution(k, 12)
        for d in range(13):
            total = 0
            for lam in partitions(d):
                ways = 1
                for m in lam.multiplicities().values():
                    ways *= math.comb(k + m - 1, m)
                total += ways
            assert total == conv[d]


def test_multipartition_canonical_order():
    comps = [[c.parts for c in mp] for mp in multipartitions(2, 2)]
    # canonical: outer by flattened partition, inner by colors, so the pairs
    # ((2,), (1,)), ((2,), (2,)), ((1, 1), (1, 1)), ((1, 1), (1, 2)),
    # ((1, 1), (2, 2)) in turn
    assert comps == [
        [(2,), ()], [(), (2,)],
        [(1, 1), ()], [(1,), (1,)], [(), (1, 1)],
    ]
    # the same order on larger grids, with the (partition, colors) pair
    # rebuilt from the components: part p of component c gets color c
    for k in range(1, 4):
        for d in range(7):
            keys = []
            for mp in multipartitions(k, d):
                pairs = sorted((-p, c) for c, comp in enumerate(mp, 1)
                               for p in comp.parts)
                keys.append((tuple(p for p, _ in pairs), tuple(c for _, c in pairs)))
            assert keys == sorted(set(keys))


def test_valuations_and_defects():
    assert valuation(12, 2) == 2
    assert valuation(12, 3) == 1
    assert factorial_valuation(5, 2) == 3
    assert 2 ** factorial_valuation(5, 2) == 8
    assert partition_defect(Partition((2, 2, 1, 1, 1, 1)), 2) == 4
    with pytest.raises(ValueError):
        valuation(12, 4)
    with pytest.raises(ValueError):
        factorial_valuation(5, 6)
    with pytest.raises(ValueError):
        partition_defect(Partition((2, 1)), 9)


def test_adic_decomposition():
    layers = adic_decomposition(Partition((4, 2, 1, 1)), 2)
    assert [l.parts for l in layers] == [(1, 1), (1,), (1,)]
    assert adic_decomposition(Partition((3, 1)), 2)[0].parts == (3, 1)
    assert len(adic_decomposition(Partition((3, 1)), 2)) == 1
    for base in (2, 3, 4):
        for d in range(11):
            for lam in partitions(d):
                layers = adic_decomposition(lam, base)
                assert all(l.is_class_regular(base) for l in layers)
                assert recompose(layers, base) == lam


def test_regular_split():
    hat, check = regular_split(Partition((1,) * 8), 4)
    assert hat.parts == () and check.parts == (1, 1)
    hat, check = regular_split(Partition((2, 1, 1, 1, 1, 1, 1)), 4)
    assert hat.parts == (2, 1, 1) and check.parts == (1,)
    with pytest.raises(ValueError):
        regular_split(Partition((4, 1)), 4)
    for n in range(13):
        for mu in class_regular_partitions(n, 4):
            hat, check = regular_split(mu, 4)
            assert hat.is_regular(4) and hat.is_class_regular(4)
            assert check.is_class_regular(4)
            rebuilt = sorted(hat.parts + repeat_parts(check, 4).parts if check.parts
                             else hat.parts, reverse=True)
            assert tuple(rebuilt) == mu.parts


def test_glaisher():
    assert glaisher(Partition((1, 1, 1)), 2).parts == (2, 1)
    with pytest.raises(ValueError):
        glaisher(Partition((2,)), 2)
    for ell in (2, 3, 4):
        for d in range(13):
            domain = class_regular_partitions(d, ell)
            image = {glaisher(lam, ell) for lam in domain}
            assert len(image) == len(domain)
            assert image == set(regular_partitions(d, ell))
            for lam in domain:
                g = glaisher(lam, ell)
                assert g.size == lam.size
                if lam.is_regular(ell):
                    assert g == lam


def test_core():
    assert core(Partition((3, 1)), 4).parts == ()
    assert core(Partition((2, 2)), 4).parts == (2, 2)
    for ell in (2, 3, 4, 6):
        for d in range(10):
            for lam in partitions(d):
                c = core(lam, ell)
                assert core(c, ell) == c
                assert (lam.size - c.size) % ell == 0


def test_total_length():
    assert total_length(4) == 12
    for d in range(8):
        assert total_length(d) == sum(l.length for l in partitions(d))


def test_color_sequences_shape():
    lam = Partition((2, 1, 1))
    seqs = color_sequences(lam, 2)
    # part 2 takes any color, the two 1s a weakly increasing pair
    assert len(seqs) == 2 * 3
    assert seqs == sorted(seqs)


def test_package_attribute_is_the_module():
    import cartaninv

    module = importlib.import_module("cartaninv.partitions")
    assert cartaninv.partitions is module
    assert module.partitions is partitions
    assert [p.parts for p in cartaninv.partitions.partitions(2)] == [(2,), (1, 1)]
