import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import prod

import pytest

import cartaninv.invariants as invariants
from cartaninv import cli, linalg
from cartaninv.invariants import (gram_matrix, graded_invariants, graded_to_snf, lie_cartan_matrix,
                                  tensor_gram_matrix, verify_reduction, verify_snf_conjecture)
from cartaninv.linalg import Matrix, direct_sum, smith_normal_form, symmetric_power
from cartaninv.partitions import partitions, valuation
from cartaninv.series import length_series
from oracles import integer_snf, snf_diagonal, symmetric_power_by_expansion, transpose


def tridiagonal(n):
    return Matrix(
        [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
         for i in range(n)]
    )


def test_matrix_basics():
    m = Matrix([[1, 0], [1, 2]])
    assert m.rows == 2 and m.cols == 2
    assert m[(1, 1)] == 2
    assert m.is_integral()
    assert not Matrix([[Fraction(1, 2)]]).is_integral()
    # a bool is an int; a non-integral entry in any row, after int rows, is not
    assert Matrix([[True, 2], [3, False]]).is_integral()
    assert not Matrix([[1, 2], [3, Fraction(1, 3)]]).is_integral()
    # integral Fractions normalize to ints; bools and other Fractions stay
    assert type(Matrix([[Fraction(4, 2)]])[(0, 0)]) is int
    assert type(Matrix([[True]])[(0, 0)]) is bool
    assert Matrix([[Fraction(1, 2)]])[(0, 0)] == Fraction(1, 2)
    mixed = Matrix([[1, Fraction(6, 3), Fraction(1, 3)]]).data[0]
    assert [type(x) for x in mixed] == [int, int, Fraction]
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(TypeError):
        Matrix([[1.5]])
    with pytest.raises(TypeError):
        Matrix([[1, 1.5]])


def test_mul_and_shape_errors():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[1], [1]])
    assert (a * b).data == ((3,), (7,))
    with pytest.raises(ValueError):
        b * a


def test_det_and_inverse():
    assert tridiagonal(3).det() == 4
    inv = Matrix([[1, 0], [1, 2]]).inverse()
    assert inv == Matrix([[1, 0], [Fraction(-1, 2), Fraction(1, 2)]])
    with pytest.raises(ValueError):
        Matrix([[1, 1], [1, 1]]).inverse()
    # rationals come only out of inverse; det takes integral matrices
    with pytest.raises(ValueError, match="integral"):
        Matrix([[Fraction(1, 2)]]).det()


def test_kron_and_direct_sum():
    m = Matrix([[1, 2], [3, 4]])
    assert Matrix.diagonal([1, 1]).kron(m) == direct_sum([m, m])
    a = Matrix([[1, 2]])
    b = Matrix([[0, 1], [1, 0]])
    k = a.kron(b)
    assert k.rows == 2 and k.cols == 4
    assert k.data == ((0, 1, 0, 2), (1, 0, 2, 0))


def test_symmetric_power():
    y = Matrix([[2, -1], [-1, 2]])
    assert symmetric_power(y, 1) == y
    assert symmetric_power(y, 0) == Matrix([[1]])
    s2 = symmetric_power(y, 2)
    idx = list(combinations_with_replacement(range(2), 2))
    assert s2[(idx.index((0, 0)), idx.index((1, 1)))] == 1
    # dimension of the m-th power of a k x k matrix is C(k+m-1, m)
    assert symmetric_power(Matrix.diagonal([1] * 3), 3).rows == 10
    # diagonal input stays diagonal with product entries
    d = Matrix.diagonal([2, 3, 5])
    s = symmetric_power(d, 2)
    pairs = list(combinations_with_replacement(range(3), 2))
    for i, u in enumerate(pairs):
        for j, v in enumerate(pairs):
            expected = (d[(u[0], u[0])] * d[(u[1], u[1])]) if u == v else 0
            assert s[(i, j)] == expected


def test_symmetric_power_equals_dict_expansion():
    # the cached operator rows against the per-row dict expansion
    seeds = [lie_cartan_matrix(ell) for ell in range(2, 9)]
    seeds.append(Matrix([[3, -2, 0], [1, 0, -4], [-1, 5, 2]]))
    for y in seeds:
        for m in range(6):
            assert symmetric_power(y, m) == symmetric_power_by_expansion(y, m), (y, m)


def test_symmetric_power_determinant():
    # induced-map determinant for a 2x2 seed is det^(m(m+1)/2)
    y = Matrix([[2, -1], [-1, 2]])
    for m in range(1, 5):
        assert symmetric_power(y, m).det() == 3 ** (m * (m + 1) // 2)


def test_snf_examples():
    assert integer_snf(Matrix([[4, 0], [6, 16]])).invariant_factors == (2, 32)
    assert integer_snf(Matrix.diagonal([2, 3])).invariant_factors == (1, 6)
    for ell in range(2, 9):
        chain = integer_snf(tridiagonal(ell - 1)).invariant_factors
        assert chain == (1,) * (ell - 2) + (ell,)
    for snf in (integer_snf, lambda m: smith_normal_form(m, det=2, bounds={2: 1})):
        with pytest.raises(ValueError):
            snf(Matrix([[Fraction(1, 2)]]))


def test_snf_zero_and_rectangular():
    assert integer_snf(Matrix([[0, 0], [0, 0]])).invariant_factors == (0, 0)
    assert integer_snf(Matrix([[2, 4, 6]])).invariant_factors == (2,)
    assert integer_snf(Matrix([[2], [3]])).invariant_factors == (1,)
    # the package's route takes square nonsingular input, needs |det| and
    # the bounds, both by keyword, and hands out no transforms
    for m, det in ((Matrix([[1, 2], [2, 4]]), 0), (Matrix([[2, 4, 6]]), 2)):
        with pytest.raises(ValueError, match="det= and bounds="):
            smith_normal_form(m, det=det, bounds={2: 1, 3: 1})
    m = Matrix([[2, 0], [0, 3]])
    for args, kwargs in [((m, True), {"det": 6, "bounds": {2: 1, 3: 1}}), ((m,), {}),
                         ((m,), {"bounds": {2: 1, 3: 1}}), ((m, 6), {"bounds": {2: 1, 3: 1}}),
                         ((m,), {"det": 6, "primes": (2, 3)})]:
        with pytest.raises(TypeError):
            smith_normal_form(*args, **kwargs)
    # |det| is a positive int
    for det in (-6, 6.0, None, "6"):
        with pytest.raises(ValueError, match="det= and bounds="):
            smith_normal_form(m, det=det, bounds={2: 1, 3: 1})
    with pytest.raises(ValueError, match="not prime"):
        smith_normal_form(Matrix.diagonal([2, 4]), det=8, bounds={4: 1})
    # a negative bound would make p ** k a float; no bound but a
    # non-negative int is taken
    for bound in (-1, -3, 1.0, 2.5, None, "1"):
        with pytest.raises(ValueError, match="not a non-negative int"):
            smith_normal_form(m, det=6, bounds={2: 1, 3: bound})


def test_snf_rank_deficient():
    # rank-one outer product: one nonzero factor, the rest zero
    u, v = (2, 4, 6), (3, 5)
    m = Matrix([[a * b for b in v] for a in u])
    chain = _check_snf(m)
    assert sum(1 for x in chain if x) == 1
    with_zero_row = Matrix([[1, 2], [0, 0], [3, 4]])
    chain = _check_snf(with_zero_row)
    assert chain == (1, 2)


def test_snf_transpose_invariance():
    rng = random.Random(17)
    for _ in range(15):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = Matrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        assert integer_snf(m).invariant_factors == integer_snf(transpose(m)).invariant_factors


def _check_snf(m):
    res = integer_snf(m, want_transforms=True)
    chain = res.invariant_factors
    # divisibility, nonnegativity, zeros last
    for a, b in zip(chain, chain[1:]):
        assert a >= 0 and b >= 0
        if b != 0:
            assert a != 0 and b % a == 0
    assert res.left.det() in (1, -1)
    assert res.right.det() in (1, -1)
    assert res.left * m * res.right == snf_diagonal(chain, m.rows, m.cols)
    return chain


def test_snf_randomized_transforms():
    rng = random.Random(2024)
    for _ in range(60):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = Matrix(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)])
        chain = _check_snf(m)
        if rows == cols:
            det = m.det()
            if det:
                prod = 1
                for x in chain:
                    prod *= x
                assert prod == abs(det)


def test_snf_permutation_invariance():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 6)
        m = Matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        rows = list(range(n))
        cols = list(range(n))
        rng.shuffle(rows)
        rng.shuffle(cols)
        permuted = Matrix([[m[(i, j)] for j in cols] for i in rows])
        assert integer_snf(m).invariant_factors == integer_snf(permuted).invariant_factors


def test_snf_large_entries():
    # arbitrary precision: no overflow anywhere
    big = 10 ** 30
    m = Matrix([[big, 1], [0, big]])
    chain = integer_snf(m).invariant_factors
    assert chain == (1, big * big)


def test_snf_matches_sympy():
    # two independent oracles; the integer kernel's transform-carrying array
    # must give the same chain, including on non-square inputs where left and
    # right differ in size
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors
    from sympy.polys.domains import ZZ

    rng = random.Random(31)
    deficient = 0
    for trial in range(90):
        rows = rng.randint(1, 7)
        cols = rows if trial % 3 == 0 else rng.randint(1, 7)
        m = Matrix([[rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)])
        if trial % 3 == 2 and min(rows, cols) > 1:
            rank = rng.randint(1, min(rows, cols) - 1)
            u = Matrix([[rng.randint(-5, 5) for _ in range(rank)] for _ in range(rows)])
            v = Matrix([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rank)])
            m = u * v
        expected = tuple(int(x) for x in sympy_factors(sympy.Matrix(m.data), domain=ZZ))
        assert integer_snf(m).invariant_factors == expected
        assert integer_snf(m, want_transforms=True).invariant_factors == expected
        deficient += 0 in expected
    assert deficient >= 10


def test_snf_pivot_equal_to_later_entry():
    # an entry equal to the pivot leaves no remainder, so the integer kernel
    # clears it at once rather than promoting it; the local route agrees, on
    # these and on gram_matrix(3, 9)
    assert integer_snf(Matrix([[2, 2], [0, 2]])).invariant_factors == (2, 2)
    assert integer_snf(Matrix([[4, 6], [2, 2]])).invariant_factors == (2, 2)
    assert smith_normal_form(Matrix([[2, 2], [0, 2]]), det=4,
                             bounds={2: 1}).invariant_factors == (2, 2)
    assert smith_normal_form(gram_matrix(3, 9), det=3 ** length_series(9).coeff(9),
                             bounds={3: 13}).invariant_factors == graded_to_snf(
        Counter(g.value for g in graded_invariants(3, 9)))


def _unimodular(rng, n, lower):
    return Matrix([[rng.choice((-1, 1)) if i == j
                    else (rng.randint(-30, 30) if (i > j) == lower else 0)
                    for j in range(n)] for i in range(n)])


def test_snf_of_scrambled_known_chain(monkeypatch):
    # U * diag(chain) * V with unimodular U and V has exactly that chain, by
    # the integer kernel, and the local route once the chain is over
    # {2, 3, 5}, in one pass per prime at precision k = the last factor's
    # exponent + 1, while a bound one short of a positive exponent is an
    # ArithmeticError; a last factor times p^20 has an exponent far past its
    # share of v_p(|det|)
    passes = []
    local_exponents = linalg._local_exponents
    monkeypatch.setattr(linalg, "_local_exponents",
                        lambda rows, p, k: passes.append((p, k)) or local_exponents(rows, p, k))
    rng = random.Random(11)
    big = 2 ** 64 + 13
    huge = repeated = local = short = 0
    for trial in range(40):
        n = rng.randint(1, 7)
        chain, d = [], 1
        for _ in range(n):
            d *= rng.choice((1, 1, 2, 3, 6, big if trial % 4 == 0 else 5))
            chain.append(d)
        if trial % 4 == 1:
            chain[-1] *= rng.choice((2, 3, 5)) ** 20
        u = _unimodular(rng, n, True) * _unimodular(rng, n, False)
        v = _unimodular(rng, n, False) * _unimodular(rng, n, True)
        m = u * Matrix.diagonal(chain) * v
        assert integer_snf(m).invariant_factors == tuple(chain), chain
        assert integer_snf(m, want_transforms=True).invariant_factors == tuple(chain)
        if trial % 4:
            bounds = {p: valuation(chain[-1], p) for p in (2, 3, 5)}
            det = prod(chain)
            passes.clear()
            chain_bounds = smith_normal_form(m, det=det, bounds=bounds).invariant_factors
            assert chain_bounds == tuple(chain), chain
            assert passes == [(p, e + 1) for p, e in bounds.items()]
            loose = {p: e + 7 for p, e in bounds.items()}
            chain_loose = smith_normal_form(m, det=det, bounds=loose).invariant_factors
            assert chain_loose == tuple(chain), chain
            local += 1
            for p, e in bounds.items():
                if e:
                    with pytest.raises(ArithmeticError, match="divisible by"):
                        smith_normal_form(m, det=det, bounds={**bounds, p: e - 1})
                    short += e >= 20
        huge += chain[-1] > big
        repeated += len(set(chain)) < n
    assert huge >= 4 and repeated >= 10 and local == 30 and short >= 8


def test_snf_modular_route_checks_its_product():
    # |det| = 28: the local route's exponents must sum to v_p(|det|) at each
    # given prime, and no other prime may be left in |det|; so a wrong |det|
    # fails, v_2 one too high or too low, or with an extra factor 3 whether
    # 3 is among the bounds or not
    m = Matrix([[4, 6, 1], [2, 2, 0], [1, 5, 9]])
    assert smith_normal_form(m, det=28, bounds={2: 2, 7: 1}).invariant_factors == (1, 1, 28)
    with pytest.raises(ArithmeticError, match="outside the primes"):
        smith_normal_form(m, det=28, bounds={2: 2})
    for det, bounds, message in [(56, {2: 2, 7: 1}, "do not sum"),
                                 (14, {2: 2, 7: 1}, r"divisible by 2\^2"),
                                 (84, {2: 2, 7: 1}, "factor 3 outside the primes"),
                                 (84, {2: 2, 3: 1, 7: 1}, "do not sum")]:
        with pytest.raises(ArithmeticError, match=message):
            smith_normal_form(m, det=det, bounds=bounds)
    # the same on a builder matrix: |det X| = 4^L(6) = 2^38
    x, det = gram_matrix(4, 6), 4 ** length_series(6).coeff(6)
    assert smith_normal_form(x, det=det, bounds={2: 16}).invariant_factors[-1] == 2 ** 16
    for wrong, message in [(2 * det, "do not sum"), (det // 2, "do not sum"),
                           (3 * det, "factor 3 outside")]:
        with pytest.raises(ArithmeticError, match=message):
            smith_normal_form(x, det=wrong, bounds={2: 16})


def _finest_cut(rows):
    # every k whose upper-right corner rows[:k][k:] is all zero closes a block
    n = len(rows)
    stops = [k for k in range(1, n + 1)
             if not any(rows[i][j] for i in range(k) for j in range(k, n))]
    return list(zip([0] + stops, stops))


def _block_lower(rng, sizes, singular=None, holes=0.0):
    # random blocks on the diagonal, random entries below them, zeros above;
    # block ``singular`` repeats its first row, and each entry inside a block
    # is zero with probability ``holes`` (trailing zeros included)
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    start = 0
    for b, size in enumerate(sizes):
        for i in range(start, start + size):
            for j in range(start + size):
                inside = j >= start
                if not (inside and rng.random() < holes):
                    rows[i][j] = rng.randint(-9, 9)
        if b == singular:
            for i in range(start + 1, start + size):
                rows[i][start:start + size] = rows[start][start:start + size]
        start += size
    return rows


def test_block_determinant_matches_oracles():
    sympy = pytest.importorskip("sympy")
    from cartaninv.linalg import _diagonal_blocks

    rng = random.Random(41)
    shapes = [[1] * 6, [1, 3, 1, 2], [4], [2, 2, 2], [3, 1, 4], [1, 5], [6, 1]]
    seen = {"ones": 0, "singular": 0, "trailing": 0, "dense": 0}
    for trial in range(120):
        sizes = rng.choice(shapes)
        singular = rng.randrange(len(sizes)) if trial % 5 == 0 else None
        holes = 0.0 if trial % 4 == 0 else 0.3
        rows = _block_lower(rng, sizes, singular, holes)
        if trial % 6 == 5:  # dense: no zero anywhere, so one block
            rows = [[rng.choice((-1, 1)) * rng.randint(1, 9) for _ in row] for row in rows]
        m = Matrix(rows)
        blocks = _diagonal_blocks(rows)
        assert blocks == _finest_cut(rows)
        det = m.det()
        assert det == int(sympy.Matrix(rows).det())
        seen["ones"] += any(stop - start == 1 for start, stop in blocks)
        seen["singular"] += singular is not None and sizes[singular] > 1 and det == 0
        seen["trailing"] += any(
            any(rows[i][j] for j in range(i + 1, stop)) and not rows[i][stop - 1]
            for start, stop in blocks for i in range(start, stop - 1))
        seen["dense"] += len(blocks) == 1 and all(all(row) for row in rows)
    assert min(seen.values()) >= 5, seen


def test_snf_computes_no_det(monkeypatch, capsys):
    # the local route takes |det| from its caller and computes none, on a
    # dense matrix and on the builders' matrices, whose |det| is in closed
    # form; verify_reduction's Bareiss on the seed transforms, outside the
    # SNF, shows that the hooks see determinants
    inside, calls = [], []
    snf = linalg.smith_normal_form

    def traced_snf(*args, **kwargs):
        inside.append(True)
        try:
            return snf(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(invariants, "smith_normal_form", traced_snf)
    true_det = Matrix.det
    monkeypatch.setattr(Matrix, "det", lambda self: calls.append(bool(inside)) or true_det(self))
    m = Matrix([[4, 6, 1], [2, 2, 0], [1, 5, 9]])
    assert traced_snf(m, det=28, bounds={2: 2, 7: 1}).invariant_factors == (1, 1, 28)
    assert verify_snf_conjecture(4, 9).status == "verified"
    assert verify_reduction(4, 3).status == "verified"
    assert calls and not any(calls)
    # matrix B_ell --snf takes its |det| in closed form too, and runs no Bareiss
    seen = len(calls)
    assert cli.main(["matrix", "B_ell", "--ell", "4", "--d", "12", "--snf"]) == 0
    assert len(calls) == seen
    chain = graded_to_snf(Counter(4 ** len(lam) for lam in partitions(12)))
    assert capsys.readouterr().out == ", ".join(map(str, chain)) + "\n"


def _two_adic(chain):
    return [valuation(f, 2) for f in chain]


def test_packed_two_adic_kernel_matches_the_integer_kernel():
    # at p = 2 the packed kernel gives the 2-adic exponents of the integer
    # kernel's chain, on the one-color matrices for ell in {2, 4, 8, 16} and
    # d <= 10, and on the tensor matrices for ell in {4, 8} and w <= 2.  The
    # integer kernel runs past 8 s on seven of the one-color points (240 s at
    # ell=2, d=10; 16 s at ell=4, d=9), so there the list kernel, run at
    # p = 2, stands in for it
    slow = {(2, 10), (4, 9), (4, 10), (8, 8), (8, 9), (8, 10), (16, 10)}  # one-color
    points = [(ell, d, gram_matrix(ell, d)) for ell in (2, 4, 8, 16) for d in range(11)]
    points += [(ell, w, tensor_gram_matrix(ell, w)) for ell in (4, 8) for w in range(3)]
    for ell, d, x in points:
        k = invariants._exponent_bounds(ell, d)[2] + 1
        packed = linalg._local_exponents(x.data, 2, k)
        if (ell, d) in slow:
            assert (packed, 0) == linalg._list_exponents(x.data, 2, k), (ell, d)
        else:
            assert packed == _two_adic(integer_snf(x).invariant_factors), (ell, d, x.rows)


def test_packed_two_adic_kernel_edge_cases():
    local = linalg._local_exponents
    # 1 x 1, negative entries included, at exactly enough precision and one
    # digit short of it
    for x in (1, -1, 2, -12, 40, -3 * 2 ** 70):
        v = valuation(abs(x), 2)
        assert local([[x]], 2, v + 1) == [v]
        if v:
            with pytest.raises(ArithmeticError,
                               match=rf"^1 invariant factors are divisible by 2\^{v}$"):
                local([[x]], 2, v)
    # k = 1 reads the rank mod 2; [[1, 1], [1, 3]] has |det| 2
    assert local([[1, 1], [0, -1]], 2, 1) == [0, 0]
    assert local([[1, 1], [1, 3]], 2, 2) == [0, 1]
    with pytest.raises(ArithmeticError, match=r"^1 invariant factors are divisible by 2\^1$"):
        local([[1, 1], [1, 3]], 2, 1)
    # rows whose only unit is in the last column, the top slot of the int
    for rows in ([[2, 4, 1], [4, 2, 0], [0, 2, 6]], [[2, -4, 3], [-4, 2, 8], [6, 2, -10]]):
        want = _two_adic(integer_snf(Matrix(rows)).invariant_factors)
        assert local(rows, 2, max(want) + 1) == want, rows
    # the exhausted precision on a builder matrix: gram_matrix(4, 6) has one
    # factor 2^16
    with pytest.raises(ArithmeticError, match=r"^1 invariant factors are divisible by 2\^16$"):
        local(gram_matrix(4, 6).data, 2, 16)
    # random nonsingular matrices with negative entries, at k = v_2(|det|) + 1
    rng = random.Random(23)
    seen = {"k=1": 0, "even": 0}
    while min(seen.values()) < 10:
        n = rng.randint(1, 7)
        m = Matrix([[rng.randint(-40, 40) for _ in range(n)] for _ in range(n)])
        det = abs(m.det())
        if det:
            v = valuation(det, 2)
            assert local(m.data, 2, v + 1) == _two_adic(integer_snf(m).invariant_factors), m
            seen["k=1" if not v else "even"] += 1
