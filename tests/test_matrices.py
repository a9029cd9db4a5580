import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toroidal.cones import _rank
from toroidal.linalg import (
    Matrix,
    _smith,
    integer_inverse,
    integer_kernel,
    integer_rank,
    primitive_vector,
    smith_normal_form,
    unitriangular_inverse,
    unitriangular_product,
)
from toroidal.ratfun import EPS

int_entries = st.integers(min_value=-9, max_value=9)


def int_matrices(max_n=4):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.integers(min_value=1, max_value=max_n).flatmap(
            lambda m: st.lists(
                st.lists(int_entries, min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            ).map(Matrix)
        )
    )


def minor_gcd(m: Matrix, k: int) -> int:
    """gcd of all k x k minors; the determinantal-divisor oracle for the SNF."""
    g = 0
    for rows in itertools.combinations(range(m.nrows), k):
        for cols in itertools.combinations(range(m.ncols), k):
            sub = Matrix([[m[i, j] for j in cols] for i in rows])
            g = math.gcd(g, abs(int(sub.det())))
    return g


def test_matmul_and_identity():
    a = Matrix([[1, 2], [3, 4]])
    assert Matrix.identity(2) @ a == a
    assert a @ (1, 1) == (3, 7)
    assert (1, 1) @ a == (4, 6)


def test_det_and_inverse():
    a = Matrix([[2, 1], [1, 1]])
    assert a.det() == 1
    assert a.inverse() @ a == Matrix.identity(2)
    with pytest.raises(ZeroDivisionError):
        Matrix([[1, 2], [2, 4]]).inverse()


def _inverse_cases(rng, eps):
    """Seeded square matrices of size 1-4, a fifth of them singular.

    Over Q(eps) one row, or now and then every row, holds RatFuns with eps
    and eps^2 terms among the Fraction rows, and some hold a pole 1/(1 + eps).
    """

    def entry():
        r = rng.random()
        if r < 0.25:
            return 0
        if r < 0.55:
            return rng.randint(-9, 9)
        if r < 0.95:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))

    def eps_row(row):
        out = [x + rng.randint(-2, 2) * EPS + rng.randint(-1, 1) * EPS**2 for x in row]
        if rng.random() < 0.3:
            out[rng.randrange(len(out))] = 1 / (1 + EPS)
        return out

    for _ in range(3000):
        n = rng.randint(1, 4)
        rows = [[entry() for _ in range(n)] for _ in range(n)]
        if eps:
            for i in range(n) if rng.random() < 0.2 else [rng.randrange(n)]:
                rows[i] = eps_row(rows[i])
        r = rng.random()
        if r < 0.1:
            rows[rng.randrange(n)] = [0] * n
        elif n > 1 and r < 0.2:
            # the last row a combination of the first two
            c, d = Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-5, 5)
            rows[-1] = [c * x + d * y for x, y in zip(rows[0], rows[1])]
        yield Matrix(rows)


@pytest.mark.parametrize("eps", [False, True])
def test_inverse_matches_gauss_jordan(eps, inverse_by_gauss_jordan):
    inverted = refused = 0
    for m in _inverse_cases(random.Random(41 + eps), eps):
        try:
            want = inverse_by_gauss_jordan(m)
        except ZeroDivisionError as e:
            with pytest.raises(ZeroDivisionError, match=f"^{e}$"):
                m.inverse()
            refused += 1
            continue
        got = m.inverse()
        assert got == want and repr(got) == repr(want), m
        if not eps:
            assert _entry_types(got) == _entry_types(want), m
            # small integers are the shared Fractions on both sides
            assert all(
                (x is y) == (y.denominator == 1 and -64 <= y <= 64)
                for r, s in zip(got.rows, want.rows)
                for x, y in zip(r, s)
            ), m
        inverted += 1
    assert inverted > 1800 and refused > 400
    assert Matrix([]).inverse() == Matrix([])
    with pytest.raises(ValueError, match="non-square"):
        Matrix([[1, 2]]).inverse()


def _det_cases(rng):
    """Seeded rational matrices of size 0-5, some singular and some with a
    zero (0, 0) entry, so that the elimination has to swap rows."""

    def entry():
        r = rng.random()
        if r < 0.2:
            return 0
        if r < 0.5:
            return rng.randint(-9, 9)
        if r < 0.95:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))

    for _ in range(2000):
        n = rng.randint(0, 5)
        rows = [[entry() for _ in range(n)] for _ in range(n)]
        r = rng.random()
        if n and r < 0.3:
            rows[0][0] = 0
        elif n > 1 and r < 0.5:
            # the last row a combination of the first two
            c, d = Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-5, 5)
            rows[-1] = [c * x + d * y for x, y in zip(rows[0], rows[1])]
        yield Matrix(rows)


def test_det_matches_elimination(det_by_elimination):
    singular = swapped = 0
    for m in _det_cases(random.Random(14)):
        want = det_by_elimination(m)
        got = m.det()
        assert type(got) is Fraction and got == want, m
        if m.nrows and not want:
            singular += 1
        elif m.nrows and not m[0, 0]:
            swapped += 1
    assert singular > 200 and swapped > 200
    assert Matrix([]).det() == 1


def _unitriangular(rng, n, lower, pool):
    """A random lower (upper) unitriangular matrix with entries from pool."""
    return Matrix(
        [
            [
                1 if i == j else rng.choice(pool) if (i > j) == lower else 0
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def _entry_types(m: Matrix):
    return [[type(x) for x in row] for row in m.rows]


@pytest.mark.parametrize("eps", [False, True])
def test_unitriangular_product_and_inverse_match_dense(eps):
    # small pools, so that sums cancel to zero now and then; over Q(eps)
    # some entries are constant RatFuns (a + 0*eps)
    rng = random.Random(31 + eps)
    pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]
    if eps:
        pool += [Fraction(a) + EPS * b for a in (-1, 0, 1) for b in (-1, 0, 1)]
    pairs = cancelled = 0
    for _ in range(2000):
        n = rng.randint(2, 4)
        lower = rng.random() < 0.5
        a = _unitriangular(rng, n, lower, pool)
        b = _unitriangular(rng, n, lower, pool)
        want = a @ b
        got = unitriangular_product(a, b, lower=lower)
        assert got == want and repr(got) == repr(want), (a, b)
        assert _entry_types(got) == _entry_types(want), (a, b)
        pairs += 1
        cancelled += any(
            not x and (i > j) == lower and any(a[i, k] and b[k, j] for k in range(n))
            for i, row in enumerate(got.rows)
            for j, x in enumerate(row)
        )
        inv = unitriangular_inverse(a, lower=lower)
        assert unitriangular_product(a, inv, lower=lower) == Matrix.identity(n)
        assert inv == a.inverse() and repr(inv) == repr(a.inverse()), a
        if not eps:
            assert _entry_types(inv) == _entry_types(a.inverse()), a
    assert pairs == 2000 and cancelled > 50


def test_unitriangular_product_refuses_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        unitriangular_product(Matrix.identity(2), Matrix.identity(3), lower=True)
    with pytest.raises(ValueError, match="non-square"):
        unitriangular_inverse(Matrix([[1, 0]]), lower=True)


def test_det_refuses_ratfun_entries():
    with pytest.raises(TypeError):
        Matrix([[EPS, 0], [0, 1]]).det()


def test_matrix_sum_and_difference_refuse_shape_mismatch():
    a = Matrix([[1, 2]])
    for b in (Matrix([[1]]), Matrix([[1, 2], [3, 4]])):
        with pytest.raises(ValueError, match="shape mismatch in matrix sum"):
            a + b
        with pytest.raises(ValueError, match="shape mismatch in matrix difference"):
            a - b
    assert a + a == Matrix([[2, 4]]) and a - a == Matrix([[0, 0]])


def test_snf_frozen_examples():
    for rows, expect in [
        ([[2, 0], [0, 3]], [1, 6]),
        ([[-1, 0], [-1, -2]], [1, 2]),
    ]:
        m = Matrix(rows)
        u, d, v = smith_normal_form(m)
        assert u @ m @ v == d
        assert [int(d[i, i]) for i in range(2)] == expect


def test_snf_certifies_diagonal(monkeypatch):
    import toroidal.linalg as linalg

    # a pivot search that sees no nonzero entry leaves the matrix as it is
    monkeypatch.setattr(linalg, "abs", lambda x: 0, raising=False)
    with pytest.raises(RuntimeError, match="diagonalize"):
        smith_normal_form(Matrix([[1, 2], [3, 4]]))


def test_kernel_frozen_examples():
    k = integer_kernel(Matrix([[1, 1]]))
    assert len(k) == 1 and k[0] in ((1, -1), (-1, 1))
    k = integer_kernel(Matrix([[2, -1, 0], [0, 1, -2]]))
    assert len(k) == 1 and k[0] in ((1, 2, 1), (-1, -2, -1))


def test_integer_inverse_rejects_nonunimodular():
    assert integer_inverse(Matrix([[1, 1], [0, 1]])) == Matrix([[1, -1], [0, 1]])
    with pytest.raises(ValueError):
        integer_inverse(Matrix([[2, 0], [0, 1]]))


def _smith_cases(rng):
    """Seeded integer matrices of every shape from 1x1 to 5x5: full, with a
    zero row and a zero column, and of rank below min(rows, columns)."""
    for nr in range(1, 6):
        for nc in range(1, 6):
            for _ in range(8):
                yield [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
                rows = [[rng.randint(-20, 20) for _ in range(nc)] for _ in range(nr)]
                rows[rng.randrange(nr)] = [0] * nc
                j = rng.randrange(nc)
                for r in rows:
                    r[j] = 0
                yield rows
                k = rng.randint(0, min(nr, nc) - 1)
                left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(nr)]
                right = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(k)]
                yield [[sum(a * b for a, b in zip(r, c)) for c in zip(*right)] for r in left]


def _int_product(a, b):
    return [[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in a]


def test_smith_returns_the_inverse_of_u():
    cases = 0
    for rows in _smith_cases(random.Random(2401)):
        u, d, v, u_inv = _smith(rows)
        nr, nc = len(rows), len(rows[0])
        for m in (u, d, v, u_inv):
            assert type(m) is tuple
            assert all(type(r) is tuple and all(type(x) is int for x in r) for r in m)
        assert _int_product(_int_product(u, rows), v) == [list(r) for r in d], rows
        identity = [[int(i == j) for j in range(nr)] for i in range(nr)]
        assert _int_product(u, u_inv) == identity, rows
        assert Matrix(u_inv) == integer_inverse(Matrix(u)), rows
        assert all(d[i][j] == 0 for i in range(nr) for j in range(nc) if i != j)
        cases += 1
    assert cases == 25 * 8 * 3


def test_primitive_vector():
    assert primitive_vector((2, -4, 6)) == (1, -2, 3)
    assert primitive_vector((0, 5)) == (0, 1)


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_snf_certificate_and_divisors(m):
    u, d, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert abs(int(u.det())) == 1 and abs(int(v.det())) == 1
    diag = [int(d[i, i]) for i in range(min(d.nrows, d.ncols))]
    for i in range(len(diag) - 1):
        if diag[i + 1]:
            assert diag[i] != 0 or diag[i + 1] == 0
            if diag[i]:
                assert diag[i + 1] % diag[i] == 0
    # determinantal divisors pin the diagonal uniquely
    prod = 1
    for k, dk in enumerate(diag, start=1):
        g = minor_gcd(m, k)
        assert g == prod * dk or (g == 0 and dk == 0)
        prod = g if g else prod


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_kernel_is_integer_and_complete(m):
    kernel = integer_kernel(m)
    for v in kernel:
        assert all(isinstance(x, int) for x in v)
        assert all(c == 0 for c in m @ v)
    assert len(kernel) == m.ncols - integer_rank(m)


@settings(max_examples=100, deadline=None)
@given(int_matrices(max_n=3), int_matrices(max_n=3))
def test_rank_subadditive_under_product(a, b):
    if a.ncols != b.nrows:
        return
    r = integer_rank(a @ b)
    assert r <= min(integer_rank(a), integer_rank(b))


def _rank_cases(rng):
    """Seeded integer matrices: small, with zero, repeated and dependent
    rows, and with entries near 10^12 where fraction-free elimination grows."""
    for _ in range(3000):
        ncols = rng.randint(1, 4)
        big = rng.random() < 0.25
        scale = 10**12 if big else 6
        rows = [
            [rng.randint(-scale, scale) for _ in range(ncols)]
            for _ in range(rng.randint(0, 12))
        ]
        if rows and rng.random() < 0.3:
            # every row a combination of fewer rows than columns
            base = rows[: rng.randint(0, ncols - 1)]
            rows = [
                [sum(rng.randint(-3, 3) * b[k] for b in base) for k in range(ncols)]
                for _ in rows
            ]
        for _ in range(rng.randint(0, 3) if rows else 0):
            kind = rng.choice(("zero", "repeat", "dependent"))
            if kind == "zero":
                row = [0] * ncols
            elif kind == "repeat":
                row = list(rng.choice(rows))
            else:
                a, b = rng.choice(rows), rng.choice(rows)
                s, t = rng.randint(-scale, scale), rng.randint(-scale, scale)
                row = [s * x + t * y for x, y in zip(a, b)]
            rows.insert(rng.randint(0, len(rows)), row)
        yield rows


def test_integer_rank_matches_fraction_elimination(fraction_rank):
    for rows in _rank_cases(random.Random(9)):
        expected = fraction_rank(rows)
        assert _rank(rows) == expected, rows
        assert integer_rank(Matrix(rows)) == expected, rows


def test_integer_rank_refusals():
    for rank in (_rank, lambda rows: integer_rank(Matrix(rows))):
        with pytest.raises(ValueError, match="ragged rows"):
            rank([(1, 2), (3,)])
        with pytest.raises(ValueError, match="integer matrix required"):
            rank([(Fraction(1, 2), 1)])
    assert _rank([]) == 0
    assert _rank([(Fraction(2), 4), (1, 2)]) == 1
