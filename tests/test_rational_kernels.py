"""The big-cell kernels against their Fraction-arithmetic references.

The kernels compute on numerators and denominators and build one entry per
output; the references in ``conftest.FractionKernels`` build a Fraction or
RatFun for every intermediate product and sum.  Over Q both must give the
same values of the same type, and the kernels must hand out the shared
Fraction for every integer in -64..64.  A RatFun operand brings integer
polynomials to the same kernel body, so Q(eps) input, all RatFun or mixed
with Fractions, must give the reference's values and print as it does.
The scalars the sweep and the action form (D = chi + x y, -y/D, the
reciprocals of ``_diagonal``, ``diagonal_coordinates``) are held to their
Fraction-operator forms the same way, and ``_rational``, which sets the
slots of its Fraction itself, to the ``Fraction`` constructor.
"""

import itertools
import random
from fractions import Fraction

import pytest

from toroidal.bigcell import _diagonal, _minus_over, _sweep_denominator
from toroidal.catalog import chamber_cones
from toroidal.charts import ChartPoint, limit_point, torus_point, torus_translate
from toroidal.chevalley import Pinning, _plus_times, conjugate_diagonal, split_inverse
from toroidal.cones import Cone, interior_cocharacter
from toroidal.linalg import (
    _SMALL,
    Matrix,
    _rational,
    _share,
    unitriangular_inverse,
    unitriangular_product,
)
from toroidal.ratfun import EPS, RatFun
from toroidal.rootdata import RootDatum


def _scalar(rng, nonzero=False):
    """0, +-1, an integer up to 64 or far beyond it, or a quotient, some with large denominators.

    Small integers are the shared Fractions, as in every matrix and chart
    point, since a kernel hands an entry it does not change back as it is.
    """
    while True:
        kind = rng.randrange(6)
        if kind == 0:
            x = Fraction(0)
        elif kind == 1:
            x = Fraction(rng.choice((1, -1)))
        elif kind == 2:
            x = Fraction(rng.randint(-64, 64))
        elif kind == 3:
            x = Fraction(rng.choice((1, -1)) * rng.randint(65, 10**20))
        elif kind == 4:
            x = Fraction(rng.randint(-10**12, 10**12), rng.randint(2, 10**12))
        else:
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if x or not nonzero:
            return _share(x)


def _mixed_scalar(rng, nonzero=False):
    """A Fraction or, one time in three, a RatFun with a nonzero eps term."""
    x = _scalar(rng, nonzero)
    return x + rng.choice((1, -2)) * EPS if rng.randrange(3) == 0 else x


def _eps_scalar(rng, nonzero=False):
    """A RatFun x + c*eps, c in -2..2, one time in three divided by y + eps."""
    while True:
        x = _scalar(rng) + rng.randint(-2, 2) * EPS
        if rng.randrange(3) == 0:
            x = x / (_scalar(rng, nonzero=True) + EPS)
        if x or not nonzero:
            return x


def _general(rng, n, scalar=_scalar):
    return Matrix([[scalar(rng) for _ in range(n)] for _ in range(n)])


def _unitriangular(rng, n, lower, scalar=_scalar):
    return Matrix(
        [
            [1 if i == j else scalar(rng) if (j < i) == lower else 0 for j in range(n)]
            for i in range(n)
        ]
    )


def _entries(x):
    if isinstance(x, Matrix):
        return [e for r in x.rows for e in r]
    if isinstance(x, ChartPoint):
        return [v for _, v in sorted(x.values.items())]
    return [x]


def _same(got, want):
    """Equal value and type entry by entry; small integers are the shared Fractions."""
    got_entries, want_entries = _entries(got), _entries(want)
    assert len(got_entries) == len(want_entries)
    for x, y in zip(got_entries, want_entries):
        assert type(x) is type(y) and x == y, (got, want)
        if x.denominator == 1 and -64 <= x.numerator <= 64:
            assert x is _SMALL[x.numerator + 64], (got, x)


def test_rational_builds_what_the_fraction_constructor_builds():
    # _rational sets the slots of its Fraction itself: whatever it builds
    # must be indistinguishable from Fraction(n, d)
    rng = random.Random(6)
    third = Fraction(1, 3)
    cases = [(0, 1), (0, -7), (7, 1), (7, -1), (-7, -1), (6, 4), (6, -4), (-128, -2)]
    cases += [(65, 1), (-65, -1), (3 * 64, -3), (10**30, 3), (-(10**30), 10**30 - 1)]
    for _ in range(3000):
        g = rng.choice((1, 1, rng.randint(2, 10**6)))
        n = g * rng.randint(-(10 ** rng.randint(0, 30)), 10 ** rng.randint(0, 30))
        d = g * rng.choice((1, -1)) * rng.choice((1, rng.randint(1, 10 ** rng.randint(1, 30))))
        cases.append((n, d))
    for _ in range(500):
        d = rng.choice((1, -1)) * rng.randint(1, 6)
        cases.append((d * rng.randint(-70, 70) + rng.randint(-1, 1), d))
    shared = 0
    for n, d in cases:
        got, want = _rational(n, d), Fraction(n, d)
        assert type(got) is Fraction and got == want and hash(got) == hash(want)
        assert repr(got) == repr(want) and str(got) == str(want)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert type(got.numerator) is int and type(got.denominator) is int
        assert got + third == want + third and repr(got + third) == repr(want + third)
        if want.denominator == 1 and -64 <= want.numerator <= 64:
            assert got is _SMALL[want.numerator + 64], (n, d)
            shared += 1
    assert shared > 100 and len(cases) - shared > 2000, shared


def test_products_and_inverses_match_fraction_arithmetic(fraction_kernels):
    rng = random.Random(1)
    for n in (1, 2, 3, 4):
        for _ in range(60):
            a, b = _general(rng, n), _general(rng, n)
            _same(a @ b, fraction_kernels.matmul(a, b))
            for lower in (True, False):
                u, v = _unitriangular(rng, n, lower), _unitriangular(rng, n, lower)
                _same(
                    unitriangular_product(u, v, lower),
                    fraction_kernels.unitriangular_product(u, v, lower),
                )
                _same(
                    unitriangular_inverse(u, lower),
                    fraction_kernels.unitriangular_inverse(u, lower),
                )


def test_scalings_match_fraction_arithmetic(fraction_kernels):
    rng = random.Random(2)
    for _ in range(2000):
        a, b, c = _scalar(rng), _scalar(rng), _scalar(rng)
        _same(_plus_times(a, b, c), fraction_kernels.plus_times(a, b, c))
    for n in (1, 2, 3, 4):
        for _ in range(60):
            d = tuple(_scalar(rng, nonzero=True) for _ in range(n))
            d_inv = tuple(1 / x for x in d)
            g = _general(rng, n)
            _same(conjugate_diagonal(d, d_inv, g), fraction_kernels.conjugate_diagonal(d, d_inv, g))
            _same(conjugate_diagonal(d_inv, d, g), fraction_kernels.conjugate_diagonal(d_inv, d, g))
            lower, upper = _unitriangular(rng, n, True), _unitriangular(rng, n, False)
            diag = Matrix.diagonal(d)
            _same(
                split_inverse(lower, diag, upper),
                fraction_kernels.split_inverse(lower, diag, upper),
            )


def _chart_points(rng, rank):
    """Torus points and translated limit points on the chamber cones of A_rank."""
    out = []
    for cone in chamber_cones(RootDatum.of_type("A", rank)):
        coords = tuple(_scalar(rng, nonzero=True) for _ in range(rank))
        out.append(torus_point(coords, cone))
        if not cone.is_zero():
            out.append(torus_translate(coords, limit_point(interior_cocharacter(cone), cone)))
    return out


def test_torus_translate_matches_fraction_arithmetic(fraction_kernels):
    rng = random.Random(3)
    for rank in (1, 2, 3):
        for p in _chart_points(rng, rank):
            t = tuple(_scalar(rng, nonzero=True) for _ in range(rank))
            _same(torus_translate(t, p), fraction_kernels.torus_translate(t, p))


def test_mixed_operands_print_as_the_reference(fraction_kernels):
    rng = random.Random(4)
    for n in (1, 2, 3):
        for _ in range(15):
            a, b = _general(rng, n, _mixed_scalar), _general(rng, n, _mixed_scalar)
            assert repr(a @ b) == repr(fraction_kernels.matmul(a, b))
            for lower in (True, False):
                u = _unitriangular(rng, n, lower, _mixed_scalar)
                v = _unitriangular(rng, n, lower, _mixed_scalar)
                assert repr(unitriangular_product(u, v, lower)) == repr(
                    fraction_kernels.unitriangular_product(u, v, lower)
                )
                assert repr(unitriangular_inverse(u, lower)) == repr(
                    fraction_kernels.unitriangular_inverse(u, lower)
                )
            d = tuple(_mixed_scalar(rng, nonzero=True) for _ in range(n))
            d_inv = tuple(1 / x for x in d)
            g = _general(rng, n, _mixed_scalar)
            assert repr(conjugate_diagonal(d, d_inv, g)) == repr(
                fraction_kernels.conjugate_diagonal(d, d_inv, g)
            )
            lower, upper = _unitriangular(rng, n, True, _mixed_scalar), _unitriangular(rng, n, False)
            diag = Matrix.diagonal(d)
            assert repr(split_inverse(lower, diag, upper)) == repr(
                fraction_kernels.split_inverse(lower, diag, upper)
            )
    for _ in range(300):
        a, b, c = _mixed_scalar(rng), _mixed_scalar(rng), _mixed_scalar(rng)
        got, want = _plus_times(a, b, c), fraction_kernels.plus_times(a, b, c)
        assert repr(got) == repr(want) and type(got) is type(want)
    cone = Cone([(-1, 0), (-1, -1)], dim=2)
    for _ in range(20):
        p = torus_point(tuple(_mixed_scalar(rng, nonzero=True) for _ in range(2)), cone)
        t = tuple(_mixed_scalar(rng, nonzero=True) for _ in range(2))
        assert repr(torus_translate(t, p)) == repr(fraction_kernels.torus_translate(t, p))
    assert any(isinstance(v, RatFun) for v in torus_translate((EPS, 1), p).values.values())


def _same_value_and_repr(got, want):
    assert got == want and repr(got) == repr(want), (got, want)


def test_ratfun_operands_match_the_reference(fraction_kernels):
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        for _ in range(12):
            a, b = _general(rng, n, _eps_scalar), _general(rng, n, _eps_scalar)
            assert all(isinstance(x, RatFun) for r in a.rows for x in r)
            _same_value_and_repr(a @ b, fraction_kernels.matmul(a, b))
            for lower in (True, False):
                u = _unitriangular(rng, n, lower, _eps_scalar)
                v = _unitriangular(rng, n, lower, _eps_scalar)
                _same_value_and_repr(
                    unitriangular_product(u, v, lower),
                    fraction_kernels.unitriangular_product(u, v, lower),
                )
                _same_value_and_repr(
                    unitriangular_inverse(u, lower), fraction_kernels.unitriangular_inverse(u, lower)
                )
            d = tuple(_eps_scalar(rng, nonzero=True) for _ in range(n))
            d_inv = tuple(1 / x for x in d)
            g = _general(rng, n, _eps_scalar)
            _same_value_and_repr(
                conjugate_diagonal(d, d_inv, g), fraction_kernels.conjugate_diagonal(d, d_inv, g)
            )
            lower = _unitriangular(rng, n, True, _eps_scalar)
            upper = _unitriangular(rng, n, False, _eps_scalar)
            diag = Matrix.diagonal(d)
            _same_value_and_repr(
                split_inverse(lower, diag, upper), fraction_kernels.split_inverse(lower, diag, upper)
            )
    for _ in range(300):
        a, b, c = _eps_scalar(rng), _eps_scalar(rng), _eps_scalar(rng)
        _same_value_and_repr(_plus_times(a, b, c), fraction_kernels.plus_times(a, b, c))
    for rank in (1, 2, 3):
        for p in _chart_points(rng, rank):
            t = tuple(_eps_scalar(rng, nonzero=True) for _ in range(rank))
            p = fraction_kernels.torus_translate(t, p)
            t = tuple(_eps_scalar(rng, nonzero=True) for _ in range(rank))
            _same_value_and_repr(torus_translate(t, p), fraction_kernels.torus_translate(t, p))


def _same_scalar(got, want):
    """Equal value, repr and type; a small integer Fraction is the shared one."""
    assert type(got) is type(want) and got == want and repr(got) == repr(want), (got, want)
    if type(got) is Fraction and got.denominator == 1 and -64 <= got.numerator <= 64:
        assert got is _SMALL[got.numerator + 64], got


def test_sweep_scalars_match_fraction_arithmetic(fraction_kernels):
    # chi, x and y each a Fraction or a RatFun: a Fraction x with a RatFun
    # chi, the reverse, and every other mix
    rng = random.Random(7)
    for kinds in itertools.product((_scalar, _eps_scalar), repeat=3):
        for _ in range(150):
            chi, x, y = (scalar(rng) for scalar in kinds)
            d = _sweep_denominator(chi, x, y)
            _same_scalar(d, fraction_kernels.sweep_denominator(chi, x, y))
            if d:
                _same_scalar(_minus_over(y, d), fraction_kernels.minus_over(y, d))
                _same_scalar(_minus_over(x, d), fraction_kernels.minus_over(x, d))


def _det_one(rng, n, scalar):
    """n nonzero scalars with product 1."""
    d = [scalar(rng, nonzero=True) for _ in range(n - 1)]
    prod = Fraction(1)
    for x in d:
        prod = prod * x
    return d + [1 / prod]


def test_diagonal_scalars_match_fraction_arithmetic(fraction_kernels):
    rng = random.Random(8)
    for rank in (1, 2, 3):
        pin = Pinning(RootDatum.of_type("A", rank))
        for scalars in ((_scalar,), (_eps_scalar,), (_scalar, _eps_scalar), (_eps_scalar, _scalar)):
            for _ in range(40):
                diags = [_det_one(rng, rank + 1, s) for s in scalars]
                entries, recips = _diagonal(Matrix.diagonal(diags[0]))
                for got, want in zip(recips, fraction_kernels.reciprocals(entries)):
                    _same_scalar(got, want)
                for k in range(1, len(diags) + 1):
                    got = pin.diagonal_coordinates(*diags[:k])
                    want = fraction_kernels.diagonal_coordinates(*diags[:k])
                    assert len(got) == len(want) == rank
                    for x, y in zip(got, want):
                        _same_scalar(x, y)
                bad = list(diags[0])
                bad[-1] = bad[-1] * 2
                for f in (pin.diagonal_coordinates, fraction_kernels.diagonal_coordinates):
                    with pytest.raises(ValueError, match="determinant is not 1"):
                        f(bad, *diags[1:])
