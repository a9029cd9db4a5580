from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toroidal.ratfun import EPS, PoleAtZero, RatFun, evaluate_at_zero

rationals = st.fractions(
    min_value=-30, max_value=30, max_denominator=7
)


def poly(coeffs):
    out = RatFun(0)
    for k, c in enumerate(coeffs):
        out = out + RatFun(c) * EPS**k
    return out


small_polys = st.lists(rationals, min_size=1, max_size=4).map(poly)
nonzero_polys = small_polys.filter(bool)


def test_constants_collapse_to_rationals():
    assert RatFun(Fraction(3, 4)).is_constant()
    assert RatFun(6, 4).constant_value() == Fraction(3, 2)
    assert RatFun(5) == 5
    assert RatFun(5) == Fraction(5)


def test_variable_is_not_constant():
    assert not EPS.is_constant()
    with pytest.raises(ValueError):
        EPS.constant_value()


def test_cancellation_is_automatic():
    f = (EPS**2 - 1) / (EPS - 1)
    assert f == EPS + 1


def test_denominator_is_monic():
    f = RatFun(1) / (2 * EPS + 2)
    # 1/(2e+2) == (1/2)/(e+1)
    assert f * (EPS + 1) == Fraction(1, 2)


def test_printed_form_has_monic_denominator():
    f = (EPS + Fraction(1, 2)) / (3 * EPS - 6)
    assert repr(f) == "(1/3*eps + 1/6)/(eps - 2)"
    assert repr(-f * EPS**2) == "(-1/3*eps^3 - 1/6*eps^2)/(eps - 2)"
    assert repr(RatFun((Fraction(2, 3), 4), (6, 0, 3))) == "(4/3*eps + 2/9)/(eps^2 + 2)"
    assert repr(Fraction(3, 4) - EPS**2 / 2) == "-1/2*eps^2 + 3/4"


def test_power_negative_exponent():
    assert EPS**-2 * EPS**2 == 1
    with pytest.raises(ZeroDivisionError):
        RatFun(0) ** -1


def test_evaluate_at_zero_examples():
    with pytest.raises(PoleAtZero):
        evaluate_at_zero(EPS / EPS**2)
    assert evaluate_at_zero((EPS**2 + EPS) / EPS) == 1
    assert evaluate_at_zero((2 * EPS + 3) / (EPS + 1)) == 3


def test_evaluate_at_zero_passes_plain_rationals():
    assert evaluate_at_zero(Fraction(7, 2)) == Fraction(7, 2)
    assert evaluate_at_zero(4) == 4


def test_mixed_arithmetic_with_fractions():
    f = Fraction(1, 2) + EPS
    assert f - EPS == Fraction(1, 2)
    assert (2 * f) / 2 == f
    assert 1 / (1 + EPS) * (1 + EPS) == 1


def test_hash_matches_fraction_for_constants():
    assert hash(RatFun(3, 2)) == hash(Fraction(3, 2))
    d = {Fraction(3, 2): "x"}
    d[RatFun(3, 2)] = "y"
    assert d == {Fraction(3, 2): "y"}


@settings(max_examples=200, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=200, deadline=None)
@given(small_polys, nonzero_polys)
def test_field_inverse(a, b):
    assert (a / b) * b == a


@settings(max_examples=200, deadline=None)
@given(small_polys, nonzero_polys, nonzero_polys)
def test_common_factor_cancels(a, b, c):
    assert (a * c) / (b * c) == a / b


@settings(max_examples=100, deadline=None)
@given(small_polys, small_polys)
def test_specialization_is_a_homomorphism(a, b):
    try:
        va, vb = evaluate_at_zero(a), evaluate_at_zero(b)
    except PoleAtZero:
        return
    assert evaluate_at_zero(a + b) == va + vb
    assert evaluate_at_zero(a * b) == va * vb
