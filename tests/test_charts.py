import random
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toroidal.catalog import cone_catalog
from toroidal.charts import (
    ChartPoint,
    _as_scalar,
    _monomial,
    _times_powers,
    _torus_shift,
    InvalidChartValues,
    LimitDoesNotExist,
    NotAFace,
    ZeroCoordinate,
    ZeroScalar,
    chart_inclusion,
    coweight_scale,
    evaluate_character,
    identity_point,
    in_closed_orbit,
    limit_point,
    specialize_at_zero,
    torus_coordinates,
    torus_point,
    torus_translate,
    wonderful_coords,
)
from toroidal.cones import Cone, interior_cocharacter
from toroidal.linalg import dot
from toroidal.ratfun import EPS, PoleAtZero, RatFun
from toroidal.rootdata import RootDatum

A1_CONE = Cone([(-1,)], dim=1)
WEDGE = Cone([(-1, 0), (-1, -2)])


def test_torus_point_frozen():
    p = torus_point((Fraction(2),), A1_CONE)
    assert p.values == {(-1,): Fraction(1, 2)}
    assert torus_coordinates(p) == (Fraction(2),)


def test_torus_point_validation():
    with pytest.raises(ZeroCoordinate):
        torus_point((Fraction(0),), A1_CONE)
    with pytest.raises(ValueError):
        torus_point((Fraction(1), Fraction(2)), A1_CONE)


def test_identity_point_is_all_ones():
    p = identity_point(WEDGE)
    assert all(v == 1 for v in p.values.values())
    assert p.is_invertible()


def test_torus_roundtrip_on_catalog():
    rng = random.Random(12)
    for cone in cone_catalog():
        for _ in range(5):
            coords = tuple(
                Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
                for _ in range(cone.dim)
            )
            assert torus_coordinates(torus_point(coords, cone)) == coords


def test_torus_shift_is_the_exact_ceiling_on_catalog():
    # the unit vectors torus_coordinates shifts, and multiples of them large
    # enough that a float quotient would round
    for cone in cone_catalog():
        w = tuple(sum(g[k] for g in cone.dual_rays) for k in range(cone.dim))
        for j in range(cone.dim):
            for scale in (1, -1, 10**16 + 1, -(3 * 10**17 + 7)):
                e = tuple(scale if k == j else 0 for k in range(cone.dim))
                expected = max(
                    [0] + [ceil(Fraction(-dot(e, r), dot(w, r))) for r in cone.rays]
                )
                assert _torus_shift(e, w, cone.rays) == expected


def test_limit_point_inside_and_outside():
    for cone in cone_catalog():
        if cone.is_zero():
            continue
        delta = interior_cocharacter(cone)
        p = limit_point(delta, cone)
        for h in cone.hilbert_basis:
            assert p.values[h] == (1 if dot(h, delta) == 0 else 0)
        assert in_closed_orbit(p)
        outward = tuple(-x for x in delta)
        with pytest.raises(LimitDoesNotExist):
            limit_point(outward, cone)


def test_limit_on_proper_face_is_not_closed_orbit():
    p = limit_point((-1, 0), WEDGE)
    assert not in_closed_orbit(p)


def test_chart_point_validates_keys_and_relations():
    cone = Cone([(1, 0), (1, 2)])
    hb = cone.hilbert_basis  # ((0,1), (1,0), (2,-1))
    good = ChartPoint(cone, {(0, 1): 1, (1, 0): 2, (2, -1): 4})
    assert good.values[(2, -1)] == 4
    with pytest.raises(InvalidChartValues):
        ChartPoint(cone, {(0, 1): 1, (1, 0): 1, (2, -1): 2})  # x^2 != y*z
    with pytest.raises(InvalidChartValues):
        ChartPoint(cone, {(0, 1): 1, (1, 0): 1})
    boundary = ChartPoint(cone, {(0, 1): 3, (1, 0): 0, (2, -1): 0})
    assert not boundary.is_invertible()
    assert sorted(hb) == [(0, 1), (1, 0), (2, -1)]


SMALL_CONES = [c for c in cone_catalog() if len(c.hilbert_basis) <= 9]
NONZERO = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)


@st.composite
def value_maps(draw):
    """A catalog cone and a value map: torus point, face limit, perturbed,
    random zero pattern or random small integers."""
    cone = draw(st.sampled_from(SMALL_CONES))
    hb = cone.hilbert_basis
    kind = draw(st.sampled_from(["torus", "face", "perturbed", "zeros", "integers"]))
    if kind == "integers":
        return cone, {h: Fraction(draw(st.integers(-2, 2))) for h in hb}
    coords = draw(st.lists(NONZERO, min_size=cone.dim, max_size=cone.dim))
    values = torus_point(coords, cone).values
    if kind == "face" or kind == "perturbed" and draw(st.booleans()):
        face = draw(st.sampled_from(cone.face_ray_sets()))
        values = {h: v if all(dot(h, r) == 0 for r in face) else 0 for h, v in values.items()}
    if kind == "perturbed":
        h = draw(st.sampled_from(hb))
        values[h] *= draw(st.sampled_from([2, -1, Fraction(1, 3)]))
    if kind == "zeros":
        zeros = draw(st.lists(st.sampled_from(hb), unique=True))
        values = {h: 0 if h in zeros else v for h, v in values.items()}
    return cone, values


@settings(max_examples=300, deadline=None)
@given(value_maps())
def test_chart_point_check_matches_degree_bounded_oracle(oracle_accepts, case):
    cone, values = case
    try:
        ChartPoint(cone, values)
        accepted = True
    except InvalidChartValues:
        accepted = False
    assert accepted == oracle_accepts(cone, values)


def test_raw_chart_point_accepts_eps_torus_values():
    cone = Cone([(1, 0), (1, 2)])
    curve = torus_point((EPS, RatFun(1) + EPS ** 2), cone)
    p = ChartPoint(cone, curve.values)
    assert p == curve and p.field == "Q(eps)"
    broken = dict(curve.values)
    broken[(2, -1)] = broken[(2, -1)] * EPS
    with pytest.raises(InvalidChartValues):
        ChartPoint(cone, broken)


def test_evaluate_character_is_multiplicative():
    rng = random.Random(3)
    for cone in cone_catalog():
        hb = cone.hilbert_basis
        if len(hb) < 2:
            continue
        coords = tuple(Fraction(rng.choice([1, 2, 3, -2])) for _ in range(cone.dim))
        p = torus_point(coords, cone)
        m1, m2 = hb[0], hb[-1]
        both = tuple(a + b for a, b in zip(m1, m2))
        assert evaluate_character(p, both) == evaluate_character(
            p, m1
        ) * evaluate_character(p, m2)


def _same_scalar(got, want):
    assert got == want and repr(got) == repr(want) and type(got) is type(want)


def test_monomial_matches_the_power_loop(power_loops):
    # _monomial, and _times_powers with a scale v that may be 0 or a RatFun,
    # against the product of one power after another
    rng = random.Random(9)
    pool = [Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 5), Fraction(-7, 4)]
    eps_pool = [1 + EPS, EPS, 2 - 3 * EPS, EPS / (1 + EPS)]
    zeros = refusals = 0
    for eps in (False, True):
        for _ in range(400):
            values = {
                h: rng.choice(eps_pool) if eps and rng.randrange(3) == 0 else rng.choice(pool)
                for h in range(4)
            }
            exponents = [(h, rng.randint(-3, 5)) for h in range(4) if rng.randrange(4)]
            v = rng.choice(eps_pool) if eps and rng.randrange(2) else rng.choice(pool)
            pairs = [(values[h], e) for h, e in exponents]
            try:
                want = power_loops.monomial(values, exponents)
            except ZeroScalar as e:
                with pytest.raises(ZeroScalar, match=f"^{e}$"):
                    _monomial(values, exponents)
                with pytest.raises(ZeroScalar, match=f"^{e}$"):
                    _times_powers(v, pairs)
                refusals += 1
                continue
            _same_scalar(_monomial(values, exponents), want)
            _same_scalar(_times_powers(v, pairs), v * want)
            zeros += v * want == 0
    assert zeros > 200 and refusals > 100


def _mixed(rng):
    """A nonzero Fraction, or a RatFun that is not constant."""
    if rng.randrange(3):
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 5]))
    return rng.choice([1 + EPS, 2 - 3 * EPS, EPS / (1 + EPS), -EPS])


def test_chart_maps_match_the_power_loops(power_loops):
    # torus_point, coweight_scale and torus_coordinates on torus and boundary
    # points of the catalog cones, against their forms that took one power
    # after another
    rng = random.Random(19)
    checked = 0
    for cone in cone_catalog():
        delta = (0,) * cone.dim if cone.is_zero() else interior_cocharacter(cone)
        for _ in range(4):
            coords = tuple(_mixed(rng) for _ in range(cone.dim))
            p = torus_point(coords, cone)
            want = ChartPoint._trusted(
                cone, {h: power_loops.character_value(coords, h) for h in cone.hilbert_basis}
            )
            assert p == want and repr(p) == repr(want)
            for h in cone.hilbert_basis:
                assert type(p.values[h]) is type(want.values[h])
            for got, want in zip(torus_coordinates(p), power_loops.torus_coordinates(p)):
                _same_scalar(got, want)
            scalar = _mixed(rng)
            twist = tuple(rng.randint(-3, 3) for _ in range(cone.dim))
            for q in (p, torus_translate(coords, limit_point(delta, cone))):
                got = coweight_scale(q, twist, scalar)
                for h, v in q.values.items():
                    _same_scalar(
                        got.values[h],
                        _as_scalar(power_loops.power(scalar, dot(h, twist)) * v),
                    )
            checked += 1
    assert checked > 40


def test_torus_translate_matches_coordinate_product():
    t = (Fraction(3), Fraction(1, 2))
    s = (Fraction(-1), Fraction(4))
    p = torus_point(s, WEDGE)
    q = torus_translate(t, p)
    assert q == torus_point(tuple(a * b for a, b in zip(t, s)), WEDGE)
    with pytest.raises(ZeroCoordinate):
        torus_translate((Fraction(0), Fraction(1)), p)


def test_torus_translate_scales_boundary_values():
    delta = interior_cocharacter(WEDGE)
    p = limit_point(delta, WEDGE)
    t = (Fraction(5), Fraction(7))
    q = torus_translate(t, p)
    for h in WEDGE.hilbert_basis:
        if p.values[h] == 0:
            assert q.values[h] == 0
        else:
            expect = Fraction(5) ** h[0] * Fraction(7) ** h[1]
            assert q.values[h] == expect


def test_coweight_scale_frozen_and_composes():
    p = identity_point(A1_CONE)
    q = coweight_scale(p, (1,), Fraction(2))
    assert q.values == {(-1,): Fraction(1, 2)}
    r1 = coweight_scale(p, (1,), Fraction(6))
    r2 = coweight_scale(coweight_scale(p, (1,), Fraction(2)), (1,), Fraction(3))
    assert r1 == r2
    with pytest.raises(ZeroScalar):
        coweight_scale(p, (1,), Fraction(0))


def test_chart_inclusion_agrees_on_torus():
    face = Cone([(-1, 0)], dim=2)
    coords = (Fraction(2), Fraction(-3))
    p = torus_point(coords, face)
    q = chart_inclusion(p, WEDGE)
    assert q == torus_point(coords, WEDGE)


def test_chart_inclusion_composes_along_chains():
    zero = Cone([], dim=2)
    face = Cone([(-1, 0)], dim=2)
    coords = (Fraction(5), Fraction(1, 3))
    p = torus_point(coords, zero)
    one_step = chart_inclusion(p, WEDGE)
    two_step = chart_inclusion(chart_inclusion(p, face), WEDGE)
    assert one_step == two_step


def test_chart_inclusion_rejects_non_face():
    interior_ray = Cone([(-1, -1)], dim=2)
    p = identity_point(interior_ray)
    with pytest.raises(NotAFace):
        chart_inclusion(p, WEDGE)


def test_wonderful_coords_frozen():
    rd = RootDatum.of_type("A", 1)
    assert wonderful_coords(torus_point((Fraction(2),), A1_CONE), rd) == (
        Fraction(1, 4),
    )
    assert wonderful_coords(limit_point((-1,), A1_CONE), rd) == (Fraction(0),)


def test_specialize_realizes_limits():
    # eps-curve through the torus lands exactly on the δ-limit point
    for cone in cone_catalog():
        if cone.is_zero():
            continue
        delta = interior_cocharacter(cone)
        coords = tuple(EPS ** int(d) for d in delta)
        curve = torus_point(coords, cone)
        assert specialize_at_zero(curve) == limit_point(delta, cone)


def test_specialize_pole_detected():
    curve = torus_point((EPS,), A1_CONE)  # value of (-1) is 1/eps
    with pytest.raises(PoleAtZero):
        specialize_at_zero(curve)


def test_torus_coordinates_rejects_boundary():
    p = limit_point((-1,), A1_CONE)
    with pytest.raises(ZeroScalar):
        torus_coordinates(p)


def test_field_tag():
    assert torus_point((Fraction(2),), A1_CONE).field == "Q"
    assert torus_point((RatFun(1) + EPS,), A1_CONE).field == "Q(eps)"
