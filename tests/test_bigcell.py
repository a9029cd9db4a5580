import random
from fractions import Fraction

import pytest

from toroidal import bigcell
from toroidal.bigcell import (
    Calculus,
    EquivalenceVerdict,
    MixedPoint,
    OutsideDomain,
    OutsideVi,
    specialize_mixed,
)
from toroidal.catalog import chamber_cones
from toroidal.charts import (
    evaluate_character,
    identity_point,
    in_closed_orbit,
    limit_point,
    specialize_at_zero,
    torus_point,
    torus_translate,
)
from toroidal.chevalley import (
    conjugate_diagonal,
    conjugate_signed,
    random_element,
    signed_permutation,
)
from toroidal.cones import Cone, interior_cocharacter
from toroidal.linalg import Matrix
from toroidal.ratfun import EPS, RatFun
from toroidal.rootdata import RootDatum

CALC1 = Calculus(RootDatum.of_type("A", 1))
CALC2 = Calculus(RootDatum.of_type("A", 2))
ZERO1 = Cone([], dim=1)
RAY1 = Cone([(-1,)], dim=1)


def torus_mixed(calc, rng, cone=None):
    pin = calc.pinning
    rank = calc.rd.rank
    cone = cone or Cone([], dim=rank)
    neg, pos = pin.negative_order, pin.positive_order
    um = pin.unipotent_product(neg, [Fraction(rng.randint(-3, 3)) for _ in neg])
    up = pin.unipotent_product(pos, [Fraction(rng.randint(-3, 3)) for _ in pos])
    coords = tuple(Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(rank))
    return MixedPoint(um, torus_point(coords, cone), up)


def boundary_charts(calc):
    out = []
    for cone in chamber_cones(calc.rd):
        if cone.is_zero():
            out.append(identity_point(cone))
        else:
            out.append(limit_point(interior_cocharacter(cone), cone))
    return out


def test_mixed_point_validates_triangularity():
    chart = identity_point(ZERO1)
    upper = Matrix([[1, 1], [0, 1]])
    lower = Matrix([[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        MixedPoint(upper, chart, upper)
    with pytest.raises(ValueError):
        MixedPoint(lower, chart, lower)
    p = MixedPoint(lower, chart, upper)
    assert p == MixedPoint(lower, chart, upper)


def test_reflect_simple_frozen_conjugation():
    pin = CALC1.pinning
    p = MixedPoint(
        Matrix([[1, 0], [1, 1]]), identity_point(ZERO1), Matrix([[1, 1], [0, 1]])
    )
    q = CALC1.reflect_simple(p, 0)
    n = pin.simple_reflection_element(0)
    assert CALC1.to_matrix(p) == Matrix([[1, 1], [1, 2]])
    assert CALC1.to_matrix(q) == Matrix([[2, -1], [-1, 1]])
    assert CALC1.to_matrix(q) == n @ CALC1.to_matrix(p) @ n.inverse()
    assert q.chart.values[(-1,)] == Fraction(1, 2)


def test_reflect_simple_matches_conjugation_randomly():
    for calc in (CALC1, CALC2):
        rng = random.Random(31)
        pin = calc.pinning
        for i in range(calc.rd.rank):
            n = pin.simple_reflection_element(i)
            n_inv = n.inverse()
            done = 0
            while done < 25:
                p = torus_mixed(calc, rng)
                try:
                    q = calc.reflect_simple(p, i)
                except OutsideVi:
                    continue
                assert calc.to_matrix(q) == n @ calc.to_matrix(p) @ n_inv
                done += 1


def _oracle_point(calc, rng, chart, eps):
    """u^- t u^+ with coordinates in {-1, 0, 1}, plus multiples of eps if asked."""
    pin = calc.pinning

    def coord():
        c = Fraction(rng.randint(-1, 1))
        return c + EPS * rng.randint(-1, 1) if eps else c

    t = [Fraction(rng.choice([-2, -1, 1, 2])) for _ in range(calc.rd.rank)]
    if eps:
        t = [c * (1 + EPS * rng.randint(-1, 1)) for c in t]
    um = pin.unipotent_product(pin.negative_order, [coord() for _ in pin.negative_order])
    up = pin.unipotent_product(pin.positive_order, [coord() for _ in pin.positive_order])
    return MixedPoint(um, torus_translate(tuple(t), chart), up)


def test_reflect_simple_matches_coordinate_oracle(reflect_simple_by_coordinates):
    rng = random.Random(2)
    agreed = refused = 0
    for rank in (1, 2, 3):
        calc = Calculus(RootDatum.of_type("A", rank))
        for eps in (False, True):
            for chart in boundary_charts(calc):
                for i in range(rank):
                    for _ in range(2):
                        p = _oracle_point(calc, rng, chart, eps)
                        try:
                            want = reflect_simple_by_coordinates(calc, p, i)
                        except OutsideVi:
                            with pytest.raises(OutsideVi):
                                calc.reflect_simple(p, i)
                            refused += 1
                            continue
                        got = calc.reflect_simple(p, i)
                        assert got == want
                        assert repr(got) == repr(want)
                        agreed += 1
    assert agreed > 100 and refused > 20


def test_sweep_matches_coordinate_oracle_letter_by_letter(reflect_simple_by_coordinates):
    # reflect_longest and reflect_longest_inverse sweep the longest word in
    # opposite letter orders; each must equal the coordinate oracle applied
    # one letter at a time, and refuse with the report of the letter at
    # which the oracle leaves the domain
    rng = random.Random(66)
    agreed = refused = 0
    for rank, fields, copies in ((1, (False, True), 6), (2, (False, True), 3), (3, (False,), 3)):
        calc = Calculus(RootDatum.of_type("A", rank))
        charts = []
        for cone in chamber_cones(calc.rd):
            for face in cone.faces():
                delta = (0,) * rank if face.is_zero() else interior_cocharacter(face)
                charts.append(limit_point(delta, cone))
        sweeps = (
            (calc.reflect_longest, tuple(reversed(calc.longest_word))),
            (calc.reflect_longest_inverse, calc.longest_word),
        )
        for eps in fields:
            for chart in charts * copies:
                p = _oracle_point(calc, rng, chart, eps)
                for sweep, word in sweeps:
                    want, report = p, None
                    for i in word:
                        try:
                            want = reflect_simple_by_coordinates(calc, want, i)
                        except OutsideVi as e:
                            assert e.report.detail == f"simple index {i}"
                            report = e.report
                            break
                    if report is None:
                        got = sweep(p)
                        assert got == want and repr(got) == repr(want)
                        agreed += 1
                    else:
                        with pytest.raises(OutsideVi) as info:
                            sweep(p)
                        assert info.value.report == report
                        refused += 1
    assert agreed > 250 and refused > 250, (agreed, refused)


P = 10007


def _entries(p: MixedPoint):
    values = [v for _, v in sorted(p.chart.values.items())]
    return [x for r in p.u_minus.rows + p.u_plus.rows for x in r] + values


def test_reflect_simple_agrees_mod_p_letter_by_letter():
    # base change Z_(p) -> F_p: points with p-integral coordinates a and
    # a + p * delta (delta with a p-unit denominator), folded through the
    # longest word one letter at a time, stay p-integral and congruent mod p
    # wherever the denominator D = (-alpha_i)(t) + x y is a p-unit at a
    rng = random.Random(P)
    checked = skipped = 0
    for rank in (1, 2, 3):
        calc = Calculus(RootDatum.of_type("A", rank))
        pin, rd = calc.pinning, calc.rd
        neg, pos = pin.negative_order, pin.positive_order
        for cone in chamber_cones(rd):
            for face in cone.faces():
                delta = (0,) * rank if face.is_zero() else interior_cocharacter(face)
                chart = limit_point(delta, cone)
                for _ in range(2):
                    a = [Fraction(rng.randint(-2, 2)) for _ in neg + pos]
                    a += [Fraction(rng.choice([-2, -1, 1, 2, 3])) for _ in range(rank)]
                    points = []
                    for shift in (0, P):
                        c = [x + shift * Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for x in a]
                        um = pin.unipotent_product(neg, c[: len(neg)])
                        up = pin.unipotent_product(pos, c[len(neg) : -rank])
                        points.append(MixedPoint(um, torus_translate(c[-rank:], chart), up))
                    for i in reversed(calc.longest_word):
                        q = points[0]
                        a_i = rd.simple_root(i)
                        minus_a_i = tuple(-x for x in a_i)
                        x = pin.coordinate_at(q.u_minus, minus_a_i)
                        y = pin.coordinate_at(q.u_plus, a_i)
                        if (evaluate_character(q.chart, minus_a_i) + x * y).numerator % P == 0:
                            # D = 0 at a: the small inputs reach no other multiple of p
                            with pytest.raises(OutsideVi):
                                calc.reflect_simple(q, i)
                            skipped += 1
                            break
                        points = [calc.reflect_simple(q, i) for q in points]
                        for e0, e1 in zip(*map(_entries, points)):
                            assert e0.denominator % P and e1.denominator % P, (e0, e1)
                            assert (e0 - e1).numerator % P == 0, (e0, e1)
                        checked += 1
    assert checked > 300 and skipped > 50, (checked, skipped)


def _p_unit(x):
    return x.numerator % P and x.denominator % P


def test_reorder_and_act_agree_mod_p(monkeypatch):
    # the base change of the previous test, through reorder and act: where
    # every ldu pivot and every sweep denominator D is a p-unit at a, the
    # outputs at a and at a + p * delta are p-integral and congruent mod p
    denominators = []
    split, denominator = Calculus._ldu, bigcell._sweep_denominator

    def ldu(self, g, step, predicate):
        out = split(self, g, step, predicate)
        denominators.extend(out[1].rows[k][k] for k in range(out[1].nrows))
        return out

    def sweep_denominator(chi, x, y):
        d = denominator(chi, x, y)
        denominators.append(d)
        return d

    monkeypatch.setattr(Calculus, "_ldu", ldu)
    monkeypatch.setattr(bigcell, "_sweep_denominator", sweep_denominator)
    rng = random.Random(P + 1)
    checked = skipped = 0
    for rank in (1, 2):
        calc = Calculus(RootDatum.of_type("A", rank))
        pin, rd = calc.pinning, calc.rd
        neg, pos = pin.negative_order, pin.positive_order
        for cone in chamber_cones(rd):
            calc.anchors(cone)  # certified first, so only denominators at a are recorded
            for face in cone.faces():
                delta = (0,) * rank if face.is_zero() else interior_cocharacter(face)
                chart = limit_point(delta, cone)
                for _ in range(6):
                    a = [Fraction(rng.randint(-2, 2)) for _ in neg + pos]
                    a += [Fraction(rng.choice([-2, -1, 1, 2, 3])) for _ in range(rank)]
                    g1, g2 = random_element(pin, rng), random_element(pin, rng)
                    points = []
                    for shift in (0, P):
                        c = [x + shift * Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for x in a]
                        um = pin.unipotent_product(neg, c[: len(neg)])
                        up = pin.unipotent_product(pos, c[len(neg) : -rank])
                        points.append(MixedPoint(um, torus_translate(c[-rank:], chart), up))
                    maps = (
                        lambda q: calc.reorder(q.u_plus, q.chart, q.u_minus),
                        lambda q: calc.act(g1, q, g2),
                    )
                    for f in maps:
                        del denominators[:]
                        try:
                            at_a = f(points[0])
                        except OutsideDomain:
                            at_a = None
                        if at_a is None or not all(map(_p_unit, denominators)):
                            skipped += 1
                            continue
                        for e0, e1 in zip(_entries(at_a), _entries(f(points[1]))):
                            assert e0.denominator % P and e1.denominator % P, (e0, e1)
                            assert (e0 - e1).numerator % P == 0, (e0, e1)
                        checked += 1
    assert checked > 150 and skipped > 20, (checked, skipped)


def _scalars(rng):
    """0, +-1, random Fractions and a + b*eps (b may be 0, a constant RatFun)."""
    out = [Fraction(0), Fraction(1), Fraction(-1)]
    out += [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
    out += [Fraction(rng.randint(-3, 3)) + EPS * rng.randint(-2, 2) for _ in range(3)]
    return out


def _same(got, want):
    assert got == want
    assert repr(got) == repr(want)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_structured_factors_match_dense_products(rank, reflect_simple_by_products):
    calc = Calculus(RootDatum.of_type("A", rank))
    pin, rd = calc.pinning, calc.rd
    rng = random.Random(900 + rank)
    neg, pos = pin.negative_order, pin.positive_order
    mats = [random_element(pin, rng) for _ in range(2)]
    for scalars in (_scalars(rng), _scalars(rng)):
        mats.append(pin.unipotent_product(neg, rng.sample(scalars, len(neg))))
        mats.append(pin.unipotent_product(pos, rng.sample(scalars, len(pos))))
    n0_perm = signed_permutation(calc.n0)
    n0_inv = calc.n0.inverse()
    for g in mats:
        for beta in rd.roots:
            for c in _scalars(rng):
                x = pin.root_element(beta, c)
                _same(pin.times_root(g, beta, c), g @ x)
        for i in range(rank):
            n = pin.simple_reflection_element(i)
            _same(pin.conjugate_simple(i, g), n @ g @ n.inverse())
        _same(conjugate_signed(n0_perm, g), calc.n0 @ g @ n0_inv)
        for _ in range(3):
            coords = [c for c in _scalars(rng) if c != 0]
            t = pin.torus_element(rng.sample(coords, rank))
            t_inv = t.inverse()
            d = [t[k, k] for k in range(rank + 1)]
            d_inv = [1 / v for v in d]
            assert d_inv == [t_inv[k, k] for k in range(rank + 1)]
            _same(conjugate_diagonal(d, d_inv, g), t @ g @ t_inv)
            _same(conjugate_diagonal(d_inv, d, g), t_inv @ g @ t)
            s = pin.torus_element(rng.sample(coords, rank))
            e = [s[k, k] for k in range(rank + 1)]
            assert pin.diagonal_coordinates([a * b for a, b in zip(d, e)]) == (
                pin.torus_coordinates_of(t @ s)
            )
    for order in (neg, pos, tuple(reversed(rd.roots))):
        coords = [rng.choice(_scalars(rng)) for _ in order]
        want = pin.identity()
        for beta, c in zip(order, coords):
            want = want @ pin.root_element(beta, c)
        _same(pin.unipotent_product(order, coords), want)

    # the zero cone's chart is the torus; the others are boundary charts
    agreed = refused = 0
    for eps in (False, True):
        for chart in boundary_charts(calc):
            for i in range(rank):
                for _ in range(4):
                    p = _oracle_point(calc, rng, chart, eps)
                    try:
                        want = reflect_simple_by_products(calc, p, i)
                    except OutsideVi as e:
                        with pytest.raises(OutsideVi) as info:
                            calc.reflect_simple(p, i)
                        assert info.value.report == e.report
                        refused += 1
                        continue
                    _same(calc.reflect_simple(p, i), want)
                    agreed += 1
    assert agreed > 10 * rank and refused > 0


def test_reflect_simple_and_unipotent_product_build_no_dense_product(monkeypatch):
    pin = CALC2.pinning
    rng = random.Random(3)
    p = torus_mixed(CALC2, rng)
    calls = []
    matmul = Matrix.__matmul__

    def counted(self, other):
        calls.append(other)
        return matmul(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    CALC2.reflect_simple(p, 1)
    pin.unipotent_product(pin.positive_order, [Fraction(2), Fraction(-1), Fraction(3)])
    assert calls == []


def test_reflect_simple_refuses_an_index_outside_the_rank():
    p = torus_mixed(CALC2, random.Random(4))
    for i in (-1, 2):
        with pytest.raises(ValueError, match=f"simple index {i} .*range\\(2\\)"):
            CALC2.reflect_simple(p, i)


def test_reflect_longest_inverse_matches_cube_oracle(reflect_longest_inverse_by_cubes):
    # torus points and limit points of every face of every chamber cone,
    # translated by random torus elements
    rng = random.Random(5)
    agreed = refused = 0
    for rank, fields in ((1, (False, True)), (2, (False, True)), (3, (False,))):
        calc = Calculus(RootDatum.of_type("A", rank))
        charts = []
        for cone in chamber_cones(calc.rd):
            for face in cone.faces():
                delta = (0,) * rank if face.is_zero() else interior_cocharacter(face)
                charts.append(limit_point(delta, cone))
        for eps in fields:
            for chart in charts * 2:
                p = _oracle_point(calc, rng, chart, eps)
                try:
                    want = reflect_longest_inverse_by_cubes(calc, p)
                except OutsideDomain as e:
                    with pytest.raises(OutsideDomain) as info:
                        calc.reflect_longest_inverse(p)
                    assert info.value.report == e.report
                    refused += 1
                    continue
                got = calc.reflect_longest_inverse(p)
                assert got == want
                assert repr(got) == repr(want)
                agreed += 1
    assert agreed > 60 and refused > 30


def test_reflect_simple_boundary_slots():
    lam0 = limit_point((-1,), RAY1)
    rng = random.Random(8)
    for _ in range(30):
        x = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        y = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        p = MixedPoint(
            Matrix([[1, 0], [x, 1]]), lam0, Matrix([[1, y], [0, 1]])
        )
        q = CALC1.reflect_simple(p, 0)
        assert q.u_minus == Matrix([[1, 0], [Fraction(-1) / x, 1]])
        assert q.u_plus == Matrix([[1, Fraction(-1) / y], [0, 1]])
        assert in_closed_orbit(q.chart)


def test_reflect_simple_outside_vi_on_boundary_axis():
    lam0 = limit_point((-1,), RAY1)
    e = CALC1.pinning.identity()
    p = MixedPoint(e, lam0, Matrix([[1, 1], [0, 1]]))
    with pytest.raises(OutsideVi) as info:
        CALC1.reflect_simple(p, 0)
    assert info.value.report.step == "reflect_simple"


def test_double_reflection_is_central_for_sl2():
    rng = random.Random(5)
    for _ in range(20):
        p = torus_mixed(CALC1, rng)
        try:
            q = CALC1.reflect_simple(CALC1.reflect_simple(p, 0), 0)
        except OutsideVi:
            continue
        # n^2 = -I is central, so the double reflection fixes every point
        assert q == p


def test_longest_conjugation_roundtrip():
    for calc in (CALC1, CALC2):
        rng = random.Random(77)
        done = 0
        while done < 10:
            p = torus_mixed(calc, rng)
            try:
                q = calc.reflect_longest(p)
                r = calc.reflect_longest_inverse(q)
            except OutsideDomain:
                continue
            assert r == p
            done += 1


def test_anchors_certify_the_round_trip(monkeypatch):
    calc = Calculus(RootDatum.of_type("A", 1))
    monkeypatch.setattr(Calculus, "reflect_longest_inverse", lambda self, p: p)
    with pytest.raises(RuntimeError, match="round trip"):
        calc.anchors(RAY1)


def test_anchor_inverses_match_gauss_jordan():
    for rank in (1, 2, 3):
        calc = Calculus(RootDatum.of_type("A", rank))
        for cone in chamber_cones(calc.rd):
            um, um_inv, up, up_inv = calc.anchors(cone)
            for got, want in ((um_inv, um.inverse()), (up_inv, up.inverse())):
                assert repr(got) == repr(want)
                assert [type(x) for r in got.rows for x in r] == [
                    type(x) for r in want.rows for x in r
                ]


def test_reorder_direct_frozen_sl2():
    up = Matrix([[1, 1], [0, 1]])
    um = Matrix([[1, 0], [1, 1]])
    r = CALC1.reorder_direct(up, identity_point(ZERO1), um)
    assert r.u_minus == Matrix([[1, 0], [Fraction(1, 2), 1]])
    assert r.chart == torus_point((Fraction(2),), ZERO1)
    assert r.u_plus == Matrix([[1, Fraction(1, 2)], [0, 1]])


def test_reorder_outside_domain_sl2():
    # [[1,-1],[0,1]] t [[1,0],[1,1]] has a vanishing leading minor
    up = Matrix([[1, -1], [0, 1]])
    um = Matrix([[1, 0], [1, 1]])
    with pytest.raises(OutsideDomain) as info:
        CALC1.reorder_direct(up, identity_point(ZERO1), um)
    assert info.value.report.step == "reorder_direct"
    with pytest.raises(OutsideDomain):
        CALC1.reorder(up, identity_point(ZERO1), um)


def test_reorder_matches_direct_on_torus():
    for calc in (CALC1, CALC2):
        rng = random.Random(13)
        done = 0
        while done < 40:
            p = torus_mixed(calc, rng)
            try:
                r1 = calc.reorder(p.u_plus, p.chart, p.u_minus)
                r2 = calc.reorder_direct(p.u_plus, p.chart, p.u_minus)
            except OutsideDomain:
                continue
            assert r1 == r2
            done += 1


def test_reorder_identity_on_boundary_catalog():
    for calc in (CALC1, CALC2):
        e = calc.pinning.identity()
        for chart in boundary_charts(calc):
            r = calc.reorder(e, chart, e)
            assert r == MixedPoint(e, chart, e)


def test_reorder_torus_equivariance():
    # theta intertwines the two torus actions, including over the boundary
    for calc in (CALC1, CALC2):
        rng = random.Random(6)
        pin = calc.pinning
        rank = calc.rd.rank
        charts = boundary_charts(calc)
        done = 0
        while done < 15:
            chart = rng.choice(charts)
            neg, pos = pin.negative_order, pin.positive_order
            um = pin.unipotent_product(
                neg, [Fraction(rng.randint(-2, 2)) for _ in neg]
            )
            up = pin.unipotent_product(
                pos, [Fraction(rng.randint(-2, 2)) for _ in pos]
            )
            tc = tuple(Fraction(rng.choice([-2, -1, 1, 2, 3])) for _ in range(rank))
            t = pin.torus_element(tc)
            t_inv = t.inverse()
            try:
                base = calc.reorder(up, chart, um)
                moved = calc.reorder(
                    t @ up @ t_inv, torus_translate(tc, chart), um
                )
            except OutsideDomain:
                continue
            assert moved.u_minus == t @ base.u_minus @ t_inv
            assert moved.chart == torus_translate(tc, base.chart)
            assert moved.u_plus == base.u_plus
            done += 1


def test_act_identity_everywhere():
    for calc in (CALC1, CALC2):
        e = calc.pinning.identity()
        rng = random.Random(3)
        for chart in boundary_charts(calc):
            p = MixedPoint(e, chart, e)
            assert calc.act(e, p, e) == p
        for _ in range(10):
            p = torus_mixed(calc, rng)
            assert calc.act(e, p, e) == p


def test_act_matches_direct_on_torus():
    for calc in (CALC1, CALC2):
        rng = random.Random(14)
        done = 0
        while done < 25:
            p = torus_mixed(calc, rng)
            g1 = random_element(calc.pinning, rng)
            g2 = random_element(calc.pinning, rng)
            try:
                r1 = calc.act(g1, p, g2)
                r2 = calc.act_direct(g1, p, g2)
            except OutsideDomain:
                continue
            assert r1 == r2
            done += 1


def test_act_inverts_g2_through_its_split(monkeypatch):
    calls = []
    inverse = Matrix.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    rng = random.Random(15)
    p = torus_mixed(CALC2, rng)
    g1, g2 = CALC2.pinning.identity(), random_element(CALC2.pinning, rng)
    want = CALC2.act_direct(g1, p, g2)
    CALC2.anchors(p.chart.cone)  # inverts its base point once per cone
    monkeypatch.setattr(Matrix, "inverse", counted)
    assert CALC2.act(g1, p, g2) == want
    assert calls == []


def test_act_outside_domain_reports_step():
    n = CALC1.pinning.simple_reflection_element(0)
    e = CALC1.pinning.identity()
    p = MixedPoint(e, identity_point(ZERO1), e)
    with pytest.raises(OutsideDomain) as info:
        CALC1.act(n, p, e)
    assert info.value.report.step == "act"
    assert "g1" in info.value.report.predicate


def test_transfer_roundtrip():
    for calc in (CALC1, CALC2):
        rng = random.Random(23)
        done = 0
        while done < 10:
            p = torus_mixed(calc, rng)
            g = random_element(calc.pinning, rng)
            h = random_element(calc.pinning, rng)
            try:
                assert calc.transfer(g, g, p) == p
                assert calc.transfer((g, h), (g, h), p) == p
            except OutsideDomain:
                continue
            done += 1


def test_specialize_mixed_entrywise():
    pin = CALC1.pinning
    um = Matrix([[1, 0], [RatFun(2) + EPS, 1]])
    up = Matrix([[1, RatFun(1) - EPS], [0, 1]])
    chart = torus_point((RatFun(3) + EPS,), ZERO1)
    p = MixedPoint(um, chart, up)
    q = specialize_mixed(p)
    assert q.u_minus == Matrix([[1, 0], [2, 1]])
    assert q.u_plus == Matrix([[1, 1], [0, 1]])
    assert q.chart == torus_point((Fraction(3),), ZERO1)


def test_reflection_commutes_with_specialization():
    # eps-curves: applying f_0 then sending eps -> 0 equals the reverse order
    rng = random.Random(42)
    done = 0
    while done < 15:
        x = RatFun(rng.randint(-2, 2)) + RatFun(rng.randint(-1, 1)) * EPS
        y = RatFun(rng.randint(-2, 2)) + RatFun(rng.randint(-1, 1)) * EPS
        a = RatFun(rng.randint(1, 3)) + RatFun(rng.randint(0, 1)) * EPS
        p = MixedPoint(
            Matrix([[1, 0], [x, 1]]),
            torus_point((a,), ZERO1),
            Matrix([[1, y], [0, 1]]),
        )
        try:
            q_curve = CALC1.reflect_simple(p, 0)
            q_zero = CALC1.reflect_simple(specialize_mixed(p), 0)
        except OutsideVi:
            continue
        assert specialize_mixed(q_curve) == q_zero
        done += 1


# -- equivalence tester -------------------------------------------------------


def equivalent_pair(calc, rng):
    while True:
        w = torus_mixed(calc, rng)
        g1 = random_element(calc.pinning, rng)
        g2 = random_element(calc.pinning, rng)
        c1 = random_element(calc.pinning, rng)
        c2 = random_element(calc.pinning, rng)
        try:
            w2 = calc.act(c1, w, c2)
        except OutsideDomain:
            continue
        a = (g1, w, g2)
        b = (g1 @ c1.inverse(), w2, g2 @ c2.inverse())
        return a, b


def test_equivalence_detects_equal_points():
    for calc in (CALC1, CALC2):
        rng = random.Random(91)
        hits = 0
        for _ in range(10):
            a, b = equivalent_pair(calc, rng)
            verdict = calc.check_equivalence(a, b)
            assert verdict.kind in ("equivalent", "inconclusive")
            if verdict.kind == "equivalent":
                assert verdict.witness is not None
                hits += 1
        assert hits >= 8


def test_equivalence_identity_witness_tried_first():
    e = CALC1.pinning.identity()
    rng = random.Random(17)
    w = torus_mixed(CALC1, rng)
    verdict = CALC1.check_equivalence((e, w, e), (e, w, e))
    assert verdict.kind == "equivalent"
    assert verdict.attempts == 1
    assert verdict.witness == (e, e)


def test_equivalence_detects_distinct_points():
    for calc in (CALC1, CALC2):
        rng = random.Random(37)
        pin = calc.pinning
        alpha = calc.rd.simple_root(0)
        for _ in range(8):
            w = torus_mixed(calc, rng)
            bumped = MixedPoint(
                w.u_minus, w.chart, w.u_plus @ pin.root_element(alpha, Fraction(1))
            )
            g1 = random_element(pin, rng)
            g2 = random_element(pin, rng)
            verdict = calc.check_equivalence((g1, w, g2), (g1, bumped, g2))
            assert verdict.kind in ("not_equivalent", "inconclusive")
            if verdict.kind == "not_equivalent":
                assert verdict.witness is not None


def test_equivalence_requires_common_cone():
    e = CALC1.pinning.identity()
    w1 = MixedPoint(e, identity_point(ZERO1), e)
    w2 = MixedPoint(e, identity_point(RAY1), e)
    with pytest.raises(ValueError):
        CALC1.check_equivalence((e, w1, e), (e, w2, e))


def test_equivalence_inconclusive_when_budget_exhausted():
    e = CALC1.pinning.identity()
    n = CALC1.pinning.simple_reflection_element(0)
    rng = random.Random(2)
    w = torus_mixed(CALC1, rng)
    # g1 = n never lies in the big cell after the identity witness, and the
    # budget stops before any random witness can fix that
    verdict = CALC1.check_equivalence((n, w, e), (n, w, e), witness_budget=1)
    assert verdict == EquivalenceVerdict("inconclusive", None, 1)


def test_equivalence_matches_products_with_the_identity_pair(check_equivalence_by_products):
    # equivalent pairs, and bumped pairs that are not, at ranks 1 and 2
    for calc in (CALC1, CALC2):
        rng = random.Random(2313)
        pin = calc.pinning
        alpha = calc.rd.simple_root(0)
        for k in range(6):
            a, b = equivalent_pair(calc, rng)
            g1, w, g2 = a
            bumped = MixedPoint(
                w.u_minus, w.chart, w.u_plus @ pin.root_element(alpha, Fraction(1))
            )
            e = pin.identity()
            for pair in (a, b), ((g1, w, g2), (g1, bumped, g2)), ((e, w, e), (e, bumped, e)):
                verdict = calc.check_equivalence(*pair, seed=k)
                assert verdict == check_equivalence_by_products(calc, *pair, seed=k)
