"""Randomized and exhaustive property suites behind the command-line verifier.

Each suite checks a small set of named properties for the group SL_{rank+1}
and reports per-property pass/fail with a counterexample string on failure.
All randomness is drawn from generators seeded by (seed, suite, property), so
reports are bytewise reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .bigcell import Calculus, MixedPoint, OutsideDomain, specialize_mixed
from .catalog import chamber_cones
from .charts import (
    LimitDoesNotExist,
    chart_inclusion,
    identity_point,
    limit_point,
    specialize_at_zero,
    torus_point,
    torus_translate,
)
from .chevalley import random_element
from .cones import Cone, face_witness, interior_cocharacter
from .linalg import dot
from .ratfun import EPS, PoleAtZero
from .rootdata import RootDatum

__all__ = ["SUITE_NAMES", "UnknownSuite", "PropertyResult", "VerificationReport", "run_suite"]

class UnknownSuite(ValueError):
    pass


@dataclass
class PropertyResult:
    name: str
    passed: bool
    cases: int
    counterexample: str | None = None


@dataclass
class VerificationReport:
    suite: str
    rank: int
    seed: int
    cases: int
    properties: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(p.passed for p in self.properties)


_CALCULI: dict[int, Calculus] = {}


def _calculus(rank: int) -> Calculus:
    if rank not in _CALCULI:
        _CALCULI[rank] = Calculus(RootDatum.of_type("A", rank))
    return _CALCULI[rank]


def _rng(seed: int, suite: str, prop: str) -> random.Random:
    return random.Random(f"{seed}:{suite}:{prop}")


def _nonzero_fraction(rng) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-6, 6)
    return Fraction(num, rng.randint(1, 3))


def _torus_coords(rng, rank: int):
    return tuple(_nonzero_fraction(rng) for _ in range(rank))


def _random_unipotents(calc: Calculus, rng):
    pin = calc.pinning
    neg = tuple(Fraction(rng.randint(-3, 3)) for _ in pin.negative_order)
    pos = tuple(Fraction(rng.randint(-3, 3)) for _ in pin.positive_order)
    return (
        pin.unipotent_product(pin.negative_order, neg),
        pin.unipotent_product(pin.positive_order, pos),
    )


def _zero_cone(calc: Calculus) -> Cone:
    """The zero cone, kept with the rest of the chamber's faces."""
    return calc.rd.negative_chamber().faces()[0]


def _boundary_charts(calc: Calculus, rng, count: int):
    """Chart points on every stratum of every chamber-supported cone."""
    cones = [c for c in chamber_cones(calc.rd) if not c.is_zero()]
    out = []
    while len(out) < count:
        cone = rng.choice(cones)
        tau = rng.choice([f for f in cone.faces() if not f.is_zero()])
        base = limit_point(interior_cocharacter(tau), cone)
        out.append(torus_translate(_torus_coords(rng, calc.rd.rank), base))
    return out


# -- sampling ------------------------------------------------------------------

# returned by a trial whose draw must be redrawn
_SKIP = object()


def _sample(name: str, cases: int, trial, attempts: int = 20) -> PropertyResult:
    """Call trial() until `cases` draws are decided, at most cases * attempts times.

    A trial returns None when its case passes, a counterexample string when
    it fails, and _SKIP when the draw must be redrawn.  The property passes
    when nothing failed and all `cases` draws were decided; the first
    counterexample is kept.
    """
    done = fails = 0
    ce = None
    for _ in range(cases * attempts):
        if done >= cases:
            break
        out = trial()
        if out is _SKIP:
            continue
        done += 1
        if out is not None:
            fails += 1
            ce = ce or out
    return PropertyResult(name, fails == 0 and done >= cases, done, ce)


def _each(name: str, items, check) -> PropertyResult:
    """Check every item once: a sample whose cases are the items."""
    it = iter(items)
    return _sample(name, len(items), lambda: check(next(it)))


# -- individual suites ---------------------------------------------------------


def _suite_signs(rank: int, cases: int, seed: int):
    calc = _calculus(rank)
    table = calc.pinning.chevalley_signs()

    def unit(kv):
        return None if kv[1] in (1, -1) else f"{kv}"

    def own_root(key):
        return None if table[key] == -1 else f"{(*key, table[key])}"

    own = [
        (i, tuple(s * x for x in calc.rd.simple_root(i)))
        for i in range(rank)
        for s in (1, -1)
    ]
    return [
        _each("signs_are_units", list(table.items()), unit),
        _each("own_root_sign_is_minus_one", own, own_root),
    ]


def _suite_f_i(rank: int, cases: int, seed: int):
    calc = _calculus(rank)
    pin = calc.pinning
    zero = _zero_cone(calc)

    rng = _rng(seed, "f_i", "torus_conjugation")

    def torus_conjugation():
        um, up = _random_unipotents(calc, rng)
        p = MixedPoint(um, torus_point(_torus_coords(rng, rank), zero), up)
        i = rng.randrange(rank)
        try:
            q = calc.reflect_simple(p, i)
        except OutsideDomain:
            return _SKIP
        n_i = pin.simple_reflection_element(i)
        expected = n_i @ calc.to_matrix(p) @ n_i.inverse()
        if calc.to_matrix(q) != expected:
            return f"i={i}, point={p!r}"
        return None

    props = [_sample("torus_conjugation", cases, torus_conjugation)]

    rng = _rng(seed, "f_i", "boundary_slots")
    chamber = calc.rd.negative_chamber()
    base = limit_point(interior_cocharacter(chamber), chamber)

    def boundary_slots():
        i = rng.randrange(rank)
        x = _nonzero_fraction(rng)
        y = _nonzero_fraction(rng)
        a_i = calc.rd.simple_root(i)
        minus_a_i = tuple(-v for v in a_i)
        p = MixedPoint(
            pin.root_element(minus_a_i, x), base, pin.root_element(a_i, y)
        )
        q = calc.reflect_simple(p, i)
        ok = (
            q.u_minus == pin.root_element(minus_a_i, -1 / x)
            and q.u_plus == pin.root_element(a_i, -1 / y)
            and all(v == 0 for v in q.chart.values.values())
        )
        return None if ok else f"i={i}, x={x}, y={y}"

    props.append(_sample("boundary_slots", cases, boundary_slots))

    rng = _rng(seed, "f_i", "double_reflection")

    def double_reflection():
        um, up = _random_unipotents(calc, rng)
        p = MixedPoint(um, torus_point(_torus_coords(rng, rank), zero), up)
        i = rng.randrange(rank)
        try:
            q = calc.reflect_simple(calc.reflect_simple(p, i), i)
        except OutsideDomain:
            return _SKIP
        n_sq = pin.simple_reflection_element(i)
        n_sq = n_sq @ n_sq
        if calc.to_matrix(q) != n_sq @ calc.to_matrix(p) @ n_sq.inverse():
            return f"i={i}, point={p!r}"
        return None

    props.append(_sample("double_reflection", cases, double_reflection))
    return props


def _suite_theta(rank: int, cases: int, seed: int):
    calc = _calculus(rank)
    ident = calc.pinning.identity()
    cone_pool = [_zero_cone(calc)] + chamber_cones(calc.rd)

    rng = _rng(seed, "theta", "torus_agreement")

    def torus_agreement():
        um, up = _random_unipotents(calc, rng)
        cone = rng.choice(cone_pool)
        chart = torus_point(_torus_coords(rng, rank), cone)
        try:
            got = calc.reorder(up, chart, um)
            want = calc.reorder_direct(up, chart, um)
        except OutsideDomain:
            return _SKIP
        return None if got == want else f"cone={cone!r}, chart={chart!r}"

    props = [_sample("torus_agreement", cases, torus_agreement)]

    rng = _rng(seed, "theta", "boundary_identity")

    def boundary_identity(chart):
        # a domain miss on the identity is a failure, not a redraw
        try:
            got = calc.reorder(ident, chart, ident)
        except OutsideDomain as e:
            return f"chart={chart!r}: {e}"
        return None if got == MixedPoint(ident, chart, ident) else f"chart={chart!r}"

    props.append(
        _each("boundary_identity", _boundary_charts(calc, rng, cases), boundary_identity)
    )

    rng = _rng(seed, "theta", "torus_equivariance")

    def torus_equivariance():
        um, up = _random_unipotents(calc, rng)
        chart = rng.choice(_boundary_charts(calc, rng, 1) + [
            torus_point(_torus_coords(rng, rank), rng.choice(cone_pool))
        ])
        t = _torus_coords(rng, rank)
        tm = calc.pinning.torus_element(t)
        tm_inv = tm.inverse()
        try:
            plain = calc.reorder(up, chart, um)
            moved = calc.reorder(tm @ up @ tm_inv, torus_translate(t, chart), um)
        except OutsideDomain:
            return _SKIP
        expected = MixedPoint(
            tm @ plain.u_minus @ tm_inv,
            torus_translate(t, plain.chart),
            plain.u_plus,
        )
        return None if moved == expected else f"t={t}, chart={chart!r}"

    props.append(_sample("torus_equivariance", cases, torus_equivariance))
    return props


def _suite_action(rank: int, cases: int, seed: int):
    calc = _calculus(rank)
    pin = calc.pinning
    zero = _zero_cone(calc)

    rng = _rng(seed, "action", "torus_agreement")

    def torus_agreement():
        um, up = _random_unipotents(calc, rng)
        p = MixedPoint(um, torus_point(_torus_coords(rng, rank), zero), up)
        g1 = random_element(pin, rng)
        g2 = random_element(pin, rng)
        try:
            got = calc.act(g1, p, g2)
            want = calc.act_direct(g1, p, g2)
        except OutsideDomain:
            return _SKIP
        return None if got == want else f"g1={g1!r}, g2={g2!r}, p={p!r}"

    props = [_sample("torus_agreement", cases, torus_agreement)]

    rng = _rng(seed, "action", "boundary_identity")
    ident = pin.identity()

    def boundary_identity(chart):
        um, up = _random_unipotents(calc, rng)
        p = MixedPoint(um, chart, up)
        # a domain miss on the identity is a failure, not a redraw
        try:
            got = calc.act(ident, p, ident)
        except OutsideDomain as e:
            return f"chart={chart!r}: {e}"
        return None if got == p else f"chart={chart!r}"

    props.append(
        _each("boundary_identity", _boundary_charts(calc, rng, cases), boundary_identity)
    )
    return props


def _suite_equivalence(rank: int, cases: int, seed: int):
    calc = _calculus(rank)
    pin = calc.pinning
    chamber = calc.rd.negative_chamber()

    def random_point(rng):
        base = limit_point(interior_cocharacter(chamber), chamber)
        um, up = _random_unipotents(calc, rng)
        return MixedPoint(
            um, torus_translate(_torus_coords(rng, rank), base), up
        )

    rng = _rng(seed, "equivalence", "equivalent_detected")

    def equivalent_detected():
        w = random_point(rng)
        g1, g2 = random_element(pin, rng), random_element(pin, rng)
        c1, c2 = random_element(pin, rng), random_element(pin, rng)
        try:
            w2 = calc.act(c1, w, c2)
        except OutsideDomain:
            return _SKIP
        a = (g1, w, g2)
        b = (g1 @ c1.inverse(), w2, g2 @ c2.inverse())
        verdict = calc.check_equivalence(a, b, witness_budget=8, seed=rng.randrange(10**6))
        if verdict.kind == "inconclusive":
            return _SKIP
        return None if verdict.kind == "equivalent" else f"witness={verdict.witness!r}"

    props = [_sample("equivalent_detected", cases, equivalent_detected)]

    rng = _rng(seed, "equivalence", "inequivalent_detected")

    def inequivalent_detected():
        w = random_point(rng)
        g1, g2 = random_element(pin, rng), random_element(pin, rng)
        # translating only one unipotent leg changes the point
        w2 = MixedPoint(
            w.u_minus,
            w.chart,
            w.u_plus @ pin.root_element(calc.rd.simple_root(0), Fraction(1)),
        )
        verdict = calc.check_equivalence(
            (g1, w, g2), (g1, w2, g2), witness_budget=8, seed=rng.randrange(10**6)
        )
        if verdict.kind == "inconclusive":
            return _SKIP
        return None if verdict.kind == "not_equivalent" else f"witness={verdict.witness!r}"

    props.append(_sample("inequivalent_detected", cases, inequivalent_detected))
    return props


def _suite_functoriality(rank: int, cases: int, seed: int):
    calc = _calculus(rank)
    cones = chamber_cones(calc.rd)

    def face_witness_invariants(tau_sigma):
        tau, sigma = tau_sigma
        u = face_witness(tau, sigma)
        if u is None:
            return f"no witness for {tau!r} in {sigma!r}"
        tau_set = set(tau.rays)
        ok = all(dot(u, r) == 0 for r in tau.rays)
        ok = ok and all(dot(u, r) > 0 for r in sigma.rays if r not in tau_set)
        try:
            sigma.monoid_decompose(u)
        except Exception:
            ok = False
        return None if ok else f"witness {u} for {tau!r} in {sigma!r}"

    pairs = [(tau, sigma) for sigma in cones for tau in sigma.faces()]
    props = [_each("face_witness_invariants", pairs, face_witness_invariants)]

    rng = _rng(seed, "functoriality", "inclusion_composition")
    full = [c for c in cones if len(c.rays) >= 2] or cones

    def inclusion_composition():
        sigma = rng.choice(full)
        mids = [m for m in sigma.faces()]
        mu = rng.choice(mids)
        taus = [t for t in mu.faces()]
        tau = rng.choice(taus)
        if rng.random() < 0.5:
            p = torus_point(_torus_coords(rng, rank), tau)
        else:
            if tau.is_zero():
                p = identity_point(tau)
            else:
                p = torus_translate(
                    _torus_coords(rng, rank),
                    limit_point(interior_cocharacter(tau), tau),
                )
        via = chart_inclusion(chart_inclusion(p, mu), sigma)
        direct = chart_inclusion(p, sigma)
        return None if via == direct else f"tau={tau!r}, mu={mu!r}, sigma={sigma!r}"

    props.append(_sample("inclusion_composition", cases, inclusion_composition))

    rng = _rng(seed, "functoriality", "inclusion_on_torus")

    def inclusion_on_torus():
        sigma = rng.choice(full)
        tau = rng.choice(list(sigma.faces()))
        coords = _torus_coords(rng, rank)
        if chart_inclusion(torus_point(coords, tau), sigma) != torus_point(coords, sigma):
            return f"coords={coords}, tau={tau!r}, sigma={sigma!r}"
        return None

    props.append(_sample("inclusion_on_torus", cases, inclusion_on_torus))
    return props


def _suite_limits(rank: int, cases: int, seed: int):
    calc = _calculus(rank)
    pin = calc.pinning
    cones = [c for c in chamber_cones(calc.rd) if not c.is_zero()]

    rng = _rng(seed, "limits", "curve_specialization")

    def curve_specialization():
        cone = rng.choice(cones)
        delta = [0] * rank
        for r in cone.rays:
            k = rng.randint(0, 2)
            delta = [a + k * b for a, b in zip(delta, r)]
        if not any(delta):
            delta = list(cone.rays[0])
        coords = tuple(EPS ** d for d in delta)
        got = specialize_at_zero(torus_point(coords, cone))
        want = limit_point(tuple(delta), cone)
        return None if got == want else f"delta={tuple(delta)}, cone={cone!r}"

    props = [_sample("curve_specialization", cases, curve_specialization)]

    rng = _rng(seed, "limits", "no_limit_outside")

    def no_limit_outside():
        cone = rng.choice(cones)
        delta = tuple(rng.randint(-3, 3) for _ in range(rank))
        if cone.contains(delta):
            return _SKIP
        try:
            limit_point(delta, cone)
            return f"limit_point accepted delta={delta} for {cone!r}"
        except LimitDoesNotExist:
            pass
        try:
            specialize_at_zero(torus_point(tuple(EPS ** d for d in delta), cone))
            return f"specialization accepted delta={delta} for {cone!r}"
        except PoleAtZero:
            return None

    props.append(_sample("no_limit_outside", cases, no_limit_outside))

    rng = _rng(seed, "limits", "constructions_commute")

    def constructions_commute():
        cone = rng.choice(cones)
        base = limit_point(interior_cocharacter(cone), cone)
        t_eps = tuple(
            c * (1 + EPS * Fraction(rng.randint(-2, 2)))
            for c in _torus_coords(rng, rank)
        )
        chart = torus_translate(t_eps, base)
        neg = tuple(
            Fraction(rng.randint(-2, 2)) + EPS * Fraction(rng.randint(-2, 2))
            for _ in pin.negative_order
        )
        pos = tuple(
            Fraction(rng.randint(-2, 2)) + EPS * Fraction(rng.randint(-2, 2))
            for _ in pin.positive_order
        )
        um = pin.unipotent_product(pin.negative_order, neg)
        up = pin.unipotent_product(pin.positive_order, pos)
        p = MixedPoint(um, chart, up)
        which = rng.randrange(3)
        try:
            p0 = specialize_mixed(p)
            if which == 0:
                i = rng.randrange(rank)
                curve = calc.reflect_simple(p, i)
                point = calc.reflect_simple(p0, i)
            elif which == 1:
                curve = calc.reorder(p.u_plus, p.chart, p.u_minus)
                point = calc.reorder(p0.u_plus, p0.chart, p0.u_minus)
            else:
                g1 = random_element(pin, rng)
                g2 = random_element(pin, rng)
                curve = calc.act(g1, p, g2)
                point = calc.act(g1, p0, g2)
            curve0 = specialize_mixed(curve)
        except (OutsideDomain, PoleAtZero):
            return _SKIP
        if curve0 != point:
            return f"construction={('f_i', 'theta', 'action')[which]}, cone={cone!r}"
        return None

    props.append(_sample("constructions_commute", cases, constructions_commute, attempts=40))
    return props


_SUITE_FUNCS = {
    "signs": _suite_signs,
    "f_i": _suite_f_i,
    "theta": _suite_theta,
    "action": _suite_action,
    "equivalence": _suite_equivalence,
    "functoriality": _suite_functoriality,
    "limits": _suite_limits,
}
SUITE_NAMES = tuple(_SUITE_FUNCS)


def run_suite(name: str, rank: int = 1, cases: int = 25, seed: int = 0) -> VerificationReport:
    """Run one named suite (or "all") and collect per-property results."""
    if name == "all":
        report = VerificationReport("all", rank, seed, cases)
        for sub in SUITE_NAMES:
            for prop in _SUITE_FUNCS[sub](rank, cases, seed):
                prop.name = f"{sub}:{prop.name}"
                report.properties.append(prop)
        return report
    if name not in _SUITE_FUNCS:
        raise UnknownSuite(f"unknown suite {name!r}")
    report = VerificationReport(name, rank, seed, cases)
    report.properties.extend(_SUITE_FUNCS[name](rank, cases, seed))
    return report
