"""Big-cell calculus: factorization, reflections, reordering, the action.

Group elements near the identity factor as u^- t u^+; replacing t by a
chart point gives mixed points of the partial compactification.  The maps
shown here are built purely from simple-reflection steps, then checked
against direct matrix computations, including over the boundary where no
matrix form exists.
"""

import random
from fractions import Fraction

from toroidal.bigcell import Calculus, MixedPoint, OutsideDomain, specialize_mixed
from toroidal.charts import limit_point, torus_point
from toroidal.chevalley import Pinning, random_element
from toroidal.cones import Cone
from toroidal.ratfun import EPS
from toroidal.rootdata import RootDatum

rd = RootDatum.of_type("A", 1)
pin = Pinning(rd)

def show(m):
    return [[str(x) for x in row] for row in m.rows]


g = pin.unipotent_product(pin.negative_order, [Fraction(1)]) @ pin.torus_element(
    (Fraction(2),)
) @ pin.unipotent_product(pin.positive_order, [Fraction(1, 2)])
lower, diag, upper = pin.ldu(g)
print("LDU big-cell split of", show(g))
print("  lower:", show(lower))
print("  diag: ", show(diag))
print("  upper:", show(upper))
print("sign table:", pin.chevalley_signs())

calc = Calculus(rd)
zero = Cone([], dim=1)
ray = Cone([(-1,)], dim=1)

# a single reflection agrees with matrix conjugation on torus points
p = MixedPoint(
    pin.root_element((-2,), Fraction(1)),
    torus_point((Fraction(2),), zero),
    pin.root_element((2,), Fraction(1)),
)
q = calc.reflect_simple(p, 0)
n = pin.simple_reflection_element(0)
print("\nreflected point matches n g n^{-1}:", calc.to_matrix(q) == n @ calc.to_matrix(p) @ n.inverse())

# over the boundary the same map inverts the unipotent slots
lam0 = limit_point((-1,), ray)
b = MixedPoint(pin.root_element((-2,), Fraction(3)), lam0, pin.root_element((2,), Fraction(5)))
rb = calc.reflect_simple(b, 0)
print("boundary slots after reflection:", show(rb.u_minus), show(rb.u_plus))

# the reordering map writes u^+ p u^- back in u^- t u^+ order
out = calc.reorder_direct(
    pin.root_element((2,), Fraction(1, 2)),
    torus_point((Fraction(2),), zero),
    pin.root_element((-2,), Fraction(1, 2)),
)
chart_values = {m: str(v) for m, v in out.chart.values.items()}
print("\nreordered:", show(out.u_minus), chart_values, show(out.u_plus))
print("reconstructed equals direct:", calc.reorder(
    pin.root_element((2,), Fraction(1, 2)),
    torus_point((Fraction(2),), zero),
    pin.root_element((-2,), Fraction(1, 2)),
) == out)

# the two-sided action extends multiplication to the compactified chart
rng = random.Random(4)
g1, g2 = random_element(pin, rng), random_element(pin, rng)
try:
    moved = calc.act(g1, p, g2)
    print("\naction lands at torus coords:", dict(moved.chart.values))
    print("agrees with direct product:", calc.act_direct(g1, p, g2) == moved)
except OutsideDomain as e:
    print("\naction undefined here:", e)

# constructions commute with specializing a curve at eps = 0
curve = MixedPoint(
    pin.root_element((-2,), Fraction(1) + EPS),
    torus_point((Fraction(2) + EPS,), zero),
    pin.root_element((2,), EPS),
)
spec_then_reflect = calc.reflect_simple(specialize_mixed(curve), 0)
reflect_then_spec = specialize_mixed(calc.reflect_simple(curve, 0))
print("\nspecialization commutes with reflection:", spec_then_reflect == reflect_then_spec)

# equivalence of translated points, decided by common witnesses
w = MixedPoint(pin.identity(), torus_point((Fraction(2),), zero), pin.identity())
c1, c2 = random_element(pin, rng), random_element(pin, rng)
same = (g1 @ c1.inverse(), calc.act(c1, w, c2), g2 @ c2.inverse())
verdict = calc.check_equivalence((g1, w, g2), same)
print("\nengineered equal pair:", verdict.kind, "after", verdict.attempts, "attempt(s)")

bumped = MixedPoint(w.u_minus, w.chart, w.u_plus @ pin.root_element((2,), Fraction(1)))
verdict = calc.check_equivalence((g1, w, g2), (g1, bumped, g2))
print("bumped pair:", verdict.kind)
