"""Birational calculus on mixed big-cell charts U^- x T_sigma x U^+.

A point of the chart attached to a cone sigma is a triple: a lower-unitriangular
matrix, a monoid-algebra point of the torus closure, and an upper-unitriangular
matrix.  The maps implemented here are all rational: each raises OutsideDomain
with a structured report when a required factorization or denominator fails.

The key maps are the single-reflection conjugations f_i, the multiplication
reordering Theta (u^+ t u^-  ->  u^- t u^+), the two-sided action A_sigma, and
the transfer map between overlapping group translates of the chart.

Root elements, the Weyl representatives n_i and n_0 and the diagonal factors
of ``ldu`` are applied as row and column operations, signed permutations and
entrywise scalings (see ``chevalley``), never as dense products.  A word of
reflections is one sweep over mutable rows and one dict of chart values,
with the per-letter data (root positions, the signed permutation of n_i and
-alpha_i) computed once; the exponents of -alpha_i come from the cone's
memoized monoid decomposition, and the sweep builds one MixedPoint at the
end.  Theta and the action multiply pairs of lower (upper) unitriangular
matrices by ``linalg.unitriangular_product``, which computes only the
entries below (above) the diagonal; that leaves four general products per
action, each an upper times a lower unitriangular matrix.  The action reads
g2^{-1} off the split of g2 that its membership check already computes,
with one more such product (``chevalley.split_inverse``).

The scalars the sweep and the action form themselves, D = (-alpha_i)(t) +
x y and the multipliers -y/D and -x/D of each letter, the reciprocals of
the ``ldu`` diagonals (``_diagonal``) and the products of two diagonals
(``Pinning.diagonal_coordinates``), are computed on numerators and
denominators and built once each by ``linalg._rational``: one Fraction over
Q, one RatFun over Q(eps), from one body.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .charts import (
    ChartPoint,
    _as_scalar,
    _monomial,
    _times_powers,
    identity_point,
    limit_point,
    specialize_at_zero,
    torus_coordinates,
    torus_point,
    torus_translate,
)
from .chevalley import (
    NotInBigCell,
    Pinning,
    _add_column,
    _add_row,
    _signed_rows,
    conjugate_diagonal,
    conjugate_signed,
    random_element,
    signed_permutation,
    split_inverse,
)
from .cones import Cone, interior_cocharacter
from .linalg import Matrix, _rational, unitriangular_inverse, unitriangular_product
from .ratfun import evaluate_at_zero
from .rootdata import RootDatum

__all__ = [
    "DomainReport",
    "OutsideDomain",
    "OutsideVi",
    "MixedPoint",
    "EquivalenceVerdict",
    "Calculus",
    "specialize_mixed",
]


def specialize_mixed(p: "MixedPoint") -> "MixedPoint":
    """Evaluate every eps-dependent entry of a mixed point at eps = 0."""
    return MixedPoint(
        p.u_minus.map(evaluate_at_zero),
        specialize_at_zero(p.chart),
        p.u_plus.map(evaluate_at_zero),
    )


@dataclass(frozen=True)
class DomainReport:
    """Which step of which map failed, and which predicate was violated."""

    step: str
    predicate: str
    detail: str


class OutsideDomain(Exception):
    def __init__(self, report: DomainReport):
        super().__init__(f"{report.step}: needs {report.predicate} ({report.detail})")
        self.report = report


class OutsideVi(OutsideDomain):
    """The denominator of a single-reflection conjugation vanished."""


def _diagonal(d: Matrix):
    """The diagonal entries of d and their reciprocals, each one ``_rational``."""
    entries = tuple(d.rows[k][k] for k in range(d.nrows))
    return entries, tuple(_rational(x.denominator, x.numerator) for x in entries)


def _sweep_denominator(chi, x, y):
    """D = chi + x y, one ``_rational`` from numerators and denominators."""
    cd, xd, yd = chi.denominator, x.denominator, y.denominator
    return _rational(chi.numerator * xd * yd + x.numerator * y.numerator * cd, cd * xd * yd)


def _minus_over(a, d):
    """-a / d for d != 0, one ``_rational`` from numerators and denominators."""
    return _rational(-a.numerator * d.denominator, a.denominator * d.numerator)


def _is_unitriangular(rows, lower: bool) -> bool:
    """Whether the rows are square, lower (upper) triangular, with 1 on the diagonal."""
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n or row[i] != 1 or any(row[i + 1:] if lower else row[:i]):
            return False
    return True


def _check_factors(u_minus, u_plus) -> None:
    """Refuse rows of u^- or u^+ that are not unitriangular of their kind."""
    if not _is_unitriangular(u_minus, lower=True):
        raise ValueError("u_minus must be lower unitriangular")
    if not _is_unitriangular(u_plus, lower=False):
        raise ValueError("u_plus must be upper unitriangular")


class MixedPoint:
    """A point u^- t u^+ of the big-cell chart attached to a cone."""

    __slots__ = ("u_minus", "chart", "u_plus")

    def __init__(self, u_minus: Matrix, chart: ChartPoint, u_plus: Matrix):
        _check_factors(u_minus.rows, u_plus.rows)
        self.u_minus = u_minus
        self.chart = chart
        self.u_plus = u_plus

    def __eq__(self, other):
        if not isinstance(other, MixedPoint):
            return NotImplemented
        return (
            self.u_minus == other.u_minus
            and self.chart == other.chart
            and self.u_plus == other.u_plus
        )

    def __repr__(self):
        return f"MixedPoint({self.u_minus!r}, {self.chart!r}, {self.u_plus!r})"


@dataclass(frozen=True)
class EquivalenceVerdict:
    kind: str  # "equivalent" | "not_equivalent" | "inconclusive"
    witness: tuple | None
    attempts: int


class Calculus:
    """All rational maps for one root datum, over one matrix realization."""

    def __init__(self, rd: RootDatum):
        self.rd = rd
        self.pinning = pin = Pinning(rd)
        self.longest_word = rd.longest_word()
        self.n0 = pin.weyl_representative(self.longest_word)
        self._n0_signed = signed_permutation(self.n0)
        self._anchor_cache = {}
        # per simple index: -alpha_i, the positions of -alpha_i and alpha_i
        # and the signed permutation of n_i
        letters = []
        for i in range(rd.rank):
            a_i = rd.simple_root(i)
            minus_a_i = tuple(-v for v in a_i)
            letters.append(
                (
                    minus_a_i,
                    pin.root_position(minus_a_i),
                    pin.root_position(a_i),
                    pin._n_signed[i],
                )
            )
        self._letters = tuple(letters)

    # -- single reflections ----------------------------------------------------

    def reflect_simple(self, p: MixedPoint, i: int) -> MixedPoint:
        """Conjugation by the reflection representative n_i, extended to the chart.

        Let x be the -alpha_i entry of u^- and y the alpha_i entry of u^+.
        The rest of each factor, u^- x_{-alpha_i}(-x) and x_{alpha_i}(-y) u^+,
        is conjugated by n_i as a matrix; the SL_2 part
        x_{-alpha_i}(x) t x_{alpha_i}(y) between them is rewritten through the
        denominator D = (-alpha_i)(t) + x y, which must not vanish.
        """
        return self._sweep(p, (i,))

    def reflect_longest(self, p: MixedPoint) -> MixedPoint:
        """Composite conjugation along the longest element; rightmost letter first."""
        return self._sweep(p, reversed(self.longest_word))

    def reflect_longest_inverse(self, p: MixedPoint) -> MixedPoint:
        """Inverse of reflect_longest: one reflection per letter, leftmost first.

        f_i^{-1} = Ad(n_i^2) o f_i, and Ad(n_i^2) only flips signs of
        unipotent entries, which leaves every later denominator
        D = (-alpha)(t) + x y unchanged.  The reversed longest word is again
        reduced, so by Tits' lemma the sweep computes Ad(n_0); n_0^2 is
        central, so Ad(n_0) = Ad(n_0^{-1}).  The domain is the same too:
        f_i o f_i is defined wherever f_i is, its denominator being 1/D.
        """
        return self._sweep(p, self.longest_word)

    def _sweep(self, p: MixedPoint, word) -> MixedPoint:
        """f_i for each letter i of word in turn, on mutable rows and values.

        Each letter is reflect_simple: the same row and column operations,
        the same index refusal and OutsideVi report, and u^- and u^+ are
        checked to be unitriangular after every letter (the last one by
        MixedPoint).  The chart values are scaled by D^<h, alpha_i^vee> in
        place; a zero pairing leaves a value as it is, since chart values
        are already scalars.
        """
        rd = self.rd
        um, up = list(p.u_minus.rows), list(p.u_plus.rows)
        cone = p.chart.cone
        values = dict(p.chart.values)
        for step, i in enumerate(word):
            if step:
                _check_factors(um, up)
            rd._check_index(i)
            minus_a_i, (r, c), (ra, ca), perm = self._letters[i]
            # a simple root's entry is its coordinate in every root order: no
            # product of two or more root elements reaches the first off-diagonal
            x = um[r][c]
            y = up[ra][ca]
            chi = _monomial(values, cone.monoid_decompose(minus_a_i).items())
            d = _sweep_denominator(chi, x, y)
            if not d:
                raise OutsideVi(
                    DomainReport(
                        "reflect_simple",
                        "(-alpha_i)(t) + x*y != 0",
                        f"simple index {i}",
                    )
                )
            # u^- x_{-alpha_i}(-x), conjugated by n_i, times x_{-alpha_i}(-y/D)
            if x:
                _add_column(um, r, c, -x)
            um = _signed_rows(perm, um)
            if y:
                _add_column(um, r, c, _minus_over(y, d))
            scalar = _as_scalar(d)
            # the simple coroot alpha_i^vee is the i-th unit vector
            for h, v in values.items():
                if h[i]:
                    values[h] = _as_scalar(_times_powers(v, ((scalar, h[i]),)))
            # x_{alpha_i}(-x/D) times x_{alpha_i}(-y) u^+, conjugated by n_i
            if y:
                _add_row(up, ra, ca, -y)
            up = _signed_rows(perm, up)
            if x:
                _add_row(up, ra, ca, _minus_over(x, d))
        return MixedPoint(
            Matrix._of(tuple(um)), ChartPoint._trusted(cone, values), Matrix._of(tuple(up))
        )

    def _ldu(self, g: Matrix, step: str, predicate: str):
        """pinning.ldu(g), with a NotInBigCell reported as leaving the domain."""
        try:
            return self.pinning.ldu(g)
        except NotInBigCell as e:
            raise OutsideDomain(DomainReport(step, predicate, str(e))) from e

    # -- reordered multiplication ----------------------------------------------

    def anchors(self, cone: Cone):
        """A certified base point (u0^-, u0^+) for the reordering on this cone.

        Certification runs the longest-word conjugation and its inverse on the
        most degenerate chart point and demands an exact round trip.
        """
        cached = self._anchor_cache.get(cone)
        if cached is not None:
            return cached
        if cone.is_zero():
            chart = identity_point(cone)
        else:
            chart = limit_point(interior_cocharacter(cone), cone)
        pin = self.pinning
        neg, pos = pin.negative_order, pin.positive_order
        rng = random.Random(f"anchors:{cone.rays}")
        for attempt in range(64):
            if attempt == 0:
                coords = [Fraction(1)] * (len(neg) + len(pos))
            else:
                coords = [Fraction(rng.randint(1, 9)) for _ in range(len(neg) + len(pos))]
            um = pin.unipotent_product(neg, coords[: len(neg)])
            up = pin.unipotent_product(pos, coords[len(neg):])
            try:
                q = self.reflect_longest(MixedPoint(um, chart, up))
                r = self.reflect_longest_inverse(q)
            except OutsideDomain:
                continue
            if r != MixedPoint(um, chart, up):
                raise RuntimeError("conjugation round trip must be exact")
            found = (
                um,
                unitriangular_inverse(um, lower=True),
                up,
                unitriangular_inverse(up, lower=False),
            )
            self._anchor_cache[cone] = found
            return found
        raise OutsideDomain(
            DomainReport("anchors", "certifiable base point", f"cone {cone.rays}")
        )

    def reorder(self, u_plus: Matrix, chart: ChartPoint, u_minus: Matrix) -> MixedPoint:
        """Rewrite the product u^+ t u^- in the chart order u^- t u^+."""
        pin = self.pinning
        um0, um0_inv, up0, up0_inv = self.anchors(chart.cone)
        l1, d1, r1 = self._ldu(u_plus @ um0_inv, "reorder", "u+ (u0-)^{-1} in the big cell")
        l2, d2, r2 = self._ldu(up0_inv @ u_minus, "reorder", "(u0+)^{-1} u- in the big cell")
        (d1, d1_inv), (d2, d2_inv) = _diagonal(d1), _diagonal(d2)
        mid = torus_translate(pin.diagonal_coordinates(d1, d2), chart)
        q = self.reflect_longest(
            MixedPoint(
                conjugate_diagonal(d1, d1_inv, um0),
                mid,
                conjugate_diagonal(d2_inv, d2, up0),
            )
        )
        a = conjugate_signed(self._n0_signed, conjugate_diagonal(d1, d1_inv, r1))
        b = conjugate_signed(self._n0_signed, conjugate_diagonal(d2_inv, d2, l2))
        q2 = self.reflect_longest_inverse(
            MixedPoint(
                unitriangular_product(a, q.u_minus, lower=True),
                q.chart,
                unitriangular_product(q.u_plus, b, lower=False),
            )
        )
        return MixedPoint(
            unitriangular_product(l1, q2.u_minus, lower=True),
            q2.chart,
            unitriangular_product(q2.u_plus, r2, lower=False),
        )

    def reorder_direct(self, u_plus: Matrix, chart: ChartPoint, u_minus: Matrix) -> MixedPoint:
        """Matrix-level reordering; defined only over the open torus orbit."""
        pin = self.pinning
        coords = torus_coordinates(chart)
        g = u_plus @ pin.torus_element(coords) @ u_minus
        l, d, u = self._ldu(g, "reorder_direct", "product in the big cell")
        return MixedPoint(l, torus_point(pin.torus_coordinates_of(d), chart.cone), u)

    # -- two-sided action --------------------------------------------------------

    def act(self, g1: Matrix, p: MixedPoint, g2: Matrix) -> MixedPoint:
        """The rational action (g1, g2) . p = g1 p g2^{-1} computed chartwise."""
        pin = self.pinning
        u1m, d1g, u1p = self._ldu(g1, "act", "g1 in the big cell")
        # the split of g2 also gives g2^{-1} = U^{-1} D^{-1} L^{-1}
        g2_inv = split_inverse(*self._ldu(g2, "act", "g2 in the big cell"))
        h2m, d2g, h2p = self._ldu(g2_inv, "act", "g2^{-1} in the big cell")
        l1, dd1, r1 = self._ldu(u1p @ p.u_minus, "act", "u1+ u- in the big cell")
        l2, dd2, r2 = self._ldu(p.u_plus @ h2m, "act", "u+ g2hat- in the big cell")
        (dd1, dd1_inv), (dd2, dd2_inv) = _diagonal(dd1), _diagonal(dd2)
        (d1g, d1g_inv), (d2g, d2g_inv) = _diagonal(d1g), _diagonal(d2g)
        mid = torus_translate(pin.diagonal_coordinates(dd1, dd2), p.chart)
        r = self.reorder(
            conjugate_diagonal(dd1, dd1_inv, r1),
            mid,
            conjugate_diagonal(dd2_inv, dd2, l2),
        )
        new_um = unitriangular_product(
            u1m,
            conjugate_diagonal(
                d1g, d1g_inv, unitriangular_product(l1, r.u_minus, lower=True)
            ),
            lower=True,
        )
        new_chart = torus_translate(pin.diagonal_coordinates(d1g, d2g), r.chart)
        new_up = unitriangular_product(
            conjugate_diagonal(
                d2g_inv, d2g, unitriangular_product(r.u_plus, r2, lower=False)
            ),
            h2p,
            lower=False,
        )
        return MixedPoint(new_um, new_chart, new_up)

    def act_direct(self, g1: Matrix, p: MixedPoint, g2: Matrix) -> MixedPoint:
        """Matrix-level action; defined only over the open torus orbit."""
        pin = self.pinning
        g = g1 @ self.to_matrix(p) @ g2.inverse()
        l, d, u = self._ldu(g, "act_direct", "translate in the big cell")
        return MixedPoint(l, torus_point(pin.torus_coordinates_of(d), p.chart.cone), u)

    def to_matrix(self, p: MixedPoint) -> Matrix:
        """Group element represented by p; needs an invertible chart point."""
        t = self.pinning.torus_element(torus_coordinates(p.chart))
        return p.u_minus @ t @ p.u_plus

    # -- transfer between translated charts ---------------------------------------

    def _as_pair(self, g):
        if isinstance(g, Matrix):
            return g, self.pinning.identity()
        a, b = g
        return a, b

    def transfer(self, g1, g2, p: MixedPoint) -> MixedPoint:
        """Move p from the chart translated by g1 to the one translated by g2.

        Each translate is a pair (a, b) acting by q -> a q b^{-1}; a bare
        matrix g stands for the pair (g, e).  transfer(g, g, p) = p.
        """
        a1, b1 = self._as_pair(g1)
        a2, b2 = self._as_pair(g2)
        inner = self.act(a2, p, b2)
        return self.act(a1.inverse(), inner, b1.inverse())

    # -- equivalence of translated points ------------------------------------------

    def check_equivalence(self, a_triple, b_triple, witness_budget: int = 8, seed: int = 0) -> EquivalenceVerdict:
        """Decide whether g1 w g2^{-1} and g1' w' g2'^{-1} are the same point.

        Both triples must carry charts on the same cone.  Witness pairs
        (a1, a2) translate both sides back into that chart; the identity pair
        is always tried first, then seeded random pairs.  A witness for which
        both sides are in-domain decides the question exactly.
        """
        g1, w1, g2 = a_triple
        h1, w2, h2 = b_triple
        if w1.chart.cone != w2.chart.cone:
            raise ValueError("triples must use charts on a common cone")
        rng = random.Random(f"{seed}:equivalence")
        ident = self.pinning.identity()
        attempts = 0
        while attempts < witness_budget:
            if attempts == 0:
                # the identity pair translates nothing: no products to form
                a1, a2 = ident, ident
                x1, y1, x2, y2 = g1, g2, h1, h2
            else:
                a1 = random_element(self.pinning, rng)
                a2 = random_element(self.pinning, rng)
                x1, y1, x2, y2 = a1 @ g1, a2 @ g2, a1 @ h1, a2 @ h2
            attempts += 1
            try:
                r1 = self.act(x1, w1, y1)
                r2 = self.act(x2, w2, y2)
            except OutsideDomain:
                continue
            kind = "equivalent" if r1 == r2 else "not_equivalent"
            return EquivalenceVerdict(kind, (a1, a2), attempts)
        return EquivalenceVerdict("inconclusive", None, attempts)
