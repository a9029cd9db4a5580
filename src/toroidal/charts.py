"""Points of a toric chart as multiplicative monoid maps.

A ChartPoint assigns a field value (Fraction or RatFun) to each Hilbert
basis element of the dual monoid of its cone.  Boundary points carry
zeros; torus points are everywhere invertible.  All sanctioned
constructors preserve the monoid-map invariant structurally.  A raw value
map is accepted exactly when it extends to a monoid map: its nonzero
support is the set of Hilbert elements of one face of the dual cone, and
its values there satisfy a lattice basis of the relations among them.

Every map that changes a value multiplies it by a character value
prod b_k ** e_k: a torus point, a torus translation, a coweight twist, the
coordinates of a torus point and the scaling of a reflection sweep.  One
kernel, ``_times_powers``, computes each such product on numerators and
denominators and builds it once through ``linalg._rational``, so the same
body serves Q and Q(eps) (Fulton, *Introduction to Toric Varieties*, 1.3).
"""

from __future__ import annotations

from fractions import Fraction

from .cones import Cone, NotInMonoid, interior_cocharacter
from .linalg import _int_kernel, _rational, dot
from .ratfun import RatFun, evaluate_at_zero

__all__ = [
    "ChartPoint",
    "ZeroCoordinate",
    "LimitDoesNotExist",
    "NotAFace",
    "ZeroScalar",
    "InvalidChartValues",
    "torus_point",
    "limit_point",
    "evaluate_character",
    "torus_translate",
    "coweight_scale",
    "chart_inclusion",
    "wonderful_coords",
    "in_closed_orbit",
    "specialize_at_zero",
    "torus_coordinates",
]


class ZeroCoordinate(ValueError):
    """Torus coordinates must be invertible."""


class LimitDoesNotExist(ValueError):
    """The cocharacter lies outside the cone, so the limit point is undefined."""


class NotAFace(ValueError):
    """Chart inclusion requires the source cone to be a face of the target."""


class ZeroScalar(ValueError):
    """A scalar that must be invertible is zero."""


class InvalidChartValues(ValueError):
    """A raw value map is not a monoid map on the Hilbert basis."""


def _as_scalar(x):
    if type(x) is Fraction:
        return x
    if isinstance(x, RatFun):
        return x.constant_value() if x.is_constant() else x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"unsupported scalar {x!r}")


def _times_powers(v, pairs):
    """v times the product of b ** e over the (b, e) pairs (0 ** 0 = 1).

    The one kernel for a chart value times a character value: powers and
    products are taken on numerators and denominators, and the result is
    built once by ``linalg._rational``, a Fraction over Q and a RatFun when
    v, or a base with a nonzero exponent, is one.  A zero base with a
    negative exponent raises ZeroScalar; otherwise a zero v or a zero base
    makes the product zero, with no further power taken, and that zero is a
    RatFun when one of the factors is.
    """
    n, d = v.numerator, v.denominator
    pairs = iter(pairs)
    if n:
        for b, e in pairs:
            if e > 0:
                bn = b.numerator
                if not bn:
                    n *= bn
                    break
                n, d = n * bn ** e, d * b.denominator ** e
            elif e < 0:
                bn = b.numerator
                if not bn:
                    raise ZeroScalar("zero cannot be raised to a negative power")
                n, d = n * b.denominator ** -e, d * bn ** -e
        else:
            return _rational(n, d)
    # the product is zero: n is a polynomial if a factor so far was a RatFun,
    # and a pair left may still refuse or be a RatFun
    ratfun = type(n) is not int
    for b, e in pairs:
        if e:
            if e < 0 and not b:
                raise ZeroScalar("zero cannot be raised to a negative power")
            ratfun = ratfun or isinstance(b, RatFun)
    return RatFun._raw((), (1,)) if ratfun else _rational(0, 1)


def _monomial(values, exponents):
    """The product of values[h] ** e over the pairs (h, e), by ``_times_powers``.

    A zero value is passed as the scale as well, so that a zero product
    takes no power of the other values.
    """
    pairs = [(values[h], e) for h, e in exponents if e]
    for b, _ in pairs:
        if not b:
            return _times_powers(b, pairs)
    return _times_powers(1, pairs)


class ChartPoint:
    """A point of the affine chart of a cone over Q or Q(eps)."""

    __slots__ = ("cone", "values")

    def __init__(self, cone: Cone, values):
        vals = {tuple(h): _as_scalar(v) for h, v in values.items()}
        if set(vals) != set(cone.hilbert_basis):
            raise InvalidChartValues("values must be keyed by the Hilbert basis")
        self.cone = cone
        self.values = vals
        # a monoid map is nonzero exactly on the Hilbert elements of one face
        # of the dual cone: the smallest one containing the sum u of its
        # support, which the rays orthogonal to u cut out
        support = [h for h in cone.hilbert_basis if vals[h] != 0]
        u = tuple(sum(h[k] for h in support) for k in range(cone.dim))
        face = [r for r in cone.rays if dot(u, r) == 0]
        on_face = [h for h in cone.hilbert_basis if all(dot(h, r) == 0 for r in face)]
        if support != on_face:
            raise InvalidChartValues(f"nonzero values on {support}, not on a face")
        if not support:
            return
        for k in _int_kernel(list(zip(*support))):
            left = [(h, e) for h, e in zip(support, k) if e > 0]
            right = [(h, -e) for h, e in zip(support, k) if e < 0]
            if _monomial(vals, left) != _monomial(vals, right):
                raise InvalidChartValues(f"relation violated: {left} vs {right}")

    @classmethod
    def _trusted(cls, cone: Cone, values) -> "ChartPoint":
        p = object.__new__(cls)
        p.cone = cone
        p.values = {tuple(h): _as_scalar(v) for h, v in values.items()}
        return p

    @property
    def field(self) -> str:
        if any(isinstance(v, RatFun) for v in self.values.values()):
            return "Q(eps)"
        return "Q"

    def is_invertible(self) -> bool:
        return all(v != 0 for v in self.values.values())

    def __eq__(self, other):
        if not isinstance(other, ChartPoint):
            return NotImplemented
        return self.cone == other.cone and self.values == other.values

    def __hash__(self):
        return hash((self.cone, tuple(sorted(self.values.items(), key=lambda kv: kv[0]))))

    def __repr__(self):
        body = ", ".join(f"{h}:{v}" for h, v in sorted(self.values.items()))
        return f"ChartPoint({body})"


def torus_point(coords, cone: Cone) -> ChartPoint:
    """The embedded torus point with the given invertible coordinates."""
    coords = [_as_scalar(c) for c in coords]
    if len(coords) != cone.dim:
        raise ValueError("coordinate count must match the lattice rank")
    if any(c == 0 for c in coords):
        raise ZeroCoordinate("torus coordinates must be nonzero")
    values = {h: _times_powers(1, zip(coords, h)) for h in cone.hilbert_basis}
    return ChartPoint._trusted(cone, values)


def identity_point(cone: Cone) -> ChartPoint:
    return torus_point((Fraction(1),) * cone.dim, cone)


def limit_point(delta, cone: Cone) -> ChartPoint:
    """The boundary point lim_{eps->0} of the one-parameter curve of delta."""
    delta = tuple(int(x) for x in delta)
    pairings = {h: dot(h, delta) for h in cone.hilbert_basis}
    if any(v < 0 for v in pairings.values()):
        raise LimitDoesNotExist(f"{delta} is not in the cone")
    values = {
        h: Fraction(1) if pairings[h] == 0 else Fraction(0)
        for h in cone.hilbert_basis
    }
    return ChartPoint._trusted(cone, values)


def evaluate_character(p: ChartPoint, m):
    """Value of a dual-monoid element at the point (0^0 = 1)."""
    return _monomial(p.values, p.cone.monoid_decompose(m).items())


def torus_translate(t_coords, p: ChartPoint) -> ChartPoint:
    """The point t . p: the value at h is multiplied by h(t)."""
    t_coords = [_as_scalar(c) for c in t_coords]
    if any(c == 0 for c in t_coords):
        raise ZeroCoordinate("translation by a non-invertible point")
    values = {h: _times_powers(v, zip(t_coords, h)) for h, v in p.values.items()}
    return ChartPoint._trusted(p.cone, values)


def coweight_scale(p: ChartPoint, delta, scalar) -> ChartPoint:
    """Scale values by scalar^<h, delta>; realizes the coweight twist."""
    scalar = _as_scalar(scalar)
    if scalar == 0:
        raise ZeroScalar("coweight scaling needs an invertible scalar")
    delta = tuple(int(x) for x in delta)
    values = {h: _times_powers(v, ((scalar, dot(h, delta)),)) for h, v in p.values.items()}
    return ChartPoint._trusted(p.cone, values)


def chart_inclusion(p: ChartPoint, sigma: Cone) -> ChartPoint:
    """Push a point of a face's chart into the chart of the bigger cone."""
    from .cones import face_witness

    if face_witness(p.cone, sigma) is None:
        raise NotAFace(f"{p.cone} is not a face of {sigma}")
    values = {h: evaluate_character(p, h) for h in sigma.hilbert_basis}
    return ChartPoint._trusted(sigma, values)


def wonderful_coords(p: ChartPoint, rd):
    """Values of the negated simple roots; the wonderful-coordinate shadow."""
    out = []
    for i in range(rd.rank):
        m = tuple(-x for x in rd.simple_root(i))
        out.append(evaluate_character(p, m))
    return tuple(out)


def in_closed_orbit(p: ChartPoint) -> bool:
    for h in p.cone.hilbert_basis:
        if any(dot(h, r) != 0 for r in p.cone.rays):
            if p.values[h] != 0:
                return False
    return True


def specialize_at_zero(p: ChartPoint) -> ChartPoint:
    """Entrywise limit at eps = 0; raises PoleAtZero when a value has a pole."""
    values = {h: evaluate_at_zero(v) for h, v in p.values.items()}
    return ChartPoint._trusted(p.cone, values)


def _torus_shift(e, w, rays) -> int:
    """The least k >= 0 with e + k * w in the dual cone of the rays.

    w must pair positively with every ray; the ceiling is taken in integers.
    """
    k = 0
    for r in rays:
        num = -dot(e, r)
        den = dot(w, r)
        if den <= 0:
            raise RuntimeError("the dual-ray sum must pair positively with every ray")
        k = max(k, -(-num // den))
    return k


def torus_coordinates(p: ChartPoint):
    """Recover invertible lattice-basis coordinates from a torus point."""
    cone = p.cone
    w = tuple(
        sum(g[k] for g in cone.dual_rays) for k in range(cone.dim)
    )
    w_val = evaluate_character(p, w)
    if w_val == 0:
        raise ZeroScalar("point is not in the torus")
    coords = []
    for j in range(cone.dim):
        e_j = tuple(1 if k == j else 0 for k in range(cone.dim))
        k = _torus_shift(e_j, w, cone.rays)
        shifted = tuple(e_j[t] + k * w[t] for t in range(cone.dim))
        val = _times_powers(evaluate_character(p, shifted), ((w_val, -k),))
        if val == 0:
            raise ZeroScalar("point is not in the torus")
        coords.append(val)
    return tuple(coords)
