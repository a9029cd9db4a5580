"""Shared test oracles, handed to the test modules as fixtures."""

import collections
import functools
import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _igcd, lcm

import pytest

from toroidal.bigcell import (
    DomainReport,
    EquivalenceVerdict,
    MixedPoint,
    OutsideDomain,
    OutsideVi,
)
from toroidal.chevalley import NotInBigCell, random_element
from toroidal.charts import (
    ChartPoint,
    ZeroScalar,
    _as_scalar,
    _torus_shift,
    coweight_scale,
    evaluate_character,
)
from toroidal.cones import HILBERT_BOX_LIMIT, Cone, generators_from_halfspaces
from toroidal.linalg import (
    _SMALL,
    Matrix,
    _share,
    dot,
    integer_inverse,
    integer_kernel,
    primitive_vector,
    smith_normal_form,
)
from toroidal.ratfun import PoleAtZero, _cleared


def _rays_by_double_description(rays, dim):
    """Extreme rays of the cone spanned by rays, by a second double description.

    The version before the closed form read off the dual, kept as a
    reference: the dual generators are dualized back, and a lineality in
    the result means the cone contains a line.
    """
    prim = sorted({primitive_vector(r) for r in rays})
    dual_rays, dual_lin = generators_from_halfspaces(prim, dim)
    back, back_lin = generators_from_halfspaces(
        list(dual_rays) + list(dual_lin) + [tuple(-x for x in b) for b in dual_lin],
        dim,
    )
    if back_lin:
        raise ValueError("cone contains a line")
    return back


def _splitting_by_double_description(cone: Cone):
    """Facets and extreme rays of the pointed quotient of the dual monoid.

    The version before the closed forms, kept as a reference: the dual rays
    are projected to the quotient, dualized to get the facet normals, and
    dualized again to get the extreme rays.
    """
    _, _, quotient, _, _, _, q_dim = cone._splitting()
    if not q_dim:
        return (), ()
    projected = [quotient(g) for g in cone.dual_rays]
    facets, facets_lin = generators_from_halfspaces(projected, q_dim)
    if facets_lin:
        raise RuntimeError("pointed quotient must have pointed dual")
    extreme, ext_lin = generators_from_halfspaces(facets, q_dim)
    if ext_lin:
        raise RuntimeError("dual of the pointed quotient must be pointed")
    return facets, extreme


def _splitting_by_fraction_matrices(cone: Cone):
    """The 7-tuple of ``Cone._splitting``, by Fraction ``Matrix`` products.

    The version before the integer rows, kept as a reference: quotient,
    lift and the facet pairings multiply W and W^{-1} as ``Matrix`` objects
    of Fractions and turn the results back into ints.
    """
    n = cone.dim
    if cone.rays:
        kernel = integer_kernel(Matrix(cone.rays))
    else:
        kernel = tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )
    d = len(kernel)
    if d:
        # From U @ kmat @ V = [I_d; 0] the first d columns of U^{-1}
        # span the kernel lattice, so U gives coordinates in which the
        # unit group is the first d axes.
        kmat = Matrix([list(k) for k in kernel]).transpose()  # n x d
        u, dd, _ = smith_normal_form(kmat)
        if any(dd[t, t] != 1 for t in range(d)):
            raise RuntimeError("kernel lattice must be saturated")
        w = u
        w_inv = integer_inverse(w)
        group_basis = tuple(
            tuple(int(w_inv[i, j]) for i in range(n)) for j in range(d)
        )
    else:
        w = Matrix.identity(n)
        w_inv = w
        group_basis = ()
    unit_rows = tuple(tuple(int(x) for x in w.rows[i]) for i in range(d))
    q_dim = n - d

    def quotient(x):
        full = w @ tuple(x)
        return tuple(int(c) for c in full[d:])

    def lift(q):
        full = (0,) * d + tuple(q)
        out = w_inv @ tuple(full)
        return tuple(int(c) for c in out)

    # <r, x> = <(r @ w_inv)[d:], quotient(x)>, since r vanishes on the
    # unit group; the dual rays map onto the extreme rays of the image
    facets = tuple(sorted({primitive_vector((r @ w_inv)[d:]) for r in cone.rays}))
    extreme = tuple(sorted({primitive_vector(quotient(g)) for g in cone.dual_rays}))
    return (group_basis, unit_rows, quotient, lift, facets, extreme, q_dim)


def _pointed_hilbert_by_pairs(facets, extreme, dim):
    """Hilbert basis of a pointed full-dimensional monoid by zonotope sieve.

    The sieve before the degree order, kept as a reference: every candidate
    is tested against every other candidate, quadratic in the box.

    Every irreducible element lies in the zonotope spanned by the extreme
    rays, hence in its coordinate box; reducibility of a candidate is
    witnessed by another candidate, so the sieve is exact.
    """
    lo = [sum(min(0, r[k]) for r in extreme) for k in range(dim)]
    hi = [sum(max(0, r[k]) for r in extreme) for k in range(dim)]
    size = 1
    for a, b in zip(lo, hi):
        size *= b - a + 1
        if size > HILBERT_BOX_LIMIT:
            raise ValueError("Hilbert candidate box too large for desk scale")
    members = []
    for point in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if any(point) and all(dot(f, point) >= 0 for f in facets):
            members.append(point)
    member_set = set(members)
    basis = []
    for h in members:
        reducible = False
        for c in members:
            if c == h:
                continue
            rest = tuple(a - b for a, b in zip(h, c))
            if rest in member_set:
                reducible = True
                break
        if not reducible:
            basis.append(h)
    return sorted(basis)


def _gauss_jordan(rows, ncols):
    """Reduce a list of row lists in place to reduced row echelon form.

    The elimination behind ``Matrix.inverse`` and the lattice reduction of
    ``cones`` before both ran on the fraction-free kernel, kept as a
    reference.  Pivots are sought in the first ``ncols`` columns only; any
    further (augmented) columns are carried along by the same row
    operations.  Returns the pivot columns, so the pivot of column
    ``pivots[r]`` sits in row ``r`` and the rank is ``len(pivots)``.
    """
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        piv = next((i for i in range(row, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        inv = 1 / rows[row][col]
        rows[row] = [x * inv for x in rows[row]]
        for i in range(len(rows)):
            if i != row and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[row])]
        pivots.append(col)
    return pivots


def _inverse_by_gauss_jordan(m: Matrix) -> Matrix:
    """``Matrix.inverse`` by Gauss-Jordan on [A | I], kept as a reference."""
    if m.nrows != m.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = m.nrows
    rows = [
        list(r) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
        for i, r in enumerate(m.rows)
    ]
    if len(_gauss_jordan(rows, n)) < n:
        raise ZeroDivisionError("matrix is singular")
    return Matrix([r[n:] for r in rows])


def _reduce_mod_lattice_by_gauss_jordan(ray, basis):
    """``cones._reduce_mod_lattice`` on the reduced echelon form of the basis
    over Fractions, kept as a reference."""
    if not basis:
        return primitive_vector(ray)
    work = [list(map(Fraction, b)) for b in basis]
    vec = list(map(Fraction, ray))
    for r, col in enumerate(_gauss_jordan(work, len(vec))):
        if vec[col]:
            f = vec[col]
            vec = [a - f * b for a, b in zip(vec, work[r])]
    return primitive_vector(_cleared(vec)[0])


def _fraction_rank(rows):
    """Rank of integer rows by Gauss-Jordan elimination on Fractions.

    The integer rank before the fraction-free elimination, kept as a
    reference.
    """
    ncols = len(rows[0]) if rows else 0
    return len(_gauss_jordan([[Fraction(x) for x in r] for r in rows], ncols))


def _det_by_elimination(m: Matrix):
    """The determinant by forward elimination on the entries, with row swaps.

    ``Matrix.det`` before it ran on the fraction-free kernel, kept as a
    reference.
    """
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    a = [list(r) for r in m.rows]
    sign = 1
    result = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0) * result
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        result = result * a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] * inv
                for j in range(k, n):
                    a[i][j] = a[i][j] - f * a[k][j]
    return sign * result


def _ldu_by_division(g: Matrix):
    """The (lower, diagonal, upper) split of g by one division per entry and step.

    The split before the fraction-free elimination, kept as a reference:
    Fraction matrices took this path until ``Pinning.ldu`` split them on
    Python ints, and RatFun matrices until it split them on Z[eps].
    """
    n = g.nrows
    a = [list(r) for r in g.rows]
    lower = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for k in range(n):
        if a[k][k] == 0:
            raise NotInBigCell(f"leading principal minor {k + 1} vanishes")
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] * inv
                lower[i][k] = f
                for j in range(k, n):
                    a[i][j] = a[i][j] - f * a[k][j]
    diag = [a[i][i] for i in range(n)]
    upper = [
        [a[i][j] / diag[i] if j > i else (1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    return Matrix(lower), Matrix.diagonal(diag), Matrix(upper)


def _entry_dot_by_fractions(u, v):
    """sum u_k v_k by Fraction (or RatFun) arithmetic, skipping zero terms and unit factors."""
    terms = [b if a == 1 else a if b == 1 else a * b for a, b in zip(u, v) if a and b]
    return _share(sum(terms[1:], terms[0])) if terms else _SMALL[64]


def _matmul_by_fractions(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b.rows))
    return Matrix._of(tuple(tuple(_entry_dot_by_fractions(r, c) for c in cols) for r in a.rows))


def _unitriangular_product_by_fractions(a: Matrix, b: Matrix, lower: bool) -> Matrix:
    n = a.nrows
    zero = _SMALL[64]
    cols = tuple(zip(*b.rows))
    if lower:
        rows = (
            tuple(_entry_dot_by_fractions(r[j:i + 1], cols[j][j:i + 1]) for j in range(i + 1))
            + (zero,) * (n - 1 - i)
            for i, r in enumerate(a.rows)
        )
    else:
        rows = (
            (zero,) * i
            + tuple(_entry_dot_by_fractions(r[i:j + 1], cols[j][i:j + 1]) for j in range(i, n))
            for i, r in enumerate(a.rows)
        )
    return Matrix._of(tuple(rows))


def _unitriangular_inverse_by_fractions(m: Matrix, lower: bool) -> Matrix:
    n = m.nrows
    src = m.rows if lower else tuple(zip(*m.rows))
    zero, one = _SMALL[64], _SMALL[65]
    out = []
    for i, r in enumerate(src):
        out.append(
            tuple(
                _share(-_entry_dot_by_fractions(r[j:i], [out[k][j] for k in range(j, i)]))
                for j in range(i)
            )
            + (one,)
            + (zero,) * (n - 1 - i)
        )
    return Matrix._of(tuple(out) if lower else tuple(zip(*out)))


def _plus_times_by_fractions(a, b, c):
    if not b:
        return a
    t = b * c
    return _share(a + t if a else t)


def _conjugate_diagonal_by_fractions(d, d_inv, g: Matrix) -> Matrix:
    return Matrix._of(
        tuple(
            tuple(
                _share(x * da * d_inv[b]) if x and a != b else x
                for b, x in enumerate(row)
            )
            for a, (row, da) in enumerate(zip(g.rows, d))
        )
    )


def _split_inverse_by_fractions(lower: Matrix, diag: Matrix, upper: Matrix) -> Matrix:
    scaled = Matrix._of(
        tuple(
            tuple(_share(x / dk) if x else x for x in row)
            for row, dk in zip(
                _unitriangular_inverse_by_fractions(lower, lower=True).rows,
                (diag.rows[k][k] for k in range(diag.nrows)),
            )
        )
    )
    return _matmul_by_fractions(_unitriangular_inverse_by_fractions(upper, lower=False), scaled)


def _power(base, k: int):
    """base ** k, with 0 ** 0 = 1; a zero base with a negative exponent raises."""
    if k == 0:
        return Fraction(1)
    if base == 0:
        if k < 0:
            raise ZeroScalar("zero cannot be raised to a negative power")
        return Fraction(0)
    return base ** k


def _character_value(coords, m):
    """The character m at the torus point coords, one power after another.

    With ``_power``, the product ``charts`` took before one kernel computed
    every value times a character, kept as a reference.
    """
    out = Fraction(1)
    for c, e in zip(coords, m):
        if e:
            out = out * _power(c, int(e))
    return out


def _torus_translate_by_fractions(t_coords, p: ChartPoint) -> ChartPoint:
    t_coords = [_as_scalar(c) for c in t_coords]
    values = {h: _character_value(t_coords, h) * v for h, v in p.values.items()}
    return ChartPoint._trusted(p.cone, values)


def _reciprocals_by_fractions(entries):
    """The reciprocals of ``bigcell._diagonal``, by Fraction (or RatFun) division."""
    return tuple(_share(1 / x) for x in entries)


def _diagonal_coordinates_by_fractions(*diags):
    """``Pinning.diagonal_coordinates`` of the entrywise product of the diags, by Fraction arithmetic.

    The product list ``act`` and ``reorder`` formed, then the running
    product ``acc * diag[i]``; the determinant must be 1.
    """
    diag = [functools.reduce(operator.mul, xs) for xs in zip(*diags)]
    coords = []
    acc = Fraction(1)
    for x in diag[:-1]:
        acc = acc * x
        coords.append(acc)
    if acc * diag[-1] != 1:
        raise ValueError("determinant is not 1")
    return tuple(coords)


def _sweep_denominator_by_fractions(chi, x, y):
    """The sweep's D = chi + x y, by Fraction (or RatFun) arithmetic."""
    return chi + x * y


def _minus_over_by_fractions(a, d):
    """The sweep's multipliers -y / D and -x / D, by Fraction (or RatFun) division."""
    return -a / d


class FractionKernels:
    """The big-cell kernels before they computed on numerators and denominators.

    Each is the generic body that served both fields, kept as a reference:
    it builds a Fraction or RatFun for every intermediate product and sum.
    """

    matmul = staticmethod(_matmul_by_fractions)
    unitriangular_product = staticmethod(_unitriangular_product_by_fractions)
    unitriangular_inverse = staticmethod(_unitriangular_inverse_by_fractions)
    plus_times = staticmethod(_plus_times_by_fractions)
    conjugate_diagonal = staticmethod(_conjugate_diagonal_by_fractions)
    split_inverse = staticmethod(_split_inverse_by_fractions)
    torus_translate = staticmethod(_torus_translate_by_fractions)
    reciprocals = staticmethod(_reciprocals_by_fractions)
    diagonal_coordinates = staticmethod(_diagonal_coordinates_by_fractions)
    sweep_denominator = staticmethod(_sweep_denominator_by_fractions)
    minus_over = staticmethod(_minus_over_by_fractions)


def _monomial_by_powers(values, exponents):
    """The product of values[h] ** e, every power taken in turn (0^0 = 1).

    ``charts._monomial`` before it returned zero without taking the other
    powers, kept as a reference.
    """
    out = Fraction(1)
    for h, e in exponents:
        if e:
            out = out * _power(values[h], e)
    return out


def _torus_coordinates_by_powers(p: ChartPoint):
    """``charts.torus_coordinates`` dividing by the power w(p) ** k, kept as a reference."""
    cone = p.cone
    w = tuple(sum(g[k] for g in cone.dual_rays) for k in range(cone.dim))
    w_val = evaluate_character(p, w)
    if w_val == 0:
        raise ZeroScalar("point is not in the torus")
    coords = []
    for j in range(cone.dim):
        e_j = tuple(1 if k == j else 0 for k in range(cone.dim))
        k = _torus_shift(e_j, w, cone.rays)
        val = evaluate_character(p, tuple(e_j[t] + k * w[t] for t in range(cone.dim)))
        if k:
            val = val / _power(w_val, k)
        if val == 0:
            raise ZeroScalar("point is not in the torus")
        coords.append(val)
    return tuple(coords)


class PowerLoops:
    """The chart maps before one kernel computed a value times a character.

    Each takes one power after another with ``_power``, kept as a reference.
    """

    power = staticmethod(_power)
    character_value = staticmethod(_character_value)
    monomial = staticmethod(_monomial_by_powers)
    torus_coordinates = staticmethod(_torus_coordinates_by_powers)


@functools.cache
def _relations_up_to_degree_6(cone: Cone):
    """Binomial relations among Hilbert elements up to total degree 6.

    The validator before the exact face-lattice check: a bounded sample of
    relations, kept as a reference.  Each relation is a pair of exponent
    tuples ((h, e), ...) with equal weighted sums; each monomial is paired
    with the first monomial of the same weighted sum.
    """
    buckets = {}
    for size in range(7):
        for combo in itertools.combinations_with_replacement(cone.hilbert_basis, size):
            total = tuple(sum(c[k] for c in combo) for k in range(cone.dim))
            buckets.setdefault(total, []).append(combo)
    rels = []
    for combos in buckets.values():
        base = _exponents(combos[0])
        rels.extend((base, _exponents(other)) for other in combos[1:])
    return tuple(rels)


def _exponents(combo):
    return tuple(sorted(collections.Counter(combo).items()))


def _oracle_accepts(cone: Cone, values) -> bool:
    """Whether a value map satisfies every relation up to degree 6."""

    def monomial(exponents):
        out = Fraction(1)
        for h, e in exponents:
            out *= values[h] ** e
        return out

    return all(monomial(l) == monomial(r) for l, r in _relations_up_to_degree_6(cone))


@dataclass(frozen=True)
class BigCellTriple:
    """Coordinates of u^- t u^+ under declared root orders."""

    neg_order: tuple
    neg_coords: tuple
    torus: tuple
    pos_order: tuple
    pos_coords: tuple


def _unipotent_refactor(pin, u, order):
    """Coordinates making the ordered root-group product equal u.

    The matrix entry at a root's position equals that root's coordinate
    plus a polynomial in strictly lower heights, so heights are solved
    in increasing order and the result is certified by reassembly.
    """
    order = tuple(tuple(b) for b in order)
    heights = sorted({abs(pin.rd.root_height(b)) for b in order})
    coords = {b: Fraction(0) for b in order}
    for h in heights:
        current = pin.unipotent_product(order, tuple(coords[b] for b in order))
        for b in order:
            if abs(pin.rd.root_height(b)) == h:
                coords[b] = coords[b] + (u - current)[pin.root_position(b)]
    out = tuple(coords[b] for b in order)
    if pin.unipotent_product(order, out) != u:
        raise RuntimeError("refactor must reassemble")
    return out


def _big_cell_factor(pin, g, neg_order=None, pos_order=None) -> BigCellTriple:
    """Root-group coordinates of the three `Pinning.ldu` factors of g."""
    neg_order = tuple(neg_order) if neg_order else pin.negative_order
    pos_order = tuple(pos_order) if pos_order else pin.positive_order
    lower, diag, upper = pin.ldu(g)
    return BigCellTriple(
        neg_order,
        _unipotent_refactor(pin, lower, neg_order),
        pin.torus_coordinates_of(diag),
        pos_order,
        _unipotent_refactor(pin, upper, pos_order),
    )


def _assemble(pin, triple: BigCellTriple):
    out = pin.unipotent_product(triple.neg_order, triple.neg_coords)
    out = out @ pin.torus_element(triple.torus)
    return out @ pin.unipotent_product(triple.pos_order, triple.pos_coords)


def _reflect_simple_by_coordinates(calc, p: MixedPoint, i: int) -> MixedPoint:
    """The single-reflection map f_i, computed coordinate by coordinate.

    The version before the plain conjugation by n_i, kept as a reference.
    u^- is refactored with the -alpha_i coordinate x last and u^+ with the
    alpha_i coordinate y first; every other coordinate is moved to its
    reflected root with its Chevalley sign, and the denominator
    D = (-alpha_i)(t) + x y is inverted.
    """
    rd, pin = calc.rd, calc.pinning
    signs = pin.chevalley_signs()
    a_i = rd.simple_root(i)
    minus_a_i = tuple(-v for v in a_i)
    neg_order = tuple(b for b in pin.negative_order if b != minus_a_i) + (minus_a_i,)
    pos_order = (a_i,) + tuple(b for b in pin.positive_order if b != a_i)
    xs = _unipotent_refactor(pin, p.u_minus, neg_order)
    ys = _unipotent_refactor(pin, p.u_plus, pos_order)
    x, y = xs[-1], ys[0]
    d = evaluate_character(p.chart, minus_a_i) + x * y
    if d == 0:
        raise OutsideVi(
            DomainReport("reflect_simple", "(-alpha_i)(t) + x*y != 0", f"simple index {i}")
        )
    um = pin.identity()
    for root, c in zip(neg_order[:-1], xs[:-1]):
        if c != 0:
            um = um @ pin.root_element(rd.reflect_character(i, root), signs[(i, root)] * c)
    um = um @ pin.root_element(minus_a_i, -y / d)
    chart = coweight_scale(p.chart, rd.simple_coroot(i), d)
    up = pin.root_element(a_i, -x / d)
    for root, c in zip(pos_order[1:], ys[1:]):
        if c != 0:
            up = up @ pin.root_element(rd.reflect_character(i, root), signs[(i, root)] * c)
    return MixedPoint(um, chart, up)


def _reflect_simple_by_products(calc, p: MixedPoint, i: int) -> MixedPoint:
    """The single-reflection map f_i, computed with dense matrix products.

    The version before row and column operations, kept as a reference: the
    root elements and n_i, n_i^{-1} are built as matrices and multiplied.
    """
    rd, pin = calc.rd, calc.pinning
    a_i = rd.simple_root(i)
    minus_a_i = tuple(-v for v in a_i)
    x = pin.coordinate_at(p.u_minus, minus_a_i)
    y = pin.coordinate_at(p.u_plus, a_i)
    d = evaluate_character(p.chart, minus_a_i) + x * y
    if d == 0:
        raise OutsideVi(
            DomainReport("reflect_simple", "(-alpha_i)(t) + x*y != 0", f"simple index {i}")
        )
    n = pin.simple_reflection_element(i)
    n_inv = n.inverse()
    um = n @ (p.u_minus @ pin.root_element(minus_a_i, -x)) @ n_inv
    um = um @ pin.root_element(minus_a_i, -y / d)
    chart = coweight_scale(p.chart, rd.simple_coroot(i), d)
    up = pin.root_element(a_i, -x / d) @ n
    up = up @ (pin.root_element(a_i, -y) @ p.u_plus) @ n_inv
    return MixedPoint(um, chart, up)


def _check_equivalence_by_products(
    calc, a_triple, b_triple, witness_budget: int = 8, seed: int = 0
) -> EquivalenceVerdict:
    """``Calculus.check_equivalence`` forming a1 g1, a2 g2, a1 h1, a2 h2 always.

    The version before the identity witness skipped its products, kept as a
    reference: on attempt 0 it multiplies by the identity pair too.
    """
    g1, w1, g2 = a_triple
    h1, w2, h2 = b_triple
    if w1.chart.cone != w2.chart.cone:
        raise ValueError("triples must use charts on a common cone")
    rng = random.Random(f"{seed}:equivalence")
    ident = calc.pinning.identity()
    attempts = 0
    while attempts < witness_budget:
        if attempts == 0:
            a1, a2 = ident, ident
        else:
            a1 = random_element(calc.pinning, rng)
            a2 = random_element(calc.pinning, rng)
        attempts += 1
        try:
            r1 = calc.act(a1 @ g1, w1, a2 @ g2)
            r2 = calc.act(a1 @ h1, w2, a2 @ h2)
        except OutsideDomain:
            continue
        kind = "equivalent" if r1 == r2 else "not_equivalent"
        return EquivalenceVerdict(kind, (a1, a2), attempts)
    return EquivalenceVerdict("inconclusive", None, attempts)


def _reflect_longest_inverse_by_cubes(calc, p: MixedPoint) -> MixedPoint:
    """The inverse longest-word conjugation, three reflections per letter.

    The version before one reflection per letter, kept as a reference.
    n_i has order 4, so the inverse of n_{j_1}...n_{j_m} is the product of
    cubes in reversed order; composing the conjugation maps in the matching
    order sweeps the word leftmost letter first, each letter three times.
    """
    for j in calc.longest_word:
        for _ in range(3):
            p = calc.reflect_simple(p, j)
    return p


# Polynomials of the Fraction-coefficient RatFun oracle: tuples of Fractions,
# lowest degree first, no trailing zeros.


def _qtrim(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _qcoerce(x) -> tuple:
    if isinstance(x, (int, Fraction)):
        return _qtrim((Fraction(x),))
    if isinstance(x, (tuple, list)):
        return _qtrim(Fraction(c) for c in x)
    raise TypeError(f"cannot build a polynomial from {x!r}")


def _qadd(a, b):
    n = max(len(a), len(b))
    return _qtrim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _qscaled(a):
    """Integer coefficients and a denominator d with a == ints / d."""
    d = lcm(*(c.denominator for c in a))
    return [c.numerator * (d // c.denominator) for c in a], d


def _qmul(a, b):
    # convolve integer numerators over one common denominator: one Fraction
    # per coefficient of the product instead of one per pair of terms
    if not a or not b:
        return ()
    (ia, da), (ib, db) = _qscaled(a), _qscaled(b)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(ia):
        for j, y in enumerate(ib):
            out[i + j] += x * y
    return _qtrim(Fraction(c, da * db) for c in out)


def _qdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    r = list(a)
    while True:
        r = list(_qtrim(r))
        if len(r) < len(b):
            break
        c = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] += c
        for i, cb in enumerate(b):
            r[k + i] -= c * cb
        # the leading term cancels exactly, so the loop terminates
    return _qtrim(q), _qtrim(r)


def _qmonic(a):
    if not a:
        return a
    lead = a[-1]
    if lead == 1:
        return a
    return tuple(c / lead for c in a)


def _qint_clear(a):
    """Primitive integer multiple of a Fraction polynomial (content dropped)."""
    if not a:
        return ()
    ints, _ = _qscaled(a)
    g = _igcd(*ints)
    return tuple(v // g for v in ints)


def _qpseudo_rem(a, b):
    # remainder of lc(b)^k * a modulo b, everything over the integers
    r = list(a)
    lb = b[-1]
    while len(r) >= len(b):
        top = r[-1]
        k = len(r) - len(b)
        r = [c * lb for c in r]
        for i, cb in enumerate(b):
            r[k + i] -= top * cb
        while r and not r[-1]:
            r.pop()
        if not r:
            break
    return tuple(r)


def _qgcd(a, b):
    # primitive pseudo-remainder sequence; plain Euclid over the rationals
    # swells coefficients badly enough to dominate the whole calculus
    if not a:
        return _qmonic(b)
    if not b:
        return _qmonic(a)
    ia, ib = _qint_clear(a), _qint_clear(b)
    while ib:
        ia, ib = ib, _qint_clear(_qpseudo_rem(ia, ib))
    return _qmonic(tuple(Fraction(c) for c in ia))


def _qstr(a) -> str:
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append("eps" if c == 1 else f"{c}*eps")
        else:
            parts.append(f"eps^{k}" if c == 1 else f"{c}*eps^{k}")
    return " + ".join(parts).replace("+ -", "- ")


class FractionRatFun:
    """A reduced ratio of polynomials in ``eps`` with Fraction coefficients.

    The ``RatFun`` before integer coefficients, kept as a reference.
    Canonical form (gcd one, monic denominator) makes structural equality
    coincide with mathematical equality, so these are safe dictionary values
    and support exact ``==`` against ints and Fractions.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        ncs = num.num if isinstance(num, FractionRatFun) else _qcoerce(num)
        dcs = den.num if isinstance(den, FractionRatFun) else _qcoerce(den)
        if isinstance(num, FractionRatFun) or isinstance(den, FractionRatFun):
            # allow FractionRatFun/FractionRatFun via cross multiplication
            nn = num if isinstance(num, FractionRatFun) else FractionRatFun(num)
            dd = den if isinstance(den, FractionRatFun) else FractionRatFun(den)
            ncs = _qmul(nn.num, dd.den)
            dcs = _qmul(nn.den, dd.num)
        if not dcs:
            raise ZeroDivisionError("rational function with zero denominator")
        if not ncs or len(dcs) == 1:
            lead = dcs[-1] if len(dcs) == 1 else Fraction(1)
            self.num = ncs if lead == 1 else tuple(c / lead for c in ncs)
            self.den = (Fraction(1),)
            return
        g = _qgcd(ncs, dcs)
        if len(g) > 1:
            ncs = _qdivmod(ncs, g)[0]
            dcs = _qdivmod(dcs, g)[0]
        lead = dcs[-1]
        if lead != 1:
            ncs = tuple(c / lead for c in ncs)
            dcs = tuple(c / lead for c in dcs)
        self.num = ncs
        self.den = dcs

    # -- constructors ------------------------------------------------------

    @classmethod
    def variable(cls) -> "FractionRatFun":
        return cls((0, 1))

    @classmethod
    def _raw(cls, num, den) -> "FractionRatFun":
        f = object.__new__(cls)
        f.num = num
        f.den = den
        return f

    # -- predicates --------------------------------------------------------

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.num[0] if self.num else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _lift(x):
        if isinstance(x, FractionRatFun):
            return x
        if isinstance(x, (int, Fraction)):
            return FractionRatFun._raw(_qcoerce(x), (Fraction(1),))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        num = _qadd(_qmul(self.num, o.den), _qmul(o.num, self.den))
        return FractionRatFun(num, _qmul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return FractionRatFun._raw(tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FractionRatFun(_qmul(self.num, o.num), _qmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by the zero rational function")
        return FractionRatFun(_qmul(self.num, o.den), _qmul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return FractionRatFun(1)
        base = self
        if k < 0:
            if not self.num:
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            base = FractionRatFun._raw(self.den, self.num)
            base = FractionRatFun(base.num, base.den)  # renormalize (monic denominator)
            k = -k
        out = FractionRatFun(1)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den == (Fraction(1),):
            return _qstr(self.num)
        return f"({_qstr(self.num)})/({_qstr(self.den)})"

    # -- evaluation --------------------------------------------------------

    def at_zero(self) -> Fraction:
        d0 = self.den[0]
        if not d0:
            raise PoleAtZero(f"{self} has a pole at eps = 0")
        n0 = self.num[0] if self.num else Fraction(0)
        return n0 / d0


@pytest.fixture(scope="session")
def reflect_simple_by_coordinates():
    return _reflect_simple_by_coordinates


@pytest.fixture(scope="session")
def reflect_simple_by_products():
    return _reflect_simple_by_products


@pytest.fixture(scope="session")
def pointed_hilbert_by_pairs():
    return _pointed_hilbert_by_pairs


@pytest.fixture(scope="session")
def fraction_rank():
    return _fraction_rank


@pytest.fixture(scope="session")
def inverse_by_gauss_jordan():
    return _inverse_by_gauss_jordan


@pytest.fixture(scope="session")
def reduce_mod_lattice_by_gauss_jordan():
    return _reduce_mod_lattice_by_gauss_jordan


@pytest.fixture(scope="session")
def det_by_elimination():
    return _det_by_elimination


@pytest.fixture(scope="session")
def ldu_by_division():
    return _ldu_by_division


@pytest.fixture(scope="session")
def relations_up_to_degree_6():
    return _relations_up_to_degree_6


@pytest.fixture(scope="session")
def oracle_accepts():
    return _oracle_accepts


@pytest.fixture(scope="session")
def reflect_longest_inverse_by_cubes():
    return _reflect_longest_inverse_by_cubes


@pytest.fixture(scope="session")
def unipotent_refactor():
    return _unipotent_refactor


@pytest.fixture(scope="session")
def big_cell_factor():
    return _big_cell_factor


@pytest.fixture(scope="session")
def assemble():
    return _assemble


@pytest.fixture(scope="session")
def rays_by_double_description():
    return _rays_by_double_description


@pytest.fixture(scope="session")
def splitting_by_double_description():
    return _splitting_by_double_description


@pytest.fixture(scope="session")
def splitting_by_fraction_matrices():
    return _splitting_by_fraction_matrices


@pytest.fixture(scope="session")
def check_equivalence_by_products():
    return _check_equivalence_by_products


@pytest.fixture(scope="session")
def fraction_kernels():
    return FractionKernels


@pytest.fixture(scope="session")
def power_loops():
    return PowerLoops


@pytest.fixture(scope="session")
def fraction_ratfun():
    return FractionRatFun
