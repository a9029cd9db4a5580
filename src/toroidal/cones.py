"""Rational polyhedral cones and fans in the cocharacter lattice.

Cones are given by primitive integer ray generators and must be strongly
convex; the dual cone, the Hilbert basis of the dual monoid, the face
lattice and fan-level predicates (validity, chamber support, smoothness,
properness by counting walls, in the chamber or on the Weyl orbit fan) are
all computed in exact integer/rational arithmetic.

The lattice work is over Z, on rows of Python ints throughout: kernels,
indices and the splitting of the dual monoid off its unit group come from
``linalg._smith``, the Smith reduction on int rows.  The splitting takes the
unimodular W and its inverse from one such reduction, which returns U^{-1}
beside U, and its quotient, lift and facet maps are integer dot products on
those rows.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from math import prod

from .linalg import (
    _bareiss,
    _int_kernel,
    _int_rank as _rank,
    _int_vector,
    _smith,
    dot,
    primitive_vector,
)

__all__ = [
    "MAX_DIM",
    "MAX_RAYS",
    "HILBERT_BOX_LIMIT",
    "ZeroCone",
    "NotInMonoid",
    "InvalidFan",
    "generators_from_halfspaces",
    "Cone",
    "Fan",
    "fan_validate",
    "intersect",
    "is_face",
    "face_witness",
    "supported_in_chamber",
    "is_smooth",
    "is_proper",
    "is_proper_in_chamber",
    "interior_cocharacter",
]

MAX_DIM = 4
MAX_RAYS = 12
HILBERT_BOX_LIMIT = 2_000_000


class ZeroCone(ValueError):
    """Raised when an operation needs a nonzero cone."""


class NotInMonoid(ValueError):
    """The vector is not a member of the dual monoid."""


class InvalidFan(ValueError):
    """A set of cones violates the fan axioms; carries the violation list."""

    def __init__(self, violations):
        super().__init__(f"{len(violations)} fan violation(s)")
        self.violations = violations


def _unit_vectors(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def generators_from_halfspaces(normals, dim):
    """Extreme rays and lineality basis of {x : <n, x> >= 0 for all n}.

    Incremental double description: the lineality space shrinks as
    halfspaces arrive; rays are pruned by the exact extremality criterion
    (active constraints of rank dim - lineality - 1).  The returned
    lineality basis is the saturated integer kernel of the normal matrix,
    and the rays are primitive, reduced modulo the lineality, and sorted.
    """
    normals = [_int_vector(n) for n in normals]
    normals = [n for n in normals if any(n)]
    lin = list(_unit_vectors(dim))
    rays: list = []
    processed: list = []

    def prune(cur_rays):
        kept = []
        seen = set()
        need = dim - len(lin) - 1
        for r in cur_rays:
            r = primitive_vector(r)
            if not any(r) or r in seen:
                continue
            if _rank([p for p in processed if dot(p, r) == 0]) == need:
                kept.append(r)
                seen.add(r)
        return kept

    for h in normals:
        processed.append(h)
        hit = next((b for b in lin if dot(h, b) != 0), None)
        if hit is not None:
            b0 = hit if dot(h, hit) > 0 else tuple(-x for x in hit)
            s0 = dot(h, b0)
            lin = [
                primitive_vector(tuple(s0 * b[k] - dot(h, b) * b0[k] for k in range(dim)))
                for b in lin
                if b is not hit
            ]
            rays = [
                tuple(s0 * r[k] - dot(h, r) * b0[k] for k in range(dim)) for r in rays
            ]
            rays.append(b0)
        else:
            plus = [r for r in rays if dot(h, r) > 0]
            zero = [r for r in rays if dot(h, r) == 0]
            minus = [r for r in rays if dot(h, r) < 0]
            combos = [
                tuple(
                    dot(h, rp) * rm[k] - dot(h, rm) * rp[k] for k in range(dim)
                )
                for rp in plus
                for rm in minus
            ]
            rays = plus + zero + combos
        rays = prune(rays)

    lineality = _int_kernel(normals) if normals else _unit_vectors(dim)
    rays = [_reduce_mod_lattice(r, lineality) for r in rays]
    return tuple(sorted(set(rays))), tuple(sorted(lineality))


def _reduce_mod_lattice(ray, basis):
    """Canonical representative of a ray direction modulo a lattice span.

    Each pivot p at (k, c) of ``_bareiss`` on the basis clears column c:
    vec becomes |p| vec - sign(p) vec[c] row_k, row k read from column c on
    (its entries to the left are stale, and zero in fact).  So vec stays a
    positive multiple of the ray plus a vector of the span, and ends as the
    one such direction that vanishes at every pivot column.
    """
    vec = list(ray)
    rows = [list(b) for b in basis]
    for k, (_, c) in enumerate(_bareiss(rows)):
        f = vec[c]
        if f:
            row = rows[k]
            p = row[c]
            if p < 0:
                p, f = -p, -f
            vec[:c] = [p * x for x in vec[:c]]
            vec[c:] = [p * x - f * y for x, y in zip(vec[c:], row[c:])]
    return primitive_vector(vec)


class Cone:
    """Strongly convex rational polyhedral cone, canonicalized on build.

    Derived data (dual generators, Hilbert basis, faces and the face cones)
    is cached on the instance; all of it is deterministic.  So are the
    monoid decompositions: ``monoid_decompose`` keeps each certified one in
    the per-cone memo ``_decomposed``, keyed by the integer character.
    """

    def __init__(self, rays, dim=None):
        rays = [_int_vector(r) for r in rays]
        if dim is None:
            if not rays:
                raise ValueError("dimension required for the zero cone")
            dim = len(rays[0])
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}")
        if any(len(r) != dim for r in rays):
            raise ValueError(f"every ray must have dimension {dim}")
        if any(not any(r) for r in rays):
            raise ValueError("zero vector is not a ray")
        if len(rays) > MAX_RAYS:
            raise ValueError(f"at most {MAX_RAYS} rays supported")
        self.dim = dim
        prim = sorted({primitive_vector(r) for r in rays})
        dual_rays, dual_lin = generators_from_halfspaces(prim, dim)
        self.dual_rays = dual_rays
        self.dual_lineality = dual_lin
        self._dual_gens = tuple(dual_rays) + tuple(
            v for b in dual_lin for v in (b, tuple(-x for x in b))
        )
        # the cone is pointed iff its dual is full-dimensional, and r spans
        # an extreme ray iff the dual face r-perp is a facet
        if _rank(self._dual_gens) < dim:
            raise ValueError("cone contains a line")
        self.rays = tuple(
            r
            for r in prim
            if _rank([g for g in self._dual_gens if dot(g, r) == 0]) == dim - 1
        )
        self._hilbert = None
        self._hilbert_split = None
        self._faces = None
        self._face_cones = None
        self._decomposed = {}

    def __eq__(self, other):
        if not isinstance(other, Cone):
            return NotImplemented
        return self.dim == other.dim and self.rays == other.rays

    def __hash__(self):
        return hash((self.dim, self.rays))

    def __repr__(self):
        return f"Cone(dim={self.dim}, rays={list(self.rays)})"

    def is_zero(self) -> bool:
        return not self.rays

    def contains(self, v) -> bool:
        v = tuple(v)
        return all(dot(g, v) >= 0 for g in self._dual_gens)

    def dual_generators(self):
        """Generators of the dual cone: extreme rays plus +-lineality."""
        return self._dual_gens

    # -- Hilbert basis ------------------------------------------------------

    def _splitting(self):
        """Quotient data splitting the dual monoid off its unit group.

        Returns (group_basis, unit_rows, quotient, lift, facets, extreme,
        q_dim) where group_basis are the d unit directions, unit_rows the
        first d rows of the unimodular W that maps x to its coordinates
        (unit group first), quotient and lift map between the lattice and the
        q_dim quotient coordinates, and the facet normals / extreme rays
        describe the pointed image.

        W and W^{-1} are the U and U^{-1} of one ``_smith`` of the kernel
        matrix, int rows both, so every map built from them is an integer
        ``dot``; all outputs are int tuples.
        """
        if self._hilbert_split is not None:
            return self._hilbert_split
        n = self.dim
        kernel = _int_kernel(self.rays) if self.rays else _unit_vectors(n)
        d = len(kernel)
        if d:
            # From U @ K @ V = [I_d; 0], K the n x d matrix of kernel
            # columns, the first d columns of U^{-1} span the kernel lattice,
            # so U gives coordinates in which the unit group is the first d
            # axes.
            w, dd, _, w_inv = _smith(list(zip(*kernel)))
            if any(dd[t][t] != 1 for t in range(d)):
                raise RuntimeError("kernel lattice must be saturated")
        else:
            w = w_inv = _unit_vectors(n)
        w_inv_cols = tuple(zip(*w_inv))
        group_basis = w_inv_cols[:d]
        unit_rows = w[:d]
        quotient_rows = w[d:]
        lift_rows = tuple(r[d:] for r in w_inv)
        q_dim = n - d

        def quotient(x):
            return tuple(dot(r, x) for r in quotient_rows)

        def lift(q):
            return tuple(dot(r, q) for r in lift_rows)

        # <r, x> = <(r @ w_inv)[d:], quotient(x)>, since r vanishes on the
        # unit group; the dual rays map onto the extreme rays of the image
        lift_cols = w_inv_cols[d:]
        facets = tuple(
            sorted({primitive_vector(tuple(dot(r, c) for c in lift_cols)) for r in self.rays})
        )
        extreme = tuple(sorted({primitive_vector(quotient(g)) for g in self.dual_rays}))
        self._hilbert_split = (group_basis, unit_rows, quotient, lift, facets, extreme, q_dim)
        return self._hilbert_split

    @property
    def hilbert_basis(self):
        if self._hilbert is None:
            group_basis, _, _, lift, facets, extreme, q_dim = self._splitting()
            elems = []
            for b in group_basis:
                elems.append(b)
                elems.append(tuple(-x for x in b))
            if q_dim:
                pointed = _pointed_hilbert(facets, extreme, q_dim)
                elems.extend(lift(h) for h in pointed)
            self._hilbert = tuple(sorted(set(elems)))
        return self._hilbert

    def monoid_decompose(self, m):
        """Nonnegative integer coefficients over the Hilbert basis, or raise.

        Returns a fresh dict {basis_element: coefficient} whose weighted sum
        is m.  A decomposition is memoized only once that sum is certified;
        a refusal is never memoized.
        """
        m = _int_vector(m)
        if len(m) != self.dim:
            raise ValueError("dimension mismatch")
        known = self._decomposed.get(m)
        if known is not None:
            return dict(known)
        for r in self.rays:
            if dot(m, r) < 0:
                raise NotInMonoid(f"{m} pairs negatively with ray {r}")
        group_basis, unit_rows, quotient, _, facets, _, q_dim = self._splitting()
        hb = self.hilbert_basis
        coeffs = {h: 0 for h in hb}
        if q_dim:
            q = quotient(m)
            # each Hilbert element's image, once; the pointed ones are nonzero
            pointed = [(h, qh) for h in hb for qh in (quotient(h),) if any(qh)]
            decomp = _pointed_decompose(q, [qh for _, qh in pointed], facets)
            if decomp is None:
                raise NotInMonoid(f"{m} is not a lattice member of the dual monoid")
            lifted_part = [0] * self.dim
            for (h, _), c in zip(pointed, decomp):
                coeffs[h] = c
                for k in range(self.dim):
                    lifted_part[k] += c * h[k]
            rem = tuple(a - b for a, b in zip(m, lifted_part))
        else:
            rem = m
        # quotient(rem) = 0, so rem lies in the unit group: its coordinates
        # over group_basis are the first d coordinates of W rem
        for b, row in zip(group_basis, unit_rows):
            k = dot(row, rem)
            if k >= 0:
                coeffs[b] += k
            else:
                coeffs[tuple(-x for x in b)] += -k
        if _weighted_sum(coeffs, self.dim) != m:
            raise RuntimeError(f"decomposition of {m} does not sum back to it")
        self._decomposed[m] = tuple(coeffs.items())
        return coeffs

    # -- faces ---------------------------------------------------------------

    def face_ray_sets(self):
        """All faces, as frozensets of rays (the cone itself included)."""
        if self._faces is None:
            all_rays = frozenset(self.rays)
            vanishing = [
                frozenset(r for r in self.rays if dot(g, r) == 0)
                for g in self.dual_rays
            ]
            found = {all_rays}
            frontier = [all_rays]
            while frontier:
                nxt = []
                for s in frontier:
                    for v in vanishing:
                        t = s & v
                        if t not in found:
                            found.add(t)
                            nxt.append(t)
                frontier = nxt
            found.add(frozenset())
            self._faces = tuple(
                sorted(found, key=lambda s: (len(s), sorted(s)))
            )
        return self._faces

    def faces(self):
        """All faces as cones, built once; the last one is the cone itself."""
        if self._face_cones is None:
            top = frozenset(self.rays)
            self._face_cones = tuple(
                self if s == top else Cone(sorted(s), self.dim)
                for s in self.face_ray_sets()
            )
        return self._face_cones


def _weighted_sum(coeffs, dim):
    total = [0] * dim
    for h, c in coeffs.items():
        for k in range(dim):
            total[k] += c * h[k]
    return tuple(total)


def _pointed_hilbert(facets, extreme, dim):
    """Hilbert basis of a pointed full-dimensional monoid by a degree-ordered sieve.

    Every irreducible element lies in the zonotope spanned by the extreme
    rays, hence in its coordinate box; reducibility of a candidate h is
    witnessed by another candidate c with h - c a candidate too.  Grade the
    candidates by deg(p) = <sum of facets, p>, which is positive on every
    nonzero member because the image is pointed and full-dimensional.
    Degrees add, so one of c and h - c has degree at most deg(h) / 2:
    trying only those c, lowest degree first, finds a witness exactly when
    some candidate is one, and the sieve is exact.
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
    weight = [sum(col) for col in zip(*facets)]
    graded = sorted((dot(weight, p), p) for p in members)
    degrees = [deg for deg, _ in graded]
    members = [p for _, p in graded]
    basis = []
    for h, deg in zip(members, degrees):
        halves = itertools.islice(members, bisect_right(degrees, deg // 2))
        if not any(tuple(a - b for a, b in zip(h, c)) in member_set for c in halves):
            basis.append(h)
    return sorted(basis)


def _pointed_decompose(target, gens, facets):
    """Nonnegative integer combination of gens equal to target, or None."""
    if any(sum(dot(f, g) for f in facets) <= 0 for g in gens):
        raise RuntimeError("generators must be outside the unit group")
    # depth-first search over the generators in order, with an explicit
    # stack of (remainder, generator taken); remainders already shown to
    # have no decomposition are memoized
    failed = set()
    stack = []
    x, start = tuple(target), 0
    while any(x):
        for idx in range(start, len(gens)):
            rest = tuple(a - b for a, b in zip(x, gens[idx]))
            if rest not in failed and all(dot(f, rest) >= 0 for f in facets):
                stack.append((x, idx))
                x, start = rest, 0
                break
        else:
            failed.add(x)
            if not stack:
                return None
            x, idx = stack.pop()
            start = idx + 1
    out = [0] * len(gens)
    for _, idx in stack:
        out[idx] += 1
    return tuple(out)


# -- face relations ----------------------------------------------------------


def face_witness(face: Cone, cone: Cone):
    """A dual-monoid element u with face = cone intersect u-perp, or None."""
    if face.dim != cone.dim:
        return None
    ray_set = set(cone.rays)
    if any(r not in ray_set for r in face.rays):
        # extreme rays of a face are extreme in the ambient cone
        return None
    vanish_on_face = [
        g
        for g in cone.dual_rays
        if all(dot(g, r) == 0 for r in face.rays)
    ]
    u = tuple(sum(g[k] for g in vanish_on_face) for k in range(cone.dim))
    cut = tuple(sorted(r for r in cone.rays if dot(u, r) == 0))
    if cut == face.rays:
        return u
    return None


def is_face(face: Cone, cone: Cone) -> bool:
    return face_witness(face, cone) is not None


def intersect(c1: Cone, c2: Cone) -> Cone:
    if c1.dim != c2.dim:
        raise ValueError("dimension mismatch")
    rays, lin = generators_from_halfspaces(
        list(c1.dual_generators()) + list(c2.dual_generators()), c1.dim
    )
    if lin:
        raise RuntimeError("intersection of pointed cones is pointed")
    return Cone(rays, c1.dim)


# -- fans ---------------------------------------------------------------------


class Fan:
    """Finite face-closed set of cones; validity is checked separately."""

    def __init__(self, cones, dim):
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}")
        closed = {Cone((), dim)}
        for c in cones:
            if c.dim != dim:
                raise ValueError("cone dimension mismatch")
            for f in c.faces():
                closed.add(f)
        self.dim = dim
        self.cones = tuple(sorted(closed, key=lambda c: (len(c.rays), c.rays)))
        self._members = frozenset(closed)

    def __eq__(self, other):
        if not isinstance(other, Fan):
            return NotImplemented
        return self.dim == other.dim and self.cones == other.cones

    def __hash__(self):
        return hash((self.dim, self.cones))

    def __repr__(self):
        return f"Fan(dim={self.dim}, cones={len(self.cones)})"

    def contains_cone(self, c: Cone) -> bool:
        return c in self._members

    def maximal_cones(self):
        """The cones that are a face of no other cone of the fan.

        Every cone is a face of a maximal one.  A cone whose rays lie among
        another cone's rays without being its face (an invalid fan) is
        maximal too.  A proper face has fewer rays, so walking the cones from
        the most rays down meets every maximal cone before its faces.
        """
        covered = set()
        maximal = set()
        for c in reversed(self.cones):
            rays = frozenset(c.rays)
            if rays not in covered:
                maximal.add(c)
                covered.update(c.face_ray_sets())
        return tuple(c for c in self.cones if c in maximal)


def _pair_violation(fan: Fan, a: Cone, b: Cone):
    """The violation of the fan axioms by a pair of cones, or None."""
    meet = intersect(a, b)
    problems = []
    if not fan.contains_cone(meet):
        problems.append("intersection missing from fan")
    if not is_face(meet, a) or not is_face(meet, b):
        problems.append("intersection is not a common face")
    if not problems:
        return None
    return {
        "cones": [list(map(list, a.rays)), list(map(list, b.rays))],
        "intersection": list(map(list, meet.rays)),
        "reason": "; ".join(problems),
    }


def fan_validate(fan: Fan):
    """List of violations of the fan axioms; empty means valid.

    A fan is face-closed, every cone is a face of a maximal cone, and a face
    of a face is a face, so if every two maximal cones meet in a common face
    then so do every two cones (Fulton, *Introduction to Toric Varieties*,
    1993, section 1.4).  Only when some maximal pair fails are all pairs
    listed.
    """
    maximal = fan.maximal_cones()
    if all(_pair_violation(fan, a, b) is None for a, b in itertools.combinations(maximal, 2)):
        return []
    violations = [
        _pair_violation(fan, a, b) for a, b in itertools.combinations(fan.cones, 2)
    ]
    return [v for v in violations if v is not None]


def supported_in_chamber(fan: Fan, rd) -> bool:
    return all(
        rd.in_negative_chamber(r) for c in fan.cones for r in c.rays
    )


def _smith_diagonal(c: Cone) -> list:
    """The nonzero diagonal entries of the Smith normal form of the ray matrix."""
    _, d, _, _ = _smith(c.rays)
    return [row[t] for t, row in enumerate(d) if t < len(row) and row[t]]


def cone_index(c: Cone) -> int:
    """Product of the nonzero diagonal entries of the ray matrix's SNF."""
    return prod(_smith_diagonal(c))


def cone_is_smooth(c: Cone) -> bool:
    diagonal = _smith_diagonal(c)
    return len(diagonal) == len(c.rays) and all(x == 1 for x in diagonal)


def is_smooth(fan: Fan) -> bool:
    return all(cone_is_smooth(c) for c in fan.cones)


def orbit_fan(fan: Fan, weyl) -> Fan:
    """The fan of all Weyl translates of the given cones."""
    maximal = fan.maximal_cones()
    moved = []
    for w in weyl.elements:
        for c in maximal:
            # Cone refuses a non-integer image coordinate rather than rounding it
            moved.append(Cone([w.n_matrix @ r for r in c.rays], fan.dim))
    return Fan(moved, fan.dim)


def _covers(fan: Fan, boundary) -> bool:
    """Whether a valid fan covers the cone {x : <g, x> >= 0 for g in boundary}.

    True iff every maximal cone is full-dimensional and every codimension-1
    cone (wall) is a face of exactly one full cone when it lies in some
    hyperplane g-perp, g in boundary, and of exactly two otherwise.  With an
    empty boundary this is completeness.  The boundary must be the facet
    normals of a cone that contains the support of the fan.
    """
    n = fan.dim
    maximal = fan.maximal_cones()
    full = [c for c in maximal if _rank(c.rays) == n]
    if not full or len(full) != len(maximal):
        return False
    for wall in fan.cones:
        if _rank(wall.rays) != n - 1:
            continue
        rays = frozenset(wall.rays)
        touching = sum(rays in c.face_ray_sets() for c in full)
        on_boundary = any(all(dot(g, r) == 0 for r in wall.rays) for g in boundary)
        if touching != (1 if on_boundary else 2):
            return False
    return True


def is_proper(fan: Fan, weyl) -> bool:
    """Completeness of the Weyl orbit fan, by the wall-pairing criterion.

    Raises InvalidFan when the Weyl translates of the cones do not form a
    fan, which can happen when the fan leaves the chamber.
    """
    orbit = orbit_fan(fan, weyl)
    violations = fan_validate(orbit)
    if violations:
        raise InvalidFan(violations)
    return _covers(orbit, ())


def is_proper_in_chamber(fan: Fan, chamber: Cone) -> bool:
    """Completeness of the Weyl translates of a fan in the chamber.

    Precondition: the fan is valid and supported in `chamber`, the closed
    chamber of the Weyl group (for example `RootDatum.negative_chamber()`).
    The chamber is a strict fundamental domain, so the translates cover N_R
    iff the fan covers the chamber, which the walls of the fan decide.  Under
    the precondition this equals `is_proper(fan, weyl)`.
    """
    return _covers(fan, chamber.dual_rays)


def interior_cocharacter(c: Cone):
    if c.is_zero():
        raise ZeroCone("the zero cone has no interior cocharacter")
    return tuple(sum(r[k] for r in c.rays) for k in range(c.dim))
