import itertools
import math
import random
from fractions import Fraction

import pytest

from toroidal.catalog import cone_catalog, fan_catalog
from toroidal.cones import (
    Cone,
    Fan,
    InvalidFan,
    NotInMonoid,
    ZeroCone,
    _pointed_hilbert,
    _reduce_mod_lattice,
    cone_index,
    cone_is_smooth,
    face_witness,
    fan_validate,
    generators_from_halfspaces,
    interior_cocharacter,
    intersect,
    is_face,
    is_proper,
    is_smooth,
    orbit_fan,
    supported_in_chamber,
)
from toroidal.linalg import Matrix, _bareiss, dot, integer_rank, smith_normal_form
from toroidal.rootdata import RootDatum


# -- brute-force oracles ------------------------------------------------------


def in_dual_monoid(cone: Cone, m) -> bool:
    return all(dot(m, r) >= 0 for r in cone.rays)


def brute_dual_hilbert(cone: Cone, box: int = 8):
    """Irreducible elements of the dual monoid, by scanning a lattice box.

    Only sound when the dual monoid is pointed, i.e. the cone spans the
    ambient lattice; callers must restrict to that case.
    """
    pts = [
        p
        for p in itertools.product(range(-box, box + 1), repeat=cone.dim)
        if any(p) and in_dual_monoid(cone, p)
    ]
    pts_set = set(pts)
    basis = []
    for p in pts:
        reducible = any(
            tuple(a - b for a, b in zip(p, q)) in pts_set
            for q in pts
            if q != p and any(a - b for a, b in zip(p, q))
        )
        if not reducible:
            basis.append(p)
    return sorted(basis)


def spans_lattice(cone: Cone) -> bool:
    return bool(cone.rays) and integer_rank(Matrix(cone.rays)) == cone.dim


# -- dual generators ----------------------------------------------------------


def test_dual_of_plane_quadrant():
    c = Cone([(1, 0), (1, 2)])
    assert sorted(c.dual_generators()) == [(0, 1), (2, -1)]


def test_dual_of_single_ray_has_lineality():
    c = Cone([(1, 0)])
    duals = sorted(c.dual_generators())
    assert (0, 1) in duals and (0, -1) in duals
    assert (1, 0) in duals


def test_dual_of_zero_cone_is_whole_lattice():
    c = Cone([], dim=2)
    duals = c.dual_generators()
    for v in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
        assert any(d == v for d in duals)


def test_double_duality_on_catalog():
    for cone in cone_catalog():
        gens, lin = generators_from_halfspaces(cone.dual_generators(), cone.dim)
        rays = list(gens)
        for v in lin:
            rays.append(v)
            rays.append(tuple(-x for x in v))
        assert Cone(rays, dim=cone.dim) == cone


def test_halfspace_generators_frozen():
    rays, lin = generators_from_halfspaces([(0, 1), (2, -1)], 2)
    assert not lin
    assert Cone(rays, dim=2) == Cone([(1, 0), (1, 2)])


def test_lattice_reduction_matches_reduced_echelon_form(
    reduce_mod_lattice_by_gauss_jordan,
):
    # bases of 0 to dim vectors, some dependent, many with a negative pivot
    rng = random.Random(23)
    negative = 0
    for _ in range(10000):
        dim = rng.randint(1, 4)
        basis = [
            tuple(rng.randint(-4, 4) for _ in range(dim))
            for _ in range(rng.randint(0, dim))
        ]
        ray = tuple(rng.randint(-6, 6) for _ in range(dim))
        rows = [list(b) for b in basis]
        negative += any(rows[k][c] < 0 for k, (_, c) in enumerate(_bareiss(rows)))
        got = _reduce_mod_lattice(ray, basis)
        assert got == reduce_mod_lattice_by_gauss_jordan(ray, basis), (ray, basis)
    assert negative > 4000


def test_cone_rejects_lines():
    for rays in ([(1, 0), (-1, 0)], [(1, 0), (0, 1), (-1, -1)]):
        with pytest.raises(ValueError, match="contains a line"):
            Cone(rays)


def test_closed_forms_match_double_description(
    rays_by_double_description, splitting_by_double_description
):
    inputs = [(c.rays, c.dim) for c in cone_catalog()]
    inputs += [(c.rays, c.dim) for fan in fan_catalog().values() for c in fan.cones]
    rng = random.Random(406)
    for _ in range(400):
        dim = rng.randint(1, 4)
        rays = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(0, 5))]
        inputs.append(([r for r in rays if any(r)], dim))
    lines = 0
    for rays, dim in inputs:
        try:
            expected = rays_by_double_description(rays, dim)
        except ValueError as e:
            with pytest.raises(ValueError, match=str(e)):
                Cone(rays, dim)
            lines += 1
            continue
        cone = Cone(rays, dim)
        assert cone.rays == expected
        assert cone.rays == generators_from_halfspaces(cone.dual_generators(), dim)[0]
        _, _, _, _, facets, extreme, _ = cone._splitting()
        oracle_facets, oracle_extreme = splitting_by_double_description(cone)
        assert set(facets) == set(oracle_facets)
        assert set(extreme) == set(oracle_extreme)
    assert lines > 0


def seeded_cones(seed, count):
    """count seeded cones of dims 1-4, with and without dual lineality."""
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        dim = rng.randint(1, 4)
        c = 2 if dim == 4 else 3
        n_rays = rng.randint(0, dim + 1)
        rays = [tuple(rng.randint(-c, c) for _ in range(dim)) for _ in range(n_rays)]
        try:
            cones.append(Cone([r for r in rays if any(r)], dim))
        except ValueError:
            continue
    return cones


def seeded_vectors(rng, dim, count):
    return [tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(count)]


def small_hilbert_basis(cone):
    """The Hilbert basis, or () when its candidate box passes 2,000 points."""
    _, _, _, _, _, extreme, q = cone._splitting()
    if math.prod(sum(abs(r[k]) for r in extreme) + 1 for k in range(q)) > 2000:
        return ()
    return cone.hilbert_basis


def test_splitting_on_int_rows_matches_fraction_matrices(splitting_by_fraction_matrices):
    rng = random.Random(2310)
    cones = list(cone_catalog()) + seeded_cones(2309, 1000)
    with_lineality = with_hilbert = 0
    for cone in cones:
        got = cone._splitting()
        want = splitting_by_fraction_matrices(cone)
        group_basis, unit_rows, quotient, lift, facets, extreme, q_dim = got
        assert group_basis == want[0]
        assert unit_rows == want[1]
        assert (facets, extreme, q_dim) == want[4:]
        with_lineality += bool(group_basis)
        hb = small_hilbert_basis(cone)
        with_hilbert += bool(hb)
        xs = list(cone.dual_rays) + list(hb) + seeded_vectors(rng, cone.dim, 3)
        qs = [quotient(x) for x in xs]
        assert qs == [want[2](x) for x in xs]
        qs += seeded_vectors(rng, q_dim, 3)
        lifts = [lift(q) for q in qs]
        assert lifts == [want[3](q) for q in qs]
        outputs = [*group_basis, *unit_rows, *facets, *extreme, *qs, *lifts]
        assert all(type(v) is tuple and all(type(x) is int for x in v) for v in outputs), cone
    assert 0 < with_lineality < len(cones)
    assert with_hilbert > 0.85 * len(cones)


def test_splitting_quotient_and_lift_invert_each_other():
    rng = random.Random(2311)
    for cone in seeded_cones(2312, 300):
        group_basis, unit_rows, quotient, lift, _, _, _ = cone._splitting()
        hb = small_hilbert_basis(cone)
        for h in hb:
            q = quotient(h)
            assert quotient(lift(q)) == q
        for x in list(hb) + seeded_vectors(rng, cone.dim, 5):
            total = list(lift(quotient(x)))
            for row, b in zip(unit_rows, group_basis):
                k = dot(row, x)
                total = [t + k * y for t, y in zip(total, b)]
            assert tuple(total) == x, (cone, x)


# -- Hilbert bases ------------------------------------------------------------


def test_hilbert_basis_saturates_dual_pair():
    # dual generators (0,1) and (2,-1) need the extra element (1,0)
    c = Cone([(1, 0), (1, 2)])
    assert sorted(c.hilbert_basis) == [(0, 1), (1, 0), (2, -1)]


def test_hilbert_basis_of_halfline_with_lineality():
    c = Cone([(1, 0)])
    hb = set(c.hilbert_basis)
    assert hb == {(1, 0), (0, 1), (0, -1)}


def test_hilbert_matches_brute_force_on_catalog():
    checked = 0
    for cone in cone_catalog():
        if not spans_lattice(cone):
            continue
        assert sorted(cone.hilbert_basis) == brute_dual_hilbert(cone), cone
        checked += 1
    assert checked >= 10


def test_degree_sieve_matches_pairwise_sieve(pointed_hilbert_by_pairs):
    # seeded cones of every dimension of pointed quotient; boxes stay at
    # most 1,500 points, since the pairwise oracle is quadratic in the box
    rng = random.Random(1313)
    compared = 0
    while compared < 1000:
        dim = rng.randint(2, 4)
        c = 2 if dim == 4 else 3
        n_rays = rng.randint(1, dim + 2)
        rays = [tuple(rng.randint(-c, c) for _ in range(dim)) for _ in range(n_rays)]
        try:
            cone = Cone([r for r in rays if any(r)], dim)
        except ValueError:
            continue
        _, _, _, _, facets, extreme, q = cone._splitting()
        sides = [sum(abs(r[k]) for r in extreme) + 1 for k in range(q)]
        if not q or math.prod(sides) > 1500:
            continue
        assert _pointed_hilbert(facets, extreme, q) == pointed_hilbert_by_pairs(
            facets, extreme, q
        ), rays
        compared += 1


@pytest.mark.parametrize("n", [1, 5, 50, 200])
def test_hilbert_basis_of_two_ray_cone_closed_form(n):
    expected = {(0, 1)} | {(k, 1 - k) for k in range(1, n + 2)}
    assert set(Cone([(1, 0), (n, n + 1)]).hilbert_basis) == expected


def test_hilbert_complete_and_minimal_with_lineality():
    # for lower-dimensional cones the dual monoid has units, so the brute
    # irreducibility scan is meaningless; check generation and minimality
    for cone in cone_catalog():
        if spans_lattice(cone):
            continue
        hb = cone.hilbert_basis
        box = 3
        for m in itertools.product(range(-box, box + 1), repeat=cone.dim):
            if not in_dual_monoid(cone, m):
                continue
            decomp = cone.monoid_decompose(m)
            total = [0] * cone.dim
            for gen, mult in decomp.items():
                for i in range(cone.dim):
                    total[i] += mult * gen[i]
            assert tuple(total) == m
        for h in hb:
            others = [g for g in hb if g != h]
            assert not _decomposes_over(h, others, cone.dim), (cone, h)


def _decomposes_over(target, gens, dim, bound: int = 6):
    def search(t, remaining):
        if not any(t):
            return True
        if not remaining:
            return False
        g, rest = remaining[0], remaining[1:]
        for k in range(bound + 1):
            nxt = tuple(a - k * b for a, b in zip(t, g))
            if search(nxt, rest):
                return True
        return False

    return search(target, tuple(gens))


def test_hilbert_elements_generate():
    rng = random.Random(4)
    for cone in cone_catalog():
        if cone.is_zero():
            continue
        hb = cone.hilbert_basis
        for _ in range(10):
            coeffs = [rng.randrange(0, 3) for _ in hb]
            v = tuple(
                sum(c * h[i] for c, h in zip(coeffs, hb)) for i in range(cone.dim)
            )
            decomp = cone.monoid_decompose(v)
            total = [0] * cone.dim
            for gen, mult in decomp.items():
                for i in range(cone.dim):
                    total[i] += mult * gen[i]
            assert tuple(total) == v


def test_monoid_decompose_rejects_outside_points():
    c = Cone([(-1,)], dim=1)
    assert c.monoid_decompose((-2,)) == {(-1,): 2}
    with pytest.raises(NotInMonoid):
        c.monoid_decompose((1,))


def test_wrong_length_vectors_are_refused():
    from toroidal.charts import limit_point

    quadrant = Cone([(1, 0), (0, 1)])
    for v in ((1, 2, 3), (1,)):
        with pytest.raises(ValueError):
            quadrant.contains(v)
        with pytest.raises(ValueError):
            limit_point(v, quadrant)
        with pytest.raises(ValueError):
            quadrant.monoid_decompose(v)


def test_monoid_decompose_deep_target_has_no_recursion_limit():
    c = Cone([(1, 0), (0, 1)])
    assert c.monoid_decompose((3000, 3000)) == {(0, 1): 3000, (1, 0): 3000}


def test_monoid_decompose_certifies_its_sum(monkeypatch):
    import toroidal.cones as cones

    # a pointed decomposition that drops its solution
    monkeypatch.setattr(cones, "_pointed_decompose", lambda target, gens, facets: (0,) * len(gens))
    with pytest.raises(RuntimeError, match="does not sum back"):
        Cone([(1, 0)], dim=2).monoid_decompose((1, 5))


def test_monoid_decompose_is_memoized_per_cone(monkeypatch):
    import toroidal.cones as cones

    calls = []
    pointed_decompose = cones._pointed_decompose

    def counting(target, gens, facets):
        calls.append(target)
        return pointed_decompose(target, gens, facets)

    monkeypatch.setattr(cones, "_pointed_decompose", counting)
    c = Cone([(1, 0), (1, 2)])
    first = c.monoid_decompose((3, 1))
    want = dict(first)
    first.clear()
    first[(0, 1)] = 99
    again = c.monoid_decompose((Fraction(3), 1))
    assert again == want and again is not first
    assert sum(k * h[0] for h, k in again.items()) == 3
    assert len(calls) == 1
    # an equal cone built afresh keeps its own memo
    assert Cone([(1, 0), (1, 2)]).monoid_decompose((3, 1)) == want
    assert len(calls) == 2
    for m in ((2, 5), (0, 1), (3, 1), (2, 5)):
        c.monoid_decompose(m)
    assert len(calls) == 4
    # refusals are never memoized
    line = Cone([(1, 0)], dim=2)
    for _ in range(3):
        with pytest.raises(NotInMonoid):
            c.monoid_decompose((-1, 0))
        with pytest.raises(NotInMonoid):
            line.monoid_decompose((-1, 3))
    assert c._decomposed.keys() == {(3, 1), (2, 5), (0, 1)}
    assert not line._decomposed


def test_relations_hold_on_generators(relations_up_to_degree_6):
    c = Cone([(1, 0), (1, 2)])
    rels = relations_up_to_degree_6(c)
    assert rels  # (1,0)+(1,0) == (0,1)+(2,-1) appears in some degree
    for lhs, rhs in rels:
        lv = [0, 0]
        rv = [0, 0]
        for g, k in lhs:
            lv = [a + k * b for a, b in zip(lv, g)]
        for g, k in rhs:
            rv = [a + k * b for a, b in zip(rv, g)]
        assert lv == rv
        assert lhs != rhs


def test_relations_have_one_fixed_degree(relations_up_to_degree_6):
    c = Cone([(1, 0), (1, 2)])
    assert len(relations_up_to_degree_6(c)) == 35


# -- faces and witnesses --------------------------------------------------


def test_faces_of_quadrant():
    c = Cone([(1, 0), (0, 1)])
    fs = c.faces()
    assert len(fs) == 4  # zero, two rays, the cone itself
    assert Cone([], dim=2) in fs
    assert Cone([(1, 0)], dim=2) in fs
    assert c in fs


def test_face_witness_frozen_example():
    face = Cone([(-1, 0)], dim=2)
    cone = Cone([(-1, 0), (-1, -2)])
    assert face_witness(face, cone) == (0, -1)


def test_face_witness_separates_everywhere():
    for cone in cone_catalog():
        for face in cone.faces():
            u = face_witness(face, cone)
            assert u is not None
            # u lies in the dual monoid and cuts out exactly the face
            assert in_dual_monoid(cone, u)
            for r in cone.rays:
                if face.contains(r):
                    assert dot(u, r) == 0
                else:
                    assert dot(u, r) > 0


def test_is_face_rejects_interior_ray():
    cone = Cone([(1, 0), (1, 2)])
    assert not is_face(Cone([(1, 1)], dim=2), cone)
    assert is_face(Cone([(1, 2)], dim=2), cone)
    assert is_face(cone, cone)


def test_intersection_of_adjacent_cones():
    a = Cone([(1, 0), (1, 2)])
    b = Cone([(1, 2), (0, 1)])
    assert intersect(a, b) == Cone([(1, 2)], dim=2)


# -- fans ---------------------------------------------------------------------


def test_valid_two_cone_fan():
    fan = Fan([Cone([(-1, 0), (-1, -1)]), Cone([(-1, -1), (0, -1)])], dim=2)
    assert fan_validate(fan) == []


def test_invalid_overlapping_fan_reports_violation():
    fan = Fan([Cone([(-1, 0), (-1, -2)]), Cone([(-1, -1), (0, -1)])], dim=2)
    report = fan_validate(fan)
    assert report
    pair = sorted([((-1, -2), (-1, 0)), ((-1, -1), (0, -1))])
    hits = [
        v
        for v in report
        if sorted(tuple(tuple(r) for r in c) for c in v["cones"]) == pair
    ]
    assert hits, report
    assert "not a common face" in hits[0]["reason"] or "missing" in hits[0]["reason"]


def test_fan_closure_under_faces():
    fan = Fan([Cone([(1, 0), (0, 1)])], dim=2)
    assert fan.contains_cone(Cone([(1, 0)], dim=2))
    assert fan.contains_cone(Cone([], dim=2))


def test_fan_catalog_validity_flags():
    fans = fan_catalog()
    assert fan_validate(fans["two_cones_valid"]) == []
    assert fan_validate(fans["two_cones_overlap"])
    for name in ("a1_embedding", "quadrants", "pentagon", "octant", "a2_chamber"):
        assert fan_validate(fans[name]) == [], name


def square_with_diagonal_fan():
    """A square cone and a 2-ray cone through its interior: rays of the
    second lie among the rays of the first, but it is not a face."""
    square = Cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    diagonal = Cone([(1, 0, 1), (-1, 0, 1)])
    return Fan([square, diagonal], dim=3), square, diagonal


def all_pairs_violations(fan: Fan):
    out = []
    for a, b in itertools.combinations(fan.cones, 2):
        meet = intersect(a, b)
        if not fan.contains_cone(meet) or not is_face(meet, a) or not is_face(meet, b):
            out.append(sorted([a.rays, b.rays]))
    return out


def test_sub_cone_that_is_not_a_face_is_maximal_and_invalid():
    fan, square, diagonal = square_with_diagonal_fan()
    assert set(fan.maximal_cones()) == {square, diagonal}
    report = fan_validate(fan)
    assert report == [
        {
            "cones": [[[-1, 0, 1], [1, 0, 1]],
                      [[-1, 0, 1], [0, -1, 1], [0, 1, 1], [1, 0, 1]]],
            "intersection": [[-1, 0, 1], [1, 0, 1]],
            "reason": "intersection is not a common face",
        }
    ]
    rd = RootDatum([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert orbit_fan(fan, rd.weyl).contains_cone(diagonal)
    with pytest.raises(InvalidFan):
        is_proper(fan, rd.weyl)


def test_fan_validate_lists_the_same_pairs_as_all_pairs():
    overlapping = orbit_fan(
        Fan([Cone([(-1, 0), (0, -1)])], dim=2), RootDatum.of_type("A", 2).weyl
    )
    fans = list(fan_catalog().values()) + [square_with_diagonal_fan()[0], overlapping]
    for fan in fans:
        listed = [sorted(tuple(map(tuple, c)) for c in v["cones"]) for v in fan_validate(fan)]
        assert sorted(listed) == sorted(all_pairs_violations(fan)), fan


# -- smoothness and index -------------------------------------------------


def test_cone_index_and_smoothness():
    assert cone_index(Cone([(1, 0), (0, 1)])) == 1
    assert cone_is_smooth(Cone([(1, 0), (0, 1)]))
    assert cone_index(Cone([(1, 0), (1, 2)])) == 2
    assert not cone_is_smooth(Cone([(1, 0), (1, 2)]))
    assert cone_is_smooth(Cone([(1, 0)], dim=2))
    square = Cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    assert not cone_is_smooth(square)  # non-simplicial


def test_smoothness_matches_snf_oracle():
    for cone in cone_catalog():
        if cone.is_zero():
            assert cone_is_smooth(cone)
            continue
        m = Matrix([list(r) for r in zip(*cone.rays)])
        _, d, _ = smith_normal_form(m)
        diag = [d[i, i] for i in range(min(d.nrows, d.ncols))]
        nonzero = [abs(x) for x in diag if x]
        expected = len(nonzero) == len(cone.rays) and all(x == 1 for x in nonzero)
        assert cone_is_smooth(cone) == expected, cone


def test_fan_smoothness():
    fans = fan_catalog()
    assert is_smooth(fans["quadrants"])
    assert not is_smooth(fans["single_singular"])


# -- interior cocharacters and limits ---------------------------------------


def test_interior_cocharacter_frozen():
    assert interior_cocharacter(Cone([(-1,)], dim=1)) == (-1,)
    assert interior_cocharacter(Cone([(-1, 0), (-1, -2)])) == (-2, -2)
    assert interior_cocharacter(Cone([(-1, 0), (0, -1)])) == (-1, -1)
    with pytest.raises(ZeroCone):
        interior_cocharacter(Cone([], dim=2))


def test_interior_cocharacter_strictly_inside():
    for cone in cone_catalog():
        if cone.is_zero():
            continue
        delta = interior_cocharacter(cone)
        assert cone.contains(delta)
        for face in cone.faces():
            if face == cone:
                continue
            assert not face.contains(delta), (cone, face, delta)


# -- properness ---------------------------------------------------------------


def mc_coverage(fan: Fan, weyl, samples: int = 20000, seed: int = 0) -> bool:
    """Monte Carlo support check: W-translates of fan cones must cover N."""
    rng = random.Random(seed)
    cones = []
    for w in weyl.elements:
        for c in fan.maximal_cones():
            cones.append([tuple(w.n_matrix @ r) for r in c.rays])
    duals = [Cone(rs, dim=fan.dim).dual_generators() for rs in cones]
    for _ in range(samples):
        v = tuple(rng.randint(-40, 40) for _ in range(fan.dim))
        if not any(all(dot(n, v) >= 0 for n in ds) for ds in duals):
            return False
    return True


def test_properness_matches_coverage_oracle():
    fans = fan_catalog()
    rd1 = RootDatum.of_type("A", 1)
    rd2 = RootDatum.of_type("A", 2)
    rd11 = RootDatum([[2, 0], [0, 2]])
    cases = [
        ("a1_embedding", rd1, True),
        ("line_complete", rd1, True),
        ("a2_chamber", rd2, True),
        ("two_cones_valid", rd11, True),
        ("two_cones_open", rd11, True),
        ("quadrants", rd11, True),
        ("single_singular", rd11, False),
    ]
    for name, rd, expected in cases:
        fan = fans[name]
        got = is_proper(fan, rd.weyl)
        assert got == expected, name
        assert mc_coverage(fan, rd.weyl, samples=4000) == expected, name


def test_zero_fan_is_not_proper():
    rd = RootDatum.of_type("A", 1)
    fan = Fan([Cone([], dim=1)], dim=1)
    assert is_proper(fan, rd.weyl) is False
    assert mc_coverage(fan, rd.weyl, samples=500) is False


def test_properness_rejects_overlapping_orbit():
    # valid on its own, but pokes outside the chamber, so Weyl translates
    # overlap and the orbit is not a fan
    rd = RootDatum.of_type("A", 2)
    fan = Fan([Cone([(-1, 0), (0, -1)])], dim=2)
    assert fan_validate(fan) == []
    assert not supported_in_chamber(fan, rd)
    with pytest.raises(InvalidFan):
        is_proper(fan, rd.weyl)


def test_orbit_fan_of_chamber_fan_is_complete():
    rd = RootDatum.of_type("A", 1)
    fans = fan_catalog()
    orbit = orbit_fan(fans["a1_embedding"], rd.weyl)
    assert fan_validate(orbit) == []
    assert any(c.rays == ((1,),) for c in orbit.cones)
