import itertools
import random
from fractions import Fraction

import pytest

from toroidal import chevalley
from toroidal.chevalley import (
    NotInBigCell,
    Pinning,
    random_element,
    signed_permutation,
    split_inverse,
)
from toroidal.linalg import Matrix
from toroidal.ratfun import EPS
from toroidal.rootdata import RootDatum


def pinning(rank: int) -> Pinning:
    return Pinning(RootDatum.of_type("A", rank))


def test_root_positions_sl3():
    pin = pinning(2)
    rd = pin.rd
    a0, a1 = rd.simple_root(0), rd.simple_root(1)
    high = tuple(x + y for x, y in zip(a0, a1))
    assert pin.root_position(a0) == (0, 1)
    assert pin.root_position(a1) == (1, 2)
    assert pin.root_position(high) == (0, 2)
    assert pin.root_position(tuple(-x for x in high)) == (2, 0)


def test_root_element_additivity_up_to_sl5():
    for rank in range(1, 5):
        pin = pinning(rank)
        for beta in pin.rd.roots:
            x, y = Fraction(3, 2), Fraction(-5)
            lhs = pin.root_element(beta, x) @ pin.root_element(beta, y)
            assert lhs == pin.root_element(beta, x + y)


def test_weyl_representative_frozen_sl2():
    pin = pinning(1)
    n = pin.simple_reflection_element(0)
    assert n == Matrix([[0, 1], [-1, 0]])
    assert pin.weyl_representative(()) == pin.identity()
    assert pin.weyl_representative((0,)) == n


def test_identity_is_shared_and_unipotent_products_unchanged():
    rng = random.Random(5)
    for rank in range(1, 4):
        pin = pinning(rank)
        assert pin.identity() is pin.identity() == Matrix.identity(rank + 1)
        assert pin.unipotent_product((), ()) is pin.identity()
        for order in (pin.positive_order, pin.negative_order):
            for _ in range(10):
                coords = [
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in order
                ]
                want = Matrix.identity(rank + 1)
                for beta, c in zip(order, coords):
                    want = want @ pin.root_element(beta, c)
                got = pin.unipotent_product(order, coords)
                assert got == want and repr(got) == repr(want)
        assert pin.identity() == Matrix.identity(rank + 1)


def test_reflection_fourth_power_up_to_sl5():
    for rank in range(1, 5):
        pin = pinning(rank)
        for i in range(rank):
            n = pin.simple_reflection_element(i)
            assert n @ n @ n @ n == pin.identity()
            assert n @ n != pin.identity()  # order exactly 4


def test_longest_representative_facts_up_to_sl5():
    # the two facts reflect_longest_inverse rests on
    for rank in range(1, 5):
        pin = pinning(rank)
        w0 = pin.rd.longest_word()
        n0 = pin.weyl_representative(w0)
        # Tits: the reversed word is reduced for w0^{-1} = w0, same product
        assert pin.weyl_representative(tuple(reversed(w0))) == n0
        # n0^2 is central: -I at odd rank, I at even rank
        sign = -1 if rank % 2 else 1
        assert n0 @ n0 == pin.identity().map(lambda v: sign * v)


def test_torus_element_roundtrip():
    pin = pinning(2)
    coords = (Fraction(2), Fraction(3))
    t = pin.torus_element(coords)
    assert t == Matrix.diagonal([Fraction(2), Fraction(3, 2), Fraction(1, 3)])
    assert pin.torus_coordinates_of(t) == coords


def test_torus_element_rejects_bad_input():
    pin = pinning(2)
    with pytest.raises(ValueError):
        pin.torus_element((Fraction(1),))
    with pytest.raises(ValueError):
        pin.torus_element((Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        pin.torus_coordinates_of(Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def test_big_cell_factor_frozen(big_cell_factor, assemble):
    pin = pinning(1)
    triple = big_cell_factor(pin, Matrix([[2, 1], [1, 1]]))
    assert triple.neg_coords == (Fraction(1, 2),)
    assert triple.torus == (Fraction(2),)
    assert triple.pos_coords == (Fraction(1, 2),)
    assert assemble(pin, triple) == Matrix([[2, 1], [1, 1]])


def test_big_cell_factor_identity(big_cell_factor):
    pin = pinning(2)
    triple = big_cell_factor(pin, pin.identity())
    assert all(c == 0 for c in triple.neg_coords)
    assert all(c == 0 for c in triple.pos_coords)
    assert triple.torus == (Fraction(1), Fraction(1))


def test_big_cell_factor_rejects_antidiagonal(big_cell_factor):
    pin = pinning(1)
    with pytest.raises(NotInBigCell):
        big_cell_factor(pin, Matrix([[0, 1], [-1, 0]]))


def test_big_cell_roundtrip_random(big_cell_factor, assemble):
    for rank in (1, 2, 3):
        pin = pinning(rank)
        rng = random.Random(100 + rank)
        done = 0
        while done < 60:
            g = random_element(pin, rng)
            try:
                triple = big_cell_factor(pin, g)
            except NotInBigCell:
                continue
            assert assemble(pin, triple) == g
            done += 1


def leading_minors_nonzero(g: Matrix) -> bool:
    n = g.nrows
    for k in range(1, n + 1):
        sub = Matrix([[g[i, j] for j in range(k)] for i in range(k)])
        if sub.det() == 0:
            return False
    return True


def test_membership_iff_leading_minors():
    pin = pinning(2)
    rng = random.Random(7)
    seen_out = 0
    for _ in range(250):
        g = random_element(pin, rng)
        member = True
        try:
            pin.ldu(g)
        except NotInBigCell:
            member = False
            seen_out += 1
        assert member == leading_minors_nonzero(g)
    # engineered failures: left-translating by a Weyl representative
    # pushes elements out of the big cell
    n = pin.simple_reflection_element(0)
    misses = 0
    for _ in range(50):
        g = n @ random_element(pin, rng)
        if not leading_minors_nonzero(g):
            with pytest.raises(NotInBigCell):
                pin.ldu(g)
            misses += 1
    assert misses > 0


def _seeded_fraction_matrix(rng, n, eps=False):
    """Entries 0, small ints or fractions; a leading minor made to vanish at times.

    With ``eps``, each entry x becomes x + c*eps with c in -2..2, a RatFun
    unless c is 0, so rows mix Fractions and RatFuns.
    """

    def rational():
        r = rng.random()
        if r < 0.15:
            return 0
        if r < 0.45:
            return rng.randint(-5, 5)
        if r < 0.95:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))

    def entry():
        x = rational()
        c = rng.randint(-2, 2) if eps else 0
        return x + c * EPS if c else x

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.35:
        # row k starts with a combination of the rows above it, so the
        # (k+1)-th leading principal minor vanishes
        k = rng.randrange(1, n)
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(k)]
        for j in range(k + 1):
            rows[k][j] = sum((c * rows[i][j] for i, c in enumerate(coeffs)), Fraction(0))
    return Matrix(rows)


def test_fraction_free_ldu_matches_division(ldu_by_division):
    # 6000 matrices over Q, then 600 over Q(eps), where the elimination runs
    # on integer polynomials
    pins = {n: pinning(n - 1) for n in range(2, 6)}
    rng = random.Random(20260)
    seen = {(eps, inside): 0 for eps in (False, True) for inside in (False, True)}
    for k in range(6600):
        n = rng.randint(2, 5)
        eps = k >= 6000
        g = _seeded_fraction_matrix(rng, n, eps)
        try:
            want, want_err = ldu_by_division(g), None
        except NotInBigCell as e:
            want, want_err = None, str(e)
        try:
            got, got_err = pins[n].ldu(g), None
        except NotInBigCell as e:
            got, got_err = None, str(e)
        assert got_err == want_err, g
        if want_err is None:
            assert got == want and repr(got) == repr(want), g
        seen[eps, want_err is None] += 1
    assert seen[False, True] > 2500 and seen[False, False] > 2500
    assert seen[True, True] > 250 and seen[True, False] > 150


def test_split_inverse_matches_gauss_jordan():
    # over Q the entry types match too: every entry is a Fraction
    pins = {n: pinning(n - 1) for n in range(2, 6)}
    rng = random.Random(4471)
    done = {False: 0, True: 0}
    while min(done.values()) < 600:
        n = rng.randint(2, 5)
        eps = done[False] >= 600
        if eps:
            g = _seeded_fraction_matrix(rng, n).map(
                lambda x: x + EPS * rng.randint(-1, 1) if rng.random() < 0.4 else x
            )
        elif rng.random() < 0.5:
            g = random_element(pins[n], rng)
        else:
            g = _seeded_fraction_matrix(rng, n)
        try:
            split = pins[n].ldu(g)
        except NotInBigCell:
            continue
        got, want = split_inverse(*split), g.inverse()
        assert got == want and repr(got) == repr(want), g
        if not eps:
            assert [[type(x) for x in r] for r in got.rows] == [
                [type(x) for x in r] for r in want.rows
            ], g
            assert all(type(x) is Fraction for r in got.rows for x in r)
        done[eps] += 1


@pytest.mark.parametrize(
    "rows, minor",
    [
        # the elimination swaps a row up at the first step
        ([[0, 1], [1, 0]], 1),
        # no pivot in column 0; the first pivot is (1, 1)
        ([[0, 0], [0, 1]], 1),
        # singular: the second step finds no pivot at all
        ([[1, 2], [2, 4]], 2),
        # invertible, and the second step swaps the last row up
        ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], 2),
        # the second step skips column 1 and pivots at (1, 2)
        ([[1, 1, 0], [1, 1, 1], [0, 0, 1]], 2),
        # the first two minors are nonzero, the matrix is singular
        ([[1, 0, 1], [0, 1, 1], [1, 1, 2]], 3),
    ],
)
def test_ldu_names_the_first_vanishing_minor(rows, minor):
    g = Matrix(rows)
    with pytest.raises(NotInBigCell, match=f"^leading principal minor {minor} vanishes$"):
        pinning(g.nrows - 1).ldu(g)


def test_ldu_refuses_a_vanishing_first_minor_before_clearing_rows(monkeypatch):
    cleared = []
    clear = chevalley._cleared

    def counted(row):
        cleared.append(row)
        return clear(row)

    monkeypatch.setattr(chevalley, "_cleared", counted)
    for rows in ([[0, 1], [1, 0]], [[0, 1, 0], [Fraction(1, 3), 0, 0], [0, 0, 3]]):
        g = Matrix(rows)
        with pytest.raises(NotInBigCell, match="^leading principal minor 1 vanishes$"):
            pinning(g.nrows - 1).ldu(g)
    assert cleared == []
    pinning(1).ldu(Matrix([[1, 1], [Fraction(1, 2), 2]]))
    assert len(cleared) == 2


def test_refactor_frozen_sl3(unipotent_refactor):
    pin = pinning(2)
    rd = pin.rd
    a0, a1 = rd.simple_root(0), rd.simple_root(1)
    high = tuple(x + y for x, y in zip(a0, a1))
    u = pin.root_element(a0, Fraction(1)) @ pin.root_element(a1, Fraction(1))
    order = (a1, a0, high)
    assert unipotent_refactor(pin, u, order) == (
        Fraction(1),
        Fraction(1),
        Fraction(1),
    )


def test_refactor_identity_and_sl2(unipotent_refactor):
    pin2 = pinning(2)
    zeros = unipotent_refactor(pin2, pin2.identity(), pin2.positive_order)
    assert all(c == 0 for c in zeros)
    pin1 = pinning(1)
    u = Matrix([[1, Fraction(7, 3)], [0, 1]])
    assert unipotent_refactor(pin1, u, pin1.positive_order) == (Fraction(7, 3),)


def test_refactor_certifies_reassembly(monkeypatch, unipotent_refactor):
    pin = pinning(1)
    u = Matrix([[1, Fraction(7, 3)], [0, 1]])
    # a pinning that reads every coordinate from the lower-left entry
    monkeypatch.setattr(Pinning, "root_position", lambda self, beta: (1, 0))
    with pytest.raises(RuntimeError, match="reassemble"):
        unipotent_refactor(pin, u, pin.positive_order)


def test_refactor_order_independent_in_group(unipotent_refactor):
    pin = pinning(2)
    rng = random.Random(21)
    pos_roots = list(pin.rd.positive_roots)
    for _ in range(20):
        coords = [Fraction(rng.randint(-4, 4)) for _ in pin.positive_order]
        u = pin.unipotent_product(pin.positive_order, coords)
        order = list(pos_roots)
        rng.shuffle(order)
        refit = unipotent_refactor(pin, u, order)
        assert pin.unipotent_product(order, refit) == u


def test_chevalley_signs_frozen():
    pin1 = pinning(1)
    rd1 = pin1.rd
    a = rd1.simple_root(0)
    signs1 = pin1.chevalley_signs()
    assert signs1[(0, a)] == -1
    assert signs1[(0, tuple(-x for x in a))] == -1

    pin2 = pinning(2)
    rd2 = pin2.rd
    a0, a1 = rd2.simple_root(0), rd2.simple_root(1)
    high = tuple(x + y for x, y in zip(a0, a1))
    signs2 = pin2.chevalley_signs()
    assert signs2[(0, a1)] == 1
    assert signs2[(0, high)] == -1
    # own root always flips sign
    for i, beta in ((0, a0), (1, a1)):
        assert signs2[(i, beta)] == -1
        assert signs2[(i, tuple(-x for x in beta))] == -1


def test_signs_define_conjugation_exhaustively():
    for rank in (1, 2, 3):
        pin = pinning(rank)
        rd = pin.rd
        signs = pin.chevalley_signs()
        for i in range(rank):
            n = pin.simple_reflection_element(i)
            n_inv = n.inverse()
            for beta in rd.roots:
                image = rd.reflect_character(i, beta)
                for x in (Fraction(1), Fraction(2)):
                    lhs = n @ pin.root_element(beta, x) @ n_inv
                    rhs = pin.root_element(image, signs[(i, beta)] * x)
                    assert lhs == rhs, (rank, i, beta)


def test_random_element_has_determinant_one():
    pin = pinning(2)
    rng = random.Random(0)
    for _ in range(20):
        g = random_element(pin, rng)
        assert g.det() == 1


def test_random_element_is_its_product_of_elementary_matrices():
    # the column operations must rebuild the product of the same draws'
    # elementary matrices, multiplied out in full
    for rank in (1, 2, 3):
        pin = pinning(rank)
        n = pin.n
        for seed in range(5):
            got = random_element(pin, random.Random(seed))
            rng = random.Random(seed)
            want = Matrix.identity(n)
            for _ in range(10):
                i = rng.randrange(n)
                j = rng.randrange(n - 1)
                if j >= i:
                    j += 1
                x = 0
                while x == 0:
                    x = rng.randint(-3, 3)
                elem = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
                elem[i][j] = x
                want = want @ Matrix(elem)
            assert got == want


@pytest.mark.parametrize("bad", [0.5, 0.0, "1", None, 1j])
def test_row_and_column_operations_refuse_unsupported_scalars(bad):
    pin = pinning(2)
    beta = pin.rd.positive_roots[0]
    g = random_element(pin, random.Random(1))
    calls = [
        lambda: pin.root_element(beta, bad),
        lambda: pin.times_root(g, beta, bad),
        lambda: pin.unipotent_product(pin.positive_order, [Fraction(1), bad, Fraction(2)]),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="unsupported matrix entry"):
            call()


def test_signed_permutation_reads_weyl_representatives_and_refuses_others():
    pin = pinning(3)
    for i in range(3):
        n = pin.simple_reflection_element(i)
        perm = signed_permutation(n)
        for a, (b, positive) in enumerate(perm):
            assert n[a, b] == (1 if positive else -1)
    not_signed = [
        pin.root_element(pin.rd.positive_roots[0], 1),
        Matrix.diagonal([2, 1, 1, Fraction(1, 2)]),
        Matrix([[0, 1, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]]),
        Matrix([[0, 1, 0], [1, 0, 0]]),
    ]
    for m in not_signed:
        with pytest.raises(RuntimeError):
            signed_permutation(m)
