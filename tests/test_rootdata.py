import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toroidal.rootdata import NotFiniteType, RootDatum, cartan_matrix_of_type


def test_root_counts_by_type():
    # number of roots: A_l l(l+1), B_l/C_l 2l^2, D_l 2l(l-1), G_2 12
    assert len(RootDatum.of_type("A", 1).roots) == 2
    assert len(RootDatum.of_type("A", 2).roots) == 6
    assert len(RootDatum.of_type("A", 3).roots) == 12
    assert len(RootDatum.of_type("B", 2).roots) == 8
    assert len(RootDatum.of_type("C", 3).roots) == 18
    assert len(RootDatum.of_type("D", 4).roots) == 24
    assert len(RootDatum.of_type("G", 2).roots) == 12


def test_g2_from_raw_cartan_matrix():
    rd = RootDatum([[2, -1], [-3, 2]])
    assert len(rd.roots) == 12
    assert rd.weyl.order == 12


def test_infinite_and_invalid_types_rejected():
    with pytest.raises(NotFiniteType):
        RootDatum([[2, -2], [-2, 2]])  # affine A_1, singular
    with pytest.raises(NotFiniteType):
        RootDatum([[2, -1], [-5, 2]])  # hyperbolic, root closure explodes
    with pytest.raises(ValueError):
        RootDatum([[2, 1], [1, 2]])
    with pytest.raises(ValueError):
        RootDatum([[2, -1], [0, 2]])
    with pytest.raises(ValueError):
        RootDatum([[1, 0], [0, 1]])


def test_weyl_orders():
    assert RootDatum.of_type("A", 2).weyl.order == 6
    assert RootDatum.of_type("A", 3).weyl.order == 24
    assert RootDatum.of_type("B", 2).weyl.order == 8
    assert RootDatum.of_type("G", 2).weyl.order == 12


def test_longest_element():
    rd = RootDatum.of_type("A", 2)
    w0 = rd.weyl.longest
    assert w0.length == 3
    assert len(rd.longest_word()) == 3
    # w0 maps every positive root to a negative one
    pos = set(rd.positive_roots)
    for beta in pos:
        image = tuple(int(x) for x in w0.m_matrix @ beta)
        assert tuple(-x for x in image) in pos


def test_simple_reflection_on_cocharacters():
    rd = RootDatum.of_type("A", 2)
    # s_0 fixes the second coroot direction up to the Cartan pairing
    assert rd.reflect_cocharacter(0, (1, 0)) == (-1, 0)
    assert rd.reflect_cocharacter(0, (0, 1)) == (1, 1)
    assert rd.reflect_cocharacter(0, rd.reflect_cocharacter(0, (2, -5))) == (2, -5)


def test_contragredience():
    rd = RootDatum.of_type("A", 2)
    for i in range(2):
        for m in [(1, 0), (0, 1), (2, -3)]:
            for v in [(1, 0), (0, 1), (-1, 4)]:
                lhs = RootDatum.pairing(m, rd.reflect_cocharacter(i, v))
                rhs = RootDatum.pairing(rd.reflect_character(i, m), v)
                assert lhs == rhs


def test_alpha_coordinates_and_heights():
    rd = RootDatum.of_type("A", 2)
    a0, a1 = rd.simple_root(0), rd.simple_root(1)
    high = tuple(x + y for x, y in zip(a0, a1))
    assert rd.alpha_coordinates(high) == (1, 1)
    assert rd.root_height(high) == 2
    assert rd.root_height(tuple(-x for x in high)) == -2
    assert rd.is_positive_root(high)
    assert not rd.is_positive_root(tuple(-x for x in a0))


def test_negative_chamber():
    rd = RootDatum.of_type("A", 2)
    chamber = rd.negative_chamber()
    assert chamber.rays == ((-2, -1), (-1, -2))
    assert rd.in_negative_chamber((-1, -1))
    assert not rd.in_negative_chamber((1, 0))


def test_weyl_elements_act_consistently():
    rd = RootDatum.of_type("A", 2)
    for w in rd.weyl.elements:
        # m_matrix is the transpose-inverse partner: pairings are preserved
        for m in [(1, 0), (0, 1)]:
            for v in [(1, 0), (0, 1)]:
                lhs = RootDatum.pairing(tuple(w.m_matrix @ m), tuple(w.n_matrix @ v))
                assert lhs == RootDatum.pairing(m, v)


def test_word_convention_left_to_right():
    rd = RootDatum.of_type("A", 2)
    # n_matrix is the product of the letters' reflections, leftmost first:
    # applied to a cocharacter, the rightmost letter acts first
    for w in rd.weyl.elements:
        for v in [(1, 0), (0, 1)]:
            acc = v
            for j in reversed(w.word):
                acc = rd.reflect_cocharacter(j, acc)
            assert acc == tuple(w.n_matrix @ v)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["A", "B", "C"]),
    st.integers(min_value=2, max_value=3),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=3),
)
def test_reflections_are_involutions(letter, rank, vec):
    rd = RootDatum.of_type(letter, rank)
    v = tuple(vec[:rank]) + (0,) * (rank - len(vec))
    for i in range(rank):
        assert rd.reflect_cocharacter(i, rd.reflect_cocharacter(i, v)) == v


def test_simple_index_outside_the_rank_is_refused():
    # a negative index used to wrap to the last simple root, but the coroot
    # came out zero, so reflect_simple mixed two indices without an error
    rd = RootDatum.of_type("A", 2)
    for i in (-1, -2, 2, 5):
        for call in (
            lambda: rd.simple_root(i),
            lambda: rd.simple_coroot(i),
            lambda: rd.reflect_character(i, (1, 0)),
            # reflect_cocharacter had no check: -1 meant 1, and 2 raised IndexError
            lambda: rd.reflect_cocharacter(i, (1, 0)),
        ):
            with pytest.raises(ValueError, match=f"simple index {i} .*range\\(2\\)"):
                call()
    assert rd.simple_coroot(1) == (0, 1)


def test_cartan_matrix_of_type_refusals():
    for letter in (None, 1, ["A"]):
        with pytest.raises(ValueError, match="type must be a string"):
            cartan_matrix_of_type(letter, 2)
    with pytest.raises(ValueError, match="unknown type 'E'"):
        cartan_matrix_of_type("e", 6)
    with pytest.raises(ValueError, match="rank must be positive"):
        cartan_matrix_of_type("A", 0)
    for letter, rank, message in (
        ("B", 1, "rank >= 2"),
        ("C", 1, "rank >= 2"),
        ("D", 2, "rank >= 3"),
        ("G", 3, "rank 2"),
    ):
        with pytest.raises(ValueError, match=f"type {letter} needs {message}"):
            cartan_matrix_of_type(letter, rank)


def test_library_root_data_above_the_fan_dimension_stay_valid():
    # only the CLI refuses a rank no fan can match
    rd = RootDatum.of_type("A", 5)
    assert rd.rank == 5 and len(rd.roots) == 30
    assert cartan_matrix_of_type("d", 5)[2][3:] == [-1, -1]


TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4), ("D", 4), ("G", 2),
]


@pytest.mark.parametrize("letter, rank", TYPES)
def test_closed_form_reflections_match_the_reflection_matrices(letter, rank, n_reflection_matrix):
    rd = RootDatum.of_type(letter, rank)
    rng = random.Random(rank * 31 + ord(letter))
    vectors = [tuple(rng.randint(-9, 9) for _ in range(rank)) for _ in range(20)]
    for i in range(rank):
        n_refl = n_reflection_matrix(rd, i)
        m_refl = n_refl.transpose()
        for beta in rd.roots + tuple(vectors):
            image = rd.reflect_character(i, beta)
            assert image == m_refl @ beta and all(type(x) is int for x in image)
        for v in vectors:
            image = rd.reflect_cocharacter(i, v)
            assert image == n_refl @ v and all(type(x) is int for x in image)


@pytest.mark.parametrize("letter, rank", TYPES)
def test_weyl_group_matches_the_reflection_matrix_enumeration(
    letter, rank, weyl_by_reflection_matrices
):
    rd = RootDatum.of_type(letter, rank)
    oracle = weyl_by_reflection_matrices(rd)
    assert rd.weyl.elements == oracle.elements
    assert rd.weyl.longest == oracle.longest
    # every root is W-conjugate to a simple root
    simple = [rd.simple_root(i) for i in range(rank)]
    orbit = {tuple(w.m_matrix @ a) for w in oracle.elements for a in simple}
    assert orbit == set(rd.roots)


def test_reflections_refuse_a_non_integer_coordinate():
    # (1/2, 0) used to be truncated to (0, 0): reflect_character returned (0, 0)
    rd = RootDatum.of_type("A", 2)
    for reflect in (rd.reflect_cocharacter, rd.reflect_character):
        for v in ((Fraction(1, 2), 0), (True, 0), (1.0, 0)):
            with pytest.raises(ValueError, match="non-integer coordinate"):
                reflect(0, v)


def test_reflections_accept_integral_fractions_and_return_ints():
    rd = RootDatum.of_type("A", 2)
    for reflect in (rd.reflect_cocharacter, rd.reflect_character):
        image = reflect(0, (Fraction(2), Fraction(-1)))
        assert image == reflect(0, (2, -1))
        assert all(type(x) is int for x in image)


def test_reflections_refuse_a_vector_of_the_wrong_length():
    rd = RootDatum.of_type("A", 2)
    for reflect in (rd.reflect_cocharacter, rd.reflect_character):
        for v in ((1,), (1, 0, 0)):
            with pytest.raises(ValueError):
                reflect(1, v)
