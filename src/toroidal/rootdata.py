"""Root data built from finite-type Cartan matrices.

Conventions, fixed once for the whole package:

- The cocharacter lattice N is Z^l with the simple coroots as the standard
  basis; the character lattice M is its dual, so the basis of M consists of
  the fundamental weights and the pairing M x N -> Z is the standard dot
  product.
- cartan[i][j] = <alpha_j, alpha_i_vee>, so the j-th simple root, written in
  M-coordinates, is the j-th column of the Cartan matrix.
- A word (j_1, ..., j_m) denotes the product s_{j_1} s_{j_2} ... s_{j_m},
  applied to vectors right-to-left; reflection matrices accumulate by left
  multiplication in the same order.  Simple roots are indexed from 0.
- Simple roots are int tuples, the columns of the Cartan rows, and s_i acts
  on N and on M in closed form on ``linalg._int_vector`` input (Humphreys,
  *Reflection Groups and Coxeter Groups*, 1.1), so nothing is rounded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .linalg import Matrix, _int_vector, dot

__all__ = [
    "NotFiniteType",
    "RootDatum",
    "WeylElement",
    "WeylGroup",
    "cartan_matrix_of_type",
]

WEYL_MAX = 200_000


class NotFiniteType(ValueError):
    """The Cartan matrix does not define a finite root system."""


# the smallest rank of each series; G exists at rank 2 only
_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "G": 2}


def cartan_matrix_of_type(letter: str, rank: int):
    """Standard Cartan matrix of a classical series or G.

    The letter and the rank are checked before the rank x rank matrix is
    built, so a refusal costs nothing whatever the rank.
    """
    if not isinstance(letter, str):
        raise ValueError(f"type must be a string, got {letter!r}")
    letter = letter.upper()
    if rank < 1:
        raise ValueError("rank must be positive")
    if letter not in _MIN_RANK:
        raise ValueError(f"unknown type {letter!r}")
    if letter == "G" and rank != 2:
        raise ValueError("type G needs rank 2")
    if rank < _MIN_RANK[letter]:
        raise ValueError(f"type {letter} needs rank >= {_MIN_RANK[letter]}")
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i, j, weight_ij=-1, weight_ji=-1):
        c[i][j] = weight_ij
        c[j][i] = weight_ji

    if letter == "A":
        for i in range(rank - 1):
            bond(i, i + 1)
    elif letter == "B":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 2, rank - 1, -2, -1)
    elif letter == "C":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 2, rank - 1, -1, -2)
    elif letter == "D":
        for i in range(rank - 3):
            bond(i, i + 1)
        bond(rank - 3, rank - 2)
        bond(rank - 3, rank - 1)
    else:
        bond(0, 1, -1, -3)
    return c


@dataclass(frozen=True)
class WeylElement:
    word: tuple
    n_matrix: Matrix  # action on cocharacters N
    m_matrix: Matrix  # action on characters M

    @property
    def length(self) -> int:
        return len(self.word)


class WeylGroup:
    """Exhaustively enumerated Weyl group with both lattice actions."""

    def __init__(self, elements, longest: WeylElement):
        self.elements = tuple(elements)
        self.longest = longest

    @property
    def order(self) -> int:
        return len(self.elements)


class RootDatum:
    def __init__(self, cartan_matrix):
        rows = [list(r) for r in cartan_matrix]
        l = len(rows)
        if l == 0 or any(len(r) != l for r in rows):
            raise ValueError("Cartan matrix must be square and nonempty")
        for i in range(l):
            if rows[i][i] != 2:
                raise ValueError("Cartan matrix diagonal must be 2")
            for j in range(l):
                x = rows[i][j]
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError("Cartan matrix entries must be integers")
                if i != j:
                    if x > 0:
                        raise ValueError("off-diagonal entries must be <= 0")
                    if (x == 0) != (rows[j][i] == 0):
                        raise ValueError("zero pattern must be symmetric")
        self.rank = l
        self.cartan = Matrix(rows)
        self._simple_roots = tuple(zip(*rows))
        if self.cartan.det() == 0:
            raise NotFiniteType("singular Cartan matrix")
        self._cartan_inv = self.cartan.inverse()
        self.roots = self._close_roots()
        self.positive_roots = tuple(
            b for b in self.roots if self._is_positive(b)
        )
        self.negative_roots = tuple(
            tuple(-x for x in b) for b in self.positive_roots
        )
        if set(self.roots) != set(self.positive_roots) | set(self.negative_roots):
            raise NotFiniteType("root set is not symmetric")
        self._weyl = None
        # the chamber and `catalog.chamber_cones` are fixed data of the datum,
        # built on first use; the cones keep their own memos
        self._chamber = None
        self._chamber_cones = None

    @classmethod
    def of_type(cls, letter: str, rank: int) -> "RootDatum":
        return cls(cartan_matrix_of_type(letter, rank))

    # -- basic data ---------------------------------------------------------

    def _check_index(self, i: int) -> None:
        # a negative index would silently wrap to a different simple root
        if i not in range(self.rank):
            raise ValueError(f"simple index {i} is outside range({self.rank})")

    def simple_root(self, i: int):
        """The i-th simple root in M-coordinates (column i of Cartan)."""
        self._check_index(i)
        return self._simple_roots[i]

    def simple_coroot(self, i: int):
        self._check_index(i)
        return tuple(1 if j == i else 0 for j in range(self.rank))

    @staticmethod
    def pairing(m, v) -> int:
        return dot(m, v)

    def pair_simple_root(self, i: int, v) -> int:
        """<alpha_i, v> for a cocharacter v."""
        return dot(self.simple_root(i), v)

    def in_negative_chamber(self, v) -> bool:
        return all(self.pair_simple_root(i, v) <= 0 for i in range(self.rank))

    def negative_chamber(self):
        """The cone {v : <alpha_i, v> <= 0 for all i} in N, built once per datum."""
        if self._chamber is not None:
            return self._chamber
        from .cones import Cone, generators_from_halfspaces

        normals = [tuple(-x for x in self.simple_root(i)) for i in range(self.rank)]
        rays, lineality = generators_from_halfspaces(normals, self.rank)
        if lineality:
            raise RuntimeError("chamber of a nonsingular Cartan matrix is pointed")
        self._chamber = Cone(rays, self.rank)
        return self._chamber

    # -- reflections --------------------------------------------------------

    def reflect_cocharacter(self, i: int, v):
        """s_i(v) = v - <alpha_i, v> alpha_i_vee."""
        self._check_index(i)
        v = _int_vector(v)
        k = dot(self._simple_roots[i], v)
        return v[:i] + (v[i] - k,) + v[i + 1 :]

    def reflect_character(self, i: int, m):
        """s_i(m) = m - <m, alpha_i_vee> alpha_i."""
        self._check_index(i)
        m, alpha = _int_vector(m), self._simple_roots[i]
        if len(m) != len(alpha):
            raise ValueError(f"{m} is not a character of rank {self.rank}")
        return tuple(x - m[i] * a for x, a in zip(m, alpha))

    # -- roots ---------------------------------------------------------------

    def _close_roots(self):
        l = self.rank
        bound = max(240, 2 * l * (l + 1))
        seen = {self.simple_root(i) for i in range(l)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for beta in frontier:
                for i in range(l):
                    img = self.reflect_character(i, beta)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            if len(seen) > bound:
                raise NotFiniteType(
                    f"root closure exceeded {bound} elements; not finite type"
                )
            frontier = nxt
        return tuple(sorted(seen))

    def alpha_coordinates(self, beta):
        """Coordinates of a character in the simple-root basis."""
        return tuple(self._cartan_inv @ tuple(beta))

    def _is_positive(self, beta) -> bool:
        coords = self.alpha_coordinates(beta)
        if all(c >= 0 for c in coords):
            return True
        if all(c <= 0 for c in coords):
            return False
        raise NotFiniteType(f"{beta} has mixed simple-root coordinates")

    def is_positive_root(self, beta) -> bool:
        if tuple(beta) not in set(self.roots):
            raise ValueError(f"{beta} is not a root")
        return self._is_positive(beta)

    def root_height(self, beta) -> int:
        coords = self.alpha_coordinates(beta)
        total = sum(coords)
        if total.denominator != 1:
            raise ValueError(f"{beta} is not in the root lattice")
        return int(total)

    # -- Weyl group ----------------------------------------------------------

    @property
    def weyl(self) -> WeylGroup:
        if self._weyl is None:
            self._weyl = self._build_weyl()
        return self._weyl

    def _build_weyl(self) -> WeylGroup:
        l = self.rank
        ident = WeylElement((), Matrix.identity(l), Matrix.identity(l))
        # s_i on M has the images of the unit vectors under s_i on N as rows
        m_refl = [
            Matrix([self.reflect_cocharacter(i, e) for e in ident.n_matrix.rows])
            for i in range(l)
        ]
        n_refl = [m.transpose() for m in m_refl]
        seen = {ident.n_matrix: ident}
        queue = deque([ident])
        while queue:
            w = queue.popleft()
            for i in range(l):
                n_mat = n_refl[i] @ w.n_matrix
                if n_mat in seen:
                    continue
                elt = WeylElement((i,) + w.word, n_mat, m_refl[i] @ w.m_matrix)
                seen[n_mat] = elt
                queue.append(elt)
                if len(seen) > WEYL_MAX:
                    raise ValueError("Weyl group too large to enumerate")
        elements = sorted(seen.values(), key=lambda e: (e.length, e.word))
        top_len = elements[-1].length
        longest = [e for e in elements if e.length == top_len]
        if len(longest) != 1:
            raise RuntimeError("longest element must be unique")
        return WeylGroup(elements, longest[0])

    def longest_word(self):
        return self.weyl.longest.word
