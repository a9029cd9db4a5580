"""Exact matrix realization of SL_n for type-A root data.

The root group of e_i - e_j is parametrized by x -> I + x E_ij, the simple
reflection representatives are n_i = p_i(1) p_{-i}(-1) p_i(1), and Chevalley
signs are extracted from this realization by conjugation rather than copied
from tables.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Matrix
from .rootdata import RootDatum

__all__ = [
    "NotInBigCell",
    "NotSingleRootImage",
    "Pinning",
    "random_element",
]


class NotInBigCell(ValueError):
    """A leading principal minor vanishes; no unipotent-torus factorization."""


class NotSingleRootImage(ValueError):
    """Conjugation did not land in a single root group."""


def _is_type_a(rd: RootDatum) -> bool:
    l = rd.rank
    for i in range(l):
        for j in range(l):
            want = 2 if i == j else (-1 if abs(i - j) == 1 else 0)
            if rd.cartan[i, j] != want:
                return False
    return True


class Pinning:
    """Root-group parametrizations and derived data for SL_{l+1}."""

    def __init__(self, rd: RootDatum):
        if not _is_type_a(rd):
            raise ValueError("matrix realization is available for type A only")
        self.rd = rd
        self.n = rd.rank + 1
        self._pos = {}
        for beta in rd.roots:
            coords = rd.alpha_coordinates(beta)
            support = [k for k, c in enumerate(coords) if c]
            sgn = 1 if coords[support[0]] > 0 else -1
            if any(coords[k] != sgn for k in support):
                raise ValueError(f"{beta} is not a type-A root")
            lo, hi = support[0], support[-1] + 1
            if support != list(range(lo, hi)):
                raise ValueError(f"{beta} has non-consecutive support")
            self._pos[beta] = (lo, hi) if sgn > 0 else (hi, lo)
        self._n_simple = tuple(
            self.root_element(self.rd.simple_root(i), 1)
            @ self.root_element(self._neg_simple(i), -1)
            @ self.root_element(self.rd.simple_root(i), 1)
            for i in range(rd.rank)
        )
        h = {}
        for beta in rd.positive_roots:
            h.setdefault(rd.root_height(beta), []).append(beta)
        self._pos_by_height = tuple(
            b for k in sorted(h) for b in sorted(h[k])
        )
        self.positive_order = self._pos_by_height
        self.negative_order = tuple(
            tuple(-x for x in b) for b in self._pos_by_height
        )
        self._signs = None

    def _neg_simple(self, i):
        return tuple(-x for x in self.rd.simple_root(i))

    # -- elements ------------------------------------------------------------

    def identity(self) -> Matrix:
        return Matrix.identity(self.n)

    def root_position(self, beta):
        return self._pos[tuple(beta)]

    def root_element(self, beta, x) -> Matrix:
        i, j = self.root_position(beta)
        rows = [
            [1 if r == c else 0 for c in range(self.n)] for r in range(self.n)
        ]
        rows[i][j] = x
        return Matrix(rows)

    def coordinate_at(self, g: Matrix, beta):
        i, j = self.root_position(beta)
        return g[i, j]

    def simple_reflection_element(self, i: int) -> Matrix:
        return self._n_simple[i]

    def weyl_representative(self, word) -> Matrix:
        out = self.identity()
        for i in word:
            out = out @ self._n_simple[i]
        return out

    def torus_element(self, coords) -> Matrix:
        """Diagonal torus element from fundamental-weight coordinates."""
        coords = [Fraction(c) if isinstance(c, int) else c for c in coords]
        if len(coords) != self.rd.rank:
            raise ValueError("coordinate count must equal the rank")
        if any(c == 0 for c in coords):
            raise ValueError("torus coordinates must be invertible")
        diag = []
        prev = Fraction(1)
        for c in coords:
            diag.append(c / prev)
            prev = c
        diag.append(1 / prev)
        return Matrix.diagonal(diag)

    def torus_coordinates_of(self, g: Matrix):
        """Fundamental-weight coordinates of a diagonal determinant-1 matrix."""
        n = self.n
        for i in range(n):
            for j in range(n):
                if i != j and g[i, j] != 0:
                    raise ValueError("matrix is not diagonal")
        coords = []
        acc = Fraction(1)
        for i in range(self.rd.rank):
            acc = acc * g[i, i]
            coords.append(acc)
        if acc * g[n - 1, n - 1] != 1:
            raise ValueError("determinant is not 1")
        return tuple(coords)

    # -- factorization -------------------------------------------------------

    def ldu(self, g: Matrix):
        """Exact (lower-unitriangular, diagonal, upper-unitriangular) split."""
        n = self.n
        if g.nrows != n or g.ncols != n:
            raise ValueError("size mismatch")
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

    def unipotent_product(self, order, coords) -> Matrix:
        out = self.identity()
        for beta, c in zip(order, coords):
            if c != 0:
                out = out @ self.root_element(beta, c)
        return out

    # -- signs ----------------------------------------------------------------

    def chevalley_signs(self):
        """Map (simple index, root) -> sign of the conjugated coordinate."""
        if self._signs is None:
            table = {}
            for i in range(self.rd.rank):
                n_i = self._n_simple[i]
                n_i_inv = n_i.inverse()
                for beta in self.rd.roots:
                    image = self.rd.reflect_character(i, beta)
                    probes = []
                    for x in (Fraction(1), Fraction(2)):
                        conj = n_i @ self.root_element(beta, x) @ n_i_inv
                        c = self.coordinate_at(conj, image)
                        if conj != self.root_element(image, c):
                            raise NotSingleRootImage(
                                f"conjugation of {beta} by n_{i} left the root group"
                            )
                        probes.append(c)
                    if probes[1] != 2 * probes[0] or probes[0] not in (1, -1):
                        raise NotSingleRootImage(
                            f"conjugation of {beta} is not linear in the coordinate"
                        )
                    table[(i, tuple(beta))] = int(probes[0])
            self._signs = table
        return self._signs


def random_element(pinning: Pinning, rng) -> Matrix:
    """Seeded product of 10 elementary matrices with entries in [-3, 3]."""
    n = pinning.n
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(10):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        x = 0
        while x == 0:
            x = rng.randint(-3, 3)
        for r in rows:  # times I + x E_ij: column j gains x times column i
            r[j] += x * r[i]
    return Matrix(rows)
