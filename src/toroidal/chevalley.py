"""Exact matrix realization of SL_n for type-A root data.

The root group of e_i - e_j is parametrized by x -> I + x E_ij, the simple
reflection representatives are n_i = p_i(1) p_{-i}(-1) p_i(1), and Chevalley
signs are extracted from this realization by conjugation rather than copied
from tables.

The factors the big-cell calculus multiplies by have fixed shapes, and each
is applied without a dense product:

- a root element: ``g @ x_beta(c)`` is one column operation
  (``times_root``) and ``x_beta(c) @ g`` one row operation (``_add_row``,
  which the big-cell sweep applies to rows in place);
  ``unipotent_product`` is a sequence of column operations;
- a Weyl representative n is a signed permutation (Steinberg, *Lectures on
  Chevalley Groups*, 1967, section 3), read once off its matrix by
  ``signed_permutation``, so ``n g n^{-1}`` permutes and signs the entries
  of g (``conjugate_signed``);
- a diagonal factor D from ``ldu``: ``D g D^{-1}`` scales entry (a, b) by
  d_a / d_b (``conjugate_diagonal``), and ``diagonal_coordinates`` reads
  torus coordinates off the entrywise product of one or more diagonals.

These operations compute on numerators and denominators: ``_plus_times``
(behind the row and column operations), ``conjugate_diagonal``, the row
scaling of ``split_inverse`` and the running products of
``diagonal_coordinates`` build one entry per output with
``linalg._rational``, a Fraction from ints over Q and a RatFun from the
integer polynomials of ``ratfun._Poly`` over Q(eps), in one body for both
fields.  ``Pinning.ldu`` clears each row of denominators, over Z or
Z[eps], and splits the rows by ``linalg._bareiss``; it refuses a vanishing
first pivot before clearing any.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import (
    _SMALL,
    Matrix,
    _bareiss,
    _coerce_entry,
    _rational,
    _share,
    unitriangular_inverse,
)
from .ratfun import _cleared
from .rootdata import RootDatum

__all__ = [
    "NotInBigCell",
    "NotSingleRootImage",
    "Pinning",
    "conjugate_diagonal",
    "conjugate_signed",
    "random_element",
    "signed_permutation",
    "split_inverse",
]


class NotInBigCell(ValueError):
    """A leading principal minor vanishes; no unipotent-torus factorization."""


class NotSingleRootImage(ValueError):
    """Conjugation did not land in a single root group."""


def _plus_times(a, b, c):
    """a + b * c from numerators and denominators, with no arithmetic on a zero term."""
    if not b:
        return a
    n, d = b.numerator * c.numerator, b.denominator * c.denominator
    if a:
        ad = a.denominator
        n, d = a.numerator * d + n * ad, d * ad
    return _rational(n, d)


def signed_permutation(m: Matrix):
    """Per row of m, the (column, sign) of its one nonzero entry.

    m must be a signed permutation matrix: one entry +-1 in every row and
    every column, zeros elsewhere.  Anything else is a broken realization
    and raises RuntimeError.
    """
    out = []
    for a, row in enumerate(m.rows):
        nonzero = [(b, x) for b, x in enumerate(row) if x]
        if len(nonzero) != 1 or nonzero[0][1] not in (1, -1):
            raise RuntimeError(f"row {a} of {m!r} is not a signed unit vector")
        out.append((nonzero[0][0], nonzero[0][1] == 1))
    if m.ncols != m.nrows or sorted(b for b, _ in out) != list(range(m.ncols)):
        raise RuntimeError(f"{m!r} is not a signed permutation matrix")
    return tuple(out)


def _signed_rows(perm, rows):
    """The rows of n g n^{-1} for the signed permutation n and the rows of g.

    n has entry s_a at (a, pi(a)) and n^{-1} is its transpose, so entry
    (a, b) of the conjugate is s_a s_b g[pi(a), pi(b)].
    """
    out = []
    for pa, sa in perm:
        row = rows[pa]
        out.append(
            tuple(
                row[pb] if sa == sb or not row[pb] else _share(-row[pb])
                for pb, sb in perm
            )
        )
    return out


def _add_column(rows, src, dst, c):
    """In a list of row tuples, column dst gains c times column src.

    c must be nonzero; rows whose src entry is zero are left as they are.
    """
    for k, row in enumerate(rows):
        if row[src]:
            row = list(row)
            row[dst] = _plus_times(row[dst], row[src], c)
            rows[k] = tuple(row)


def _add_row(rows, dst, src, c):
    """In a list of row tuples, row dst gains c times row src; c nonzero."""
    rows[dst] = tuple(_plus_times(a, b, c) for a, b in zip(rows[dst], rows[src]))


def conjugate_signed(perm, g: Matrix) -> Matrix:
    """n g n^{-1} for the signed permutation n read by signed_permutation."""
    if g.nrows != len(perm) or g.ncols != len(perm):
        raise ValueError("shape mismatch in Weyl conjugation")
    return Matrix._of(tuple(_signed_rows(perm, g.rows)))


def conjugate_diagonal(d, d_inv, g: Matrix) -> Matrix:
    """D g D^{-1} for D = diag(d), given d_inv, the reciprocals of d.

    Entry (a, b) is scaled by d[a] / d[b], so the diagonal is unchanged.
    D^{-1} g D is conjugate_diagonal(d_inv, d, g).
    """
    n = len(d)
    if g.nrows != n or g.ncols != n or len(d_inv) != n:
        raise ValueError("shape mismatch in diagonal conjugation")
    # x d[a] d_inv[b] as one entry from the numerators and denominators
    return Matrix._of(
        tuple(
            tuple(
                _rational(
                    x.numerator * da.numerator * d_inv[b].numerator,
                    x.denominator * da.denominator * d_inv[b].denominator,
                )
                if x and a != b else x
                for b, x in enumerate(row)
            )
            for a, (row, da) in enumerate(zip(g.rows, d))
        )
    )


def _ldu_rational(rows):
    """The ldu split of a square matrix, on Python ints or on Z[eps].

    Row i is cleared of denominators by the lcm s_i of its denominators, an
    int or, if the row holds a RatFun, an integer polynomial, and eliminated
    by ``linalg._bareiss``.  While step k pivots at (k, k) no row was
    swapped, so the pivot p_k is the (k+1)-th leading principal minor; the
    first step that does not, or is missing, names a vanishing one, and the
    elimination stops there.  Each output entry is then one
    ``linalg._rational``: L[i][k] = a_ik s_k / (p_k s_i), D_k = p_k /
    (p_{k-1} s_k) and U[k][j] = a_kj / p_k, with a the entries left by the
    elimination.
    """
    n = len(rows)
    if n and not rows[0][0]:
        raise NotInBigCell("leading principal minor 1 vanishes")
    cleared = [_cleared(row) for row in rows]
    a = [ints for ints, _ in cleared]
    scale = [s for _, s in cleared]
    k = 0
    for step in _bareiss(a):
        if step != (k, k):
            break
        k += 1
    if k < n:
        raise NotInBigCell(f"leading principal minor {k + 1} vanishes")
    zero, one = _SMALL[64], _SMALL[65]
    lower, diag, upper = [], [], []
    prev = 1
    for k in range(n):
        p, s = a[k][k], scale[k]
        lower.append(
            tuple(
                _rational(a[k][j] * scale[j], a[j][j] * s) if j < k and a[k][j]
                else one if j == k else zero
                for j in range(n)
            )
        )
        diag.append(
            tuple(
                _rational(p, prev * s) if j == k else zero for j in range(n)
            )
        )
        upper.append(
            tuple(
                _rational(a[k][j], p) if j > k and a[k][j]
                else one if j == k else zero
                for j in range(n)
            )
        )
        prev = p
    return Matrix._of(tuple(lower)), Matrix._of(tuple(diag)), Matrix._of(tuple(upper))


def split_inverse(lower: Matrix, diag: Matrix, upper: Matrix) -> Matrix:
    """(L D U)^{-1} = U^{-1} D^{-1} L^{-1}, from the factors of ``Pinning.ldu``.

    The unitriangular factors are inverted by substitution and D^{-1} scales
    the rows of L^{-1}, so the one general product is the last.
    """
    rows = unitriangular_inverse(lower, lower=True).rows
    pivots = [diag.rows[k][k] for k in range(diag.nrows)]
    scaled = tuple(
        tuple(
            _rational(x.numerator * dk.denominator, x.denominator * dk.numerator) if x else x
            for x in row
        )
        for row, dk in zip(rows, pivots)
    )
    return unitriangular_inverse(upper, lower=False) @ Matrix._of(scaled)


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
        # one shared identity, which unipotent_product below starts from
        self._identity = Matrix.identity(self.n)
        self._n_simple = tuple(
            self.unipotent_product(
                (rd.simple_root(i), self._neg_simple(i), rd.simple_root(i)), (1, -1, 1)
            )
            for i in range(rd.rank)
        )
        self._n_signed = tuple(map(signed_permutation, self._n_simple))
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
        return self._identity

    def root_position(self, beta):
        return self._pos[tuple(beta)]

    def root_element(self, beta, x) -> Matrix:
        i, j = self.root_position(beta)
        rows = [
            [1 if r == c else 0 for c in range(self.n)] for r in range(self.n)
        ]
        rows[i][j] = x
        return Matrix(rows)

    def times_root(self, g: Matrix, beta, c) -> Matrix:
        """g @ x_beta(c): column j of g gains c times column i, (i, j) = position."""
        c = _coerce_entry(c)
        if g.nrows != self.n or g.ncols != self.n:
            raise ValueError("shape mismatch in matrix product")
        if not c:
            return g
        i, j = self._pos[tuple(beta)]
        rows = list(g.rows)
        _add_column(rows, i, j, c)
        return Matrix._of(tuple(rows))

    def conjugate_simple(self, i: int, g: Matrix) -> Matrix:
        """n_i g n_i^{-1}, by the signed permutation of n_i."""
        return conjugate_signed(self._n_signed[i], g)

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
        return self.diagonal_coordinates([g[i, i] for i in range(n)])

    def diagonal_coordinates(self, *diags):
        """Fundamental-weight coordinates of the product of the diag(d), of determinant 1.

        Coordinate k is the product of the first k + 1 diagonal entries of
        every d, formed on numerators and denominators from coordinate
        k - 1, with one ``_rational`` per coordinate and one for the
        determinant.
        """
        rank = self.rd.rank
        coords = []
        n = d = 1
        for i in range(rank + 1):
            for diag in diags:
                x = diag[i]
                n, d = n * x.numerator, d * x.denominator
            acc = _rational(n, d)
            if i < rank:
                coords.append(acc)
                n, d = acc.numerator, acc.denominator
        if acc != 1:
            raise ValueError("determinant is not 1")
        return tuple(coords)

    # -- factorization -------------------------------------------------------

    def ldu(self, g: Matrix):
        """Exact (lower-unitriangular, diagonal, upper-unitriangular) split.

        Pivot-free, so it is also the big-cell membership test: the k-th
        pivot vanishes exactly when the k-th leading principal minor does,
        and then NotInBigCell is raised.  One fraction-free elimination
        (``_ldu_rational``) serves both fields: on Python ints over Q and on
        integer polynomials over Q(eps), with one exact division per entry
        and step.
        """
        if g.nrows != self.n or g.ncols != self.n:
            raise ValueError("size mismatch")
        return _ldu_rational(g.rows)

    def unipotent_product(self, order, coords) -> Matrix:
        """x_{b_1}(c_1) ... x_{b_m}(c_m), one column operation per factor."""
        out = self._identity
        for beta, c in zip(order, coords):
            out = self.times_root(out, beta, c)
        return out

    # -- signs ----------------------------------------------------------------

    def chevalley_signs(self):
        """Map (simple index, root) -> sign of the conjugated coordinate."""
        if self._signs is None:
            table = {}
            for i in range(self.rd.rank):
                for beta in self.rd.roots:
                    image = self.rd.reflect_character(i, beta)
                    probes = []
                    for x in (Fraction(1), Fraction(2)):
                        conj = self.conjugate_simple(i, self.root_element(beta, x))
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
