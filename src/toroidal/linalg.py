"""Exact linear algebra over the rationals and over the integers.

Matrices are immutable tuples of tuples.  Entries may be ``Fraction`` or
``RatFun``; integer input is coerced to ``Fraction``.  Everything is exact:
elimination never pivots for numerical stability, only for non-vanishing.

The package has two eliminations, ``_bareiss`` and ``_smith``.
``_bareiss``, fraction-free on Python ints and on the integer polynomials
of Z[eps], with rows cleared of denominators first, gives the integer rank
(``_int_rank``, behind ``integer_rank`` and the rank tests of ``cones``),
``Matrix.det``, ``Matrix.inverse`` over Q and over Q(eps), the big-cell
split of ``chevalley.Pinning.ldu`` and the lattice reduction of ``cones``.
``_smith``, the Smith reduction on int rows, uses unimodular operations
only, so it keeps the lattice, and it returns U^-1 beside U, D and V, all
as int rows.  ``cones`` and ``charts`` call it and ``_int_kernel`` on int
rows; ``smith_normal_form`` and ``integer_kernel`` wrap them for
``Matrix`` input.

``_int_vector`` decides, for the whole package, what an integer vector is:
ints and Fractions of denominator 1 become a tuple of ints, and anything else
(a bool, a float, a proper fraction) is refused, never rounded.

``unitriangular_product`` and ``unitriangular_inverse`` compute only the
triangle of a unitriangular result that can be nonzero.

``@``, ``unitriangular_product`` and ``unitriangular_inverse`` form each
entry on numerators and denominators (``_dot_q``): the sum keeps one
numerator and one denominator, and ``_rational`` builds the entry once
(Knuth, TAOCP vol. 2, 4.5.1).  Over Q these are ints and the entry is one
normalized Fraction, the shared one for an integer in -64..64; a ``RatFun``
operand brings integer polynomials (``ratfun._Poly``), and the entry is
one canonical RatFun.  One body serves both fields.

``_rational`` takes one gcd per Fraction: it builds the result with
``object.__new__`` and sets the ``_numerator`` and ``_denominator`` slots,
which ``fractions.Fraction`` has on every supported Python (3.10-3.13), so
no constructor reduces the pair a second time.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from operator import mul

from .ratfun import RatFun, _cleared, _reduced

__all__ = [
    "Matrix",
    "dot",
    "primitive_vector",
    "smith_normal_form",
    "integer_kernel",
    "integer_rank",
    "integer_inverse",
    "unitriangular_inverse",
    "unitriangular_product",
]


# One Fraction per small integer value.  Unitriangular, Weyl-group and random
# elementary matrices are mostly 0 and +-1, so a program that keeps many of
# them would otherwise hold a fresh Fraction for each such entry.
_SMALL = tuple(Fraction(k) for k in range(-64, 65))

_new = object.__new__


def _share(x):
    """x, or the shared Fraction of the same value if it is a small integer."""
    if type(x) is Fraction and x.denominator == 1 and -64 <= x.numerator <= 64:
        return _SMALL[x.numerator + 64]
    return x


def _rational(n, d):
    """The entry n / d, d != 0, for two ints or two integer polynomials.

    The one constructor of the kernels that compute on numerators and
    denominators: each builds one entry per output.  For ints it is a
    normalized Fraction, shared if an integer in -64..64; for ``_Poly``s the
    canonical RatFun, which stores plain tuples.

    For ints it takes one gcd and sets the two slots of the result itself,
    as ``Fraction._from_coprime_ints`` does on Python 3.12+: the constructor
    would take the same gcd again.
    """
    if type(n) is not int:
        return _reduced(tuple(n), tuple(d))
    if d != 1:
        if d < 0:
            n, d = -n, -d
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
    if d == 1 and -64 <= n <= 64:
        return _SMALL[n + 64]
    f = _new(Fraction)
    f._numerator, f._denominator = n, d
    return f


def _coerce_entry(x):
    if isinstance(x, (Fraction, RatFun)):
        return _share(x)
    if isinstance(x, int):
        return _SMALL[x + 64] if -64 <= x <= 64 else Fraction(x)
    raise TypeError(f"unsupported matrix entry {x!r}")


def dot(u, v):
    """The pairing sum of u_i v_i; int vectors pair to an int."""
    if len(u) != len(v):
        raise ValueError("dot of vectors with different lengths")
    return sum(map(mul, u, v))


def _dot_q(u, v, sign=1):
    """sign * sum u_k v_k, built as one entry by ``_rational``.

    Zero terms are skipped, and the sum keeps its denominator while the
    terms share it, so integer and equal-denominator sums never grow one.
    """
    n, d = 0, 1
    for a, b in zip(u, v):
        an = a.numerator
        if an:
            bn = b.numerator
            if bn:
                e = a.denominator * b.denominator
                if e == d:
                    n += an * bn
                else:
                    n, d = n * e + an * bn * d, d * e
    return _rational(sign * n, d)


def _int_vector(v):
    """v as a tuple of ints, or ValueError if a coordinate is not an int
    (a bool is not) or a Fraction with denominator 1."""
    out = []
    for x in v:
        if type(x) is int:
            out.append(x)
        elif isinstance(x, (int, Fraction)) and not isinstance(x, bool) and x.denominator == 1:
            out.append(x.numerator)
        else:
            raise ValueError(f"non-integer coordinate in {v}")
    return tuple(out)


def primitive_vector(v):
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    ints = _int_vector(v)
    g = gcd(*ints)
    if g <= 1:
        return ints
    return tuple(x // g for x in ints)


class Matrix:
    """Immutable exact matrix supporting @, det (of rational entries) and inverse."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(_coerce_entry(x) for x in r) for r in rows)
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged rows")

    @classmethod
    def _of(cls, rows) -> "Matrix":
        # rows: a tuple of equal-length tuples of already coerced entries
        m = object.__new__(cls)
        m.rows = rows
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(tuple(tuple(_SMALL[64 + (i == j)] for j in range(n)) for i in range(n)))

    @classmethod
    def diagonal(cls, entries) -> "Matrix":
        es = list(entries)
        n = len(es)
        return cls([[es[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix[{body}]"

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in matrix product")
            ot = tuple(zip(*other.rows))
            return Matrix._of(tuple(tuple(_dot_q(r, c) for c in ot) for r in self.rows))
        if isinstance(other, (tuple, list)):
            if self.ncols != len(other):
                raise ValueError("shape mismatch in matrix-vector product")
            return tuple(dot(r, other) for r in self.rows)
        return NotImplemented

    def __rmatmul__(self, other):
        # row vector times matrix
        if isinstance(other, (tuple, list)):
            if self.nrows != len(other):
                raise ValueError("shape mismatch in vector-matrix product")
            return tuple(dot(other, self.col(j)) for j in range(self.ncols))
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch in matrix sum")
        return Matrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch in matrix difference")
        return Matrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __neg__(self):
        return Matrix([[-x for x in r] for r in self.rows])

    def transpose(self) -> "Matrix":
        return Matrix._of(tuple(zip(*self.rows)))

    def map(self, f) -> "Matrix":
        return Matrix([[f(x) for x in r] for r in self.rows])

    def is_integer(self) -> bool:
        return all(
            isinstance(x, Fraction) and x.denominator == 1 for r in self.rows for x in r
        )

    def det(self) -> Fraction:
        """+-(last ``_bareiss`` pivot of the rows cleared by s_i) / prod s_i."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if not all(isinstance(x, Fraction) for r in self.rows for x in r):
            raise TypeError("determinant of a matrix with non-rational entries")
        cleared = [_cleared(r) for r in self.rows]
        a = [ints for ints, _ in cleared]
        steps = list(_bareiss(a))
        if len(steps) < self.nrows:
            return Fraction(0)
        swaps = sum(row != k for k, (row, _) in enumerate(steps))
        last = a[-1][-1] if a else 1
        return Fraction(-last if swaps % 2 else last, prod(s for _, s in cleared))

    def inverse(self) -> "Matrix":
        """A^-1 from ``_bareiss`` on [s_i a_i | s_i e_i], row i cleared by s_i.

        The system solves to (SA)^-1 S = A^-1, and p A^-1 is integral for the
        last pivot p, so the back substitution x_kj = (p b_kj - sum_{m>k}
        u_km x_mj) // u_kk is exact (Nakos, Turner and Williams, SIGSAM Bull.
        31, 1997) and each entry is one ``_rational(x_kj, p)``.  A row holding
        a RatFun makes every later pivot, the last among them, a ``_Poly``.
        Row k is read from its pivot column on: left of it are stale entries.
        """
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        a = []
        for i, r in enumerate(self.rows):
            ints, s = _cleared(r)
            a.append(ints + [s if j == i else 0 for j in range(n)])
        # [SA | S] has rank n, so A is singular iff a pivot leaves column k
        for k, (_, col) in enumerate(_bareiss(a)):
            if col != k:
                raise ZeroDivisionError("matrix is singular")
        p = a[-1][n - 1] if n else 1
        x = [None] * n
        for k in range(n - 1, -1, -1):
            row = a[k]
            x[k] = [
                (p * row[n + j] - sum(row[m] * x[m][j] for m in range(k + 1, n)))
                // row[k]
                for j in range(n)
            ]
        return Matrix._of(tuple(tuple(_rational(v, p) for v in xs) for xs in x))


def unitriangular_product(a: Matrix, b: Matrix, lower: bool) -> Matrix:
    """a @ b for two lower (``lower``) or two upper unitriangular matrices.

    The product is unitriangular of the same kind, so only the entries
    below (above) the diagonal are computed, each over the terms k between
    its row and column, the only ones where a[i][k] and b[k][j] can both be
    nonzero, by the same ``_dot_q`` as in ``a @ b``; the diagonal 1s are
    written, not recomputed.
    """
    n = a.nrows
    if a.ncols != n or b.nrows != n or b.ncols != n:
        raise ValueError("shape mismatch in matrix product")
    zero, one = _SMALL[64], _SMALL[65]
    cols = tuple(zip(*b.rows))
    if lower:
        rows = (
            tuple(_dot_q(r[j:i + 1], cols[j][j:i + 1]) for j in range(i))
            + (one,) + (zero,) * (n - 1 - i)
            for i, r in enumerate(a.rows)
        )
    else:
        rows = (
            (zero,) * i + (one,)
            + tuple(_dot_q(r[i:j + 1], cols[j][i:j + 1]) for j in range(i + 1, n))
            for i, r in enumerate(a.rows)
        )
    return Matrix._of(tuple(rows))


def unitriangular_inverse(m: Matrix, lower: bool) -> Matrix:
    """Inverse of a lower (``lower``) or upper unitriangular matrix.

    Forward substitution: row i of the inverse X of a lower L has
    X[i][j] = -sum_{j <= k < i} L[i][k] X[k][j] left of its diagonal 1, one
    ``_dot_q`` with sign -1.  An upper matrix is inverted through its
    transpose.
    """
    n = m.nrows
    if m.ncols != n:
        raise ValueError("inverse of a non-square matrix")
    src = m.rows if lower else tuple(zip(*m.rows))
    zero, one = _SMALL[64], _SMALL[65]
    out = []
    for i, r in enumerate(src):
        out.append(
            tuple(_dot_q(r[j:i], [out[k][j] for k in range(j, i)], -1) for j in range(i))
            + (one,)
            + (zero,) * (n - 1 - i)
        )
    return Matrix._of(tuple(out) if lower else tuple(zip(*out)))


def _int_rows(m: Matrix):
    if not m.is_integer():
        raise ValueError("integer matrix required")
    return [[int(x) for x in r] for r in m.rows]


def _smith(rows):
    """(U, D, V, U^-1) of the Smith reduction of a list of int rows A.

    U and V are unimodular with U @ A @ V == D diagonal; the diagonal
    entries are nonnegative and each divides the next.  All four come back
    as tuples of int rows.  Each row operation on U is mirrored on U^-1 as
    the inverse column operation: a row swap swaps the same two columns,
    row_dst += c row_src makes col_src -= c col_dst, and a negated row
    negates its column (Cohen, *A Course in Computational Algebraic Number
    Theory*, 2.4.4).
    """
    a = [list(r) for r in rows]
    nr = len(a)
    nc = len(a[0]) if a else 0
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    u_inv = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for row in u_inv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row_dst += c * row_src, mirrored in U and, inverted, in U^-1
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]
        for row in u_inv:
            row[src] -= c * row[dst]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for row in u_inv:
            row[i] = -row[i]

    for t in range(min(nr, nc)):
        while True:
            # locate the entry of smallest nonzero magnitude in the block
            best = None
            for i in range(t, nr):
                for j in range(t, nc):
                    x = abs(a[i][j])
                    if x and (best is None or x < best[0]):
                        best = (x, i, j)
            if best is None:
                break
            _, bi, bj = best
            if bi != t:
                swap_rows(t, bi)
            if bj != t:
                swap_cols(t, bj)
            p = a[t][t]
            clean = True
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // p
                    add_row(t, i, -q)
                    if a[i][t]:
                        clean = False
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // p
                    add_col(t, j, -q)
                    if a[t][j]:
                        clean = False
            if not clean:
                continue
            # enforce that the pivot divides the remaining block
            bad = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(bad, t, 1)
        if t < nr and t < nc and a[t][t] < 0:
            negate_row(t)

    d = [[a[i][j] if i == j else 0 for j in range(nc)] for i in range(nr)]
    # off-diagonal entries must have been cleared
    if d != a:
        raise RuntimeError("Smith reduction failed to diagonalize")
    return tuple(tuple(map(tuple, m)) for m in (u, a, v, u_inv))


def smith_normal_form(m: Matrix):
    """Return unimodular (U, D, V) with U @ m @ V == D diagonal.

    Diagonal entries are nonnegative and each divides the next.
    """
    u, d, v, _ = _smith(_int_rows(m))
    return Matrix(u), Matrix(d), Matrix(v)


def _bareiss(a):
    """Fraction-free elimination, in place, on a list of equal-length int rows.

    Column by column, the first row at or below the next pivot row with a
    nonzero entry is swapped up, and each later row r becomes
    (p * r - r[col] * pivot row) // prev right of the pivot column, which
    keeps its entries below the pivot; prev is the pivot before p (1 at
    first).  Every entry so made is a minor
    of the swapped rows, so the division is exact and the k-th pivot is the
    minor on the first k pivot rows and columns (Bareiss, Math. Comp. 22,
    1968).  Yields one ``(row swapped up, column)`` pair per pivot, after the
    swap and before the rows below are eliminated, so a caller that stops
    early skips the rest of the work; a is fully eliminated once the
    generator is exhausted.
    """
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    row = 0
    prev = 1
    for col in range(ncols):
        if row == nrows:
            break
        piv = row
        while piv < nrows and not a[piv][col]:
            piv += 1
        if piv == nrows:
            continue
        a[row], a[piv] = a[piv], a[row]
        yield piv, col
        prow = a[row]
        p = prow[col]
        for i in range(row + 1, nrows):
            ai = a[i]
            f = ai[col]
            for j in range(col + 1, ncols):
                ai[j] = (ai[j] * p - f * prow[j]) // prev
        prev = p
        row += 1


def _int_rank(rows) -> int:
    """Rank of a list of integer rows, by ``_bareiss``.

    Rows that are not all plain ints go through ``Matrix`` and ``_int_rows``,
    which refuse ragged rows and non-integer entries.
    """
    a = [list(r) for r in rows]
    if not all(type(x) is int for r in a for x in r):
        a = _int_rows(Matrix(a))
    ncols = len(a[0]) if a else 0
    if any(len(r) != ncols for r in a):
        raise ValueError("ragged rows")
    return sum(1 for _ in _bareiss(a))


def integer_rank(m: Matrix) -> int:
    return _int_rank(_int_rows(m))


def _int_kernel(rows):
    """``integer_kernel`` of a list of int rows: the columns of the V of
    ``_smith`` at its zero or missing diagonal entries."""
    _, d, v, _ = _smith(rows)
    return tuple(col for j, col in enumerate(zip(*v)) if j >= len(d) or not d[j][j])


def integer_kernel(m: Matrix):
    """Basis of the saturated lattice {x : m @ x == 0}, as a tuple of columns.

    The basis spans ker(m) over Q intersected with Z^n, so any integer
    solution is an integer combination of the returned vectors.
    """
    return _int_kernel(_int_rows(m))


def integer_inverse(m: Matrix) -> Matrix:
    """Inverse of a unimodular integer matrix, with integer entries."""
    inv = m.inverse()
    if not inv.is_integer():
        raise ValueError("matrix is not unimodular")
    return inv
