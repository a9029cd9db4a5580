"""Exact scalars: arbitrary-precision rationals and univariate rational functions.

``Rat`` is the stdlib ``Fraction`` (always in lowest terms, positive
denominator).  ``RatFun`` is a reduced quotient of polynomials in one formal
parameter ``eps``; it exists so that one-parameter families of points can be
manipulated exactly and then evaluated at ``eps = 0`` to decide whether a
boundary limit exists.

Every element of Q(eps) is a quotient of two integer polynomials, and by
Gauss's lemma their gcd can be taken and divided out over the integers
(heuristic gcd, with the primitive pseudo-remainder sequence as fallback;
Geddes, Czapor and Labahn, *Algorithms for Computer Algebra*, 1992, ch. 7),
so ``RatFun`` arithmetic never builds a ``Fraction`` coefficient.

Like a Fraction, a RatFun has ``numerator`` and ``denominator``: integer
polynomials as ``_Poly``, which add, subtract, multiply (also with ints),
raise to powers and divide exactly, taking no gcd.  So the kernels of
``linalg`` and ``chevalley`` written on the numerators and denominators of
Fractions run unchanged over Z[eps] (Bareiss, Math. Comp. 22, 1968; Knuth,
TAOCP vol. 2, 4.5.1), and ``linalg._rational`` reduces each result once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd, lcm

__all__ = ["Rat", "RatFun", "PoleAtZero", "EPS", "evaluate_at_zero"]

Rat = Fraction


class PoleAtZero(ArithmeticError):
    """The reduced denominator vanishes at eps = 0, so no limit exists."""


# Polynomials are tuples of ints, lowest degree first, no trailing zeros.


def _trim(cs: list) -> tuple:
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _cleared(xs):
    """Numerators n_i over a least common denominator d: x_i == n_i / d.

    For Fractions, ints n_i and d > 0.  A RatFun among the x_i makes every
    n_i and d a ``_Poly``, d a least common multiple of the denominators
    over Z[eps] (up to sign).
    """
    ds = [x.denominator for x in xs]
    if all(type(d) is int for d in ds):
        d = lcm(*ds)
    else:
        d = _Poly((1,))
        for e in ds:
            e = (e,) if type(e) is int else e
            g = _pgcd(d, e) if len(d) > 1 and len(e) > 1 else (1,)
            d = d * _exquo(e, _pmul(g, (_igcd(*d, *e),)))
    return [x.numerator * (d // x.denominator) for x in xs], d


def _ints(x):
    """Integer coefficients and a positive d with x == coefficients / d."""
    if isinstance(x, (int, Fraction)):
        x = (x,)
    if not isinstance(x, (tuple, list)):
        raise TypeError(f"cannot build a polynomial from {x!r}")
    cs, d = _cleared([Fraction(c) for c in x])
    return _trim(cs), d


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _ppow(a, k: int):
    out = (1,)
    for _ in range(k):
        out = _pmul(out, a)
    return out


def _primitive(a):
    g = _igcd(*a)
    return a if g <= 1 else tuple(c // g for c in a)


def _prem(a, b):
    # remainder of lc(b)^k * a modulo b
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
    return tuple(r)


def _prs_gcd(a, b):
    """A primitive gcd of two nonzero integer polynomials, up to sign.

    Primitive pseudo-remainder sequence: plain Euclid over the rationals
    swells coefficients badly enough to dominate the whole calculus.
    """
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


def _peval(a, x: int) -> int:
    out = 0
    for c in reversed(a):
        out = out * x + c
    return out


def _gcdheu(a, b):
    """A primitive gcd of two nonzero integer polynomials, or None.

    GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989; Geddes,
    Czapor and Labahn, *Algorithms for Computer Algebra*, 1992, 7.7): the
    integer gcd of the values at xi, read back off its symmetric base-xi
    digits, is the polynomial gcd once it divides both inputs, since xi
    exceeds twice the smaller coefficient bound.  None after six values of
    xi without such a candidate.
    """
    a, b = _primitive(a), _primitive(b)
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(6):
        h = _igcd(_peval(a, xi), _peval(b, xi))
        digits = []
        while h:
            d = h % xi
            if 2 * d > xi:
                d -= xi
            digits.append(d)
            h = (h - d) // xi
        g = _primitive(_trim(digits))
        if len(g) == 1 or (
            g and _quotient(a, g) is not None and _quotient(b, g) is not None
        ):
            return g
        xi = xi * 73794 // 27011
    return None


def _pgcd(a, b):
    """A primitive gcd of two nonzero integer polynomials, up to sign.

    GCDHEU first; the pseudo-remainder sequence decides what it leaves.
    """
    g = _gcdheu(a, b)
    return _prs_gcd(a, b) if g is None else g


def _quotient(a, b):
    """The quotient a / b over the integers, or None if b does not divide a."""
    r = list(a)
    n, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - n)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + n], lb)
        if rem:
            return None
        q[k] = c
        for i, cb in enumerate(b):
            r[k + i] -= c * cb
    if any(r):
        return None
    return tuple(q)


def _exquo(a, b):
    """The quotient a / b over the integers, where b divides a exactly."""
    q = _quotient(a, b)
    if q is None:
        raise RuntimeError("polynomial division left a remainder")
    return q


class _Poly(tuple):
    """An integer polynomial, as above, with the ring operations of Z[eps].

    ``+``, ``-`` and ``*`` also take ints; ``//`` is exact division, and a
    remainder raises RuntimeError.  No gcd is taken.
    """

    __slots__ = ()

    def __add__(self, other):
        return _Poly(_padd(self, (other,) if type(other) is int else other))

    __radd__ = __add__

    def __neg__(self):
        return _Poly(-c for c in self)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is int:
            return _Poly(c * other for c in self) if other else _Poly()
        return _Poly(_pmul(self, other))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return _Poly(_ppow(self, k))

    def __floordiv__(self, other):
        return _Poly(_exquo(self, (other,) if type(other) is int else other))


def _pstr(a, lead: int) -> str:
    """a / lead, printed with rational coefficients."""
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        if not a[k]:
            continue
        c = Fraction(a[k], lead)
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append("eps" if c == 1 else f"{c}*eps")
        else:
            parts.append(f"eps^{k}" if c == 1 else f"{c}*eps^{k}")
    return " + ".join(parts).replace("+ -", "- ")


def _reduced(n, d) -> "RatFun":
    """The canonical RatFun n/d of two integer polynomials."""
    if not d:
        raise ZeroDivisionError("rational function with zero denominator")
    if not n:
        return RatFun._raw((), (1,))
    # a polynomial common factor needs positive degree on both sides
    if len(n) > 1 and len(d) > 1:
        g = _pgcd(n, d)
        if len(g) > 1:
            n, d = _exquo(n, g), _exquo(d, g)
    c = _igcd(*n, *d)
    if d[-1] < 0:
        c = -c
    if c != 1:
        n = tuple(x // c for x in n)
        d = tuple(x // c for x in d)
    return RatFun._raw(n, d)


class RatFun:
    """A reduced ratio of integer polynomials in ``eps``.

    Canonical form: ``num`` and ``den`` have no common polynomial factor,
    their integer coefficients together have content one, and ``den`` has a
    positive leading coefficient.  So structural equality coincides with
    mathematical equality, these are safe dictionary values, and they support
    exact ``==`` against ints and Fractions.  The printed form divides by the
    leading coefficient of ``den``, so it shows a monic denominator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        (n, nd), (d, dd) = _ints(num), _ints(den)
        r = _reduced(_pmul(n, (dd,)), _pmul(d, (nd,)))
        self.num, self.den = r.num, r.den

    # -- constructors ------------------------------------------------------

    @classmethod
    def variable(cls) -> "RatFun":
        return cls((0, 1))

    @classmethod
    def _raw(cls, num, den) -> "RatFun":
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
        return Fraction(self.num[0], self.den[0]) if self.num else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.num)

    @property
    def numerator(self) -> _Poly:
        return _Poly(self.num)

    @property
    def denominator(self) -> _Poly:
        return _Poly(self.den)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _lift(x):
        if isinstance(x, RatFun):
            return x
        if isinstance(x, (int, Fraction)):
            f = Fraction(x)
            return RatFun._raw((f.numerator,) if f else (), (f.denominator,))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        num = _padd(_pmul(self.num, o.den), _pmul(o.num, self.den))
        return _reduced(num, _pmul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return RatFun._raw(tuple(-c for c in self.num), self.den)

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
        return _reduced(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by the zero rational function")
        return _reduced(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        # powers of a reduced quotient are reduced: no gcd to take
        if not isinstance(k, int):
            return NotImplemented
        num, den = self.num, self.den
        if k < 0:
            if not num:
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            num, den, k = den, num, -k
        num, den = _ppow(num, k), _ppow(den, k)
        if den[-1] < 0:
            num, den = tuple(-c for c in num), tuple(-c for c in den)
        return RatFun._raw(num, den)

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
        lead = self.den[-1]
        if len(self.den) == 1:
            return _pstr(self.num, lead)
        return f"({_pstr(self.num, lead)})/({_pstr(self.den, lead)})"

    # -- evaluation --------------------------------------------------------

    def at_zero(self) -> Fraction:
        d0 = self.den[0]
        if not d0:
            raise PoleAtZero(f"{self} has a pole at eps = 0")
        return Fraction(self.num[0], d0) if self.num else Fraction(0)


EPS = RatFun.variable()


def evaluate_at_zero(value) -> Fraction:
    """Exact limit of a scalar as eps -> 0; plain rationals pass through."""
    if isinstance(value, RatFun):
        return value.at_zero()
    return Fraction(value)
