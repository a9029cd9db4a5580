"""Exact scalars: arbitrary-precision rationals and univariate rational functions.

``Rat`` is the stdlib ``Fraction`` (always in lowest terms, positive
denominator).  ``RatFun`` is a reduced quotient of polynomials in one formal
parameter ``eps`` with rational coefficients; it exists so that one-parameter
families of points can be manipulated exactly and then evaluated at
``eps = 0`` to decide whether a boundary limit exists.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd, lcm

__all__ = ["Rat", "RatFun", "PoleAtZero", "EPS", "evaluate_at_zero"]

Rat = Fraction


class PoleAtZero(ArithmeticError):
    """The reduced denominator vanishes at eps = 0, so no limit exists."""


# Polynomials are tuples of Fractions, lowest degree first, no trailing zeros.


def _trim(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _coerce_poly(x) -> tuple:
    if isinstance(x, (int, Fraction)):
        return _trim((Fraction(x),))
    if isinstance(x, (tuple, list)):
        return _trim(Fraction(c) for c in x)
    raise TypeError(f"cannot build a polynomial from {x!r}")


def _padd(a, b):
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _scaled(a):
    """Integer coefficients and a denominator d with a == ints / d."""
    d = lcm(*(c.denominator for c in a))
    return [c.numerator * (d // c.denominator) for c in a], d


def _pmul(a, b):
    # convolve integer numerators over one common denominator: one Fraction
    # per coefficient of the product instead of one per pair of terms
    if not a or not b:
        return ()
    (ia, da), (ib, db) = _scaled(a), _scaled(b)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(ia):
        for j, y in enumerate(ib):
            out[i + j] += x * y
    return _trim(Fraction(c, da * db) for c in out)


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    r = list(a)
    while True:
        r = list(_trim(r))
        if len(r) < len(b):
            break
        c = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] += c
        for i, cb in enumerate(b):
            r[k + i] -= c * cb
        # the leading term cancels exactly, so the loop terminates
    return _trim(q), _trim(r)


def _pmonic(a):
    if not a:
        return a
    lead = a[-1]
    if lead == 1:
        return a
    return tuple(c / lead for c in a)


def _int_clear(a):
    """Primitive integer multiple of a Fraction polynomial (content dropped)."""
    if not a:
        return ()
    ints, _ = _scaled(a)
    g = _igcd(*ints)
    return tuple(v // g for v in ints)


def _ipseudo_rem(a, b):
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


def _pgcd(a, b):
    # primitive pseudo-remainder sequence; plain Euclid over the rationals
    # swells coefficients badly enough to dominate the whole calculus
    if not a:
        return _pmonic(b)
    if not b:
        return _pmonic(a)
    ia, ib = _int_clear(a), _int_clear(b)
    while ib:
        ia, ib = ib, _int_clear(_ipseudo_rem(ia, ib))
    return _pmonic(tuple(Fraction(c) for c in ia))


def _pstr(a) -> str:
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


class RatFun:
    """A reduced ratio of polynomials in ``eps``.

    Canonical form (gcd one, monic denominator) makes structural equality
    coincide with mathematical equality, so these are safe dictionary values
    and support exact ``==`` against ints and Fractions.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        ncs = num.num if isinstance(num, RatFun) else _coerce_poly(num)
        dcs = den.num if isinstance(den, RatFun) else _coerce_poly(den)
        if isinstance(num, RatFun) or isinstance(den, RatFun):
            # allow RatFun/RatFun via cross multiplication
            nn = num if isinstance(num, RatFun) else RatFun(num)
            dd = den if isinstance(den, RatFun) else RatFun(den)
            ncs = _pmul(nn.num, dd.den)
            dcs = _pmul(nn.den, dd.num)
        if not dcs:
            raise ZeroDivisionError("rational function with zero denominator")
        if not ncs or len(dcs) == 1:
            lead = dcs[-1] if len(dcs) == 1 else Fraction(1)
            self.num = ncs if lead == 1 else tuple(c / lead for c in ncs)
            self.den = (Fraction(1),)
            return
        g = _pgcd(ncs, dcs)
        if len(g) > 1:
            ncs = _pdivmod(ncs, g)[0]
            dcs = _pdivmod(dcs, g)[0]
        lead = dcs[-1]
        if lead != 1:
            ncs = tuple(c / lead for c in ncs)
            dcs = tuple(c / lead for c in dcs)
        self.num = ncs
        self.den = dcs

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
        return self.num[0] if self.num else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _lift(x):
        if isinstance(x, RatFun):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFun._raw(_coerce_poly(x), (Fraction(1),))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        num = _padd(_pmul(self.num, o.den), _pmul(o.num, self.den))
        return RatFun(num, _pmul(self.den, o.den))

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
        return RatFun(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFun(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return RatFun(1)
        base = self
        if k < 0:
            if not self.num:
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            base = RatFun._raw(self.den, self.num)
            base = RatFun(base.num, base.den)  # renormalize (monic denominator)
            k = -k
        out = RatFun(1)
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
            return _pstr(self.num)
        return f"({_pstr(self.num)})/({_pstr(self.den)})"

    # -- evaluation --------------------------------------------------------

    def at_zero(self) -> Fraction:
        d0 = self.den[0]
        if not d0:
            raise PoleAtZero(f"{self} has a pole at eps = 0")
        n0 = self.num[0] if self.num else Fraction(0)
        return n0 / d0


EPS = RatFun.variable()


def evaluate_at_zero(value) -> Fraction:
    """Exact limit of a scalar as eps -> 0; plain rationals pass through."""
    if isinstance(value, RatFun):
        return value.at_zero()
    return Fraction(value)
