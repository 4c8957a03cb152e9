"""Exact Gaussian-rational scalars.

Every coefficient that reaches a trace or a sphere integral in this package is a
Gaussian rational a + b*i with a, b in Q.  Floats appear only in numeric
renderings and in the quantum-model module, never inside the symbol calculus.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, inf
from typing import Optional, Union

RatLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "QQi"]


def _frac(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _float(n: int, d: int) -> float:
    """n/d correctly rounded, saturating to +-inf where it exceeds the float range."""
    try:
        return n / d
    except OverflowError:
        return inf if n > 0 else -inf


class QQi:
    """Gaussian rational re + im*i, held fraction-free as (a + b*i)/d.

    a, b and d are Python ints with d > 0 and gcd(a, b, d) = 1, so equal values
    have equal fields and `==` and `hash` are exact.  Arithmetic works on the
    ints; Fractions appear only at construction and when re, im or abs2() are
    read.  Instances are immutable.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RatLike = 0, im: RatLike = 0) -> None:
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = _frac(re), _frac(im)
            p, q = re.denominator, im.denominator
            # over d = lcm(p, q) the three ints are already coprime: a prime
            # dividing d divides the one of p, q in which it has the higher
            # power, and that numerator is coprime to it and not multiplied up
            g = gcd(p, q)
            a, b, d = re.numerator * (q // g), im.numerator * (p // g), p // g * q
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError(f"QQi is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"QQi is immutable; cannot delete {name!r}")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def coerce(x: ScalarLike) -> "QQi":
        if type(x) is QQi:
            return x
        o = _operand(x)
        if o is None:
            raise TypeError(f"not an exact rational: {x!r}")
        return o

    def __add__(self, other: ScalarLike) -> "QQi":
        if type(other) is not QQi:
            other = _operand(other)
            if other is None:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            a, b = self._a + other._a, self._b + other._b
            if d == 1:
                return _make(a, b, 1)
        else:
            g = gcd(d, e)
            s, t = e // g, d // g
            a, b, d = self._a * s + other._a * t, self._b * s + other._b * t, d * s
        return _reduced(a, b, d)

    __radd__ = __add__

    def __neg__(self) -> "QQi":
        return _make(-self._a, -self._b, self._d)

    # a difference is one addition of the negation, so an operation count sees one add
    def __sub__(self, other: ScalarLike) -> "QQi":
        o = _operand(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: ScalarLike) -> "QQi":
        o = _operand(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if type(other) is not QQi:
            other = _operand(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        d = self._d * other._d
        if b:
            if e:
                return _reduced(a * c - b * e, a * e + b * c, d)
            return _reduced(a * c, b * c, d)
        return _reduced(a * c, a * e, d)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "QQi":
        o = _operand(other)
        if o is None:
            return NotImplemented
        c, e = o._a, o._b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + bi)/d / ((c + ei)/f) = f (a + bi)(c - ei) / (d (c^2 + e^2))
        a, b, f = self._a, self._b, o._d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * n)

    def __rtruediv__(self, other: ScalarLike) -> "QQi":
        o = _operand(other)
        if o is None:
            return NotImplemented
        return o / self

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other) -> bool:
        if type(other) is QQi:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._d == 1 and not self._b and self._a == other
        if isinstance(other, Fraction):
            return (not self._b and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        if not self._b:
            # equal to an int or Fraction, so it must hash like one
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __reduce__(self):
        return (_make, (self._a, self._b, self._d))

    def conj(self) -> "QQi":
        return _make(self._a, -self._b, self._d)

    def abs2(self) -> Fraction:
        """|z|^2, exact."""
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    def trace(self) -> "QQi":
        # Scalars are their own trace; lets Multivector coefficients be traced
        # uniformly whether they are scalars or matrices.
        return self

    def to_complex(self) -> complex:
        """Nearest complex float; a part beyond the float range becomes +-inf."""
        return complex(_float(self._a, self._d), _float(self._b, self._d))

    def __str__(self) -> str:
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"

    def __repr__(self) -> str:
        return f"QQi({self.re!s}, {self.im!s})"


_set_a, _set_b, _set_d = QQi._a.__set__, QQi._b.__set__, QQi._d.__set__
_new = object.__new__


def _make(a: int, b: int, d: int) -> QQi:
    """A QQi from ints already in canonical form, skipping __init__'s coercion."""
    z = _new(QQi)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _reduced(a: int, b: int, d: int) -> QQi:
    """The QQi (a + b*i)/d for d > 0, divided through by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        return _make(a // g, b // g, d // g)
    return _make(a, b, d)


def _operand(x) -> Optional[QQi]:
    """x as a QQi when it is an exact scalar, else None.

    The exact-type test comes first: isinstance against Fraction goes through
    the numbers ABCs and costs several times more."""
    if type(x) is QQi:
        return x
    if isinstance(x, int):
        return _make(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _make(x.numerator, 0, x.denominator)
    return None


def qi(re: RatLike = 0, im: RatLike = 0) -> QQi:
    return QQi(re, im)


_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)$")


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or a decimal or integer literal into an exact Fraction.

    A decimal exponent beyond the interpreter's int-string limit is refused
    before Fraction builds 10**exponent, which at 1e999999999 takes minutes."""
    text = text.strip()
    limit = sys.get_int_max_str_digits()
    exponent = _EXPONENT.search(text)
    if limit and exponent and abs(int(exponent.group(1))) > limit:
        raise ValueError(f"exponent of {text!r} exceeds the int-string limit {limit}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def parse_complex_rational(text: str) -> QQi:
    """Parse strings like '2', '-3/2', 'i', '1+2i', '1/2-3/4i', '0.5+0.25i'."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    if not s.endswith(("i", "I", "j", "J")):
        return QQi(parse_rational(s))
    body = s[:-1]
    # split off the real part at the last top-level +/- that is not a leading
    # sign and not part of a fraction or exponent
    split = -1
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE/+-":
            split = k
            break
    if split == -1:
        re_part, im_part = "0", body
    else:
        re_part, im_part = body[:split], body[split:]
    if im_part in ("", "+"):
        im_part = "1"
    elif im_part == "-":
        im_part = "-1"
    return QQi(parse_rational(re_part), parse_rational(im_part))
