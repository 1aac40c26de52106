"""Exact arithmetic in the field Q(omega), omega a primitive cube root of unity.

Every scalar in the engine is a + b*omega with a, b rational and
omega**2 = -1 - omega.  This field contains all eigenvalues and structure
constants that show up for conjugacy-class calculi whose elements have
order three, so no floating point is ever needed.

A scalar is stored as one integer triple (a, b, d) meaning (a + b*omega)/d,
in lowest terms: d > 0 and gcd(a, b, d) = 1 (Cohen, GTM 138, section 4.2).
The form is canonical, so equality is equality of triples, and arithmetic
is plain integer arithmetic followed by one gcd.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Union

RationalLike = Union[int, Fraction]
Scalar = Union["Cyclotomic", int, Fraction]

_HASH_MODULUS = sys.hash_info.modulus


class Cyclotomic:
    """An element (a + b*omega)/d of Q(omega), stored as a reduced int triple."""

    __slots__ = ("_t",)

    def __init__(self, re: RationalLike = 0, om: RationalLike = 0) -> None:
        r, o = Fraction(re), Fraction(om)
        q, u = int(r.denominator), int(o.denominator)
        _set_t(self, _make(int(r.numerator) * u, int(o.numerator) * q, q * u)._t)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Cyclotomic is immutable")

    # -- components --------------------------------------------------------

    def triple(self) -> tuple[int, int, int]:
        """The reduced integers (a, b, d) with self = (a + b*omega)/d."""
        return self._t

    @staticmethod
    def from_triple(a: int, b: int, d: int) -> "Cyclotomic":
        """(a + b*omega)/d for integers a, b and d > 0; the inverse of triple()."""
        if d <= 0:
            raise ValueError(f"denominator {d} is not positive")
        return _make(a, b, d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._t[0], self._t[2])

    @property
    def om(self) -> Fraction:
        return Fraction(self._t[1], self._t[2])

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        a, b, _ = self._t
        return not a and not b

    def is_rational(self) -> bool:
        return not self._t[1]

    def is_integer(self) -> bool:
        _, b, d = self._t
        return not b and d == 1

    # -- field structure ---------------------------------------------------

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, omega -> omega**2: (a, b) -> (a - b, -b)."""
        a, b, d = self._t
        return _raw((a - b, -b, d))

    def norm(self) -> Fraction:
        """Field norm x * conj(x) = a**2 - a*b + b**2 (a rational >= 0)."""
        a, b, d = self._t
        return Fraction(a * a - a * b + b * b, d * d)

    def inverse(self) -> "Cyclotomic":
        a, b, d = self._t
        n = a * a - a * b + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(omega)")
        # conj(x) / norm(x) = ((a - b) - b*omega)/d * d**2/n
        return _make((a - b) * d, -b * d, n)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Scalar) -> "Cyclotomic":
        if type(other) is not Cyclotomic:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, d = self._t
        c, e, f = other._t
        if d == 1 and f == 1:
            return _raw((a + c, b + e, 1))
        return _make(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "Cyclotomic":
        if type(other) is not Cyclotomic:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, d = self._t
        c, e, f = other._t
        if d == 1 and f == 1:
            return _raw((a - c, b - e, 1))
        return _make(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other: Scalar) -> "Cyclotomic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: Scalar) -> "Cyclotomic":
        if type(other) is not Cyclotomic:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, d = self._t
        c, e, f = other._t
        # (a + b*w)(c + e*w) = ac + (ae + bc)w + be*w^2,  w^2 = -1 - w
        be = b * e
        if d == 1 and f == 1:
            return _raw((a * c - be, a * e + b * c - be, 1))
        return _make(a * c - be, a * e + b * c - be, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Cyclotomic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: Scalar) -> "Cyclotomic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self) -> "Cyclotomic":
        a, b, d = self._t
        return _raw((-a, -b, d))

    def __pow__(self, k: int) -> "Cyclotomic":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- equality / hashing ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Cyclotomic):
            return self._t == other._t
        if isinstance(other, int):
            a, b, d = self._t
            return not b and d == 1 and a == other
        if isinstance(other, Fraction):
            a, b, d = self._t
            return not b and a == other.numerator and d == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        # equal to hash(self.re) when rational, hash((self.re, self.om)) if not
        a, b, d = self._t
        if not b:
            return _rational_hash(a, d)
        return hash((_rational_hash(a, d), _rational_hash(b, d)))

    def __bool__(self) -> bool:
        a, b, _ = self._t
        return bool(a or b)

    # -- formatting / serialization ----------------------------------------

    def __repr__(self) -> str:
        return f"Cyclotomic({self.re!r}, {self.om!r})"

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.re)
        re, om = self.re, self.om
        if not re:
            return f"{om}w"
        sign = "+" if om > 0 else "-"
        return f"{re}{sign}{abs(om)}w"

    def to_json(self) -> Union[str, dict]:
        """Serialize: plain "p/q" string when rational, {re, om} otherwise."""
        if self.is_rational():
            return str(self.re)
        return {"re": str(self.re), "om": str(self.om)}

    @classmethod
    def from_json(cls, data: Union[str, int, dict]) -> "Cyclotomic":
        """Parse an int, a rational string like "-1/4", or {"re", "om"} of those.

        Anything else raises ValueError: floats, decimal strings such as "0.1",
        booleans, nulls, lists and objects with other keys.
        """
        if isinstance(data, dict) and set(data) <= {"re", "om"}:
            return cls(_exact_rational(data.get("re", 0)), _exact_rational(data.get("om", 0)))
        return cls(_exact_rational(data))


_new = object.__new__
_set_t = Cyclotomic._t.__set__


def _raw(t: tuple[int, int, int]) -> Cyclotomic:
    """Wrap a triple that is already in lowest terms, bypassing __init__."""
    obj = _new(Cyclotomic)
    _set_t(obj, t)
    return obj


def _make(a: int, b: int, d: int) -> Cyclotomic:
    """(a + b*omega)/d in lowest terms, by dividing out gcd(a, b, d).

    d > 0 already: every caller passes a product of positive denominators
    or the norm of a nonzero element, a*a - a*b + b*b > 0.
    """
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _raw((a, b, d))


def _exact_rational(data: object) -> Fraction:
    """An int or a string like "-1/4" as a Fraction; ValueError otherwise."""
    if type(data) is int:
        return Fraction(data)
    if isinstance(data, str) and not any(ch in data for ch in ".eE"):
        try:
            return Fraction(data)
        except ZeroDivisionError:
            pass
    raise ValueError(f"not an exact rational: {data!r}")


def _rational_hash(n: int, d: int) -> int:
    """hash(Fraction(n, d)), computed without building the Fraction.

    Fraction hashes n/d as |n| * d**-1 modulo the hash prime, which does
    not depend on whether n/d is in lowest terms as long as d is invertible.
    """
    if d == 1:
        return hash(n)
    try:
        dinv = pow(d, -1, _HASH_MODULUS)
    except ValueError:
        return hash(Fraction(n, d))
    h = hash(hash(abs(n)) * dinv)
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


def _coerce(value: Scalar) -> "Cyclotomic":
    if isinstance(value, (Cyclotomic, int, Fraction)):
        return as_cyc(value)
    return NotImplemented


def as_cyc(value: Scalar) -> Cyclotomic:
    """Any accepted scalar as a Cyclotomic; ints come from the interned table."""
    if isinstance(value, Cyclotomic):
        return value
    if type(value) is int:
        return _small_int(value)
    return Cyclotomic(value)


@lru_cache(maxsize=4096)
def _small_int(n: int) -> Cyclotomic:
    """Interned integer scalars; keeps big integer matrices memory-light."""
    return Cyclotomic(n)


ZERO = Cyclotomic(0)
ONE = Cyclotomic(1)
OMEGA = Cyclotomic(0, 1)
OMEGA2 = Cyclotomic(-1, -1)


def cyc(re: RationalLike = 0, om: RationalLike = 0) -> Cyclotomic:
    """Shorthand constructor used throughout the test suite."""
    return Cyclotomic(re, om)
