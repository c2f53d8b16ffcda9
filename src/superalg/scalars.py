"""Exact scalars: rationals and Gaussian rationals.

Every computation in this package runs over QQ or QQ(i); there is no floating
point anywhere.  Plain rationals are fractions.Fraction values, built by
rational and recognized by is_rational, which also accepts ints; Gaussian
rationals get their own small class.  Only this module imports fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm


def rational(num=0, den=1):
    return Fraction(num, den)


ZERO = rational(0)
ONE = rational(1)
# the rational type; a value of exactly this type needs no coercion
_RATIONAL = Fraction


def is_rational(x) -> bool:
    return isinstance(x, (Fraction, int))


class GaussianRational:
    """A number re + im*i with exact rational re, im.

    Behaves like a builtin number: supports +,-,*,/ and mixes freely with int
    and plain rationals.  Hash and equality agree with the real value when
    im == 0, so dict keys stay consistent across scalar types.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is _RATIONAL else rational(re))
        object.__setattr__(self, "im", im if type(im) is _RATIONAL else rational(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- structure ---------------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self):
        """re^2 + im^2, a rational >= 0, zero iff the value is zero."""
        return self.re * self.re + self.im * self.im

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if is_rational(x):
            return GaussianRational(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        c = o.conjugate()
        return GaussianRational(
            (self.re * c.re - self.im * c.im) / n,
            (self.re * c.im + self.im * c.re) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if is_rational(other):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


I = GaussianRational(0, 1)


def gaussian(re=0, im=0) -> GaussianRational:
    return GaussianRational(re, im)


def conjugate_scalar(x):
    """Complex conjugation; the identity on plain rationals."""
    if isinstance(x, GaussianRational):
        return x.conjugate()
    return x


def as_gaussian(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(x)


def inexact(value) -> TypeError:
    """The error for a value that is not an exact scalar (a float, say)."""
    return TypeError(f"{value!r} is not an exact scalar: an int, a rational or a GaussianRational")


def real_imag(x):
    """Split any scalar into (re, im) rationals; TypeError for a value that is not exact."""
    if isinstance(x, GaussianRational):
        return x.re, x.im
    try:
        return (x if type(x) is _RATIONAL else rational(x)), ZERO
    except TypeError:
        raise inexact(x) from None


def common_denominator(values) -> int:
    """The lcm of the denominators of the real and imaginary parts of scalars.

    Multiplying every value by it gives integers (Gaussian rationals with
    integral parts over QQ(i)); it is 1 for no values.
    """
    den = 1
    for x in values:
        if isinstance(x, GaussianRational):
            den = lcm(den, x.re.denominator, x.im.denominator)
        else:
            den = lcm(den, x.denominator)
    return den


def cleared(x, den: int):
    """den * x for a scalar x that den clears (a multiple of its common_denominator).

    The result is an int, or a GaussianRational with integral parts when x
    has a nonzero imaginary part: a GaussianRational with im == 0 becomes an
    int too, so that scalars of either type that are equal clear to the same
    key, and real values are computed on ints.
    """
    if isinstance(x, GaussianRational):
        if x.im:
            return GaussianRational(x.re * den, x.im * den)
        x = x.re
    return x.numerator * (den // x.denominator)


# -- field descriptors -----------------------------------------------------


class RationalField:
    """The field QQ, as a tiny descriptor object used where a field tag is needed."""

    name = "Q"
    zero = ZERO
    one = ONE

    @staticmethod
    def random(rng, bound=6):
        num = rng.randint(-bound, bound)
        den = rng.randint(1, 4)
        return rational(num, den)


class GaussianRationalField:
    """The field QQ(i)."""

    name = "Q(i)"
    zero = GaussianRational(0)
    one = GaussianRational(1)

    @staticmethod
    def random(rng, bound=6):
        return GaussianRational(RationalField.random(rng, bound), RationalField.random(rng, bound))


FIELD_Q = RationalField()
FIELD_QI = GaussianRationalField()


def as_field(field):
    """The field descriptor for FIELD_Q or FIELD_QI, or for its name "Q" or "Q(i)"."""
    for f in (FIELD_Q, FIELD_QI):
        if field is f or field == f.name:
            return f
    raise ValueError(f"unknown field {field!r}")


# -- serialization ---------------------------------------------------------


def format_scalar(x) -> str:
    """Render a scalar as "p/q" or "p/q+r/s*i" (exact, parseable)."""
    if isinstance(x, GaussianRational):
        if not x.im:
            return str(x.re)
        if not x.re:
            return f"{x.im}*i"
        im = str(x.im)
        sign = "+" if not im.startswith("-") else ""
        return f"{x.re}{sign}{im}*i"
    return str(x)


# "p/q", "p/q+r/s*i", "r/s*i" or "i" with an optional sign, no zero denominator;
# re is tried empty first, so a lone imaginary part is never read as real
_RAT = r"[+-]?\d+(?:/0*[1-9]\d*)?"
_SCALAR = re.compile(rf"(?P<re>{_RAT})??(?:(?P<im>{_RAT}\*?|[+-]?)i)?")


def parse_scalar(s: str):
    """Inverse of format_scalar.  Returns a rational or a GaussianRational.

    ValueError naming s for an empty string or one that is not a scalar.
    """
    s = s.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    m = _SCALAR.fullmatch(s)
    if m is None:
        raise ValueError(f"not a scalar: {s!r}")
    re_part = Fraction(m["re"] or 0)
    im = m["im"]
    if im is None:
        return re_part
    im = im.rstrip("*")
    return GaussianRational(re_part, Fraction(im + "1" if im in ("", "+", "-") else im))
