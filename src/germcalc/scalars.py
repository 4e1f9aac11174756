"""Exact coefficient fields.

Rational coefficients are plain `fractions.Fraction`.  Complex rational
coefficients a + b*i (a, b rational) get a small dedicated field type so
that series over Q and over Q(i) run through identical code paths.  All
arithmetic is exact; floats are rejected everywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import _Frozen

_REAL = (int, Fraction)


def _square_and_multiply(base, exponent: int, mul, one):
    """base**exponent with mul as the product; one for exponent 0."""
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else mul(result, base)
        exponent >>= 1
        if exponent:
            base = mul(base, base)
    return one if result is None else result


class GaussianRational(_Frozen):
    """a + b*i with exact rational parts and field arithmetic."""

    __slots__ = ("real", "imag")

    def __init__(self, real=0, imag=0):
        if not isinstance(real, _REAL) or not isinstance(imag, _REAL):
            raise TypeError("GaussianRational parts must be int or Fraction")
        object.__setattr__(self, "real", Fraction(real))
        object.__setattr__(self, "imag", Fraction(imag))

    # -- coercion -----------------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, _REAL):
            return GaussianRational(value)
        return None

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.real, -self.imag)

    def norm(self) -> Fraction:
        """a^2 + b^2, the multiplicative norm down to Q."""
        return self.real * self.real + self.imag * self.imag

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        num = self * other.conjugate()
        return GaussianRational(num.real / n, num.imag / n)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.real, -self.imag)

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        one = GaussianRational(1)
        return _square_and_multiply(self, exponent, GaussianRational.__mul__, one)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.real == other.real and self.imag == other.imag
        if isinstance(other, _REAL):
            return self.imag == 0 and self.real == other
        return NotImplemented

    def __hash__(self):
        # Must agree with Fraction/int hashing when the value is real.
        if self.imag == 0:
            return hash(self.real)
        return hash((self.real, self.imag))

    def __bool__(self):
        return bool(self.real) or bool(self.imag)

    def __repr__(self):
        return f"GaussianRational({self.real!r}, {self.imag!r})"

    def __str__(self):
        if self.imag == 0:
            return str(self.real)
        if self.real == 0:
            if self.imag == 1:
                return "i"
            if self.imag == -1:
                return "-i"
            return f"{self.imag}*i"
        sign = "+" if self.imag > 0 else "-"
        mag = abs(self.imag)
        itxt = "i" if mag == 1 else f"{mag}*i"
        return f"{self.real} {sign} {itxt}"


I = GaussianRational(0, 1)


def as_gaussian(value) -> GaussianRational:
    """Embed an exact scalar into Q(i)."""
    g = GaussianRational._coerce(value)
    if g is None:
        raise TypeError(f"not an exact scalar: {value!r}")
    return g


def coerce_scalar(value):
    """Normalize a coefficient to Fraction or GaussianRational (exact only)."""
    if isinstance(value, (Fraction, GaussianRational)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")
