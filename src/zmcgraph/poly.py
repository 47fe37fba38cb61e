"""Exact univariate polynomial arithmetic over arbitrary-precision rationals.

Polynomials are stored as tuples of ``fractions.Fraction`` coefficients in
ascending powers of the variable, trimmed of trailing zeros (the zero
polynomial has an empty coefficient tuple).  All ring operations, the formal
derivative and the zero-initial-data antiderivative are exact; rounding only
enters when a polynomial is evaluated at a ``float`` argument, which uses
Horner's rule in double precision.
The constructor takes the strings of ``to_json`` back, and ``str(p)`` is the
form ``zmc construct`` prints, such as "1/2 + -8*y^3".
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

CoeffLike = Union[Fraction, int, str]


def _as_fraction(value: CoeffLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot build an exact coefficient from {type(value).__name__}")


class RationalPoly:
    """Immutable polynomial in one variable with exact rational coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[CoeffLike] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -------------------------------------------------

    @classmethod
    def monomial(cls, power: int, coeff: CoeffLike = 1) -> "RationalPoly":
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls([0] * power + [coeff])

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __setattr__(self, name, value):
        raise AttributeError("RationalPoly is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        """The nonzero terms in ascending powers, as "-1/3*y + 4*y^3"; "0" if none."""
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*y")
            else:
                terms.append(f"{c}*y^{i}")
        return " + ".join(terms) or "0"

    def __repr__(self) -> str:
        return f"RationalPoly({self})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        if not isinstance(other, RationalPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPoly(out)

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly([-c for c in self.coeffs])

    def __mul__(self, other: "RationalPoly") -> "RationalPoly":
        if not isinstance(other, RationalPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RationalPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPoly(out)

    def scale(self, r: CoeffLike) -> "RationalPoly":
        """Multiply by an exact scalar."""
        r = _as_fraction(r)
        return RationalPoly([c * r for c in self.coeffs])

    # -- calculus -----------------------------------------------------

    def derivative(self) -> "RationalPoly":
        """Exact formal derivative."""
        return RationalPoly([self.coeffs[i] * i for i in range(1, len(self.coeffs))])

    def antiderivative_zero(self) -> "RationalPoly":
        """The antiderivative P with P(0) = 0, exactly."""
        return RationalPoly(
            [Fraction(0)] + [self.coeffs[i] / (i + 1) for i in range(len(self.coeffs))]
        )

    # -- evaluation ---------------------------------------------------

    def __call__(self, y):
        """Evaluate at ``y``.

        A ``Fraction`` or ``int`` argument gives the exact rational value; a
        ``float`` argument evaluates by Horner's rule in double precision.
        """
        if isinstance(y, float):
            v = 0.0
            for c in reversed(self.coeffs):
                v = v * y + float(c)
            return v
        y = _as_fraction(y)
        v = Fraction(0)
        for c in reversed(self.coeffs):
            v = v * y + c
        return v

    # -- serialization ------------------------------------------------

    def to_json(self) -> list[str]:
        """Coefficient array of exact "p/q" strings, ascending powers."""
        return [str(c) for c in self.coeffs]


ZERO_POLY = RationalPoly()
