"""Exact univariate polynomials over the rationals.

Coefficients are `fractions.Fraction` throughout; no floating point is used
anywhere.  The module provides the small amount of polynomial machinery the
rest of the package needs:

* arithmetic and evaluation of dense polynomials,
* closed-form power sums (Faulhaber polynomials), so that sums of a
  polynomial over an integer range cost O(deg^2) instead of O(range),
* Newton interpolation through exact rational points.

A polynomial is represented by its dense coefficient list ``coeffs`` with
``coeffs[k]`` the coefficient of ``x**k``; the zero polynomial has an empty
list.  Instances are immutable and hashable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Union

Scalar = Union[int, Fraction]

__all__ = [
    "QPoly",
    "power_sum_poly",
    "newton_interpolate",
]


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


class QPoly:
    """A dense univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(value: Scalar) -> "QPoly":
        return QPoly([value])

    # -- basic protocol ----------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == QPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("QPoly", self.coeffs))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "QPoly(0)"
        parts = [f"{c}*x^{k}" if k else f"{c}" for k, c in enumerate(self.coeffs) if c]
        return "QPoly(" + " + ".join(parts) + ")"

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "QPoly | Scalar") -> "QPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other: "QPoly | Scalar") -> "QPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "QPoly | Scalar") -> "QPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: "QPoly | Scalar") -> "QPoly":
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            return QPoly([c * f for c in self.coeffs])
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = QPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- evaluation ------------------------------------------------------

    def __call__(self, x: Scalar) -> Fraction:
        value = Fraction(0)
        xf = _as_fraction(x)
        for c in reversed(self.coeffs):
            value = value * xf + c
        return value

    def sum_over_range(self, lo: Scalar, hi: Scalar) -> Fraction:
        """Exact value of ``sum(p(x) for x in range(lo, hi + 1))``.

        Returns 0 when the range is empty (``hi < lo``).  Bounds must be
        integers (possibly given as integral Fractions).
        """
        lo_i, hi_i = int(lo), int(hi)
        if Fraction(lo) != lo_i or Fraction(hi) != hi_i:
            raise ValueError("summation bounds must be integers")
        if hi_i < lo_i:
            return Fraction(0)
        total = Fraction(0)
        for k, c in enumerate(self.coeffs):
            if c:
                # F_k(hi) - F_k(lo - 1) telescopes for *all* integer bounds,
                # negative ones included.
                f_k = power_sum_poly(k)
                total += c * (f_k(hi_i) - f_k(lo_i - 1))
        return total


def _coerce(value: "QPoly | Scalar") -> "QPoly":
    if isinstance(value, QPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return QPoly.constant(value)
    return NotImplemented


@lru_cache(maxsize=None)
def power_sum_poly(k: int) -> QPoly:
    """The Faulhaber polynomial F_k with F_k(N) = sum_{x=0}^{N} x**k.

    Computed from the recurrence sum_{j<=k} C(k+1, j) F_j(N) = (N+1)**(k+1),
    which follows by telescoping (x+1)**(k+1) - x**(k+1).
    """
    if k < 0:
        raise ValueError("power index must be nonnegative")
    n_plus_1 = QPoly([1, 1])
    rhs = n_plus_1 ** (k + 1)
    for j in range(k):
        rhs = rhs - comb(k + 1, j) * power_sum_poly(j)
    return rhs * Fraction(1, k + 1)


def newton_interpolate(points: list[tuple[Scalar, Scalar]]) -> QPoly:
    """Interpolate the unique polynomial of degree < len(points).

    Uses Newton's divided differences with exact rational arithmetic.  The
    x-coordinates must be pairwise distinct.
    """
    xs = [_as_fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    coeffs = [_as_fraction(y) for _, y in points]
    # coeffs[j] becomes the divided difference [y_0, ..., y_j].
    for level in range(1, len(points)):
        for j in range(len(points) - 1, level - 1, -1):
            coeffs[j] = (coeffs[j] - coeffs[j - 1]) / (xs[j] - xs[j - level])
    poly = QPoly()
    for j in range(len(points) - 1, -1, -1):
        poly = poly * QPoly([-xs[j], 1]) + QPoly.constant(coeffs[j])
    return poly

