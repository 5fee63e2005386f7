"""Quaternions over exact rational or float components, and constructive
solutions of p(ab) - p(ba) = v inside the quaternions.

Every purely imaginary quaternion arises as such a difference for any
nonconstant real polynomial p, by one construction: with b a unit
imaginary orthogonal to w and a = b (w - s), ab = s + w and ba = s - w.
Every quaternion alpha is a product of two, u (-u alpha) for a unit
imaginary u orthogonal to Im(alpha).  solve_poly_commutator and
factor_into_two_commutators build explicit witnesses and verify them
before returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .poly import (
    _EXACT_TYPES,
    Polynomial,
    derive_odd_factor,
    poly_commutator,
    solve_odd_equation,
)


class VerificationError(ArithmeticError):
    """A constructed witness failed its defining identity."""


class Quaternion:
    """w + x i + y j + z k with i^2 = j^2 = k^2 = ijk = -1.

    Components are all exact or all float; mixed arithmetic follows Python's
    numeric tower, so exact operands stay exact.  An exact component is an
    int when integral, else a Fraction, through exact() and every operation,
    so integral quaternions multiply as ints.  An exact real scalar times an
    exact quaternion scales its components; any other scalar c multiplies as
    the quaternion (c, 0, 0, 0).
    """

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0, x=0, y=0, z=0):
        self.w = w
        self.x = x
        self.y = y
        self.z = z

    @classmethod
    def exact(cls, w=0, x=0, y=0, z=0) -> "Quaternion":
        return _quat(*(c if isinstance(c, _EXACT_TYPES) else Fraction(c) for c in (w, x, y, z)))

    @classmethod
    def of_floats(cls, w=0.0, x=0.0, y=0.0, z=0.0) -> "Quaternion":
        return cls(float(w), float(x), float(y), float(z))

    def components(self):
        return (self.w, self.x, self.y, self.z)

    def is_exact(self) -> bool:
        return all(isinstance(c, _EXACT_TYPES) for c in self.components())

    def to_float(self) -> "Quaternion":
        return Quaternion(*(float(c) for c in self.components()))

    @staticmethod
    def _coerce(value):
        if isinstance(value, Quaternion):
            return value
        if isinstance(value, (int, float, Fraction)):
            return Quaternion(value)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _quat(self.w + o.w, self.x + o.x, self.y + o.y, self.z + o.z)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _quat(self.w - o.w, self.x - o.x, self.y - o.y, self.z - o.z)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if not isinstance(other, Quaternion):
            if isinstance(other, _EXACT_TYPES) and self.is_exact():
                return _quat(self.w * other, self.x * other, self.y * other, self.z * other)
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = other.w, other.x, other.y, other.z
        return _quat(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def __rmul__(self, other):
        if isinstance(other, _EXACT_TYPES) and self.is_exact():
            return self * other  # an exact real scalar is central
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def __truediv__(self, scalar):
        if isinstance(scalar, (int, float, Fraction)):
            if isinstance(scalar, int) and self.is_exact():
                scalar = Fraction(scalar)  # keep int / int off the float path
            return _quat(*(c / scalar for c in self.components()))
        if isinstance(scalar, Quaternion):
            return self * scalar.inverse()
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = Quaternion(1) if self.is_exact() else Quaternion(1.0, 0.0, 0.0, 0.0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.components() == o.components()

    def __repr__(self) -> str:
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm2(self):
        """Squared norm; exact when the components are exact."""
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(float(self.norm2()))

    def re(self):
        return self.w

    def im(self) -> "Quaternion":
        zero = 0 if isinstance(self.w, _EXACT_TYPES) else 0.0
        return Quaternion(zero, self.x, self.y, self.z)

    def is_imaginary(self) -> bool:
        return self.w == 0

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.components())

    def inverse(self) -> "Quaternion":
        n2 = self.norm2()
        if n2 == 0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        if isinstance(n2, int):
            n2 = Fraction(n2)  # an exact quaternion must invert exactly
        return _quat(*(c / n2 for c in self.conjugate().components()))

    def dot(self, other: "Quaternion"):
        return (
            self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z
        )


def _quat(w, x, y, z) -> Quaternion:
    """Quaternion(w, x, y, z) with each integral Fraction component an int."""
    if type(w) is Fraction or type(x) is Fraction or type(y) is Fraction or type(z) is Fraction:
        w, x, y, z = (c.numerator if type(c) is Fraction and c.denominator == 1 else c
                      for c in (w, x, y, z))
    return Quaternion(w, x, y, z)


ONE = Quaternion.exact(1)
QI = Quaternion.exact(0, 1)
QJ = Quaternion.exact(0, 0, 1)
QK = Quaternion.exact(0, 0, 0, 1)


def _orthogonal_imaginary(w: Quaternion) -> Quaternion:
    """Unit imaginary float quaternion orthogonal to imaginary w, so anticommuting with it.

    Gram-Schmidt against the first standard unit (preference order i, j, k)
    not parallel to w.  A remainder shorter than 1e-3 of its unit axis is
    rounding noise and the axis is skipped; the least aligned axis keeps a
    remainder of at least sqrt(2/3).
    """
    if not w.is_imaginary() or w.is_zero():
        raise ValueError("need a nonzero purely imaginary quaternion")
    n2 = w.norm2()
    for e in (QI, QJ, QK):
        cand = e.to_float()
        g = cand - w * (cand.dot(w) / n2)
        if g.norm2() > 1e-6:
            return g / g.norm()
    raise ValueError("no orthogonal direction found")  # unreachable for nonzero w


@dataclass(frozen=True)
class QuatSolution:
    """Witness pair for p(ab) - p(ba) = v, with the scalar root used, the
    difference d = p(ab) - p(ba) and residual = |d - v|, as checked."""

    a: Quaternion
    b: Quaternion
    t: float
    residual: float
    difference: Quaternion


@dataclass(frozen=True)
class QuatFactorization:
    """Witness pairs (a_i, b_i), their differences d_i = p(a_i b_i) -
    p(b_i a_i) as factors, and residual = |d1 d2 - alpha|, as checked."""

    pairs: tuple
    factors: tuple
    residual: float


def solve_poly_commutator(p: Polynomial, v: Quaternion, tol: float = 1e-8) -> QuatSolution:
    """Find (a, b) with p(ab) - p(ba) = v for purely imaginary v.

    Writes w = t v/|v| where t solves 2 t h(t^2) = |v| for the odd factor h
    of p, with its shift s (0 when p has an odd-degree term, 1 when every
    term is even).  b is a unit imaginary direction orthogonal to v, so it
    anticommutes with w and b^2 = -1, and a = b (w - s) gives ab = s + w and
    ba = s - w.  The difference p(s + w) - p(s - w) collapses to
    (2 t h(t^2)) v/|v| = v.  The residual is checked against
    tol * (1 + |v|), which must be finite, before returning.
    """
    vf = v.to_float()
    vnorm = vf.norm()
    if abs(vf.w) > 1e-12 * (1.0 + vnorm):
        raise ValueError("target must be purely imaginary")
    return _solve_imaginary(p, vf.im(), vnorm, tol)


def _solve_imaginary(p: Polynomial, v: Quaternion, vnorm: float, tol: float) -> QuatSolution:
    """solve_poly_commutator for a float imaginary v whose magnitude vnorm
    the caller knows; the scalar equation is solved at vnorm."""
    if p.is_constant():
        raise ValueError("constant polynomial cannot reach a nonzero target")
    if v.is_zero():
        zero = Quaternion.of_floats()
        return QuatSolution(zero, zero, 0.0, 0.0, zero)

    factor = derive_odd_factor(p)
    t = solve_odd_equation(factor, vnorm)
    w = v * (t / vnorm)
    b = _orthogonal_imaginary(w)
    a = b * (w - factor.s)
    d = poly_commutator(p, a, b)
    residual = (d - v).norm()
    if not residual <= tol * (1.0 + vnorm) < math.inf:  # a nan residual or an inf bound fails
        raise VerificationError(
            f"solver residual {residual:.3e} exceeds {tol:.1e} * (1 + |v|)"
        )
    return QuatSolution(a, b, t, residual, d)


def factor_into_two_commutators(p: Polynomial, alpha: Quaternion, tol: float = 1e-8):
    """Two pairs whose differences multiply to alpha.

    Take u a unit imaginary quaternion orthogonal to Im(alpha) (j when alpha
    is real).  Then u^2 = -1, so alpha = u (-u alpha), and -u alpha is
    purely imaginary: its real part is u . Im(alpha) = 0.  Each factor is
    therefore a p-difference, solved at its known magnitude, 1 for u and
    |alpha| for -u alpha.  The differences the solver checked are the
    factors.  Returns the QuatFactorization, its residual checked against
    tol * (1 + |alpha|).
    """
    af = alpha.to_float()
    im = af.im()
    u = QJ.to_float() if im.is_zero() else _orthogonal_imaginary(im)
    first = _solve_imaginary(p, u, 1.0, tol)
    second = _solve_imaginary(p, (-(u * af)).im(), af.norm(), tol)
    d1, d2 = first.difference, second.difference
    residual = (d1 * d2 - af).norm()
    if not residual <= tol * (1.0 + af.norm()) < math.inf:
        raise VerificationError(
            f"two-factor residual {residual:.3e} exceeds {tol:.1e} * (1 + |alpha|)"
        )
    return QuatFactorization(((first.a, first.b), (second.a, second.b)), (d1, d2), residual)

