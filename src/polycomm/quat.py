"""Quaternions over exact rational or float components, and constructive
solutions of p(ab) - p(ba) = v inside the quaternions.

Every purely imaginary quaternion arises as such a difference for any
nonconstant real polynomial p, and every quaternion is a product of two
such differences; solve_poly_commutator and factor_into_two_commutators
build explicit witnesses and verify them before returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .poly import (
    _EXACT_TYPES,
    OddCase,
    Polynomial,
    derive_odd_factor,
    poly_commutator,
    solve_odd_equation,
)


class VerificationError(ArithmeticError):
    """A constructed witness failed its defining identity."""


class Quaternion:
    """w + x i + y j + z k with i^2 = j^2 = k^2 = ijk = -1.

    Components are all exact (int / Fraction) or all float; mixed arithmetic
    follows Python's numeric tower, so exact operands stay exact.
    """

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0, x=0, y=0, z=0):
        self.w = w
        self.x = x
        self.y = y
        self.z = z

    @classmethod
    def exact(cls, w=0, x=0, y=0, z=0) -> "Quaternion":
        return cls(*(c if isinstance(c, _EXACT_TYPES) else Fraction(c) for c in (w, x, y, z)))

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
        return Quaternion(self.w + o.w, self.x + o.x, self.y + o.y, self.z + o.z)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Quaternion(self.w - o.w, self.x - o.x, self.y - o.y, self.z - o.z)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.components()
        e, f, g, h = o.components()
        return Quaternion(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def __truediv__(self, scalar):
        if isinstance(scalar, (int, float, Fraction)):
            if isinstance(scalar, int) and self.is_exact():
                scalar = Fraction(scalar)  # keep int / int off the float path
            return Quaternion(*(c / scalar for c in self.components()))
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
        return Quaternion(*(c / n2 for c in self.conjugate().components()))

    def dot(self, other: "Quaternion"):
        return (
            self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z
        )

    def approx_eq(self, other: "Quaternion", tol: float = 1e-12) -> bool:
        return (self - other).norm() <= tol


ONE = Quaternion.exact(1)
QI = Quaternion.exact(0, 1)
QJ = Quaternion.exact(0, 0, 1)
QK = Quaternion.exact(0, 0, 0, 1)


def conjugate_by(g: Quaternion, q: Quaternion) -> Quaternion:
    """g q g^-1.  Preserves the real part for any nonzero g."""
    return g * q * g.inverse()


def _rational_sqrt(value: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    value = Fraction(value)
    if value < 0:
        return None
    rn = math.isqrt(value.numerator)
    rd = math.isqrt(value.denominator)
    if rn * rn == value.numerator and rd * rd == value.denominator:
        return Fraction(rn, rd)
    return None


def _orthogonal_imaginary(w: Quaternion) -> Quaternion:
    """Unit imaginary quaternion orthogonal to imaginary w.

    Gram-Schmidt against the first standard unit (preference order i, j, k)
    not parallel to w.  On the exact backend the result keeps exact
    components and is normalized only when its norm is rational; any
    nonzero scaling conjugates the same way, so callers never depend on
    unit length.
    """
    if not w.is_imaginary() or w.is_zero():
        raise ValueError("need a nonzero purely imaginary quaternion")
    n2 = w.norm2()
    for e in (QI, QJ, QK):
        cand = e if w.is_exact() else e.to_float()
        proj = cand.dot(w)
        scale = Fraction(proj) / Fraction(n2) if w.is_exact() else proj / n2
        g = cand - w * scale
        if not g.is_zero():
            if g.is_exact():
                root = _rational_sqrt(g.norm2())
                if root is not None:
                    g = g / root
            else:
                g = g / g.norm()
            return g
    raise ValueError("no orthogonal direction found")  # unreachable for nonzero w


def negating_conjugator(w: Quaternion) -> Quaternion:
    """b with b w b^-1 = -w, for nonzero purely imaginary w.

    Any unit imaginary b orthogonal to w anticommutes with it, which gives
    the sign flip.  Deterministic via the i, j, k preference order.
    """
    b = _orthogonal_imaginary(w)
    check = b * w - (-w) * b  # b w = -w b  <=>  b w b^-1 = -w
    if b.is_exact() and w.is_exact():
        if not check.is_zero():
            raise VerificationError("orthogonal direction failed to negate w")
    elif check.norm() > 1e-9 * (1.0 + w.norm()):
        raise VerificationError("orthogonal direction failed to negate w")
    return b


def complexifying_conjugator(alpha: Quaternion) -> Quaternion:
    """gamma with gamma^-1 alpha gamma = Re(alpha) + |Im(alpha)| i.

    Built from the half-angle rotation taking i to the imaginary axis of
    alpha: gamma = 1 - n i for unit axis n, except gamma = j when n is
    close to -i (there 1 - n i degenerates).  Returns 1 when alpha is real
    or already along i.  On the exact backend the imaginary norm must be
    rational for the target to be representable; otherwise a ValueError
    asks for the float backend.
    """
    im = alpha.im()
    if im.is_zero():
        return ONE if alpha.is_exact() else ONE.to_float()
    if alpha.is_exact():
        root = _rational_sqrt(im.norm2())
        if root is None:
            raise ValueError(
                "imaginary norm is irrational; convert to the float backend first"
            )
        n = im / root
        one = ONE
        unit_i, unit_j = QI, QJ
    else:
        n = im / im.norm()
        one = ONE.to_float()
        unit_i, unit_j = QI.to_float(), QJ.to_float()
    if n == unit_i:
        return one
    if n.x >= -0.5:
        gamma = one - n * unit_i
    else:
        # reflect n across the i axis first so 1 - n' i stays well away from 0
        n_ref = conjugate_by(unit_j, n)
        gamma = unit_j * (one - n_ref * unit_i)
    if not gamma.is_exact():
        gamma = gamma / gamma.norm()
    return gamma


@dataclass(frozen=True)
class QuatSolution:
    """Witness pair for p(ab) - p(ba) = v, with the scalar root used."""

    a: Quaternion
    b: Quaternion
    t: float
    residual: float


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
    of p.  With an odd-degree term present, b is a unit imaginary direction
    orthogonal to v and a = b w, so ab = w and ba = -w.  With only
    even-degree terms, b negates w under conjugation and a = (1 + w) b^-1,
    so ab = 1 + w and ba = 1 - w.  Either way the difference collapses to
    (2 t h(t^2)) v/|v| = v.  The residual is checked against
    tol * (1 + |v|) before returning.
    """
    if p.is_constant():
        raise ValueError("constant polynomial cannot reach a nonzero target")
    vf = v.to_float()
    vnorm = vf.norm()
    if abs(vf.w) > 1e-12 * (1.0 + vnorm):
        raise ValueError("target must be purely imaginary")
    vf = vf.im()
    if vf.is_zero():
        zero = Quaternion.of_floats()
        return QuatSolution(zero, zero, 0.0, 0.0)

    factor = derive_odd_factor(p)
    t = solve_odd_equation(factor, vnorm)
    w = vf * (t / vnorm)

    if factor.case is OddCase.HAS_ODD_TERM:
        b = _orthogonal_imaginary(w)
        a = b * w
    else:
        b = negating_conjugator(w)
        a = (1.0 + w) * b.inverse()

    residual = (poly_commutator(p, a, b) - vf).norm()
    if residual > tol * (1.0 + vnorm):
        raise VerificationError(
            f"solver residual {residual:.3e} exceeds {tol:.1e} * (1 + |v|)"
        )
    return QuatSolution(a, b, t, residual)


def factor_into_two_commutators(p: Polynomial, alpha: Quaternion, tol: float = 1e-8):
    """Two pairs whose differences multiply to alpha.

    With a1 = Re(alpha) and N = |Im(alpha)|, the canonical form satisfies
    a1 + N i = j (-a1 j + N k), and both j and -a1 j + N k are purely
    imaginary, so each is a p-difference.  Conjugating the witness pairs by
    gamma (which maps the canonical form back to alpha) keeps them
    witnesses, since gamma p(ab)-p(ba) gamma^-1 = the same expression in
    the conjugated pair.  Returns the QuatFactorization, its residual
    checked against tol * (1 + |alpha|).
    """
    af = alpha.to_float()
    gamma = complexifying_conjugator(af)
    targets = (QJ.to_float(), Quaternion.of_floats(0.0, 0.0, -af.w, af.im().norm()))
    pairs = []
    for target in targets:
        sol = solve_poly_commutator(p, target, tol)
        pairs.append((conjugate_by(gamma, sol.a), conjugate_by(gamma, sol.b)))

    d1, d2 = (poly_commutator(p, a, b) for a, b in pairs)
    residual = (d1 * d2 - af).norm()
    if residual > tol * (1.0 + af.norm()):
        raise VerificationError(
            f"two-factor residual {residual:.3e} exceeds {tol:.1e} * (1 + |alpha|)"
        )
    return QuatFactorization(tuple(pairs), (d1, d2), residual)


_POWER_GAP_CANDIDATES = (
    (QI, QJ),
    (QI, QI + QJ),
    (ONE + QI, ONE + QJ),
    (ONE + 2 * QI, ONE + 2 * QJ),
)


def power_gap_witness(n: int):
    """First candidate pair (alpha, beta) with (alpha beta)^n != (beta alpha)^n.

    Checked exactly; the last candidate has an imaginary angle that is an
    irrational multiple of pi, so some pair succeeds for every n >= 1.
    """
    if n < 1:
        raise ValueError("power must be at least 1")
    for alpha, beta in _POWER_GAP_CANDIDATES:
        if (alpha * beta) ** n != (beta * alpha) ** n:
            return alpha, beta
    raise VerificationError(f"no candidate separates powers at n = {n}")
