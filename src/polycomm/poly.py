"""Polynomials over exact rational or float scalars, and their evaluation
(p(x) and p(ab) - p(ba)) on every ring that takes those scalars centrally.

Also houses the odd-part reduction used by the quaternion solver: for a
nonconstant real polynomial p and a purely imaginary quaternion w, the
differences p(1 + w) - p(1 - w) (when p has only even-degree terms) and
p(w) - p(-w) (when p has an odd-degree term) both collapse to
2 * h(|w|^2) * w for a real polynomial h read off from the coefficients
of p.  solve_odd_equation then solves the scalar equation
2 * t * h(t^2) = target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence, Union

Scalar = Union[int, Fraction, float]

_EXACT_TYPES = (int, Fraction)


class BracketError(ArithmeticError):
    """Raised when no sign change is found while scanning for a root."""


def _exact(c) -> bool:
    return isinstance(c, _EXACT_TYPES)


class Polynomial:
    """Dense univariate polynomial, constant term first.

    Coefficients are either exact (int / Fraction) or float.  Trailing zero
    coefficients are trimmed, so the leading coefficient of a nonzero
    polynomial is nonzero and degree == len(coeffs) - 1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar]):
        cs = list(coeffs)
        if not cs:
            raise ValueError("a polynomial needs at least one coefficient")
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def exact(cls, coeffs: Sequence[Scalar]) -> "Polynomial":
        """Build with every coefficient coerced to an exact rational."""
        return cls([c if isinstance(c, _EXACT_TYPES) else Fraction(c) for c in coeffs])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_constant(self) -> bool:
        return self.degree == 0

    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == 0

    def is_exact(self) -> bool:
        return all(_exact(c) for c in self.coeffs)

    def __call__(self, x):
        return eval_poly(self, x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


def eval_poly(p: Polynomial, x):
    """Evaluate p at a ring element x by Horner's rule.

    x is an element of a unital ring that takes p's scalar coefficients
    centrally through + and *: an int, Fraction, float or complex, a
    Quaternion, or a GenericMatrix (where c * m scales and m + c adds c to
    the diagonal).  A constant p gives c * x**0, so a matrix gets c I.
    numpy arrays act entry by entry; norms.poly_commutator_array is their
    evaluator.
    """
    cs = p.coeffs
    acc = cs[-1]
    if len(cs) == 1:
        return acc * x**0
    for c in cs[-2::-1]:
        acc = acc * x + c
    return acc


def poly_commutator(p: Polynomial, a, b):
    """p(ab) - p(ba) over any ring eval_poly serves."""
    return eval_poly(p, a * b) - eval_poly(p, b * a)


class OddCase(Enum):
    EVEN_ONLY = "even-only"
    HAS_ODD_TERM = "has-odd-term"


@dataclass(frozen=True)
class OddFactor:
    """Reduced scalar data for the imaginary-target construction.

    h is a real polynomial in tau = t^2 such that, for purely imaginary w
    with |w|^2 = tau:
      - HAS_ODD_TERM:  p(w) - p(-w) = 2 * h(tau) * w
      - EVEN_ONLY:     p(s + w) - p(s - w) = 2 * h(tau) * w  with s = 1
    """

    case: OddCase
    h: Polynomial
    s: int = 1


def derive_odd_factor(p: Polynomial) -> OddFactor:
    """Extract the odd factor h from a nonconstant real polynomial.

    With an odd-degree term present, h collects the odd coefficients:
    h(tau) = sum_m c_{2m+1} (-1)^m tau^m.  Otherwise every term has even
    degree 2m and the binomial expansion of (1 + w)^{2m} - (1 - w)^{2m}
    contributes C(2m, 2r+1) (-1)^r tau^r for each odd power 2r+1 <= 2m.
    Either way the leading coefficient of h is nonzero.
    """
    if p.is_constant():
        raise ValueError("constant polynomial has no odd factor")
    odd = p.coeffs[1::2]
    zero = 0 if p.is_exact() else 0.0
    if any(c != 0 for c in odd):
        hs = [c * (-1) ** m for m, c in enumerate(odd)]
        return OddFactor(OddCase.HAS_ODD_TERM, Polynomial(hs))
    top = p.degree // 2
    hs = [zero] * top
    for m in range(1, top + 1):
        c = p.coeffs[2 * m]
        if c == 0:
            continue
        for r in range(m):
            hs[r] = hs[r] + c * math.comb(2 * m, 2 * r + 1) * (-1) ** r
    return OddFactor(OddCase.EVEN_ONLY, Polynomial(hs))


def _scan_axes(qf, target: float, k_max: int):
    """Yield a sign-change bracket (lo, hi, f_lo, f_hi) or an exact root.

    Positive axis first, then negative; points 0, +-2^k for k from -40 up.
    q(0) = -target < 0 anchors each axis.
    """
    for sign in (1.0, -1.0):
        prev_t, prev_v = 0.0, -target
        for k in range(-40, k_max + 1):
            t = sign * 2.0**k
            v = qf(t)
            if v == 0.0:
                return ("root", t)
            if (v > 0.0) != (prev_v > 0.0):
                lo, hi = (prev_t, t) if prev_t < t else (t, prev_t)
                flo, fhi = (prev_v, v) if prev_t < t else (v, prev_v)
                return ("bracket", lo, hi, flo, fhi)
            prev_t, prev_v = t, v
    return None


def solve_odd_equation(factor: OddFactor, target: float, tol: float = 1e-12) -> float:
    """Solve 2 t h(t^2) = target for real t; target must be >= 0.

    The left side is an odd polynomial of odd degree with nonzero leading
    coefficient, so a solution always exists.  The scan walks t = +-2^k,
    k = -40..40 (positive axis first), bisects the first bracket to 1e-15
    absolute width, then polishes with Newton steps until the residual
    drops under tol * (1 + target) or stops improving.  t is 0 exactly
    when target is 0, and comes out negative when the positive axis never
    reaches the target.
    """
    if target < 0:
        raise ValueError("target must be nonnegative")
    h = factor.h
    if h.is_zero():
        raise ValueError("odd factor is identically zero")
    if target == 0:
        return 0.0

    hf = [float(c) for c in h.coeffs]
    q_coeffs = [0.0] * (2 * len(hf))
    for m, c in enumerate(hf):
        q_coeffs[2 * m + 1] = 2.0 * c
    q = Polynomial(q_coeffs)
    dq = Polynomial([k * c for k, c in enumerate(q_coeffs)][1:])

    def qf(t: float) -> float:
        return eval_poly(q, t) - target

    found = _scan_axes(qf, target, 40)
    if found is None:
        found = _scan_axes(qf, target, 1023)
    if found is None:
        raise BracketError(
            f"no sign change for target {target!r} with |t| scanned up to 2**1023"
        )
    if found[0] == "root":
        return found[1]

    _, lo, hi, flo, fhi = found
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = qf(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fhi > 0.0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    t0 = 0.5 * (lo + hi)
    if not (lo < t0 < hi):
        t0 = lo if abs(flo) <= abs(fhi) else hi

    best, best_q = t0, abs(qf(t0))
    for _ in range(3):
        if best_q <= tol * (1.0 + target):
            break
        d = eval_poly(dq, best)
        if d == 0.0 or not math.isfinite(d):
            break
        t1 = best - qf(best) / d
        if not math.isfinite(t1):
            break
        q1 = abs(qf(t1))
        if q1 >= best_q:
            break
        best, best_q = t1, q1
    return best
