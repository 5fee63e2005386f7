"""Polynomials over exact rational or float scalars, and their evaluation
(p(x), p(ab) - p(ba), p(x) - p(y)) on every ring taking them centrally.

Also houses the odd-part reduction used by the quaternion solver: for a
nonconstant real polynomial p and a purely imaginary quaternion w, the
difference p(s + w) - p(s - w) collapses to 2 * h(|w|^2) * w for a real
shift s (0 when p has an odd-degree term, 1 when every term is even) and
a real polynomial h read off from the coefficients of p.
solve_odd_equation then solves the scalar equation 2 * t * h(t^2) = target.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
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
    """
    cs = p.coeffs
    acc = cs[-1]
    if len(cs) == 1:
        return acc * x**0
    for c in cs[-2::-1]:
        acc = acc * x + c
    return acc


def poly_commutator(p: Polynomial, a, b):
    """p(ab) - p(ba) by two Horner values: the float quaternion witness checks,
    until they are judged exactly, and the names bench/tracer.py resolves."""
    return eval_poly(p, a * b) - eval_poly(p, b * a)


def poly_difference(p: Polynomial, x, y):
    """p(x) - p(y) over any ring eval_poly serves, as sum_i c_i t_i over i >= 1
    with t_i = x^i - y^i telescoped: t_1 = u_1 = x - y, u_i = x u_(i-1) and
    t_i = t_(i-1) y + u_i, 2 (d - 1) products at degree d.  Every term is a
    multiple of x - y, so c_0 never enters and no large Horner partial sum
    cancels.  A constant p gives 0 * x**0 without reading x - y: the ring's
    zero, +0.0 in every float entry, even where x - y is not finite."""
    if p.is_constant():
        return 0 * x**0
    term = step = x - y
    out = term - term
    for i, c in enumerate(p.coeffs[1:], 1):
        if i > 1:
            step = x * step
            term = term * y + step
        if c != 0:
            out = out + c * term
    return out


@dataclass(frozen=True)
class OddFactor:
    """Reduced scalar data for the imaginary-target construction.

    h is a real polynomial in tau = t^2 and s a real shift, 0 when p has an
    odd-degree term and 1 when every term is even, such that for purely
    imaginary w with |w|^2 = tau:  p(s + w) - p(s - w) = 2 * h(tau) * w.
    """

    h: Polynomial
    s: int


def derive_odd_factor(p: Polynomial) -> OddFactor:
    """Extract the odd factor h, and its shift s, from a nonconstant real
    polynomial.

    With an odd-degree term present, s = 0 and h collects the odd
    coefficients: h(tau) = sum_m c_{2m+1} (-1)^m tau^m.  Otherwise s = 1,
    every term has even degree 2m, and the binomial expansion of
    (1 + w)^{2m} - (1 - w)^{2m} contributes C(2m, 2r+1) (-1)^r tau^r for
    each odd power 2r+1 <= 2m.  Either way the leading coefficient of h is
    nonzero.
    """
    if p.is_constant():
        raise ValueError("constant polynomial has no odd factor")
    odd = p.coeffs[1::2]
    zero = 0 if p.is_exact() else 0.0
    if any(c != 0 for c in odd):
        hs = [c * (-1) ** m for m, c in enumerate(odd)]
        return OddFactor(Polynomial(hs), 0)
    top = p.degree // 2
    hs = [zero] * top
    for m in range(1, top + 1):
        c = p.coeffs[2 * m]
        if c == 0:
            continue
        for r in range(m):
            hs[r] = hs[r] + c * math.comb(2 * m, 2 * r + 1) * (-1) ** r
    return OddFactor(Polynomial(hs), 1)


# Powers of two the scan for a root of 2 t h(t^2) = target may visit:
# t = +-2^k for k from _K_MIN (the first point after t = 0) up to _K_MAX.
_K_MIN, _K_MAX = -40, 1023


def _scan_range(q: Polynomial, target: float) -> tuple[int, int]:
    """First and last k where q(+-2^k) - target can first change sign.

    With m nonzero terms a_k t^k in q, L = min_k (target / (2 m |a_k|))^(1/k)
    halved once more is a Cauchy-type lower root bound (Fujiwara, Tohoku
    Math. J. 10, 1916): for |t| <= L the terms sum to at most target / 4,
    so every float q(t) - target there is negative and never 0.0.  With
    a_0 = -target, n the degree and B = max_j |a_(n-j) / a_n|^(1/j), the
    leading term outweighs the others three to one for |t| >= 4B, so from
    there on the float sign, +-inf included, is the leading sign.  Both
    hold once target and every |a_k| are normal floats and 2 sum |a_k| is
    finite (no Horner intermediate overflows or loses its relative
    precision); otherwise the whole range _K_MIN.._K_MAX is returned.  A
    target of inf or nan makes q(t) - target -inf or nan everywhere, so
    the range is empty.  Bounds are taken in log2, where no quotient
    overflows or underflows.
    """
    if not math.isfinite(target):
        return _K_MAX + 1, _K_MAX
    terms = [(k, abs(c)) for k, c in enumerate(q.coeffs) if c != 0]
    sizes = [a for _, a in terms]
    if (
        not terms
        or min(target, *sizes) < sys.float_info.min
        or not math.isfinite(2.0 * sum(sizes))
    ):
        return _K_MIN, _K_MAX
    log_target, log_2m = math.log2(target), math.log2(2 * len(terms))
    log_l = min((log_target - log_2m - math.log2(a)) / k for k, a in terms) - 1.0
    n, log_lead = terms[-1][0], math.log2(terms[-1][1])
    log_b = max(
        (math.log2(a) - log_lead) / (n - k) for k, a in [(0, target)] + terms[:-1]
    )
    k0 = max(_K_MIN, math.floor(log_l))
    return k0, min(_K_MAX, max(k0, math.ceil(log_b) + 2))


def _scan_axes(qf, target: float, k_lo: int, k_hi: int):
    """Return a sign-change bracket (lo, hi, f_lo, f_hi), an exact root, or None.

    Positive axis first, then negative; points +-2^k for k = k_lo..k_hi,
    each axis anchored at q(0) = -target < 0.  Every +-2^k with k < k_lo
    lies below the lower root bound or was walked without a sign change,
    so a bracket reaching 0 bisects first to +-2^(k_lo - 1): the bracket a
    walk from _K_MIN finds.
    """
    for sign in (1.0, -1.0):
        prev_t, prev_v = 0.0, -target
        for k in range(k_lo, k_hi + 1):
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


_NEWTON_TOL = 1e-12


def solve_odd_equation(factor: OddFactor, target: float) -> float:
    """Solve 2 t h(t^2) = target for real t; target must be >= 0.

    The left side is an odd polynomial of odd degree with nonzero leading
    coefficient, so a solution always exists.  The scan walks t = +-2^k
    (positive axis first), k = -40..40 and then, when no sign changes,
    k = 41..1023.  On each axis it starts at the lower root bound and stops
    at the upper one of _scan_range: below the first every point is
    negative and above the second every point has the leading sign, so the
    first sign change and its bracket are those of the walk over every k.
    The first bracket is bisected to 1e-15 absolute width, then polished
    with Newton steps until the residual drops under _NEWTON_TOL *
    (1 + target) or stops improving.  t is 0 exactly when target is 0, and
    comes out negative when the positive axis never reaches the target.
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

    k0, k1 = _scan_range(q, target)
    found = _scan_axes(qf, target, k0, min(k1, 40))
    if found is None:
        found = _scan_axes(qf, target, max(k0, 41), k1)
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

    best, best_v = t0, qf(t0)
    for _ in range(3):
        if abs(best_v) <= _NEWTON_TOL * (1.0 + target):
            break
        d = eval_poly(dq, best)
        if d == 0.0 or not math.isfinite(d):
            break
        t1 = best - best_v / d
        if not math.isfinite(t1):
            break
        v1 = qf(t1)
        if abs(v1) >= abs(best_v):
            break
        best, best_v = t1, v1
    return best
