"""Norm inequalities for polynomial commutators over complex matrices.

The bound checkers compare ||p(AB) - p(BA)|| against commutator-controlled
right-hand sides: a Frobenius bound through the telescoped expansion, a
numerical-radius variant with 4^k growth, and a sphere-average form whose
n * average of ||[A,B] v||^2 over unit vectors is read off as ||[A,B]||_F^2
(spherical_average tests that identity by Monte Carlo).  A violated bound
is a build-breaking event, so every checker reports the full comparison,
not just a verdict.  The operator norm is LAPACK's SVD; the numerical
radius is a 32-direction eigenvalue grid refined by batched Newton steps on
the top eigenvalue and certified by a level-set test, which proves it
within 1e-12 relative of the true value (see numerical_radius).
p(AB) - p(BA) itself is eval_poly, the evaluator every other ring uses, on
the products AB and BA as CC matrices; a checker forms each product once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .matrix import CC, GenericMatrix
from .poly import Polynomial, eval_poly
from .sampling import complex_gaussian_matrix, np_stream

_REL_SLACK = 1e-10
# numerical_radius's circle grid, its Newton windows and its level-set rounds
_GRID_POINTS, _WINDOWS, _ROUNDS = 32, 3, 8
_ROWS = 2048  # spherical_average's row block: its complex temporaries are _ROWS x n


MatrixLike = Union[GenericMatrix, np.ndarray, Sequence[Sequence]]


def as_complex_array(a: MatrixLike) -> np.ndarray:
    """Finite square complex ndarray from a GenericMatrix, ndarray, or nested
    list.  A QQ or CC matrix is read off its component form, parts[0] / den;
    an exact entry past the double range is an OverflowError."""
    if isinstance(a, GenericMatrix):
        if a.ring.name.startswith("quaternion"):
            raise ValueError("norm computations need a complex or rational backend")
        parts, den = a.component_form()
        a = parts[0] / den
    return _checked(np.asarray(a, dtype=np.complex128))


def _checked(arr: np.ndarray) -> np.ndarray:
    """arr itself, once it is a nonempty square matrix of finite entries."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError("expected a nonempty square matrix")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite input: matrix entries must be finite numbers")
    return arr


def _coeffs(p) -> list:
    if isinstance(p, Polynomial):
        return [complex(float(c)) for c in p.coeffs]
    return [complex(c) for c in p]


def _nonconstant_coeffs(p) -> list:
    cs = _coeffs(p)
    if len(cs) < 2 or all(c == 0 for c in cs[1:]):
        raise ValueError("the bound needs a nonconstant polynomial")
    return cs


def frobenius_norm(a: MatrixLike) -> float:
    """sqrt(sum |a_ij|^2), recomputed on A / max|a_ij| when the squares leave
    the double range (norms above about 1e154 or below about 1e-162)."""
    return _frobenius(as_complex_array(a))


def _frobenius(arr: np.ndarray) -> float:
    with np.errstate(over="ignore"):
        value = float(np.sqrt((np.abs(arr) ** 2).sum()))
        if math.isfinite(value) and (value or not arr.any()):
            return value
        top = float(np.abs(arr).max())
        return top * float(np.sqrt((np.abs(arr / top) ** 2).sum()))


def commutator_array(a: MatrixLike, b: MatrixLike) -> np.ndarray:
    x = as_complex_array(a)
    y = as_complex_array(b)
    return x @ y - y @ x


def poly_commutator_array(p, a: MatrixLike, b: MatrixLike) -> np.ndarray:
    """p(AB) - p(BA) as a complex ndarray, by poly.eval_poly on AB and BA as
    CC matrices.  p is a Polynomial or a coefficient list, constant first."""
    x, y = as_complex_array(a), as_complex_array(b)
    with np.errstate(over="ignore", invalid="ignore"):
        return _poly_commutator(p, x @ y, y @ x)


def _poly_commutator(p, xy: np.ndarray, yx: np.ndarray) -> np.ndarray:
    """p(XY) - p(YX) from the products XY and YX, which the caller holds."""
    xy, yx = (GenericMatrix._of_parts(CC, m[None]) for m in (xy, yx))
    if not isinstance(p, Polynomial):
        p = Polynomial(p)
    with np.errstate(over="ignore", invalid="ignore"):
        out = (eval_poly(p, xy) - eval_poly(p, yx)).component_form()[0][0]
    if not np.isfinite(out).all():
        raise ValueError(
            "p(AB) - p(BA) exceeds the double range (about 1.8e308); scale the"
            " polynomial or the matrices down"
        )
    return out


def operator_norm(a: MatrixLike) -> float:
    """Largest singular value by LAPACK's SVD, which scales the double range."""
    return float(np.linalg.norm(as_complex_array(a), 2))


def _rotations(arr: np.ndarray, thetas: np.ndarray):
    """e^(i theta) A and its adjoint, stacked over thetas."""
    rotated = np.exp(1j * thetas)[:, None, None] * arr[None, :, :]
    return rotated, rotated.conj().transpose(0, 2, 1)


def _hermitian_parts(arr: np.ndarray, thetas: np.ndarray):
    """Herm(e^(i theta) A) and its theta-derivative, stacked over thetas."""
    rotated, adjoint = _rotations(arr, thetas)
    return (rotated + adjoint) / 2.0, (rotated - adjoint) * 0.5j


def _newton_peaks(arr: np.ndarray, centers: np.ndarray, step: float) -> float:
    """Largest f(theta) = lambda_max(H(theta)) that safeguarded Newton evaluates in
    the windows [c - step, c + step]: one batched eigh per iteration, at most 16,
    until every step is below 1e-9 radians.  With x the top eigenvector and
    (lambda_j, v_j) the others, f' = x* H' x (Hellmann-Feynman) and, as H'' = -H,
    f'' = -f + 2 sum_j |v_j* H' x|^2 / (f - lambda_j).  The sign of f' shrinks the
    window; a step that leaves it, or f'' >= 0 (a double top eigenvalue), bisects."""
    theta, lo, hi = centers, centers - step, centers + step
    best = -math.inf
    for _ in range(16):
        herm, dherm = _hermitian_parts(arr, theta)
        lam, vec = np.linalg.eigh(herm)
        top = lam[:, -1]
        best = max(best, float(top.max()))
        proj = (vec.conj().transpose(0, 2, 1) @ dherm @ vec[:, :, -1:])[:, :, 0]
        slope = proj[:, -1].real
        with np.errstate(divide="ignore", invalid="ignore"):
            gaps = top[:, None] - lam[:, :-1]
            curve = -top + 2.0 * (np.abs(proj[:, :-1]) ** 2 / gaps).sum(axis=1)
            newton = theta - slope / curve
        lo = np.where(slope > 0, theta, lo)
        hi = np.where(slope < 0, theta, hi)
        inside = (curve < 0) & (lo <= newton) & (newton <= hi)
        nxt = np.where(inside, newton, (lo + hi) / 2.0)
        moving = np.abs(nxt - theta) >= 1e-9
        if not moving.any():
            break
        theta, lo, hi = nxt[moving], lo[moving], hi[moving]
    return best


def _unit_scaled(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """(A / 2^e, e) with e the binary exponent of A's largest real or imaginary
    part, so that part lands in [1/2, 1).  Only exponents change, so the
    scaling is exact for every part that does not fall below the double range."""
    exponent = math.frexp(max(np.abs(arr.real).max(), np.abs(arr.imag).max()))[1]
    return np.ldexp(arr.real, -exponent) + 1j * np.ldexp(arr.imag, -exponent), exponent


def _level_crossings(arr: np.ndarray, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Angles theta, with their f(theta), at which f reaches level; empty when
    level exceeds max f.  level must exceed f(pi) = -lambda_min(H).

    With H = (A + A*)/2 and K = (A - A*)/2, H(theta) = cos(theta) H + i sin(theta) K
    has the eigenvalue level exactly when s = i tan(theta/2) solves
    det(s^2 (H + level I) + 2 s K + (H - level I)) = 0, the Cayley transform of
    det(z^2 A - 2 level z I + A*) = 0 at z = e^(i theta) (Mengi & Overton, IMA J.
    Numer. Anal. 25, 2005).  H + level I = L L* is positive definite, so one
    eigvals of the 2n x 2n companion of s^2 I + 2 s M + N, with M = L^-1 K L^-*
    and N = L^-1 (H - level I) L^-*, gives every s.  Those near the imaginary
    axis, and the midpoints of adjacent ones on the circle, are checked by one
    direct eigvalsh: the tolerance on |Re s| only sets how many angles are
    checked, and a peak above level shows at the midpoint of its crossings."""
    n = arr.shape[0]
    herm, skew = (arr + arr.conj().T) / 2.0, (arr - arr.conj().T) / 2.0
    try:
        inv = np.linalg.inv(np.linalg.cholesky(herm + level * np.eye(n)))
    except np.linalg.LinAlgError:
        raise ArithmeticError(
            "numerical_radius: the level-set test needs a level above f(pi)"
        ) from None
    companion = np.zeros((2 * n, 2 * n), dtype=complex)
    companion[:n, n:] = np.eye(n)
    companion[n:, :n] = -inv @ (herm - level * np.eye(n)) @ inv.conj().T
    companion[n:, n:] = -2.0 * inv @ skew @ inv.conj().T
    s = np.linalg.eigvals(companion)
    # rounding moves a crossing about 1e-13 off the axis; a peak 1e-12 below
    # level splits its pair about 1e-6 off, which is then not checked
    near = np.sort(2.0 * np.arctan(s[np.abs(s.real) <= 1e-8 * (1.0 + np.abs(s))].imag))
    if not near.size:
        return near, near
    mids = (near + np.append(near[1:], near[0] + 2.0 * math.pi)) / 2.0
    thetas = np.concatenate([near, mids])
    rotated, adjoint = _rotations(arr, thetas)
    tops = np.linalg.eigvalsh((rotated + adjoint) / 2.0)[:, -1]
    return thetas[tops >= level], tops[tops >= level]


def numerical_radius(a: MatrixLike) -> float:
    """max over unit vectors of |v* A v| = max over theta of f(theta), the top
    eigenvalue of H(theta) = Herm(e^(i theta) A).  One batched eigvalsh on a half
    circle gives the whole grid of _GRID_POINTS, as H(theta + pi) = -H(theta).
    The best _WINDOWS grid points, pairwise more than one step apart, are refined
    by safeguarded Newton where they are local maxima.  With r the largest f
    evaluated, the level-set test (_level_crossings) at r (1 + 1e-12) then
    proves w(A) < r (1 + 1e-12), or finds angles above that level, from which
    Newton restarts and the test runs again, at most _ROUNDS times; past that
    an ArithmeticError is raised, and no uncertified radius is returned.  The
    result, the largest f evaluated, is thus within 1e-12 r below w(A) and
    above it by rounding at most.  The work runs on A / 2^e, an exact
    power-of-two scaling, so the whole double range works."""
    arr = as_complex_array(a)
    if not arr.any():
        return 0.0
    arr, exponent = _unit_scaled(arr)
    step = 2.0 * math.pi / _GRID_POINTS
    rotated, adjoint = _rotations(arr, step * np.arange(_GRID_POINTS // 2))
    lam = np.linalg.eigvalsh((rotated + adjoint) / 2.0)
    tops = np.concatenate([lam[:, -1], -lam[:, 0]])
    chosen: list[int] = []
    for idx in map(int, np.argsort(tops)[::-1]):
        if all(min(abs(idx - c), _GRID_POINTS - abs(idx - c)) > 1 for c in chosen):
            chosen.append(idx)
        if len(chosen) >= _WINDOWS:
            break
    peak = (tops >= np.roll(tops, 1)) & (tops >= np.roll(tops, -1))
    centers = step * np.array([i for i in chosen if peak[i]])
    best = max(float(tops.max()), _newton_peaks(arr, centers, step))
    # the test runs on e^(i turn) A, whose f(pi) is the grid's lowest f, so
    # that H + level I is as far from singular as the grid can tell
    turn = step * int(np.argmin(tops)) - math.pi
    for _ in range(_ROUNDS):
        above, values = _level_crossings(np.exp(1j * turn) * arr, best * (1.0 + 1e-12))
        if not above.size:
            return math.ldexp(best, exponent)
        best = max(best, float(values.max()), _newton_peaks(arr, above + turn, step))
    raise ArithmeticError(
        f"numerical_radius: the level-set test still found a larger value after"
        f" {_ROUNDS} rounds"
    )


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality: satisfied means lhs <= rhs * (1 + 1e-10),
    exactly as stated, as every right side is computed, not estimated."""

    lhs: float
    rhs: float
    satisfied: bool
    ratio: float
    n: int
    degree: int
    seed: Optional[int] = None


def _report(lhs, rhs, n, degree, seed=None) -> BoundReport:
    satisfied = lhs <= rhs * (1.0 + _REL_SLACK)
    if rhs > 0.0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0.0 else math.inf
    return BoundReport(lhs, rhs, satisfied, ratio, n, degree, seed)


_DOUBLE_RANGE = (
    "a norm in the bound exceeds the double range (about 1.8e308); scale the"
    " polynomial or the matrices down"
)


def _in_double_range(check):
    """Run a bound checker with numpy overflow warnings off.  A float
    OverflowError, or a side of the bound that is not finite, becomes a
    ValueError naming the double range instead of a warning and an
    unprintable report."""

    @functools.wraps(check)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                report = check(*args, **kwargs)
        except OverflowError:
            report = None
        if report is None or not all(map(math.isfinite, (report.lhs, report.rhs))):
            raise ValueError(f"{check.__name__}: {_DOUBLE_RANGE}")
        return report

    return checked


@_in_double_range
def check_bottcher_wenzel(a: MatrixLike, b: MatrixLike, seed=None) -> BoundReport:
    """||AB - BA||_F^2 <= 2 ||A||_F^2 ||B||_F^2.

    Squared norms are summed directly, skipping the sqrt/square round trip
    so the equality pair comes out exact."""
    x = as_complex_array(a)
    y = as_complex_array(b)
    c = x @ y - y @ x
    lhs = float((np.abs(c) ** 2).sum())
    rhs = 2.0 * float((np.abs(x) ** 2).sum()) * float((np.abs(y) ** 2).sum())
    return _report(lhs, rhs, x.shape[0], 1, seed)


def _weight_sum(p, fa: float, fb: float, base: float) -> float:
    """sum |c_k| k base^(2k-1) fa^(k-1) fb^(k-1): the growth factor of the
    bounds, base 1 for the Frobenius forms and 2 for the numerical radius."""
    cs = _coeffs(p)
    total = 0.0
    for k in range(1, len(cs)):
        total += abs(cs[k]) * k * base ** (2 * k - 1) * fa ** (k - 1) * fb ** (k - 1)
    return total


# The checkers below convert A and B once and work on the arrays.  They still
# enter numerical_radius and operator_norm by name, and these check their
# argument again: the benchmark's tracer times those two layers by name, and
# the checkers are their only callers.


@_in_double_range
def check_frobenius_bound(p, a: MatrixLike, b: MatrixLike, seed=None) -> BoundReport:
    """||p(AB)-p(BA)||_F <= ||[A,B]||_F * sum |c_k| k ||A||_F^(k-1) ||B||_F^(k-1).

    Follows from the telescoped expansion plus submultiplicativity of the
    Frobenius norm."""
    cs = _nonconstant_coeffs(p)
    x, y = as_complex_array(a), as_complex_array(b)
    xy, yx = x @ y, y @ x
    lhs = _frobenius(_poly_commutator(p, xy, yx))
    rhs = _frobenius(_checked(xy - yx)) * _weight_sum(p, _frobenius(x), _frobenius(y), 1.0)
    return _report(lhs, rhs, x.shape[0], len(cs) - 1, seed)


@_in_double_range
def check_numrad_bound(p, a: MatrixLike, b: MatrixLike, seed=None) -> BoundReport:
    """Numerical-radius analogue with the power-inequality growth factor:
    h(p(AB)-p(BA)) <= h([A,B]) * sum |c_k| k 4^k / 2 * h(A)^(k-1) h(B)^(k-1)."""
    cs = _nonconstant_coeffs(p)
    x, y = as_complex_array(a), as_complex_array(b)
    xy, yx = x @ y, y @ x
    total = _weight_sum(p, numerical_radius(x), numerical_radius(y), 2.0)
    lhs = numerical_radius(_poly_commutator(p, xy, yx))
    rhs = numerical_radius(xy - yx) * total
    return _report(lhs, rhs, x.shape[0], len(cs) - 1, seed)


@dataclass(frozen=True)
class SphereEstimate:
    samples: int
    mean: float
    std_error: float
    exact_value: float


def _sphere_moments(arr: np.ndarray, samples: int, seed: int) -> tuple[float, float]:
    """Mean and standard error of n ||A z||^2 / ||z||^2 over samples rows
    z = x + i y.  All of x is drawn first, then y block by block: the
    generator fills sequentially, so each block pairs the same rows of x and
    y as drawing both whole would."""
    n = arr.shape[0]
    gen = np_stream(seed, "sphere-average")
    x = gen.standard_normal((samples, n))
    block = np.empty((min(samples, _ROWS), n), dtype=complex)
    vals = np.empty(samples)
    for start in range(0, samples, _ROWS):
        z = block[: samples - start]
        z.real = x[start : start + _ROWS]
        z.imag = gen.standard_normal(z.shape)
        num = (np.abs(z @ arr.T) ** 2).sum(axis=1)
        den = (np.abs(z) ** 2).sum(axis=1)
        vals[start : start + _ROWS] = n * (num / den)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


def spherical_average(a: MatrixLike, samples: int, seed: int = 0) -> SphereEstimate:
    """Monte Carlo estimate of n * average of ||A v||^2 over unit vectors.

    Unit vectors are normalized standard complex Gaussians; the estimate
    converges to ||A||_F^2, reported as exact_value.  The per-sample value
    uses ||A z||^2 / ||z||^2, so A = identity gives exactly n at every
    sample and a zero standard error.

    The real parts of all samples are drawn first, in one samples x n call,
    then the imaginary parts _ROWS rows at a time into one reused _ROWS x n
    complex block; this order fixes the output bytes.  The only samples x n
    array is the 8 * samples * n bytes of real parts, so a call peaks near
    9.6 MiB at n = 16 and 64 000 samples and near 53 MiB at the CLI caps
    (n = 32, 200 000 samples).

    An A whose largest part is 1/2 or more is sampled as A / 2^e, the exact
    scaling numerical_radius uses, and the mean and standard error are
    scaled back by 4^e; A is never scaled up, so smaller inputs keep the
    bytes of the unscaled arithmetic.  The samples and their variance thus
    stay in range for entries past 1e77, and only a ||A||_F^2 past the double
    range (entries from about 1e154), or an estimate that overflows when
    scaled back, is a ValueError.
    """
    arr = as_complex_array(a)
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    scaled, exponent = _unit_scaled(arr)
    if exponent < 0:
        scaled, exponent = arr, 0
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        moments = _sphere_moments(scaled, samples, seed)
        exact_value = float((np.abs(arr) ** 2).sum())
    try:
        mean, std_error = (math.ldexp(v, 2 * exponent) for v in moments)
    except OverflowError:
        mean, std_error = math.inf, math.inf
    if not all(map(math.isfinite, (mean, std_error, exact_value))):
        raise ValueError(
            "sphere average out of range: ||A||_F^2 or its estimate exceeds the"
            " double range (about 1.8e308; entries from about 1e154 overflow)"
        )
    return SphereEstimate(samples, mean, std_error, exact_value)


@_in_double_range
def check_average_bound(p, a: MatrixLike, b: MatrixLike, seed: int = 0) -> BoundReport:
    """Sphere-average form of the Frobenius bound.

    ||p(AB)-p(BA)||_F^2 <= n * avg ||[A,B] v||^2 * (sum |c_k| k ||A||_2^(k-1) ||B||_2^(k-1))^2,
    with n * avg ||[A,B] v||^2 over unit vectors read off as ||[A,B]||_F^2,
    its exact value (the mean of Hutchinson's trace estimator for
    tr([A,B]* [A,B]), Hutchinson 1990), so nothing is sampled.  The bound is
    an equality for degree-one p.
    """
    cs = _nonconstant_coeffs(p)
    x, y = as_complex_array(a), as_complex_array(b)
    xy, yx = x @ y, y @ x
    total = _weight_sum(p, operator_norm(x), operator_norm(y), 1.0)
    lhs = _frobenius(_poly_commutator(p, xy, yx)) ** 2
    rhs = _frobenius(_checked(xy - yx)) ** 2 * total**2
    return _report(lhs, rhs, x.shape[0], len(cs) - 1, seed)


@dataclass(frozen=True)
class ConstantEstimate:
    """Largest observed ratios over a random sweep."""

    ratio_norm_product: float
    ratio_commutator: float
    trials: int
    skipped_near_commuting: int


def constant_sweep_rows(p, n: int, trials: int, seed: int = 0):
    """Per-trial rows behind empirical_constant (also used by the CLI)."""
    gen = np_stream(seed, "constants")
    degree = len(_coeffs(p)) - 1
    for trial in range(trials):
        a = complex_gaussian_matrix(gen, n)
        b = complex_gaussian_matrix(gen, n)
        lhs = frobenius_norm(poly_commutator_array(p, a, b))
        rhs = frobenius_norm(a) * frobenius_norm(b)
        comm_norm = frobenius_norm(commutator_array(a, b))
        row = {
            "trial": trial,
            "n": n,
            "degree": degree,
            "lhs": lhs,
            "rhs": rhs,
            "ratio": lhs / rhs if rhs > 0 else math.inf,
            "commutator_norm": comm_norm,
            "ratio_commutator": lhs / comm_norm if comm_norm >= 1e-12 else None,
        }
        if not all(math.isfinite(v) for v in row.values() if v is not None):
            raise ValueError(f"constant_sweep_rows: {_DOUBLE_RANGE}")
        yield row


def empirical_constant(p, n: int, trials: int, seed: int = 0) -> ConstantEstimate:
    """Max of ||p[A,B]||_F / (||A||_F ||B||_F) and of ||p[A,B]||_F / ||[A,B]||_F
    over seeded Gaussian trials; near-commuting pairs skip the second ratio."""
    if trials < 1:
        raise ValueError("need at least one trial")
    best1 = 0.0
    best2 = 0.0
    skipped = 0
    for row in constant_sweep_rows(p, n, trials, seed):
        best1 = max(best1, row["ratio"])
        if row["ratio_commutator"] is None:
            skipped += 1
        else:
            best2 = max(best2, row["ratio_commutator"])
    return ConstantEstimate(best1, best2, trials, skipped)
