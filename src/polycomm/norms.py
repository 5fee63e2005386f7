"""Norm inequalities for polynomial commutators over complex matrices.

The bound checkers compare ||p(AB) - p(BA)|| against commutator-controlled
right-hand sides: a Frobenius bound through the telescoped expansion, a
numerical-radius variant with 4^k growth, and a Monte Carlo form of the
sphere-average identity ||A||_F^2 = n * integral of ||A v||^2 over unit
vectors.  A violated bound is a build-breaking event, so every checker
reports the full comparison, not just a verdict.  The operator norm is
LAPACK's SVD; the numerical radius is a half-circle eigenvalue grid refined
by batched Newton steps on the top eigenvalue (see numerical_radius).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .matrix import GenericMatrix
from .poly import Polynomial
from .sampling import complex_gaussian_matrix, np_stream

_REL_SLACK = 1e-10


MatrixLike = Union[GenericMatrix, np.ndarray, Sequence[Sequence]]


def as_complex_array(a: MatrixLike) -> np.ndarray:
    """Finite square complex ndarray from a GenericMatrix, ndarray, or nested list."""
    if isinstance(a, GenericMatrix):
        if a.ring.name.startswith("quaternion"):
            raise ValueError("norm computations need a complex or rational backend")
        arr = np.array(
            [[complex(v) for v in row] for row in a.rows], dtype=np.complex128
        )
    else:
        arr = np.asarray(a, dtype=np.complex128)
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
    arr = as_complex_array(a)
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
    """p(AB) - p(BA) as a complex ndarray.

    The float fast path keeps a Horner loop of its own: on an ndarray * and
    + c act entry by entry, so poly.eval_poly cannot serve it.
    """
    x = as_complex_array(a)
    y = as_complex_array(b)
    cs = _coeffs(p)

    def horner(m):
        acc = cs[-1] * np.eye(m.shape[0], dtype=np.complex128)
        for c in reversed(cs[:-1]):
            acc = acc @ m + c * np.eye(m.shape[0], dtype=np.complex128)
        return acc

    with np.errstate(over="ignore", invalid="ignore"):
        out = horner(x @ y) - horner(y @ x)
    if not np.isfinite(out).all():
        raise ValueError(
            "p(AB) - p(BA) exceeds the double range (about 1.8e308); scale the"
            " polynomial or the matrices down"
        )
    return out


def operator_norm(a: MatrixLike) -> float:
    """Largest singular value by LAPACK's SVD, which scales the double range."""
    return float(np.linalg.norm(as_complex_array(a), 2))


def _hermitian_parts(arr: np.ndarray, thetas: np.ndarray):
    """Herm(e^(i theta) A) and its theta-derivative, stacked over thetas."""
    rotated = np.exp(1j * thetas)[:, None, None] * arr[None, :, :]
    adjoint = rotated.conj().transpose(0, 2, 1)
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


def numerical_radius(a: MatrixLike, grid_points: int = 256, windows: int = 3) -> float:
    """max over unit vectors of |v* A v| = max over theta of f(theta), the top
    eigenvalue of H(theta) = Herm(e^(i theta) A).  One batched eigvalsh on a half
    circle gives the whole grid (grid_points even), as H(theta + pi) = -H(theta).
    The best `windows` grid points, pairwise more than one step apart, are refined
    by safeguarded Newton where they are local maxima.  The result, the largest f
    evaluated, exceeds w(A) by rounding at most.  The work runs on A / 2^e, an
    exact power-of-two scaling, so the whole double range works."""
    arr = as_complex_array(a)
    if not arr.any():
        return 0.0
    exponent = math.frexp(max(np.abs(arr.real).max(), np.abs(arr.imag).max()))[1]
    arr = np.ldexp(arr.real, -exponent) + 1j * np.ldexp(arr.imag, -exponent)
    step = 2.0 * math.pi / grid_points
    herm = _hermitian_parts(arr, step * np.arange(grid_points // 2))[0]
    lam = np.linalg.eigvalsh(herm)
    tops = np.concatenate([lam[:, -1], -lam[:, 0]])
    chosen: list[int] = []
    for idx in map(int, np.argsort(tops)[::-1]):
        if all(min(abs(idx - c), grid_points - abs(idx - c)) > 1 for c in chosen):
            chosen.append(idx)
        if len(chosen) >= windows:
            break
    peak = (tops >= np.roll(tops, 1)) & (tops >= np.roll(tops, -1))
    centers = step * np.array([i for i in chosen if peak[i]])
    best = max(float(tops.max()), _newton_peaks(arr, centers, step))
    return math.ldexp(best, exponent)


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality: lhs <= rhs up to relative slack.

    mc_margin widens the acceptance band by four standard errors when the
    right side is itself a Monte Carlo estimate; it is zero for the
    deterministic checkers, where satisfied means
    lhs <= rhs * (1 + 1e-10) exactly as stated.
    """

    lhs: float
    rhs: float
    satisfied: bool
    ratio: float
    n: int
    degree: int
    seed: Optional[int] = None
    mc_margin: float = 0.0


def _report(lhs, rhs, n, degree, seed=None, mc_margin=0.0) -> BoundReport:
    satisfied = lhs <= (rhs + mc_margin) * (1.0 + _REL_SLACK)
    if rhs > 0.0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0.0 else math.inf
    return BoundReport(lhs, rhs, satisfied, ratio, n, degree, seed, mc_margin)


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
        if report is None or not all(
            map(math.isfinite, (report.lhs, report.rhs, report.mc_margin))
        ):
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


def _weight_sum(p, fa: float, fb: float) -> float:
    cs = _coeffs(p)
    total = 0.0
    for k in range(1, len(cs)):
        total += abs(cs[k]) * k * fa ** (k - 1) * fb ** (k - 1)
    return total


@_in_double_range
def check_frobenius_bound(p, a: MatrixLike, b: MatrixLike, seed=None) -> BoundReport:
    """||p(AB)-p(BA)||_F <= ||[A,B]||_F * sum |c_k| k ||A||_F^(k-1) ||B||_F^(k-1).

    Follows from the telescoped expansion plus submultiplicativity of the
    Frobenius norm."""
    cs = _nonconstant_coeffs(p)
    x = as_complex_array(a)
    lhs = frobenius_norm(poly_commutator_array(p, a, b))
    rhs = frobenius_norm(commutator_array(a, b)) * _weight_sum(
        p, frobenius_norm(a), frobenius_norm(b)
    )
    return _report(lhs, rhs, x.shape[0], len(cs) - 1, seed)


@_in_double_range
def check_numrad_bound(p, a: MatrixLike, b: MatrixLike, seed=None) -> BoundReport:
    """Numerical-radius analogue with the power-inequality growth factor:
    h(p(AB)-p(BA)) <= h([A,B]) * sum |c_k| k 4^k / 2 * h(A)^(k-1) h(B)^(k-1)."""
    cs = _nonconstant_coeffs(p)
    x = as_complex_array(a)
    ha, hb = numerical_radius(a), numerical_radius(b)
    total = 0.0
    for k in range(1, len(cs)):
        total += abs(cs[k]) * k * 2.0 ** (2 * k - 1) * ha ** (k - 1) * hb ** (k - 1)
    lhs = numerical_radius(poly_commutator_array(p, a, b))
    rhs = numerical_radius(commutator_array(a, b)) * total
    return _report(lhs, rhs, x.shape[0], len(cs) - 1, seed)


@dataclass(frozen=True)
class SphereEstimate:
    samples: int
    mean: float
    std_error: float
    exact_value: float


def spherical_average(a: MatrixLike, samples: int, seed: int = 0) -> SphereEstimate:
    """Monte Carlo estimate of n * average of ||A v||^2 over unit vectors.

    Unit vectors are normalized standard complex Gaussians; the estimate
    converges to ||A||_F^2, reported as exact_value.  The per-sample value
    uses ||A z||^2 / ||z||^2, so A = identity gives exactly n at every
    sample and a zero standard error.  Entries large enough that the
    samples or their variance leave the double range (from about 1e77) are
    a ValueError, not a NaN answer.
    """
    arr = as_complex_array(a)
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    n = arr.shape[0]
    gen = np_stream(seed, "sphere-average")
    z = gen.standard_normal((samples, n)) + 1j * gen.standard_normal((samples, n))
    with np.errstate(over="ignore", invalid="ignore"):
        num = (np.abs(z @ arr.T) ** 2).sum(axis=1)
        den = (np.abs(z) ** 2).sum(axis=1)
        vals = n * (num / den)
        mean = float(vals.mean())
        std_error = float(vals.std(ddof=1) / math.sqrt(samples))
        exact_value = float((np.abs(arr) ** 2).sum())
    if not all(map(math.isfinite, (mean, std_error, exact_value))):
        raise ValueError(
            "sphere average out of range: ||A v||^2 samples or their variance"
            " exceed the double range (entries from about 1e77 overflow)"
        )
    return SphereEstimate(samples, mean, std_error, exact_value)


@_in_double_range
def check_average_bound(
    p, a: MatrixLike, b: MatrixLike, samples: int = 4000, seed: int = 0
) -> BoundReport:
    """Sphere-average form of the Frobenius bound.

    ||p(AB)-p(BA)||_F^2 <= n * avg ||[A,B] v||^2 * (sum |c_k| k ||A||_2^(k-1) ||B||_2^(k-1))^2,
    with the average estimated by Monte Carlo.  The acceptance band grows
    by four standard errors of the estimate; the bound is an equality for
    degree-one p, so a one-sided floor would reject valid draws.
    """
    cs = _nonconstant_coeffs(p)
    x = as_complex_array(a)
    c = commutator_array(a, b)
    est = spherical_average(c, samples, seed)
    total = _weight_sum(p, operator_norm(a), operator_norm(b))
    lhs = frobenius_norm(poly_commutator_array(p, a, b)) ** 2
    rhs = est.mean * total**2
    margin = 4.0 * est.std_error * total**2
    return _report(lhs, rhs, x.shape[0], len(cs) - 1, seed, mc_margin=margin)


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
