"""Norm inequalities for polynomial commutators over complex matrices.

The bound checkers compare ||p(AB) - p(BA)|| against commutator-controlled
right-hand sides: a Frobenius bound through the telescoped expansion, a
numerical-radius variant with 4^k growth, and a Monte Carlo form of the
sphere-average identity ||A||_F^2 = n * integral of ||A v||^2 over unit
vectors.  A violated bound is a build-breaking event, so every checker
reports the full comparison, not just a verdict.
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


class ConvergenceError(ArithmeticError):
    """An iterative norm computation hit its iteration cap."""


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
    arr = as_complex_array(a)
    return float(np.sqrt((np.abs(arr) ** 2).sum()))


def commutator_array(a: MatrixLike, b: MatrixLike) -> np.ndarray:
    x = as_complex_array(a)
    y = as_complex_array(b)
    return x @ y - y @ x


def poly_commutator_array(p, a: MatrixLike, b: MatrixLike) -> np.ndarray:
    """p(AB) - p(BA) as a complex ndarray."""
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


def operator_norm(a: MatrixLike, max_iter: int = 100_000) -> float:
    """Largest singular value by power iteration on A* A.

    Deterministic start vector; the Rayleigh quotient must stabilize to
    1e-14 relative on two consecutive steps, else ConvergenceError.
    """
    arr = as_complex_array(a)
    n = arr.shape[0]
    m = arr.conj().T @ arr
    v = (1.0 + np.arange(n) / n).astype(np.complex128)
    v /= np.linalg.norm(v)
    lam_old = None
    stable = 0
    for _ in range(max_iter):
        w = m @ v
        lam = float(np.real(np.vdot(v, w)))
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        if lam_old is not None and abs(lam - lam_old) <= 1e-14 * max(abs(lam), 1e-300):
            stable += 1
            if stable >= 2:
                return math.sqrt(max(lam, 0.0))
        else:
            stable = 0
        lam_old = lam
    raise ConvergenceError(f"power iteration did not settle in {max_iter} steps")


def _hermitian_top(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(h)[-1])


def _rotated_top(arr: np.ndarray, theta: float) -> float:
    r = np.exp(1j * theta) * arr
    return _hermitian_top((r + r.conj().T) / 2.0)


def _golden_max(f, lo: float, hi: float, iters: int = 48) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = f(x1)
    return max(f1, f2)


def numerical_radius(a: MatrixLike, grid_points: int = 256, windows: int = 3) -> float:
    """max over unit vectors of |v* A v|.

    Computed as the maximum over theta of the top eigenvalue of the
    Hermitian part of e^(i theta) A: a 256-point theta grid followed by
    golden-section refinement around the best grid neighborhoods.
    """
    arr = as_complex_array(a)
    if not np.abs(arr).sum():
        return 0.0
    thetas = 2.0 * math.pi * np.arange(grid_points) / grid_points
    rotated = np.exp(1j * thetas)[:, None, None] * arr[None, :, :]
    herm = (rotated + rotated.conj().transpose(0, 2, 1)) / 2.0
    tops = np.linalg.eigvalsh(herm)[:, -1]
    order = np.argsort(tops)[::-1]
    chosen: list[int] = []
    for idx in order:
        idx = int(idx)
        if all(
            min(abs(idx - c), grid_points - abs(idx - c)) > 1 for c in chosen
        ):
            chosen.append(idx)
        if len(chosen) >= windows:
            break
    best = float(tops.max())
    step = 2.0 * math.pi / grid_points
    for idx in chosen:
        center = thetas[idx]
        refined = _golden_max(
            lambda t: _rotated_top(arr, t), center - step, center + step
        )
        best = max(best, refined)
    return best


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
            raise ValueError(
                f"{check.__name__}: a norm in the bound exceeds the double range"
                " (about 1.8e308); scale the polynomial or the matrices down"
            )
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
        yield {
            "trial": trial,
            "n": n,
            "degree": degree,
            "lhs": lhs,
            "rhs": rhs,
            "ratio": lhs / rhs if rhs > 0 else math.inf,
            "commutator_norm": comm_norm,
            "ratio_commutator": lhs / comm_norm if comm_norm >= 1e-12 else None,
        }


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
