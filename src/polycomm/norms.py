"""Norm inequalities for polynomial commutators over complex matrices.

The bound checkers compare ||p(AB) - p(BA)|| against commutator-controlled
right-hand sides: a Frobenius bound through the telescoped expansion, a
numerical-radius variant with 4^k growth, and a sphere-average form whose
n * average of ||[A,B] v||^2 over unit vectors is read off as ||[A,B]||_F^2
(spherical_average tests that identity by Monte Carlo).  A violated bound
is a build-breaking event, so every checker reports the full comparison,
not just a verdict.  The operator norm is LAPACK's SVD; the numerical radius
is a 32-direction eigenvalue grid refined by Newton steps and certified within
1e-12 relative by a level-set test.  Both map a (k, n, n) stack to k values,
as numpy.linalg does, and each checker passes its matrices in one stack.
p(AB) - p(BA) is poly_difference on AB and BA as CC matrices, the sum of
multiples of [A, B] the bounds are derived from; a checker forms each product once.
Checkers and spherical_average run under matrix.in_double_range: no report holds inf or nan.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .matrix import CC, GenericMatrix, in_double_range
from .poly import Polynomial, poly_difference
from .sampling import complex_gaussian_matrix, np_stream

_REL_SLACK = 1e-10
# numerical_radius's circle grid, its Newton windows and its level-set rounds
_GRID_POINTS, _WINDOWS, _ROUNDS = 32, 3, 8
_ROWS = 2048  # spherical_average's largest row block (see _sphere_moments)


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


def _checked(arr: np.ndarray, ndim: int = 2) -> np.ndarray:
    """arr itself, once it is a nonempty square matrix (or stack) of finite entries."""
    if arr.ndim != ndim or arr.shape[-1] != arr.shape[-2] or not arr.size:
        raise ValueError("expected a nonempty square matrix")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite input: matrix entries must be finite numbers")
    return arr


def _stacked(a: MatrixLike) -> tuple[np.ndarray, bool]:
    """(stack, one): a 3-D ndarray as a (k, n, n) stack, else a stack of one."""
    if isinstance(a, np.ndarray) and a.ndim == 3:
        return _checked(a.astype(np.complex128, copy=False), 3), False
    return as_complex_array(a)[None], True


def _polynomial(p, nonconstant: bool = False) -> Polynomial:
    """p (a Polynomial or coefficients, constant first) as a trimmed complex Polynomial."""
    p = Polynomial([complex(c) for c in (p.coeffs if isinstance(p, Polynomial) else p)])
    if nonconstant and p.is_constant():
        raise ValueError("the bound needs a nonconstant polynomial")
    return p


def frobenius_norm(a: MatrixLike) -> float:
    """sqrt(sum |a_ij|^2), recomputed on A / max|a_ij| when the sum of squares
    is not a finite normal double (norms above about 1e154 or below about
    1.5e-154), whose subnormal squares keep few bits (Blue, ACM TOMS 4, 1978).
    A subnormal max|a_ij| first scales A up by 2^1022, exactly, as numpy's
    division by it would overflow."""
    return _frobenius(as_complex_array(a))


def _frobenius(arr: np.ndarray) -> float:
    with np.errstate(over="ignore"):
        squares = float((np.abs(arr) ** 2).sum())
        if sys.float_info.min <= squares < math.inf or not arr.any():
            return math.sqrt(squares)
        top = float(np.abs(arr).max())
        if top < sys.float_info.min:
            return math.ldexp(_frobenius(arr * 2.0**1022), -1022)
        return top * float(np.sqrt((np.abs(arr / top) ** 2).sum()))


def commutator_array(a: MatrixLike, b: MatrixLike) -> np.ndarray:
    x, y = as_complex_array(a), as_complex_array(b)
    return x @ y - y @ x


def poly_commutator_array(p, a: MatrixLike, b: MatrixLike) -> np.ndarray:
    """p(AB) - p(BA) as a complex ndarray, by poly.poly_difference on AB and BA
    as CC matrices.  p is a Polynomial or a coefficient list, constant first."""
    x, y = as_complex_array(a), as_complex_array(b)
    with np.errstate(over="ignore", invalid="ignore"):
        return _poly_commutator(_polynomial(p), x @ y, y @ x)


def _poly_commutator(p: Polynomial, xy: np.ndarray, yx: np.ndarray) -> np.ndarray:
    """p(XY) - p(YX) from the caller's products XY and YX, under its np.errstate."""
    xy, yx = (GenericMatrix._of_parts(CC, m[None]) for m in (xy, yx))
    out = poly_difference(p, xy, yx).component_form()[0][0]
    if not np.isfinite(out).all():
        raise ValueError(
            "p(AB) - p(BA) exceeds the double range (about 1.8e308); scale the"
            " polynomial or the matrices down"
        )
    return out


def operator_norm(a: MatrixLike) -> Union[float, np.ndarray]:
    """Largest singular value by LAPACK's SVD, which scales the double range;
    a (k, n, n) ndarray gives its k norms from one batched SVD."""
    stack, one = _stacked(a)
    values = np.linalg.norm(stack, 2, axis=(-2, -1))
    return float(values[0]) if one else values


def _rotations(arr: np.ndarray, thetas: np.ndarray):
    """e^(i theta) A and its adjoint, thetas broadcast over A's stack axes."""
    rotated = np.exp(1j * thetas)[..., None, None] * arr
    return rotated, rotated.conj().swapaxes(-1, -2)


def _newton_peaks(arr: np.ndarray, owner, centers, step: float) -> np.ndarray:
    """Per matrix of arr, the largest f(theta) = lambda_max(H(theta)) evaluated by
    safeguarded Newton in its windows [c - step, c + step], c in centers on
    arr[owner] (-inf with none): one eigh over all windows per iteration, at
    most 16, until every step is below 1e-9 radians.  With x the top eigenvector
    and (lambda_j, v_j) the others, f' = x* H' x (Hellmann-Feynman) and, as
    H'' = -H, f'' = -f + 2 sum_j |v_j* H' x|^2 / (f - lambda_j).  The sign of f'
    shrinks the window; a step that leaves it, or f'' >= 0, bisects."""
    theta, lo, hi = centers, centers - step, centers + step
    best = np.full(len(arr), -math.inf)
    for _ in range(16):
        rotated, adjoint = _rotations(arr[owner], theta)
        lam, vec = np.linalg.eigh((rotated + adjoint) / 2.0)
        top, dherm = lam[:, -1], (rotated - adjoint) * 0.5j
        np.maximum.at(best, owner, top)
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
        theta, lo, hi, owner = nxt[moving], lo[moving], hi[moving], owner[moving]
    return best


def _unit_scaled(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A / 2^e, e) with e the binary exponent of A's largest real or imaginary
    part, so that part lands in [1/2, 1); a stack gets one e per matrix.  Only
    exponents change, so the scaling is exact for every part that does not
    fall below the double range."""
    exponent = np.frexp(np.abs([arr.real, arr.imag]).max(axis=(0, -2, -1)))[1]
    shift = -exponent[..., None, None]
    return np.ldexp(arr.real, shift) + 1j * np.ldexp(arr.imag, shift), exponent


def _level_crossings(arr: np.ndarray, level) -> tuple[np.ndarray, np.ndarray]:
    """Angles theta, with their f(theta), at which f reaches a level above f(pi):
    (..., m) arrays for a stack (..., n, n) at levels (...), f = -inf where only
    other matrices reach theirs, and m = 0 when each level exceeds max f.

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
    n, lev, adj = arr.shape[-1], np.asarray(level)[..., None, None], arr.conj().swapaxes(-1, -2)
    herm, skew = (arr + adj) / 2.0, (arr - adj) / 2.0
    try:
        inv = np.linalg.inv(np.linalg.cholesky(herm + lev * np.eye(n)))
    except np.linalg.LinAlgError:
        raise ArithmeticError(
            "numerical_radius: the level-set test needs a level above f(pi)"
        ) from None
    inv_adj = inv.conj().swapaxes(-1, -2)
    companion = np.zeros(arr.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    companion[..., :n, n:] = np.eye(n)
    companion[..., n:, :n] = -inv @ (herm - lev * np.eye(n)) @ inv_adj
    companion[..., n:, n:] = -2.0 * inv @ skew @ inv_adj
    s = np.linalg.eigvals(companion)
    # rounding moves a crossing about 1e-13 off the axis; a peak 1e-12 below
    # level splits its pair about 1e-6 off, which is then not checked; the
    # other s give nan angles, which sort last
    near = np.abs(s.real) <= 1e-8 * (1.0 + np.abs(s))
    near = np.sort(np.where(near, 2.0 * np.arctan(s.imag), np.nan))
    wrap = near[..., :1] + 2.0 * math.pi
    mids = (near + np.fmin(np.concatenate([near[..., 1:], wrap], -1), wrap)) / 2.0
    thetas = np.concatenate([near, mids], -1)
    tops, found = np.full(thetas.shape, -math.inf), ~np.isnan(thetas)
    if found.any():
        rotated, adjoint = _rotations(arr[np.nonzero(found)[:-1]], thetas[found])
        tops[found] = np.linalg.eigvalsh((rotated + adjoint) / 2.0)[:, -1]
    above = tops >= lev[..., 0]
    cols = above.reshape(-1, above.shape[-1]).any(axis=0)  # angles some matrix reached
    return thetas[..., cols], np.where(above, tops, -math.inf)[..., cols]


def numerical_radius(a: MatrixLike) -> Union[float, np.ndarray]:
    """max over unit vectors of |v* A v| = max over theta of f(theta), the top
    eigenvalue of H(theta) = Herm(e^(i theta) A), for A or for each matrix of a
    (k, n, n) ndarray, whose k radii are each that matrix's alone, bit for bit.
    One eigvalsh on a half circle gives the grid of _GRID_POINTS, as H(theta +
    pi) = -H(theta); the best _WINDOWS points, pairwise more than one step apart,
    are refined by safeguarded Newton where they are local maxima.  With r the
    largest f evaluated, the level-set test (_level_crossings) at r (1 + 1e-12)
    then proves w(A) < r (1 + 1e-12), or finds angles above it, from which Newton
    restarts and the test runs again on the matrices not yet certified, at most
    _ROUNDS times; past that an ArithmeticError is raised, and no uncertified
    radius is returned.  The result, the largest f evaluated, is thus within
    1e-12 r below w(A) and above it by rounding at most.  The work runs on
    A / 2^e, an exact power-of-two scaling, so the whole double range works;
    a radius past it is inf, as operator_norm's and frobenius_norm's are."""
    stack, one = _stacked(a)
    radii = np.zeros(len(stack))
    live = np.flatnonzero(stack.any(axis=(-2, -1)))
    arr, exponent = _unit_scaled(stack[live])
    step = 2.0 * math.pi / _GRID_POINTS
    rotated, adjoint = _rotations(arr[:, None], step * np.arange(_GRID_POINTS // 2))
    lam = np.linalg.eigvalsh((rotated + adjoint) / 2.0)
    tops = np.concatenate([lam[..., -1], -lam[..., 0]], axis=-1)
    peak = (tops >= np.roll(tops, 1, axis=-1)) & (tops >= np.roll(tops, -1, axis=-1))
    windows = []
    for i, order in enumerate(np.argsort(tops, axis=-1)[:, ::-1].tolist()):
        chosen: list[int] = []
        for idx in order:  # kept when more than one step from each kept c
            if len(chosen) < _WINDOWS and all((idx - c + 1) % _GRID_POINTS > 2 for c in chosen):
                chosen.append(idx)
        windows += [(i, c) for c in chosen if peak[i, c]]
    owner, index = np.array(windows, dtype=int).reshape(-1, 2).T
    best = np.maximum(tops.max(axis=-1), _newton_peaks(arr, owner, step * index, step))
    # the test runs on e^(i turn) A, whose f(pi) is the grid's lowest f, so
    # that H + level I is as far from singular as the grid can tell
    turn = step * np.argmin(tops, axis=-1) - math.pi
    todo = np.arange(len(arr))
    for _ in range(_ROUNDS):
        turned = np.exp(1j * turn[todo])[:, None, None] * arr[todo]
        thetas, values = _level_crossings(turned, best[todo] * (1.0 + 1e-12))
        owner, col = np.nonzero(values > -math.inf)
        if not owner.size:
            with np.errstate(over="ignore"):
                radii[live] = np.ldexp(best, exponent)
            return float(radii[0]) if one else radii
        peaks = _newton_peaks(arr[todo], owner, thetas[owner, col] + turn[todo][owner], step)
        best[todo] = np.maximum(best[todo], np.maximum(values.max(axis=-1), peaks))
        todo = todo[np.unique(owner)]
    raise ArithmeticError(
        f"numerical_radius: the level-set test still found a larger value after"
        f" {_ROUNDS} rounds"
    )


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality: satisfied means lhs <= rhs * (1 + 1e-10),
    exactly as stated, as every right side is computed, not estimated.  It
    depends on p, A and B alone; whoever drew A and B records the seed."""

    lhs: float
    rhs: float
    satisfied: bool
    ratio: float
    n: int
    degree: int


def _report(lhs, rhs, n, degree, compared=None) -> BoundReport:
    """The report on lhs <= rhs, judged on compared, (lhs, rhs) unless given."""
    left, right = compared or (lhs, rhs)
    satisfied = left <= right * (1.0 + _REL_SLACK)
    ratio = left / right if right > 0.0 else (0.0 if left == 0.0 else math.inf)
    return BoundReport(lhs, rhs, satisfied, ratio, n, degree)


_DOUBLE_RANGE = ("a norm in the bound exceeds the double range (about 1.8e308); scale the"
                 " polynomial or the matrices down")


def _scaled_squares(u: float, v: float, w: float, k: float = 1.0) -> tuple:
    """(u^2, k v^2 w^2) over 4^(ev + ew), with ev and ew the binary exponents
    of v and w: the two sides of u^2 <= k v^2 w^2 in the same ratio, where no
    square falls below the normal range unless u / (v w) is that small."""
    ev, ew = math.frexp(v)[1], math.frexp(w)[1]
    su, sv, sw = np.ldexp([u, v, w], [-ev - ew, -ev, -ew]).tolist()
    return su * su, k * (sv * sv * (sw * sw))


@in_double_range(_DOUBLE_RANGE)
def check_bottcher_wenzel(a: MatrixLike, b: MatrixLike) -> BoundReport:
    """||AB - BA||_F^2 <= 2 ||A||_F^2 ||B||_F^2.

    Squared norms are summed directly, skipping the sqrt/square round trip
    so the equality pair comes out exact.  When a nonzero one of the four
    sides leaves the normal range, A and B are scaled to unit size by
    powers of two (_unit_scaled) and AB - BA is formed from them: the
    printed squares are those of the scaled norms scaled back, and the
    verdict and ratio compare the scaled norms through _scaled_squares."""
    x, y = as_complex_array(a), as_complex_array(b)
    c = x @ y - y @ x
    lhs, sx, sy = (float((np.abs(m) ** 2).sum()) for m in (c, x, y))
    rhs = 2.0 * sx * sy
    nonzero = (c.any(), x.any(), y.any(), x.any() and y.any())
    if all(sys.float_info.min <= s < math.inf
           for s, live in zip((lhs, sx, sy, rhs), nonzero) if live):
        return _report(lhs, rhs, x.shape[0], 1)
    (xs, ex), (ys, ey) = _unit_scaled(x), _unit_scaled(y)
    u, v, w = (_frobenius(m) for m in (xs @ ys - ys @ xs, xs, ys))
    shift = 2 * int(ex + ey)
    return _report(math.ldexp(u * u, shift), math.ldexp(2.0 * (v * v) * (w * w), shift),
                   x.shape[0], 1, _scaled_squares(u, v, w, 2.0))


def _weight_sum(p, fa: float, fb: float, base: float) -> float:
    """sum |c_k| k base^(2k-1) fa^(k-1) fb^(k-1): the growth factor of the
    bounds, base 1 for the Frobenius forms and 2 for the numerical radius."""
    total = 0.0
    for k, c in enumerate(p.coeffs[1:], 1):
        total += abs(c) * k * base ** (2 * k - 1) * fa ** (k - 1) * fb ** (k - 1)
    return total


# The checkers below convert A and B once and work on the arrays.  Each hands
# numerical_radius or operator_norm all its matrices as one stack, by name, so
# that the benchmark's tracer times those layers.


@in_double_range(_DOUBLE_RANGE)
def check_frobenius_bound(p, a: MatrixLike, b: MatrixLike) -> BoundReport:
    """||p(AB)-p(BA)||_F <= ||[A,B]||_F * sum |c_k| k ||A||_F^(k-1) ||B||_F^(k-1).

    Follows from the telescoped expansion plus submultiplicativity of the
    Frobenius norm."""
    p = _polynomial(p, nonconstant=True)
    x, y = as_complex_array(a), as_complex_array(b)
    xy, yx = x @ y, y @ x
    lhs = _frobenius(_poly_commutator(p, xy, yx))
    rhs = _frobenius(_checked(xy - yx)) * _weight_sum(p, _frobenius(x), _frobenius(y), 1.0)
    return _report(lhs, rhs, x.shape[0], p.degree)


@in_double_range(_DOUBLE_RANGE)
def check_numrad_bound(p, a: MatrixLike, b: MatrixLike) -> BoundReport:
    """Numerical-radius analogue with the power-inequality growth factor:
    h(p(AB)-p(BA)) <= h([A,B]) * sum |c_k| k 4^k / 2 * h(A)^(k-1) h(B)^(k-1).

    One numerical_radius stack holds A, B, p(AB)-p(BA) and [A,B]; a linear p
    needs no h(A) or h(B), whose powers are all 0, so its stack is the last two."""
    p = _polynomial(p, nonconstant=True)
    x, y = as_complex_array(a), as_complex_array(b)
    xy, yx = x @ y, y @ x
    stack = [x, y] if p.degree > 1 else []
    radii = numerical_radius(np.stack(stack + [_poly_commutator(p, xy, yx), xy - yx]))
    *factors, lhs, wc = radii.tolist()
    wx, wy = factors or (1.0, 1.0)
    return _report(lhs, wc * _weight_sum(p, wx, wy, 2.0), x.shape[0], p.degree)


@dataclass(frozen=True)
class SphereEstimate:
    samples: int
    mean: float
    std_error: float
    exact_value: float

    @property
    def deviation(self) -> float:
        return abs(self.mean - self.exact_value)

    @property
    def verified(self) -> bool:
        """the mean lies within four standard errors of the exact value"""
        return self.deviation <= 4.0 * self.std_error + 1e-12 * (1.0 + self.exact_value)


def _sphere_moments(arr: np.ndarray, samples: int, seed: int) -> tuple[float, float]:
    """Mean and standard error of n ||A z||^2 / ||z||^2 over samples rows
    z = x + i y.  All of x is drawn first, then y block by block: the
    generator fills sequentially, so each block pairs the same rows of x and
    y as drawing both whole would.  A block has min(_ROWS, 2^15 / n^2) rows:
    its product with A^T then has fewer than 2^16 rows * n^2 multiplies,
    below which OpenBLAS leaves its worker threads asleep."""
    n = arr.shape[0]
    rows = min(_ROWS, 2**15 // n**2)
    gen = np_stream(seed, "sphere-average")
    x = gen.standard_normal((samples, n))
    block = np.empty((min(samples, rows), n), dtype=complex)
    vals = np.empty(samples)
    for start in range(0, samples, rows):
        z = block[: samples - start]
        z.real = x[start : start + rows]
        z.imag = gen.standard_normal(z.shape)
        num = (np.abs(z @ arr.T) ** 2).sum(axis=1)
        den = (np.abs(z) ** 2).sum(axis=1)
        vals[start : start + rows] = n * (num / den)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


@in_double_range("sphere average out of range: ||A||_F^2 or its estimate exceeds the double"
                 " range (about 1.8e308; entries from about 1e154 overflow)")
def spherical_average(a: MatrixLike, samples: int, seed: int = 0) -> SphereEstimate:
    """Monte Carlo estimate of n * average of ||A v||^2 over unit vectors.

    Unit vectors are normalized standard complex Gaussians; the estimate
    converges to ||A||_F^2, reported as exact_value.  The per-sample value
    uses ||A z||^2 / ||z||^2, so A = identity gives exactly n at every
    sample and a zero standard error.

    The only samples x n array is the 8 * samples * n bytes of real parts
    (see _sphere_moments, whose row block shrinks as n grows), so a call peaks
    near 8.8 MiB at n = 16 and 64 000 samples and near 52 MiB at the CLI caps
    (n = 32, 200 000 samples).

    An A whose largest part is 1/2 or more is sampled as A / 2^e, the exact
    scaling numerical_radius uses, and the mean and standard error are
    scaled back by 4^e; A is never scaled up, so smaller inputs keep the
    bytes of the unscaled arithmetic.  The samples and their variance thus
    stay in range for entries past 1e77, and only a ||A||_F^2 past the double
    range (entries from about 1e154), or an estimate that overflows when
    scaled back, is a ValueError, raised by matrix.in_double_range.
    """
    arr = as_complex_array(a)
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    scaled, exponent = _unit_scaled(arr)
    if exponent < 0:
        scaled, exponent = arr, 0
    moments = _sphere_moments(scaled, samples, seed)
    mean, std_error = (math.ldexp(v, 2 * int(exponent)) for v in moments)
    return SphereEstimate(samples, mean, std_error, float((np.abs(arr) ** 2).sum()))


@in_double_range(_DOUBLE_RANGE)
def check_average_bound(p, a: MatrixLike, b: MatrixLike) -> BoundReport:
    """Sphere-average form of the Frobenius bound.

    ||p(AB)-p(BA)||_F^2 <= n * avg ||[A,B] v||^2 * (sum |c_k| k ||A||_2^(k-1) ||B||_2^(k-1))^2,
    with n * avg ||[A,B] v||^2 over unit vectors read off as ||[A,B]||_F^2,
    its exact value (the mean of Hutchinson's trace estimator for
    tr([A,B]* [A,B]), Hutchinson 1990), so nothing is sampled.  The bound is
    an equality for degree-one p.

    The squares are printed; one below the normal range (norms under about
    1.5e-154) keeps few bits, so the verdict and ratio then square ||[A,B]||_F
    and the weight sum each scaled by its own power of two, and the lhs by both.
    """
    p = _polynomial(p, nonconstant=True)
    x, y = as_complex_array(a), as_complex_array(b)
    xy, yx = x @ y, y @ x
    total = _weight_sum(p, *operator_norm(np.stack([x, y])).tolist(), 1.0)
    diff, comm = _frobenius(_poly_commutator(p, xy, yx)), _frobenius(_checked(xy - yx))
    lhs, comm2, total2 = diff**2, comm**2, total**2
    compared = None
    if min(lhs, comm2, total2, comm2 * total2) < sys.float_info.min:
        compared = _scaled_squares(diff, comm, total)
    return _report(lhs, comm2 * total2, x.shape[0], p.degree, compared)


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
    p = _polynomial(p)
    for trial in range(trials):
        a = complex_gaussian_matrix(gen, n)
        b = complex_gaussian_matrix(gen, n)
        lhs = frobenius_norm(poly_commutator_array(p, a, b))
        rhs = frobenius_norm(a) * frobenius_norm(b)
        comm_norm = frobenius_norm(commutator_array(a, b))
        row = {
            "trial": trial,
            "n": n,
            "degree": p.degree,
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
    best1, best2, skipped = 0.0, 0.0, 0
    for row in constant_sweep_rows(p, n, trials, seed):
        best1 = max(best1, row["ratio"])
        if row["ratio_commutator"] is None:
            skipped += 1
        else:
            best2 = max(best2, row["ratio_commutator"])
    return ConstantEstimate(best1, best2, trials, skipped)
