"""Seeded request generators for the benchmark workloads.

A workload is an endless sequence of rounds.  Every round has the same
composition (request kinds and sizes) in a seeded order, so a run that
stops after any round keeps the mix the workload was designed for; the
entries, polynomials and magnitudes inside a round come from the seed.
Requests of one plan are pairwise distinct (checked), so no result cache
could ever hit.  polycomm sees only the generated argv lists.

Each request carries what the oracle needs to judge the answer: the
target matrix a realization must reproduce, the degree a probe input was
built with (confirmed by the oracle's own Krylov rank), the quaternion a
solver must reach.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import oracle
from oracle import F0, F1, QUATERNION, RATIONAL

WORKLOADS = ("exact-construct", "degree-probe", "float-verify")


@dataclass(frozen=True)
class Request:
    rid: int
    kind: str
    argv: tuple
    expect: dict


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ------------------------------------------------------------------ drawing


def _exact_coeffs(rng, degree):
    cs = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(degree)]
    cs.append(Fraction(rng.choice((-2, -1, 1, 2, 3)), rng.choice((1, 1, 2))))
    return cs


def _float_coeffs(rng, degree, even_only=False):
    cs = [rng.randint(-12, 12) / 4 for _ in range(degree)]
    cs.append(rng.choice((-2.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0)))
    if even_only:
        cs = [0.0 if k % 2 else c for k, c in enumerate(cs)]
    return cs


def _poly_text(cs) -> str:
    return ",".join(repr(c) if isinstance(c, float) else str(c) for c in cs)


def _nonzero(rng, bound):
    return rng.choice((-1, 1)) * rng.randint(1, bound)


def _unimodular(rng, n):
    """Integer matrix of determinant 1: unit lower times unit upper, with
    +-1 off the diagonal so every draw grows entries alike."""
    def part(side):
        return [
            [F1 if i == j else Fraction(_nonzero(rng, 1)) if side(i, j) else F0 for j in range(n)]
            for i in range(n)
        ]

    return oracle.matmul(RATIONAL, part(lambda i, j: j < i), part(lambda i, j: j > i))


def _full_quat(rng, bound):
    """Quaternion with every component nonzero, so probe costs vary little."""
    return tuple(Fraction(_nonzero(rng, bound)) for _ in range(4))


def _block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[F0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(b)] = row
        at += len(b)
    return out


def _companion(low):
    """Companion matrix of the monic x^d + low[d-1] x^(d-1) + ... + low[0]."""
    d = len(low)
    return [[F1 if i == j + 1 else F0 for j in range(d - 1)] + [-Fraction(low[i])] for i in range(d)]


def _monic(rng, d):
    return [_nonzero(rng, 2) for _ in range(d)]


def _times_linear(low, r):
    """Lower coefficients of (x - r) * (x^d + low...)."""
    full = list(low) + [1]
    return [-r * full[0]] + [full[k - 1] - r * full[k] for k in range(1, len(full))]


# --------------------------------------------------------------- exact-construct


def _realize_rational(rng, n, degree, conjugate):
    cs = _exact_coeffs(rng, degree)
    z = [
        [F0 if i == j else Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for j in range(n)]
        for i in range(n)
    ]
    if conjugate:
        g = _unimodular(rng, n)
        a = oracle.matmul(RATIONAL, oracle.matmul(RATIONAL, g, z), oracle.inverse(g))
        payload = {
            "matrix": oracle.encode_matrix("rational", a),
            "conjugator": oracle.encode_matrix("rational", g),
        }
    else:
        a = z
        payload = oracle.encode_matrix("rational", a)
    argv = ("realize-matrix", "--poly=" + _poly_text(cs), "--input", _dumps(payload))
    return "realize-matrix", argv, {"ring": "rational", "poly": cs, "target": a}


def _realize_quaternion(rng, n, degree):
    cs = _exact_coeffs(rng, degree)
    z = [[QUATERNION.zero if i == j else _full_quat(rng, 2) for j in range(n)] for i in range(n)]
    payload = oracle.encode_matrix("quaternion", z)
    argv = ("realize-matrix", "--poly=" + _poly_text(cs), "--input", _dumps(payload))
    return "realize-matrix", argv, {"ring": "quaternion", "poly": cs, "target": z}


def _realize_traceless(rng, n, degree):
    cs = _exact_coeffs(rng, degree)
    a = [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(n)] for _ in range(n)]
    a[0][1] = a[0][1] or F1  # never scalar
    a[n - 1][n - 1] = -sum(a[i][i] for i in range(n - 1))
    payload = oracle.encode_matrix("rational", a)
    argv = ("realize-traceless", "--poly=" + _poly_text(cs), "--input", _dumps(payload))
    return "realize-traceless", argv, {"ring": "rational", "poly": cs, "target": a}


def _telescope(rng, ring, n):
    degree = rng.randint(2, 3)
    cs = _float_coeffs(rng, degree) if ring == "complex" else _exact_coeffs(rng, degree)
    argv = ("verify-telescope", "--poly=" + _poly_text(cs), "--ring", ring, "--n", str(n),
            "--trials", "2", "--seed", str(rng.randrange(10**6)))
    return "verify-telescope", argv, {"ring": ring, "trials": 2}


def _trace_witness(rng, n):
    cs = _exact_coeffs(rng, rng.randint(2, 3))
    argv = ("trace-witness", "--poly=" + _poly_text(cs), "--n", str(n),
            "--seed", str(rng.randrange(10**6)))
    return "trace-witness", argv, {"n": n, "poly": cs}


def _exact_round(rng, _weyls):
    yield from (_realize_rational(rng, n, d, conj) for n, d, conj in (
        (4, 2, True), (4, 3, True), (6, 2, True), (6, 3, False), (8, 2, False), (8, 3, False)))
    # two of the slowest kind, of two degrees, so the tail percentile falls
    # between two neighbouring costs rather than inside one narrow class
    for n, degree in ((3, 2), (4, 2), (4, 3)):
        yield _realize_quaternion(rng, n, degree)
    for n in (4, 5, 6):
        yield _realize_traceless(rng, n, rng.randint(2, 3))
    yield _telescope(rng, "rational", 4)
    yield _telescope(rng, "quaternion", 3)
    yield _trace_witness(rng, rng.randint(2, 4))


def _exact_warmup(rng):
    return _realize_rational(rng, 3, 2, False)


def _exact_cold(rng):
    for _ in range(3):
        yield _realize_rational(rng, 3, 2, False)
    for _ in range(2):
        yield _realize_traceless(rng, 3, 2)
    for _ in range(2):
        yield _trace_witness(rng, 2)


# ------------------------------------------------------------------ degree-probe


def _probe(rng, ring, x, degree, trials):
    found = oracle.krylov_degree(ring, x)
    if found != degree:
        raise AssertionError(f"generator built degree {found}, meant {degree}")
    if ring is QUATERNION and len(x) == 1:
        payload = [oracle.encode_rational(c) for c in x[0][0]]
    else:
        payload = oracle.encode_matrix(ring.name, x)
    argv = ("probe-degree", "--input", _dumps(payload), "--seed", str(rng.randrange(10**6)),
            "--trials", str(trials))
    return "probe-degree", argv, {"degree": degree, "trials": trials}


def _probe_quaternion(rng, degree, trials=8):
    q = _full_quat(rng, 9)
    if degree == 1:
        q = (q[0], F0, F0, F0)
    return _probe(rng, QUATERNION, [[q]], degree, trials)


def _probe_rational(rng, n, degree, trials):
    """S C S^-1 with C a block diagonal of companion blocks whose minimal
    polynomial has the given degree, and S unimodular."""
    if degree == n:
        blocks = [_companion(_monic(rng, n))]
    elif n - degree == 1:
        # (x - r) * q  with a trailing [r] block keeps the degree at n - 1
        r = _nonzero(rng, 2)
        blocks = [_companion(_times_linear(_monic(rng, degree - 1), r)), [[Fraction(r)]]]
    else:  # 4x4 of degree 2: two copies of one quadratic
        q = _monic(rng, 2)
        blocks = [_companion(q), _companion(q)]
    s = _unimodular(rng, n)
    x = oracle.matmul(RATIONAL, oracle.matmul(RATIONAL, s, _block_diag(blocks)), oracle.inverse(s))
    return _probe(rng, RATIONAL, x, degree, trials)


def _probe_quaternion_matrix(rng, degree, trials):
    """U diag(q1, q2) U^-1 with U unitriangular; q2 shares the minimal
    polynomial of q1 (degree 2) or has another one (degree 4)."""
    q1 = _full_quat(rng, 3)
    if degree == 2:
        w, x, y, z = q1
        q2 = (w, rng.choice((y, -y)), rng.choice((z, -z)), rng.choice((x, -x)))
    else:
        q2 = q1
        while q2[0] == q1[0]:
            q2 = _full_quat(rng, 3)
    u = _full_quat(rng, 1)
    one, zero = QUATERNION.one, QUATERNION.zero
    upper = [[one, u], [zero, one]]
    upper_inv = [[one, tuple(-c for c in u)], [zero, one]]
    d = [[q1, zero], [zero, q2]]
    x = oracle.matmul(QUATERNION, oracle.matmul(QUATERNION, upper, d), upper_inv)
    return _probe(rng, QUATERNION, x, degree, trials)


# (input, degree, trials) of one degree-probe round: "q" an exact quaternion,
# "r3"/"r4" a rational 3x3/4x4 matrix, "m" a 2x2 quaternion matrix.  The
# trial counts spread the costs in a geometric ladder from about 2 ms to
# 450 ms (measured on the reference VM; neighbours differ by 1.1x-1.7x), so
# no percentile sits inside a single narrow class, where the machine's own
# speed swings would move it by whole steps.  The probe is Monte Carlo below
# the true degree: each trial there vanishes by chance with probability p,
# and all trials vanish (a wrong, lower estimate) with probability p^trials.
# p is about 1/343 or more for a degree-2 quaternion (an integer probe whose
# vector part is parallel to the input's) and about 7^-4 for the 3x3 of
# degree 2 (a probe in its commutant), so these get at least 4 and 2 trials;
# for the other inputs it is about 7^-6 or less.
DEGREE_LADDER = (
    ("q", 1, 2), ("q", 1, 4), ("q", 1, 8), ("q", 1, 16), ("r3", 2, 2), ("q", 2, 4),
    ("r4", 2, 1), ("q", 2, 6), ("r3", 2, 4), ("q", 2, 8), ("r4", 2, 2), ("m", 2, 1),
    ("q", 2, 12), ("m", 2, 2), ("r4", 2, 4), ("r3", 3, 2), ("r4", 3, 1), ("m", 2, 4),
    ("r3", 3, 4), ("r4", 3, 2), ("r4", 3, 4), ("r4", 4, 1), ("r4", 4, 2), ("m", 4, 1),
)


def _degree_round(rng, _weyls):
    for shape, degree, trials in DEGREE_LADDER:
        if shape == "q":
            yield _probe_quaternion(rng, degree, trials)
        elif shape == "m":
            yield _probe_quaternion_matrix(rng, degree, trials)
        else:
            yield _probe_rational(rng, int(shape[1]), degree, trials)


def _degree_warmup(rng):
    return _probe_quaternion(rng, 2)


def _degree_cold(rng):
    for degree in (1, 2, 1, 2):
        yield _probe_quaternion(rng, degree)
    for _ in range(3):
        yield _probe_rational(rng, 3, 2, 2)


# ------------------------------------------------------------------ float-verify

class Weyl:
    """Golden-ratio sequence on [0, 1) from a seeded start: every interval
    receives its share of points to within O(log n / n).  So the solver
    magnitudes cover 1e-300..1e300 evenly in every run, and the share of
    requests in the overflow and underflow ranges barely moves with the
    seed; a second sequence spreads the n = 16 sample counts alike."""

    def __init__(self, start):
        self.x = start

    def next(self):
        self.x = (self.x + 0.6180339887498949) % 1.0
        return self.x


SOLVER_DECADES = (-300.0, 300.0)


def _unit(rng, dim):
    v = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    s = math.hypot(*v)
    return [c / s for c in v]


def _solve_quat(rng, exponent):
    cs = _float_coeffs(rng, rng.randint(1, 3), even_only=rng.random() < 1 / 3)
    if all(c == 0.0 for c in cs[1:]):
        cs[1] = 1.0
    mag = 10.0**exponent
    target = (0.0, *(mag * c for c in _unit(rng, 3)))
    argv = ("solve-quat", "--poly=" + _poly_text(cs), "--input", _dumps(list(target)))
    return "solve-quat", argv, {"poly": cs, "target": target}


def _factor_quat(rng, exponent):
    cs = _float_coeffs(rng, rng.randint(1, 3))
    mag = 10.0**exponent
    target = tuple(mag * c for c in _unit(rng, 4))
    argv = ("factor-quat", "--poly=" + _poly_text(cs), "--input", _dumps(list(target)))
    return "factor-quat", argv, {"poly": cs, "target": target}


def _verify_bounds(rng, n, fmt, samples=1000):
    cs = _float_coeffs(rng, rng.randint(1, 3))
    argv = ("verify-bounds", "--poly=" + _poly_text(cs), "--n", str(n), "--trials", "1",
            "--samples", str(samples),
            "--seed", str(rng.randrange(10**6)), "--format", fmt)
    return "verify-bounds", argv, {"n": n, "trials": 1, "format": fmt}


def _sweep(rng, n, trials):
    cs = _float_coeffs(rng, rng.randint(1, 3))
    argv = ("sweep-constants", "--poly=" + _poly_text(cs), "--n", str(n), "--trials", str(trials),
            "--seed", str(rng.randrange(10**6)), "--format", "csv")
    return "sweep-constants", argv, {"n": n, "trials": trials, "degree": len(cs) - 1}


def _sphere(rng, n):
    matrix = [[rng.randint(-8, 8) / 4 for _ in range(n)] for _ in range(n)]
    argv = ("sphere-avg", "--input", _dumps(matrix), "--samples", "2000",
            "--seed", str(rng.randrange(10**6)))
    return "sphere-avg", argv, {"matrix": matrix, "samples": 2000}


# Sphere samples of the n = 16 verify-bounds request, the slowest of a
# float-verify round: spread evenly over this range, they spread its cost
# evenly over about 45..95 ms on the reference VM, so the tail percentile,
# which falls inside this request's costs, does not sit on one narrow class.
VB16_SAMPLES = (1000, 64000)


def _float_round(rng, weyls):
    magnitudes, spread = weyls
    yield _verify_bounds(rng, 4, "json")
    yield _verify_bounds(rng, 8, "csv")
    lo, hi = VB16_SAMPLES
    yield _verify_bounds(rng, 16, rng.choice(("json", "csv")), round(lo + (hi - lo) * spread.next()))
    yield _sweep(rng, 3, 10)
    yield _sphere(rng, rng.randint(3, 6))
    yield _telescope(rng, "complex", 4)
    lo, hi = SOLVER_DECADES
    for _ in range(6):
        yield _solve_quat(rng, lo + (hi - lo) * magnitudes.next())
        yield _factor_quat(rng, lo + (hi - lo) * magnitudes.next())


def _float_warmup(rng):
    return _verify_bounds(rng, 4, "json")


def _float_cold(rng):
    for _ in range(3):
        yield _sphere(rng, 3)
    for _ in range(2):
        yield _sweep(rng, 2, 5)
    for _ in range(2):
        yield _telescope(rng, "complex", 2)


# Replay seconds of one round on the reference 2-vCPU VM (see README.md):
# ``--seconds`` sets how many rounds a run replays, this many per round, so
# the work of a run and its request list depend on the seed alone.
ROUND_S = {
    "exact-construct": 1.4,
    "degree-probe": 1.35,
    "float-verify": 0.17,
}


_SPECS = {
    "exact-construct": (_exact_warmup, _exact_cold, _exact_round),
    "degree-probe": (_degree_warmup, _degree_cold, _degree_round),
    "float-verify": (_float_warmup, _float_cold, _float_round),
}


class Plan:
    """The request stream of one workload and seed.

    ``warmup`` and ``cold`` are drawn first, then ``next_round()`` yields the
    replay rounds in order; the same (workload, seed) always gives the same
    requests in the same order.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self._rng = random.Random(f"{workload}:{seed}")
        self._seen = set()
        self._count = 0
        warmup, cold, self._round = _SPECS[workload]
        self.warmup = self._unique(*warmup(self._rng))
        self.cold = [self._unique(*spec) for spec in cold(self._rng)]
        self._weyls = (Weyl(self._rng.random()), Weyl(self._rng.random()))

    def _unique(self, kind, argv, expect):
        if argv in self._seen:
            raise AssertionError(f"duplicate request {argv}")
        self._seen.add(argv)
        self._count += 1
        return Request(self._count, kind, argv, expect)

    def next_round(self) -> list:
        reqs = [self._unique(*spec) for spec in self._round(self._rng, self._weyls)]
        self._rng.shuffle(reqs)
        return reqs
