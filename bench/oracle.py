"""Checks of polycomm CLI responses that do not trust polycomm.

Nothing here imports polycomm.  Exact results are recomputed with plain
``Fraction`` nested-list matrix products and a 4-tuple quaternion product;
float results are recomputed from the printed witnesses.  A response is
judged by what it prints, never by its own ``verified`` field.

``check(request, stdout)`` returns None when an exit-0 response is right,
else a one-line reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from fractions import Fraction

# CLI defaults the float checks are judged against (cli.py: --tolerance 1e-8
# for the quaternion solvers, _REL_SLACK 1e-10 for the bound checkers).
QUAT_TOL = 1e-8
BOUND_SLACK = 1e-10

F0 = Fraction(0)
F1 = Fraction(1)


# ---------------------------------------------------------------- arithmetic


def qmul(a, b):
    """Hamilton product of 4-tuples (w, x, y, z); works on Fractions or floats."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def qadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def qsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def qnorm(q) -> float:
    return math.hypot(*(float(c) for c in q))


class Ring:
    """The scalar operations one matrix ring needs."""

    def __init__(self, name, zero, one, add, sub, mul, embed, flatten):
        self.name = name
        self.zero = zero
        self.one = one
        self.add = add
        self.sub = sub
        self.mul = mul
        self.embed = embed
        self.flatten = flatten


RATIONAL = Ring(
    "rational", F0, F1, operator.add, operator.sub, operator.mul, Fraction,
    lambda s: (s,),
)
QUATERNION = Ring(
    "quaternion", (F0,) * 4, (F1, F0, F0, F0), qadd, qsub, qmul,
    lambda c: (Fraction(c), F0, F0, F0), tuple,
)
RINGS = {r.name: r for r in (RATIONAL, QUATERNION)}


def identity(ring, n):
    return [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]


def matmul(ring, a, b):
    add, mul = ring.add, ring.mul
    cols = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = mul(row[0], col[0])
            for x, y in zip(row[1:], col[1:]):
                acc = add(acc, mul(x, y))
            out_row.append(acc)
        out.append(out_row)
    return out


def matsub(ring, a, b):
    return [[ring.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def poly_eval(ring, coeffs, x):
    """Horner evaluation of sum c_k x^k at a square matrix x."""
    n = len(x)
    acc = [[ring.embed(coeffs[-1]) if i == j else ring.zero for j in range(n)] for i in range(n)]
    for c in reversed(coeffs[:-1]):
        acc = matmul(ring, acc, x)
        for i in range(n):
            acc[i][i] = ring.add(acc[i][i], ring.embed(c))
    return acc


def poly_commutator(ring, coeffs, a, b):
    """p(ab) - p(ba) for square matrices a, b over ring."""
    return matsub(
        ring, poly_eval(ring, coeffs, matmul(ring, a, b)), poly_eval(ring, coeffs, matmul(ring, b, a))
    )


def inverse(a):
    """Exact Gauss-Jordan inverse of a rational matrix."""
    n = len(a)
    work = [
        [Fraction(v) for v in row] + [F1 if i == j else F0 for j in range(n)]
        for i, row in enumerate(a)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [inv * v for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def krylov_degree(ring, x) -> int:
    """Degree of the minimal polynomial of x over the rationals: the first k
    for which x^k lies in the rational span of I, x, ..., x^(k-1)."""
    reduced = []  # (pivot, row normalized to 1 at pivot)
    power = identity(ring, len(x))
    k = 0
    while True:
        vec = [c for row in power for s in row for c in ring.flatten(s)]
        for pivot, red in reduced:
            if vec[pivot]:
                f = vec[pivot]
                vec = [v - f * r for v, r in zip(vec, red)]
        pivot = next((i for i, v in enumerate(vec) if v), None)
        if pivot is None:
            return k
        inv = 1 / vec[pivot]
        reduced.append((pivot, [inv * v for v in vec]))
        power = matmul(ring, power, x)
        k += 1


def quat_poly_eval(coeffs, x):
    acc = (coeffs[-1], 0.0, 0.0, 0.0)
    for c in reversed(coeffs[:-1]):
        acc = qadd(qmul(acc, x), (c, 0.0, 0.0, 0.0))
    return acc


def quat_poly_commutator(coeffs, a, b):
    return qsub(quat_poly_eval(coeffs, qmul(a, b)), quat_poly_eval(coeffs, qmul(b, a)))


# ------------------------------------------------------------------ encoding


def encode_rational(v: Fraction):
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else str(v)


def encode_matrix(ring_name, rows) -> dict:
    if ring_name == "rational":
        entries = [[encode_rational(v) for v in row] for row in rows]
    else:
        entries = [[[encode_rational(c) for c in q] for q in row] for row in rows]
    return {"ring": ring_name, "entries": entries}


def decode_matrix(doc):
    ring = RINGS[doc["ring"]]
    if ring is RATIONAL:
        rows = [[Fraction(str(v)) for v in row] for row in doc["entries"]]
    else:
        rows = [[tuple(Fraction(str(c)) for c in q) for q in row] for row in doc["entries"]]
    return ring, rows


def decode_coeffs(values):
    return [Fraction(str(c)) for c in values]


# -------------------------------------------------------------------- checks


class Reject(Exception):
    """A response the oracle refuses."""


def _require(cond, reason):
    if not cond:
        raise Reject(reason)


def _envelope(doc, command):
    _require(doc.get("schema") == 1, "schema is not 1")
    _require(doc.get("command") == command, f"command is not {command}")


def _check_realization(req, out):
    doc = json.loads(out)
    _envelope(doc, req.kind)
    w = doc["witness"]
    e = req.expect
    _require(decode_coeffs(w["polynomial"]) == e["poly"], "witness polynomial differs from the request")
    ring, target = decode_matrix(w["target"])
    _require(ring.name == e["ring"] and target == e["target"], "printed target differs from the request")
    ring_a, a1 = decode_matrix(w["a1"])
    ring_b, b1 = decode_matrix(w["b1"])
    _require(ring_a is ring and ring_b is ring, "witness matrices are over another ring")
    diff = poly_commutator(ring, e["poly"], a1, b1)
    _require(diff == e["target"], "p(A1 B1) - p(B1 A1) differs from the requested target")


def _check_trace_witness(req, out):
    doc = json.loads(out)
    _envelope(doc, "trace-witness")
    e = req.expect
    _require(doc["n"] == e["n"], "n differs from the request")
    _require(decode_coeffs(doc["polynomial"]) == e["poly"], "polynomial differs from the request")
    ring_a, a = decode_matrix(doc["a"])
    ring_b, b = decode_matrix(doc["b"])
    _require(ring_a is QUATERNION and ring_b is QUATERNION, "witness is not over the exact quaternions")
    _require(len(a) == e["n"], "witness has the wrong size")
    diff = poly_commutator(QUATERNION, e["poly"], a, b)
    trace = QUATERNION.zero
    for i in range(len(diff)):
        trace = qadd(trace, diff[i][i])
    printed = tuple(Fraction(str(c)) for c in doc["trace"])
    _require(trace == printed, "printed trace differs from the recomputed one")
    _require(trace != QUATERNION.zero, "trace of p(AB) - p(BA) is zero")


def _check_probe(req, out):
    doc = json.loads(out)
    _envelope(doc, "probe-degree")
    d = req.expect["degree"]
    _require(doc["estimated_degree"] == d, f"estimated degree {doc['estimated_degree']} is not {d}")
    _require(doc["trials_per_degree"] == req.expect["trials"], "trials differ from the request")
    pattern = {str(m): m == d for m in range(1, d + 1)}
    _require(doc["vanish_pattern"] == pattern, "vanish pattern does not stop at the degree")


def _check_telescope(req, out):
    doc = json.loads(out)
    _envelope(doc, "verify-telescope")
    detail = doc["detail"]
    _require(len(detail) == req.expect["trials"], "wrong number of trials")
    _require([t["trial"] for t in detail] == list(range(len(detail))), "trial indices out of order")
    devs = [t["max_entry_deviation"] for t in detail]
    _require(
        all(t["equal"] for t in detail) and doc["all_equal"] is True,
        "a telescoped expansion is unequal",
    )
    _require(doc["max_entry_deviation"] == max(devs), "max deviation is not the max over trials")
    if req.expect["ring"] == "complex":
        _require(all(math.isfinite(v) and v >= 0.0 for v in devs), "deviation not finite")
    else:
        _require(all(v == 0.0 for v in devs), "exact ring with a nonzero deviation")


def _bound_ok(lhs, rhs, margin):
    return lhs <= (rhs + margin) * (1.0 + BOUND_SLACK)


def _check_bound_rows(rows, expect):
    names = ("bottcher-wenzel", "frobenius", "numerical-radius", "sphere-average")
    _require([r["check"] for r in rows] == list(names) * expect["trials"], "wrong set of checks")
    for r in rows:
        lhs, rhs, margin = float(r["lhs"]), float(r["rhs"]), float(r["mc_margin"])
        _require(int(r["n"]) == expect["n"], "n differs from the request")
        _require(math.isfinite(lhs) and math.isfinite(rhs) and lhs >= 0.0, "non-finite bound side")
        _require(_bound_ok(lhs, rhs, margin), f"{r['check']} bound violated: {lhs} > {rhs}")
        _require(r["satisfied"] in (True, "true"), f"{r['check']} printed as unsatisfied")
        _require(float(r["ratio"]) == (lhs / rhs if rhs > 0 else 0.0), "ratio is not lhs / rhs")


def _check_verify_bounds(req, out):
    if req.expect["format"] == "csv":
        rows = list(csv.DictReader(io.StringIO(out)))
        _check_bound_rows(rows, req.expect)
        return
    doc = json.loads(out)
    _envelope(doc, "verify-bounds")
    _check_bound_rows(doc["checks"], req.expect)
    _require(doc["all_satisfied"] is True, "all_satisfied is not true")


def _check_sweep(req, out):
    rows = list(csv.DictReader(io.StringIO(out)))
    e = req.expect
    _require([int(r["trial"]) for r in rows] == list(range(e["trials"])), "wrong trial rows")
    for r in rows:
        lhs, rhs, cn = float(r["lhs"]), float(r["rhs"]), float(r["commutator_norm"])
        _require(int(r["n"]) == e["n"] and int(r["degree"]) == e["degree"], "n or degree differs")
        _require(all(math.isfinite(v) and v >= 0.0 for v in (lhs, rhs, cn)), "non-finite norm")
        _require(float(r["ratio"]) == lhs / rhs, "ratio is not lhs / rhs")
        if cn >= 1e-12:
            _require(float(r["ratio_commutator"]) == lhs / cn, "ratio_commutator is not lhs / ||[A,B]||")
        else:
            _require(r["ratio_commutator"] == "", "near-commuting row has a ratio")


def _check_sphere(req, out):
    doc = json.loads(out)
    _envelope(doc, "sphere-avg")
    e = req.expect
    exact = math.fsum(float(v) ** 2 for row in e["matrix"] for v in row)
    _require(doc["n"] == len(e["matrix"]) and doc["samples"] == e["samples"], "n or samples differ")
    _require(abs(doc["exact_value"] - exact) <= 1e-12 * exact, "exact value is not ||A||_F^2")
    dev = abs(doc["mean"] - doc["exact_value"])
    _require(doc["deviation"] == dev, "deviation is not |mean - exact|")
    _require(
        dev <= 4.0 * doc["std_error"] + 1e-12 * (1.0 + doc["exact_value"]),
        "Monte Carlo mean is more than four standard errors off",
    )


def _require_residual(residual, target):
    bound = QUAT_TOL * (1.0 + qnorm(target))
    _require(residual <= bound, f"residual {residual:.3e} above tolerance {bound:.3e}")


def _float_quat(v):
    return tuple(float(c) for c in v)


def _check_solve(req, out):
    doc = json.loads(out)
    _envelope(doc, "solve-quat")
    e = req.expect
    _require(_float_quat(doc["target"]) == e["target"], "printed target differs from the request")
    coeffs = [float(c) for c in e["poly"]]
    diff = quat_poly_commutator(coeffs, _float_quat(doc["a"]), _float_quat(doc["b"]))
    residual = qnorm(qsub(diff, e["target"]))
    _require_residual(residual, e["target"])


def _check_factor(req, out):
    doc = json.loads(out)
    _envelope(doc, "factor-quat")
    e = req.expect
    _require(_float_quat(doc["target"]) == e["target"], "printed target differs from the request")
    coeffs = [float(c) for c in e["poly"]]
    (a1, b1), (a2, b2) = [[_float_quat(q) for q in pair] for pair in doc["pairs"]]
    d1 = quat_poly_commutator(coeffs, a1, b1)
    d2 = quat_poly_commutator(coeffs, a2, b2)
    residual = qnorm(qsub(qmul(d1, d2), e["target"]))
    _require_residual(residual, e["target"])


_CHECKS = {
    "realize-matrix": _check_realization,
    "realize-traceless": _check_realization,
    "trace-witness": _check_trace_witness,
    "probe-degree": _check_probe,
    "verify-telescope": _check_telescope,
    "verify-bounds": _check_verify_bounds,
    "sweep-constants": _check_sweep,
    "sphere-avg": _check_sphere,
    "solve-quat": _check_solve,
    "factor-quat": _check_factor,
}


def check(req, out: str):
    """None when the exit-0 output out answers req correctly, else the reason."""
    try:
        _CHECKS[req.kind](req, out)
    except Reject as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None


def claims_success(out: str) -> bool:
    """True when a document printed with a nonzero exit still says it verified."""
    try:
        doc = json.loads(out)
    except ValueError:
        return False
    return isinstance(doc, dict) and any(
        doc.get(key) is True for key in ("verified", "all_satisfied", "all_equal")
    )
