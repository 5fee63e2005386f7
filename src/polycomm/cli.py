"""Command-line front end.

Subcommands construct witnesses (quaternion solutions, matrix
realizations, nonzero-trace pairs, algebraic degree probes) or run
verification sweeps (telescoping identity, norm bounds, sphere averages,
empirical constants).  Output is canonical JSON (sorted keys, fixed indent)
or CSV, so a fixed argument list produces byte-identical output.

Each subcommand is declared once, by _subcommand on the builder of its
report document.  main() alone adds the schema/command envelope, writes
JSON or CSV and turns the document's verdict into the exit code.

Exit codes: 0 success, 2 rejected input, 3 a verification failed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Callable, Optional

from . import norms
from .matrix import CC, GenericMatrix, telescoping_expand
from .poly import Polynomial, poly_commutator
from .quat import (
    VerificationError,
    factor_into_two_commutators,
    solve_poly_commutator,
)
from .realize import (
    DegreeNotBoundedError,
    algebraic_degree_probe,
    nonzero_trace_witness,
    realize_traceless,
    realize_zero_diagonal,
)
from .sampling import (
    complex_gaussian_matrix,
    np_stream,
    quaternion_matrix,
    rational_matrix,
    stream,
)
from .serialize import (
    DecodeError,
    decode_matrix,
    decode_quaternion,
    dumps_canonical,
    encode_matrix,
    encode_polynomial,
    encode_quaternion,
    encode_witness,
    polynomial_from_text,
)

SCHEMA = 1


def _load_json(text_or_path: str):
    s = text_or_path.strip()
    if s.startswith(("{", "[")):
        return json.loads(s)
    if not os.path.isfile(text_or_path):
        raise DecodeError(
            f"--input {text_or_path!r} is neither inline JSON (an object or an"
            " array) nor a readable file"
        )
    with open(text_or_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_csv(columns, rows) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        # booleans spelled as in JSON; csv writes None as an empty cell
        bools = {k: json.dumps(v) for k, v in row.items() if isinstance(v, bool)}
        writer.writerow({**row, **bools})
    sys.stdout.write(buf.getvalue())


def _finite(x):
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


def _require_exact(p: Polynomial, what: str) -> None:
    if not p.is_exact():
        raise DecodeError(f"{what} needs exact integer or rational coefficients")


def _finite_float(text: str) -> float:
    """argparse type: a finite float (nan and inf are input errors)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite input: {text!r}")
    return value


_finite_float.__name__ = "float"  # argparse names the type in "invalid float value"


# Largest accepted --n, --samples and --trials, so that no count can ask for
# an allocation or a loop without bound.  Each sits above the largest value
# the tests and benchmark use: --n 16 (float-verify's verify-bounds request in
# bench/workloads.py), --samples 100000 (criterion 11's sphere average) and
# --trials 500 (criterion 10's bound checks).
MAX_N, MAX_SAMPLES, MAX_TRIALS = 32, 200_000, 1000


def _count(minimum: float, maximum: int):
    """argparse type: an integer count from minimum to maximum.  A minimum
    of -inf leaves the lower end to the subcommand's own check."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    count.__name__ = "int"  # argparse names the type in "invalid int value"
    return count


# argparse keywords of each option, shared by every subcommand that takes
# it; a subcommand adds the default and help not given here.  "attempts" is
# the --trials of trace-witness: random tries after its fixed candidates,
# so zero is allowed there.
_OPTIONS = {
    "poly": (
        "--poly",
        {
            "required": True,
            "help": "coefficients, constant first, comma separated (e.g. 0,1,2)",
        },
    ),
    "input": (
        "--input",
        {"required": True, "help": "inline JSON or a path to a JSON file"},
    ),
    "ring": ("--ring", {"choices": ("rational", "complex", "quaternion")}),
    "n": ("--n", {"type": _count(-math.inf, MAX_N)}),
    "seed": ("--seed", {"type": int, "default": 0}),
    "trials": ("--trials", {"type": _count(1, MAX_TRIALS)}),
    "attempts": ("--trials", {"type": _count(0, MAX_TRIALS)}),
    "samples": ("--samples", {"type": _count(-math.inf, MAX_SAMPLES)}),
    "tolerance": ("--tolerance", {"type": _finite_float}),
}


@dataclass(frozen=True)
class _Command:
    build: Callable  # parsed arguments -> report document; its docstring is the help
    options: tuple  # (option, default, help), trailing parts optional, in --help order
    verdict: Optional[str]  # document key whose truth gives exit 0, else 3
    csv_rows: Optional[tuple]  # (document key of the rows, CSV columns); adds --format


_COMMANDS = {}


def _subcommand(name: str, *options, verdict="verified", csv_rows=None):
    """Declare the decorated builder as subcommand name (in --help order)."""

    def register(build):
        _COMMANDS[name] = _Command(build, options, verdict, csv_rows)
        return build

    return register


@_subcommand("solve-quat", ("poly",), ("input",), ("tolerance", 1e-8))
def _solve_quat(args) -> dict:
    """solve p(ab) - p(ba) = v for an imaginary quaternion v"""
    p = polynomial_from_text(args.poly)
    v = decode_quaternion(_load_json(args.input), exact=False)
    sol = solve_poly_commutator(p, v, tol=args.tolerance)
    target = v.to_float().im()
    residual = (poly_commutator(p, sol.a, sol.b) - target).norm()
    return {
        "polynomial": encode_polynomial(p),
        "target": encode_quaternion(v.to_float()),
        "a": encode_quaternion(sol.a),
        "b": encode_quaternion(sol.b),
        "t": sol.t,
        "residual": residual,
        "verified": residual <= args.tolerance * (1.0 + target.norm()),
    }


@_subcommand("factor-quat", ("poly",), ("input",), ("tolerance", 1e-8))
def _factor_quat(args) -> dict:
    """write any quaternion as a product of two p-differences"""
    p = polynomial_from_text(args.poly)
    alpha = decode_quaternion(_load_json(args.input), exact=False).to_float()
    pairs = factor_into_two_commutators(p, alpha, tol=args.tolerance)
    d1 = poly_commutator(p, *pairs[0])
    d2 = poly_commutator(p, *pairs[1])
    residual = (d1 * d2 - alpha).norm()
    return {
        "polynomial": encode_polynomial(p),
        "target": encode_quaternion(alpha),
        "pairs": [[encode_quaternion(a), encode_quaternion(b)] for a, b in pairs],
        "factors": [encode_quaternion(d1), encode_quaternion(d2)],
        "residual": residual,
        "verified": residual <= args.tolerance * (1.0 + alpha.norm()),
    }


def _witness_report(witness) -> dict:
    # realize_zero_diagonal ran witness.verify() and raises VerificationError
    # unless it held, so a returned witness is a verified one
    return {"witness": encode_witness(witness), "verified": True}


@_subcommand("realize-matrix", ("poly",), ("input",))
def _realize_matrix(args) -> dict:
    """realize a zero-diagonal exact matrix as p(AB) - p(BA)"""
    p = polynomial_from_text(args.poly)
    _require_exact(p, "matrix realization")
    data = _load_json(args.input)
    g = None
    if isinstance(data, dict) and "matrix" in data:
        a = decode_matrix(data["matrix"])
        if "conjugator" in data:
            g = decode_matrix(data["conjugator"])
    else:
        a = decode_matrix(data)
    return _witness_report(realize_zero_diagonal(p, a, g=g))


@_subcommand("realize-traceless", ("poly",), ("input",))
def _realize_traceless(args) -> dict:
    """realize a traceless rational matrix as p(AB) - p(BA)"""
    p = polynomial_from_text(args.poly)
    _require_exact(p, "matrix realization")
    a = decode_matrix(_load_json(args.input))
    return _witness_report(realize_traceless(p, a))


@_subcommand(
    "trace-witness",
    ("poly",), ("n", 2), ("seed",), ("attempts", 200, "random attempts"),
)
def _trace_witness(args) -> dict:
    """quaternion matrices where p(AB) - p(BA) has nonzero trace"""
    p = polynomial_from_text(args.poly)
    _require_exact(p, "the trace witness search")
    a, b = nonzero_trace_witness(p, args.n, seed=args.seed, attempts=args.trials)
    tr = poly_commutator(p, a, b).trace()
    return {
        "polynomial": encode_polynomial(p),
        "n": args.n,
        "seed": args.seed,
        "a": encode_matrix(a),
        "b": encode_matrix(b),
        "trace": encode_quaternion(tr),
        "verified": not tr.is_zero(),
    }


@_subcommand(
    "probe-degree",
    ("input",), ("seed",),
    ("trials", 8, "random draws for the lower witness at degree - 1"),
)
def _probe_degree(args) -> dict:
    """estimate the algebraic degree of a quaternion or exact matrix"""
    data = _load_json(args.input)
    if isinstance(data, list):
        element = decode_quaternion(data, exact=True)
    elif isinstance(data, dict):
        element = decode_matrix(data)
        if not element.ring.exact:
            raise DecodeError("the degree probe needs an exact backend")
    else:
        raise DecodeError("input must be a quaternion array or a matrix object")
    result = algebraic_degree_probe(element, trials=args.trials, seed=args.seed)
    return {
        "seed": args.seed,
        "trials_per_degree": result.trials_per_degree,
        "estimated_degree": result.estimated_degree,
        "vanish_pattern": {str(m): v for m, v in result.vanish_pattern.items()},
        # algebraic_degree_probe raises VerificationError unless both the
        # annihilator and the lower witness held
        "verified": True,
    }


_CHECK_NAMES = ("bottcher-wenzel", "frobenius", "numerical-radius", "sphere-average")


@_subcommand(
    "verify-bounds",
    ("poly",), ("n", 4), ("seed",), ("trials", 3),
    ("samples", 4000, "Monte Carlo samples"),
    verdict="all_satisfied",
    csv_rows=(
        "checks",
        ("check", "trial", "seed", "n", "degree", "lhs", "rhs", "ratio", "mc_margin",
         "satisfied"),
    ),
)
def _verify_bounds(args) -> dict:
    """check the norm bounds on random complex matrices"""
    p = polynomial_from_text(args.poly)
    gen = np_stream(args.seed, "verify-bounds")
    rows = []
    for trial in range(args.trials):
        a = complex_gaussian_matrix(gen, args.n)
        b = complex_gaussian_matrix(gen, args.n)
        reports = (
            norms.check_bottcher_wenzel(a, b, seed=args.seed),
            norms.check_frobenius_bound(p, a, b, seed=args.seed),
            norms.check_numrad_bound(p, a, b, seed=args.seed),
            norms.check_average_bound(p, a, b, samples=args.samples, seed=args.seed),
        )
        for name, rep in zip(_CHECK_NAMES, reports):
            row = {"check": name, "trial": trial, **asdict(rep)}
            row["ratio"] = _finite(rep.ratio)
            rows.append(row)
    return {
        "polynomial": encode_polynomial(p),
        "n": args.n,
        "seed": args.seed,
        "trials": args.trials,
        "samples": args.samples,
        "checks": rows,
        "all_satisfied": all(row["satisfied"] for row in rows),
    }


def _decode_sphere_input(data):
    if isinstance(data, dict):
        return norms.as_complex_array(decode_matrix(data))
    if isinstance(data, list):
        n = len(data)
        for row in data:
            if not isinstance(row, list) or len(row) != n:
                raise DecodeError("bare matrix input must be a square array")
            for v in row:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise DecodeError(
                        "bare matrix entries must be real numbers; use a"
                        " ring-tagged object for complex entries"
                    )
        return norms.as_complex_array(data)
    raise DecodeError("input must be a matrix object or a square number array")


@_subcommand("sphere-avg", ("input",), ("seed",), ("samples", 20000))
def _sphere_avg(args) -> dict:
    """Monte Carlo check of the sphere-average identity for ||A||_F^2"""
    arr = _decode_sphere_input(_load_json(args.input))
    est = norms.spherical_average(arr, args.samples, args.seed)
    deviation = abs(est.mean - est.exact_value)
    return {
        "n": int(arr.shape[0]),
        "seed": args.seed,
        "samples": est.samples,
        "mean": est.mean,
        "std_error": est.std_error,
        "exact_value": est.exact_value,
        "deviation": deviation,
        "verified": deviation <= 4.0 * est.std_error + 1e-12 * (1.0 + est.exact_value),
    }


@_subcommand(
    "sweep-constants",
    ("poly",), ("n", 3), ("seed",), ("trials", 100),
    verdict=None,
    csv_rows=(
        "rows",
        ("trial", "seed", "n", "degree", "lhs", "rhs", "ratio", "commutator_norm",
         "ratio_commutator"),
    ),
)
def _sweep_constants(args) -> dict:
    """empirical max of ||p(AB)-p(BA)||_F against two reference scales"""
    # JSON gets the summary; CSV the per-trial rows behind it
    p = polynomial_from_text(args.poly)
    if args.format == "csv":
        rows = norms.constant_sweep_rows(p, args.n, args.trials, args.seed)
        return {"rows": [{"seed": args.seed, **row} for row in rows]}
    est = norms.empirical_constant(p, args.n, args.trials, args.seed)
    return {
        "polynomial": encode_polynomial(p),
        "n": args.n,
        "seed": args.seed,
        "trials": args.trials,
        "ratio_norm_product": est.ratio_norm_product,
        "ratio_commutator": est.ratio_commutator,
        "skipped_near_commuting": est.skipped_near_commuting,
    }


def _telescope_pairs(ring: str, n: int, trials: int, seed: int):
    if ring == "complex":
        gen = np_stream(seed, "telescope")
        for _ in range(trials):
            a = GenericMatrix.from_rows(CC, complex_gaussian_matrix(gen, n).tolist())
            b = GenericMatrix.from_rows(CC, complex_gaussian_matrix(gen, n).tolist())
            yield a, b
        return
    rng = stream(seed, "telescope")
    for _ in range(trials):
        if ring == "rational":
            yield (
                rational_matrix(rng, n, denominators=(1, 1, 2, 3)),
                rational_matrix(rng, n, denominators=(1, 1, 2, 3)),
            )
        else:
            yield quaternion_matrix(rng, n), quaternion_matrix(rng, n)


@_subcommand(
    "verify-telescope",
    ("poly",), ("ring", "rational"), ("n", 3), ("seed",), ("trials", 20),
    ("tolerance", 1e-10),
    verdict="all_equal",
)
def _verify_telescope(args) -> dict:
    """check the telescoped commutator expansion on random pairs"""
    p = polynomial_from_text(args.poly)
    if args.ring in ("rational", "quaternion"):
        _require_exact(p, f"the {args.ring} backend")
    detail = []
    worst = 0.0
    for trial, (a, b) in enumerate(
        _telescope_pairs(args.ring, args.n, args.trials, args.seed)
    ):
        report = telescoping_expand(p, a, b, tol=args.tolerance)
        worst = max(worst, report.max_entry_deviation)
        detail.append(
            {
                "trial": trial,
                "equal": report.equal,
                "max_entry_deviation": report.max_entry_deviation,
            }
        )
    return {
        "polynomial": encode_polynomial(p),
        "ring": args.ring,
        "n": args.n,
        "seed": args.seed,
        "trials": args.trials,
        "all_equal": all(row["equal"] for row in detail),
        "max_entry_deviation": worst,
        "detail": detail,
    }


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage, then "error: ..." last, as for every input error
        self.exit(2, f"{self.format_usage()}error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: formatting the ten subparsers costs more than a
    # small request, and no option has a mutable default, so sharing is safe
    ap = _Parser(
        prog="polycomm",
        description="Witness constructions and verification sweeps for "
        "p(ab) - p(ba) over quaternions and matrices.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.build.__doc__)
        for option, *spec in command.options:
            flag, keywords = _OPTIONS[option]
            sp.add_argument(flag, **keywords, **dict(zip(("default", "help"), spec)))
        if command.csv_rows:
            sp.add_argument("--format", choices=("json", "csv"), default="json")
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    command = _COMMANDS[args.command]
    try:
        doc = command.build(args)
        if command.csv_rows and args.format == "csv":
            rows_key, columns = command.csv_rows
            _write_csv(columns, doc[rows_key])
        else:
            sys.stdout.write(
                dumps_canonical({"schema": SCHEMA, "command": args.command, **doc})
            )
    except (VerificationError, DegreeNotBoundedError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if command.verdict is None or doc[command.verdict] else 3


if __name__ == "__main__":
    sys.exit(main())
