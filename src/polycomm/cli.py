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
from .poly import Polynomial
from .quat import (
    VerificationError,
    factor_into_two_commutators,
    solve_poly_commutator,
)
from .realize import (
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
        bools = {k: "true" if v else "false" for k, v in row.items() if isinstance(v, bool)}
        writer.writerow({**row, **bools})
    sys.stdout.write(buf.getvalue())


def _require_exact(p: Polynomial, what: str) -> None:
    if not p.is_exact():
        raise DecodeError(f"{what} needs exact integer or rational coefficients")


def _tolerance(text: str) -> float:
    """argparse type: a finite, nonnegative float (nan, inf and negatives are input errors)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite input: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return value


_tolerance.__name__ = "float"  # argparse names the type in "invalid float value"


# Largest accepted --n, --samples and --trials, so that no count can ask for
# an allocation or a loop without bound.  Each sits above the largest value
# the tests and benchmark use: --n 16 (float-verify's verify-bounds request in
# bench/workloads.py), --samples 100000 (criterion 11's sphere average) and
# --trials 500 (criterion 10's bound checks).  At the caps the sphere average
# peaks near 52 MiB: the 8 * samples * n bytes of real parts it draws whole,
# plus one row block of 2^15 / n^2 rows, at most 2048 (norms.spherical_average).
MAX_N, MAX_SAMPLES, MAX_TRIALS = 32, 200_000, 1000


def _count(minimum: int, maximum: int):
    """argparse type: an integer count from minimum to maximum."""

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
# so zero is allowed there.  Every subcommand needs --n of at least 1, so
# argparse names the option; trace-witness checks its own minimum of 2.
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
    "n": ("--n", {"type": _count(1, MAX_N)}),
    "seed": ("--seed", {"type": int, "default": 0}),
    "trials": ("--trials", {"type": _count(1, MAX_TRIALS)}),
    "attempts": ("--trials", {"type": _count(0, MAX_TRIALS)}),
    "samples": ("--samples", {"type": _count(1000, MAX_SAMPLES)}),
    "tolerance": ("--tolerance", {"type": _tolerance}),
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


# Every witness builder raises VerificationError (exit 3) rather than return
# a witness that failed its check, so each witness it returns is verified.
_VERIFIED = {"verified": True}


@_subcommand("solve-quat", ("poly",), ("input",), ("tolerance", 1e-8))
def _solve_quat(args) -> dict:
    """solve p(ab) - p(ba) = v for an imaginary quaternion v"""
    p = polynomial_from_text(args.poly)
    v = decode_quaternion(_load_json(args.input), exact=False)
    sol = solve_poly_commutator(p, v, tol=args.tolerance)
    return {
        "polynomial": encode_polynomial(p),
        "target": encode_quaternion(v),
        "a": encode_quaternion(sol.a),
        "b": encode_quaternion(sol.b),
        "t": sol.t,
        "residual": sol.residual,
        **_VERIFIED,
    }


@_subcommand("factor-quat", ("poly",), ("input",), ("tolerance", 1e-8))
def _factor_quat(args) -> dict:
    """write any quaternion as a product of two p-differences"""
    p = polynomial_from_text(args.poly)
    alpha = decode_quaternion(_load_json(args.input), exact=False)
    fac = factor_into_two_commutators(p, alpha, tol=args.tolerance)
    return {
        "polynomial": encode_polynomial(p),
        "target": encode_quaternion(alpha),
        "pairs": [[encode_quaternion(a), encode_quaternion(b)] for a, b in fac.pairs],
        "factors": [encode_quaternion(d) for d in fac.factors],
        "residual": fac.residual,
        **_VERIFIED,
    }


def _witness_report(witness) -> dict:
    return {"witness": encode_witness(witness), **_VERIFIED}


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
    a, b, trace = nonzero_trace_witness(p, args.n, seed=args.seed, attempts=args.trials)
    return {
        "polynomial": encode_polynomial(p),
        "n": args.n,
        "seed": args.seed,
        "a": encode_matrix(a),
        "b": encode_matrix(b),
        "trace": encode_quaternion(trace),
        **_VERIFIED,
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
        **_VERIFIED,
    }


_CHECK_NAMES = ("bottcher-wenzel", "frobenius", "numerical-radius", "sphere-average")


@_subcommand(
    "verify-bounds",
    ("poly",), ("n", 4), ("seed",), ("trials", 3),
    ("samples", 4000, "echoed in the output; no bound depends on it (the"
     " sphere-average bound reads ||[A,B]||_F^2 exactly)"),
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
            norms.check_bottcher_wenzel(a, b),
            norms.check_frobenius_bound(p, a, b),
            norms.check_numrad_bound(p, a, b),
            norms.check_average_bound(p, a, b),
        )
        for name, rep in zip(_CHECK_NAMES, reports):
            # no bound is a Monte Carlo estimate any more, so no row has a
            # margin; the column stays, as schema 1 and bench/oracle.py read it
            rows.append({"check": name, "trial": trial, "seed": args.seed, **asdict(rep),
                         "mc_margin": 0.0})
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
    return {
        "n": int(arr.shape[0]),
        "seed": args.seed,
        **asdict(est),
        "deviation": est.deviation,
        "verified": est.verified,
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
            yield (GenericMatrix._of_parts(CC, complex_gaussian_matrix(gen, n)[None]),
                   GenericMatrix._of_parts(CC, complex_gaussian_matrix(gen, n)[None]))
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
    ap.subparsers = sub.choices  # name -> subcommand parser, for main's dispatch
    return ap


def _parse(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv), parsed once: when argv[0] names a
    subcommand its parser reads argv[1:], all the top-level parser would
    hand it, and leftovers are the top-level parser's error, as there."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = parser.subparsers.get(argv[0]) if argv else None
    if sub is None:  # empty, --help or an unknown name
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    """Run one subcommand and return its exit code: 0, 2 for an input or
    usage error, 3 when a witness or verdict fails.

    argv (sys.argv[1:] by default) is parsed once (_parse): when argv[0]
    names a subcommand, that subcommand's parser reads the rest; any other
    argv (empty, --help or an unknown name) goes to the top-level parser."""
    try:
        args = _parse(argv)
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
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if command.verdict is None or doc[command.verdict] else 3


if __name__ == "__main__":
    sys.exit(main())
