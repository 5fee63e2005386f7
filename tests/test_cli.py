import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycomm import cli, norms, realize
from polycomm.cli import build_parser, main
from polycomm.matrix import QQ, GenericMatrix
from polycomm.poly import Polynomial
from polycomm.realize import RealizationWitness, realize_zero_diagonal
from polycomm.serialize import encode_witness

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert out, f"no stdout (stderr: {err!r})"
    return code, json.loads(out)


def test_solve_quat_linear_example(capsys):
    code, doc = run_json(
        capsys, "solve-quat", "--poly", "0,1", "--input", "[0,0,0,2]"
    )
    assert code == 0
    assert doc["schema"] == 1
    assert doc["command"] == "solve-quat"
    assert doc["polynomial"] == ["0", "1"]
    assert doc["a"] == [0.0, 0.0, -1.0, 0.0]
    assert doc["b"] == [0.0, 1.0, 0.0, 0.0]
    assert doc["t"] == 1.0
    assert doc["residual"] == 0.0
    assert doc["verified"] is True


def test_solve_quat_square_example(capsys):
    code, doc = run_json(
        capsys, "solve-quat", "--poly", "0,0,1", "--input", "[0,1,0,0]"
    )
    assert code == 0
    assert doc["t"] == 0.25
    assert doc["a"] == [0.0, 0.0, -1.0, -0.25]
    assert doc["verified"] is True


def test_solve_quat_rejects_real_target(capsys):
    code, out, err = run_cli(
        capsys, "solve-quat", "--poly", "0,1", "--input", "[1,0,0,0]"
    )
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_solve_quat_negative_tolerance_fails_verification(capsys):
    code, out, err = run_cli(
        capsys,
        "solve-quat", "--poly", "0,1", "--input", "[0,0,0,2]",
        "--tolerance", "-1",
    )
    assert code == 3
    assert "verification failed:" in err


def test_factor_quat(capsys):
    code, doc = run_json(
        capsys, "factor-quat", "--poly", "0,1", "--input", "[1,0,0,0]"
    )
    assert code == 0
    assert doc["command"] == "factor-quat"
    assert len(doc["pairs"]) == 2
    assert len(doc["pairs"][0]) == 2
    assert doc["factors"][0] == [0.0, 0.0, 1.0, 0.0]
    assert doc["factors"][1] == [0.0, 0.0, -1.0, 0.0]
    assert doc["residual"] <= 1e-12
    assert doc["verified"] is True


def test_realize_matrix_matches_library(capsys):
    code, doc = run_json(
        capsys,
        "realize-matrix", "--poly", "0,0,1",
        "--input", '{"ring": "rational", "entries": [[0, 1], [0, 0]]}',
    )
    assert code == 0
    assert doc["verified"] is True
    expected = encode_witness(
        realize_zero_diagonal(
            Polynomial([0, 0, 1]), GenericMatrix.from_rows(QQ, [[0, 1], [0, 0]])
        )
    )
    assert doc["witness"] == expected
    assert doc["witness"]["a1"]["entries"] == [["1", "1"], ["0", "1"]]
    assert doc["witness"]["b1"]["entries"] == [["0", "-1"], ["0", "1"]]


def test_realize_matrix_quaternion_with_conjugator(capsys):
    """A quaternion matrix with nonzero diagonal realizes through the
    conjugator that flattens it to zero diagonal."""
    matrix = {
        "ring": "quaternion",
        "entries": [
            [[0, 1, 0, 0], [0, 0, 1, 0]],
            [[0, 0, -1, 0], [0, 1, 0, 0]],
        ],
    }
    conjugator = {
        "ring": "quaternion",
        "entries": [
            [[0, 0, 1, 0], [0, 0, 0, 0]],
            [[0, 1, 0, 0], [1, 0, 0, 0]],
        ],
    }
    payload = json.dumps({"matrix": matrix, "conjugator": conjugator})
    code, doc = run_json(
        capsys, "realize-matrix", "--poly", "0,0,1", "--input", payload
    )
    assert code == 0
    assert doc["verified"] is True

    def as_strings(doc_in):
        return {
            "ring": doc_in["ring"],
            "entries": [
                [[str(c) for c in q] for q in row] for row in doc_in["entries"]
            ],
        }

    assert doc["witness"]["target"] == as_strings(matrix)
    assert doc["witness"]["g"] == as_strings(conjugator)


def test_realize_matrix_rejects_bad_input(capsys):
    code, out, err = run_cli(
        capsys,
        "realize-matrix", "--poly", "0,0.5",
        "--input", '{"ring": "rational", "entries": [[0, 1], [0, 0]]}',
    )
    assert code == 2
    code, out, err = run_cli(
        capsys,
        "realize-matrix", "--poly", "0,1",
        "--input", '{"ring": "rational", "entries": [[1, 1], [0, -1]]}',
    )
    assert code == 2
    code, out, err = run_cli(
        capsys, "realize-matrix", "--poly", "0,1", "--input", "{not json"
    )
    assert code == 2
    code, out, err = run_cli(
        capsys, "realize-matrix", "--poly", "0,1", "--input", "/no/such/file.json"
    )
    assert code == 2


def test_realize_traceless(capsys):
    code, doc = run_json(
        capsys,
        "realize-traceless", "--poly", "0,0,1",
        "--input", '{"ring": "rational", "entries": [[1, 0], [0, -1]]}',
    )
    assert code == 0
    assert doc["verified"] is True
    assert doc["witness"]["g"]["entries"] == [["1", "1"], ["1", "-1"]]
    code, out, err = run_cli(
        capsys,
        "realize-traceless", "--poly", "0,1",
        "--input", '{"ring": "rational", "entries": [[1, 0], [0, 0]]}',
    )
    assert code == 2


def test_trace_witness(capsys):
    code, doc = run_json(capsys, "trace-witness", "--poly", "0,1")
    assert code == 0
    assert doc["trace"] == ["0", "0", "0", "2"]
    assert doc["verified"] is True
    # --trials counts random attempts after the fixed candidates, so 0 is valid
    code, doc = run_json(capsys, "trace-witness", "--poly", "0,1", "--trials", "0")
    assert code == 0
    assert doc["trace"] == ["0", "0", "0", "2"]
    code, doc = run_json(capsys, "trace-witness", "--poly", "0,0,1", "--n", "3")
    assert code == 0
    assert doc["n"] == 3
    assert doc["trace"] == ["0", "0", "0", "-4"]
    assert len(doc["a"]["entries"]) == 3


def test_probe_degree_quaternion(capsys):
    code, doc = run_json(capsys, "probe-degree", "--input", "[0,0,1,0]")
    assert code == 0
    assert doc["estimated_degree"] == 2
    assert doc["vanish_pattern"] == {"1": False, "2": True}
    assert doc["verified"] is True


def test_probe_degree_matrix(capsys):
    cube = {
        "ring": "rational",
        "entries": [[0, 0, 2], [1, 0, 0], [0, 1, 0]],
    }
    code, doc = run_json(
        capsys, "probe-degree", "--input", json.dumps(cube), "--trials", "4"
    )
    assert code == 0
    assert doc["estimated_degree"] == 3


def test_probe_degree_exits_three_when_the_lower_witness_fails(capsys, monkeypatch):
    monkeypatch.setattr(realize, "algebraicity_polynomial", lambda y0, probes: 0)
    code, out, err = run_cli(capsys, "probe-degree", "--input", "[0,0,1,0]")
    assert code == 3
    assert out == ""
    failures = [line for line in err.splitlines() if line.startswith("verification failed:")]
    assert len(failures) == 1 and "level 1" in failures[0], err


def test_probe_degree_rejects_float_ring(capsys):
    payload = json.dumps({"ring": "complex", "entries": [[1, 0], [0, 1]]})
    code, out, err = run_cli(capsys, "probe-degree", "--input", payload)
    assert code == 2
    assert "exact" in err


def test_verify_bounds_json(capsys):
    code, doc = run_json(
        capsys,
        "verify-bounds", "--poly", "0,1,1", "--n", "3",
        "--trials", "2", "--samples", "1500", "--seed", "5",
    )
    assert code == 0
    assert doc["all_satisfied"] is True
    assert len(doc["checks"]) == 8
    names = [row["check"] for row in doc["checks"][:4]]
    assert names == ["bottcher-wenzel", "frobenius", "numerical-radius", "sphere-average"]
    for row in doc["checks"]:
        assert row["satisfied"] is True
        assert row["seed"] == 5
    sphere_rows = [r for r in doc["checks"] if r["check"] == "sphere-average"]
    assert all(r["mc_margin"] > 0 for r in sphere_rows)


def test_verify_bounds_csv(capsys):
    code, out, err = run_cli(
        capsys,
        "verify-bounds", "--poly", "0,1", "--n", "2",
        "--trials", "1", "--samples", "1500", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "check,trial,seed,n,degree,lhs,rhs,ratio,mc_margin,satisfied"
    assert len(lines) == 5
    assert lines[1].startswith("bottcher-wenzel,0,0,2,1,")
    assert all(line.endswith(",true") for line in lines[1:])


def test_sphere_avg_identity(capsys):
    code, doc = run_json(
        capsys, "sphere-avg", "--input", "[[1,0],[0,1]]", "--samples", "2000"
    )
    assert code == 0
    assert doc["mean"] == 2.0
    assert doc["std_error"] == 0.0
    assert doc["exact_value"] == 2.0
    assert doc["deviation"] == 0.0
    assert doc["verified"] is True


def test_sphere_avg_ring_tagged_input(capsys):
    payload = json.dumps(
        {"ring": "complex", "entries": [[[0, 1], 0], [0, 2]]}
    )
    code, doc = run_json(
        capsys, "sphere-avg", "--input", payload, "--samples", "5000", "--seed", "3"
    )
    assert code == 0
    assert doc["exact_value"] == 5.0
    assert abs(doc["mean"] - 5.0) <= 4.0 * doc["std_error"]


def test_sphere_avg_rejects_complex_bare_array(capsys):
    code, out, err = run_cli(
        capsys, "sphere-avg", "--input", '[["1+2j", 0], [0, 1]]'
    )
    assert code == 2
    assert "ring-tagged" in err
    code, out, err = run_cli(capsys, "sphere-avg", "--input", "[[1,0],[0")
    assert code == 2


def test_sweep_constants_json(capsys):
    code, doc = run_json(
        capsys, "sweep-constants", "--poly", "0,1", "--n", "3", "--trials", "20"
    )
    assert code == 0
    assert doc["trials"] == 20
    assert 0.0 < doc["ratio_norm_product"] <= 2.0**0.5 * (1 + 1e-12)
    assert abs(doc["ratio_commutator"] - 1.0) <= 1e-12
    assert doc["skipped_near_commuting"] == 0


def test_sweep_constants_csv(capsys):
    code, out, err = run_cli(
        capsys,
        "sweep-constants", "--poly", "0,1", "--n", "1",
        "--trials", "2", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == (
        "trial,seed,n,degree,lhs,rhs,ratio,commutator_norm,ratio_commutator"
    )
    assert len(lines) == 3
    # 1x1 matrices commute, so the commutator ratio column is empty
    assert lines[1].endswith(",")


def test_verify_telescope_rings(capsys):
    for ring in ("rational", "quaternion"):
        code, doc = run_json(
            capsys,
            "verify-telescope", "--poly", "1,2,1", "--ring", ring,
            "--n", "2", "--trials", "5",
        )
        assert code == 0
        assert doc["all_equal"] is True
        assert doc["max_entry_deviation"] == 0.0
        assert len(doc["detail"]) == 5
    code, doc = run_json(
        capsys,
        "verify-telescope", "--poly", "0,1,1", "--ring", "complex",
        "--n", "3", "--trials", "5",
    )
    assert code == 0
    assert doc["all_equal"] is True
    assert 0.0 <= doc["max_entry_deviation"] <= 1e-10


def test_verify_telescope_float_poly_needs_float_ring(capsys):
    code, out, err = run_cli(
        capsys, "verify-telescope", "--poly", "0,0.5", "--ring", "rational"
    )
    assert code == 2
    code, doc = run_json(
        capsys, "verify-telescope", "--poly", "0,0.5", "--ring", "complex"
    )
    assert code == 0


def test_verify_telescope_zero_tolerance_reports_failure(capsys):
    code, doc = run_json(
        capsys,
        "verify-telescope", "--poly", "0,0,1", "--ring", "complex",
        "--n", "3", "--trials", "2", "--tolerance", "0",
    )
    assert code == 3
    assert doc["all_equal"] is False


def test_output_is_byte_identical_across_runs(capsys):
    argv = (
        "verify-bounds", "--poly", "0,1,2", "--n", "3",
        "--trials", "1", "--samples", "1500", "--seed", "9",
    )
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    argv = ("solve-quat", "--poly", "0,1,0,2", "--input", "[0,3,-1,2]")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ("probe-degree", "--input", "[0,0,1,0]", "--trials", "0"),
        ("verify-bounds", "--poly", "0,1", "--trials", "0"),
        ("verify-bounds", "--poly", "0,1", "--trials", "0", "--format", "csv"),
        ("sweep-constants", "--poly", "0,1", "--trials", "-3"),
        ("verify-telescope", "--poly", "0,1", "--trials", "-1"),
        ("trace-witness", "--poly", "0,1", "--trials", "-1"),
    ],
    ids=[
        "probe-degree", "verify-bounds", "verify-bounds-csv", "sweep-constants",
        "verify-telescope", "trace-witness",
    ],
)
def test_bad_trials_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "argument --trials: must be at least" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("sweep-constants", "--poly", "0,1", "--n", "100000", "--trials", "1"),
         "argument --n: must be at most 32, got 100000"),
        (("verify-bounds", "--poly", "0,1", "--n", "33"),
         "argument --n: must be at most 32, got 33"),
        (("trace-witness", "--poly", "0,1", "--n", "10000000000"),
         "argument --n: must be at most 32, got 10000000000"),
        (("verify-telescope", "--poly", "0,1", "--n", "99"),
         "argument --n: must be at most 32, got 99"),
        (("verify-bounds", "--poly", "0,1", "--samples", "200001"),
         "argument --samples: must be at most 200000, got 200001"),
        (("sphere-avg", "--input", "[[1,0],[0,1]]", "--samples", "1000000000"),
         "argument --samples: must be at most 200000, got 1000000000"),
        (("sweep-constants", "--poly", "0,1", "--trials", "1001", "--format", "csv"),
         "argument --trials: must be at most 1000, got 1001"),
        (("trace-witness", "--poly", "0,1", "--trials", "100000"),
         "argument --trials: must be at most 1000, got 100000"),
        (("probe-degree", "--input", "[0,0,1,0]", "--trials", "5000"),
         "argument --trials: must be at most 1000, got 5000"),
    ],
    ids=["sweep-n", "bounds-n", "trace-n", "telescope-n", "bounds-samples", "sphere-samples",
         "sweep-trials", "trace-trials", "probe-trials"],
)
def test_counts_over_their_cap_rejected_at_parse_time(capsys, monkeypatch, argv, message):
    # over a cap, argparse stops before any subcommand builds anything
    def must_not_run(args):
        raise AssertionError(f"{args.command} ran with a count over its cap")

    monkeypatch.setattr(cli, "_COMMANDS", {
        name: dataclasses.replace(command, build=must_not_run)
        for name, command in cli._COMMANDS.items()
    })
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


# Option values for the CLI contract property: valid, at a boundary, or
# malformed.  Counts stay small or lie over their cap, where argparse stops
# before anything is built, so every example runs in milliseconds.
_MATRIX_INPUTS = [
    '{"ring": "rational", "entries": [["0", "1/2"], ["2", "0"]]}',
    '{"ring": "rational", "entries": [["1", "2"], ["3", "-1"]]}',
    '{"ring": "quaternion",'
    ' "entries": [[[0, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 0]]]}',
    '{"ring": "complex", "entries": [[[1, 0], 0], [0, 1]]}',
    '{"matrix": {"ring": "rational", "entries": [["0", "1"], ["1", "0"]]},'
    ' "conjugator": {"ring": "rational", "entries": [["0", "0"], ["0", "0"]]}}',
    "[[1, 0], [0, 1]]",
]
_BAD_JSON = [
    "", "[", "null", "{}", '"x"', "[1, 2, 3]", "[NaN, 0, 0, 1]", "[[1e400]]",
    '{"ring": "bogus", "entries": [[1]]}', '{"ring": "rational", "entries": []}',
    '{"ring": "rational", "entries": [["1/0"]]}', "no/such/file.json",
]
OPTION_VALUES = {
    "poly": ["0,1", "0,0,1", "1,2,3", "0,1,0,1", "1/2,1", "0.5,1", "1e300,1", "0", "5",
             "", "a", "1,,2", "0,nan", "0,1e400", "1/0,1"],
    "input": ["[0,0,0,2]", "[0,1,0,0]", "[1,0,0,0]", "[0,1e300,0,0]", "[1,1e-300,0,0]",
              *_MATRIX_INPUTS, *_BAD_JSON],
    "ring": ["rational", "complex", "quaternion", "bogus"],
    "n": ["1", "2", "3", "0", "-1", str(cli.MAX_N + 1), "x", "1.5"],
    "seed": ["0", "7", "-1", str(2**70), "x"],
    "trials": ["1", "2", "0", "-1", str(cli.MAX_TRIALS + 1), "x"],
    "attempts": ["0", "1", "2", "-1", str(cli.MAX_TRIALS + 1), "x"],
    "samples": ["1000", "1500", "0", "-1", str(cli.MAX_SAMPLES + 1), "x"],
    "tolerance": ["1e-8", "0", "-1", "1e300", "nan", "inf", "x"],
    "format": ["json", "csv", "xml"],
}


@st.composite
def subcommand_argv(draw, name):
    """argv for subcommand name: each of its options given a drawn value or
    left out, then perhaps a stray argument."""
    command = cli._COMMANDS[name]
    options = [option for option, *_ in command.options]
    argv = [name]
    for option in options + (["format"] if command.csv_rows else []):
        value = draw(st.none() | st.sampled_from(OPTION_VALUES[option]))
        if value is not None:
            flag = "--format" if option == "format" else cli._OPTIONS[option][0]
            argv.append(f"{flag}={value}")
    return argv + draw(st.sampled_from([[], [], ["--bogus"], ["stray"], ["--help"]]))


@pytest.mark.parametrize("name", list(cli._COMMANDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cli_contract_holds_for_drawn_argv(name, data):
    # an uncaught exception (exit 1 with a traceback) fails here by raising
    argv = data.draw(subcommand_argv(name))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == "", argv
        assert err.splitlines()[-1].startswith("error:"), (argv, err)


NON_FINITE_INPUTS = [
    ("solve-quat", "--poly", "0,1", "--input", "[0,NaN,0,1]"),
    ("solve-quat", "--poly", "0,1", "--input", "[0,1e400,0,1]"),
    ("factor-quat", "--poly", "0,1", "--input", "[-Infinity,0,0,1]"),
    ("solve-quat", "--poly", "0,nan", "--input", "[0,1,0,0]"),
    ("verify-bounds", "--poly=0,inf", "--n", "2", "--trials", "1"),
    ("verify-telescope", "--poly", "0,1e400", "--ring", "complex", "--trials", "1"),
    ("sphere-avg", "--input", "[[NaN,0],[0,1]]", "--samples", "1000"),
    ("sphere-avg", "--samples", "1000",
     "--input", '{"ring": "complex", "entries": [[[1, Infinity], 0], [0, 1]]}'),
]


def assert_one_error_line(code, out, err, recwarn, phrase):
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and phrase in errors[0], err
    assert "RuntimeWarning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "argv",
    [pytest.param(argv, id=f"{argv[0]}-{i}") for i, argv in enumerate(NON_FINITE_INPUTS)],
)
def test_non_finite_input_rejected(capsys, recwarn, argv):
    code, out, err = run_cli(capsys, *argv)
    assert_one_error_line(code, out, err, recwarn, "non-finite input")


def test_non_finite_tolerance_rejected(capsys):
    for value in ("inf", "nan", "-inf"):
        code, out, err = run_cli(
            capsys, "solve-quat", "--poly", "0,1", "--input", "[0,1,0,0]",
            f"--tolerance={value}",
        )
        assert code == 2
        assert out == ""
        assert "argument --tolerance: non-finite input" in err


def test_sphere_avg_overflow_is_an_input_error(capsys, recwarn):
    code, out, err = run_cli(
        capsys, "sphere-avg", "--input", "[[1e200,0],[0,1]]", "--samples", "1000"
    )
    assert_one_error_line(code, out, err, recwarn, "double")
    # large but in range: still answered
    code, out, err = run_cli(
        capsys, "sphere-avg", "--input", "[[1e70,0],[0,1]]", "--samples", "1000"
    )
    assert code == 0, err


def test_bound_overflow_is_an_input_error(capsys, recwarn):
    code, out, err = run_cli(
        capsys, "verify-bounds", "--poly", "0,0,0,1e300", "--n", "4", "--trials", "1"
    )
    assert_one_error_line(code, out, err, recwarn, "double range")
    # a large coefficient whose norms stay in range is still checked
    code, doc = run_json(
        capsys, "verify-bounds", "--poly", "0,0,0,1e100", "--n", "4", "--trials", "1"
    )
    assert code == 0 and doc["all_satisfied"] is True


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_overflow_is_an_input_error(capsys, recwarn, fmt):
    code, out, err = run_cli(
        capsys, "sweep-constants", "--poly", "0,0,0,1e308", "--n", "4", "--trials", "2",
        "--format", fmt,
    )
    assert_one_error_line(code, out, err, recwarn, "double range")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_with_large_finite_norms(capsys, recwarn, fmt):
    def sweep(coefficient, trials):
        return run_cli(
            capsys, "sweep-constants", "--poly", f"0,0,0,{coefficient}", "--n", "4",
            "--trials", str(trials), "--format", fmt,
        )

    code, out, err = sweep("1e300", 2)
    assert code == 0, err
    assert "inf" not in out.lower() and "nan" not in out.lower()
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        assert all(1e301 < float(row["lhs"]) < 1e303 for row in rows)
    else:
        assert json.loads(out)["ratio_norm_product"] > 1e299
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    # p(AB) - p(BA) is in range here, but its Frobenius norm is not
    code, out, err = sweep("3e306", 1)
    assert_one_error_line(code, out, err, recwarn, "double range")


def test_poly_commutator_overflow_names_the_double_range(recwarn):
    eye = [[1.0, 0.0], [0.0, 1.0]]
    big = [[1e200, 0.0], [0.0, 1.0]]
    with pytest.raises(ValueError, match="double range"):
        norms.poly_commutator_array([0, 0, 0, 1], big, [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="double range"):
        norms.check_numrad_bound([0, 0, 0, 1e308], big, eye)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


REALIZE_CALLS = [
    ("realize-matrix", "--poly", "0,0,1",
     "--input", '{"ring": "rational", "entries": [[0, 1, 2], [3, 0, 4], [5, 6, 0]]}'),
    ("realize-traceless", "--poly", "0,1,1",
     "--input", '{"ring": "rational", "entries": [[1, 2], [3, -1]]}'),
]


@pytest.mark.parametrize("argv", REALIZE_CALLS, ids=lambda argv: argv[0])
def test_realization_is_verified_once(capsys, monkeypatch, argv):
    calls = []
    verify = RealizationWitness.verify

    def counted(self):
        calls.append(self)
        return verify(self)

    monkeypatch.setattr(RealizationWitness, "verify", counted)
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc["verified"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("argv", REALIZE_CALLS, ids=lambda argv: argv[0])
def test_failed_realization_verification_exits_three(capsys, monkeypatch, argv):
    monkeypatch.setattr(RealizationWitness, "verify", lambda self: False)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    failures = [line for line in err.splitlines() if line.startswith("verification failed:")]
    assert len(failures) == 1, err


# a witness field shifted by the identity, and the identity that then fails first
TAMPERINGS = [("a1", "a1 == g g1 g2^-1 g^-1"), ("target", "p(a1 b1) - p(b1 a1) == target")]


@pytest.mark.parametrize("field,name", TAMPERINGS, ids=[field for field, _ in TAMPERINGS])
def test_failed_realization_names_the_identity(capsys, monkeypatch, field, name):
    def tampered(*fields):
        witness = RealizationWitness(*fields)
        return dataclasses.replace(witness, **{field: getattr(witness, field) + 1})

    monkeypatch.setattr(realize, "RealizationWitness", tampered)
    code, out, err = run_cli(capsys, *REALIZE_CALLS[0])
    assert code == 3
    assert out == ""
    assert err.splitlines()[-1] == (
        f"verification failed: realization witness failed exact verification: {name}"
    )


def test_singular_quaternion_conjugator_names_the_column(capsys):
    # column 1 of the conjugator is column 0 times j
    doc = {
        "matrix": {"ring": "quaternion",
                   "entries": [[[0, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 0]]]},
        "conjugator": {"ring": "quaternion",
                       "entries": [[[1, 0, 0, 0], [0, 0, 1, 0]], [[0, 1, 0, 0], [0, 0, 0, 1]]]},
    }
    code, out, err = run_cli(capsys, "realize-matrix", "--poly", "0,1", "--input", json.dumps(doc))
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == "error: matrix is singular (no pivot in column 1)"


def test_input_neither_json_nor_file(capsys, recwarn, tmp_path):
    code, out, err = run_cli(capsys, "probe-degree", "--input", "3")
    assert_one_error_line(code, out, err, recwarn, "neither inline JSON")
    assert "'3'" in err
    path = tmp_path / "quaternion.json"
    path.write_text("[0,0,1,0]", encoding="utf-8")
    code, doc = run_json(capsys, "probe-degree", "--input", str(path))
    assert code == 0
    assert doc["estimated_degree"] == 2


# stdout sha256 of exact-ring calls (and the README solver example, whose
# floats are exact), recorded before the subcommands were declared in one
# table; any byte change in these documents fails here.
PINNED_OUTPUTS = [
    ("25888569031ea4e3fb1bc705cbaeca873b0001006f08d77ecf96bc1337461b7e",
     "solve-quat", "--poly", "0,1", "--input", "[0,0,0,2]"),
    ("c9dc37d61570eb1d25ab022057b06da4ab905d6c5d7c1c1b3bb527c9ce8b6d3f",
     "probe-degree", "--input", "[0,0,1,0]"),
    ("f933c624265f8207c40f9a5783e99d156311ef3064040829d8b4b2f1a352bbdd",
     "realize-matrix", "--poly", "0,0,1",
     "--input", '{"ring": "rational", "entries": [[0, 1], [0, 0]]}'),
    ("8e36eb3b700f63af472684bd6aded1eb17972bf39077e32cb52fcb790881923e",
     "realize-traceless", "--poly", "0,1,1",
     "--input",
     '{"ring": "rational", "entries": [[1, 2, 0], ["1/2", -3, 1], [4, 0, 2]]}'),
    ("681e13c51f7090be33b982543723a3d1f04b27dc51f122f72133e414aa5863eb",
     "trace-witness", "--poly", "0,1"),
    ("0aae3d9c6b598055948c5ee29adac7f2ea9aea8eec15bb62c0c4aa4e883623c8",
     "verify-telescope", "--poly", "0,1", "--ring", "quaternion"),
    ("8a79462f43f6699f820e5cb02f9039500564d79da527dbea4d030099b080dc19",
     "verify-telescope", "--poly", "1,0,-2,1", "--ring", "rational", "--n", "3",
     "--trials", "4"),
    # an exact quaternion realization: g, g1 and g2 inverted in realize and verify
    ("785b14967b87f826b6d463db457cb23f77fceae016ea827d2e4395542a1c06f1",
     "realize-matrix", "--poly", "0,1,1",
     "--input",
     '{"ring": "quaternion", "entries": [[[0,0,0,0],[1,2,-1,"1/2"],[0,1,1,0]], '
     '[["-1/3",0,2,1],[0,0,0,0],[2,-1,0,1]], [[1,1,1,1],[0,0,-2,3],[0,0,0,0]]]}'),
    # a constant polynomial: both sides of the telescope are c I - c I
    ("1ab398d90c2462fd4baa5165db13f906c5b57b641dc4fcab1956ffcd3eaf17b4",
     "verify-telescope", "--poly", "5", "--ring", "quaternion", "--trials", "2"),
]


def pinned_params():
    """One case per pinned run, named by its subcommand; a repeated
    subcommand also names its --poly."""
    seen = set()
    for digest, command, *rest in PINNED_OUTPUTS:
        name = f"{command}-poly-{rest[rest.index('--poly') + 1]}" if command in seen else command
        seen.add(command)
        yield pytest.param(digest, [command, *rest], id=name)


@pytest.mark.parametrize("digest,argv", list(pinned_params()))
def test_exact_output_is_pinned(capsys, digest, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_argparse_failures_exit_two(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["solve-quat"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "solve-quat" in out and "verify-telescope" in out


def test_parser_is_built_once():
    assert build_parser() is build_parser()


# different subcommands in one process, with argparse errors between them
SHARED_PARSER_CALLS = [
    ("probe-degree", "--input", "[0,0,1,0]"),
    ("solve-quat", "--poly", "0,1"),
    ("trace-witness", "--poly", "0,1", "--n", "3"),
    ("probe-degree", "--input", "[0,0,1,0]", "--trials", "0"),
    ("sweep-constants", "--poly", "0,1", "--trials", "3", "--format", "csv"),
    ("--help",),
    ("verify-telescope", "--poly", "0,1", "--ring", "quaternion", "--trials", "2"),
]


def test_shared_parser_answers_like_fresh_processes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
    for argv in SHARED_PARSER_CALLS:
        code, out, err = run_cli(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-m", "polycomm.cli", *argv], capture_output=True, text=True
        )
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv


def polycomm_command():
    """The argv prefix that runs the ``polycomm`` console script.

    An installed script on PATH is used as is. Without an install, the
    entry point declared in ``[project.scripts]`` of ``pyproject.toml`` is
    run through the same launcher body an installer writes, so a wrong
    declaration still fails.
    """
    exe = shutil.which("polycomm")
    if exe:
        return [exe]
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["polycomm"]
    module, attr = entry.split(":")
    launcher = (
        f"import sys; from {module} import {attr}; "
        f'sys.argv[0] = "polycomm"; sys.exit({attr}())'
    )
    return [sys.executable, "-c", launcher]


def test_console_script_installed():
    command = polycomm_command()
    proc = subprocess.run(
        [*command, "solve-quat", "--poly", "0,1", "--input", "[0,0,0,2]"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verified"] is True
    # the exit code must come from main(): a real target is an input error
    proc = subprocess.run(
        [*command, "solve-quat", "--poly", "0,1", "--input", "[1,0,0,0]"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "polycomm.cli", "trace-witness", "--poly", "0,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["trace"] == ["0", "0", "0", "2"]


def test_readme_quick_tour_runs():
    readme = (PYPROJECT.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1 and "realize_zero_diagonal" in blocks[0]
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        capture_output=True,
        text=True,
        cwd=PYPROJECT.parent,
        env={**os.environ, "PYTHONPATH": str(PYPROJECT.parent / "src")},
    )
    assert proc.returncode == 0, proc.stderr
