import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from polycomm.cli import main
from polycomm.matrix import QQ, GenericMatrix
from polycomm.poly import Polynomial
from polycomm.realize import realize_zero_diagonal
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
]


@pytest.mark.parametrize(
    "digest,argv",
    [pytest.param(d, argv, id=argv[0]) for d, *argv in PINNED_OUTPUTS],
)
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
