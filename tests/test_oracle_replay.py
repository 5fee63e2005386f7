"""Replays benchmark rounds through cli.main and judges every answer with
bench/oracle.py, the checker that recomputes results with its own Fraction
and 4-tuple quaternion arithmetic and never imports polycomm."""

import contextlib
import io
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from polycomm import cli

# bench/workloads.py imports oracle as a top-level module
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import oracle  # noqa: E402
import workloads  # noqa: E402


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_benchmark_rounds_pass_the_oracle(seed):
    for workload in ("exact-construct", "degree-probe"):
        for req in workloads.Plan(workload, seed).next_round():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(req.argv))
            assert code == 0, req.argv
            assert oracle.check(req, out.getvalue()) is None, req.argv
