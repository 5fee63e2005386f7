"""polycomm benchmark: seeded closed-loop replays through ``polycomm.cli.main``.

    python3 bench/run.py --workload exact-construct --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; polycomm is imported from ``src/``.  One
client sends each request after the previous one answered, in this single
process (no extra threads; numpy's BLAS keeps its default thread count,
which the run records).  Every answer is judged by ``oracle.check``, which
does not use polycomm.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json:

* setup_s: median over fresh ``python`` processes of the time from the
  start of ``import polycomm.cli`` to the end of one warm-up request;
* cold_cli_ms: median wall time of ``python -m polycomm.cli`` subprocesses
  on the workload's small designated requests;
* requests_per_s: requests that passed the oracle per second of replay
  time (time spent inside ``main``; request generation and the oracle are
  not counted);
* latency_p50_ms, latency_tail_ms: over every attempted request, failed
  ones included; the tail is the highest of 99.9/99/95/90/75/50 with at
  least ten samples beyond it;
* ok_frac: share of attempted requests that exited 0 and passed the
  oracle (1 - failed_frac, which is printed too and can be 0);
* peak_rss_mb: ``ru_maxrss`` of this process.

``--trace 1`` replays rounds alternately without and with the spans of
``tracer.py`` and reports the per-layer metrics plus trace.overhead_ratio,
the traced over the untraced replay time per round.

The last stdout line is the JSON result; a fuller record (environment,
stdout digests per round, failures, every span total) goes to
``bench/results/``, and traced runs write their spans there too.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import oracle
from tracer import Tracer, layer_metrics
from workloads import ROUND_S, WORKLOADS, Plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_REPEATS = 11
COLD_PASSES = 2
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SUBPROCESS_TIMEOUT_S = 120
FAILURES_KEPT = 200
MAX_REPLAY_S = 100.0

# Runs in a fresh interpreter: time from the start of the polycomm import to
# the end of the warm-up request given as argv.
_SETUP_SNIPPET = """\
import contextlib, io, sys, time
t0 = time.perf_counter()
import polycomm.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = polycomm.cli.main(sys.argv[1:])
print(rc, time.perf_counter() - t0)
"""


def _child_env():
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def _subprocess(argv):
    return subprocess.run(
        argv, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S, check=False,
    )


# ------------------------------------------------------------- environment


def _blas_threads():
    """OpenBLAS's own thread count, read from the loaded library, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "commit": _git_commit(),
        "machine": platform.machine(),
    }


# ------------------------------------------------------------------ replay


def call(cli, req):
    """One request through cli.main: (exit code or None if it raised, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(req.argv))
    except Exception:  # a crash out of main is a failed request, not a failed benchmark
        rc = None
        err.write(traceback.format_exc())
    return rc, perf_counter() - t0, out.getvalue(), err.getvalue()


def judge(req, rc, out, err):
    """(failure reason or None, whether the answer is wrong rather than refused)."""
    if rc == 0:
        reason = oracle.check(req, out)
        return reason, reason is not None
    last = (err.strip().splitlines() or ["no message"])[-1]
    reason = f"uncaught: {last}" if rc is None else f"exit {rc}: {last}"
    return reason, oracle.claims_success(out)


class Replay:
    """Outcome of one closed-loop replay."""

    def __init__(self):
        self.latencies = []
        self.failures = []
        self.wrong = 0
        self.busy = {False: 0.0, True: 0.0}
        self.rounds = {False: 0, True: 0}
        self.round_digests = []
        self.stdout_digest = hashlib.sha256()
        self.bytes_out = 0

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def busy_s(self):
        return self.busy[False] + self.busy[True]


def rounds_for(workload, seconds):
    """Rounds a run of ``seconds`` replays: a fixed count per workload and
    seconds, so ``attempted`` and ``failed`` depend on the seed alone."""
    return max(2, round(seconds / ROUND_S[workload]))


def replay(plan, rounds, tracer=None, side=None):
    """Replay the first ``rounds`` rounds of plan.

    Without a tracer every round runs untraced.  With one, odd rounds run
    with its spans installed, even rounds without.  Rounds always run whole,
    so the request mix stays as designed.  ``side`` runs its subprocess
    measurements between rounds.  A replay that is still busy after
    MAX_REPLAY_S stops after the round it is in, so a run ends in time on
    a much slower machine; the record then says how many rounds ran.
    """
    from polycomm import cli

    rep = Replay()
    for index in range(rounds):
        if side is not None:
            side.run_due(index / rounds)
        traced = tracer is not None and index % 2 == 1
        reqs = plan.next_round()
        digest = hashlib.sha256()
        if traced:
            tracer.install()
        try:
            for req in reqs:
                if traced:
                    tracer.request_id = req.rid
                rc, dt, out, err = call(cli, req)
                data = out.encode("utf-8")
                digest.update(data)
                rep.stdout_digest.update(data)
                if traced:
                    rep.bytes_out += len(data)
                rep.latencies.append(dt)
                rep.busy[traced] += dt
                reason, wrong = judge(req, rc, out, err)
                if reason is not None:
                    rep.failures.append({"rid": req.rid, "kind": req.kind, "exit": rc, "reason": reason,
                                         "argv": list(req.argv)})
                rep.wrong += wrong
        finally:
            if traced:
                tracer.uninstall()
        rep.rounds[traced] += 1
        rep.round_digests.append(digest.hexdigest())
        if rep.busy_s > MAX_REPLAY_S and index >= 1:
            break
    if side is not None:
        side.run_due(1.0)
    return rep


# ---------------------------------------------------------------- measuring


class SideRuns:
    """The set-up and cold-CLI subprocess runs of one workload.

    They are spread evenly over the replay (between rounds, while the
    client waits), so a burst of outside load touches few of them; each
    metric is the median of its runs.
    """

    def __init__(self, plan):
        self.warmup = plan.warmup
        cold = list(plan.cold) * COLD_PASSES
        step = len(cold) // SETUP_REPEATS
        self.jobs = []
        for i in range(SETUP_REPEATS):
            self.jobs += [(self._setup, None)] + [(self._cold, r) for r in cold[i * step:(i + 1) * step]]
        self.jobs += [(self._cold, r) for r in cold[SETUP_REPEATS * step:]]
        self.done = 0
        self.setup_s, self.cold_ms, self.cold_failures = [], [], []

    def run_due(self, fraction):
        """Run the jobs whose even share of the replay has been reached."""
        while self.done < len(self.jobs) and self.done <= fraction * len(self.jobs):
            job, arg = self.jobs[self.done]
            job(arg)
            self.done += 1

    def _setup(self, _):
        proc = _subprocess([sys.executable, "-c", _SETUP_SNIPPET, *self.warmup.argv])
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 2 or fields[0] != "0":
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()[-300:]}")
        self.setup_s.append(float(fields[1]))

    def _cold(self, req):
        t0 = perf_counter()
        proc = _subprocess([sys.executable, "-m", "polycomm.cli", *req.argv])
        self.cold_ms.append((perf_counter() - t0) * 1000.0)
        reason, _ = judge(req, proc.returncode, proc.stdout, proc.stderr)
        if reason is not None:
            self.cold_failures.append({"rid": req.rid, "kind": req.kind, "reason": reason})


def nearest_rank(sorted_values, pct):
    return sorted_values[max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)]


def tail(latencies):
    """(percentile, value): the highest ladder percentile with >= 10 samples beyond it.

    A fixed ladder keeps more than ten samples beyond the percentile for
    most sample counts, which steadies the value; each workload's count
    stays inside one band (p95: 200 to 999 samples, p99: 1000 to 9999).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100.0 * n) >= 10:
            return pct, nearest_rank(ordered, pct)
    return 50.0, nearest_rank(ordered, 50.0)


def _summary(rep):
    return {
        "correct": rep.wrong == 0,
        "attempted": rep.attempted,
        "failed": len(rep.failures),
    }


def _failure_table(failures):
    """Failure counts by kind and reason, numbers in the reason masked."""
    counts = {}
    for f in failures:
        key = (f["kind"], re.sub(r"\d[\d.e+-]*", "#", f["reason"])[:100])
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items(), key=lambda kv: -kv[1])


def run_untraced(workload, seed, seconds):
    from polycomm import cli

    plan = Plan(workload, seed)
    call(cli, plan.warmup)  # in-process warm-up: lazy imports and first-call costs
    side = SideRuns(plan)
    rep = replay(plan, rounds_for(workload, seconds), side=side)
    passed = rep.attempted - len(rep.failures)
    pct, tail_s = tail(rep.latencies)
    metrics = {
        "setup_s": (statistics.median(side.setup_s), "s"),
        "cold_cli_ms": (statistics.median(side.cold_ms), "ms"),
        "requests_per_s": (passed / rep.busy_s, "1/s"),
        "latency_p50_ms": (statistics.median(rep.latencies) * 1000.0, "ms"),
        "latency_tail_ms": (tail_s * 1000.0, "ms"),
        "ok_frac": (passed / rep.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    result = _summary(rep)
    result["correct"] = result["correct"] and not side.cold_failures
    notes = {
        "failed_frac": len(rep.failures) / rep.attempted,
        "tail_percentile": pct,
        "tail_samples": rep.attempted,
        "tail_beyond": rep.attempted - math.ceil(pct / 100.0 * rep.attempted),
        "replay_s": rep.busy_s,
        "rounds": rep.rounds[False],
        "setup_runs_s": side.setup_s,
        "cold_runs_ms": side.cold_ms,
        "cold_failures": side.cold_failures,
    }
    return rep, result, metrics, notes


def run_traced(workload, seed, seconds):
    from polycomm import cli

    plan = Plan(workload, seed)
    call(cli, plan.warmup)
    tracer = Tracer()
    rep = replay(plan, rounds_for(workload, seconds), tracer=tracer)
    per_round = {k: rep.busy[k] / rep.rounds[k] for k in (False, True)}
    overhead = per_round[True] / per_round[False]
    layers = layer_metrics(tracer, rep.bytes_out, overhead)
    metrics = {name: (value, _unit(name)) for name, value in layers.items()}
    notes = {
        "rounds_untraced": rep.rounds[False],
        "rounds_traced": rep.rounds[True],
        "spans": len(tracer.spans),
        "eigvalsh_per_radius_base": layers["norms.numerical_radius.calls"],
        "verify_share_base_s": layers["realize.realize_zero_diagonal.total_s"],
        "per_span": tracer.per_span(),
    }
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"spans-{workload}-seed{seed}.jsonl.gz")
    return rep, _summary(rep), metrics, notes


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_out"):
        return "bytes"
    if name.endswith(("_share", "_per_radius", "overhead_ratio")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------- reporting


def run_one(workload, seed, seconds, trace):
    runner = run_traced if trace else run_untraced
    rep, result, metrics, notes = runner(workload, seed, seconds)
    env = environment()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, **result,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "stdout_sha256": rep.stdout_digest.hexdigest(),
        "round_sha256": rep.round_digests,
        "failures": rep.failures[:FAILURES_KEPT],
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    if not trace:
        print(f"  {'failed_frac':44s} {notes['failed_frac']:14.6g} ratio "
              f"({result['failed']} of {result['attempted']} attempted)")
        print(f"  latency_tail_ms is p{notes['tail_percentile']:g} of {notes['tail_samples']} samples "
              f"({notes['tail_beyond']} beyond it)")
    else:
        print(f"  norms.eigvalsh_per_radius base: {notes['eigvalsh_per_radius_base']} radii; "
              f"realize.verify_share base: {notes['verify_share_base_s']:.6g} s")
    for (kind, reason), count in _failure_table(rep.failures):
        print(f"  failed x{count}: {kind}: {reason}")
    print(f"  stdout sha256 {record['stdout_sha256']} over {len(rep.round_digests)} rounds; "
          f"round 0 sha256 {rep.round_digests[0]}")
    print("  environment " + json.dumps(env, sort_keys=True))
    return {**result, "metrics": record["metrics"]}


def run_all(seed, seconds, trace):
    """Each workload in its own fresh process, so set-up and peak RSS are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            raise RuntimeError(f"workload {workload} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "polycomm" / "cli.py").is_file():
        print(f"error: no polycomm sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
