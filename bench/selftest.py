"""Tests of the benchmark itself: python3 bench/selftest.py

(Not named test_*.py on purpose: the repository's pytest run collects
every such file, and these tests replay whole workload rounds.)
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import NONZERO_ON, OUTCOME_COUNTS, Tracer, layer_metrics  # noqa: E402

from polycomm import cli  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _argvs(plan, rounds):
    return [plan.warmup.argv] + [r.argv for r in plan.cold] + [
        r.argv for _ in range(rounds) for r in plan.next_round()
    ]


class RequestLists(unittest.TestCase):
    def test_same_seed_same_requests_other_seed_other_requests(self):
        for w in workloads.WORKLOADS:
            first = _argvs(workloads.Plan(w, 5), 2)
            self.assertEqual(first, _argvs(workloads.Plan(w, 5), 2), w)
            self.assertNotEqual(first, _argvs(workloads.Plan(w, 6), 2), w)
            self.assertEqual(len(first), len(set(first)), w)

    def test_same_seed_attempts_and_fails_the_same_requests(self):
        self.assertEqual(run.rounds_for("float-verify", 0), 2)
        first, second = (run.replay(workloads.Plan("float-verify", 3), 4) for _ in range(2))
        self.assertEqual(first.attempted, second.attempted)
        self.assertEqual([f["rid"] for f in first.failures], [f["rid"] for f in second.failures])
        self.assertTrue(first.failures)  # the known magnitude defects stay in the data


class Tail(unittest.TestCase):
    def test_tail_is_the_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(run.tail(list(range(225))), (95.0, 213))
        self.assertEqual(run.tail(list(range(1000))), (99.0, 989))
        self.assertEqual(run.tail(list(range(18))), (50.0, 8))


class Oracle(unittest.TestCase):
    def _answer(self, req):
        rc, _, out, err = run.call(cli, req)
        self.assertEqual(rc, 0, err)
        self.assertIsNone(oracle.check(req, out))
        return json.loads(out)

    def test_rejects_tampered_realization(self):
        req = next(r for r in workloads.Plan("exact-construct", 3).cold if r.kind == "realize-matrix")
        doc = self._answer(req)
        entries = doc["witness"]["a1"]["entries"]
        entries[0][1] = str(oracle.Fraction(str(entries[0][1])) + 1)
        self.assertIn("differs from the requested target", oracle.check(req, json.dumps(doc)))

    def test_rejects_tampered_solver_pair(self):
        kind, argv, expect = workloads._solve_quat(random.Random(1), 0.5)
        req = workloads.Request(1, kind, argv, expect)
        doc = self._answer(req)
        doc["b"][1] += 1e-3
        self.assertIn("above tolerance", oracle.check(req, json.dumps(doc)))

    def test_rejects_wrong_probe_degree(self):
        req = workloads.Plan("degree-probe", 3).cold[0]
        doc = self._answer(req)
        doc["estimated_degree"] += 1
        self.assertIsNotNone(oracle.check(req, json.dumps(doc)))


class Tracing(unittest.TestCase):
    """One untraced and one traced replay of the first two rounds per workload."""

    @classmethod
    def setUpClass(cls):
        cls.untraced, cls.traced, cls.layers = {}, {}, {}
        for w in workloads.WORKLOADS:
            cls.untraced[w] = run.replay(workloads.Plan(w, 2), 2)
            tracer = Tracer()
            rep = run.replay(workloads.Plan(w, 2), 2, tracer=tracer)
            cls.traced[w] = rep
            cls.layers[w] = layer_metrics(tracer, rep.bytes_out, 1.0)

    def test_layer_metrics_match_benchmark_json(self):
        names = [m["name"] for m in _spec()["per_layer"]]
        for w in workloads.WORKLOADS:
            self.assertEqual(sorted(self.layers[w]), sorted(names))
        self.assertEqual(sorted([*NONZERO_ON, *OUTCOME_COUNTS]), sorted(names))

    def test_nonzero_exactly_on_mapped_workloads(self):
        for w, layers in self.layers.items():
            for name, where in NONZERO_ON.items():
                with self.subTest(workload=w, metric=name):
                    if w in where:
                        self.assertGreater(layers[name], 0)
                    else:
                        self.assertEqual(layers[name], 0)

    def test_traced_outputs_are_byte_identical(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(self.traced[w].round_digests[:2], self.untraced[w].round_digests[:2], w)
            self.assertEqual(self.traced[w].rounds[True], 1, w)

    def test_replays_pass_the_oracle(self):
        for w in ("exact-construct", "degree-probe"):
            self.assertEqual(self.untraced[w].failures, [], w)
        self.assertEqual(self.untraced["float-verify"].wrong, 0)


class Contract(unittest.TestCase):
    def test_result_line_names_every_end_to_end_metric(self):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "float-verify", "--seed", "4",
             "--seconds", "0", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=False,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        spec = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, spec)
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_refuses_to_run_without_the_sources(self):
        bare = BENCH / "results" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "float-verify", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180, check=False,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
