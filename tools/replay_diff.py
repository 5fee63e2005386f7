"""Replay one benchmark workload on two source trees and report what changed.

    python3 tools/replay_diff.py OLD_TREE NEW_TREE --workload float-verify --seeds 1-10

OLD_TREE and NEW_TREE are checkouts of this repository (``git clone`` or
``git archive`` a commit into a scratch directory).  The requests are those
``bench/run.py`` replays in-process: for each seed, the warm-up request and
the first ``--rounds`` rounds of ``bench/workloads.Plan``, taken from the
checkout that holds this script, so both trees answer the same argv lists.
Each tree replays them through ``polycomm.cli.main`` in one subprocess of
its own, as both import a package named ``polycomm``.

Per subcommand the report gives how many documents (stdout texts) changed
and, for each changed JSON path or CSV column, in how many documents it
changed.  A list element that has a ``check`` key, or a CSV row with a
``check`` column, is named by it, so ``checks[sphere-average].rhs`` is the
rhs of the sphere-average rows (``csv[sphere-average].rhs`` in CSV output).
Every change of exit code or of a verdict (``verified``, ``all_satisfied``,
``all_equal``, ``satisfied``, ``equal``) is listed with its argv.  Standard
library only; not part of the tests.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
VERDICTS = {"verified", "all_satisfied", "all_equal", "satisfied", "equal"}


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def _replay(tree: Path, workload: str, seeds: range, rounds: int) -> None:
    """Child side: one JSON line [seed, argv, exit code, stdout, stderr] per request."""
    sys.path[:0] = [str(tree / "src"), str(REPO / "bench")]
    from polycomm import cli
    from workloads import Plan

    if not Path(cli.__file__).resolve().is_relative_to(tree.resolve()):
        sys.exit(f"polycomm came from {cli.__file__}, not from {tree}")
    for seed in seeds:
        plan = Plan(workload, seed)
        for req in [plan.warmup, *(r for _ in range(rounds) for r in plan.next_round())]:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(list(req.argv))
            except Exception as exc:  # a crash is an outcome to compare, not a tool failure
                rc, err = None, io.StringIO(f"uncaught {exc!r}")
            line = [seed, list(req.argv), rc, out.getvalue(), err.getvalue()]
            sys.__stdout__.write(json.dumps(line) + "\n")


def _answers(tree: Path, args) -> list:
    cmd = [sys.executable, __file__, "--child", str(tree), "--workload", args.workload,
           "--seeds", args.seeds, "--rounds", str(args.rounds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"replay on {tree} failed:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def _parse(text: str):
    """(root path, parsed document): JSON, or else CSV rows as dicts."""
    try:
        return "", json.loads(text)
    except ValueError:
        return "csv", list(csv.DictReader(io.StringIO(text)))


def _diff(old, new, path: str, out: set) -> None:
    """Add to out every path below path at which old and new differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            _diff(old.get(key), new.get(key), f"{path}.{key}" if path else key, out)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for a, b in zip(old, new):
            label = a.get("check", "") if isinstance(a, dict) else ""
            _diff(a, b, f"{path}[{label}]", out)
    elif type(old) is not type(new) or old != new:
        out.add(path or "(document)")


def _is_verdict(path: str) -> bool:
    return path.rsplit(".", 1)[-1] in VERDICTS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="*", type=Path, metavar="TREE")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="A-B, inclusive")
    ap.add_argument("--rounds", type=int, default=60, help="rounds per seed")
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        _replay(args.child, args.workload, _seeds(args.seeds), args.rounds)
        return 0
    if len(args.trees) != 2:
        ap.error("give OLD_TREE and NEW_TREE")
    old_tree, new_tree = args.trees
    old, new = _answers(old_tree, args), _answers(new_tree, args)
    if [o[:2] for o in old] != [n[:2] for n in new]:
        sys.exit("the two replays did not answer the same requests")

    total, changed, stderr_changed = Counter(), Counter(), Counter()
    paths = defaultdict(Counter)
    flips = []
    for (seed, argv, rc_old, out_old, err_old), (_, _, rc_new, out_new, err_new) in zip(old, new):
        kind = argv[0]
        total[kind] += 1
        stderr_changed[kind] += err_old != err_new
        if out_old == out_new and rc_old == rc_new:
            continue
        changed[kind] += out_old != out_new
        diff = set()
        if out_old and out_new:
            (root, doc_old), (_, doc_new) = _parse(out_old), _parse(out_new)
            _diff(doc_old, doc_new, root, diff)
        elif out_old != out_new:
            diff.add("(document)")
        paths[kind].update(diff)
        verdicts = sorted(p for p in diff if _is_verdict(p))
        if rc_old != rc_new or verdicts:
            flips.append((seed, argv, rc_old, rc_new, verdicts))

    print(f"{args.workload}, seeds {args.seeds}, {args.rounds} rounds each: "
          f"{sum(changed.values())} of {sum(total.values())} documents changed")
    for kind in sorted(total):
        print(f"  {kind}: {changed[kind]} of {total[kind]} changed"
              f" ({stderr_changed[kind]} stderr changed)")
        for path, count in sorted(paths[kind].items()):
            print(f"    {path}: {count}")
    print(f"verdict or exit-code changes: {len(flips)}")
    for seed, argv, rc_old, rc_new, verdicts in flips:
        print(f"  seed {seed}: exit {rc_old} -> {rc_new}, verdicts {verdicts}: {argv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
