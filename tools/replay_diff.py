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
``all_equal``, ``satisfied``, ``equal``) is listed with its argv.

    python3 tools/replay_diff.py OLD_TREE NEW_TREE --workload exact-construct --seeds 1-3 --time 5

``--time K`` times the same requests instead of comparing their answers.
Each tree's subprocess runs every seed's warm-up request once, then waits
for rounds; the two trees take each round in turn, the first one
alternating from round to round, so a change in the machine's load falls
on both.  A tree runs each request of its round once untimed, counting
matrix products (``GenericMatrix.__mul__``), ``inverse()`` calls and
Bareiss eliminations (``matrix._bareiss_solve``, absent from old trees),
then K times timed, and keeps the best of the K.  Per subcommand and in
total the report gives, over rounds, the median of NEW's summed best times
over OLD's with its quartiles, how many rounds each tree was faster, and
each tree's counts.

Standard library only; not part of the tests.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import hashlib
import json
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

REPO = Path(__file__).resolve().parents[1]
VERDICTS = {"verified", "all_satisfied", "all_equal", "satisfied", "equal"}


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def _import_cli(tree: Path):
    """polycomm.cli from tree, and bench/workloads.Plan from this checkout."""
    sys.path[:0] = [str(tree / "src"), str(REPO / "bench")]
    from polycomm import cli
    from workloads import Plan

    if not Path(cli.__file__).resolve().is_relative_to(tree.resolve()):
        sys.exit(f"polycomm came from {cli.__file__}, not from {tree}")
    return cli, Plan


def _call(cli, argv) -> tuple:
    """(exit code, stdout, stderr) of one request through cli.main."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception as exc:  # a crash is an outcome to compare, not a tool failure
        rc, err = None, io.StringIO(f"uncaught {exc!r}")
    return rc, out.getvalue(), err.getvalue()


def _replay(tree: Path, workload: str, seeds: range, rounds: int) -> None:
    """Child side: one JSON line [seed, argv, exit code, stdout, stderr] per request."""
    cli, Plan = _import_cli(tree)
    for seed in seeds:
        plan = Plan(workload, seed)
        for req in [plan.warmup, *(r for _ in range(rounds) for r in plan.next_round())]:
            line = [seed, list(req.argv), *_call(cli, req.argv)]
            sys.__stdout__.write(json.dumps(line) + "\n")


# (class in polycomm.matrix or None for the module, function, report name)
COUNTED = (("GenericMatrix", "__mul__", "products"),
           ("GenericMatrix", "inverse", "inverse() calls"),
           (None, "_bareiss_solve", "eliminations"))


@contextlib.contextmanager
def _counting(matrix, seen: Counter):
    """Count the calls of COUNTED (those the tree has) into seen while inside."""
    saved = []
    for cls, name, key in COUNTED:
        owner = getattr(matrix, cls) if cls else matrix
        fn = getattr(owner, name, None)
        if fn is None:
            continue

        def counted(*args, _fn=fn, _key=key):
            seen[_key] += 1
            return _fn(*args)

        setattr(owner, name, counted)
        saved.append((owner, name, fn))
    try:
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def _time_child(tree: Path, workload: str, seeds: range, rounds: int, repeats: int) -> None:
    """Child side of --time: for each round index read from stdin, one JSON
    line listing [kind, argv digest, best seconds, counts] per request."""
    cli, Plan = _import_cli(tree)
    from polycomm import matrix

    plan_rounds = []
    for seed in seeds:
        plan = Plan(workload, seed)
        _call(cli, plan.warmup.argv)
        plan_rounds += [plan.next_round() for _ in range(rounds)]
    sys.__stdout__.write("ready\n")
    sys.__stdout__.flush()
    for line in sys.stdin:
        timed = []
        for req in plan_rounds[int(line)]:
            seen = Counter()
            with _counting(matrix, seen):
                _call(cli, req.argv)
            best = float("inf")
            for _ in range(repeats):
                t0 = perf_counter()
                _call(cli, req.argv)
                best = min(best, perf_counter() - t0)
            digest = hashlib.sha256(json.dumps(req.argv).encode()).hexdigest()[:16]
            timed.append([req.argv[0], digest, best, dict(seen)])
        sys.__stdout__.write(json.dumps(timed) + "\n")
        sys.__stdout__.flush()


def _child_cmd(tree: Path, args) -> list:
    return [sys.executable, __file__, "--child", str(tree), "--workload", args.workload,
            "--seeds", args.seeds, "--rounds", str(args.rounds), "--time", str(args.time)]


def _answers(tree: Path, args) -> list:
    proc = subprocess.run(_child_cmd(tree, args), capture_output=True, text=True, check=False)
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


def _timings(trees, args) -> list:
    """Per tree, per round, the child's list of timed requests; the trees
    take the rounds in turn, the first alternating."""
    procs = [subprocess.Popen(_child_cmd(tree, args), stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True) for tree in trees]
    out = [[], []]
    try:
        for tree, proc in zip(trees, procs):
            if proc.stdout.readline() != "ready\n":
                sys.exit(f"timing on {tree} did not start")
        for index in range(len(_seeds(args.seeds)) * args.rounds):
            for t in (0, 1) if index % 2 == 0 else (1, 0):
                procs[t].stdin.write(f"{index}\n")
                procs[t].stdin.flush()
                line = procs[t].stdout.readline()
                if not line:
                    sys.exit(f"timing on {trees[t]} stopped at round {index}")
                out[t].append(json.loads(line))
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait()
    if [[r[:2] for r in rnd] for rnd in out[0]] != [[r[:2] for r in rnd] for rnd in out[1]]:
        sys.exit("the two trees did not time the same requests")
    return out


def _spread(ratios: list) -> str:
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    return f"{median:.3f} (quartiles {q1:.3f}-{q3:.3f})"


def _report_times(old: list, new: list, args) -> None:
    """Per subcommand and in total: NEW / OLD time over rounds, rounds won, counts."""
    ratios, wins, seconds = defaultdict(list), defaultdict(Counter), defaultdict(Counter)
    counts = defaultdict(lambda: (Counter(), Counter()))
    for old_round, new_round in zip(old, new):
        spent = defaultdict(lambda: [0.0, 0.0])
        for (kind, _, t_old, c_old), (_, _, t_new, c_new) in zip(old_round, new_round):
            for key in (kind, "total"):
                spent[key][0] += t_old
                spent[key][1] += t_new
                counts[key][0].update(c_old)
                counts[key][1].update(c_new)
        for key, (t_old, t_new) in spent.items():
            ratios[key].append(t_new / t_old)
            wins[key]["old" if t_old < t_new else "new" if t_new < t_old else "tie"] += 1
            seconds[key]["old"] += t_old
            seconds[key]["new"] += t_new
    print(f"{args.workload}, seeds {args.seeds}, {args.rounds} rounds each, best of {args.time} "
          f"per request: NEW / OLD time per round")
    for key in [*sorted(k for k in ratios if k != "total"), "total"]:
        print(f"  {key}: median {_spread(ratios[key])} over {len(ratios[key])} rounds; "
              f"faster: old {wins[key]['old']}, new {wins[key]['new']}; "
              f"best-time sum {seconds[key]['old']:.3f} s -> {seconds[key]['new']:.3f} s")
        c_old, c_new = counts[key]
        for _, _, name in COUNTED:
            print(f"    {name}: {c_old[name]} -> {c_new[name]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="*", type=Path, metavar="TREE")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="A-B, inclusive")
    ap.add_argument("--rounds", type=int, default=60, help="rounds per seed")
    ap.add_argument("--time", type=int, default=0, metavar="K",
                    help="time each request as its best of K runs instead of comparing answers")
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        if args.time:
            _time_child(args.child, args.workload, _seeds(args.seeds), args.rounds, args.time)
        else:
            _replay(args.child, args.workload, _seeds(args.seeds), args.rounds)
        return 0
    if len(args.trees) != 2:
        ap.error("give OLD_TREE and NEW_TREE")
    if args.time < 0:
        ap.error("--time takes a positive K")
    old_tree, new_tree = args.trees
    if args.time:
        _report_times(*_timings(args.trees, args), args)
        return 0
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
