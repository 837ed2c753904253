#!/usr/bin/env python3
"""A/B the day-cost benchmark: a base revision against the working tree.

Run from anywhere inside the repository:

    python3 scripts/daybench_ab.py --pairs 10 --seed 1
    python3 scripts/daybench_ab.py --base HEAD~3 --workloads campaign \\
        --claim campaign:iter_ms

Exports the base revision (default HEAD~1, via `git archive`) and copies the
working tree (tracked and untracked, not ignored, files) into
.bench_build/ab/base and .bench_build/ab/head. Each copy builds its own
daybench through daybench/run.py. Then, per workload, it runs --pairs
alternating pairs (base first in even pairs, head first in odd ones) at
BENCHMARK.json's run_seconds, with --trace 0, and prints every run plus,
per end-to-end metric, each side's median and quartiles, the head's wins,
and a verdict:

  gain        head won >= 9/10 of the pairs (ties count for neither) and the
              medians differ, in head's favour, by more than the base's
              interquartile range;
  ok          head's median is no worse than base's by more than the
              metric's bound (a fraction of the base median);
  unresolved  the base's interquartile range is wider than the bound, and
              not every head run beats every base run;
  WORSE       head's median is worse than base's by more than the bound.

A workload whose head runs fail more operations than the base's, or report
"correct": false, is marked FAILED. Every run's metrics are also written to
.bench_build/ab/runs.json, each with a "rusage" entry: the user CPU, system
CPU and minor page faults of the run's child processes (getrusage
RUSAGE_CHILDREN deltas around it, so the daybench program plus run.py and
its up-to-date build check). Each side's medians of those, in total and per
operation, are printed after the verdicts; they are advisory and change no
verdict. Exits 1 if any metric is WORSE, any workload FAILED, or a --claim
(workload:metric) is not a gain.
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def git(root, *args):
    return subprocess.run(["git", *args], cwd=root, check=True,
                          capture_output=True, text=True).stdout


def export_base(root, rev, dest):
    """Fresh `git archive` of `rev` unless `dest` already holds it."""
    sha = git(root, "rev-parse", rev).strip()
    stamp = dest / ".ab_revision"
    if stamp.exists() and stamp.read_text() == sha:
        return sha
    keep = dest / ".bench_build"
    for entry in dest.iterdir() if dest.exists() else []:
        if entry != keep:
            shutil.rmtree(entry) if entry.is_dir() else entry.unlink()
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(["git", "archive", sha], cwd=root, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    stamp.write_text(sha)
    return sha


def copy_worktree(root, dest):
    """Mirrors the working tree's non-ignored files into `dest`, keeping
    dest's build directory (and file times, so unchanged files do not
    rebuild)."""
    listed = git(root, "ls-files", "-co", "--exclude-standard", "-z")
    files = {f for f in listed.split("\0") if f and (root / f).is_file()}
    dest.mkdir(parents=True, exist_ok=True)
    for path in sorted(dest.rglob("*"), reverse=True):
        rel = path.relative_to(dest).as_posix()
        if rel == ".bench_build" or rel.startswith(".bench_build/"):
            continue
        if path.is_file() and rel not in files:
            path.unlink()
        elif path.is_dir() and not any(path.iterdir()):
            path.rmdir()
    for rel in files:
        src, dst = root / rel, dest / rel
        if dst.exists() and dst.stat().st_mtime == src.stat().st_mtime and \
                dst.stat().st_size == src.stat().st_size:
            continue
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src, dst)


RUSAGE = (("user_s", "ru_utime"), ("sys_s", "ru_stime"),
          ("minflt", "ru_minflt"))


def run_day(tree, workload, seed, seconds):
    cmd = [sys.executable, "daybench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise RuntimeError(f"daybench failed in {tree}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["rusage"] = {key: getattr(after, field) - getattr(before, field)
                        for key, field in RUSAGE}
    return result


def print_rusage(sides):
    """Each side's median child CPU and minor faults, total and per op."""
    for side, results in sides.items():
        cells = []
        for key, _ in RUSAGE:
            total = statistics.median(r["rusage"][key] for r in results)
            per_op = statistics.median(r["rusage"][key] / r["attempted"]
                                       for r in results)
            cells.append(f"{key} {total:.4g} ({per_op:.4g}/op)")
        print(f"  {'rusage ' + side:>14} " + "  ".join(cells))


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], statistics.median(values), q[2]


def verdict(metric, base, head):
    """Applies the gain rule, then the bound, to one metric's runs."""
    sign = 1 if metric["better"] == "lower" else -1
    wins = sum(1 for b, h in zip(base, head) if sign * (b - h) > 0)
    b_q1, b_med, b_q3 = quartiles(base)
    _, h_med, _ = quartiles(head)
    gain = sign * (b_med - h_med)
    if wins >= 0.9 * len(base) and gain > b_q3 - b_q1:
        return wins, "gain"
    if -gain > metric["bound"] * abs(b_med):
        return wins, "WORSE"
    all_better = all(sign * (b - h) > 0 for b in base for h in head)
    if b_q3 - b_q1 > metric["bound"] * abs(b_med) and not all_better:
        return wins, "unresolved"
    return wins, "ok"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1",
                        help="revision to compare against (default HEAD~1)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: BENCHMARK.json's)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--claim", action="append", default=[],
                        help="workload:metric that must be a gain")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").strip())
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    ab = root / ".bench_build" / "ab"
    trees = {"base": ab / "base", "head": ab / "head"}
    sha = export_base(root, args.base, trees["base"])
    copy_worktree(root, trees["head"])
    print(f"base {args.base} = {sha[:12]}; head = working tree; seed "
          f"{args.seed}; {args.pairs} pairs x {seconds:g} s", flush=True)
    for side, tree in trees.items():  # build (and warm) both sides first
        run_day(tree, workloads[0], args.seed, 1)

    runs = {}
    failed_any = False
    claims_met = {claim: False for claim in args.claim}
    worse_any = False
    for workload in workloads:
        runs[workload] = {"base": [], "head": []}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                result = run_day(trees[side], workload, args.seed, seconds)
                runs[workload][side].append(result)
                values = " ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                    for m in metrics)
                print(f"  {workload} pair {i} {side}: {values} "
                      f"correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}",
                      flush=True)
        sides = runs[workload]
        fail_share = {
            side: sum(r["failed"] for r in sides[side]) /
            max(1, sum(r["attempted"] for r in sides[side]))
            for side in sides}
        bad = (not all(r["correct"] for r in sides["head"]) or
               fail_share["head"] > fail_share["base"])
        failed_any |= bad
        print(f"{workload}:{' FAILED' if bad else ''} failed share base "
              f"{fail_share['base']:.4f} head {fail_share['head']:.4f}")
        for metric in metrics:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in sides["base"]]
            head = [r["metrics"][name]["value"] for r in sides["head"]]
            wins, call = verdict(metric, base, head)
            b_q1, b_med, b_q3 = quartiles(base)
            h_q1, h_med, h_q3 = quartiles(head)
            change = (h_med - b_med) / b_med * 100 if b_med else 0.0
            print(f"  {name:>14} base {b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}]"
                  f"  head {h_med:.4g} [{h_q1:.4g}, {h_q3:.4g}]"
                  f"  {change:+.1f}%  wins {wins}/{len(base)}  {call}")
            worse_any |= call == "WORSE"
            if f"{workload}:{name}" in claims_met:
                claims_met[f"{workload}:{name}"] = call == "gain"
        print_rusage(sides)
    (ab / "runs.json").write_text(json.dumps(
        {"base": sha, "seed": args.seed, "seconds": seconds, "runs": runs},
        indent=1))
    for claim, met in claims_met.items():
        print(f"claim {claim}: {'met' if met else 'NOT met'}")
    ok = not failed_any and not worse_any and all(claims_met.values())
    print("verdict:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
