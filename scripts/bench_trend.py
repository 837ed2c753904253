#!/usr/bin/env python3
"""bench_trend.py - perf-trend harness over bench_micro's guard JSON.

Compares a fresh bench run (written via SCENT_BENCH_JSON) against the
committed BENCH_micro.json baseline, metric by metric:

  python3 scripts/bench_trend.py --baseline BENCH_micro.json \
      --fresh /tmp/bench_fresh.json --history BENCH_history.jsonl

* Every numeric metric present in both files is printed with its delta and
  a direction-aware verdict: throughput-like metrics (M ops/s, speedups,
  rows/s) should not fall, cost-like metrics (milliseconds, overhead %,
  bytes per observation) should not rise.
* A move past --regress-pct (default 10%) in the bad direction is flagged
  as a REGRESSION, past the same threshold in the good direction as an
  improvement; anything within the band is noise and stays quiet unless
  --verbose.
* Each run appends one JSON line (timestamp, headline metrics, flags) to
  --history so the trajectory across PRs survives baseline refreshes. The
  history file is an append-only local artifact and is gitignored.

* Both reports' host fingerprints (nproc, CPU model, build type, compiler
  flags — the "host" object bench_micro writes) are printed. When they
  differ, or the baseline predates fingerprints, every flagged delta is
  marked "advisory: different host": it compares two machines, not two
  versions of the code.

Exit status: 1 if the fresh run's own guards failed (guards.all_ok false),
if the fresh report is missing any guard named in the baseline's
guards.entries (a guard that silently vanishes is a regression in coverage,
never noise — this check is unconditional, not gated on --strict), or, with
--strict, if any regression was flagged on the baseline's own host; 0
otherwise. The metric band is
advisory because shared CI hosts jitter far more than 10% — the hard floors
live in bench_micro itself.
"""

import argparse
import datetime
import json
import sys

# Substring -> direction. "up" = bigger is better, "down" = smaller is
# better. First match wins; metrics matching nothing are reported but never
# flagged (counts, sizes and thread tallies have no good direction).
DIRECTION_RULES = [
    ("overhead_pct", "down"),
    ("_ms", "down"),
    ("bytes_per_obs", "down"),
    ("bytes_per_row", "down"),
    ("sample_ns", "down"),
    ("batch_ns", "down"),
    ("file_bytes", "down"),
    ("spill_bytes", "down"),
    ("peak_heap_bytes", "down"),
    ("serial_s", "down"),
    ("parallel8_s", "down"),
    ("mops", "up"),
    ("mrows_per_s", "up"),
    ("speedup", "up"),
    ("reduction_pct", "up"),
    ("compression_ratio", "up"),
    ("queries_per_s", "up"),
]

# Metrics summarized into each history line: one headline number per
# guarded subsystem.
HEADLINE = [
    "ingest.columnar_mops",
    "analysis.fused_ms",
    "corpus.save_mrows_per_s",
    "corpus.load_mrows_per_s",
    "snapshot_v2.bytes_per_row",
    "snapshot_v2.compression_ratio",
    "snapshot_v2.save_mrows_per_s",
    "snapshot_v2.load_mrows_per_s",
    "telemetry.overhead_pct",
    "trace.idle_overhead_pct",
    "trace.enabled_overhead_pct",
    "sweep_scaling.serial_mops",
    "containers.flat_insert_mops",
    "containers_50m.flat_insert_mops",
    "containers_50m.flat_find_mops",
    "serve.delta_speedup",
    "serve.queries_per_s",
    "join_scaling.serial_mrows_per_s",
    "join_scaling.speedup_at_8",
    "join_scaling.partitions",
    "join_scaling.spill_bytes",
]


def flatten(node, prefix=""):
    """Dotted-path -> value map over nested dicts (lists are opaque)."""
    out = {}
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            out.update(flatten(value, path))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[prefix] = float(node)
    return out


def describe_host(host):
    if not isinstance(host, dict):
        return "no fingerprint"
    return (f"nproc={host.get('nproc')}, cpu={host.get('cpu_model')!r}, "
            f"build={host.get('build_type')}, flags={host.get('cxx_flags')!r}")


def direction_for(path):
    for needle, direction in DIRECTION_RULES:
        if needle in path:
            return direction
    return None


def main():
    parser = argparse.ArgumentParser(
        description="diff a fresh bench_micro JSON against the baseline")
    parser.add_argument("--baseline", default="BENCH_micro.json")
    parser.add_argument("--fresh", required=True)
    parser.add_argument("--history", default=None,
                        help="JSONL file to append this run's summary to")
    parser.add_argument("--regress-pct", type=float, default=10.0,
                        help="flag moves past this %% in the bad direction")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero when a regression is flagged")
    parser.add_argument("--verbose", action="store_true",
                        help="also print metrics inside the noise band")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    # The fingerprint describes the run; it is not a metric to diff.
    base_metrics = flatten({k: v for k, v in baseline.items() if k != "host"})
    fresh_metrics = flatten({k: v for k, v in fresh.items() if k != "host"})
    shared = sorted(set(base_metrics) & set(fresh_metrics))
    if not shared:
        print("bench_trend: no shared numeric metrics; wrong files?",
              file=sys.stderr)
        return 1

    regressions = []
    improvements = []
    print(f"bench trend: {args.fresh} vs {args.baseline} "
          f"({len(shared)} shared metrics, +/-{args.regress_pct:g}% band)")
    base_host = baseline.get("host")
    fresh_host = fresh.get("host")
    same_host = isinstance(base_host, dict) and base_host == fresh_host
    print(f"  baseline host: {describe_host(base_host)}")
    print(f"  fresh host:    {describe_host(fresh_host)}")
    advisory = "" if same_host else " (advisory: different host)"
    if not same_host:
        print("  deltas are advisory: different host")
    for path in shared:
        base, new = base_metrics[path], fresh_metrics[path]
        if base == 0:
            continue  # nothing to express a ratio against
        delta_pct = (new / base - 1.0) * 100.0
        direction = direction_for(path)
        verdict = ""
        if direction is not None and abs(delta_pct) >= args.regress_pct:
            bad = delta_pct < 0 if direction == "up" else delta_pct > 0
            verdict = "REGRESSION" if bad else "improved"
            (regressions if bad else improvements).append(
                (path, base, new, delta_pct))
        if verdict or args.verbose:
            arrow = {"up": "^", "down": "v", None: "-"}[direction]
            print(f"  {path:42s} {base:12.3f} -> {new:12.3f} "
                  f"{delta_pct:+7.2f}% [{arrow}] {verdict}"
                  f"{advisory if verdict else ''}")

    # Coverage check: every guard the committed baseline knows about must
    # still be reported by the fresh run. flatten() never sees the entries
    # list, so without this a deleted guard would sail through the metric
    # diff — and a missing floor is worse than a failed one.
    def guard_names(report):
        entries = report.get("guards", {}).get("entries", [])
        return {e["name"] for e in entries
                if isinstance(e, dict) and "name" in e}

    # Absolute throughput, always printed: the delta loop above only speaks
    # in ratios (and only for moves outside the band), which buried the
    # corpus guard's measured rates entirely on quiet runs.
    def fmt(path, unit=""):
        value = fresh_metrics.get(path)
        return "n/a" if value is None else f"{value:.1f}{unit}"

    print(f"  corpus: save {fmt('corpus.save_mrows_per_s')} / "
          f"load {fmt('corpus.load_mrows_per_s')} M rows/s; "
          f"snapshot_v2: save {fmt('snapshot_v2.save_mrows_per_s')} / "
          f"load {fmt('snapshot_v2.load_mrows_per_s')} M rows/s, "
          f"{fmt('snapshot_v2.bytes_per_row')} B/row "
          f"({fmt('snapshot_v2.compression_ratio', 'x')} vs v1)")
    print(f"  join: {fmt('join_scaling.serial_mrows_per_s')} M rows/s "
          f"serial over {fmt('join_scaling.partitions')} partitions, "
          f"{fmt('join_scaling.spill_bytes')} spill bytes, "
          f"{fmt('join_scaling.blocks_pruned')} blocks pruned")

    missing_guards = sorted(guard_names(baseline) - guard_names(fresh))
    for name in missing_guards:
        print(f"  MISSING GUARD {name}: in baseline guards.entries but "
              f"absent from {args.fresh}", file=sys.stderr)

    guards_ok = bool(fresh.get("guards", {}).get("all_ok", False))
    print(f"  guards.all_ok: {guards_ok}; "
          f"{len(regressions)} regression(s), "
          f"{len(improvements)} improvement(s) flagged, "
          f"{len(missing_guards)} guard(s) missing")
    for path, base, new, delta_pct in regressions:
        print(f"  REGRESSION {path}: {base:.3f} -> {new:.3f} "
              f"({delta_pct:+.1f}%){advisory}", file=sys.stderr)

    if args.history:
        entry = {
            "timestamp": datetime.datetime.now(datetime.timezone.utc)
                         .isoformat(timespec="seconds"),
            "baseline": args.baseline,
            "guards_ok": guards_ok,
            "host": fresh_host,
            "same_host": same_host,
            "metrics": {p: fresh_metrics[p] for p in HEADLINE
                        if p in fresh_metrics},
            "regressions": [p for p, *_ in regressions],
        }
        with open(args.history, "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
        print(f"  history: appended to {args.history}")

    if missing_guards:
        return 1
    if not guards_ok:
        return 1
    if args.strict and regressions and same_host:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
