#!/usr/bin/env bash
# check.sh - tier-1 verification plus sanitizer passes.
#
#   scripts/check.sh            # plain build + ctest, bench guards, then ASan/UBSan and TSan passes
#   scripts/check.sh --fast     # plain build + ctest only
#
# The plain pass is the repo's tier-1 gate (ROADMAP.md). The bench-guard leg
# runs bench_micro's enforced perf floors (telemetry overhead, trace
# instrumentation overhead, sweep scaling, ingest throughput, bytes per observation, snapshot save/load, incremental
# differencing, fused analysis speedup) into a fresh JSON report; a follow-up audit of guards.entries
# fails the run if any guard reported itself skipped on hardware that could
# have run it — a guard may only be waved through when the host genuinely
# lacks the threads its floor needs. bench_trend.py then diffs the fresh
# report against the committed BENCH_micro.json baseline metric by metric
# (advisory deltas; the hard floors already ran) and appends one line to
# the local BENCH_history.jsonl trajectory.
# The trace leg runs a traced checkpoint campaign and validates the Chrome
# trace-event JSON it writes: parseable, the required keys present, the
# expected per-shard lanes rendered, one campaign.day pair per day, and —
# when no ring overflowed — every lane's B/E events properly nested.
# The checkpoint/resume leg kills a checkpointed campaign mid-flight and
# asserts the resumed run's digest and on-disk snapshot chain are
# byte-identical to an uninterrupted run, at 1, 4 and nproc+2 threads (§5f)
# — the last one a request above the core count, which is honoured exactly.
# The mid-day kill leg kills a campaign after day 2 has swept but before it
# commits (--kill-mid-day, exit 43, nothing durable for that day) and
# asserts the resume converges on an uninterrupted 1-thread run's digest
# and snapshot chain.
# The serve leg (§5k) kills a campaign that is maintaining a live ServeTable
# mid-chain, resumes it at a different thread count, and asserts the resumed table's version digest — every maintained
# field plus both published windows — equals an uninterrupted run's.
# The join leg (§5l) runs the partitioned out-of-core merge-join example at
# different thread counts AND partition fan-outs and cmp's the emitted
# dossier/timeline reports byte for byte.
# The daybench leg runs the day-cost benchmark's campaign and resume_join
# workloads for a few seconds each and asserts both report "correct": true
# with no failed iteration (their built-in end-to-end checks), then runs a
# traced campaign, asserts its ledger counts exactly 131072 probes and rows
# per day with a response ratio of 1, and prints the ledger line.
# The ASan/UBSan pass rebuilds everything with
# -fsanitize=address,undefined into build-sanitize/ and reruns the test suite
# under it. The TSan pass rebuilds into build-tsan/ with -fsanitize=thread and
# runs every Engine-, Serve- and Join-prefixed suite — the sharded
# executor, the fused analysis engine's serial/parallel equivalence matrix, the ServeTable's epoch-slot publication rail under
# concurrent readers, and the partitioned join's thread-count/fan-out
# differential matrix — under ThreadSanitizer.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc)

echo "== tier-1: configure + build + ctest (build/) =="
cmake -B build -S . >/dev/null
cmake --build build -j"$jobs"
(cd build && ctest --output-on-failure -j"$jobs")

if [[ "${1:-}" == "--fast" ]]; then
  echo "== skipping bench guards and sanitizer pass (--fast) =="
  exit 0
fi

bench_tmp=$(mktemp -d)
trap 'rm -rf "$bench_tmp"' EXIT

echo "== bench guards: perf floors (bench_micro) =="
# Exits nonzero if any guard floor is missed; the filter skips the
# registered microbenchmarks (the guards measure everything the JSON
# needs). The report lands in a temp file so a noisy run never clobbers
# the committed baseline — refresh BENCH_micro.json deliberately, with
# SCENT_BENCH_JSON=BENCH_micro.json, when a PR moves the floors.
SCENT_BENCH_JSON="$bench_tmp/bench_fresh.json" \
  ./build/bench/bench_micro --benchmark_filter='^$'

echo "== bench guards: no guard skipped on capable hardware =="
# bench_micro downgrades thread-scaling floors to advisory on hosts with
# too few cores, recording why in guards.entries[].skipped_reason. That
# escape hatch must never fire on a machine that has the threads: a skip
# with required_threads <= nproc means the guard was dodged, not gated.
SCENT_BENCH_FRESH="$bench_tmp/bench_fresh.json" python3 - "$(nproc)" <<'PYEOF'
import json, os, sys
nproc = int(sys.argv[1])
entries = json.load(open(os.environ["SCENT_BENCH_FRESH"]))["guards"]["entries"]
bad = [e for e in entries
       if e["skipped_reason"] is not None and e["required_threads"] <= nproc]
for e in bad:
    print(f"guard '{e['name']}' skipped ({e['skipped_reason']}) but host has "
          f"{nproc} >= {e['required_threads']} threads", file=sys.stderr)
ok = [e["name"] for e in entries if e["skipped_reason"] is None]
skipped = [e["name"] for e in entries if e["skipped_reason"] is not None]
print(f"  enforced: {', '.join(ok)}"
      + (f"; legitimately skipped: {', '.join(skipped)}" if skipped else ""))
sys.exit(1 if bad else 0)
PYEOF

echo "== bench trend: fresh run vs committed BENCH_micro.json baseline =="
python3 scripts/bench_trend.py --baseline BENCH_micro.json \
  --fresh "$bench_tmp/bench_fresh.json" --history BENCH_history.jsonl

echo "== trace: Perfetto-loadable timeline from a traced campaign =="
trace_days=3
./build/examples/checkpoint_campaign --days="$trace_days" --threads=4 \
  --out-dir="$bench_tmp/traced" --trace-out="$bench_tmp/trace.json" \
  > /dev/null
python3 -m json.tool "$bench_tmp/trace.json" > /dev/null
SCENT_TRACE_JSON="$bench_tmp/trace.json" SCENT_TRACE_DAYS="$trace_days" \
  python3 - <<'PYEOF'
import json, os, sys
doc = json.load(open(os.environ["SCENT_TRACE_JSON"]))
events = doc["traceEvents"]
assert events, "empty traceEvents"
for required in ("name", "ph", "ts", "pid", "tid"):
    missing = [e for e in events if required not in e]
    assert not missing, f"events missing '{required}': {missing[:3]}"
lanes = {e["args"]["name"] for e in events
         if e.get("ph") == "M" and e["name"] == "thread_name"}
for expect in ("campaign", "sweep shard 0", "ingest shard 0",
               "analysis shard 0"):
    assert expect in lanes, f"missing lane '{expect}' in {sorted(lanes)}"
lane_tid = {e["args"]["name"]: e["tid"] for e in events
            if e.get("ph") == "M" and e["name"] == "thread_name"}
dropped = doc["otherData"]["dropped_events"]
if dropped == 0:
    # Each E must close the most recent open B of the same name, per lane.
    open_by_tid = {}
    for e in events:
        stack = open_by_tid.setdefault(e["tid"], [])
        if e["ph"] == "B":
            stack.append(e["name"])
        elif e["ph"] == "E":
            assert stack and stack[-1] == e["name"], \
                f"tid {e['tid']}: E '{e['name']}' does not close {stack[-1:]}"
            stack.pop()
    unclosed = {t: s for t, s in open_by_tid.items() if s}
    assert not unclosed, f"unclosed B events: {unclosed}"
days = int(os.environ["SCENT_TRACE_DAYS"])
campaign = [e for e in events if e["tid"] == lane_tid["campaign"]]
for ph in ("B", "E"):
    n = sum(1 for e in campaign if e["name"] == "campaign.day" and e["ph"] == ph)
    assert n == days, f"campaign lane: {n} campaign.day {ph} events, want {days}"
print(f"  {len(events)} events across {len(lanes)} lanes, {dropped} dropped, "
      f"{days} campaign.day pairs"
      + (", B/E nesting balanced" if dropped == 0 else "") + ": OK")
PYEOF

echo "== checkpoint/resume: kill-and-resume byte-identical corpus =="
resume_tmp=$(mktemp -d)
trap 'rm -rf "$bench_tmp" "$resume_tmp"' EXIT
for t in 1 4 $((jobs + 2)); do
  rm -rf "$resume_tmp/killed" "$resume_tmp/whole"
  mkdir -p "$resume_tmp/killed" "$resume_tmp/whole"
  # The killed run _Exit(42)s right after day 2's checkpoint is durable;
  # anything else (including a clean exit) is a harness failure.
  set +e
  ./build/examples/checkpoint_campaign --days=6 --threads="$t" \
    --kill-after-day=2 --out-dir="$resume_tmp/killed" >/dev/null
  status=$?
  set -e
  if [[ "$status" -ne 42 ]]; then
    echo "checkpoint_campaign: expected kill-hook exit 42, got $status" >&2
    exit 1
  fi
  resumed=$(./build/examples/checkpoint_campaign --days=6 --threads="$t" \
    --digest-only --out-dir="$resume_tmp/killed")
  whole=$(./build/examples/checkpoint_campaign --days=6 --threads="$t" \
    --digest-only --out-dir="$resume_tmp/whole")
  if [[ "$resumed" != "$whole" ]]; then
    echo "resume digest mismatch at $t threads: $resumed != $whole" >&2
    exit 1
  fi
  for f in "$resume_tmp"/whole/day_*.snap "$resume_tmp/whole/manifest.txt"; do
    if ! cmp -s "$f" "$resume_tmp/killed/$(basename "$f")"; then
      echo "chain file differs at $t threads: $(basename "$f")" >&2
      exit 1
    fi
  done
  echo "  threads $t: digest $resumed, 6-day chain byte-identical OK"
done

echo "== mid-day kill: an uncommitted day leaves no trace =="
midday_tmp=$(mktemp -d)
trap 'rm -rf "$bench_tmp" "$resume_tmp" "$midday_tmp"' EXIT
mkdir -p "$midday_tmp/whole" "$midday_tmp/killed"
whole=$(./build/examples/checkpoint_campaign --days=5 --threads=1 \
  --digest-only --out-dir="$midday_tmp/whole")
# Die once day 2 has swept but before its snapshot commits — exit 43, no
# day_0002.snap on disk — then resume at a different thread count and land
# on the uninterrupted digest with an identical chain.
set +e
./build/examples/checkpoint_campaign --days=5 --threads=4 \
  --kill-mid-day=2 --out-dir="$midday_tmp/killed" >/dev/null
status=$?
set -e
if [[ "$status" -ne 43 ]]; then
  echo "checkpoint_campaign: expected mid-day-kill exit 43, got $status" >&2
  exit 1
fi
if [[ -e "$midday_tmp/killed/day_0002.snap" ]]; then
  echo "mid-day kill left a durable day_0002.snap; day 2 should be lost" >&2
  exit 1
fi
resumed=$(./build/examples/checkpoint_campaign --days=5 --threads=4 \
  --digest-only --out-dir="$midday_tmp/killed")
if [[ "$resumed" != "$whole" ]]; then
  echo "mid-day-kill resume digest mismatch: $resumed != $whole" >&2
  exit 1
fi
for f in "$midday_tmp"/whole/day_*.snap "$midday_tmp/whole/manifest.txt"; do
  if ! cmp -s "$f" "$midday_tmp/killed/$(basename "$f")"; then
    echo "mid-day-kill chain file differs: $(basename "$f")" >&2
    exit 1
  fi
done
echo "  mid-day kill (exit 43) + resume: digest $resumed, chain matches OK"

echo "== serve: killed campaign resumes to an identical ServeTable =="
serve_tmp=$(mktemp -d)
trap 'rm -rf "$bench_tmp" "$resume_tmp" "$midday_tmp" "$serve_tmp"' EXIT
mkdir -p "$serve_tmp/killed" "$serve_tmp/whole"
# Kill the serving campaign right after day 2's checkpoint (the in-memory
# ServeTable dies with the process), then resume: the fresh table replays
# the restored days as deltas and must serve exactly what a never-killed
# run serves — even though the resume runs at a different thread count.
set +e
./build/examples/serve_tracker --days=5 --threads=2 --kill-after-day=2 \
  --out-dir="$serve_tmp/killed" >/dev/null
status=$?
set -e
if [[ "$status" -ne 42 ]]; then
  echo "serve_tracker: expected kill-hook exit 42, got $status" >&2
  exit 1
fi
resumed=$(./build/examples/serve_tracker --days=5 --threads=4 \
  --digest-only --out-dir="$serve_tmp/killed")
whole=$(./build/examples/serve_tracker --days=5 --threads=2 \
  --digest-only --out-dir="$serve_tmp/whole")
if [[ "$resumed" != "$whole" ]]; then
  echo "serve digest mismatch after kill+resume: $resumed != $whole" >&2
  exit 1
fi
echo "  kill (exit 42) + 4-thread resume: serve digest $resumed OK"

echo "== join: dossier outputs byte-identical across threads and fan-out =="
join_tmp=$(mktemp -d)
trap 'rm -rf "$bench_tmp" "$resume_tmp" "$midday_tmp" "$serve_tmp" "$join_tmp"' EXIT
# The §5l merge contract: the partitioned out-of-core join must emit the
# same bytes at any thread count AND any partition fan-out, so the two runs
# deliberately differ in both.
mkdir -p "$join_tmp/t1" "$join_tmp/t8"
./build/examples/join_dossiers --threads=1 --partitions=8 \
  --out-dir="$join_tmp/t1" >/dev/null
./build/examples/join_dossiers --threads=8 --partitions=16 \
  --out-dir="$join_tmp/t8" >/dev/null
for f in dossiers.tsv timelines.tsv; do
  if ! cmp -s "$join_tmp/t1/$f" "$join_tmp/t8/$f"; then
    echo "join output differs (1 thr/8 parts vs 8 thr/16 parts): $f" >&2
    exit 1
  fi
done
echo "  dossiers.tsv + timelines.tsv: 1 thr/8 parts == 8 thr/16 parts OK"

echo "== daybench: campaign and resume_join smoke with built-in checks =="
# The only leg that drives the wire-mode sharded sweep end to end. Each
# workload checks itself as it runs — the serial re-sweep digest, snapshot
# read-back, Algorithm 1 inferring /56, the join against the naive oracle —
# and reports "correct" and a "failed" iteration count in its JSON result
# (the last line of stdout). Reads daybench/, never edits it.
for workload in campaign resume_join; do
  result=$(python3 daybench/run.py --workload "$workload" --seed 1 \
    --seconds 3 --trace 0 | tail -n 1)
  SCENT_DAYBENCH_RESULT="$result" python3 - "$workload" <<'PYEOF'
import json, os, sys
workload = sys.argv[1]
result = json.loads(os.environ["SCENT_DAYBENCH_RESULT"])
assert result["correct"] is True, f"{workload}: correct={result['correct']}"
assert result["failed"] == 0, f"{workload}: {result['failed']} iterations failed"
print(f"  {workload}: {result['attempted']} iterations, correct, 0 failed OK")
PYEOF
done
# The traced campaign's per-layer ledger: one day is exactly the planned
# 131072 probes, and every probe comes back as a row.
result=$(python3 daybench/run.py --workload campaign --seed 1 --seconds 3 \
  --trace 1 | tail -n 1)
SCENT_DAYBENCH_RESULT="$result" python3 - <<'PYEOF'
import json, os
result = json.loads(os.environ["SCENT_DAYBENCH_RESULT"])
assert result["correct"] is True, f"traced campaign: correct={result['correct']}"
assert result["failed"] == 0, f"traced campaign: {result['failed']} failed"
m = {name: metric["value"] for name, metric in result["metrics"].items()}
for name, want in (("probes_per_iter", 131072), ("rows_per_iter", 131072),
                   ("response_ratio", 1)):
    assert m[name] == want, f"traced campaign: {name}={m[name]}, want {want}"
print("  campaign ledger: " + ", ".join(f"{name}={m[name]:g}" for name in m))
PYEOF

echo "== sanitizer: ASan+UBSan build + ctest (build-sanitize/) =="
cmake -B build-sanitize -S . -DSCENT_SANITIZE=address,undefined >/dev/null
cmake --build build-sanitize -j"$jobs"
(cd build-sanitize && ctest --output-on-failure -j"$jobs")

echo "== sanitizer: TSan build + engine/serve/join tests (build-tsan/) =="
cmake -B build-tsan -S . -DSCENT_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$jobs" --target engine_tests \
  --target serve_tests --target join_tests
(cd build-tsan && ctest --output-on-failure -R '^(Engine|Serve|Join)' -j"$jobs")

echo "== all checks passed =="
