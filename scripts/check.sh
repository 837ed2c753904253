#!/usr/bin/env bash
# check.sh - tier-1 verification plus sanitizer passes.
#
#   scripts/check.sh            # every leg below, then a leg -> pass/fail/seconds table
#   scripts/check.sh --fast     # plain build + ctest only
#
# Every leg is one function, run in its own `set -e` subshell. A failing leg
# is recorded and the next one still runs; the script ends with one table of
# leg -> pass/fail/seconds and exits nonzero if any leg failed.
#
# The plain pass is the repo's tier-1 gate (ROADMAP.md). The bench-guard leg
# runs bench_micro's eight perf guards (telemetry and trace overhead, sweep
# scaling, ingest rate and bytes per observation, snapshot
# size/save/load, fused analysis, serve deltas, join scaling)
# into a fresh JSON report. Every guard is enforced on every host against
# an absolute floor, scaled to min(nproc, 8) where it needs cores, so none
# can be skipped. The bench-trend leg then diffs the fresh report against
# the committed BENCH_micro.json baseline metric by metric (advisory deltas;
# the hard floors already ran) and appends one line to the local
# BENCH_history.jsonl trajectory.
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
# The paper-bench leg runs all 16 figure/table benches (bench_fig*,
# bench_table*, bench_ablation*, bench_extension*) at --threads=1 and at
# --threads=nproc, up to nproc runs at a time, each in its own working
# directory. The seven funnel benches share one paper chain per thread
# count (bench/bench_util.h): bench_fig12_provider_switch runs first and
# builds the funnel record and the 44-day campaign chain; the other six,
# and a second fig12 run, then read that chain through a .scent_chain
# symlink. None asks for more than 44 days, so none writes it, and the leg
# fails if the chain's listing changes. The nine benches without a funnel
# run alongside the producers. Every bench exits nonzero when its paper
# shape check fails; the leg prints each bench's wall times and fails if
# any run does. A bench's stdout is its figure (timings go to stderr), so
# the leg then cmp's each bench's two runs' stdout, and each fig12 replay's
# stdout against its producing run's, and fails, printing the diff, if
# they differ.
# The ASan/UBSan pass rebuilds everything with
# -fsanitize=address,undefined into build-sanitize/ and reruns the test suite
# under it. The TSan pass rebuilds into build-tsan/ with -fsanitize=thread and
# runs every Engine-, Serve- and Join-prefixed suite — the sharded
# executor, the invariant-lattice harness's (tests/lattice/) serial/parallel,
# serve and join fan-out matrices, the ServeTable's version publication
# under concurrent readers — under ThreadSanitizer.
set -uo pipefail

cd "$(dirname "$0")/.."
repo_root=$PWD
jobs=$(nproc)
check_tmp=$(mktemp -d)
trap 'rm -rf "$check_tmp"' EXIT

leg_tier1() {
  echo "== tier-1: configure + build + ctest (build/) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$jobs"
  (cd build && ctest --output-on-failure -j"$jobs")
}

leg_bench_guards() {
  echo "== bench guards: perf floors (bench_micro) =="
  # Exits nonzero if any guard floor is missed; the filter skips the
  # registered microbenchmarks (the guards measure everything the JSON
  # needs). The report lands in a temp file so a noisy run never clobbers
  # the committed baseline — refresh BENCH_micro.json deliberately, with
  # SCENT_BENCH_JSON=BENCH_micro.json, when a PR moves the floors.
  SCENT_BENCH_JSON="$check_tmp/bench_fresh.json" \
    ./build/bench/bench_micro --benchmark_filter='^$'
}

leg_bench_trend() {
  echo "== bench trend: fresh run vs committed BENCH_micro.json baseline =="
  python3 scripts/bench_trend.py --baseline BENCH_micro.json \
    --fresh "$check_tmp/bench_fresh.json" --history BENCH_history.jsonl
}

leg_trace() {
  echo "== trace: Perfetto-loadable timeline from a traced campaign =="
  local trace_days=3
  ./build/examples/checkpoint_campaign --days="$trace_days" --threads=4 \
    --out-dir="$check_tmp/traced" --trace-out="$check_tmp/trace.json" \
    > /dev/null
  python3 -m json.tool "$check_tmp/trace.json" > /dev/null
  SCENT_TRACE_JSON="$check_tmp/trace.json" SCENT_TRACE_DAYS="$trace_days" \
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
}

leg_resume() {
  echo "== checkpoint/resume: kill-and-resume byte-identical corpus =="
  local dir=$check_tmp/resume status resumed whole t f
  for t in 1 4 $((jobs + 2)); do
    rm -rf "$dir"
    mkdir -p "$dir/killed" "$dir/whole"
    # The killed run _Exit(42)s right after day 2's checkpoint is durable;
    # anything else (including a clean exit) is a harness failure.
    status=0
    ./build/examples/checkpoint_campaign --days=6 --threads="$t" \
      --kill-after-day=2 --out-dir="$dir/killed" >/dev/null || status=$?
    if [[ "$status" -ne 42 ]]; then
      echo "checkpoint_campaign: expected kill-hook exit 42, got $status" >&2
      exit 1
    fi
    resumed=$(./build/examples/checkpoint_campaign --days=6 --threads="$t" \
      --digest-only --out-dir="$dir/killed")
    whole=$(./build/examples/checkpoint_campaign --days=6 --threads="$t" \
      --digest-only --out-dir="$dir/whole")
    if [[ "$resumed" != "$whole" ]]; then
      echo "resume digest mismatch at $t threads: $resumed != $whole" >&2
      exit 1
    fi
    for f in "$dir"/whole/day_*.snap "$dir/whole/manifest.txt"; do
      if ! cmp -s "$f" "$dir/killed/$(basename "$f")"; then
        echo "chain file differs at $t threads: $(basename "$f")" >&2
        exit 1
      fi
    done
    echo "  threads $t: digest $resumed, 6-day chain byte-identical OK"
  done
}

leg_midday() {
  echo "== mid-day kill: an uncommitted day leaves no trace =="
  local dir=$check_tmp/midday status resumed whole f
  mkdir -p "$dir/whole" "$dir/killed"
  whole=$(./build/examples/checkpoint_campaign --days=5 --threads=1 \
    --digest-only --out-dir="$dir/whole")
  # Die once day 2 has swept but before its snapshot commits — exit 43, no
  # day_0002.snap on disk — then resume at a different thread count and
  # land on the uninterrupted digest with an identical chain.
  status=0
  ./build/examples/checkpoint_campaign --days=5 --threads=4 \
    --kill-mid-day=2 --out-dir="$dir/killed" >/dev/null || status=$?
  if [[ "$status" -ne 43 ]]; then
    echo "checkpoint_campaign: expected mid-day-kill exit 43, got $status" >&2
    exit 1
  fi
  if [[ -e "$dir/killed/day_0002.snap" ]]; then
    echo "mid-day kill left a durable day_0002.snap; day 2 should be lost" >&2
    exit 1
  fi
  resumed=$(./build/examples/checkpoint_campaign --days=5 --threads=4 \
    --digest-only --out-dir="$dir/killed")
  if [[ "$resumed" != "$whole" ]]; then
    echo "mid-day-kill resume digest mismatch: $resumed != $whole" >&2
    exit 1
  fi
  for f in "$dir"/whole/day_*.snap "$dir/whole/manifest.txt"; do
    if ! cmp -s "$f" "$dir/killed/$(basename "$f")"; then
      echo "mid-day-kill chain file differs: $(basename "$f")" >&2
      exit 1
    fi
  done
  echo "  mid-day kill (exit 43) + resume: digest $resumed, chain matches OK"
}

leg_serve() {
  echo "== serve: killed campaign resumes to an identical ServeTable =="
  local dir=$check_tmp/serve status resumed whole
  mkdir -p "$dir/killed" "$dir/whole"
  # Kill the serving campaign right after day 2's checkpoint (the in-memory
  # ServeTable dies with the process), then resume: the fresh table replays
  # the restored days as deltas and must serve exactly what a never-killed
  # run serves — even though the resume runs at a different thread count.
  status=0
  ./build/examples/serve_tracker --days=5 --threads=2 --kill-after-day=2 \
    --out-dir="$dir/killed" >/dev/null || status=$?
  if [[ "$status" -ne 42 ]]; then
    echo "serve_tracker: expected kill-hook exit 42, got $status" >&2
    exit 1
  fi
  resumed=$(./build/examples/serve_tracker --days=5 --threads=4 \
    --digest-only --out-dir="$dir/killed")
  whole=$(./build/examples/serve_tracker --days=5 --threads=2 \
    --digest-only --out-dir="$dir/whole")
  if [[ "$resumed" != "$whole" ]]; then
    echo "serve digest mismatch after kill+resume: $resumed != $whole" >&2
    exit 1
  fi
  echo "  kill (exit 42) + 4-thread resume: serve digest $resumed OK"
}

leg_join() {
  echo "== join: dossier outputs byte-identical across threads and fan-out =="
  local dir=$check_tmp/join f
  # The §5l merge contract: the partitioned out-of-core join must emit the
  # same bytes at any thread count AND any partition fan-out, so the two
  # runs deliberately differ in both.
  mkdir -p "$dir/t1" "$dir/t8"
  ./build/examples/join_dossiers --threads=1 --partitions=8 \
    --out-dir="$dir/t1" >/dev/null
  ./build/examples/join_dossiers --threads=8 --partitions=16 \
    --out-dir="$dir/t8" >/dev/null
  for f in dossiers.tsv timelines.tsv; do
    if ! cmp -s "$dir/t1/$f" "$dir/t8/$f"; then
      echo "join output differs (1 thr/8 parts vs 8 thr/16 parts): $f" >&2
      exit 1
    fi
  done
  echo "  dossiers.tsv + timelines.tsv: 1 thr/8 parts == 8 thr/16 parts OK"
}

leg_daybench() {
  echo "== daybench: campaign and resume_join smoke with built-in checks =="
  # The only leg that drives the wire-mode sharded sweep end to end. Each
  # workload checks itself as it runs — the serial re-sweep digest, snapshot
  # read-back, Algorithm 1 inferring /56, the join against the naive oracle
  # — and reports "correct" and a "failed" iteration count in its JSON
  # result (the last line of stdout). Reads daybench/, never edits it.
  local workload result
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
  # The traced resume_join ledger: the four-day chain is 4 x 131072 rows,
  # and the join both anchored dossiers and pruned feed blocks.
  result=$(python3 daybench/run.py --workload resume_join --seed 1 \
    --seconds 3 --trace 1 | tail -n 1)
  SCENT_DAYBENCH_RESULT="$result" python3 - <<'PYEOF'
import json, os
result = json.loads(os.environ["SCENT_DAYBENCH_RESULT"])
assert result["correct"] is True, f"traced resume_join: correct={result['correct']}"
assert result["failed"] == 0, f"traced resume_join: {result['failed']} failed"
m = {name: metric["value"] for name, metric in result["metrics"].items()}
assert m["rows_per_iter"] == 524288, f"traced resume_join: rows_per_iter={m['rows_per_iter']}, want 524288"
for name in ("join_anchored_pct", "join_blocks_pruned_pct"):
    assert m[name] > 0, f"traced resume_join: {name}={m[name]}, want > 0"
print("  resume_join ledger: " + ", ".join(f"{name}={m[name]:g}" for name in m))
PYEOF
}

# Starts one paper bench in the background in its own working directory
# <dir>, at --threads=<threads>, at most nproc at once; with a fourth
# argument, <dir>/.scent_chain links to that paper chain. Leaves
# "<exit status> <wall ms>" in <dir>/result.
paper_run() {
  local dir=$1 name=$2 threads=$3 chain=${4:-}
  while [[ $(jobs -rp | wc -l) -ge $jobs ]]; do wait -n || true; done
  (
    mkdir -p "$dir"
    cd "$dir"
    if [[ -n "$chain" ]]; then ln -s "$chain" .scent_chain; fi
    start=$(date +%s%N)
    status=0
    "$repo_root/build/bench/$name" --threads="$threads" \
      > out.txt 2> err.txt || status=$?
    echo "$status $(( ($(date +%s%N) - start) / 1000000 ))" > result
  ) &
}

leg_paper() {
  echo "== paper benches: every figure and table reproduces its shape, identically at 1 and nproc threads =="
  local dir=$check_tmp/paper
  local producer=bench_fig12_provider_switch
  local readers=(bench_table1_rotators bench_table2_fig13_tracking
                 bench_fig5_alloc_cdf bench_fig7_pool_vs_bgp
                 bench_fig8_prefixes_per_iid bench_fig11_mac_reuse)
  local paper_benches=() plain=() src name t status ms line failed=0
  for src in bench/bench_{fig,table,ablation,extension}*.cpp; do
    name=$(basename "$src" .cpp)
    paper_benches+=("$name")
    if [[ "$name" != "$producer" && " ${readers[*]} " != *" $name "* ]]; then
      plain+=("$name")
    fi
  done
  if [[ ${#paper_benches[@]} -ne 16 || ${#plain[@]} -ne 9 ]]; then
    echo "expected 16 paper benches (9 without a funnel), found" \
      "${#paper_benches[@]} (${#plain[@]})" >&2
    exit 1
  fi
  local paper_threads=(1 "$jobs")
  # Phase 1: one chain producer per thread count, with the nine benches
  # that need no chain alongside.
  for t in "${paper_threads[@]}"; do
    paper_run "$dir/t$t/$producer" "$producer" "$t"
  done
  for t in "${paper_threads[@]}"; do
    for name in "${plain[@]}"; do paper_run "$dir/t$t/$name" "$name" "$t"; done
  done
  wait
  # Phase 2: every other funnel bench, and a pure replay of the producer,
  # reads its thread count's chain.
  for t in "${paper_threads[@]}"; do
    ls -l --full-time "$dir/t$t/$producer/.scent_chain/" \
      > "$dir/t$t/chain_before.txt" 2>&1 || true
    for name in "${readers[@]}"; do
      paper_run "$dir/t$t/$name" "$name" "$t" "$dir/t$t/$producer/.scent_chain"
    done
    paper_run "$dir/t$t/replay" "$producer" "$t" \
      "$dir/t$t/$producer/.scent_chain"
  done
  wait
  for name in "${paper_benches[@]}" replay; do
    line=$(printf '  %-32s' "$name")
    for t in "${paper_threads[@]}"; do
      read -r status ms < "$dir/t$t/$name/result"
      line+=$(printf '  t=%-2s %4d.%d s exit %s' "$t" $((ms / 1000)) \
        $((ms % 1000 / 100)) "$status")
      if [[ "$status" -ne 0 ]]; then
        failed=1
        tail -n 20 "$dir/t$t/$name/out.txt" "$dir/t$t/$name/err.txt" >&2
      fi
    done
    echo "$line"
  done
  for name in "${paper_benches[@]}"; do
    if ! cmp -s "$dir/t1/$name/out.txt" "$dir/t$jobs/$name/out.txt"; then
      failed=1
      echo "$name: stdout differs between --threads=1 and --threads=$jobs" >&2
      diff "$dir/t1/$name/out.txt" "$dir/t$jobs/$name/out.txt" >&2 || true
    fi
  done
  for t in "${paper_threads[@]}"; do
    if ! cmp -s "$dir/t$t/$producer/out.txt" "$dir/t$t/replay/out.txt"; then
      failed=1
      echo "$producer at --threads=$t: replay stdout differs from the" \
        "run that built the chain" >&2
      diff "$dir/t$t/$producer/out.txt" "$dir/t$t/replay/out.txt" >&2 || true
    fi
    if ! ls -l --full-time "$dir/t$t/$producer/.scent_chain/" 2>&1 |
        cmp -s - "$dir/t$t/chain_before.txt"; then
      failed=1
      echo "a reader wrote the --threads=$t paper chain" >&2
    fi
  done
  echo "  paper chain: $(du -sh "$dir/t1/$producer/.scent_chain" | cut -f1)" \
    "per thread count"
  if [[ "$failed" -ne 0 ]]; then
    echo "a paper bench failed its shape check, differs across thread" \
      "counts or between building and replaying the chain, or a reader" \
      "wrote the chain" >&2
    exit 1
  fi
}

leg_asan() {
  echo "== sanitizer: ASan+UBSan build + ctest (build-sanitize/) =="
  cmake -B build-sanitize -S . -DSCENT_SANITIZE=address,undefined >/dev/null
  cmake --build build-sanitize -j"$jobs"
  (cd build-sanitize && ctest --output-on-failure -j"$jobs")
}

leg_tsan() {
  echo "== sanitizer: TSan build + engine/serve/join/snapshot tests (build-tsan/) =="
  # Every Snapshot* suite rides along: the decode workers read blocks the
  # block-file envelope handed them and write disjoint slices of one
  # store's columns.
  cmake -B build-tsan -S . -DSCENT_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j"$jobs" --target engine_tests \
    --target serve_tests --target join_tests --target lattice_tests \
    --target corpus_tests
  (cd build-tsan && ctest --output-on-failure \
    -R '^(Engine|Serve|Join|Snapshot)' -j"$jobs")
}

legs=(tier1 bench_guards bench_trend trace resume midday serve join daybench
      paper asan tsan)
if [[ "${1:-}" == "--fast" ]]; then legs=(tier1); fi

results=()
any_failed=0
for leg in "${legs[@]}"; do
  start=$(date +%s%N)
  ( set -e; "leg_$leg" )
  status=$?
  ms=$(( ($(date +%s%N) - start) / 1000000 ))
  verdict=pass
  if [[ "$status" -ne 0 ]]; then verdict="FAIL (exit $status)"; any_failed=1; fi
  results+=("$(printf '  %-14s %-16s %6d.%d s' "$leg" "$verdict" \
    $((ms / 1000)) $((ms % 1000 / 100)))")
done

echo "== summary =="
printf '%s\n' "${results[@]}"
if [[ "$any_failed" -ne 0 ]]; then
  echo "== some legs failed ==" >&2
  exit 1
fi
echo "== all checks passed =="
