#!/usr/bin/env bash
#===- tools/ci.sh - Build-and-test pipeline ---------------------------------===#
#
# Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
#
# Jobs:
#   default    RelWithDebInfo build + full ctest suite
#   tsan       ThreadSanitizer build + the concurrency-sensitive tests
#              (parallel abstraction, incremental rounds at -j 4, Table 2
#              at -j 4, prover, expression interning, parallel
#              loop/support, concurrent span tracing)
#   asan       AddressSanitizer + UBSan build + full ctest suite
#   release    Release (-DNDEBUG) build + full ctest suite (no check
#              may live only in assert())
#   observability  slam with --trace-out/--stats-json on the example
#              programs; validates both emitted JSON documents
#   incremental  the Incremental ctest cases (memo on vs off: the examples'
#              answers and final predicates, every round of a generated
#              driver against a memo-less abstraction, and every round's
#              checker over one Bebop session against a fresh checker);
#              then slam --stats-json asserts that the cross-iteration
#              memo reuses procedures on locking.c and dispatch.c, that
#              the session reuses Bebop relations on both, and that it
#              resumes the last round's run on dispatch.c
#   determinism  c2bp and slam on the examples (the floppy driver model's
#              BUG FOUND among them), three times at -j 1
#              (ASLR on) and five times each at -j 2/4, and bebop on a
#              multi-procedure example and on Table 2's reverse three
#              times (it has no -j);
#              asserts identical stdout, exit status and work counters
#              (c2bp.cubes_checked, c2bp.witness_hits,
#              c2bp.procs_reused, c2bp.procs_rebuilt, prover.calls,
#              slam.iterations,
#              bebop.steps, bebop.pe_updates, bebop.summary_updates,
#              bebop.relations_reused, bebop.steps_resumed)
#              and the gauge bebop.bdd_nodes
#   debug      Debug build (assertions on; every other job defines
#              NDEBUG) + full ctest suite; then the determinism cases
#              once in the Debug and the default build, asserting
#              identical stdout and exit status
#   bench      perfbench --smoke: builds the benchmark harness (the only
#              source of Tables 1 and 2) and checks its known answers
#   all        every job above, in order
#
# Usage: tools/ci.sh [default|tsan|asan|release|observability|incremental|determinism|debug|bench|all]
#
#===----------------------------------------------------------------------===#

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOB="${1:-default}"

run_default() {
  echo "=== ci: default build + full test suite ==="
  cmake -B "$ROOT/build" -S "$ROOT" -DSLAM_SANITIZE=
  cmake --build "$ROOT/build" -j
  ctest --test-dir "$ROOT/build" --output-on-failure -j
}

run_tsan() {
  echo "=== ci: ThreadSanitizer build + parallel tests ==="
  cmake -B "$ROOT/build-tsan" -S "$ROOT" -DSLAM_SANITIZE=thread
  cmake --build "$ROOT/build-tsan" -j
  # The parallel abstraction tests drive the parallel loop, the shared
  # prover cache, and the merged statistics; the incremental tests run
  # CEGAR rounds at -j 4 around the abstraction memo, which no worker
  # may touch; the Table 2 golden test abstracts five programs at -j 4,
  # racing the expression interning table's lock-free hits against its
  # growth; the prover, theory-solver, expression and support suites
  # cover the pieces in isolation.
  ctest --test-dir "$ROOT/build-tsan" --output-on-failure \
    -R 'ParallelAbstraction|Incremental|ParallelFor|Stats|Prover|Theory|CCTest|Simplex|Trace|Histogram|Observability|ExprTest|Table2'
}

run_asan() {
  echo "=== ci: AddressSanitizer + UBSan build + full test suite ==="
  cmake -B "$ROOT/build-asan" -S "$ROOT" -DSLAM_SANITIZE=address
  cmake --build "$ROOT/build-asan" -j
  ctest --test-dir "$ROOT/build-asan" --output-on-failure -j
}

run_release() {
  echo "=== ci: Release (-DNDEBUG) build + full test suite ==="
  cmake -B "$ROOT/build-release" -S "$ROOT" -DSLAM_SANITIZE= \
    -DCMAKE_BUILD_TYPE=Release
  cmake --build "$ROOT/build-release" -j
  ctest --test-dir "$ROOT/build-release" --output-on-failure -j
}

run_observability() {
  echo "=== ci: observability: tracing + stats on the examples ==="
  cmake -B "$ROOT/build" -S "$ROOT" -DSLAM_SANITIZE=
  cmake --build "$ROOT/build" -j --target slam
  local TMP
  TMP="$(mktemp -d)"
  trap 'rm -rf "$TMP"' RETURN
  # Each run must produce a parseable Chrome trace and stats export;
  # -j 2 exercises worker-thread span emission on the locking example.
  "$ROOT/build/tools/slam" "$ROOT/examples/programs/locking.c" \
    --lock AcquireLock,ReleaseLock -j 2 --report \
    --trace-out "$TMP/locking.trace.json" \
    --stats-json "$TMP/locking.stats.json"
  "$ROOT/build/tools/slam" "$ROOT/examples/programs/irp.c" \
    --irp CompleteRequest,MarkPending --report \
    --trace-out "$TMP/irp.trace.json" \
    --stats-json "$TMP/irp.stats.json"
  for F in "$TMP"/*.json; do
    python3 -m json.tool "$F" > /dev/null
    echo "ci: valid JSON: $(basename "$F")"
  done
}

run_incremental() {
  echo "=== ci: incremental: the memo changes no answer and reuses procedures ==="
  cmake -B "$ROOT/build" -S "$ROOT" -DSLAM_SANITIZE=
  cmake --build "$ROOT/build" -j --target slam slam_tests
  # The memo may only save work: with it on or off, the answers, the
  # final predicates and each round's boolean program must be equal,
  # and so must each round's answers with and without a Bebop session.
  ctest --test-dir "$ROOT/build" --output-on-failure -R Incremental
  local TMP EX="$ROOT/examples/programs" BIN="$ROOT/build/tools"
  TMP="$(mktemp -d)"
  trap 'rm -rf "$TMP"' RETURN
  # Later rounds refine one procedure and reuse the others whole; irp.c
  # and locking_bug.c end in round 1, so they have nothing to reuse. The
  # reused procedures' Bebop relations are reused too, on locking.c
  # across a frame that grows, and on dispatch.c each round resumes the
  # last one's run up to the first call of the rebuilt procedure.
  "$BIN/slam" "$EX/locking.c" --lock AcquireLock,ReleaseLock \
    --stats-json "$TMP/locking.json" > /dev/null
  "$BIN/slam" "$EX/dispatch.c" --lock AcquireLock,ReleaseLock \
    --stats-json "$TMP/dispatch.json" > /dev/null
  python3 - "$TMP/locking.json" "$TMP/dispatch.json" <<'PY'
import json, sys
for path in sys.argv[1:]:
    counters = json.load(open(path))["counters"]
    reused = counters.get("c2bp.procs_reused", 0)
    assert reused > 0, f"{path}: the memo reused no procedure"
    print(f"ci: {path.split('/')[-1]}: c2bp.procs_reused={reused}")
    rels = counters.get("bebop.relations_reused", 0)
    assert rels > 0, f"{path}: the Bebop session reused no relation"
    print(f"ci: {path.split('/')[-1]}: bebop.relations_reused={rels}")
    if path.endswith("dispatch.json"):
        resumed = counters.get("bebop.steps_resumed", 0)
        assert resumed > 0, f"{path}: no round resumed the last run"
        print(f"ci: dispatch.json: bebop.steps_resumed={resumed}")
PY
}

# The example cases of the determinism and debug jobs: calls $1 with a
# case name, a tool name and the tool's arguments, once per case.
for_each_example_case() {
  local EX="$ROOT/examples/programs"
  "$1" c2bp-partition c2bp "$EX/partition.c" "$EX/partition.preds"
  "$1" c2bp-qsort c2bp "$EX/qsort.c" "$EX/qsort.preds" -k 3
  "$1" slam-locking slam "$EX/locking.c" --lock AcquireLock,ReleaseLock
  "$1" slam-locking_bug slam "$EX/locking_bug.c" \
    --lock AcquireLock,ReleaseLock
  "$1" slam-irp slam "$EX/irp.c" --irp CompleteRequest,MarkPending
  "$1" slam-dispatch slam "$EX/dispatch.c" --lock AcquireLock,ReleaseLock
  "$1" slam-void_callee slam "$EX/void_callee.c"
  "$1" slam-floppy slam "$EX/floppy.c" --lock AcquireLock,ReleaseLock
  "$1" bebop-frames bebop "$EX/frames.bp" --trace
  "$1" bebop-reverse bebop \
    "$ROOT/tests/integration/table2_golden/reverse.k3.bp" --entry mark --trace
}

run_determinism() {
  echo "=== ci: determinism: identical output and counters at -j 1 (x3)/2 (x5)/4 (x5) ==="
  cmake -B "$ROOT/build" -S "$ROOT" -DSLAM_SANITIZE=
  cmake --build "$ROOT/build" -j --target slam c2bp bebop
  local TMP BIN="$ROOT/build/tools"
  TMP="$(mktemp -d)"
  trap 'rm -rf "$TMP"' RETURN
  # Repeated -j 1 runs only catch address-dependent output if each run
  # gets fresh addresses.
  if [ "$(cat /proc/sys/kernel/randomize_va_space 2>/dev/null)" = 0 ]; then
    echo "ci: determinism needs ASLR (kernel.randomize_va_space is 0)" >&2
    return 1
  fi
  # Runs one case (a name, a tool, its arguments) three times at -j 1 and
  # five times each at -j 2 and -j 4, since the workers claim tasks in
  # a different interleaving on every run. Every run's stdout and exit
  # status must equal the first run's, and so must its work counters:
  # the output is a pure function of the input, whatever the addresses
  # or -j, and every -j takes the same abstraction path through the
  # same one prover cache. bebop has no -j: its case runs three times,
  # and must do Bebop work where the others must call the prover.
  check_case() {
    local NAME="$1" TOOL="$2" RUN RC J=-j
    local RUNS="1a 1b 1c 2a 2b 2c 2d 2e 4a 4b 4c 4d 4e"
    shift 2
    [ "$TOOL" = bebop ] && RUNS="1a 1b 1c" J=
    for RUN in $RUNS; do
      RC=0
      "$BIN/$TOOL" "$@" ${J:+-j "${RUN:0:1}"} \
        --stats-json "$TMP/$NAME.j$RUN.json" > "$TMP/$NAME.j$RUN.out" || RC=$?
      echo "exit status $RC" >> "$TMP/$NAME.j$RUN.out"
      cmp "$TMP/$NAME.j1a.out" "$TMP/$NAME.j$RUN.out"
    done
    python3 - "$NAME" "$TOOL" "$TMP/$NAME".j*.json <<'PY'
import json, sys
name, tool, paths = sys.argv[1], sys.argv[2], sys.argv[3:]
keys = ("c2bp.cubes_checked", "c2bp.witness_hits", "c2bp.procs_reused",
        "c2bp.procs_rebuilt", "prover.calls", "slam.iterations", "bebop.steps", "bebop.pe_updates",
        "bebop.summary_updates", "bebop.relations_reused", "bebop.steps_resumed",
        "bebop.bdd_nodes")
# Counters and gauges (bebop.bdd_nodes is a gauge) in one map.
runs = [{**doc["counters"], **doc["gauges"]}
        for doc in (json.load(open(p)) for p in paths)]
for k in keys:
    vals = [r.get(k, 0) for r in runs]
    assert len(set(vals)) == 1, f"{name}: {k} differs across runs: {vals}"
work = "bebop.steps" if tool == "bebop" else "prover.calls"
assert runs[0].get(work, 0) > 0, f"{name}: no {work}?"
print(f"ci: {name}: identical stdout and counters over {len(runs)} runs (" +
      ", ".join(f"{k}={runs[0].get(k, 0)}" for k in keys) + ")")
PY
  }
  for_each_example_case check_case
}

run_debug() {
  echo "=== ci: Debug build (assertions on) + full test suite; output equals the default build's ==="
  cmake -B "$ROOT/build" -S "$ROOT" -DSLAM_SANITIZE=
  cmake --build "$ROOT/build" -j --target slam c2bp bebop
  cmake -B "$ROOT/build-debug" -S "$ROOT" -DSLAM_SANITIZE= \
    -DCMAKE_BUILD_TYPE=Debug
  cmake --build "$ROOT/build-debug" -j
  ctest --test-dir "$ROOT/build-debug" --output-on-failure -j
  local TMP
  TMP="$(mktemp -d)"
  trap 'rm -rf "$TMP"' RETURN
  # An assert() may only check, never steer: each case's stdout and
  # exit status in the Debug build must equal those of the default
  # (-DNDEBUG) build.
  debug_case() {
    local NAME="$1" TOOL="$2" B RC
    shift 2
    for B in build build-debug; do
      RC=0
      "$ROOT/$B/tools/$TOOL" "$@" > "$TMP/$NAME.$B.out" || RC=$?
      echo "exit status $RC" >> "$TMP/$NAME.$B.out"
    done
    cmp "$TMP/$NAME.build.out" "$TMP/$NAME.build-debug.out"
    echo "ci: $NAME: identical stdout and exit status in the Debug and default builds"
  }
  for_each_example_case debug_case
}

run_bench() {
  echo "=== ci: perfbench smoke run (Tables 1 and 2, known answers) ==="
  python3 "$ROOT/perfbench/run.py" --smoke
}

case "$JOB" in
  default) run_default ;;
  tsan)    run_tsan ;;
  asan)    run_asan ;;
  release) run_release ;;
  observability) run_observability ;;
  incremental) run_incremental ;;
  determinism) run_determinism ;;
  debug)   run_debug ;;
  bench)   run_bench ;;
  all)     run_default; run_tsan; run_asan; run_release; run_observability; run_incremental; run_determinism; run_debug; run_bench ;;
  *) echo "ci.sh: unknown job '$JOB' (default|tsan|asan|release|observability|incremental|determinism|debug|bench|all)" >&2; exit 2 ;;
esac
echo "=== ci: $JOB passed ==="
