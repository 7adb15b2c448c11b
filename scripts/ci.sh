#!/usr/bin/env sh
# CI entry point: build everything, run the test suites, then smoke the
# experiment harness end to end on a two-kernel subset of the grid.
set -eu

cd "$(dirname "$0")/.."

echo "== build (workspace, all targets) =="
cargo build --release --workspace --all-targets

echo "== lint (clippy, warnings are errors) =="
cargo clippy -q --all-targets -- -D warnings

echo "== docs (rustdoc, warnings are errors) =="
# A removed or private item must not leave a dangling doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "== tests (workspace) =="
cargo test --workspace -q

echo "== tests (paper shape relations, full grid) =="
# The paper's qualitative relations over the full grid are #[ignore]d
# in the default run; gate them here so a golden refresh cannot break
# them silently.
cargo test --release --test paper_shape -- --ignored

echo "== tests (benchmark self-tests) =="
# perfbench/ is a Cargo workspace of its own, so the workspace run
# above does not reach its self-tests.
cargo test --release --manifest-path perfbench/Cargo.toml

echo "== smoke: all_experiments on 2 kernels, cold vs warm cache =="
SMOKE_CACHE="$(mktemp -d)"
trap 'rm -rf "$SMOKE_CACHE"' EXIT
run_smoke() {
    BSCHED_JOBS="$1" BSCHED_CACHE_DIR="$SMOKE_CACHE" \
        ./target/release/all_experiments --kernels ARC2D,TRFD
}
cold="$(run_smoke 2)"
warm="$(run_smoke 1)"
[ "$cold" = "$warm" ] || { echo "FAIL: cold/warm or 2-vs-1-worker output differs"; exit 1; }
# Header + 2 kernels x 15 configurations.
lines="$(printf '%s\n' "$cold" | wc -l)"
[ "$lines" -eq 31 ] || { echo "FAIL: expected 31 output lines, got $lines"; exit 1; }

echo "== gate: one source reference run per kernel, uncached =="
# Each kernel's reference checksum (verify + interpret the unoptimized
# source) is computed once per process and shared by all its cells. A
# cold traced run over 2 kernels x 15 configurations must record
# exactly 2 pipeline.reference spans: a deterministic count, so a slide
# back to per-cell interpretation fails on any host. Tracing must not
# change stdout.
REF_TRACE="$SMOKE_CACHE/reference.trace.json"
refrun="$(BSCHED_NO_CACHE=1 ./target/release/all_experiments --kernels ARC2D,TRFD \
    --trace-json "$REF_TRACE" 2>"$SMOKE_CACHE/reference.err")" \
    || { cat "$SMOKE_CACHE/reference.err"; echo "FAIL: traced cold run"; exit 1; }
[ "$refrun" = "$cold" ] || { echo "FAIL: traced cold run changed stdout"; exit 1; }
refs="$(grep -o '"cat":"pipeline","dur_ns":[0-9]*,"kind":"span","label":"[^"]*","name":"reference"' \
    "$REF_TRACE" | wc -l)"
[ "$refs" -eq 2 ] \
    || { echo "FAIL: expected 2 pipeline.reference spans (one per kernel), got $refs"; exit 1; }

echo "== gate: one compile per kernel x options across machines, uncached =="
# Compilation reads no machine, so the engine compiles the cells of a
# batch that differ only in the simulated machine once and simulates
# each on its own machine. ARC2D and TRFD x {TS, BS, EX}@LU4 x the 6
# registry machines must record exactly 6 pipeline.compile spans for 36
# harness.cell spans, and every cell must equal its own Session::run: a
# deterministic count, so a slide back to per-cell compiles fails on
# any host.
cargo test -q --release -p bsched-harness --test compile_sharing \
    zoo_cells_compile_once_per_kernel_and_arm

echo "== verify gate: conformance suite on 2 kernels + fuzz smoke =="
# Re-runs the same subset under --verify: every cell's schedule is
# proven legal, weights cross-checked against the reference
# implementation, the compiled code replayed through the interpreter,
# and the simulator metrics checked against the metamorphic
# invariants. The cold smoke above cached the cells *unverified*, so
# this also exercises the recompute-on-unverified path. Then a
# 2,000-iteration seeded fuzz campaign (time-budgeted so slow machines
# stop early rather than time out) drives random kernels through the
# full pipeline. Any violation or fuzz failure exits nonzero; the
# verified output must be byte-identical to the unverified run.
VERIFY_ERR="$SMOKE_CACHE/verify.err"
verified="$(BSCHED_CACHE_DIR="$SMOKE_CACHE" \
    ./target/release/all_experiments --verify --kernels ARC2D,TRFD \
        --fuzz 2000 --fuzz-seconds 120 2>"$VERIFY_ERR")" \
    || { cat "$VERIFY_ERR"; echo "FAIL: verify gate"; exit 1; }
[ "$verified" = "$cold" ] || { echo "FAIL: --verify changed stdout"; exit 1; }
grep "verification:" "$VERIFY_ERR" || { echo "FAIL: no verification report"; exit 1; }
grep -q "verification: .* 0 violations" "$VERIFY_ERR" \
    || { cat "$VERIFY_ERR"; echo "FAIL: violations found"; exit 1; }

echo "== smoke: dual-engine verified run (interpret vs block), uncached =="
# The engine knob end to end: the same verified 2-kernel subset under
# each simulation engine with the cache disabled, so both engines
# genuinely execute every cell. Stdout must be byte-identical to the
# cached default-engine run above, zero violations, and the stderr run
# report must name the engine that ran.
for eng in interpret block; do
    ENG_ERR="$SMOKE_CACHE/engine.$eng.err"
    engined="$(BSCHED_NO_CACHE=1 BSCHED_SIM_ENGINE="$eng" \
        ./target/release/all_experiments --verify --kernels ARC2D,TRFD 2>"$ENG_ERR")" \
        || { cat "$ENG_ERR"; echo "FAIL: $eng engine run"; exit 1; }
    [ "$engined" = "$cold" ] \
        || { echo "FAIL: $eng engine changed stdout"; exit 1; }
    grep -q "verification: .* 0 violations" "$ENG_ERR" \
        || { cat "$ENG_ERR"; echo "FAIL: $eng engine violations"; exit 1; }
    grep -q "engine: $eng" "$ENG_ERR" \
        || { cat "$ENG_ERR"; echo "FAIL: run report must name engine $eng"; exit 1; }
done

echo "== smoke: sampled mode (estimates, cache separation, exact bytes) =="
# SimPoint-style sampling end to end on the warm 2-kernel cache. The
# sampled verified run must pass its conformance gate (instruction
# counts and checksum exact by construction, estimates within the
# committed tolerances vs a fresh exact run) while *executing* every
# cell: the mode axis is cache-key-blind but not metrics-invariant, so
# sampled results must never be answered from — or written into — the
# exact-result cache. Afterwards the exact grid must still be answered
# fully from the warm cache with byte-identical stdout, and disabling
# sampling via the environment must be a no-op.
SAMPLE_ERR="$SMOKE_CACHE/sample.err"
sampled="$(BSCHED_CACHE_DIR="$SMOKE_CACHE" \
    ./target/release/all_experiments --sample --verify --kernels ARC2D,TRFD 2>"$SAMPLE_ERR")" \
    || { cat "$SAMPLE_ERR"; echo "FAIL: sampled verified run"; exit 1; }
grep -q "verification: .* 0 violations" "$SAMPLE_ERR" \
    || { cat "$SAMPLE_ERR"; echo "FAIL: sampled verification"; exit 1; }
grep -q "mode: sampled(" "$SAMPLE_ERR" \
    || { cat "$SAMPLE_ERR"; echo "FAIL: run report must name the sampled mode"; exit 1; }
grep -q "sampling: .* insts cycle-simulated" "$SAMPLE_ERR" \
    || { cat "$SAMPLE_ERR"; echo "FAIL: no sampling report section"; exit 1; }
grep -q "0 memory hits, 0 disk hits, 30 executed from 30 compiles (0% cache hits)" "$SAMPLE_ERR" \
    || { cat "$SAMPLE_ERR"; echo "FAIL: sampled run must not hit the exact cache"; exit 1; }
[ "$sampled" != "$cold" ] \
    || { echo "FAIL: sampled table should be an estimate, not a cache readback"; exit 1; }
after="$(BSCHED_CACHE_DIR="$SMOKE_CACHE" \
    ./target/release/all_experiments --kernels ARC2D,TRFD 2>"$SMOKE_CACHE/after.err")"
[ "$after" = "$cold" ] || { echo "FAIL: sampled run altered cached exact results"; exit 1; }
grep -q " 0 executed (100% cache hits)" "$SMOKE_CACHE/after.err" \
    || { cat "$SMOKE_CACHE/after.err"; \
         echo "FAIL: exact cache no longer warm after the sampled run"; exit 1; }
disabled="$(BSCHED_SAMPLE=0 BSCHED_CACHE_DIR="$SMOKE_CACHE" \
    ./target/release/all_experiments --kernels ARC2D,TRFD)"
[ "$disabled" = "$cold" ] \
    || { echo "FAIL: BSCHED_SAMPLE=0 must leave exact stdout byte-identical"; exit 1; }

echo "== smoke: exact scheduler arm vs recorded BENCH_pr9.json baseline =="
# The optimality table on 2 kernels at the default node budget. The
# binary itself is the gate: every audited region is legality-checked,
# and each arm's cost is asserted >= the exact bound before a row
# prints. --check then compares the search against the committed
# baseline — the proven fraction must not fall below 90% of the
# recorded value and the expanded node count must not grow by more
# than 1/0.9 (search-quality regressions, not wall time, so the check
# is machine-independent). The full 17-kernel table is recorded in the
# committed BENCH_pr9.json and results/optimality.csv.
./target/release/optimality --kernels TRFD,ARC2D \
    --check "$PWD/BENCH_pr9.json" --check-ratio 0.9 >/dev/null \
    || { echo "FAIL: exact-arm optimality check"; exit 1; }

echo "== smoke: machine zoo (2 kernels x 3 machines, verified, dual-engine) =="
# The machine-description axis end to end: the balanced-vs-traditional
# gap table on a 2-kernel subset across three machines (the default
# alpha21164, the 4-wide superscalar, and the blocking-cache control
# that inverts the paper's result), every cell verified, under each
# simulation engine with the cache disabled so both engines genuinely
# execute every cell. Machine descriptions are engine-invariant, so
# stdout must be byte-identical across engines, with zero violations.
MACH_OUT=""
for eng in interpret block; do
    MACH_ERR="$SMOKE_CACHE/machines.$eng.err"
    mach="$(BSCHED_NO_CACHE=1 BSCHED_SIM_ENGINE="$eng" \
        ./target/release/machines --verify --kernels ARC2D,TRFD \
            --machines alpha21164,wide4,blocking21164 2>"$MACH_ERR")" \
        || { cat "$MACH_ERR"; echo "FAIL: machines $eng run"; exit 1; }
    grep -q "verification: .* 0 violations" "$MACH_ERR" \
        || { cat "$MACH_ERR"; echo "FAIL: machines $eng violations"; exit 1; }
    grep -q "engine: $eng" "$MACH_ERR" \
        || { cat "$MACH_ERR"; echo "FAIL: machines report must name engine $eng"; exit 1; }
    if [ -z "$MACH_OUT" ]; then
        MACH_OUT="$mach"
    else
        [ "$mach" = "$MACH_OUT" ] \
            || { echo "FAIL: machine zoo differs between engines"; exit 1; }
    fi
done

echo "== gate: machine zoo vs recorded BENCH_pr10.json baseline =="
# The full-zoo gap table against the committed baseline. Cycle counts
# are deterministic (never wall clock), so the gate is exact equality —
# any drift in any machine's total is a modeling regression, not noise.
./target/release/machines --check "$PWD/BENCH_pr10.json" >/dev/null \
    || { echo "FAIL: machines baseline check"; exit 1; }

echo "== smoke: sampling microbench vs recorded BENCH_pr8.json baseline =="
# Re-measures the per-kernel exact-vs-sampled cells (accuracy bounds
# asserted inside the bench) and fails if any case's speedup ratio fell
# below half the committed baseline. The full-grid headline case needs
# --grid and is recorded in the committed BENCH_pr8.json.
cargo bench -q -p bsched-bench --bench sampling -- \
    --check "$PWD/BENCH_pr8.json" --check-ratio 0.5

echo "== gate: block-engine work counts (exact) =="
# The block engine's work on every lowered suite kernel — skeletons
# built, blocks visited, I-cache probes issued, operand scans run —
# counted from its block cache at exit and compared by exact equality
# with a recorded table. It catches the engine sliding back toward
# per-instruction work (rebuilding skeletons on re-entry, fetching on
# every instruction, scanning proven-ready operands) on any host; the
# interp:block wall-clock ratios stay printed by the simulator bench
# (`cargo bench -p bsched-bench --bench simulator`), ungated.
cargo test -q --release -p bsched-sim --lib work_counts_match_the_recorded_table

echo "== smoke: weights microbench vs recorded BENCH_pr2.json baseline =="
# Re-measures the naive-reference vs bitset-kernel arms, writes a fresh
# BENCH_pr2.json next to the cache dir, and fails if any case's speedup
# ratio fell more than 10% below the committed baseline (ratios, not
# wall times, so the check is machine-independent).
BENCH_SAMPLES=31 cargo bench -q -p bsched-bench --bench weights -- \
    --json "$SMOKE_CACHE/BENCH_pr2.json" --check "$PWD/BENCH_pr2.json"

echo "== gate: the weight kernel carries no trace points =="
# Structural replacement for a wall-clock tracing-overhead ratio: with
# the recorder on, compute_weights over every suite kernel's scheduled
# regions must record zero events, so the kernel pays nothing for
# tracing in either state. Deterministic on any host.
cargo test -q --release -p bsched-pipeline --test weights_untraced

echo "== smoke: traced run report + exports =="
# One traced warm-cache run: the trace flags must not change stdout
# (cache keys are tracing-blind) and both sinks must be written.
traced="$(BSCHED_CACHE_DIR="$SMOKE_CACHE" \
    ./target/release/all_experiments --kernels ARC2D,TRFD \
        --trace-summary --trace-json "$SMOKE_CACHE/trace.json" \
        --trace-chrome "$SMOKE_CACHE/trace.chrome.json" 2>"$SMOKE_CACHE/trace.err")" \
    || { cat "$SMOKE_CACHE/trace.err"; echo "FAIL: traced run"; exit 1; }
[ "$traced" = "$cold" ] || { echo "FAIL: tracing flags changed stdout"; exit 1; }
grep -q "bsched-trace summary" "$SMOKE_CACHE/trace.err" \
    || { cat "$SMOKE_CACHE/trace.err"; echo "FAIL: no trace summary"; exit 1; }
[ -s "$SMOKE_CACHE/trace.json" ] || { echo "FAIL: no trace.json"; exit 1; }
[ -s "$SMOKE_CACHE/trace.chrome.json" ] || { echo "FAIL: no chrome trace"; exit 1; }

echo "== smoke: bsched-serve over a unix socket =="
# A resident server on a cold cache. Three concurrent clients submit the
# identical 2-kernel grid: in-flight dedup plus the shared sharded store
# must compute each of the 30 cells exactly once. Then a verified grid
# through the server must be byte-identical to the direct
# all_experiments output, and a wire-level shutdown must drain
# gracefully (exit 0).
SERVE_SOCK="$SMOKE_CACHE/serve.sock"
SERVE_CACHE="$SMOKE_CACHE/serve-cache"
BSCHED_CACHE_DIR="$SERVE_CACHE" ./target/release/bsched-serve \
    --unix "$SERVE_SOCK" --jobs 2 2>"$SMOKE_CACHE/serve.err" &
SERVE_PID=$!
tries=0
while [ ! -S "$SERVE_SOCK" ] && [ "$tries" -lt 100 ]; do
    sleep 0.1; tries=$((tries + 1))
done
[ -S "$SERVE_SOCK" ] || { cat "$SMOKE_CACHE/serve.err"; echo "FAIL: server did not come up"; exit 1; }
./target/release/bsched-client --connect "unix:$SERVE_SOCK" ping \
    || { echo "FAIL: serve ping"; exit 1; }
for n in 1 2 3; do
    ./target/release/bsched-client --connect "unix:$SERVE_SOCK" \
        grid --kernels ARC2D,TRFD >"$SMOKE_CACHE/served.$n" 2>/dev/null &
    eval "CLIENT_$n=\$!"
done
wait "$CLIENT_1" "$CLIENT_2" "$CLIENT_3" \
    || { echo "FAIL: concurrent serve clients"; exit 1; }
for n in 1 2 3; do
    [ "$(cat "$SMOKE_CACHE/served.$n")" = "$cold" ] \
        || { echo "FAIL: served grid $n differs from direct output"; exit 1; }
done
./target/release/bsched-client --connect "unix:$SERVE_SOCK" stats \
    >"$SMOKE_CACHE/serve.stats" 2>/dev/null
grep -q "engine executed  30$" "$SMOKE_CACHE/serve.stats" \
    || { cat "$SMOKE_CACHE/serve.stats"; \
         echo "FAIL: 3 clients x 30 cells must execute exactly 30"; exit 1; }
served_verified="$(./target/release/bsched-client --connect "unix:$SERVE_SOCK" \
    grid --kernels ARC2D,TRFD --verify 2>/dev/null)" \
    || { echo "FAIL: verified served grid"; exit 1; }
[ "$served_verified" = "$cold" ] \
    || { echo "FAIL: verified served grid differs from direct output"; exit 1; }
./target/release/bsched-client --connect "unix:$SERVE_SOCK" shutdown 2>/dev/null \
    || { echo "FAIL: serve shutdown request"; exit 1; }
wait "$SERVE_PID" || { cat "$SMOKE_CACHE/serve.err"; echo "FAIL: server exit status"; exit 1; }
grep -q "shutdown complete" "$SMOKE_CACHE/serve.err" \
    || { cat "$SMOKE_CACHE/serve.err"; echo "FAIL: no graceful drain"; exit 1; }

echo "== gate: committed results and kernels untouched =="
# No step above may rewrite a committed table or kernel definition
# (kernels/*.bsk is the suite's only source). Skipped outside a git
# checkout, e.g. in an exported source tree.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    git diff --exit-code -- results/ kernels/ \
        || { echo "FAIL: a CI step changed committed results/ or kernels/"; exit 1; }
fi

echo "CI OK"
