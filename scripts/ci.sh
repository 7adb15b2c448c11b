#!/usr/bin/env sh
# CI entry point: build everything, run the test suites, then smoke the
# experiment harness end to end on a two-kernel subset of the grid.
set -eu

cd "$(dirname "$0")/.."

echo "== build (workspace, all targets) =="
cargo build --release --workspace --all-targets

echo "== format (rustfmt) =="
# perfbench/ is a Cargo workspace of its own and is not checked here.
cargo fmt --check

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

echo "== tests (simulator decode vs its proof-free oracle, every simulated cell) =="
# Every run simulates on the default decode. This #[ignore]d suite
# compiles each kernel x options the binaries simulate once (the
# standard grid, the machine zoo, the superscalar sweeps and the
# ablation machines) and checks that the proof-free decode reproduces
# every metric and checksum on every machine the cell runs on.
cargo test --release -p bsched-verify --test engine_oracle -- --ignored

echo "== tests (benchmark self-tests) =="
# perfbench/ is a Cargo workspace of its own, so the workspace run
# above does not reach its self-tests.
cargo test --release --manifest-path perfbench/Cargo.toml

echo "== smoke: all_experiments on 2 kernels, 2 vs 1 workers =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
run_smoke() {
    BSCHED_JOBS="$1" ./target/release/all_experiments --kernels ARC2D,TRFD
}
cold="$(run_smoke 2)"
single="$(run_smoke 1)"
[ "$cold" = "$single" ] || { echo "FAIL: 2-vs-1-worker output differs"; exit 1; }
# Header + 2 kernels x 15 configurations.
lines="$(printf '%s\n' "$cold" | wc -l)"
[ "$lines" -eq 31 ] || { echo "FAIL: expected 31 output lines, got $lines"; exit 1; }

echo "== gate: one source reference run per kernel =="
# Each kernel's reference checksum (verify + interpret the unoptimized
# source) is computed once per process and shared by all its cells. A
# cold traced run over 2 kernels x 15 configurations must record
# exactly 2 pipeline.reference spans: a deterministic count, so a slide
# back to per-cell interpretation fails on any host. Tracing must not
# change stdout.
REF_TRACE="$SMOKE_DIR/reference.trace.json"
refrun="$(./target/release/all_experiments --kernels ARC2D,TRFD \
    --trace-json "$REF_TRACE" 2>"$SMOKE_DIR/reference.err")" \
    || { cat "$SMOKE_DIR/reference.err"; echo "FAIL: traced cold run"; exit 1; }
[ "$refrun" = "$cold" ] || { echo "FAIL: traced cold run changed stdout"; exit 1; }
refs="$(grep -o '"cat":"pipeline","dur_ns":[0-9]*,"kind":"span","label":"[^"]*","name":"reference"' \
    "$REF_TRACE" | wc -l)"
[ "$refs" -eq 2 ] \
    || { echo "FAIL: expected 2 pipeline.reference spans (one per kernel), got $refs"; exit 1; }

echo "== gate: one compile per kernel x options across machines =="
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
# invariants. Then a 2,000-iteration seeded fuzz campaign
# (time-budgeted so slow machines stop early rather than time out)
# drives random kernels through the full pipeline. Any violation or fuzz failure exits nonzero; the
# verified output must be byte-identical to the unverified run.
VERIFY_ERR="$SMOKE_DIR/verify.err"
verified="$(./target/release/all_experiments --verify --kernels ARC2D,TRFD \
        --fuzz 2000 --fuzz-seconds 120 2>"$VERIFY_ERR")" \
    || { cat "$VERIFY_ERR"; echo "FAIL: verify gate"; exit 1; }
[ "$verified" = "$cold" ] || { echo "FAIL: --verify changed stdout"; exit 1; }
grep "verification:" "$VERIFY_ERR" || { echo "FAIL: no verification report"; exit 1; }
grep -q "verification: .* 0 violations" "$VERIFY_ERR" \
    || { cat "$VERIFY_ERR"; echo "FAIL: violations found"; exit 1; }

echo "== smoke: sampled mode (estimates, exact bytes) =="
# SimPoint-style sampling end to end on 2 kernels. The sampled verified
# run must pass its conformance gate (instruction counts and checksum
# exact by construction, estimates within the committed tolerances vs a
# fresh exact run) while executing every cell, and its table must differ
# from the exact one. Disabling sampling via the environment must be a
# no-op.
SAMPLE_ERR="$SMOKE_DIR/sample.err"
sampled="$(./target/release/all_experiments --sample --verify --kernels ARC2D,TRFD \
    2>"$SAMPLE_ERR")" \
    || { cat "$SAMPLE_ERR"; echo "FAIL: sampled verified run"; exit 1; }
grep -q "verification: .* 0 violations" "$SAMPLE_ERR" \
    || { cat "$SAMPLE_ERR"; echo "FAIL: sampled verification"; exit 1; }
grep -q "mode: sampled(" "$SAMPLE_ERR" \
    || { cat "$SAMPLE_ERR"; echo "FAIL: run report must name the sampled mode"; exit 1; }
grep -q "sampling: .* insts cycle-simulated" "$SAMPLE_ERR" \
    || { cat "$SAMPLE_ERR"; echo "FAIL: no sampling report section"; exit 1; }
grep -q "0 memory hits, 30 executed from 30 compiles (0% cache hits)" "$SAMPLE_ERR" \
    || { cat "$SAMPLE_ERR"; echo "FAIL: sampled run must execute every cell"; exit 1; }
[ "$sampled" != "$cold" ] \
    || { echo "FAIL: sampled table should be an estimate, not the exact table"; exit 1; }
disabled="$(BSCHED_SAMPLE=0 ./target/release/all_experiments --kernels ARC2D,TRFD)"
[ "$disabled" = "$cold" ] \
    || { echo "FAIL: BSCHED_SAMPLE=0 must leave exact stdout byte-identical"; exit 1; }

echo "== smoke: machine zoo (2 kernels x 3 machines, verified) =="
# The machine-description axis end to end: the balanced-vs-traditional
# gap table on a 2-kernel subset across three machines (the default
# alpha21164, the 4-wide superscalar, and the blocking-cache control
# that inverts the paper's result), every cell verified, with zero
# violations.
MACH_ERR="$SMOKE_DIR/machines.err"
./target/release/machines --verify --kernels ARC2D,TRFD \
    --machines alpha21164,wide4,blocking21164 >/dev/null 2>"$MACH_ERR" \
    || { cat "$MACH_ERR"; echo "FAIL: machines run"; exit 1; }
grep -q "verification: .* 0 violations" "$MACH_ERR" \
    || { cat "$MACH_ERR"; echo "FAIL: machines violations"; exit 1; }

echo "== smoke: sampling microbench (accuracy bounds) =="
# Re-measures the per-kernel exact-vs-sampled cells; the bench asserts
# the committed accuracy bounds on every cell it touches. Its speed
# ratios are printed, not gated.
cargo bench -q -p bsched-bench --bench sampling

echo "== gate: block-engine work counts (exact) =="
# The block engine's work on every lowered suite kernel — skeletons
# built, blocks visited, I-cache probes issued, operand scans run —
# counted from its block cache at exit and compared by exact equality
# with a recorded table. It catches the engine sliding back toward
# per-instruction work (rebuilding skeletons on re-entry, fetching on
# every instruction, scanning proven-ready operands) on any host.
# Wall-clock simulator throughput is perfbench's `sim.minst_per_s`
# row, ungated here.
cargo test -q --release -p bsched-sim --lib work_counts_match_the_recorded_table

echo "== gate: exact-search trajectory (exact) =="
# The branch-and-bound scheduler on 20 seeded random regions at node
# budgets 0, 17, 1000 and the default: an FNV digest of every emitted
# order, cost, proven flag and node count must equal a recorded table,
# budget-exhausted searches included. A change that visits one node
# more or less (branch order, bound, memo) fails here on any host.
cargo test -q --release -p bsched-core --test exact_pins

echo "== gate: weight-kernel work counts and no trace points (exact) =="
# compute_weights over every suite kernel's scheduled regions at unroll
# 8: the contributors it scans and the bitset row words it reads must
# equal a recorded table, and with the recorder on it must record zero
# events. Deterministic on any host; a slide back to per-load DAG
# probes moves the counts.
cargo test -q --release -p bsched-pipeline --test weights_untraced

echo "== smoke: traced run report + exports =="
# One traced run: the trace flags must not change stdout and both sinks
# must be written.
traced="$(./target/release/all_experiments --kernels ARC2D,TRFD \
        --trace-summary --trace-json "$SMOKE_DIR/trace.json" \
        --trace-chrome "$SMOKE_DIR/trace.chrome.json" 2>"$SMOKE_DIR/trace.err")" \
    || { cat "$SMOKE_DIR/trace.err"; echo "FAIL: traced run"; exit 1; }
[ "$traced" = "$cold" ] || { echo "FAIL: tracing flags changed stdout"; exit 1; }
grep -q "bsched-trace summary" "$SMOKE_DIR/trace.err" \
    || { cat "$SMOKE_DIR/trace.err"; echo "FAIL: no trace summary"; exit 1; }
[ -s "$SMOKE_DIR/trace.json" ] || { echo "FAIL: no trace.json"; exit 1; }
[ -s "$SMOKE_DIR/trace.chrome.json" ] || { echo "FAIL: no chrome trace"; exit 1; }

echo "== smoke: bsched-serve over a unix socket =="
# A resident server, started cold. Three concurrent clients submit the
# identical 2-kernel grid: in-flight dedup plus the shared memo store
# must compute each of the 30 cells exactly once. Then a verified grid
# through the server must be byte-identical to the direct
# all_experiments output, and a wire-level shutdown must drain
# gracefully (exit 0).
wait_for_socket() { # SOCK ERR
    tries=0
    while [ ! -S "$1" ] && [ "$tries" -lt 100 ]; do
        sleep 0.1; tries=$((tries + 1))
    done
    [ -S "$1" ] || { cat "$2"; echo "FAIL: server did not come up"; exit 1; }
}
SERVE_SOCK="$SMOKE_DIR/serve.sock"
./target/release/bsched-serve --unix "$SERVE_SOCK" --jobs 2 2>"$SMOKE_DIR/serve.err" &
SERVE_PID=$!
wait_for_socket "$SERVE_SOCK" "$SMOKE_DIR/serve.err"
./target/release/bsched-client --connect "unix:$SERVE_SOCK" ping \
    || { echo "FAIL: serve ping"; exit 1; }
for n in 1 2 3; do
    ./target/release/bsched-client --connect "unix:$SERVE_SOCK" \
        grid --kernels ARC2D,TRFD >"$SMOKE_DIR/served.$n" 2>/dev/null &
    eval "CLIENT_$n=\$!"
done
wait "$CLIENT_1" "$CLIENT_2" "$CLIENT_3" \
    || { echo "FAIL: concurrent serve clients"; exit 1; }
for n in 1 2 3; do
    [ "$(cat "$SMOKE_DIR/served.$n")" = "$cold" ] \
        || { echo "FAIL: served grid $n differs from direct output"; exit 1; }
done
./target/release/bsched-client --connect "unix:$SERVE_SOCK" stats \
    >"$SMOKE_DIR/serve.stats" 2>/dev/null
grep -q "engine executed  30$" "$SMOKE_DIR/serve.stats" \
    || { cat "$SMOKE_DIR/serve.stats"; \
         echo "FAIL: 3 clients x 30 cells must execute exactly 30"; exit 1; }
served_verified="$(./target/release/bsched-client --connect "unix:$SERVE_SOCK" \
    grid --kernels ARC2D,TRFD --verify 2>/dev/null)" \
    || { echo "FAIL: verified served grid"; exit 1; }
[ "$served_verified" = "$cold" ] \
    || { echo "FAIL: verified served grid differs from direct output"; exit 1; }
./target/release/bsched-client --connect "unix:$SERVE_SOCK" shutdown 2>/dev/null \
    || { echo "FAIL: serve shutdown request"; exit 1; }
wait "$SERVE_PID" || { cat "$SMOKE_DIR/serve.err"; echo "FAIL: server exit status"; exit 1; }
grep -q "shutdown complete" "$SMOKE_DIR/serve.err" \
    || { cat "$SMOKE_DIR/serve.err"; echo "FAIL: no graceful drain"; exit 1; }
# A --trace-stream server answers a traced TRFD grid with the direct
# table and, inside each cold cell's result frame, every event of that
# cell: 761 for the 15 cells (each harness.cell span plus the
# reference, pass, compile and sim events inside it).
TRACE_SOCK="$SMOKE_DIR/trace-serve.sock"
./target/release/bsched-serve --unix "$TRACE_SOCK" --jobs 2 --trace-stream \
    2>"$SMOKE_DIR/trace-serve.err" &
TRACE_SERVE_PID=$!
wait_for_socket "$TRACE_SOCK" "$SMOKE_DIR/trace-serve.err"
direct_trfd="$(./target/release/all_experiments --kernels TRFD 2>/dev/null)"
served_traced="$(./target/release/bsched-client --connect "unix:$TRACE_SOCK" \
    grid --kernels TRFD --trace 2>"$SMOKE_DIR/trace-client.err")" \
    || { cat "$SMOKE_DIR/trace-client.err"; echo "FAIL: traced served grid"; exit 1; }
[ "$served_traced" = "$direct_trfd" ] \
    || { echo "FAIL: traced served grid differs from direct output"; exit 1; }
grep -q "15 cells served by .*, 761 trace events$" "$SMOKE_DIR/trace-client.err" \
    || { cat "$SMOKE_DIR/trace-client.err"; \
         echo "FAIL: traced served grid must stream 761 events"; exit 1; }
./target/release/bsched-client --connect "unix:$TRACE_SOCK" shutdown 2>/dev/null \
    || { echo "FAIL: trace server shutdown request"; exit 1; }
wait "$TRACE_SERVE_PID" \
    || { cat "$SMOKE_DIR/trace-serve.err"; echo "FAIL: trace server exit status"; exit 1; }

echo "== gate: results/ regenerated =="
# Every file under results/ is rewritten from the binaries;
# inside a git checkout the committed files must come back
# byte-identical, so a stale table fails here. This is the exact
# baseline for every printed number: every field of every row of
# machines.csv (the machine zoo's cycles) and optimality.csv (the exact
# search's proven regions and nodes).
scripts/regen.sh
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    git diff --exit-code -- results/ \
        || { echo "FAIL: results/ is stale; run scripts/regen.sh"; exit 1; }
fi

echo "== gate: committed results and kernels untouched =="
# No step above may rewrite a committed table or kernel definition
# (kernels/*.bsk is the suite's only source). Skipped outside a git
# checkout, e.g. in an exported source tree.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    git diff --exit-code -- results/ kernels/ \
        || { echo "FAIL: a CI step changed committed results/ or kernels/"; exit 1; }
fi

echo "CI OK"
