#!/usr/bin/env sh
# Rewrites every file under results/ from the current source:
#
# * results/<bin>.txt — the stdout of each table, figure, ablation and
#   grid binary;
# * results/all_experiments.csv, machines.csv and optimality.csv — the
#   files those binaries write under --csv.
#
#   scripts/regen.sh
#
# Works from any directory (it runs in the repository root) and builds
# the binaries first; `git diff results/` afterwards shows what moved.
set -eu

cd "$(dirname "$0")/.."

cargo build --release -q -p bsched-bench

ERR="$(mktemp)"
trap 'rm -f "$ERR"' EXIT

# run OUT BIN [ARGS...]: BIN's stdout to OUT; stderr shown only on failure.
run() {
    out="$1"
    shift
    "./target/release/$@" >"$out" 2>"$ERR" || { cat "$ERR"; echo "FAIL: $*"; exit 1; }
}

for bin in table1 table2 table3 table4 table5 table6 table7 table8 table9 \
    fig1 fig2 fig3 fig4 fig5 sec55 superscalar ablations all_experiments; do
    run "results/$bin.txt" "$bin"
done
run /dev/null all_experiments --csv
run /dev/null machines --csv
run /dev/null optimality --csv
echo "regenerated results/"
