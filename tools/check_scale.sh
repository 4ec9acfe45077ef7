#!/bin/sh
# Smoke gate for the streamed + sampled simulation paths: run the
# bench harness's scale-sweep micro on the quick subset and assert the
# sampled runs stay inside their error budget.  The sweep itself
# exits nonzero if any streamed run is not bit-identical to the exact
# array-backed run, so a green gate certifies both halves of the
# tentpole: generators are exact, sampling is bounded.
# Wired into `dune runtest` from tools/dune; also runnable by hand:
#
#   dune build && sh tools/check_scale.sh
#
# Args (all optional): BENCH_EXE SCALE_CHECK_EXE
set -e
BENCH=${1:-./_build/default/bench/main.exe}
CHECK=${2:-./_build/default/tools/scale_check.exe}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Quick subset at sweep scale 16 only (4 kernels x {Base, Combined},
# machine capacity divisor 16, sample factor clamped per machine) —
# larger scales are EXPERIMENTS.md material, too slow for a test
# gate.  Exits nonzero on any streamed-vs-exact mismatch.
"$BENCH" scale-sweep --quick --json 16 > "$tmp/sweep.json"

# Sampled cycle-error geomean must stay under 5% on the quick subset
# (measured ~2%; the bound leaves noise headroom but catches
# estimator regressions), and every row under scale_check's fixed
# per-row bound of 20%.
"$CHECK" --max-geomean 0.05 "$tmp/sweep.json"

echo "check_scale: ok"
