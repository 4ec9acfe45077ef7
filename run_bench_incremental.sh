#!/bin/sh
# Incremental bench snapshot: machine-readable trajectories.
#
# Emits one JSON object per scheme x machine (JSON Lines) via
# `bench/main.exe --json`, running each machine separately so partial
# completion still leaves a valid bench_output.json prefix.  Each
# object carries per-workload cycles / memory accesses / barriers plus
# the geomean-vs-Base summary (see DESIGN.md, "Observability"), and
# each machine's sweep is followed by a {"machine",...,"sweep_seconds"}
# wall-clock record so trajectory diffs surface perf regressions too.
#
# Honors $CTAM_JOBS (see lib/util/parallel.ml); pass --jobs through
# explicitly with e.g. `CTAM_JOBS=4 ./run_bench_incremental.sh`.
set -e
OUT=${1:-bench_output.json}

# Gate the sweep on mapping legality: every workload x machine x scheme
# must pass the end-to-end checker (coverage, codegen, dependences,
# races, topology) before its numbers are worth collecting.  See
# `ctamap check --help` and DESIGN.md, "Verification".
for m in harpertown nehalem dunnington; do
  for w in applu galgel equake cg sp bodytrack facesim freqmine \
           namd povray mesa h264; do
    ./_build/default/bin/ctamap.exe check "$w" -m "$m" --scale 64 \
      --all-schemes > /dev/null || {
      echo "mapping verification failed: $w on $m" >&2
      exit 1
    }
  done
done

: > "$OUT"
for m in harpertown nehalem dunnington; do
  t0=$(date +%s.%N)
  ./_build/default/bench/main.exe --quick --json "$m" >> "$OUT" \
    || echo "{\"machine\":\"$m\",\"error\":\"bench failed\"}" >> "$OUT"
  t1=$(date +%s.%N)
  awk -v m="$m" -v a="$t0" -v b="$t1" \
    'BEGIN { printf "{\"machine\":\"%s\",\"sweep_seconds\":%.3f}\n", m, b - a }' \
    >> "$OUT"
  # Archive one timeline trace per machine alongside the trajectories
  # (sp under the topology-aware scheme; load in ui.perfetto.dev).
  ./_build/default/bin/ctamap.exe trace sp -m "$m" --scale 64 -s topology \
    -o "trace_$m.json" --window 2048 > /dev/null \
    || echo "trace archive failed: $m" >&2
  # Archive the winning mapping parameters per machine (coordinate
  # descent from the default; the persistent cache makes re-runs after
  # unrelated edits free).  Feed back with `ctamap run --params`.
  ./_build/default/bin/ctamap.exe tune sp -m "$m" --scale 64 \
    --strategy descent --cache .ctam-tune-cache \
    --save-params "params_$m.json" --json "tune_$m.json" > /dev/null \
    || echo "tune archive failed: $m" >&2
  # Archive a self-telemetry snapshot per machine: phase timings, engine
  # aggregates, GC totals (see DESIGN.md, "Telemetry").  One profiled
  # run per machine keeps the snapshot cheap but representative.
  ./_build/default/bin/ctamap.exe run sp -m "$m" --scale 64 -s topology \
    --metrics-out "metrics_$m.json" > /dev/null \
    || echo "metrics archive failed: $m" >&2
done

# Scale-sweep trajectory: exact vs streamed vs set-sampled simulation
# of the quick subset (experiment="scale_sweep" rows — per-kernel
# sampled cycle error and effective speedup).  Lets trajectory diffs
# catch regressions in the sampled estimator and the generator paths,
# not just in the mapped cycle counts.
t0=$(date +%s.%N)
./_build/default/bench/main.exe scale-sweep --quick --json >> "$OUT" \
  || echo '{"experiment":"scale_sweep","error":"sweep failed"}' >> "$OUT"
t1=$(date +%s.%N)
awk -v a="$t0" -v b="$t1" \
  'BEGIN { printf "{\"experiment\":\"scale_sweep\",\"sweep_seconds\":%.3f}\n", b - a }' \
  >> "$OUT"

# Policy-sweep trajectory: the replacement-policy differential sweep
# (experiment="policy_sweep" rows — L1 hit rate / memory rate per
# policy x pattern x footprint).  The sweep exits non-zero when a
# policy breaks a trend invariant or LRU-as-policy diverges from the
# seed reference engine, so the archive doubles as a certification.
t0=$(date +%s.%N)
./_build/default/bench/main.exe policy-sweep --quick --json >> "$OUT" \
  || echo '{"experiment":"policy_sweep","error":"sweep failed"}' >> "$OUT"
t1=$(date +%s.%N)
awk -v a="$t0" -v b="$t1" \
  'BEGIN { printf "{\"experiment\":\"policy_sweep\",\"sweep_seconds\":%.3f}\n", b - a }' \
  >> "$OUT"

# Archive the daemon's own observability per machine: a short served
# burst (cache miss + hit) with the audit journal on, keeping the
# journal (serve_journal_$m.jsonl — replayable with
# `journal_replay replay`) and a Prometheus scrape of the daemon's
# registry (serve_metrics_$m.prom) alongside the other per-machine
# artifacts.  See DESIGN.md, "Service observability".
for m in harpertown nehalem dunnington; do
  sock="/tmp/ctam-bench-serve-$$.sock"
  ./_build/default/bin/ctamap.exe serve --socket "$sock" --workers 2 \
    --journal "serve_journal_$m.jsonl" --slow-ms 0 \
    2> /dev/null &
  serve_pid=$!
  i=0
  while [ ! -S "$sock" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then break; fi
    sleep 0.1
  done
  if [ -S "$sock" ]; then
    ./_build/default/bin/ctamap.exe client --socket "$sock" \
      --op run sp -m "$m" --scale 64 -s topology > /dev/null \
      || echo "serve journal archive failed: $m" >&2
    ./_build/default/bin/ctamap.exe client --socket "$sock" \
      --op run sp -m "$m" --scale 64 -s topology > /dev/null 2>&1 || true
    ./_build/default/bin/ctamap.exe client --socket "$sock" \
      --op metrics --format prometheus > "serve_metrics_$m.prom" \
      || echo "serve metrics archive failed: $m" >&2
    ./_build/default/bin/ctamap.exe client --socket "$sock" \
      --op shutdown > /dev/null 2>&1 || true
  else
    echo "serve observability archive failed: $m (daemon never bound)" >&2
  fi
  wait "$serve_pid" 2> /dev/null || true
done
