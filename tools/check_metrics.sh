#!/bin/sh
# End-to-end check of the telemetry exposure paths: a profiled run with
# --metrics-out must produce (a) a schema-valid JSON snapshot whose
# engine, mapping-phase and GC series are nonzero, (b) with -j 4, live
# parallel-pool series too, (c) a parseable, duplicate-free Prometheus
# exposition via the .prom suffix, and (d) a run-report telemetry
# member that `ctamap report diff` compares (and gates) across runs.
# CTAM_TELEMETRY=0 must suppress the series without breaking the run.
# Wired into `dune runtest` from tools/dune; also runnable by hand:
#
#   dune build && sh tools/check_metrics.sh
#
# Args (all optional): CTAMAP_EXE METRICS_CHECK_EXE FIG5_CTAM
set -e
CTAMAP=${1:-./_build/default/bin/ctamap.exe}
CHECK=${2:-./_build/default/tools/metrics_check.exe}
FIG5=${3:-examples/programs/fig5.ctam}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

run_args="sp -m harpertown --scale 64 -s topology"

# Serial profiled run: engine, per-phase and GC series must be live.
"$CTAMAP" run $run_args --profile --json "$tmp/report1.json" \
  --metrics-out "$tmp/m1.json" > /dev/null
"$CHECK" \
  --require ctam_engine_runs_total \
  --require ctam_engine_accesses_total \
  --require ctam_engine_run_seconds \
  --require ctam_phase_seconds \
  --require ctam_phase_minor_words_total \
  "$tmp/m1.json"

# Parallel compare: the pool monitor must have recorded tasks too.
"$CTAMAP" compare sp -m harpertown --scale 64 -j 4 \
  --metrics-out "$tmp/m2.json" > /dev/null
"$CHECK" \
  --require ctam_engine_runs_total \
  --require ctam_parallel_maps_total \
  --require ctam_parallel_tasks_total \
  "$tmp/m2.json"

# Memoized tune sweep: candidate mappings share their serial phases,
# so the engine phase memo must record hits and replayed accesses —
# an unobserved sweep is where memo wins materialize (profiled runs
# attach probes and leave the memo inert).
"$CTAMAP" tune cg -m dunnington --scale 64 --budget 4 --memo \
  --metrics-out "$tmp/m3.json" > /dev/null
"$CHECK" \
  --require ctam_memo_hits_total \
  --require ctam_memo_stores_total \
  --require ctam_memo_replayed_accesses_total \
  "$tmp/m3.json"

# Set-sampled streamed run: the sampling families must be live.
"$CTAMAP" run sp -m harpertown --scale 16 --stream --sample-sets 2 \
  --metrics-out "$tmp/m4.json" > /dev/null
"$CHECK" \
  --require ctam_engine_sampled_runs_total \
  --require ctam_engine_sampled_accesses_total \
  --require ctam_engine_skipped_accesses_total \
  "$tmp/m4.json"

# Prometheus text exposition rides the .prom suffix.
"$CTAMAP" run $run_args --metrics-out "$tmp/m.prom" > /dev/null
"$CHECK" --prom "$tmp/m.prom"
grep -q '^ctam_engine_runs_total' "$tmp/m.prom" || {
  echo "check_metrics: engine counter missing from Prometheus output" >&2
  exit 1
}

# A profiled run of a DSL program leaves a phase series for a compile
# pass, a frontend pass and the simulation, and charges the
# simulation's allocation.
"$CTAMAP" run "$FIG5" --profile --metrics-out "$tmp/fig5.prom" > /dev/null
for series in \
  'ctam_phase_seconds_count{phase="mapping.group"}' \
  'ctam_phase_seconds_count{phase="frontend.parse"}' \
  'ctam_phase_seconds_count{phase="simulate"}' \
  'ctam_phase_minor_words_total{phase="simulate"}'
do
  grep -qF "$series" "$tmp/fig5.prom" || {
    echo "check_metrics: $series missing from Prometheus output" >&2
    exit 1
  }
done

# The run report carries the versioned telemetry member, and report
# diff accepts two such reports (self-diff: no regressions).
grep -q '"telemetry_version"' "$tmp/report1.json" || {
  echo "check_metrics: run report has no telemetry member" >&2
  exit 1
}
"$CTAMAP" report diff "$tmp/report1.json" "$tmp/report1.json" > /dev/null || {
  echo "check_metrics: report self-diff flagged a regression" >&2
  exit 1
}

# Kill switch: disabled telemetry still runs and still writes a valid
# snapshot — just with no live engine series.
CTAM_TELEMETRY=0 "$CTAMAP" run $run_args --metrics-out "$tmp/m0.json" \
  > /dev/null
"$CHECK" "$tmp/m0.json"
if "$CHECK" --require ctam_engine_runs_total "$tmp/m0.json" > /dev/null 2>&1
then
  echo "check_metrics: CTAM_TELEMETRY=0 still recorded engine runs" >&2
  exit 1
fi

echo "check_metrics: ok"
