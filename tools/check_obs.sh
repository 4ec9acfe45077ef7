#!/bin/sh
# Observability gate for the mapping daemon: drives a serially-issued
# mixed burst (computes, cache hits, structured errors, introspection
# ops) through `ctamap serve --journal`, then asserts the whole
# observability story end to end:
#
#   - the audit journal is valid JSONL with the versioned record
#     schema and strictly monotone request ids (journal_replay check);
#   - re-issuing the journal against the live daemon answers
#     byte-identically modulo the volatile members (journal_replay
#     replay);
#   - the `metrics` wire op renders a Prometheus exposition that
#     parses with no duplicate series (metrics_check --prom);
#   - the `slowlog` op returns the burst's requests (threshold 0);
#   - a traced run embeds Chrome trace-event JSON in the reply;
#   - `ctamap top --count 1` renders a snapshot over the wire;
#   - with --log-format json the daemon's stderr is JSON lines and the
#     startup line carries the effective config.
#
# Wired into `dune runtest` from tools/dune; also runnable by hand:
#
#   dune build && sh tools/check_obs.sh
#
# Args (all optional): CTAMAP_EXE JOURNAL_REPLAY_EXE METRICS_CHECK_EXE
set -e
CTAMAP=${1:-./_build/default/bin/ctamap.exe}
REPLAY=${2:-./_build/default/tools/journal_replay.exe}
METRICS_CHECK=${3:-./_build/default/tools/metrics_check.exe}
tmp=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2> /dev/null
  rm -rf "$tmp"
}
trap cleanup EXIT

sock="$tmp/daemon.sock"
journal="$tmp/journal.jsonl"
run_args="cg -m harpertown --scale 64"

"$CTAMAP" serve --socket "$sock" --workers 2 --cache-dir "$tmp/cache" \
  --journal "$journal" --slow-ms 0 --log-format json \
  2> "$tmp/serve.log" &
pid=$!
i=0
while [ ! -S "$sock" ]; do
  i=$((i + 1))
  [ "$i" -gt 100 ] && { echo "check_obs: daemon never bound $sock" >&2
                        cat "$tmp/serve.log" >&2; exit 1; }
  sleep 0.1
done

client() { "$CTAMAP" client --socket "$sock" "$@"; }

# --- the mixed burst (serial, so journal append order is id order) ----
client --op ping > /dev/null
client --op run $run_args > /dev/null           # compute (cache miss)
client --op run $run_args > /dev/null           # plan-cache hit
client --op map $run_args > /dev/null
client --op check $run_args > /dev/null
if client --op run no-such-kernel -m harpertown > /dev/null 2>&1; then
  echo "check_obs: bad request unexpectedly succeeded" >&2; exit 1
fi
client --op run $run_args --trace > "$tmp/traced.json"
grep -q '"traceEvents"' "$tmp/traced.json" || {
  echo "check_obs: traced run carries no trace member" >&2; exit 1
}
client --op stats > "$tmp/stats.json"
grep -q '"journal"' "$tmp/stats.json" || {
  echo "check_obs: stats carry no journal member" >&2; exit 1
}
grep -q '"uptime_seconds"' "$tmp/stats.json" || {
  echo "check_obs: stats carry no uptime" >&2; exit 1
}

# --- slowlog: threshold 0 records the whole burst ---------------------
client --op slowlog > "$tmp/slowlog.json"
grep -q '"request_id"' "$tmp/slowlog.json" || {
  echo "check_obs: slowlog returned no entries at threshold 0" >&2; exit 1
}

# --- metrics op: valid Prometheus, no duplicate series ----------------
client --op metrics --format prometheus > "$tmp/metrics.prom"
"$METRICS_CHECK" --prom "$tmp/metrics.prom" > /dev/null
grep -q '^ctam_serve_request_seconds_bucket' "$tmp/metrics.prom" || {
  echo "check_obs: no request-latency histogram in the exposition" >&2
  exit 1
}
grep -q '^ctam_serve_span_seconds_bucket' "$tmp/metrics.prom" || {
  echo "check_obs: no span histogram in the exposition" >&2; exit 1
}
for span in decode cache_lookup compile encode; do
  grep -q "^ctam_serve_span_seconds_count{.*span=\"$span\"}" \
    "$tmp/metrics.prom" || {
    echo "check_obs: no $span span in the exposition" >&2; exit 1
  }
done
grep -q '^ctam_serve_journal_records_total' "$tmp/metrics.prom" || {
  echo "check_obs: no journal counters in the exposition" >&2; exit 1
}
# The JSON form must also satisfy the snapshot schema.
client --op metrics > "$tmp/metrics.json"
"$METRICS_CHECK" "$tmp/metrics.json" > /dev/null

# --- journal: schema, monotone ids, clean self-replay -----------------
"$REPLAY" check "$journal" --monotone > /dev/null
"$REPLAY" replay "$journal" "$sock" > /dev/null

# --- the monitor renders a snapshot over the wire ---------------------
"$CTAMAP" top --socket "$sock" --count 1 > "$tmp/top.out"
grep -q 'plan cache:' "$tmp/top.out" || {
  echo "check_obs: top rendered no cache line" >&2; exit 1
}
grep -q 'run' "$tmp/top.out" || {
  echo "check_obs: top rendered no per-op row" >&2; exit 1
}

"$CTAMAP" client --socket "$sock" --op shutdown > /dev/null
wait "$pid" || { echo "check_obs: daemon exited non-zero" >&2; exit 1; }
pid=""

# --- daemon stderr: JSON lines, startup config at info ----------------
grep -q '"msg":"mapping daemon listening"' "$tmp/serve.log" || {
  echo "check_obs: no JSON startup line in the daemon log" >&2
  cat "$tmp/serve.log" >&2
  exit 1
}
grep '"mapping daemon listening"' "$tmp/serve.log" | grep -q '"workers"' || {
  echo "check_obs: startup line carries no effective config" >&2; exit 1
}

echo "check_obs: ok"
