#!/bin/sh
# End-to-end check of the mapping daemon (`ctamap serve`): a served
# answer must equal the one-shot answer modulo volatile report members,
# a repeated request must come from the plan cache byte-identically,
# every reply frame of a plan-carrying request must be canonical
# minified JSON with the same result bytes whichever tier answered
# (computed, memory, promoted from disk), hostile input
# (garbage/oversized/malformed frames, mid-frame disconnects, bad
# requests) must get structured error replies with the daemon still
# alive, a corrupt on-disk cache entry must only cost a recompute,
# timed-out requests must stop at their deadline (typed replies, no
# extra threads, correct answers afterwards), a frame whose decoding
# overflows a small stack must be answered without losing a worker, a
# deeply nested id must be echoed on that stack, and shutdown must be
# clean (socket removed, exit 0).
# Wired into `dune runtest` from tools/dune; also runnable by hand from
# the repo root:
#
#   dune build && sh tools/check_serve.sh
#
# Args (all optional): CTAMAP_EXE SERVE_PROBE_EXE
set -e
CTAMAP=${1:-./_build/default/bin/ctamap.exe}
PROBE=${2:-./_build/default/tools/serve_probe.exe}
tmp=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2> /dev/null
  rm -rf "$tmp"
}
trap cleanup EXIT

sock="$tmp/daemon.sock"
run_args="cg -m harpertown --scale 64"
wire_req='{"op":"run","program":"cg","machine":"harpertown","scale":64}'

# Optional arg: the daemon's OCAMLRUNPARAM.
start_daemon() {
  OCAMLRUNPARAM=${1:-$OCAMLRUNPARAM} \
    "$CTAMAP" serve --socket "$sock" --workers 2 --cache-dir "$tmp/cache" \
    2> "$tmp/serve.log" &
  pid=$!
  i=0
  while [ ! -S "$sock" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "check_serve: daemon never bound $sock" >&2
                          cat "$tmp/serve.log" >&2; exit 1; }
    sleep 0.1
  done
}

stop_daemon() {
  "$CTAMAP" client --socket "$sock" --op shutdown > /dev/null
  wait "$pid" || { echo "check_serve: daemon exited non-zero" >&2; exit 1; }
  pid=""
  [ -S "$sock" ] && { echo "check_serve: socket left behind" >&2; exit 1; }
  true
}

start_daemon

# A served run must be the one-shot run, modulo wall clocks.
"$CTAMAP" run $run_args --json "$tmp/oneshot.json" > /dev/null
"$CTAMAP" client --socket "$sock" --op run $run_args > "$tmp/served.json"
"$PROBE" compare "$tmp/oneshot.json" "$tmp/served.json" > /dev/null

# Where the two paths once drifted apart: a topology file at the default
# --scale (the client now sends the scale, and the daemon applies it to
# topology text as to presets), and knobs a scheme ignores (reports show
# the canonical point; the client has no --alpha, so its side is the
# canonical base request).
cat > "$tmp/quad.topo" << 'TOPO'
(machine "Quad" (clock 2.0) (mem 150)
  (cache "L2#0" (level 2) (size 1M) (assoc 16) (line 64) (latency 12)
    (cache "L1#0" (level 1) (size 32K) (assoc 8) (line 64) (latency 3) (core))
    (cache "L1#1" (level 1) (size 32K) (assoc 8) (line 64) (latency 3) (core)))
  (cache "L2#1" (level 2) (size 1M) (assoc 16) (line 64) (latency 12)
    (cache "L1#2" (level 1) (size 32K) (assoc 8) (line 64) (latency 3)
      (cores 2))))
TOPO
"$CTAMAP" run cg -m "$tmp/quad.topo" --json "$tmp/topo_oneshot.json" > /dev/null
"$CTAMAP" client --socket "$sock" --op run cg -m "$tmp/quad.topo" \
  > "$tmp/topo_served.json"
"$PROBE" compare "$tmp/topo_oneshot.json" "$tmp/topo_served.json" > /dev/null
"$CTAMAP" run $run_args -s base --alpha=0.9 --json "$tmp/base_oneshot.json" \
  > /dev/null
"$CTAMAP" client --socket "$sock" --op run $run_args -s base \
  > "$tmp/base_served.json"
"$PROBE" compare "$tmp/base_oneshot.json" "$tmp/base_served.json" > /dev/null

# The repeat must be answered from the plan cache, byte-identically.
"$CTAMAP" client --socket "$sock" --op run $run_args > "$tmp/served2.json"
cmp "$tmp/served.json" "$tmp/served2.json" || {
  echo "check_serve: cached reply differs from the computed one" >&2
  exit 1
}
"$CTAMAP" client --socket "$sock" --op stats > "$tmp/stats.json"
grep -q '"cached": [1-9]' "$tmp/stats.json" || {
  echo "check_serve: stats report no cache hit after a repeat" >&2
  exit 1
}

# Hostile input: structured errors, daemon stays up (asserted by the
# probe's pings and by the shutdown below succeeding).
"$PROBE" abuse "$sock" > /dev/null

# Wire bytes, not re-encoded results: the probe reads the raw frames of
# one run request sent twice and requires each payload to be canonical
# minified JSON, with identical result bytes.
"$PROBE" wire "$sock" "$wire_req" > /dev/null

# Restart over the intact persistent cache: the memory tier is empty,
# so the first reply must come from disk (cached) and the second from
# the entry that promoted into memory.
stop_daemon
start_daemon
"$PROBE" wire "$sock" "$wire_req" > "$tmp/wire.txt"
grep -q "cached: true true" "$tmp/wire.txt" || {
  echo "check_serve: restarted daemon did not serve the entry from disk:" >&2
  cat "$tmp/wire.txt" >&2
  exit 1
}

# Restart over a corrupted persistent cache: every entry replaced by
# valid-JSON-but-not-an-entry garbage.  The daemon must recompute (not
# crash), and the answer must still match the one-shot report.
stop_daemon
for f in "$tmp"/cache/ctam-plan-*.json; do
  [ -e "$f" ] || { echo "check_serve: no persistent entries written" >&2
                   exit 1; }
  echo '[]' > "$f"
done
start_daemon
"$CTAMAP" client --socket "$sock" --op run $run_args > "$tmp/served3.json"
"$PROBE" compare "$tmp/oneshot.json" "$tmp/served3.json" > /dev/null
"$PROBE" wire "$sock" "$wire_req" > /dev/null
"$CTAMAP" client --socket "$sock" --op ping > /dev/null

# Load-generator plumbing: a small cached burst with zero errors.
"$CTAMAP" client --socket "$sock" --op run $run_args --load 20 \
  --concurrency 2 --json > "$tmp/load.json"
grep -q '"errors":0' "$tmp/load.json" || {
  echo "check_serve: load burst reported errors" >&2
  exit 1
}

# Deadlines: 200 nocache runs with a 1 ms timeout, more than the
# runtime's domain cap, each get a typed timeout reply while the
# daemon keeps its idle thread count; then it still computes the
# one-shot answer.
"$PROBE" deadline "$sock" "$pid" > /dev/null
"$CTAMAP" client --socket "$sock" --op run $run_args --nocache \
  > "$tmp/served4.json"
"$PROBE" compare "$tmp/oneshot.json" "$tmp/served4.json" > /dev/null

stop_daemon

# No frame may take a worker away: on a 2 MB stack, three frames of
# 200,000 nested arrays on fresh connections (more than the 2 workers)
# overflow the decoder, and each must still get an `internal` reply,
# then a ping its pong.  A ping whose id is 30,000 nested arrays decodes,
# and the pong echoing it must be encoded too.
start_daemon l=256k
"$PROBE" deep "$sock" > /dev/null
"$PROBE" deep-id "$sock" > /dev/null
stop_daemon
echo "check_serve: ok"
