#!/bin/sh
# End-to-end gate for the replacement-policy layer and the trace
# frontend:
#   1. the bench policy-sweep's differential invariants hold (the
#      sweep itself exits non-zero when LRU-as-policy diverges from
#      the seed reference engine or any hit-rate trend breaks);
#   2. `ctamap simtrace` replays a Lackey-style trace, honors
#      per-level --policy bindings, and emits a ctam-simtrace-v1
#      report that parses as JSON (tools/json_check.exe);
#   3. malformed trace lines are rejected WITH their line position in
#      strict mode, and merely counted in --lossy mode (an overflowing
#      or too wide --split span included); a truncated gzip trace
#      fails; a tagged trace skewed past the replay's queue budget
#      replays the same from a plain and a gzipped copy;
#   4. a bogus --policy spec is rejected before any work happens.
# Wired into `dune runtest` from tools/dune; also runnable by hand:
#
#   dune build && sh tools/check_policies.sh
#
# Args (all optional): CTAMAP_EXE BENCH_EXE JSON_CHECK_EXE
set -e
CTAMAP=${1:-./_build/default/bin/ctamap.exe}
BENCH=${2:-./_build/default/bench/main.exe}
JSON_CHECK=${3:-./_build/default/tools/json_check.exe}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# 1. The differential sweep (quick subset: one machine, 64K-access
#    reference strings).  Exits non-zero on any invariant violation.
"$BENCH" policy-sweep --quick > /dev/null

# 2. A well-formed mixed-notation trace through simtrace, with
#    per-level policy bindings; the JSON report must parse and carry
#    the schema, the bound policies, and zero malformed lines.
cat > "$tmp/good.trace" << 'EOF'
==1234== lackey trace
I  0x40001000,4
 L 0x1000,8
 S 0x1040,8
 M 0x1080,4
R 0x20
W 0x1100
1: L 0x2000,8 @5
EOF
"$CTAMAP" simtrace "$tmp/good.trace" -m dunnington --cores 2 \
  --interleave tagged --policy L1=plru,L2=qlru --json > "$tmp/report.json"
"$JSON_CHECK" "$tmp/report.json" > /dev/null
grep -q '"schema": "ctam-simtrace-v1"' "$tmp/report.json"
grep -q '"policy": "plru"' "$tmp/report.json"
grep -q '"policy": "qlru"' "$tmp/report.json"
grep -q '"malformed": 0' "$tmp/report.json"

# 3a. Strict mode: a malformed line fails the run and names its
#     position.
cat > "$tmp/bad.trace" << 'EOF'
 L 0x1000,8
 S 0x1040,8
 X 0xnonsense
 L 0x1080,4
EOF
if "$CTAMAP" simtrace "$tmp/bad.trace" -m dunnington > /dev/null \
  2> "$tmp/err"; then
  echo "check_policies: strict mode accepted a malformed line" >&2
  exit 1
fi
grep -q "line 3" "$tmp/err" || {
  echo "check_policies: strict error lost the line position:" >&2
  cat "$tmp/err" >&2
  exit 1
}

# 3b. Lossy mode: the same trace runs, the malformed line is counted,
#     the well-formed records survive.
"$CTAMAP" simtrace "$tmp/bad.trace" -m dunnington --lossy --json \
  > "$tmp/lossy.json"
"$JSON_CHECK" "$tmp/lossy.json" > /dev/null
grep -q '"malformed": 1' "$tmp/lossy.json"
grep -q '"records": 3' "$tmp/lossy.json"

# 3c. Under --split, a span running past max_int, or one covering more
#     than 65536 split lines (10^12 one-byte lines here, once expanded
#     access by access, which never finished), is a malformed line:
#     strict mode names it and exits like 3a (not with an uncaught
#     exception's 125), lossy mode counts it.  Each run is bounded by
#     `timeout` where the host has one, so a regression to expanding
#     the span fails the gate instead of hanging it; a timed-out run
#     prints no line position.
printf ' L 0x3ffffffffffffff0,100\n' > "$tmp/overflow.trace"
printf ' L 0,1000000000000\n' > "$tmp/wide.trace"
limit=""
command -v timeout > /dev/null 2>&1 && limit="timeout 10"
strict=0
"$CTAMAP" simtrace "$tmp/bad.trace" -m dunnington > /dev/null 2>&1 \
  || strict=$?
split_malformed() { # TRACE SPLIT
  status=0
  $limit "$CTAMAP" simtrace "$1" -m dunnington --split "$2" \
    > /dev/null 2> "$tmp/err" || status=$?
  if [ "$status" -eq 0 ] || [ "$status" -ne "$strict" ]; then
    echo "check_policies: $1 under --split $2 exited $status" \
      "(malformed lines exit $strict)" >&2
    cat "$tmp/err" >&2
    exit 1
  fi
  grep -q "line 1" "$tmp/err" || {
    echo "check_policies: $1 under --split $2 lost the line position" \
      "(or timed out):" >&2
    cat "$tmp/err" >&2
    exit 1
  }
  status=0
  $limit "$CTAMAP" simtrace "$1" -m dunnington --split "$2" --lossy \
    --json > "$tmp/split.json" || status=$?
  [ "$status" -eq 0 ] && grep -q '"malformed": 1' "$tmp/split.json" || {
    echo "check_policies: lossy $1 under --split $2 exited $status" \
      "without counting it malformed" >&2
    exit 1
  }
}
split_malformed "$tmp/overflow.trace" 64
split_malformed "$tmp/wide.trace" 1

# 3d. A truncated gzip trace fails (naming the file) instead of
#     replaying the part that decompressed.
if command -v gzip > /dev/null 2>&1; then
  i=0
  while [ $i -lt 200 ]; do
    printf ' L 0x%x,8\n' $((4096 + (i * 7919) % 4096 * 64))
    i=$((i + 1))
  done > "$tmp/200.trace"
  gzip -c "$tmp/200.trace" > "$tmp/200.gz"
  dd if="$tmp/200.gz" of="$tmp/cut.gz" bs=300 count=1 2> /dev/null
  if "$CTAMAP" simtrace "$tmp/cut.gz" -m dunnington > /dev/null \
    2> "$tmp/err"; then
    echo "check_policies: truncated gzip trace replayed with exit 0" >&2
    exit 1
  fi
  grep -q "cut.gz" "$tmp/err" || {
    echo "check_policies: gzip failure does not name the file:" >&2
    cat "$tmp/err" >&2
    exit 1
  }
fi

# 3e. A 2-core tagged trace whose 300,000 core-0 records all come
#     before core 1's 1,000: dealing core 0's queue past the replay's
#     budget (2^18 accesses) moves core 0 to a reader of its own, which
#     reopens the trace, through `gzip -dc` for a compressed copy.  The
#     plain and gzipped replays must report the same, with every
#     record on its core.
awk 'BEGIN {
  for (i = 0; i < 300000; i++) printf "0: L %x,8\n", 4096 + (i % 65536) * 64
  for (i = 0; i < 1000; i++) printf "1: S %x,8\n", 4096 + (i * 7919 % 4096) * 64
}' > "$tmp/skewed.trace"
"$CTAMAP" simtrace "$tmp/skewed.trace" -m dunnington --interleave tagged \
  --cores 2 --json > "$tmp/skewed.json"
tr -d ' \n' < "$tmp/skewed.json" | grep -q '"per_core":\[300000,1000\]' || {
  echo "check_policies: skewed tagged replay lost its per-core counts" >&2
  exit 1
}
if command -v gzip > /dev/null 2>&1; then
  gzip -c "$tmp/skewed.trace" > "$tmp/skewed.gz"
  "$CTAMAP" simtrace "$tmp/skewed.gz" -m dunnington --interleave tagged \
    --cores 2 --json > "$tmp/skewed_gz.json"
  cmp -s "$tmp/skewed.json" "$tmp/skewed_gz.json" || {
    echo "check_policies: gzipped skewed replay differs from plain" >&2
    exit 1
  }
fi

# 4. Policy spec validation happens before the trace is touched.
if "$CTAMAP" simtrace "$tmp/good.trace" -m dunnington --policy bogus \
  > /dev/null 2>&1; then
  echo "check_policies: bogus --policy accepted" >&2
  exit 1
fi
if "$CTAMAP" run cg -m dunnington --policy L9=plru > /dev/null 2>&1; then
  echo "check_policies: out-of-range policy level accepted" >&2
  exit 1
fi

echo "check_policies: sweep invariants hold, simtrace gates work"
