#!/bin/sh
# Run `ctamap run --json` over every example program and validate that
# each emitted report parses as JSON (with the repo's own parser, via
# tools/json_check.exe), and check that a source nested past the
# parser's depth bound gets a positioned error, not a stack overflow,
# even on a 2 MB stack.  Wired into `dune runtest` from tools/dune;
# also runnable by hand from the repo root:
#
#   dune build && sh tools/check_report.sh
#
# Args (all optional): CTAMAP_EXE JSON_CHECK_EXE PROGRAM_DIR
set -e
CTAMAP=${1:-./_build/default/bin/ctamap.exe}
JSON_CHECK=${2:-./_build/default/tools/json_check.exe}
DIR=${3:-examples/programs}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
count=0
for f in "$DIR"/*.ctam; do
  [ -e "$f" ] || { echo "check_report: no .ctam files in $DIR" >&2; exit 1; }
  out="$tmp/$(basename "$f" .ctam).json"
  "$CTAMAP" run "$f" --json "$out" > /dev/null
  "$JSON_CHECK" "$out" > /dev/null
  count=$((count + 1))
done

deep="$tmp/deep.ctam"
{
  printf 'program p; double A[4]; for (i = 0; i < 4; i++) A[i] = '
  head -c 200000 /dev/zero | tr '\0' '('
  printf '1.0'
  head -c 200000 /dev/zero | tr '\0' ')'
  printf ';\n'
} > "$deep"
if OCAMLRUNPARAM=l=256k "$CTAMAP" run "$deep" > "$tmp/deep.out" 2>&1; then
  echo "check_report: a 200,000-deep expression compiled" >&2
  exit 1
fi
grep -q "line 1, column 1056: expression nested deeper than 1000 levels" \
  "$tmp/deep.out" || {
  echo "check_report: no positioned error for a 200,000-deep expression:" >&2
  head -c 300 "$tmp/deep.out" >&2
  exit 1
}
echo "check_report: $count example report(s) valid, deep source refused"
