#!/bin/sh
# Build the ledger and the ctamap daemon it drives from source, then run
# the ledger with the given arguments, from the repository root:
#
#   sh ledger/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr, so the ledger's last stdout line stays
# its JSON result.  Without the repository's sources the build fails
# and so does this script.
set -e
cd "$(dirname "$0")/.."
dune build --root . ./ledger/ledger.exe ./bin/ctamap.exe 1>&2
exec ./_build/default/ledger/ledger.exe "$@"
