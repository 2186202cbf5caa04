#!/usr/bin/env bash
# Build the benchmark from this checkout's sources and run it.
#   bash perfbench/run.sh --workload <name|all> --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr so the last
# line of stdout is the benchmark's JSON result; the shared dune cache is
# off so the build writes nothing outside the checkout.
set -euo pipefail
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
