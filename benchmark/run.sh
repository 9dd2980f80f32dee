#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it with the
# given arguments, e.g.
#   bash benchmark/run.sh --workload transfer --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --display quiet ./benchmark/main.exe
exec ./_build/default/benchmark/main.exe "$@"
