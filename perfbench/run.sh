#!/usr/bin/env bash
# Builds the server binary and the benchmark from this checkout, then
# runs one workload:
#   bash perfbench/run.sh --workload serve-hot --seed 11 --seconds 25 --trace 0
# Build output goes to stderr; the last stdout line is the result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --display quiet perfbench/perfbench.exe bin/sorl_tune.exe 1>&2
commit=none
if [ -d .git ]; then commit=$(git rev-parse HEAD 2>/dev/null || echo none); fi
exec ./_build/default/perfbench/perfbench.exe \
  --server-exe ./_build/default/bin/sorl_tune.exe --commit "$commit" "$@"
