#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments
# (see e2e.ml). Run from the repository root. Build output goes to
# stderr, so the last line on stdout is the benchmark's JSON result.
set -euo pipefail
dune build --root . --cache=disabled --display=quiet ./bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
