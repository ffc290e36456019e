#!/bin/sh
# Build the end-to-end benchmark from source and run one workload:
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout.  dune builds into _build/ with its
# shared cache off, so the build reads and writes only the checkout; build
# output goes to stderr, and stdout is the benchmark's alone.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench/run.sh: run from the root of a checkout of the simulator" >&2
  exit 2
fi
dune build --root . --cache=disabled --display=quiet ./perfbench/e2e.exe 1>&2
exec ./_build/default/perfbench/e2e.exe "$@"
