#!/usr/bin/env bash
# Builds the library, the dsd CLI and the benchmark from source with
# dune, then runs one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run it from the repository root.  Build output goes to _build/ and
# runtime files to .perfbench-tmp/, both inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
# The run metadata asks git for the commit; keep it from searching
# directories above the checkout.
export GIT_CEILING_DIRECTORIES="$(dirname "$PWD")"
dune build --root . --display quiet ./perfbench/main.exe ./bin/dsd.exe 1>&2
exec ./_build/default/perfbench/main.exe --dsd "$PWD/_build/default/bin/dsd.exe" "$@"
