#!/bin/sh
# Build the benchmark from this checkout and run it:
#   sh perfbench/run.sh --workload rank|ode|program --seed N --seconds S --trace 0|1
#   sh perfbench/run.sh --smoke
# Everything it writes stays in the checkout: dune's _build, and
# .perfbench/ for traces and the compiled kernels' scratch files.
set -u
cd "$(dirname "$0")/.." || exit 2
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a yasksite checkout" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe >&2 || exit 2
mkdir -p .perfbench
tmp=$(mktemp -d "$PWD/.perfbench/tmp.XXXXXX") || exit 2
commit=unknown
[ -e .git ] && commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
PERFBENCH_COMMIT=$commit \
TMPDIR="$tmp" ./_build/default/perfbench/main.exe "$@"
status=$?
rm -rf "$tmp"
exit $status
