#!/usr/bin/env bash
# Build the simbench program from this checkout (first call only; later
# calls are an up-to-date check) and run it with the given arguments:
#   bash simbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the program's last stdout line is the
# JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build/simbench"

if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" -j 2 >&2

exec "$build/simbench" "$@"
