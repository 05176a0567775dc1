#!/usr/bin/env bash
# Builds the benchmark program from source and runs it from the repository
# root. Every build product, cache and temporary file stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build), so a checkout is the
# only place the benchmark reads or writes.
#
#   bash benchmark/run.sh --workload fit-acp --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh compare --parent ../parent --change . --pairs 10
#   bash benchmark/run.sh summary .bench_build/results
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache" "$build/config" "$build/tmp" "$build/bin"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GENCLUS_BENCH_BUILD="$build"

(cd benchmark && go build -o "$build/bin/genclus-bench" .)
exec "$build/bin/genclus-bench" "$@"
