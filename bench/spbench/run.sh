#!/usr/bin/env bash
# Builds spbench from source and runs it from the repository root, keeping
# every build artifact (Go build cache, binaries, generated graphs) under
# .bench_build/ so nothing is written outside the checkout.
#
#   bash bench/spbench/run.sh --workload road-hot --seed 1 --seconds 10 --trace 0
#   bash bench/spbench/run.sh compare -a 'runs/a*.json' -b 'runs/b*.json'
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOTELEMETRY=off
# os.UserConfigDir: keeps the go command's env and telemetry files local.
export XDG_CONFIG_HOME="$build/config"

(cd bench/spbench && go build -o "$build/bin/spbench" .) >&2
exec "$build/bin/spbench" -root "$root" "$@"
