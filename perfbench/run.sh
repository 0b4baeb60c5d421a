#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload churn-campaign --seed 1 --seconds 55 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# module root: the Go build cache, the binary, campaign checkpoints and the
# digest store. No network is used (GOPROXY=off, GOTOOLCHAIN=local).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
cd "$root"
exec "$out/perfbench-bin" --root "$root" --work "$out/perfbench" "$@"
