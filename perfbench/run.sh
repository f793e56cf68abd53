#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the root of the checkout:
#
#   bash perfbench/run.sh --workload kv-zipf --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and a traced run's spans go under
# .bench_build/perfbench in the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false CGO_ENABLED=0
if ! command -v go >/dev/null 2>&1; then
	PATH="$PATH:/usr/local/go/bin"
fi
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
