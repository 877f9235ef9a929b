#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the repository root. Every build and cache file stays under
# .bench_build/ in the current directory.
set -euo pipefail
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOENV=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
