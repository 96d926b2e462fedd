#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the repository root. Everything it builds or writes stays
# under the build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

if ! (cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$build/perfbench" -out "$build" "$@"
