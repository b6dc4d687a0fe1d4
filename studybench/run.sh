#!/usr/bin/env bash
# Builds the study benchmark from this checkout's sources and runs it.
#
#   bash studybench/run.sh --workload cold-study --seed 0 --seconds 30 --trace 0
#
# Run from the repository root. Every build artefact (the binary, the Go
# build cache, the Go tool's config) stays under .bench_build/ in the
# checkout, and the build works offline: the module needs nothing
# outside the repository.
set -euo pipefail

root=$(pwd)
bench_dir="$root/studybench"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
	/*) ;;
	*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
export STUDYBENCH_WORKDIR="$build/studybench-work"

bin="$build/studybench"
go -C "$bench_dir" build -o "$bin" . >&2

# The benchmark's set-up clock starts here, just before exec, so
# process start and package initialisation count towards setup_s.
export STUDYBENCH_START_NS=$(date +%s%N)
exec "$bin" "$@"
