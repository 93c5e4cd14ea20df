#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it lives in and runs
# it with the given arguments, for example:
#
#   bash benchmark/run.sh --workload solve --seed 1 --seconds 40 --trace 0
#
# The build cache, temporary files and the binary stay under .bench_build in
# the checkout root, so a run writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp"
export GOCACHE="${build}/gocache" GOPATH="${build}/gopath" GOTMPDIR="${build}/tmp" \
	XDG_CONFIG_HOME="${build}/config" GOENV=off GOTOOLCHAIN=local GOWORK=off \
	GOPROXY=off GOFLAGS=-mod=readonly
go -C "${root}/benchmark" build -o "${build}/bench" .
cd "${root}"
exec "${build}/bench" "$@"
