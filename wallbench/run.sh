#!/usr/bin/env bash
# Builds the wall-clock benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash wallbench/run.sh --workload ctl-rtt --seed 1 --seconds 10 --trace 0
#
# Every build artifact and Go cache lives under .bench_build (or
# $CARGO_TARGET_DIR when set), so a run reads and writes nothing outside the
# checkout and never touches the network.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/home" "$out/tmp"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOCACHE="$out/gocache" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go -C "$root/wallbench" build -o "$out/wallbench" .
exec "$out/wallbench" "$@"
