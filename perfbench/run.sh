#!/usr/bin/env bash
# Builds the benchmark harness and pasmd from this checkout's sources
# into .bench_build/, then runs the harness with the given arguments.
# Every build and run artefact stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" . && go build -o "$out/pasmd" repro/cmd/pasmd) >&2
exec "$out/perfbench" -pasmd "$out/pasmd" -out "$out" "$@"
