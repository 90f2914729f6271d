#!/bin/sh
# Record a host-performance baseline: runs the full quick experiment
# suite (paper tables/figures plus extensions) through the parallel
# cell fan-out and writes wall-clock plus simulated-cycle results to
# BENCH_baseline.json.
#
# Usage: scripts/bench.sh [output.json] [baseline-to-compare.json]
#        scripts/bench.sh interp [output.json] [recorded-to-compare.json]
#        scripts/bench.sh partition [output.json] [machine-pes]
#
# With a second argument, the new run's simulated metrics are diffed
# against that baseline after stripping the host-dependent fields
# (host timings, parallelism, schema/observe/interp markers) — proving
# that a run with the observability hooks detached reproduces the
# baseline's simulated numbers exactly.
#
# The `interp` mode measures per-row simulation-only MIPS for each
# interpreter tier (reference / exec-table / superinstructions)
# via cmd/interpbench and writes BENCH_interp.json; with a third
# argument it additionally fails if the super tier's speedup ratios
# regressed below that recorded document (the `make bench-interp` CI
# gate).
#
# The `partition` mode runs the ext-partition co-scheduling sweep on a
# 64-PE machine (override with a third argument) and writes
# BENCH_partition.json: makespan, speedup, utilization, and peak
# fragmentation of a mixed-size job storm packed first-fit against the
# serial whole-machine baseline.
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "interp" ]; then
    out="${2:-BENCH_interp.json}"
    against="${3:-}"
    go build ./...
    if [ -n "$against" ]; then
        go run ./cmd/interpbench -out "$out" -against "$against"
    else
        go run ./cmd/interpbench -out "$out"
    fi
    exit 0
fi

if [ "${1:-}" = "partition" ]; then
    out="${2:-BENCH_partition.json}"
    pes="${3:-64}"
    go build ./...
    go run ./cmd/pasmbench -exp ext-partition -pes "$pes" -json "$out" >/dev/null
    echo "partition benchmark written to $out:"
    grep -E '"(policy/[a-z]+/(makespan|speedup|utilization_pct)|serial/makespan|machine/pes)"' "$out" |
        sed 's/^ *//' | sort
    exit 0
fi

out="${1:-BENCH_baseline.json}"
against="${2:-}"

go build ./...
go run ./cmd/pasmbench -exp all,ext -json "$out" >/dev/null
echo "baseline written to $out:"
grep -E '"(name|host_seconds)"' "$out" | sed 's/^ *//' | head -40

# strip removes every host- or schema-dependent line so two runs can be
# compared on simulated content alone: wall clock, parallelism, schema
# markers, and the interp block (tier provenance).
strip() {
    sed '/"interp": {/,/}/d' "$1" |
        grep -Ev '"(host_seconds|parallel|schema|observe)":'
}

if [ -n "$against" ]; then
    a="$(mktemp)"; b="$(mktemp)"
    trap 'rm -f "$a" "$b"' EXIT
    strip "$out" >"$a"
    strip "$against" >"$b"
    if diff "$a" "$b" >/dev/null; then
        echo "simulated metrics in $out match $against"
    else
        echo "simulated metrics in $out DIFFER from $against:" >&2
        diff "$a" "$b" >&2 || true
        exit 1
    fi
fi
