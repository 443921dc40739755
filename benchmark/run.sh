#!/usr/bin/env bash
# Builds the benchmark (release, offline, locked) and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#       one run; the last stdout line is the result object (BENCHMARK.json).
#   benchmark/run.sh [--seed <n>] [--seconds <n>]
#       every workload, tracing off then on: prints every metric by name.
#   benchmark/run.sh --quick
#       one op per workload and one traced run with the fewest repeats:
#       every correctness check in well under a minute (the CI hook).
#
# The build goes to $CARGO_TARGET_DIR, or target/benchmark in the repo
# root when that is unset; results and traces land beside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"

# Build output goes to stderr so stdout carries only the benchmark's own.
cargo build --release --offline --locked --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/unintt-benchmark"

# Host fingerprint fields the binary cannot see for itself.
export BENCH_RUSTC="${BENCH_RUSTC:-$(rustc -V 2>/dev/null || echo unknown)}"
export BENCH_COMMIT="${BENCH_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"

case " $* " in
*" --workload "*)
    exec "$bin" "$@"
    ;;
*" --quick "*)
    for w in $("$bin" --list); do
        "$bin" --workload "$w" --seconds 0 --trace 0
    done
    exec "$bin" --workload engine-sim --seconds 0 --trace 1
    ;;
*)
    for w in $("$bin" --list); do
        "$bin" --workload "$w" --trace 0 "$@"
        "$bin" --workload "$w" --trace 1 "$@"
    done
    ;;
esac
