#!/usr/bin/env bash
# Builds `gcond` (from the repository root) and the benchmark, then runs the
# benchmark with every argument passed through. Run from the repository root:
#
#   bash gconbench/run.sh --workload serve --seed 1 --seconds 40 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin gcond >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/gconbench" --gcond "$target/release/gcond" "$@"
