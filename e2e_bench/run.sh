#!/usr/bin/env bash
# Builds `flexctl` and the benchmark from source, then runs one benchmark
# invocation. Run from the repository root:
#
#   bash e2e_bench/run.sh --workload churn_query --seed 1 --seconds 10 --trace 0
#   bash e2e_bench/run.sh --workload churn_query --repeat 5 --seed 1 --seconds 10
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -f src/bin/flexctl.rs || ! -f e2e_bench/Cargo.toml ]]; then
    echo "error: run from the repository root (needs Cargo.toml, src/bin/flexctl.rs and e2e_bench/)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin flexctl >&2
cargo build --release --offline --quiet --manifest-path e2e_bench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2e_bench" --flexctl "$CARGO_TARGET_DIR/release/flexctl" --profile release "$@"
