#!/usr/bin/env bash
# Build the benchmark offline, run the untraced suite (end-to-end metrics)
# and the traced suite (per-layer metrics, Chrome traces), and refresh
# BENCHMARK.json from the metric catalogs. Extra arguments go to both
# suites, e.g. `benchmark/run.sh --seconds 8 --only io_bound`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
start=$(date +%s)

bench() {
    cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
}

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bench run "$@"
bench run --trace "$@"
bench manifest > "$here/../BENCHMARK.json"
echo "BENCHMARK.json refreshed; reports in $here/out/"
echo "total wall time: $(( $(date +%s) - start )) s"
