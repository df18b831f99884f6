#!/usr/bin/env bash
# Builds the benchmark and the aji-serve daemon it starts, then runs one
# workload. Run it from the repository root; arguments pass through:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
bench="${CARGO_TARGET_DIR:-perfbench/target}/release/aji-perfbench"
# Pin the run, and so the daemon it starts, to one CPU: the client's
# host probe then runs on the CPU that does the daemon's work.
if command -v taskset >/dev/null 2>&1; then
    cpu=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*\([0-9]*\).*/\1/p' /proc/self/status)
    exec taskset -c "$cpu" "$bench" "$@"
fi
exec "$bench" "$@"
