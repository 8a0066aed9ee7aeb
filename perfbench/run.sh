#!/usr/bin/env bash
# Runs the benchmark from the repository root, building it first when the
# binary is missing or older than any source it is built from:
#
#   bash perfbench/run.sh --workload <ingest|query|mixed> --seed <n> --seconds <s> --trace <0|1>
#
# Not `cargo run`: outside a git checkout, uplan-obs's build script watches
# a `.git/HEAD` that does not exist, so cargo would rebuild half the
# workspace on every call.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
bin="$target/release/perfbench"
newer=""
if [ -x "$bin" ]; then
  newer="$(find perfbench crates Cargo.toml -newer "$bin" \
    \( -name '*.rs' -o -name 'Cargo.toml' -o -name 'Cargo.lock' \) 2>/dev/null | head -n 1)"
fi
if [ ! -x "$bin" ] || [ -n "$newer" ]; then
  CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml >&2
fi
exec "$bin" "$@"
