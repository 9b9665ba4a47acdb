#!/usr/bin/env bash
# Run the benchmark: bash benchmark/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#
# Builds the benchmark (and the repository's crates it depends on) only when
# the binary is missing or a source file is newer than it, then runs it. A
# plain `cargo run` would rebuild xdata-obs and everything above it on every
# call in a checkout without `.git`: its build script watches `.git/HEAD`,
# and cargo treats a missing watched file as changed.
set -euo pipefail

here=$(dirname "$0")
root="$here/.."
bin="${CARGO_TARGET_DIR:-$here/target}/release/xdata-benchmark"

if [ ! -x "$bin" ] || [ -n "$(find "$root/Cargo.toml" "$root/Cargo.lock" "$root/src" \
    "$root/crates" "$root/examples" "$here/Cargo.toml" "$here/Cargo.lock" "$here/floors.tsv" \
    "$here/src" -newer "$bin" -print -quit)" ]; then
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
fi
exec "$bin" "$@"
