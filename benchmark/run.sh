#!/usr/bin/env bash
# The one command of the benchmark: build with the plain `release` profile
# (what `cargo build --release` gives users: no LTO or codegen tweaks), then
# hand every argument to the binary. See README.md, or run with --bogus for
# the usage text.
#
# Runs from the checkout root, so that `benchmark/out/` is where results,
# spans and digests land. The driver sets CARGO_TARGET_DIR; alone, the
# build goes to benchmark/target. Both are ignored by git.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/voxel-benchmark" "$@"
