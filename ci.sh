#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, formatting.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace (every crate's unit, integration, property and doc tests)"
cargo test -q --workspace

echo "==> voxel-lint (rustdoc makes the public surface, its warnings denied, diffed against the API baseline; DESIGN.md §10; wall-time guard 10s, rustdoc included)"
cargo run -q --release -p voxel-lint -- --max-seconds 10

echo "==> cargo test -q --features paranoid (runtime invariant audits: the facade's integration tests, and the unit + property tests of every crate that has audits behind the feature)"
cargo test -q --features paranoid -p voxel -p voxel-quic -p voxel-core -p voxel-fleet

echo "==> tier-2: conformance (scenario sweep x seeds, the 12 golden digests with fleets at w {1, 2, max}, then the 5-seed stall-skew canary; DESIGN.md §11-12)"
VOXEL_SEEDS="${VOXEL_SEEDS:-5}" cargo run -q --release -p voxel-bench --bin conformance

echo "==> exhibits: fig check regenerates every results/*.txt at the trial count in its header, on one pool, and names the first stale line (DESIGN.md §5, §15, §16)"
cargo run -q --release -p voxel-bench --bin fig -- check

echo "==> smoke: every dbg subcommand on a scenario spec and a fleet spec, dbg profile on a 300-s lossy cellular session, voxel stream on a one-trial spec (DESIGN.md §11), and the §4.1 offline_prep example executed, not only compiled"
for sub in trace profile compare; do
    for spec in BBB:VOXEL:const6:d20 BBB:2xVOXEL:const6:d20:cap10; do
        cargo run -q --release -p voxel-bench --bin dbg -- "$sub" "$spec" >/dev/null 2>&1 ||
            { echo "dbg $sub $spec failed"; exit 1; }
    done
done
# The const6 specs lose nothing; this one leaves permanent gaps in the
# client's packet-number and stream ranges for the whole session.
cargo run -q --release -p voxel-bench --bin dbg -- profile ToS:VOXEL:tmobile:buf1 >/dev/null 2>&1 ||
    { echo "dbg profile ToS:VOXEL:tmobile:buf1 failed"; exit 1; }
cargo run -q --release --bin voxel -- stream BBB:VOXEL:const6:n1 >/dev/null
cargo run -q --release --example offline_prep >/dev/null

echo "==> perf: benchmark smoke (every workload once, output gates armed; benchmark/README.md)"
bash benchmark/run.sh --smoke

echo "==> perf: benchmark self-tests"
cargo test -q --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy -- -D warnings (token rules, DESIGN.md §10), then again with the paranoid-only code compiled in"
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --workspace --all-targets --features paranoid -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "CI green."
