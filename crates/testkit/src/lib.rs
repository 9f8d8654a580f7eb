#![warn(missing_docs)]
//! # voxel-testkit
//!
//! Deterministic simulation testing (DST) for the VOXEL stack
//! (DESIGN.md §11). Every trial in this workspace is already a
//! deterministic discrete-event simulation; this crate turns that property
//! into a test harness:
//!
//! - [`scenario`]: the scenario kind of the one spec language
//!   (`"BBB:VOXEL:tmobile:buf1:n2:loss@60+5x0.3"`: video × system × trace
//!   family × buffer × queue, plus optional injected faults),
//!   [`Spec::parse`] — the front door that accepts a scenario or a fleet
//!   spec — and a [`Matrix`] that expands cartesian
//!   products of the scenario axes from one-line specs.
//! - [`oracle`]: per-trial invariants every scenario must satisfy
//!   (stall accounting consistent with the traced timeline, QoE within
//!   per-family bounds, transport counters coherent) checked against both
//!   the [`TrialResult`](voxel_core::TrialResult) and the raw JSONL
//!   timeline.
//! - [`runner`]: runs a scenario's trials through
//!   [`voxel_core::experiment::run_instrumented_trial`] with the timeline
//!   captured in memory, the scenario's [`FaultPlane`](voxel_netem::FaultPlane)
//!   armed, and all oracles applied.
//! - [`sweep`]: runs every scenario across K seeds; on failure, shrinks to
//!   the smallest failing `(seed, trial-count, trace-prefix)` triple and
//!   emits a ready-to-paste `#[test]` reproduction.
//! - [`digest`]: stable FNV-1a digests of the timelines of the one
//!   [`GOLDENS`] table (scenarios and fleets), verified against
//!   `tests/golden/` and re-blessed with `VOXEL_BLESS=1`.
//!
//! The tier-2 entry point is `cargo run --release -p voxel-bench --bin
//! conformance`; `tests/testkit.rs` and `tests/golden_digests.rs` keep a
//! bounded slice of the same checks in tier-1.

pub mod digest;
pub mod fleet;
pub mod oracle;
pub mod runner;
pub mod scenario;
pub mod sweep;

pub use digest::{
    check_or_bless, fnv64, run_golden, timeline_digest, Emitted, Golden, GoldenRun, GoldenStatus,
    GOLDENS,
};
pub use fleet::{
    cc_group_shares, edge_hot_invariants, fleet_invariants, run_fleet_traced,
    shard_parity_failures, FleetRun, EDGE_HOT_HIT_RATIO_FLOOR, EDGE_HOT_ORIGIN_FRACTION_OF_COLD,
};
pub use oracle::Bounds;
pub use runner::{run_scenario, Content, ScenarioRun, TrialRun};
pub use scenario::{
    system_by_name, Inject, Matrix, Scenario, Spec, SpecError, TraceFamily, TraceFault,
};
pub use sweep::{minimize, run_sweep, Repro, SweepOptions, SweepReport};
