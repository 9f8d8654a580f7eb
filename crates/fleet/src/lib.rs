#![warn(missing_docs)]
//! # voxel-fleet
//!
//! Multi-session serving runtime: N client sessions — possibly running
//! different ABRs (VOXEL, BOLA, BETA, …) — stream concurrently through
//! **one** emulated bottleneck link, inside one deterministic
//! discrete-event loop.
//!
//! The paper evaluates VOXEL one client at a time (§5); the ROADMAP
//! north-star is a production-scale system serving heavy traffic, where
//! CUBIC fairness and unreliable-stream behaviour interact across
//! competing sessions. This crate provides that testbed:
//!
//! - [`spec`]: the spec language's shared head ([`SpecHead`], one
//!   [`SpecError`]) and its fleet tail — [`FleetSpec`]
//!   (`BBB:4xVOXEL+2xBOLA+2xBETA:const6:buf3:q64:d300:drr:stg2`), the only
//!   way to say "N sessions on one link" — plus the system legend table.
//! - [`run`]: the sharded fleet runtime — per-session QUIC\* endpoint
//!   pairs, each with its **own** event queue, multiplexed over a
//!   [`voxel_netem::SharedLink`] (FIFO or deficit round robin with
//!   per-flow accounting). Sessions advance in conservative-parallel
//!   barrier rounds (lookahead = the link's propagation delay) and can
//!   shard across worker threads (the `:w<N>` spec token /
//!   `VOXEL_SHARD_WORKERS`); the link itself is pumped single-threaded
//!   between rounds. See DESIGN.md §14.
//! - [`edge`]: the edge/CDN serving tier — M edge servers with
//!   byte-budgeted, byte-range-aware caches in front of one shared
//!   origin backhaul, plus the zipf-popularity / Poisson-arrivals
//!   workload generator (DESIGN.md §16). Enabled per-spec via
//!   [`TopologySpec`]; absent, the runtime is byte-identical to the
//!   classic single-server fleet.
//! - [`metrics`]: cross-session metrics — per-flow throughput shares,
//!   the Jain fairness index, aggregate QoE — emitted through
//!   `voxel-trace` under the `fleet` layer.
//!
//! Determinism contract: a fleet run is a pure function of its
//! [`FleetSpec`] — same spec, byte-identical timeline, **at every worker
//! count** — which is what lets `voxel-testkit` hold fleet runs to
//! golden digests and to the sharded-parity suite.

pub mod edge;
pub mod metrics;
pub mod run;
mod shard;
pub mod spec;

pub use edge::{zipf_poisson_arrivals, EdgeReport, EdgeStats, Workload};
pub use metrics::{jain_index, FleetResult};
pub use run::{run_fleet, run_fleet_workload};
pub use spec::{
    system_by_name, systems, FleetMember, FleetSpec, Routing, SpecError, SpecHead, TopologySpec,
};
// Re-exported so spec consumers (testkit oracles, the `cc_shootout`
// exhibit) can match on `@cc` groups without a direct quic dependency.
pub use voxel_quic::CcKind;
