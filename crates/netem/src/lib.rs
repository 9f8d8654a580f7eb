#![warn(missing_docs)]
//! # voxel-netem
//!
//! Network emulation substrate reproducing the paper's testbed (§5
//! "Network testbed"): a one-hop server—router—client topology where the
//! router is the bottleneck, shaped per-second by a bandwidth trace, with a
//! droptail queue and a 30 ms "last-mile" delay on the router→client link.
//!
//! - [`trace`]: per-second bandwidth traces — synthetic generators matched
//!   to the statistics of the paper's recorded traces (T-Mobile / Verizon /
//!   AT&T LTE, the Riiser 3G set, FCC fixed-line) plus the constant and
//!   step traces of Fig 11, with the paper's linear offset-to-mean and the
//!   `d/30` shift protocol.
//! - [`family`]: the one trace name table — [`TraceFamily`] binds each
//!   spec token (`tmobile`) and figure legend (`T-Mobile`) to its
//!   generator, for every parser and bin in the workspace.
//! - [`crosstraffic`]: a Harpoon-like flow-level web-workload generator
//!   (Poisson session arrivals, bounded-Pareto transfer sizes) run through a
//!   fluid fair-sharing model to produce the bandwidth actually available
//!   to the video flow.
//! - [`shared`]: the one bottleneck model — a droptail queue served at the
//!   trace's rate, shared by N flows under FIFO (each departure fixed at
//!   enqueue) or deficit round robin (event-driven), with per-flow
//!   accounting. The fleet runtime in `voxel-fleet` drives it directly; a
//!   lone session's [`BottleneckPath`] is a one-flow FIFO link.
//! - [`fault`]: the seeded fault-injection plane the testkit threads
//!   through sessions — loss bursts, reorder/dup windows, bandwidth cliffs
//!   and stuck-trace stretches (DESIGN.md §11).
//! - [`origin`]: the edge → origin backhaul of the fleet's edge serving
//!   tier — a fluid FIFO object-fetch pipe cache misses fan in to
//!   (DESIGN.md §16).

pub mod crosstraffic;
pub mod family;
pub mod fault;
pub mod origin;
pub mod shared;
pub mod trace;

pub use family::TraceFamily;
pub use fault::{FaultKind, FaultPlane, PacketFate};
pub use origin::OriginLink;
pub use shared::{
    BottleneckPath, Departure, Discipline, FlowStats, PathConfig, SharedLink, SharedLinkConfig,
};
pub use trace::BandwidthTrace;
