#![warn(missing_docs)]
//! # voxel-core
//!
//! The end-to-end VOXEL system: a DASH video server and a headless player
//! client joined by QUIC\* over the emulated bottleneck path, plus the
//! experiment harness that reproduces the paper's evaluation protocol.
//!
//! - [`server`]: serves the extended manifest and segment byte ranges over
//!   reliable or unreliable streams, honouring `x-voxel-unreliable`.
//! - [`client`]: the player — ABR-driven segment fetching (reliable
//!   I-frame/headers + unreliable bodies), buffer and stall accounting,
//!   segment abandonment, selective retransmission during buffer-full
//!   periods, zero-padding and QoE scoring of partial segments.
//! - [`session`]: the deterministic session event loop (`SessionCore`)
//!   wiring client and server together over a `Wire` — a private emulated
//!   path for one playback trial, the shared-link outbox in a fleet.
//! - [`metrics`]: per-trial results (bufRatio, bitrates, SSIM/VMAF/PSNR
//!   distributions, skipped data, retransmission recovery) and aggregation
//!   helpers for the figures.
//! - [`experiment`]: named configurations (ABR × transport × trace × buffer)
//!   and the 30-trial shifted-trace protocol of §5.
//! - [`survey`]: the synthetic user panel regenerating the Fig 14 MOS study.

pub mod client;
pub mod content;
pub mod experiment;
pub mod metrics;
pub mod server;
pub mod session;
pub mod survey;

pub use client::{PlayerConfig, TransportMode};
pub use content::{Admission, CacheConfig, ContentCache, EdgeCache, EvictionPolicy};
pub use content::{ObjectKey, ObjectKind};
pub use experiment::{AbrKind, Config, Experiment, ExperimentBuilder, Tracing};
pub use metrics::{Aggregate, TransportStats, TrialResult};
pub use server::{ServeNote, ServerApp};
pub use session::Session;
