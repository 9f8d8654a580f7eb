#![warn(missing_docs)]
//! # VOXEL
//!
//! Umbrella crate re-exporting the full VOXEL system — a reproduction of
//! "VOXEL: Cross-layer Optimization for Video Streaming with Imperfect
//! Transmission" (CoNEXT '21). See the README for a quickstart and
//! `DESIGN.md` for the architecture.
//!
//! Most programs only need [`prelude`]:
//!
//! ```no_run
//! use voxel::prelude::*;
//!
//! let cache = ContentCache::new();
//! let agg = Experiment::builder()
//!     .video(VideoId::Bbb)
//!     .abr(AbrKind::voxel())
//!     .trace(BandwidthTrace::constant(6.0, 300))
//!     .trials(4)
//!     .build()
//!     .run(&cache);
//! println!("bufRatio p90 = {:.2}%", agg.buf_ratio_p90());
//! ```
//!
//! The per-crate modules ([`core`], [`quic`], …) stay available for deep
//! work on a single layer.

pub use voxel_abr as abr;
pub use voxel_core as core;
pub use voxel_fleet as fleet;
pub use voxel_http as http;
pub use voxel_media as media;
pub use voxel_netem as netem;
pub use voxel_obs as obs;
pub use voxel_prep as prep;
pub use voxel_quic as quic;
pub use voxel_sim as sim;
pub use voxel_testkit as testkit;
pub use voxel_trace as trace;

/// One-stop imports for the common workflows: configure an experiment
/// with [`Experiment::builder`](crate::core::Experiment::builder), run
/// it against a [`ContentCache`](crate::core::ContentCache), trace it
/// with [`Tracing`](crate::core::Tracing), name any run — one session
/// or a fleet — with a [`Spec`](crate::testkit::Spec) string, and
/// conformance-test it with the testkit types.
pub mod prelude {
    pub use crate::core::client::{ClientApp, PlayerConfig, TransportMode};
    pub use crate::core::experiment::run_instrumented_trial;
    pub use crate::core::server::ServerApp;
    pub use crate::core::session::Session;
    pub use crate::core::{
        AbrKind, Admission, Aggregate, CacheConfig, Config, ContentCache, EvictionPolicy,
        Experiment, ExperimentBuilder, Tracing, TransportStats, TrialResult,
    };
    pub use crate::fleet::{
        jain_index, run_fleet, run_fleet_workload, zipf_poisson_arrivals, EdgeReport, FleetMember,
        FleetResult, FleetSpec, Routing, SpecError, TopologySpec, Workload,
    };
    pub use crate::media::content::VideoId;
    pub use crate::media::ladder::QualityLevel;
    pub use crate::media::qoe::{QoeMetric, QoeModel};
    pub use crate::media::video::Video;
    pub use crate::netem::trace::generators;
    pub use crate::netem::{
        BandwidthTrace, Discipline, FaultKind, PathConfig, SharedLink, SharedLinkConfig,
        TraceFamily,
    };
    pub use crate::prep::manifest::Manifest;
    pub use crate::quic::CcKind;
    pub use crate::sim::{SimDuration, SimTime};
    pub use crate::testkit::{run_scenario, system_by_name, Content, Matrix, Scenario, Spec};
    pub use crate::trace::{Layer, Tracer};
}
