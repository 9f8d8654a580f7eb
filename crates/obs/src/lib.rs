#![warn(missing_docs)]
//! # voxel-obs
//!
//! Self-observability for the VOXEL simulator: where `voxel-trace` records
//! what the *protocols* did, this crate records what the *runtime* cost —
//! a sampling hot-path profiler and a crash-context flight recorder
//! (DESIGN.md §13).
//!
//! - [`Profiler`]: hierarchical spans (`obs::span!("quic.on_datagram")`)
//!   accumulating wall time and call counts into a per-thread tree.
//!   Event loops call [`arm`] once per iteration; only 1-in-`sample`
//!   iterations take real clock readings, keeping enabled overhead under
//!   the 5% budget ci.sh enforces. Reports scale back by the sampling factor and reconcile
//!   with measured wall time.
//! - [`FlightRecorder`]: a bounded ring of recent trace events teed off
//!   any sink, rendered as a pasteable postmortem (plus live profiler
//!   state) when a testkit oracle or paranoid audit fails.
//!
//! **Determinism contract:** wall-clock readings are quarantined inside
//! profile reports and never reach simulation state — golden timelines
//! are byte-identical with the profiler armed.

pub mod profile;
pub mod recorder;

pub use profile::{FlatRow, InstallGuard, ProfileReport, Profiler, ReportNode, SpanGuard};
pub use recorder::{FlightRecorder, RecorderGuard, RecorderSink, DEFAULT_CAPACITY};

pub use profile::{arm, armed, observe};
pub use recorder::{current as current_recorder, dump_current, install as install_recorder};

/// Open a profiling span for the enclosing scope.
///
/// Returns `Option<SpanGuard>` — `None` (free) unless the current
/// event-loop iteration is armed. Bind it so it lives to scope end:
///
/// ```
/// use voxel_obs::Profiler;
///
/// let profiler = Profiler::with_sample(1);
/// let _install = profiler.install();
/// voxel_obs::arm(0);
/// {
///     let _span = voxel_obs::span!("quic.on_datagram");
///     // ... hot-path work ...
/// }
/// {
///     // Per-instance spans take a discriminator (e.g. the fleet flow).
///     let _span = voxel_obs::span!("fleet.session", 3);
/// }
/// drop(_install);
/// assert_eq!(profiler.report().unwrap().flat().len(), 2);
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::SpanGuard::enter($name, 0)
    };
    ($name:literal, $idx:expr) => {
        $crate::SpanGuard::enter($name, $idx as u32)
    };
}
