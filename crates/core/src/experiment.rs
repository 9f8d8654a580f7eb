//! Experiment configurations and the §5 protocol.
//!
//! "An experiment involves streaming a video from a server to a client via
//! the router, under a fixed configuration. A configuration specifies the
//! ABR algorithm, buffer size, video, and network trace. Unless otherwise
//! stated, we repeat each experiment 30 times … For each repetition we
//! linearly shift the network trace by d/30 s."
//!
//! The entry point is [`Experiment::builder`]: a fluent builder covering
//! every knob of one session (ABR, transport, buffer, trace, queue,
//! trials, congestion control, tracing) with the paper's defaults. It is
//! the only construction surface for a session experiment; N sessions on
//! one link are described by `voxel_fleet::FleetSpec` and nothing else.

use crate::client::{PlayerConfig, TransportMode};
pub use crate::content::ContentCache;
use crate::metrics::{Aggregate, TrialResult};
use crate::session::Session;
use std::fmt;
use std::sync::Arc;
use voxel_abr::{Abr, AbrStar, Beta, Bola, BolaSsim, Mpc, MpcStar, ThroughputAbr};
use voxel_media::content::VideoId;
use voxel_media::qoe::{QoeMetric, QoeModel};
use voxel_media::video::Video;
use voxel_netem::{BandwidthTrace, FaultPlane, PathConfig};
use voxel_prep::manifest::Manifest;
use voxel_quic::CcKind;
use voxel_trace::Tracer;

/// Whether (and where) trials emit their cross-layer event timeline.
///
/// This is the single tracing entry point: the builder consumes it, and
/// every path that used to exist separately (`TraceMode` on the config,
/// `Session::with_tracer`, `Config::with_trace_jsonl`) routes through it.
/// The trace shift of a trial doubles as its session id.
#[derive(Clone, Default)]
pub enum Tracing {
    /// No tracing: the null path, zero overhead on the session hot loop.
    #[default]
    Off,
    /// One JSONL timeline (`trial-<shift>.jsonl`) plus one metrics
    /// snapshot (`trial-<shift>.metrics.json`) per trial, under `dir`.
    Jsonl {
        /// Output directory; created if missing.
        dir: std::path::PathBuf,
    },
    /// A caller-supplied tracer factory, invoked once per trial with the
    /// session id (the trace shift). This is how the testkit captures
    /// timelines into in-memory buffers.
    Custom(Arc<dyn Fn(u64) -> Tracer + Send + Sync>),
}

impl fmt::Debug for Tracing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tracing::Off => f.write_str("Off"),
            Tracing::Jsonl { dir } => f.debug_struct("Jsonl").field("dir", dir).finish(),
            Tracing::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

impl Tracing {
    /// JSONL timelines + metrics snapshots under `dir`.
    pub fn jsonl(dir: impl Into<std::path::PathBuf>) -> Tracing {
        Tracing::Jsonl { dir: dir.into() }
    }

    /// A custom per-trial tracer factory (receives the session id).
    pub fn custom(f: impl Fn(u64) -> Tracer + Send + Sync + 'static) -> Tracing {
        Tracing::Custom(Arc::new(f))
    }

    /// The tracer for the trial at `shift_s`.
    pub(crate) fn tracer_for(&self, shift_s: usize) -> Tracer {
        match self {
            Tracing::Off => Tracer::disabled(),
            Tracing::Jsonl { dir } => {
                let _ = std::fs::create_dir_all(dir);
                let path = dir.join(format!("trial-{shift_s:04}.jsonl"));
                Tracer::jsonl(shift_s as u64, &path).unwrap_or_else(|e| {
                    eprintln!(
                        "warning: cannot write timeline {}: {e}; tracing disabled",
                        path.display()
                    );
                    Tracer::disabled()
                })
            }
            Tracing::Custom(f) => f(shift_s as u64),
        }
    }

    /// Post-trial side output (the JSONL mode's metrics snapshot).
    pub(crate) fn write_sidecar(&self, shift_s: usize, result: &TrialResult) {
        if let (Tracing::Jsonl { dir }, Some(snap)) = (self, &result.metrics) {
            let _ = std::fs::write(
                dir.join(format!("trial-{shift_s:04}.metrics.json")),
                snap.to_json(),
            );
        }
    }
}

/// Which ABR algorithm a configuration runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AbrKind {
    /// Naive throughput matching.
    Tput,
    /// BOLA-E (state of the art).
    Bola,
    /// Robust MPC.
    Mpc,
    /// MPC\* — MPC with the curbed virtual-level search space (§4.3
    /// discussion, implemented here as an extension).
    MpcStar,
    /// BETA (reliable transport, b-frame tail).
    Beta,
    /// BOLA-SSIM (§4.3 intermediate).
    BolaSsim,
    /// ABR\* = VOXEL, with a bandwidth-safety factor and QoE metric.
    Voxel {
        /// Bandwidth-safety factor (1.0 aggressive; ≈0.85 tuned).
        safety: f64,
        /// QoE metric the utility optimizes.
        metric: QoeMetric,
    },
}

impl AbrKind {
    /// VOXEL with default (aggressive) tuning and SSIM utility.
    pub fn voxel() -> AbrKind {
        AbrKind::Voxel {
            safety: 1.0,
            metric: QoeMetric::Ssim,
        }
    }

    /// VOXEL with the Fig 6d "less aggressive" bandwidth-safety tuning.
    pub fn voxel_tuned() -> AbrKind {
        AbrKind::Voxel {
            safety: 0.85,
            metric: QoeMetric::Ssim,
        }
    }

    /// Instantiate the algorithm.
    pub fn make(&self) -> Box<dyn Abr> {
        match *self {
            AbrKind::Tput => Box::new(ThroughputAbr::default()),
            AbrKind::Bola => Box::new(Bola::new()),
            AbrKind::Mpc => Box::new(Mpc::default()),
            AbrKind::MpcStar => Box::new(MpcStar::default()),
            AbrKind::Beta => Box::new(Beta::new()),
            AbrKind::BolaSsim => Box::new(BolaSsim::default()),
            AbrKind::Voxel { safety, metric } => Box::new(AbrStar::with_safety(metric, safety)),
        }
    }

    /// Display name for figure rows.
    pub fn label(&self) -> String {
        match self {
            AbrKind::Tput => "Tput".into(),
            AbrKind::Bola => "BOLA".into(),
            AbrKind::Mpc => "MPC".into(),
            AbrKind::MpcStar => "MPC*".into(),
            AbrKind::Beta => "BETA".into(),
            AbrKind::BolaSsim => "BOLA-SSIM".into(),
            AbrKind::Voxel { metric, safety } => {
                let m = match metric {
                    QoeMetric::Ssim => "",
                    QoeMetric::Vmaf => "/VMAF",
                    QoeMetric::Psnr => "/PSNR",
                };
                if *safety < 1.0 {
                    format!("VOXEL{m} (tuned)")
                } else {
                    format!("VOXEL{m}")
                }
            }
        }
    }

    /// The transport this algorithm is evaluated with by default.
    pub(crate) fn default_transport(&self) -> TransportMode {
        match self {
            AbrKind::Beta => TransportMode::Reliable,
            AbrKind::Voxel { .. } | AbrKind::BolaSsim | AbrKind::MpcStar => TransportMode::Split,
            // Vanilla ABRs default to vanilla QUIC; §5.1 overrides to Split.
            _ => TransportMode::Reliable,
        }
    }
}

/// A full experiment configuration.
///
/// Assembled through [`Experiment::builder`]; the fields stay public for
/// inspection.
#[derive(Clone)]
pub struct Config {
    /// The video to stream.
    pub video: VideoId,
    /// The ABR algorithm.
    pub abr: AbrKind,
    /// Transport mode (defaults from the ABR; §5.1 overrides it).
    pub transport: TransportMode,
    /// Playback buffer capacity in segments.
    pub buffer_segments: usize,
    /// The bandwidth trace.
    pub trace: BandwidthTrace,
    /// Droptail queue length in packets (the paper's trace experiments use
    /// 32; Appendix B uses 750).
    pub queue_packets: usize,
    /// Number of trials (30 in the paper).
    pub trials: usize,
    /// Disable selective retransmission (and partial reliability stays per
    /// `transport`).
    pub selective_retx: bool,
    /// Congestion controller (CUBIC = the paper; Delay = Appendix B
    /// future-work ablation).
    pub cc: CcKind,
    /// Per-trial event tracing (off by default).
    pub tracing: Tracing,
    /// Testkit canary (DESIGN.md §11): deliberately skew the player's
    /// stall accounting so the conformance sweep's drift oracle has a
    /// known-bad target. Never enable in real experiments.
    pub debug_stall_skew: bool,
}

/// Fluent builder for [`Experiment`]s, with the paper's §5 defaults:
/// Big Buck Bunny, VOXEL over split transport, a 3-segment buffer, a
/// constant 8 Mbit/s 300 s trace, a 32-packet queue, 30 trials, CUBIC,
/// tracing off.
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    video: VideoId,
    abr: AbrKind,
    transport: Option<TransportMode>,
    buffer_segments: usize,
    trace: BandwidthTrace,
    queue_packets: usize,
    trials: usize,
    selective_retx: bool,
    cc: CcKind,
    tracing: Tracing,
    debug_stall_skew: bool,
}

impl Default for ExperimentBuilder {
    fn default() -> ExperimentBuilder {
        ExperimentBuilder {
            video: VideoId::Bbb,
            abr: AbrKind::voxel(),
            transport: None,
            buffer_segments: 3,
            trace: BandwidthTrace::constant(8.0, 300),
            queue_packets: 32,
            trials: 30,
            selective_retx: true,
            cc: CcKind::Cubic,
            tracing: Tracing::Off,
            debug_stall_skew: false,
        }
    }
}

impl ExperimentBuilder {
    /// The video to stream.
    pub fn video(mut self, video: VideoId) -> Self {
        self.video = video;
        self
    }

    /// The ABR algorithm. Unless [`ExperimentBuilder::transport`] is also
    /// called, the transport follows the algorithm's paper default.
    pub fn abr(mut self, abr: AbrKind) -> Self {
        self.abr = abr;
        self
    }

    /// Override the transport (e.g. vanilla ABRs over QUIC\*, §5.1).
    pub fn transport(mut self, t: TransportMode) -> Self {
        self.transport = Some(t);
        self
    }

    /// Playback buffer capacity in segments.
    pub fn buffer(mut self, segments: usize) -> Self {
        self.buffer_segments = segments;
        self
    }

    /// The bandwidth trace.
    pub fn trace(mut self, trace: BandwidthTrace) -> Self {
        self.trace = trace;
        self
    }

    /// Droptail queue length in packets.
    pub fn queue(mut self, packets: usize) -> Self {
        self.queue_packets = packets;
        self
    }

    /// Number of trials (§5 runs 30, shifting the trace by d/30 each).
    pub fn trials(mut self, n: usize) -> Self {
        self.trials = n;
        self
    }

    /// Enable or disable selective retransmission (only effective on the
    /// split transport).
    pub fn selective_retx(mut self, on: bool) -> Self {
        self.selective_retx = on;
        self
    }

    /// Congestion controller.
    pub fn cc(mut self, cc: CcKind) -> Self {
        self.cc = cc;
        self
    }

    /// Per-trial event tracing.
    pub fn tracing(mut self, tracing: Tracing) -> Self {
        self.tracing = tracing;
        self
    }

    /// Arm the testkit's stall-accounting canary (DESIGN.md §11). Never
    /// enable in real experiments.
    pub fn debug_stall_skew(mut self, on: bool) -> Self {
        self.debug_stall_skew = on;
        self
    }

    /// Finalize into an [`Experiment`].
    pub fn build(self) -> Experiment {
        let transport = self
            .transport
            .unwrap_or_else(|| self.abr.default_transport());
        Experiment {
            config: Config {
                video: self.video,
                abr: self.abr,
                transport,
                buffer_segments: self.buffer_segments,
                trace: self.trace,
                queue_packets: self.queue_packets,
                trials: self.trials,
                selective_retx: self.selective_retx,
                cc: self.cc,
                tracing: self.tracing,
                debug_stall_skew: self.debug_stall_skew,
            },
        }
    }
}

/// A fully-specified experiment, ready to run against a [`ContentCache`].
#[derive(Debug, Clone)]
pub struct Experiment {
    config: Config,
}

impl fmt::Debug for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Config")
            .field("video", &self.video)
            .field("abr", &self.abr)
            .field("transport", &self.transport)
            .field("buffer_segments", &self.buffer_segments)
            .field("trace", &self.trace.duration_s())
            .field("queue_packets", &self.queue_packets)
            .field("trials", &self.trials)
            .field("selective_retx", &self.selective_retx)
            .field("tracing", &self.tracing)
            .finish_non_exhaustive()
    }
}

impl Experiment {
    /// Start building an experiment from the paper's defaults.
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::default()
    }

    /// The underlying configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Consume into the underlying configuration.
    pub fn into_config(self) -> Config {
        self.config
    }

    /// The full §5 protocol: `trials` repetitions with the trace linearly
    /// shifted by `d/trials` per repetition, run on the work-stealing
    /// trial pool; results are ordered by shift regardless of completion
    /// order, keeping the aggregate bit-identical to a serial run.
    pub fn run(&self, cache: &ContentCache) -> Aggregate {
        run_config_impl(&self.config, cache)
    }

    /// Run one trial with the trace shifted by `shift_s`.
    pub fn run_trial(&self, cache: &ContentCache, shift_s: usize) -> TrialResult {
        run_trial_impl(&self.config, cache, shift_s)
    }
}

fn run_trial_impl(config: &Config, cache: &ContentCache, shift_s: usize) -> TrialResult {
    let (manifest, video) = cache.get(config.video);
    run_prepared_trial(config, &manifest, &video, &cache.qoe(), shift_s)
}

fn run_config_impl(config: &Config, cache: &ContentCache) -> Aggregate {
    let d = config.trace.duration_s();
    let n = config.trials.max(1);
    // Prepare the content once, up front, on this thread.
    let (manifest, video) = cache.get(config.video);
    let qoe = cache.qoe();
    let workers = voxel_sim::pool::default_workers(n);
    let results = voxel_sim::pool::run_indexed(n, workers, |i| {
        run_prepared_trial(config, &manifest, &video, &qoe, i * d / n)
    });
    Aggregate::new(results)
}

/// One trial against already-prepared content.
fn run_prepared_trial(
    config: &Config,
    manifest: &Arc<Manifest>,
    video: &Arc<Video>,
    qoe: &QoeModel,
    shift_s: usize,
) -> TrialResult {
    // The trace-shift doubles as the session id: it uniquely names the
    // trial within a configuration and keeps identically-seeded runs
    // byte-identical.
    let tracer = config.tracing.tracer_for(shift_s);
    let r = run_instrumented_trial(config, manifest, video, qoe, shift_s, tracer, None);
    config.tracing.write_sidecar(shift_s, &r);
    r
}

/// One trial with an explicit tracer and optional packet fault plane.
///
/// This is the testkit entry point: `voxel-testkit` captures timelines
/// into in-memory buffers (for oracles and golden digests) and injects
/// seeded packet faults. Everything else — path shaping, player wiring,
/// ABR instantiation — is identical to [`Experiment::run_trial`], so
/// conformance scenarios exercise the same code path as real experiments.
pub fn run_instrumented_trial(
    config: &Config,
    manifest: &Arc<Manifest>,
    video: &Arc<Video>,
    qoe: &QoeModel,
    shift_s: usize,
    tracer: Tracer,
    faults: Option<FaultPlane>,
) -> TrialResult {
    let trace = config.trace.shift(shift_s);
    let path = PathConfig::new(trace, config.queue_packets);
    let mut player = PlayerConfig::new(config.buffer_segments, config.transport);
    player.selective_retx = config.selective_retx && config.transport == TransportMode::Split;
    player.debug_stall_skew = config.debug_stall_skew;
    let mut session = Session::with_cc(
        path,
        manifest.clone(),
        video.clone(),
        qoe.clone(),
        config.abr.make(),
        player,
        config.cc,
    )
    .with_tracer(tracer);
    if let Some(plane) = faults {
        session = session.with_faults(plane);
    }
    let mut r = session.run();
    r.abr = config.abr.label();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abr_kinds_instantiate_with_expected_names() {
        for (kind, name) in [
            (AbrKind::Tput, "Tput"),
            (AbrKind::Bola, "BOLA"),
            (AbrKind::Mpc, "MPC"),
            (AbrKind::Beta, "BETA"),
            (AbrKind::BolaSsim, "BOLA-SSIM"),
            (AbrKind::voxel(), "VOXEL"),
        ] {
            assert_eq!(kind.make().name(), name);
        }
    }

    #[test]
    fn default_transports_match_the_paper() {
        assert_eq!(AbrKind::Beta.default_transport(), TransportMode::Reliable);
        assert_eq!(AbrKind::Bola.default_transport(), TransportMode::Reliable);
        assert_eq!(AbrKind::voxel().default_transport(), TransportMode::Split);
    }

    #[test]
    fn labels_distinguish_tuning_and_metric() {
        assert_eq!(AbrKind::voxel().label(), "VOXEL");
        assert_eq!(AbrKind::voxel_tuned().label(), "VOXEL (tuned)");
        let vmaf = AbrKind::Voxel {
            safety: 1.0,
            metric: QoeMetric::Vmaf,
        };
        assert_eq!(vmaf.label(), "VOXEL/VMAF");
    }

    #[test]
    fn builder_applies_every_knob() {
        let e = Experiment::builder()
            .video(VideoId::Bbb)
            .abr(AbrKind::Bola)
            .transport(TransportMode::Split)
            .buffer(5)
            .trace(BandwidthTrace::constant(10.0, 300))
            .queue(750)
            .trials(5)
            .selective_retx(false)
            .cc(CcKind::Delay)
            .build();
        let c = e.config();
        assert_eq!(c.transport, TransportMode::Split);
        assert_eq!(c.buffer_segments, 5);
        assert_eq!(c.trials, 5);
        assert_eq!(c.queue_packets, 750);
        assert!(!c.selective_retx);
        assert_eq!(c.cc, CcKind::Delay);
    }

    #[test]
    fn builder_transport_defaults_follow_the_abr() {
        let bola = Experiment::builder().abr(AbrKind::Bola).build();
        assert_eq!(bola.config().transport, TransportMode::Reliable);
        let voxel = Experiment::builder().abr(AbrKind::voxel()).build();
        assert_eq!(voxel.config().transport, TransportMode::Split);
        // An explicit transport wins regardless of call order.
        let forced = Experiment::builder()
            .transport(TransportMode::Split)
            .abr(AbrKind::Bola)
            .build();
        assert_eq!(forced.config().transport, TransportMode::Split);
    }

    #[test]
    fn builder_setters_apply() {
        let built = Experiment::builder()
            .abr(AbrKind::Bola)
            .transport(TransportMode::Split)
            .trace(BandwidthTrace::constant(10.0, 300))
            .trials(5)
            .queue(750)
            .selective_retx(false)
            .build();
        let c = built.config();
        assert_eq!(c.transport, TransportMode::Split);
        assert_eq!(c.trials, 5);
        assert_eq!(c.queue_packets, 750);
        assert!(!c.selective_retx);
    }

    #[test]
    fn builder_defaults_are_the_papers_section_5() {
        let built = Experiment::builder().build();
        let b = built.config();
        assert_eq!(b.video, VideoId::Bbb);
        assert_eq!(b.abr, AbrKind::voxel());
        assert_eq!(b.transport, TransportMode::Split);
        assert_eq!(b.buffer_segments, 3);
        assert_eq!(b.queue_packets, 32);
        assert_eq!(b.trials, 30);
        assert!(b.selective_retx);
        assert_eq!(b.cc, CcKind::Cubic);
    }

    #[test]
    fn cache_prepares_once() {
        let cache = ContentCache::new();
        let (m1, _) = cache.get(VideoId::YouTube(9));
        let (m2, _) = cache.get(VideoId::YouTube(9));
        assert!(Arc::ptr_eq(&m1, &m2));
    }
}
