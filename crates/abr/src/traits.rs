//! The ABR interface shared by all six algorithms.

use voxel_media::ladder::QualityLevel;
use voxel_prep::analysis::QoePoint;
use voxel_prep::manifest::Manifest;

/// What the player tells an ABR before each segment decision.
#[derive(Debug, Clone, Copy)]
pub struct AbrContext<'a> {
    /// Index of the segment about to be fetched.
    pub segment_index: usize,
    /// Current playback buffer level in seconds.
    pub buffer_s: f64,
    /// Playback buffer capacity in seconds.
    pub buffer_capacity_s: f64,
    /// Smoothed throughput estimate in bits/second (None before the first
    /// sample).
    pub throughput_bps: Option<f64>,
    /// Conservative (harmonic/error-discounted) estimate for robust
    /// planning, bits/second.
    pub conservative_throughput_bps: Option<f64>,
    /// Quality of the previously fetched segment.
    pub last_level: Option<QualityLevel>,
    /// The (extended) manifest.
    pub manifest: &'a Manifest,
    /// Whether playback is currently stalled.
    pub rebuffering: bool,
}

impl AbrContext<'_> {
    /// Total bytes of `segment` at `level` (payload + headers) — the exact
    /// per-segment sizes the paper feeds BOLA and MPC instead of
    /// video-average bitrates (§5 "ABR algorithms", footnote 3).
    pub fn segment_bytes(&self, level: QualityLevel) -> u64 {
        self.manifest.entry(self.segment_index, level).total_bytes()
    }
}

/// The choice an ABR makes for one segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Quality level to fetch.
    pub level: QualityLevel,
    /// Partial-download target (VOXEL virtual quality level); `None` means
    /// download the complete segment.
    pub target: Option<QoePoint>,
}

impl Decision {
    /// Fetch the whole segment at `level`.
    pub fn full(level: QualityLevel) -> Decision {
        Decision {
            level,
            target: None,
        }
    }
}

/// Mid-download state reported to [`Abr::on_progress`].
#[derive(Debug, Clone, Copy)]
pub struct DownloadProgress {
    /// Payload bytes of the *unreliable/body* part received so far.
    pub bytes_received: u64,
    /// Target payload bytes of the current decision.
    pub bytes_target: u64,
    /// Seconds since the segment download started.
    pub elapsed_s: f64,
    /// Current buffer level in seconds.
    pub buffer_s: f64,
    /// Recent goodput of this download, bits/second.
    pub download_rate_bps: f64,
}

impl DownloadProgress {
    /// Estimated seconds to finish at the current rate.
    pub(crate) fn eta_s(&self) -> f64 {
        if self.download_rate_bps <= 0.0 {
            return f64::INFINITY;
        }
        (self.bytes_target.saturating_sub(self.bytes_received)) as f64 * 8.0
            / self.download_rate_bps
    }
}

/// What to do with an in-flight download.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AbandonAction {
    /// Keep downloading.
    Continue,
    /// Discard everything and restart this segment at `level` (classic
    /// BOLA/BETA abandonment — wastes the bytes already fetched).
    RestartAt(QualityLevel),
    /// VOXEL's extension (§4.3): stop here, keep the partial segment, and
    /// move on to the next segment.
    KeepPartial,
}

/// An adaptive-bitrate algorithm.
pub trait Abr {
    /// Display name used in figures.
    fn name(&self) -> &'static str;

    /// Decide quality (and optional partial target) for the next segment.
    fn choose(&mut self, ctx: &AbrContext<'_>) -> Decision;

    /// Consulted periodically during a download; default: never abandon.
    fn on_progress(
        &mut self,
        _ctx: &AbrContext<'_>,
        _progress: &DownloadProgress,
    ) -> AbandonAction {
        AbandonAction::Continue
    }

    /// Whether this ABR wants the VOXEL split (I-frame + headers reliable,
    /// bodies unreliable). Algorithms designed for vanilla QUIC return
    /// false and fetch everything reliably.
    fn uses_unreliable_transport(&self) -> bool {
        false
    }

    /// The player was idle (buffer full) for `_idle_s` seconds — lets
    /// BOLA-family algorithms grow their placeholder buffer.
    fn on_idle(&mut self, _idle_s: f64) {}

    /// Playback stalled — lets BOLA-family algorithms reset their
    /// placeholder buffer.
    fn on_rebuffer(&mut self) {}

    /// Structural audit of the algorithm's internal state (DESIGN.md
    /// §10); the `paranoid` runtime layer calls this at event-loop
    /// boundaries. Stateless algorithms have nothing to check.
    fn check_invariants(&self) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_full_has_no_target() {
        let d = Decision::full(QualityLevel(5));
        assert_eq!(d.level, QualityLevel(5));
        assert!(d.target.is_none());
    }

    #[test]
    fn progress_eta() {
        let p = DownloadProgress {
            bytes_received: 250_000,
            bytes_target: 1_250_000,
            elapsed_s: 1.0,
            buffer_s: 8.0,
            download_rate_bps: 4_000_000.0,
        };
        // 1 MB remaining at 4 Mbps = 2 s.
        assert!((p.eta_s() - 2.0).abs() < 1e-9);
        let stalled = DownloadProgress {
            download_rate_bps: 0.0,
            ..p
        };
        assert!(stalled.eta_s().is_infinite());
    }
}
