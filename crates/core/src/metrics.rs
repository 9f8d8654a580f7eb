//! Per-trial results and aggregation helpers for the figures.

use voxel_media::qoe::QoeScores;
use voxel_trace::MetricsSnapshot;

/// Transport-layer statistics of one trial, taken from the server-side
/// (data-sending) QUIC\* connection at session end. Every field comes
/// from the connection's own accounting, so a result is the same whether
/// or not the session was traced.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct TransportStats {
    /// Packets sent.
    pub packets_sent: u64,
    /// Packets declared lost.
    pub packets_lost: u64,
    /// Loss events (bursts the congestion controller reacted to once).
    pub loss_events: u64,
    /// PTO fires.
    pub ptos: u64,
    /// Ack-eliciting wire bytes sent.
    pub bytes_sent: u64,
    /// Reliable-stream payload bytes retransmitted.
    pub bytes_retransmitted: u64,
    /// Mean congestion window over all sends, bytes.
    pub mean_cwnd_bytes: f64,
    /// Mean smoothed RTT over all acks, milliseconds.
    pub mean_srtt_ms: f64,
    /// Packets the *client-side* connection received (the receiver of the
    /// video data — where injected reordering/duplication shows up).
    pub client_packets_received: u64,
    /// Client-side packets discarded as duplicates.
    pub client_packets_duplicate: u64,
    /// Client-side packets that arrived out of order.
    pub client_packets_reordered: u64,
}

/// Outcome of one playback trial (one video, one trace shift).
#[derive(Debug, Default, Clone)]
pub struct TrialResult {
    /// Video short name (BBB, ED, …).
    pub video: String,
    /// ABR display name.
    pub abr: String,
    /// Total stall time after playback start, seconds.
    pub stall_s: f64,
    /// Video duration, seconds.
    pub duration_s: f64,
    /// Startup delay (first segment ready), seconds.
    pub startup_s: f64,
    /// Per-segment delivered bitrate in kbps (bits delivered / 4 s).
    pub segment_kbps: Vec<f64>,
    /// Per-segment QoE scores at play time (after any recovery).
    pub segment_scores: Vec<QoeScores>,
    /// Total bytes downloaded (including waste).
    pub bytes_downloaded: u64,
    /// Bytes discarded by restart-style abandonment (BOLA/BETA waste).
    pub bytes_wasted: u64,
    /// Full-segment payload bytes that were *not* downloaded (skipped).
    pub bytes_skipped: u64,
    /// Payload bytes of all complete segments had everything been fetched.
    pub bytes_full: u64,
    /// Restart-abandonment count.
    pub restarts: u32,
    /// Keep-partial abandonment count.
    pub kept_partials: u32,
    /// Unreliable-stream bytes lost in transit.
    pub bytes_lost: u64,
    /// Lost bytes later recovered by selective retransmission.
    pub bytes_recovered: u64,
    /// Segments that ended with at least one dropped/partial frame.
    pub segments_with_drops: u32,
    /// Dropped frames across the session.
    pub frames_dropped: u32,
    /// Dropped frames that were referenced by other frames.
    pub referenced_frames_dropped: u32,
    /// Transport-layer statistics (server-side connection).
    pub transport: TransportStats,
    /// Metrics-registry snapshot at session end (None with tracing off).
    pub metrics: Option<MetricsSnapshot>,
    /// Whether the session ran to completion. `false` means the safety cap
    /// froze the trial mid-stream, so stall/QoE figures are lower bounds.
    pub completed: bool,
}

impl TrialResult {
    /// The paper's headline metric: total stall time / video duration
    /// ("bufRatio"), in percent.
    pub fn buf_ratio_pct(&self) -> f64 {
        100.0 * self.stall_s / self.duration_s.max(1e-9)
    }

    /// Mean delivered bitrate in kbps.
    pub fn avg_bitrate_kbps(&self) -> f64 {
        voxel_sim::stats::mean(&self.segment_kbps)
    }

    /// Mean segment SSIM.
    pub fn avg_ssim(&self) -> f64 {
        let v: Vec<f64> = self.segment_scores.iter().map(|s| s.ssim).collect();
        voxel_sim::stats::mean(&v)
    }

    /// All segment SSIMs.
    pub fn ssims(&self) -> Vec<f64> {
        self.segment_scores.iter().map(|s| s.ssim).collect()
    }

    /// All segment VMAF scores.
    pub fn vmafs(&self) -> Vec<f64> {
        self.segment_scores.iter().map(|s| s.vmaf).collect()
    }

    /// Percent of segment data skipped (Fig 7d).
    pub fn data_skipped_pct(&self) -> f64 {
        100.0 * self.bytes_skipped as f64 / self.bytes_full.max(1) as f64
    }

    /// Fraction of in-transit losses left unrecovered after selective
    /// retransmission (§4.2 reports 0.9–1.8 %).
    pub fn residual_loss_pct(&self) -> f64 {
        if self.bytes_lost == 0 {
            return 0.0;
        }
        100.0 * (self.bytes_lost - self.bytes_recovered.min(self.bytes_lost)) as f64
            / self.bytes_lost as f64
    }
}

/// Aggregate of several trials of one configuration — the paper reports
/// "the 90th-percentile and standard error … for 30 trials".
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// The trials.
    pub trials: Vec<TrialResult>,
}

impl Aggregate {
    /// Wrap a set of trials.
    pub fn new(trials: Vec<TrialResult>) -> Aggregate {
        Aggregate { trials }
    }

    /// 90th-percentile bufRatio across trials, in percent (Figs 3, 5, 6…).
    pub fn buf_ratio_p90(&self) -> f64 {
        let v: Vec<f64> = self.trials.iter().map(|t| t.buf_ratio_pct()).collect();
        voxel_sim::stats::percentile(&v, 0.9)
    }

    /// Mean bufRatio across trials, percent.
    pub fn buf_ratio_mean(&self) -> f64 {
        let v: Vec<f64> = self.trials.iter().map(|t| t.buf_ratio_pct()).collect();
        voxel_sim::stats::mean(&v)
    }

    /// Trials that ran to completion (the safety cap never fired).
    pub fn completed_trials(&self) -> usize {
        self.trials.iter().filter(|t| t.completed).count()
    }

    /// Trials abandoned at the safety cap.
    pub fn abandoned_trials(&self) -> usize {
        self.trials.len() - self.completed_trials()
    }

    /// Standard error of the per-trial bufRatio, over *completed* trials.
    ///
    /// Abandoned trials report a frozen lower-bound bufRatio, not a sample
    /// from the same distribution; including them used to shrink the error
    /// bar by inflating `n` to the configured trial count. The point
    /// estimates (`buf_ratio_p90`, `buf_ratio_mean`) still pool every
    /// trial so severe-starvation configurations are not censored.
    pub fn buf_ratio_stderr(&self) -> f64 {
        let v: Vec<f64> = self
            .trials
            .iter()
            .filter(|t| t.completed)
            .map(|t| t.buf_ratio_pct())
            .collect();
        voxel_sim::stats::std_err(&v)
    }

    /// Mean of per-trial average bitrates, kbps (Figs 4, 8…).
    pub fn bitrate_mean_kbps(&self) -> f64 {
        let v: Vec<f64> = self.trials.iter().map(|t| t.avg_bitrate_kbps()).collect();
        voxel_sim::stats::mean(&v)
    }

    /// All segment SSIMs pooled across trials (for CDFs, Figs 7b, 9…).
    pub fn pooled_ssims(&self) -> Vec<f64> {
        self.trials.iter().flat_map(|t| t.ssims()).collect()
    }

    /// All segment VMAFs pooled across trials.
    pub fn pooled_vmafs(&self) -> Vec<f64> {
        self.trials.iter().flat_map(|t| t.vmafs()).collect()
    }

    /// Mean SSIM across all segments of all trials.
    pub fn mean_ssim(&self) -> f64 {
        voxel_sim::stats::mean(&self.pooled_ssims())
    }

    /// Mean percent of data skipped.
    pub fn data_skipped_mean_pct(&self) -> f64 {
        let v: Vec<f64> = self.trials.iter().map(|t| t.data_skipped_pct()).collect();
        voxel_sim::stats::mean(&v)
    }

    /// Mean residual loss percent (selective-retransmission effectiveness).
    pub fn residual_loss_mean_pct(&self) -> f64 {
        let v: Vec<f64> = self.trials.iter().map(|t| t.residual_loss_pct()).collect();
        voxel_sim::stats::mean(&v)
    }

    /// Mean congestion window across trials, bytes.
    pub fn mean_cwnd_bytes(&self) -> f64 {
        let v: Vec<f64> = self
            .trials
            .iter()
            .map(|t| t.transport.mean_cwnd_bytes)
            .collect();
        voxel_sim::stats::mean(&v)
    }

    /// Mean loss-event count per trial.
    pub fn mean_loss_events(&self) -> f64 {
        let v: Vec<f64> = self
            .trials
            .iter()
            .map(|t| t.transport.loss_events as f64)
            .collect();
        voxel_sim::stats::mean(&v)
    }

    /// Mean PTO count per trial.
    pub fn mean_ptos(&self) -> f64 {
        let v: Vec<f64> = self
            .trials
            .iter()
            .map(|t| t.transport.ptos as f64)
            .collect();
        voxel_sim::stats::mean(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(stall: f64, kbps: f64, ssim: f64) -> TrialResult {
        TrialResult {
            video: "BBB".into(),
            abr: "TEST".into(),
            stall_s: stall,
            duration_s: 300.0,
            startup_s: 1.0,
            segment_kbps: vec![kbps; 75],
            segment_scores: vec![
                QoeScores {
                    ssim,
                    vmaf: 90.0,
                    psnr_db: 40.0
                };
                75
            ],
            bytes_downloaded: 1000,
            bytes_wasted: 100,
            bytes_skipped: 50,
            bytes_full: 1000,
            restarts: 1,
            kept_partials: 2,
            bytes_lost: 200,
            bytes_recovered: 150,
            segments_with_drops: 3,
            frames_dropped: 10,
            referenced_frames_dropped: 4,
            transport: TransportStats::default(),
            metrics: None,
            completed: true,
        }
    }

    #[test]
    fn buf_ratio_is_stall_over_duration() {
        let t = trial(15.0, 4000.0, 0.99);
        assert!((t.buf_ratio_pct() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn skipped_and_residual_percentages() {
        let t = trial(0.0, 4000.0, 0.99);
        assert!((t.data_skipped_pct() - 5.0).abs() < 1e-9);
        assert!((t.residual_loss_pct() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn residual_loss_zero_when_no_loss() {
        let mut t = trial(0.0, 1.0, 0.9);
        t.bytes_lost = 0;
        assert_eq!(t.residual_loss_pct(), 0.0);
    }

    #[test]
    fn aggregate_percentiles() {
        let trials: Vec<TrialResult> = (0..10)
            .map(|i| trial(i as f64 * 3.0, 4000.0, 0.99))
            .collect();
        let agg = Aggregate::new(trials);
        // stalls 0..27 s → bufRatio 0..9 %, p90 = 8.1 %.
        assert!((agg.buf_ratio_p90() - 8.1).abs() < 1e-9);
        assert!((agg.buf_ratio_mean() - 4.5).abs() < 1e-9);
        assert!(agg.buf_ratio_stderr() > 0.0);
        assert_eq!(agg.pooled_ssims().len(), 750);
        assert!((agg.mean_ssim() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn stderr_counts_only_completed_trials() {
        // Four configured trials, one abandoned at the safety cap. The
        // standard error must be computed over the three completed trials
        // (n = 3), not the configured four — the old behavior divided by
        // sqrt(4) and shrank the error bar.
        let mut trials: Vec<TrialResult> = [6.0, 12.0, 24.0]
            .iter()
            .map(|&s| trial(s, 4000.0, 0.99))
            .collect();
        let mut abandoned = trial(150.0, 500.0, 0.7);
        abandoned.completed = false;
        trials.push(abandoned);
        let agg = Aggregate::new(trials);
        assert_eq!(agg.completed_trials(), 3);
        assert_eq!(agg.abandoned_trials(), 1);
        // bufRatios of the completed trials: 2, 4, 8 %.
        let expect = voxel_sim::stats::std_err(&[2.0, 4.0, 8.0]);
        assert!(
            (agg.buf_ratio_stderr() - expect).abs() < 1e-12,
            "stderr {} vs completed-only {expect}",
            agg.buf_ratio_stderr()
        );
        // The abandoned trial still pollutes n=4 statistics if included.
        let wrong = voxel_sim::stats::std_err(&[2.0, 4.0, 8.0, 50.0]);
        assert!((agg.buf_ratio_stderr() - wrong).abs() > 1e-6);
        // Point estimates keep pooling all four trials.
        assert!((agg.buf_ratio_mean() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn stderr_of_all_abandoned_trials_is_zero() {
        let mut t = trial(10.0, 100.0, 0.8);
        t.completed = false;
        let agg = Aggregate::new(vec![t]);
        assert_eq!(agg.completed_trials(), 0);
        assert_eq!(agg.buf_ratio_stderr(), 0.0);
    }

    #[test]
    fn transport_means_aggregate() {
        let mut a = trial(0.0, 1.0, 0.9);
        a.transport.loss_events = 4;
        a.transport.ptos = 2;
        a.transport.mean_cwnd_bytes = 100_000.0;
        let mut b = trial(0.0, 1.0, 0.9);
        b.transport.loss_events = 6;
        b.transport.mean_cwnd_bytes = 200_000.0;
        let agg = Aggregate::new(vec![a, b]);
        assert_eq!(agg.mean_loss_events(), 5.0);
        assert_eq!(agg.mean_ptos(), 1.0);
        assert_eq!(agg.mean_cwnd_bytes(), 150_000.0);
    }
}
