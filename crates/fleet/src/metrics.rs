//! Cross-session fleet metrics: throughput shares, Jain fairness,
//! aggregate QoE.

use crate::edge::EdgeReport;
use voxel_core::TrialResult;
use voxel_netem::FlowStats;

/// Jain's fairness index `(Σx)² / (n·Σx²)`: 1 for a perfectly even
/// allocation, `1/n` when one flow takes everything. Degenerate inputs
/// (empty, or all-zero) count as fair.
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sq)
}

/// The outcome of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Canonical spec of the fleet that ran.
    pub spec: String,
    /// Per-session trial results, in flow-id order.
    pub sessions: Vec<TrialResult>,
    /// Per-flow link accounting, in flow-id order.
    pub flows: Vec<FlowStats>,
    /// Per-flow share of delivered link bytes, percent (sums to ~100
    /// when anything was delivered).
    pub shares_pct: Vec<f64>,
    /// Jain fairness index over delivered bytes.
    pub jain: f64,
    /// Simulated end time of the whole fleet, seconds.
    pub end_s: f64,
    /// Event-loop iterations the run took (the steps/sec perf metric).
    pub loop_iters: u64,
    /// The edge tier's report (`None` without a topology). Compared
    /// field-for-field by the sharded-parity suite, like the timeline.
    pub edge: Option<EdgeReport>,
}

impl FleetResult {
    /// Mean per-session average SSIM (the aggregate QoE headline).
    pub fn mean_ssim(&self) -> f64 {
        mean(self.sessions.iter().map(|r| r.avg_ssim()))
    }

    /// Total stall time across every session, seconds.
    pub fn total_stall_s(&self) -> f64 {
        self.sessions.iter().map(|r| r.stall_s).sum()
    }

    /// Link packets dropped across every flow.
    pub fn total_drops(&self) -> u64 {
        self.flows.iter().map(|f| f.dropped).sum()
    }

    /// Whether every session played its video to the end.
    pub fn all_completed(&self) -> bool {
        self.sessions.iter().all(|r| r.completed)
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in xs {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_bounds() {
        assert!((jain_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let skewed = jain_index(&[1.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12, "{skewed}");
        let mild = jain_index(&[3.0, 2.0, 2.5, 2.8]);
        assert!(mild > 0.9 && mild <= 1.0, "{mild}");
        assert!((jain_index(&[]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[0.0, 0.0]) - 1.0).abs() < 1e-12);
    }
}
