//! Summary statistics used by every figure in the evaluation.
//!
//! The paper reports 90th-percentile values with standard errors across 30
//! trials (§5, "Experiments"), CDFs over segments, and means. These helpers
//! centralize those computations so each figure binary just formats rows.

/// Mean of a slice; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation; 0.0 for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Standard error of the mean.
pub fn std_err(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    std_dev(xs) / (xs.len() as f64).sqrt()
}

/// The `p`-quantile (0 ≤ p ≤ 1) with linear interpolation between order
/// statistics (the "type 7" estimator used by gnuplot/R, matching the
/// paper's plotting pipeline).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if v.len() == 1 {
        return v[0];
    }
    let h = p * (v.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        v[lo] + (h - lo as f64) * (v[hi] - v[lo])
    }
}

/// Evaluate an empirical CDF at fixed probe points: for each `probe`,
/// the fraction of samples ≤ probe. Handy for printing fixed-grid CDF rows.
pub fn ecdf_at(xs: &[f64], probes: &[f64]) -> Vec<(f64, f64)> {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    probes
        .iter()
        .map(|&p| {
            let count = v.partition_point(|&x| x <= p);
            (p, count as f64 / v.len().max(1) as f64)
        })
        .collect()
}

/// A running mean/min/max accumulator for streaming metrics.
#[derive(Debug, Clone, Default)]
pub struct Accumulator {
    n: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Accumulator {
            n: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        self.sum_sq += x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.sum_sq / self.n as f64 - m * m).max(0.0).sqrt()
    }

    /// Minimum observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Maximum observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
        assert!((std_err(&xs) - 2.0 / 8f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert!((percentile(&xs, 0.5) - 2.5).abs() < 1e-12);
        // 90th percentile of 1..=10 under type-7: 9.1
        let ten: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert!((percentile(&ten, 0.9) - 9.1).abs() < 1e-12);
    }

    #[test]
    fn percentile_of_singleton_and_empty() {
        assert_eq!(percentile(&[3.5], 0.9), 3.5);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }

    #[test]
    fn ecdf_at_probes() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let rows = ecdf_at(&xs, &[0.5, 2.0, 10.0]);
        assert_eq!(rows[0].1, 0.0);
        assert_eq!(rows[1].1, 0.5);
        assert_eq!(rows[2].1, 1.0);
    }

    #[test]
    fn empty_slices_are_benign() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(std_err(&[]), 0.0);
        // ecdf_at over no samples: every probe gets F = 0, not NaN.
        let rows = ecdf_at(&[], &[0.0, 1.0]);
        assert_eq!(rows, vec![(0.0, 0.0), (1.0, 0.0)]);
    }

    #[test]
    fn single_element_statistics() {
        let xs = [42.0];
        assert_eq!(mean(&xs), 42.0);
        assert_eq!(std_dev(&xs), 0.0);
        assert_eq!(std_err(&xs), 0.0);
        assert_eq!(percentile(&xs, 0.0), 42.0);
        assert_eq!(percentile(&xs, 0.5), 42.0);
        assert_eq!(percentile(&xs, 1.0), 42.0);
        let mut acc = Accumulator::new();
        acc.add(42.0);
        assert_eq!(acc.std_dev(), 0.0);
        assert_eq!((acc.min(), acc.max()), (Some(42.0), Some(42.0)));
    }

    #[test]
    fn percentile_extremes_hit_order_statistics_exactly() {
        // p = 0 and p = 1 must return min/max with no interpolation error,
        // including on unsorted input and negative values.
        let xs = [5.0, -3.0, 9.5, 0.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), -3.0);
        assert_eq!(percentile(&xs, 1.0), 9.5);
    }

    #[test]
    fn empty_accumulator_reports_nothing() {
        let acc = Accumulator::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.std_dev(), 0.0);
        assert_eq!(acc.min(), None);
        assert_eq!(acc.max(), None);
    }

    #[test]
    fn accumulator_matches_batch() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut acc = Accumulator::new();
        for &x in &xs {
            acc.add(x);
        }
        assert_eq!(acc.count(), 8);
        assert!((acc.mean() - mean(&xs)).abs() < 1e-12);
        assert!((acc.std_dev() - std_dev(&xs)).abs() < 1e-9);
        assert_eq!(acc.min(), Some(2.0));
        assert_eq!(acc.max(), Some(9.0));
    }
}
