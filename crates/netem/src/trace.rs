//! Bandwidth traces and synthetic trace generators.
//!
//! The paper uses five recorded traces — 3 LTE traces from Winstein et al.
//! (T-Mobile, Verizon, AT&T), a 3G commute trace from Riiser et al., and an
//! FCC fixed-line broadband trace — each linearly offset so its mean matches
//! the 10 Mbps top bitrate, plus constant and step traces for the Fig 11
//! dissection. The recordings are not redistributable here, so we generate
//! synthetic traces matched to the statistics the paper reports:
//!
//! | trace    | std dev (paper) | character                        |
//! |----------|-----------------|----------------------------------|
//! | T-Mobile | ≈10 Mbps        | violent swings, deep outages     |
//! | Verizon  | ≈9 Mbps         | violent swings                   |
//! | AT&T     | 2.88 Mbps       | moderate variation               |
//! | 3G       | 1.1 Mbps        | mild variation (after offset)    |
//! | FCC      | 2.35 Mbps       | slow fixed-line variation        |
//!
//! The generators use a regime-switching AR(1) process (good/degraded/outage
//! states with Markov transitions) — the same burst structure cellular
//! recordings exhibit — and then apply the paper's linear offset so the mean
//! is exactly the requested value.

use voxel_sim::{SimRng, SimTime};

/// A per-second bandwidth trace in Mbps.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthTrace {
    /// Human-readable name (figure legends).
    pub name: String,
    /// Bandwidth in Mbps for each 1-second interval; the trace repeats
    /// cyclically past its end.
    pub mbps: Vec<f64>,
}

/// Minimum bandwidth floor in Mbps: even "outages" deliver a trickle
/// (keeps the simulation's integrals finite, as `tc` does with its token
/// bucket floor).
const FLOOR_MBPS: f64 = 0.05;

impl BandwidthTrace {
    /// Build from raw per-second Mbps samples.
    pub fn new(name: impl Into<String>, mbps: Vec<f64>) -> BandwidthTrace {
        assert!(!mbps.is_empty(), "trace must have at least one sample");
        let mbps = mbps.into_iter().map(|m| m.max(FLOOR_MBPS)).collect();
        BandwidthTrace {
            name: name.into(),
            mbps,
        }
    }

    /// Constant-rate trace (Fig 11 "const.").
    pub fn constant(mbps: f64, duration_s: usize) -> BandwidthTrace {
        Self::new(format!("constant-{mbps}"), vec![mbps; duration_s.max(1)])
    }

    /// Step trace: `before` Mbps until `step_at_s`, then `after` (Fig 11
    /// "step": 10.75 → 10.5 Mbps after 70 s).
    pub fn step(before: f64, after: f64, step_at_s: usize, duration_s: usize) -> BandwidthTrace {
        let mut v = vec![before; step_at_s.min(duration_s)];
        v.resize(duration_s.max(step_at_s + 1), after);
        Self::new(format!("step-{before}-{after}"), v)
    }

    /// Trace duration in seconds.
    pub fn duration_s(&self) -> usize {
        self.mbps.len()
    }

    /// Mean rate in Mbps.
    pub fn mean_mbps(&self) -> f64 {
        self.mbps.iter().sum::<f64>() / self.mbps.len() as f64
    }

    /// Standard deviation in Mbps.
    pub fn std_mbps(&self) -> f64 {
        voxel_sim::stats::std_dev(&self.mbps)
    }

    /// Rate at virtual time `t`, in bits/second (cyclic past the end).
    pub fn rate_bps(&self, t: SimTime) -> f64 {
        let idx = (t.as_micros() / 1_000_000) as usize % self.mbps.len();
        self.mbps[idx] * 1e6
    }

    /// The paper's linear offset: add a constant so the mean becomes
    /// `target_mbps` ("the adjustments leave the network throughput
    /// variations intact"). Samples are floored at a small positive rate.
    pub fn offset_to_mean(&self, target_mbps: f64) -> BandwidthTrace {
        let delta = target_mbps - self.mean_mbps();
        Self::new(
            self.name.clone(),
            self.mbps.iter().map(|m| m + delta).collect(),
        )
    }

    /// Cyclic shift by `seconds` — the 30-trial protocol shifts by `d/30` per
    /// repetition to explore interactions between throughput and VBR
    /// variations (§5 "Experiments").
    pub fn shift(&self, seconds: usize) -> BandwidthTrace {
        let n = self.mbps.len();
        let s = seconds % n;
        let mut v = Vec::with_capacity(n);
        v.extend_from_slice(&self.mbps[s..]);
        v.extend_from_slice(&self.mbps[..s]);
        BandwidthTrace {
            name: self.name.clone(),
            mbps: v,
        }
    }

    /// Truncate to the first `seconds` samples (at least one). The
    /// testkit's failure minimizer uses this to find the shortest trace
    /// prefix that still reproduces a failure; the prefix repeats
    /// cyclically like any other trace.
    pub fn prefix(&self, seconds: usize) -> BandwidthTrace {
        let n = seconds.clamp(1, self.mbps.len());
        BandwidthTrace {
            name: self.name.clone(),
            mbps: self.mbps[..n].to_vec(),
        }
    }

    /// Time at which `bytes` of service completes if service starts at
    /// `start` and proceeds at this trace's (piecewise-constant) rate.
    pub fn service_finish(&self, start: SimTime, bytes: u64) -> SimTime {
        let mut remaining_bits = bytes as f64 * 8.0;
        let mut t_us = start.as_micros();
        loop {
            let sec_idx = (t_us / 1_000_000) as usize % self.mbps.len();
            let rate_bps = self.mbps[sec_idx] * 1e6;
            let sec_end_us = (t_us / 1_000_000 + 1) * 1_000_000;
            let avail_us = (sec_end_us - t_us) as f64;
            let capacity_bits = rate_bps * avail_us / 1e6;
            if capacity_bits >= remaining_bits {
                let need_us = remaining_bits / rate_bps * 1e6;
                return SimTime::from_micros(t_us + need_us.ceil() as u64);
            }
            remaining_bits -= capacity_bits;
            t_us = sec_end_us;
        }
    }
}

/// Named generators for the five recorded traces of §5, matched to their
/// published statistics. `duration_s` is the trace length; experiments use
/// 300 s (one clip).
pub mod generators {
    use super::*;

    /// Regime-switching AR(1) generator.
    ///
    /// `mean`/`std` target the *offset* statistics; `outage_p` is the
    /// per-second probability of entering a deep-fade regime and
    /// `outage_len` its mean length in seconds.
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per knob of the generator"
    )]
    fn regime_ar1(
        name: &str,
        seed: u64,
        duration_s: usize,
        mean: f64,
        std: f64,
        rho: f64,
        outage_p: f64,
        outage_len: f64,
    ) -> BandwidthTrace {
        let mut rng = SimRng::derive(seed, name);
        let innovation = std * (1.0 - rho * rho).sqrt();
        let mut x = mean;
        let mut outage_left = 0.0f64;
        let mut v = Vec::with_capacity(duration_s);
        for _ in 0..duration_s {
            if outage_left > 0.0 {
                outage_left -= 1.0;
                // Deep fade: a trickle of bandwidth.
                v.push(rng.uniform_range(0.05, 0.4));
                continue;
            }
            if rng.chance(outage_p) {
                outage_left = rng.exponential(1.0 / outage_len).max(1.0);
            }
            x = mean + rho * (x - mean) + innovation * rng.normal();
            v.push(x.max(FLOOR_MBPS));
        }
        // Affine-fit the sample to the target mean/std. Flooring at the
        // trickle rate re-distorts the moments slightly, so iterate the fit;
        // a handful of rounds converges. (For recorded traces the paper only
        // shifts; a synthetic generator must also hit the published std.)
        for _ in 0..6 {
            let m = voxel_sim::stats::mean(&v);
            let s = voxel_sim::stats::std_dev(&v).max(1e-9);
            let scale = std / s;
            for x in v.iter_mut() {
                *x = (mean + (*x - m) * scale).max(FLOOR_MBPS);
            }
        }
        // Final exact mean correction (tiny, preserves fades ≥ floor).
        let m = voxel_sim::stats::mean(&v);
        let delta = mean - m;
        for x in v.iter_mut() {
            *x = (*x + delta).max(FLOOR_MBPS);
        }
        BandwidthTrace::new(name, v)
    }

    /// T-Mobile LTE (Winstein et al.): the most violently varying trace —
    /// std ≈ 10 Mbps after offsetting to a 10 Mbps mean, with deep fades.
    pub fn tmobile_lte(seed: u64, duration_s: usize) -> BandwidthTrace {
        regime_ar1("T-Mobile", seed, duration_s, 10.0, 10.0, 0.75, 0.05, 3.0)
    }

    /// Verizon LTE: similarly varying, std ≈ 9 Mbps.
    pub fn verizon_lte(seed: u64, duration_s: usize) -> BandwidthTrace {
        regime_ar1("Verizon", seed, duration_s, 10.0, 9.0, 0.72, 0.035, 2.0)
    }

    /// AT&T LTE: moderate variation, std ≈ 2.88 Mbps.
    pub fn att_lte(seed: u64, duration_s: usize) -> BandwidthTrace {
        regime_ar1("AT&T", seed, duration_s, 10.0, 2.88, 0.7, 0.004, 1.5)
    }

    /// The offset 3G trace of Fig 6b: std ≈ 1.1 Mbps around the 10 Mbps mean.
    pub fn norway_3g(seed: u64, duration_s: usize) -> BandwidthTrace {
        regime_ar1("3G", seed, duration_s, 10.0, 1.1, 0.8, 0.002, 1.5)
    }

    /// FCC fixed-line broadband: slow variation, std ≈ 2.35 Mbps.
    pub fn fcc(seed: u64, duration_s: usize) -> BandwidthTrace {
        regime_ar1("FCC", seed, duration_s, 10.0, 2.35, 0.93, 0.0, 1.0)
    }

    /// One of the 86 raw (un-offset) Riiser 3G commute traces used in the
    /// Fig 10 stress test: low means (1–4 Mbps) with commute-style dips.
    pub fn norway_3g_raw(index: usize, duration_s: usize) -> BandwidthTrace {
        assert!(index < 86, "the Riiser set has 86 traces");
        let seed = 0x3663 + index as u64;
        let mut rng = SimRng::derive(seed, "3g-raw-mean");
        let mean = rng.uniform_range(1.2, 4.0);
        let std = mean * rng.uniform_range(0.35, 0.6);
        regime_ar1(
            &format!("3G-raw-{index}"),
            seed,
            duration_s,
            mean,
            std,
            0.85,
            0.015,
            4.0,
        )
    }

    /// An "in-the-wild" university-WiFi-like trace for the Fig 11d/13
    /// experiments: high mean, moderate variation, occasional contention dips.
    pub fn wild_wifi(seed: u64, duration_s: usize) -> BandwidthTrace {
        regime_ar1("in-the-wild", seed, duration_s, 11.0, 3.5, 0.8, 0.01, 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::generators::*;
    use super::*;

    #[test]
    fn constant_trace_is_flat() {
        let t = BandwidthTrace::constant(10.5, 300);
        assert_eq!(t.duration_s(), 300);
        assert_eq!(t.mean_mbps(), 10.5);
        assert_eq!(t.std_mbps(), 0.0);
        assert_eq!(t.rate_bps(SimTime::from_secs(123)), 10.5e6);
    }

    #[test]
    fn step_trace_steps_at_the_right_time() {
        let t = BandwidthTrace::step(10.75, 10.5, 70, 300);
        assert_eq!(t.rate_bps(SimTime::from_secs(69)), 10.75e6);
        assert_eq!(t.rate_bps(SimTime::from_secs(70)), 10.5e6);
        assert_eq!(t.duration_s(), 300);
    }

    #[test]
    fn offset_to_mean_hits_target_exactly_when_no_flooring() {
        let t = BandwidthTrace::new("x", vec![4.0, 6.0, 8.0]);
        let o = t.offset_to_mean(10.0);
        assert!((o.mean_mbps() - 10.0).abs() < 1e-9);
        // Variations intact.
        assert!((o.std_mbps() - t.std_mbps()).abs() < 1e-9);
    }

    #[test]
    fn prefix_truncates_and_floors_at_one() {
        let t = BandwidthTrace::new("x", vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.prefix(2).mbps, vec![1.0, 2.0]);
        assert_eq!(t.prefix(0).mbps, vec![1.0]);
        assert_eq!(t.prefix(99).mbps, t.mbps);
    }

    #[test]
    fn shift_is_cyclic() {
        let t = BandwidthTrace::new("x", vec![1.0, 2.0, 3.0, 4.0]);
        let s = t.shift(1);
        assert_eq!(s.mbps, vec![2.0, 3.0, 4.0, 1.0]);
        let s2 = t.shift(5);
        assert_eq!(s2.mbps, vec![2.0, 3.0, 4.0, 1.0]);
        assert_eq!(t.shift(0).mbps, t.mbps);
    }

    #[test]
    fn rate_is_cyclic_past_end() {
        let t = BandwidthTrace::new("x", vec![1.0, 2.0]);
        assert_eq!(t.rate_bps(SimTime::from_secs(0)), 1e6);
        assert_eq!(t.rate_bps(SimTime::from_secs(3)), 2e6);
        assert_eq!(t.rate_bps(SimTime::from_secs(4)), 1e6);
    }

    #[test]
    fn service_finish_constant_rate() {
        let t = BandwidthTrace::constant(8.0, 10); // 1 MB/s
        let fin = t.service_finish(SimTime::ZERO, 500_000);
        assert_eq!(fin.as_micros(), 500_000);
    }

    #[test]
    fn service_finish_spans_rate_change() {
        // 1 Mbps for 1 s then 9 Mbps: 1 Mbit takes 1 s; next 0.9 Mbit takes 0.1 s.
        let t = BandwidthTrace::new("x", vec![1.0, 9.0]);
        let fin = t.service_finish(SimTime::ZERO, (1.9e6 / 8.0) as u64);
        assert!(
            (fin.as_secs_f64() - 1.1).abs() < 1e-3,
            "finish at {}",
            fin.as_secs_f64()
        );
    }

    #[test]
    fn service_finish_is_monotone_in_bytes() {
        let t = tmobile_lte(1, 300);
        let mut prev = SimTime::ZERO;
        for kb in [1u64, 10, 100, 1000, 10_000] {
            let fin = t.service_finish(SimTime::from_secs(5), kb * 1000);
            assert!(fin >= prev);
            prev = fin;
        }
    }

    #[test]
    fn lte_generators_match_published_stats() {
        for (t, target_std, tol) in [
            (tmobile_lte(7, 3000), 10.0, 0.35),
            (verizon_lte(7, 3000), 9.0, 0.35),
            (att_lte(7, 3000), 2.88, 0.3),
            (norway_3g(7, 3000), 1.1, 0.3),
            (fcc(7, 3000), 2.35, 0.3),
        ] {
            assert!(
                (t.mean_mbps() - 10.0).abs() < 0.01,
                "{}: mean {}",
                t.name,
                t.mean_mbps()
            );
            let rel = (t.std_mbps() - target_std).abs() / target_std;
            assert!(
                rel < tol,
                "{}: std {} vs {target_std}",
                t.name,
                t.std_mbps()
            );
        }
    }

    #[test]
    fn tmobile_has_deep_fades_fcc_does_not() {
        let tm = tmobile_lte(3, 1000);
        let fc = fcc(3, 1000);
        let tm_low = tm.mbps.iter().filter(|&&m| m < 1.0).count();
        let fc_low = fc.mbps.iter().filter(|&&m| m < 1.0).count();
        assert!(tm_low > 20, "T-Mobile deep fades: {tm_low}");
        assert!(fc_low < 10, "FCC deep fades: {fc_low}");
    }

    #[test]
    fn raw_3g_traces_are_low_bandwidth_and_distinct() {
        let a = norway_3g_raw(0, 300);
        let b = norway_3g_raw(1, 300);
        assert_ne!(a.mbps, b.mbps);
        for i in [0, 17, 42, 85] {
            let t = norway_3g_raw(i, 300);
            assert!(
                (0.5..5.0).contains(&t.mean_mbps()),
                "trace {i} mean {}",
                t.mean_mbps()
            );
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(tmobile_lte(9, 100).mbps, tmobile_lte(9, 100).mbps);
        assert_ne!(tmobile_lte(9, 100).mbps, tmobile_lte(10, 100).mbps);
    }

    #[test]
    #[should_panic(expected = "86 traces")]
    fn raw_3g_index_bounds() {
        let _ = norway_3g_raw(86, 10);
    }
}

/// Mahimahi trace interop.
///
/// Mahimahi (the tool the paper's cited Winstein et al. traces ship in)
/// describes a link as one line per 1500-byte packet-delivery opportunity,
/// each line the opportunity's time in integer milliseconds. These helpers
/// convert to/from the per-second Mbps representation used here, so
/// recorded cellular traces can be dropped into any experiment.
pub mod mahimahi {
    use super::BandwidthTrace;

    /// Bytes per mahimahi delivery opportunity.
    pub const MTU_BYTES: f64 = 1500.0;

    /// Serialize a trace to mahimahi lines.
    pub fn to_lines(trace: &BandwidthTrace) -> String {
        let mut out = String::new();
        let mut credit = 0.0f64;
        for (sec, &mbps) in trace.mbps.iter().enumerate() {
            // Deliveries this second, spread uniformly.
            credit += mbps * 1e6 / 8.0 / MTU_BYTES;
            let n = credit.floor() as u64;
            credit -= n as f64;
            for k in 0..n {
                let ms = sec as u64 * 1000 + k * 1000 / n.max(1);
                out.push_str(&ms.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// Parse mahimahi lines into a per-second trace.
    ///
    /// Returns `None` on any unparsable line. Empty input or input shorter
    /// than one second yields a single floor-rate bucket.
    pub fn from_lines(name: &str, text: &str) -> Option<BandwidthTrace> {
        let mut per_second: Vec<u64> = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let ms: u64 = line.parse().ok()?;
            let sec = (ms / 1000) as usize;
            if per_second.len() <= sec {
                per_second.resize(sec + 1, 0);
            }
            per_second[sec] += 1;
        }
        if per_second.is_empty() {
            per_second.push(0);
        }
        let mbps: Vec<f64> = per_second
            .iter()
            .map(|&n| n as f64 * MTU_BYTES * 8.0 / 1e6)
            .collect();
        Some(BandwidthTrace::new(name, mbps))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn roundtrip_preserves_rates() {
            let t = BandwidthTrace::new("x", vec![12.0, 6.0, 1.2, 24.0]);
            let lines = to_lines(&t);
            let back = from_lines("x", &lines).expect("parses");
            assert_eq!(back.duration_s(), 4);
            for (a, b) in t.mbps.iter().zip(&back.mbps) {
                // 1500-byte quantization: within one packet per second.
                assert!((a - b).abs() <= 0.013, "{a} vs {b}");
            }
        }

        #[test]
        fn lines_are_sorted_and_nonempty() {
            let t = BandwidthTrace::constant(10.0, 3);
            let lines = to_lines(&t);
            let ms: Vec<u64> = lines.lines().map(|l| l.parse().unwrap()).collect();
            assert!(!ms.is_empty());
            for w in ms.windows(2) {
                assert!(w[0] <= w[1]);
            }
            assert!(*ms.last().unwrap() < 3000);
        }

        #[test]
        fn malformed_input_is_rejected() {
            assert!(from_lines("x", "12\nabc\n").is_none());
        }

        #[test]
        fn empty_input_yields_floor_trace() {
            let t = from_lines("x", "").expect("parses");
            assert_eq!(t.duration_s(), 1);
            assert!(t.mean_mbps() < 0.1);
        }

        #[test]
        fn generated_trace_roundtrips_in_shape() {
            let t = super::super::generators::verizon_lte(5, 60);
            let back = from_lines("verizon", &to_lines(&t)).expect("parses");
            assert!((back.mean_mbps() - t.mean_mbps()).abs() < 0.2);
            assert!((back.std_mbps() - t.std_mbps()).abs() < 0.5);
        }
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Service completion is monotone in both start time and size, and
        /// conserves work: finishing N bytes then M more equals finishing
        /// N+M at once.
        #[test]
        fn service_finish_is_consistent(
            rates in proptest::collection::vec(0.05f64..50.0, 1..30),
            start_ms in 0u64..20_000,
            a in 1u64..2_000_000,
            b in 1u64..2_000_000,
        ) {
            let t = BandwidthTrace::new("p", rates);
            let start = SimTime::from_millis(start_ms);
            let f_a = t.service_finish(start, a);
            let f_ab = t.service_finish(start, a + b);
            prop_assert!(f_a >= start);
            prop_assert!(f_ab >= f_a, "more bytes finished earlier");
            // Work conservation: each call rounds its finish time up to the
            // next microsecond, so the chained variant can only finish
            // later — by at most the one lost microsecond re-served at the
            // worst-case rate ratio (fastest second's bits re-paid at the
            // slowest second's rate), ~1200 us for the 0.05..50 Mbps range.
            let chained = t.service_finish(f_a, b);
            let direct_us = f_ab.as_micros() as i64;
            let chained_us = chained.as_micros() as i64;
            prop_assert!(chained_us >= direct_us - 2,
                "chained {chained_us} finished before direct {direct_us}");
            prop_assert!(chained_us - direct_us <= 1200,
                "chained {chained_us} vs direct {direct_us}");
        }

        /// Mahimahi write→read round-trip: for arbitrary valid traces, the
        /// reconstructed per-second rates differ by at most one 1500-byte
        /// delivery opportunity (0.012 Mbps), and the shape is preserved.
        #[test]
        fn mahimahi_roundtrip_bounds_quantization(
            rates in proptest::collection::vec(0.05f64..60.0, 1..40),
        ) {
            let t = BandwidthTrace::new("p", rates);
            let lines = mahimahi::to_lines(&t);
            let back = mahimahi::from_lines("p", &lines).expect("own output parses");
            prop_assert_eq!(back.duration_s(), t.duration_s());
            // to_lines carries fractional-packet credit across seconds, so
            // any one second can be off by the floor()ed carry plus the
            // parse-side floor at FLOOR_MBPS.
            let mtu_mbps = mahimahi::MTU_BYTES * 8.0 / 1e6;
            for (a, b) in t.mbps.iter().zip(&back.mbps) {
                prop_assert!((a - b).abs() <= mtu_mbps + FLOOR_MBPS,
                    "second rate {a} came back as {b}");
            }
            prop_assert!((t.mean_mbps() - back.mean_mbps()).abs() <= mtu_mbps + FLOOR_MBPS);
        }

        /// Mahimahi read→write round-trip: arbitrary valid line sets
        /// reconstruct the same per-second delivery counts (within the one
        /// packet float credit can defer into the next second). Counts
        /// start above the FLOOR_MBPS equivalent (~4 pkts/s) — idle
        /// seconds legitimately come back at the floor rate, a lossy case
        /// the unit tests pin separately.
        #[test]
        fn mahimahi_read_write_preserves_counts(
            counts in proptest::collection::vec(5u64..200, 1..20),
        ) {
            let mut text = String::new();
            for (sec, &n) in counts.iter().enumerate() {
                for k in 0..n {
                    text.push_str(&format!("{}\n", sec as u64 * 1000 + (k * 1000) / n.max(1)));
                }
            }
            let t = mahimahi::from_lines("p", &text).expect("valid lines parse");
            prop_assert_eq!(t.duration_s(), counts.len());
            let lines2 = mahimahi::to_lines(&t);
            let back = mahimahi::from_lines("p", &lines2).expect("own output parses");
            for (sec, (&n, b)) in counts.iter().zip(&back.mbps).enumerate() {
                let n_back = (b / (mahimahi::MTU_BYTES * 8.0 / 1e6)).round() as i64;
                // Zero-count seconds come back at the trace floor, which
                // to_lines may round to a single opportunity.
                prop_assert!((n_back - n as i64).abs() <= 1 + i64::from(n == 0),
                    "second {sec}: {n} opportunities came back as {n_back}");
            }
        }

        /// Offsetting to a mean then measuring gives that mean (when no
        /// sample hits the floor), and shifting never changes the moments.
        #[test]
        fn offset_and_shift_preserve_stats(
            rates in proptest::collection::vec(5.0f64..50.0, 2..50),
            target in 8.0f64..30.0,
            shift in 0usize..100,
        ) {
            let t = BandwidthTrace::new("p", rates);
            // The mean is exact only when no offset sample hits the floor.
            let delta = target - t.mean_mbps();
            let min = t.mbps.iter().cloned().fold(f64::INFINITY, f64::min);
            prop_assume!(min + delta > 0.06);
            let o = t.offset_to_mean(target);
            prop_assert!((o.mean_mbps() - target).abs() < 1e-6);
            let s = t.shift(shift);
            prop_assert!((s.mean_mbps() - t.mean_mbps()).abs() < 1e-9);
            prop_assert!((s.std_mbps() - t.std_mbps()).abs() < 1e-9);
        }
    }
}
