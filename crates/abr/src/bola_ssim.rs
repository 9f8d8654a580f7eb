//! BOLA-SSIM: the first of the two §4.3 upgrades.
//!
//! "First, we changed the utility function to use SSIMs and added the
//! capability to select partial-segment downloads."
//!
//! The decision space is no longer the 13 ladder rungs but a set of
//! *(level, bytes→QoE point)* candidates from the extended manifest — the
//! virtual quality levels of §3 insight 3. Utility is `−ln(1 − score)` on
//! the chosen QoE metric (log-distortion: equal utility steps are equal
//! multiplicative reductions in impairment), so the algorithm is
//! metric-agnostic by construction (SSIM / VMAF / PSNR, Fig 7).

use crate::traits::{AbandonAction, Abr, AbrContext, Decision, DownloadProgress};
use voxel_media::ladder::QualityLevel;
use voxel_media::qoe::{QoeMetric, QoeModel};
use voxel_media::video::SEGMENT_DURATION_S;
use voxel_prep::analysis::QoePoint;
use voxel_prep::manifest::SegmentEntry;

/// A candidate decision: a quality level plus a partial-download point.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// The quality level.
    pub level: QualityLevel,
    /// The bytes→QoE point (the full segment is the last point).
    pub point: QoePoint,
    /// Whether this is the complete segment.
    pub is_full: bool,
}

/// How many virtual points (beyond the full segment) to consider per level.
const POINTS_PER_LEVEL: usize = 4;

/// Enumerate the candidate set for one segment: for each level, the point
/// reaching the §4.1 bound, a few evenly spaced points above it, and the
/// full segment. This keeps the decision scan linear and small, which is
/// why BOLA was the right base ("the complexity of choosing a segment's
/// quality is linear in the number of qualities", §4.3).
pub fn candidates(entry: &SegmentEntry) -> Vec<Candidate> {
    let mut out = Vec::new();
    let full_idx = entry.ssims.len() - 1;
    let min_idx = entry
        .ssims
        .iter()
        .position(|p| p.ssim >= entry.bound)
        .unwrap_or(full_idx);
    let mut indices: Vec<usize> = Vec::with_capacity(POINTS_PER_LEVEL + 1);
    for k in 0..=POINTS_PER_LEVEL {
        indices.push(min_idx + (full_idx - min_idx) * k / POINTS_PER_LEVEL);
    }
    indices.dedup();
    for idx in indices {
        out.push(Candidate {
            level: entry.level,
            point: entry.ssims[idx],
            is_full: idx == full_idx,
        });
    }
    // Virtual-level monotonicity (§4.1): within a level, spending more
    // bytes can only raise SSIM. The paranoid layer audits the invariant
    // on every enumeration.
    #[cfg(feature = "paranoid")]
    for w in out.windows(2) {
        assert!(
            w[1].point.bytes >= w[0].point.bytes && w[1].point.ssim >= w[0].point.ssim,
            "virtual levels not monotone: ({}, {}) then ({}, {})",
            w[0].point.bytes,
            w[0].point.ssim,
            w[1].point.bytes,
            w[1].point.ssim
        );
    }
    out
}

/// Utility of a QoE score under `metric`: log-distortion, shifted so the
/// lowest possible score has utility ≥ 0.
fn utility(metric: QoeMetric, ssim: f64) -> f64 {
    let score = match metric {
        QoeMetric::Ssim => ssim,
        QoeMetric::Vmaf => QoeModel::ssim_to_vmaf(ssim) / 100.0,
        // PSNR in dB is already logarithmic; normalize to ~[0,1].
        QoeMetric::Psnr => (QoeModel::ssim_to_psnr(ssim) / 50.0).clamp(0.0, 1.0),
    };
    match metric {
        QoeMetric::Psnr => 6.0 * score,
        _ => -((1.0 - score).max(1e-4)).ln(),
    }
}

/// The BOLA-SSIM algorithm.
#[derive(Debug, Clone)]
pub struct BolaSsim {
    /// QoE metric used for the utility (VOXEL is metric-agnostic).
    pub metric: QoeMetric,
    /// Bandwidth-safety factor applied to throughput estimates (§5.2: the
    /// single tuning knob; 1.0 = aggressive, <1 underestimates).
    pub safety: f64,
    placeholder_s: f64,
    current: Option<Candidate>,
}

impl Default for BolaSsim {
    fn default() -> Self {
        Self::new(QoeMetric::Ssim)
    }
}

impl BolaSsim {
    /// BOLA-SSIM optimizing `metric`.
    pub fn new(metric: QoeMetric) -> BolaSsim {
        BolaSsim {
            metric,
            safety: 1.0,
            placeholder_s: 0.0,
            current: None,
        }
    }

    /// Tuned (V, γp) for the candidate utility range (same construction as
    /// base BOLA, §4.3 "VOXEL automatically tunes γ and V").
    fn params(&self, capacity_s: f64, u_max: f64) -> (f64, f64) {
        let b_min = (0.3 * capacity_s).max(SEGMENT_DURATION_S * 0.5);
        let b_target = (0.9 * capacity_s).max(b_min + 0.1);
        let v = (b_target - b_min) / u_max.max(0.1);
        let gp = b_min / v;
        (v, gp)
    }

    /// Pick the best candidate for the segment at the given virtual buffer.
    fn pick(&self, ctx: &AbrContext<'_>, q_s: f64) -> Candidate {
        let mut all: Vec<Candidate> = Vec::with_capacity(13 * (POINTS_PER_LEVEL + 1));
        for level in QualityLevel::all() {
            all.extend(candidates(ctx.manifest.entry(ctx.segment_index, level)));
        }
        let u_max = all
            .iter()
            .map(|c| utility(self.metric, c.point.ssim))
            .fold(0.0f64, f64::max);
        let (v, gp) = self.params(ctx.buffer_capacity_s, u_max);

        let mut best = all[0];
        let mut best_score = f64::NEG_INFINITY;
        for c in &all {
            let reliable = ctx.manifest.entry(ctx.segment_index, c.level).reliable_size;
            let bits = (u64::from(c.point.bytes) + reliable) as f64 * 8.0;
            let u = utility(self.metric, c.point.ssim);
            let score = (v * (u + gp) - q_s) / bits;
            if score > best_score {
                best_score = score;
                best = *c;
            }
        }
        best
    }
}

impl Abr for BolaSsim {
    fn name(&self) -> &'static str {
        "BOLA-SSIM"
    }

    fn choose(&mut self, ctx: &AbrContext<'_>) -> Decision {
        // Startup placeholder (BOLA-E): seed the virtual buffer from the
        // first throughput sample so the opening segments aren't forced to
        // the lowest rung (the paper's VOXEL "never drops below 0.95"
        // during startup, Fig 11a).
        if ctx.last_level.is_none() && self.placeholder_s == 0.0 {
            if let Some(est) = ctx.throughput_bps {
                let sustainable = QualityLevel::all()
                    .rfind(|l| l.avg_bitrate_bps() <= est * self.safety * 0.9)
                    .unwrap_or(QualityLevel::MIN);
                let e = ctx.manifest.entry(ctx.segment_index, sustainable);
                let u = utility(self.metric, e.pristine_ssim);
                let (v, gp) = self.params(ctx.buffer_capacity_s, u.max(1.0));
                self.placeholder_s = v * (u + gp);
            }
        }
        self.placeholder_s = self
            .placeholder_s
            .min(ctx.buffer_capacity_s - ctx.buffer_s.min(ctx.buffer_capacity_s));
        let q = ctx.buffer_s + self.placeholder_s;
        let mut best = self.pick(ctx, q);

        // Throughput-feasibility rule with the bandwidth-safety factor:
        // never pick a candidate whose download would outlast the buffer
        // (the generalized form of BOLA-E's insufficient-buffer rule; with
        // large buffers the budget is generous and nothing changes).
        {
            let est = ctx.throughput_bps.map(|e| e * self.safety);
            let budget_s = (ctx.buffer_s * 0.9).max(SEGMENT_DURATION_S * 0.5);
            let entry = |c: &Candidate| {
                ctx.manifest.entry(ctx.segment_index, c.level).reliable_size
                    + u64::from(c.point.bytes)
            };
            match est {
                #[expect(
                    clippy::expect_used,
                    reason = "candidates() always returns at least one entry"
                )]
                Some(est) => {
                    if entry(&best) as f64 * 8.0 / est > budget_s {
                        // Walk down the candidate space: cheapest candidate
                        // per level, lowest levels last.
                        let mut all: Vec<Candidate> = Vec::new();
                        for level in QualityLevel::all() {
                            all.extend(candidates(ctx.manifest.entry(ctx.segment_index, level)));
                        }
                        all.sort_by(|a, b| b.point.ssim.total_cmp(&a.point.ssim));
                        best = *all
                            .iter()
                            .find(|c| entry(c) as f64 * 8.0 / est <= budget_s)
                            .unwrap_or(all.last().expect("non-empty"));
                    }
                }
                #[expect(
                    clippy::expect_used,
                    reason = "prep builds every SSIM map with the full-segment point"
                )]
                None => {
                    best = Candidate {
                        level: QualityLevel::MIN,
                        point: *ctx
                            .manifest
                            .entry(ctx.segment_index, QualityLevel::MIN)
                            .ssims
                            .last()
                            .expect("non-empty"),
                        is_full: true,
                    };
                }
            }
        }

        self.current = Some(best);
        Decision {
            level: best.level,
            target: (!best.is_full).then_some(best.point),
        }
    }

    fn on_progress(&mut self, ctx: &AbrContext<'_>, p: &DownloadProgress) -> AbandonAction {
        // BOLA-SSIM retains BOLA's restart-style, score-based abandonment
        // (the keep-partial extension is what ABR* adds on top).
        let Some(current) = self.current else {
            return AbandonAction::Continue;
        };
        let remaining = p.bytes_target.saturating_sub(p.bytes_received);
        if p.elapsed_s < 0.3 || remaining * 4 < p.bytes_target || p.eta_s() < p.buffer_s {
            return AbandonAction::Continue;
        }
        // Compare continuing (remaining bytes at the current utility)
        // against refetching a lower candidate whole — BOLA-E's rule on
        // the enlarged decision space.
        let u_cur = utility(self.metric, current.point.ssim);
        let (v, gp) = self.params(ctx.buffer_capacity_s, u_cur.max(1.0));
        let q = p.buffer_s;
        let score = |u: f64, bits: f64| (v * (u + gp) - q) / bits;
        let score_continue = score(u_cur, (remaining as f64 * 8.0).max(1.0));
        let mut best: Option<(QualityLevel, f64)> = None;
        let mut level = current.level.lower();
        while let Some(l) = level {
            let e = ctx.manifest.entry(ctx.segment_index, l);
            #[expect(
                clippy::expect_used,
                reason = "prep builds every SSIM map with the full-segment point"
            )]
            let bound_point = e
                .cheapest_reaching(e.bound)
                .unwrap_or(*e.ssims.last().expect("non-empty"));
            let bits = (u64::from(bound_point.bytes) + e.reliable_size) as f64 * 8.0;
            let s = score(utility(self.metric, bound_point.ssim), bits);
            if best.is_none_or(|(_, bs)| s > bs) {
                best = Some((l, s));
            }
            level = l.lower();
        }
        match best {
            Some((l, s)) if s > score_continue => {
                // Track the new candidate so subsequent progress checks
                // compare against it, not the abandoned one.
                let e = ctx.manifest.entry(ctx.segment_index, l);
                self.current = Some(Candidate {
                    level: l,
                    #[expect(
                        clippy::expect_used,
                        reason = "prep builds every SSIM map with the full-segment point"
                    )]
                    point: *e.ssims.last().expect("non-empty"),
                    is_full: true,
                });
                AbandonAction::RestartAt(l)
            }
            _ => AbandonAction::Continue,
        }
    }

    fn uses_unreliable_transport(&self) -> bool {
        true
    }

    fn on_idle(&mut self, idle_s: f64) {
        self.placeholder_s += idle_s;
    }

    fn on_rebuffer(&mut self) {
        self.placeholder_s = 0.0;
    }

    fn check_invariants(&self) -> Result<(), String> {
        if !self.placeholder_s.is_finite() || self.placeholder_s < 0.0 {
            return Err(format!(
                "placeholder buffer corrupted: {} s",
                self.placeholder_s
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxel_media::content::VideoId;
    use voxel_media::video::Video;
    use voxel_prep::manifest::Manifest;

    fn manifest() -> Manifest {
        let video = Video::generate(VideoId::Bbb);
        Manifest::prepare_levels(
            &video,
            &QoeModel::default(),
            &[QualityLevel::MAX, QualityLevel(11), QualityLevel(9)],
        )
    }

    fn ctx<'a>(
        m: &'a Manifest,
        buffer_s: f64,
        capacity_s: f64,
        tput: Option<f64>,
    ) -> AbrContext<'a> {
        AbrContext {
            segment_index: 5,
            buffer_s,
            buffer_capacity_s: capacity_s,
            throughput_bps: tput,
            conservative_throughput_bps: tput,
            last_level: None,
            manifest: m,
            rebuffering: false,
        }
    }

    #[test]
    fn candidate_enumeration_covers_bound_to_full() {
        let m = manifest();
        let e = m.entry(5, QualityLevel::MAX);
        let cs = candidates(e);
        assert!(cs.len() >= 2, "at least bound + full");
        assert!(cs.last().unwrap().is_full);
        assert!(cs.first().unwrap().point.ssim >= e.bound - 1e-9);
        // Monotone in bytes.
        for w in cs.windows(2) {
            assert!(w[0].point.bytes <= w[1].point.bytes);
        }
    }

    #[test]
    fn partial_targets_appear_under_constrained_buffer() {
        // Somewhere in the (buffer, throughput) plane — particularly in the
        // low-buffer regime where the bandwidth budget falls between a
        // level's minimum (bound) bytes and its full size — a virtual
        // quality level must be selected. This is §3 insight 3 in action.
        let m = manifest();
        // Engineer the bandwidth budget to fall between Q12's minimum
        // (bound-reaching) bytes and its full size: the only candidates in
        // that window are Q12 virtual levels, which outrank every lower
        // level's pristine SSIM.
        let e = m.entry(5, QualityLevel::MAX);
        let full = u64::from(e.ssims.last().unwrap().bytes);
        let window_mid = e.reliable_size + (e.min_bytes + full) / 2;
        // 2-segment capacity, healthy buffer: BOLA wants Q12, but the
        // budget only admits a partial Q12.
        let buffer_s = 6.0;
        let budget_s: f64 = 5.4; // 0.9 * buffer
        let tput = window_mid as f64 * 8.0 / budget_s;
        let mut abr = BolaSsim::default();
        let d = abr.choose(&ctx(&m, buffer_s, 8.0, Some(tput)));
        assert_eq!(d.level, QualityLevel::MAX);
        let target = d.target.expect("a virtual quality level is selected");
        assert!(u64::from(target.bytes) < full);
        assert!(target.ssim >= e.bound - 1e-9);
    }

    #[test]
    fn full_buffer_prefers_pristine_high_quality() {
        let m = manifest();
        let mut abr = BolaSsim::default();
        let d = abr.choose(&ctx(&m, 26.0, 28.0, Some(20e6)));
        assert!(d.level >= QualityLevel(11), "got {}", d.level);
    }

    #[test]
    fn low_buffer_low_throughput_is_cautious() {
        let m = manifest();
        let mut abr = BolaSsim::default();
        let d = abr.choose(&ctx(&m, 2.0, 8.0, Some(1.5e6)));
        let e = m.entry(5, d.level);
        let bytes = e.reliable_size + d.target.map_or(e.total_bytes(), |p| u64::from(p.bytes));
        // Must fit in ~1.6s at 1.5 Mbps.
        assert!(
            bytes as f64 * 8.0 / 1.5e6 <= 2.2,
            "picked {} bytes at {}",
            bytes,
            d.level
        );
    }

    #[test]
    fn safety_factor_reduces_aggressiveness() {
        let m = manifest();
        let mut aggressive = BolaSsim::default();
        let mut tuned = BolaSsim {
            safety: 0.7,
            ..BolaSsim::default()
        };
        let c = ctx(&m, 3.0, 8.0, Some(4e6));
        let da = aggressive.choose(&c);
        let dt = tuned.choose(&c);
        let bytes = |d: &Decision| {
            let e = m.entry(5, d.level);
            e.reliable_size + d.target.map_or(e.total_bytes(), |p| u64::from(p.bytes))
        };
        assert!(bytes(&dt) <= bytes(&da), "tuned must not fetch more");
    }

    #[test]
    fn metric_agnostic_utilities_are_monotone() {
        for metric in [QoeMetric::Ssim, QoeMetric::Vmaf, QoeMetric::Psnr] {
            let mut prev = f64::NEG_INFINITY;
            for i in 0..50 {
                let ssim = 0.5 + 0.01 * i as f64;
                let u = utility(metric, ssim);
                assert!(u >= prev, "{metric:?} not monotone at {ssim}");
                prev = u;
            }
        }
    }

    #[test]
    fn vmaf_and_psnr_variants_still_choose_sane_levels() {
        let m = manifest();
        for metric in [QoeMetric::Vmaf, QoeMetric::Psnr] {
            let mut abr = BolaSsim::new(metric);
            let d = abr.choose(&ctx(&m, 24.0, 28.0, Some(20e6)));
            assert!(d.level >= QualityLevel(9), "{metric:?} got {}", d.level);
            let d = abr.choose(&ctx(&m, 1.0, 28.0, Some(1e6)));
            assert!(d.level <= QualityLevel(4), "{metric:?} got {}", d.level);
        }
    }

    #[test]
    fn abandonment_restarts_lower_on_collapse() {
        let m = manifest();
        let mut abr = BolaSsim::default();
        let c = ctx(&m, 10.0, 28.0, Some(10e6));
        let d = abr.choose(&c);
        let e = m.entry(5, d.level);
        let target = d.target.map_or(e.total_bytes(), |p| u64::from(p.bytes));
        let p = DownloadProgress {
            bytes_received: target / 20,
            bytes_target: target,
            elapsed_s: 3.0,
            buffer_s: 1.5,
            download_rate_bps: 150_000.0,
        };
        match abr.on_progress(&c, &p) {
            AbandonAction::RestartAt(l) => assert!(l < d.level),
            AbandonAction::Continue => {
                panic!("expected restart with collapsed rate")
            }
            AbandonAction::KeepPartial => panic!("BOLA-SSIM never keeps partials"),
        }
    }
}
