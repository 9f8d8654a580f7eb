//! BOLA (Spiteri et al.) — the paper's state-of-the-art baseline.
//!
//! This is the BOLA-E variant described in "From Theory to Practice:
//! Improving Bitrate Adaptation in the DASH Reference Player" \[62\], the one
//! integrated in dash.js: Lyapunov utility maximization over buffer
//! occupancy, with
//!
//! - automatic tuning of the two parameters `V` and `γp` from the bitrate
//!   ladder (§4.3: "Before streaming, VOXEL automatically tunes γ and V for
//!   the video's bitrate ladder following a calculation described in \[63\]"),
//! - a placeholder buffer so startup and buffer-full periods don't collapse
//!   the decision to the lowest quality,
//! - an insufficient-buffer rule for low-buffer/live scenarios, and
//! - segment abandonment: discard a risky high-bitrate download and restart
//!   at a lower quality (the classic, wasteful form VOXEL improves on).

use crate::traits::{AbandonAction, Abr, AbrContext, Decision, DownloadProgress};
use voxel_media::ladder::QualityLevel;
use voxel_media::video::SEGMENT_DURATION_S;

/// The BOLA-E algorithm.
#[derive(Debug, Clone)]
pub struct Bola {
    /// Per-level utilities `ln(r_m / r_0)`.
    utilities: [f64; voxel_media::ladder::NUM_LEVELS],
    /// Placeholder buffer in seconds (virtual buffer extension).
    placeholder_s: f64,
    /// Current decision's level (for abandonment scoring).
    current: Option<QualityLevel>,
    /// Safety factor on throughput for the insufficient-buffer rule.
    safety: f64,
}

impl Default for Bola {
    fn default() -> Self {
        Self::new()
    }
}

impl Bola {
    /// BOLA with utilities derived from the Table 2 ladder.
    pub fn new() -> Bola {
        let r0 = QualityLevel::MIN.avg_bitrate_bps();
        let mut utilities = [0.0; voxel_media::ladder::NUM_LEVELS];
        for level in QualityLevel::all() {
            utilities[level.index()] = (level.avg_bitrate_bps() / r0).ln();
        }
        Bola {
            utilities,
            placeholder_s: 0.0,
            current: None,
            safety: 0.9,
        }
    }

    /// The automatic (V, γp) tuning of [63]: at buffer `B_min` the lowest
    /// quality wins, at `B_target` the highest does. Both scale with the
    /// configured buffer capacity so small-buffer (live) configurations
    /// remain meaningful.
    fn params(&self, capacity_s: f64) -> (f64, f64) {
        let b_min = (0.3 * capacity_s).max(SEGMENT_DURATION_S * 0.5);
        let b_target = (0.9 * capacity_s).max(b_min + 0.1);
        let u_max = self.utilities[QualityLevel::MAX.index()];
        let v = (b_target - b_min) / u_max;
        let gp = b_min / v;
        (v, gp)
    }

    /// BOLA's objective for fetching `bits` of utility `u` at buffer `q`.
    fn score(&self, v: f64, gp: f64, u: f64, q_s: f64, bits: f64) -> f64 {
        (v * (u + gp) - q_s) / bits
    }
}

impl Abr for Bola {
    fn name(&self) -> &'static str {
        "BOLA"
    }

    fn choose(&mut self, ctx: &AbrContext<'_>) -> Decision {
        let (v, gp) = self.params(ctx.buffer_capacity_s);
        // BOLA-E's startup placeholder: before the first segment, seed the
        // virtual buffer from the first throughput sample (the manifest
        // fetch) so startup quality matches the network rather than
        // defaulting to the lowest rung.
        if ctx.last_level.is_none() && self.placeholder_s == 0.0 {
            if let Some(est) = ctx.throughput_bps {
                let sustainable = QualityLevel::all()
                    .rfind(|l| l.avg_bitrate_bps() <= est * 0.9)
                    .unwrap_or(QualityLevel::MIN);
                // Buffer level at which BOLA would pick `sustainable`:
                // V(u + gp) of that level.
                self.placeholder_s = v * (self.utilities[sustainable.index()] + gp);
            }
        }
        // Cap the placeholder so the virtual buffer stays within target.
        self.placeholder_s = self
            .placeholder_s
            .min(ctx.buffer_capacity_s - ctx.buffer_s.min(ctx.buffer_capacity_s));
        let q = ctx.buffer_s + self.placeholder_s;

        let mut best = QualityLevel::MIN;
        let mut best_score = f64::NEG_INFINITY;
        for level in QualityLevel::all() {
            let bits = ctx.segment_bytes(level) as f64 * 8.0;
            let s = self.score(v, gp, self.utilities[level.index()], q, bits);
            if s >= best_score {
                best_score = s;
                best = level;
            }
        }

        // Insufficient-buffer rule: with little real buffer, never pick a
        // segment we can't download in the time the buffer affords.
        if ctx.buffer_s < 2.0 * SEGMENT_DURATION_S {
            if let Some(est) = ctx.throughput_bps {
                let budget_s = (ctx.buffer_s * 0.8).max(SEGMENT_DURATION_S * 0.5);
                while best > QualityLevel::MIN {
                    let bits = ctx.segment_bytes(best) as f64 * 8.0;
                    if bits / (est * self.safety) <= budget_s {
                        break;
                    }
                    match best.lower() {
                        Some(l) => best = l,
                        None => break,
                    }
                }
            } else {
                best = QualityLevel::MIN;
            }
        }

        self.current = Some(best);
        Decision::full(best)
    }

    fn on_progress(&mut self, ctx: &AbrContext<'_>, p: &DownloadProgress) -> AbandonAction {
        let Some(current) = self.current else {
            return AbandonAction::Continue;
        };
        // Only consider abandoning when a meaningful fraction remains and
        // the buffer is at risk.
        let remaining = p.bytes_target.saturating_sub(p.bytes_received);
        if remaining * 4 < p.bytes_target || p.eta_s() < p.buffer_s {
            return AbandonAction::Continue;
        }
        let (v, gp) = self.params(ctx.buffer_capacity_s);
        let q = p.buffer_s;
        let score_continue = self.score(
            v,
            gp,
            self.utilities[current.index()],
            q,
            (remaining as f64 * 8.0).max(1.0),
        );
        let mut best: Option<(QualityLevel, f64)> = None;
        let mut level = current.lower();
        while let Some(l) = level {
            let bits = ctx.segment_bytes(l) as f64 * 8.0;
            let s = self.score(v, gp, self.utilities[l.index()], q, bits);
            if best.is_none_or(|(_, bs)| s > bs) {
                best = Some((l, s));
            }
            level = l.lower();
        }
        match best {
            Some((l, s)) if s > score_continue => {
                self.current = Some(l);
                AbandonAction::RestartAt(l)
            }
            _ => AbandonAction::Continue,
        }
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
    use voxel_media::qoe::QoeModel;
    use voxel_media::video::Video;
    use voxel_prep::manifest::Manifest;

    fn manifest() -> Manifest {
        let video = Video::generate(VideoId::Bbb);
        Manifest::prepare_levels(&video, &QoeModel::default(), &[])
    }

    fn ctx<'a>(
        m: &'a Manifest,
        buffer_s: f64,
        capacity_s: f64,
        tput: Option<f64>,
    ) -> AbrContext<'a> {
        AbrContext {
            segment_index: 20,
            buffer_s,
            buffer_capacity_s: capacity_s,
            throughput_bps: tput,
            conservative_throughput_bps: tput,
            // Steady state (a previous segment exists), so the startup
            // placeholder stays out of these tests; see
            // `startup_placeholder_seeds_quality` for that path.
            last_level: Some(QualityLevel(5)),
            manifest: m,
            rebuffering: false,
        }
    }

    #[test]
    fn startup_placeholder_seeds_quality() {
        let m = manifest();
        let mut bola = Bola::new();
        let mut c = ctx(&m, 0.0, 28.0, Some(10e6));
        c.last_level = None; // first segment of the session
        let d = bola.choose(&c);
        // With a 10 Mbps first sample, startup should not sit at the floor.
        assert!(d.level >= QualityLevel(6), "startup picked {}", d.level);
        // Without any sample, it must stay conservative.
        let mut bola2 = Bola::new();
        let mut c2 = ctx(&m, 0.0, 28.0, None);
        c2.last_level = None;
        assert!(bola2.choose(&c2).level <= QualityLevel(1));
    }

    #[test]
    fn quality_increases_with_buffer() {
        let m = manifest();
        let mut bola = Bola::new();
        let mut prev = QualityLevel::MIN;
        for buf in [0.0, 7.0, 14.0, 21.0, 27.0] {
            let d = bola.choose(&ctx(&m, buf, 28.0, Some(20e6)));
            assert!(d.level >= prev, "buffer {buf}: {} < {prev}", d.level);
            prev = d.level;
            bola.placeholder_s = 0.0;
        }
        assert_eq!(prev, QualityLevel::MAX, "full buffer picks Q12");
    }

    #[test]
    fn empty_buffer_picks_low_quality() {
        let m = manifest();
        let mut bola = Bola::new();
        let d = bola.choose(&ctx(&m, 0.0, 28.0, Some(10e6)));
        assert!(d.level <= QualityLevel(2), "got {}", d.level);
    }

    #[test]
    fn insufficient_buffer_rule_caps_quality_by_throughput() {
        let m = manifest();
        let mut bola = Bola::new();
        // Small buffer, low throughput: whatever the utility says, the pick
        // must be downloadable within ~80% of the buffer.
        let c = ctx(&m, 4.0, 8.0, Some(2e6));
        let d = bola.choose(&c);
        let bits = c.segment_bytes(d.level) as f64 * 8.0;
        assert!(bits / (2e6 * 0.9) <= 3.3, "level {} too big", d.level);
    }

    #[test]
    fn no_throughput_estimate_and_low_buffer_is_conservative() {
        let m = manifest();
        let mut bola = Bola::new();
        let d = bola.choose(&ctx(&m, 2.0, 28.0, None));
        assert_eq!(d.level, QualityLevel::MIN);
    }

    #[test]
    fn placeholder_buffer_raises_quality_when_idle() {
        let m = manifest();
        let mut bola = Bola::new();
        let base = bola.choose(&ctx(&m, 6.0, 28.0, Some(20e6))).level;
        bola.on_idle(15.0);
        let with_placeholder = bola.choose(&ctx(&m, 6.0, 28.0, Some(20e6))).level;
        assert!(with_placeholder > base);
        bola.on_rebuffer();
        let after_reset = bola.choose(&ctx(&m, 6.0, 28.0, Some(20e6))).level;
        assert_eq!(after_reset, base);
    }

    #[test]
    fn abandonment_triggers_when_eta_exceeds_buffer() {
        let m = manifest();
        let mut bola = Bola::new();
        let c = ctx(&m, 10.0, 28.0, Some(10e6));
        let d = bola.choose(&c);
        assert!(d.level > QualityLevel::MIN);
        // Download rate collapsed: 90% of a large segment remains, buffer 2s.
        let target = c.segment_bytes(d.level);
        let p = DownloadProgress {
            bytes_received: target / 10,
            bytes_target: target,
            elapsed_s: 3.0,
            buffer_s: 2.0,
            download_rate_bps: 200_000.0,
        };
        match bola.on_progress(&c, &p) {
            AbandonAction::RestartAt(l) => assert!(l < d.level),
            other => panic!("expected restart, got {other:?}"),
        }
    }

    #[test]
    fn no_abandonment_when_nearly_done_or_safe() {
        let m = manifest();
        let mut bola = Bola::new();
        let c = ctx(&m, 10.0, 28.0, Some(10e6));
        let d = bola.choose(&c);
        let target = c.segment_bytes(d.level);
        // 90% done → keep going even if slow.
        let nearly_done = DownloadProgress {
            bytes_received: target * 9 / 10,
            bytes_target: target,
            elapsed_s: 3.0,
            buffer_s: 2.0,
            download_rate_bps: 100_000.0,
        };
        assert_eq!(bola.on_progress(&c, &nearly_done), AbandonAction::Continue);
        // Fast download → keep going.
        let safe = DownloadProgress {
            bytes_received: target / 10,
            bytes_target: target,
            elapsed_s: 0.3,
            buffer_s: 10.0,
            download_rate_bps: 50e6,
        };
        assert_eq!(bola.on_progress(&c, &safe), AbandonAction::Continue);
    }

    #[test]
    fn utilities_are_increasing_and_zero_based() {
        let bola = Bola::new();
        assert_eq!(bola.utilities[0], 0.0);
        for w in bola.utilities.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn params_scale_with_capacity() {
        let bola = Bola::new();
        let (v28, gp28) = bola.params(28.0);
        let (v8, _gp8) = bola.params(8.0);
        assert!(v28 > v8, "V grows with capacity");
        assert!(gp28 > 0.0 && v28 > 0.0);
    }
}
