//! Per-video content profiles (Tables 1 and 3).
//!
//! A [`ContentProfile`] captures everything content-dependent in the
//! synthetic model: the per-segment bitrate variability of the capped-VBR
//! encode (Tables 1/3 report the standard deviation in Mbps), and the
//! motion/complexity process that drives both frame sizes and frame-drop
//! tolerance. The motion parameters are calibrated from the paper's
//! qualitative descriptions — e.g. §C explains that *P9* (an "unboxing"
//! video against a static background) tolerates 80 % frame drops in half of
//! its segments, while *P10* (a street-dance performance with ~50 dancers
//! and no scene cuts) tolerates almost none.

/// Identifier for one of the 14 evaluation videos.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VideoId {
    /// Big Buck Bunny (comedy, Table 1).
    Bbb,
    /// Elephants Dream (sci-fi, Table 1).
    Ed,
    /// Sintel (fantasy, Table 1).
    Sintel,
    /// Tears of Steel (sci-fi, Table 1).
    Tos,
    /// YouTube video P1..P10 (Table 3); argument is 1..=10.
    YouTube(u8),
}

impl VideoId {
    /// The four videos from prior work used in the evaluation (Table 1).
    pub const EVAL: [VideoId; 4] = [VideoId::Bbb, VideoId::Ed, VideoId::Sintel, VideoId::Tos];

    /// All 14 videos used in §3/§C.
    pub fn all() -> Vec<VideoId> {
        let mut v = Self::EVAL.to_vec();
        v.extend((1..=10).map(VideoId::YouTube));
        v
    }

    /// Resolve a legend name (`BBB`/`ED`/`Sintel`/`ToS`/`P1`..`P10`): the
    /// inverse of [`VideoId::short_name`] over [`VideoId::all`], so the
    /// names every spec, bin and CLI accepts are exactly the catalog.
    pub fn by_name(name: &str) -> Option<VideoId> {
        Self::all().into_iter().find(|v| v.short_name() == name)
    }

    /// Short display name used in figure legends (BBB, ED, …, P1..P10) —
    /// the repo's one video name table.
    pub fn short_name(self) -> String {
        match self {
            VideoId::Bbb => "BBB".into(),
            VideoId::Ed => "ED".into(),
            VideoId::Sintel => "Sintel".into(),
            VideoId::Tos => "ToS".into(),
            VideoId::YouTube(n) => format!("P{n}"),
        }
    }

    /// The content profile for this video.
    pub fn profile(self) -> ContentProfile {
        ContentProfile::for_video(self)
    }

    /// Deterministic per-video RNG seed namespace.
    pub fn seed(self) -> u64 {
        match self {
            VideoId::Bbb => 0x0bb,
            VideoId::Ed => 0x0ed,
            VideoId::Sintel => 0x517,
            VideoId::Tos => 0x705,
            VideoId::YouTube(n) => 0x900 + n as u64,
        }
    }
}

impl std::fmt::Display for VideoId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.short_name())
    }
}

/// Content-dependent parameters of the synthetic video model.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentProfile {
    /// The video this profile describes.
    pub id: VideoId,
    /// Genre / channel category as reported in Tables 1 & 3.
    pub genre: &'static str,
    /// Standard deviation of per-segment bitrate at Q12, in Mbps (Tables 1 & 3).
    pub bitrate_std_mbps: f64,
    /// First segment of the 75-segment clip within the full video
    /// ("Range (Segments)" column of Tables 1 & 3).
    pub segment_range_start: u32,
    /// Mean of the per-segment motion/complexity process, in `[0, 1]`.
    /// High motion ⇒ larger P/B frames and poorer error concealment.
    pub motion_mean: f64,
    /// Spread (std) of per-segment mean motion.
    pub motion_spread: f64,
    /// Within-segment frame-to-frame motion jitter.
    pub motion_jitter: f64,
    /// Probability that a segment is a near-static scene (title card, still
    /// shot) that can tolerate dropping "all but the I-frame" (§3 insight 1).
    pub static_scene_prob: f64,
    /// Probability of a scene cut per segment (cuts concentrate bytes into
    /// the I-frame and reset error propagation sensitivity).
    pub cut_rate: f64,
}

impl ContentProfile {
    /// Built-in calibration for each of the 14 videos.
    ///
    /// `bitrate_std_mbps` and `segment_range_start` are verbatim from
    /// Tables 1 and 3. Motion parameters are calibrated so the drop-tolerance
    /// CDFs (Figs 1 & 19) and VBR traces (Fig 15) match the paper's shapes.
    pub(crate) fn for_video(id: VideoId) -> ContentProfile {
        // (genre, std, range_start, motion_mean, spread, jitter, static_p, cut_rate)
        let (genre, std, start, mm, ms, mj, sp, cr) = match id {
            VideoId::Bbb => ("Comedy", 3.77, 1, 0.28, 0.16, 0.08, 0.16, 0.30),
            VideoId::Ed => ("Sci-Fi", 5.6, 39, 0.34, 0.20, 0.09, 0.10, 0.25),
            VideoId::Sintel => ("Fantasy", 7.5, 148, 0.40, 0.22, 0.10, 0.08, 0.30),
            VideoId::Tos => ("Sci-Fi", 3.52, 1, 0.26, 0.14, 0.07, 0.14, 0.25),
            VideoId::YouTube(1) => ("Beauty", 2.2, 1, 0.20, 0.10, 0.06, 0.18, 0.20),
            VideoId::YouTube(2) => ("Comedy", 1.88, 56, 0.27, 0.13, 0.07, 0.12, 0.30),
            VideoId::YouTube(3) => ("Sports", 2.52, 5, 0.45, 0.15, 0.10, 0.04, 0.35),
            VideoId::YouTube(4) => ("Gaming", 2.05, 2, 0.36, 0.14, 0.10, 0.06, 0.25),
            VideoId::YouTube(5) => ("Cooking", 1.76, 1, 0.24, 0.11, 0.06, 0.15, 0.25),
            VideoId::YouTube(6) => ("Music", 4.35, 23, 0.50, 0.18, 0.12, 0.03, 0.45),
            VideoId::YouTube(7) => ("Entertainment", 2.03, 33, 0.29, 0.13, 0.08, 0.10, 0.30),
            VideoId::YouTube(8) => ("Politics", 1.6, 4, 0.16, 0.08, 0.04, 0.25, 0.15),
            // P9: "unboxing" video, presenter against a gray background —
            // minimal inter-frame change, tolerates 80% drops (§C).
            VideoId::YouTube(9) => ("Tech", 1.7, 1, 0.055, 0.02, 0.015, 0.45, 0.10),
            // P10: Japanese street-dance, ~50 performers, no cuts — errors
            // propagate to segment end; almost no drop tolerance (§C).
            VideoId::YouTube(10) => ("Entertainment", 1.94, 3, 0.80, 0.06, 0.05, 0.0, 0.0),
            #[expect(
                clippy::panic,
                reason = "only P1..P10 exist (§C Table 3); any other id is a programmer error"
            )]
            VideoId::YouTube(n) => panic!("unknown YouTube video P{n}"),
        };
        ContentProfile {
            id,
            genre,
            bitrate_std_mbps: std,
            segment_range_start: start,
            motion_mean: mm,
            motion_spread: ms,
            motion_jitter: mj,
            static_scene_prob: sp,
            cut_rate: cr,
        }
    }

    /// Relative per-segment bitrate variability (std / mean at Q12).
    pub(crate) fn relative_std(&self) -> f64 {
        self.bitrate_std_mbps / crate::ladder::QualityLevel::MAX.avg_bitrate_mbps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_1_values_are_verbatim() {
        let bbb = ContentProfile::for_video(VideoId::Bbb);
        assert_eq!(bbb.bitrate_std_mbps, 3.77);
        assert_eq!(bbb.genre, "Comedy");
        let sintel = ContentProfile::for_video(VideoId::Sintel);
        assert_eq!(sintel.bitrate_std_mbps, 7.5);
        assert_eq!(sintel.segment_range_start, 148);
        let ed = ContentProfile::for_video(VideoId::Ed);
        assert_eq!(ed.segment_range_start, 39);
    }

    #[test]
    fn table_3_values_are_verbatim() {
        assert_eq!(VideoId::YouTube(6).profile().bitrate_std_mbps, 4.35);
        assert_eq!(VideoId::YouTube(6).profile().genre, "Music");
        assert_eq!(VideoId::YouTube(9).profile().bitrate_std_mbps, 1.7);
        assert_eq!(VideoId::YouTube(10).profile().segment_range_start, 3);
    }

    #[test]
    fn p9_is_low_motion_p10_is_high_motion() {
        let p9 = VideoId::YouTube(9).profile();
        let p10 = VideoId::YouTube(10).profile();
        assert!(p9.motion_mean < 0.1);
        assert!(p10.motion_mean > 0.7);
        assert_eq!(p10.cut_rate, 0.0, "P10 has no scene cuts");
        assert!(p9.static_scene_prob > 0.3);
    }

    #[test]
    fn all_videos_enumerate_fourteen() {
        let all = VideoId::all();
        assert_eq!(all.len(), 14);
        // Each must produce a profile without panicking.
        for v in all {
            let p = v.profile();
            assert!((0.0..=1.0).contains(&p.motion_mean));
            assert!(p.bitrate_std_mbps > 0.0);
        }
    }

    #[test]
    fn short_names_match_figures() {
        assert_eq!(VideoId::Bbb.short_name(), "BBB");
        assert_eq!(VideoId::Tos.short_name(), "ToS");
        assert_eq!(VideoId::YouTube(4).short_name(), "P4");
        for id in VideoId::all() {
            assert_eq!(VideoId::by_name(&id.short_name()), Some(id));
        }
        // Out-of-catalog and malformed names resolve to nothing.
        for bad in ["P0", "P11", "Px", "Q1", "bbb", "P01", ""] {
            assert_eq!(VideoId::by_name(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn seeds_are_distinct() {
        let mut seeds: Vec<u64> = VideoId::all().into_iter().map(|v| v.seed()).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 14);
    }

    #[test]
    fn relative_std_matches_table() {
        let p = VideoId::Sintel.profile();
        assert!((p.relative_std() - 0.75).abs() < 1e-12);
    }
}
