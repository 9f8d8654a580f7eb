//! Figure 19 (Appendix C): the §3 insights generalized over the public
//! YouTube set — drop-tolerance CDFs for P1, P5, P6, P7, P9, P10.

use voxel_bench::{header, print_cdf, video};
use voxel_media::gop::FRAMES_PER_SEGMENT;
use voxel_media::ladder::QualityLevel;
use voxel_media::qoe::QoeModel;
use voxel_media::video::Video;

fn main() {
    let model = QoeModel::default();
    let videos = ["P1", "P5", "P6", "P7", "P9", "P10"];
    let probes: Vec<f64> = (0..=10).map(|i| i as f64 * 10.0).collect();
    for (fig, level, target) in [
        ("Fig 19a", QualityLevel::MAX, 0.99),
        ("Fig 19b", QualityLevel(9), 0.99),
        ("Fig 19c", QualityLevel(9), 0.95),
    ] {
        header(
            fig,
            &format!("droppable-frame CDF at {level}, SSIM >= {target}"),
        );
        for name in videos {
            let v = Video::generate(video(name));
            let tol: Vec<f64> = v
                .segments
                .iter()
                .map(|s| {
                    100.0 * model.max_droppable_frames(s, level, target) as f64
                        / FRAMES_PER_SEGMENT as f64
                })
                .collect();
            print_cdf(name, &tol, &probes);
        }
    }
    println!("\n# expectation (paper): P9 (static unboxing) tolerates ~80% drops; P10 (street dance, no cuts) tolerates almost none; the rest behave like the Table 1 videos");
}
