//! ABR-layer trace instrumentation.
//!
//! One event kind, `decision`, emitted per segment choice. The fields
//! capture everything the algorithm saw and chose: segment index, level,
//! the optional partial-download target (VOXEL's virtual level), buffer
//! occupancy, and the throughput estimate the choice was based on.
//!
//! Metrics: counters `abr.decisions`, `abr.partial_decisions`; histograms
//! `abr.level` (chosen level index) and `abr.buffer_ms` (buffer occupancy
//! at decision time).

use crate::traits::{AbrContext, Decision};
use voxel_sim::SimTime;
use voxel_trace::{trace_event, Layer, Tracer};

/// Record one segment decision.
pub fn trace_decision(tracer: &Tracer, t: SimTime, ctx: &AbrContext<'_>, d: &Decision) {
    if !tracer.enabled() {
        return;
    }
    tracer.count("abr.decisions", 1);
    if d.target.is_some() {
        tracer.count("abr.partial_decisions", 1);
    }
    tracer.observe("abr.level", d.level.index() as u64);
    tracer.observe("abr.buffer_ms", (ctx.buffer_s.max(0.0) * 1e3) as u64);
    let full_bytes = ctx.segment_bytes(d.level);
    let (target_bytes, target_ssim) = match &d.target {
        Some(p) => (u64::from(p.bytes), p.ssim),
        None => (full_bytes, f64::NAN), // NAN renders as null in JSON
    };
    trace_event!(
        tracer,
        t,
        Layer::Abr,
        "decision",
        "seg" = ctx.segment_index,
        "level" = d.level.index(),
        "partial" = d.target.is_some(),
        "target_bytes" = target_bytes,
        "full_bytes" = full_bytes,
        "target_ssim" = target_ssim,
        "buffer_s" = ctx.buffer_s,
        "tput_bps" = ctx.throughput_bps.unwrap_or(f64::NAN),
        "rebuffering" = ctx.rebuffering,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use voxel_media::content::VideoId;
    use voxel_media::ladder::QualityLevel;
    use voxel_media::qoe::QoeModel;
    use voxel_media::video::Video;
    use voxel_prep::manifest::Manifest;
    use voxel_trace::Value;

    #[test]
    fn decision_event_carries_choice_and_context() {
        let video = Video::generate(VideoId::Bbb);
        let manifest = Manifest::prepare_levels(&video, &QoeModel::default(), &[QualityLevel::MAX]);
        let ctx = AbrContext {
            segment_index: 7,
            buffer_s: 12.5,
            buffer_capacity_s: 28.0,
            throughput_bps: Some(4e6),
            conservative_throughput_bps: Some(3e6),
            last_level: None,
            manifest: &manifest,
            rebuffering: false,
        };
        let (tracer, handle) = Tracer::memory(1, 8);
        trace_decision(
            &tracer,
            SimTime::from_secs(3),
            &ctx,
            &Decision::full(QualityLevel::MAX),
        );
        let events = handle.events();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.kind, "decision");
        assert_eq!(e.layer, Layer::Abr);
        let field = |name: &str| {
            e.fields
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(field("seg"), Value::from(7u64));
        assert_eq!(field("level"), Value::from(12u64));
        assert_eq!(field("partial"), Value::from(false));
        let snap = tracer.metrics_snapshot(SimTime::from_secs(3)).unwrap();
        assert_eq!(snap.counter("abr.decisions"), 1);
        assert_eq!(snap.counter("abr.partial_decisions"), 0);
        assert_eq!(snap.histogram("abr.buffer_ms").unwrap().count, 1);
    }
}
