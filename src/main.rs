//! The `voxel` command-line tool.
//!
//! ```text
//! voxel prep   <video>                  run the §4.1 offline analysis, print the manifest
//! voxel stream <spec>                   stream one scenario spec, print its QoE aggregate
//! voxel trace  <trace> [--mahimahi]     generate / export a bandwidth trace
//! voxel survey <spec>                   pair the spec's system against BOLA in the Fig 14 panel
//! ```
//!
//! `<spec>` is the scenario spec every tool in the workspace takes
//! (`BBB:VOXEL:verizon:buf3:n4`, DESIGN.md §11); `<trace>` is its trace
//! token (`tmobile`, `const8`, …). Argument parsing is deliberately
//! dependency-free (the offline crate policy in DESIGN.md).

#![allow(clippy::expect_used, reason = "a binary aborts on a failed run")]

use voxel::core::survey::run_survey;
use voxel::fleet::systems;
use voxel::netem::trace::mahimahi;
use voxel::prelude::*;
use voxel::testkit::TRACE_SEED;

/// The usage text; every valid-name set in it is printed from the one
/// table of its noun, so it cannot drift from what the parsers accept.
fn usage_text() -> String {
    let videos: Vec<String> = VideoId::all().iter().map(|v| v.short_name()).collect();
    format!(
        "usage:\n  voxel prep <video>\n  voxel stream <spec>\n  voxel trace <trace> [--mahimahi]\n  \
         voxel survey <spec>\n\
         <spec>   = <video>:<system>:<trace>[:buf<N>][:q<N>][:n<N>][:d<N>]… (DESIGN.md §11)\n\
         <video>  = {}\n<system> = {}\n<trace>  = {}",
        videos.join("|"),
        systems().map(|(name, ..)| name).join("|"),
        TraceFamily::menu(),
    )
}

/// What went wrong, then the usage text; exit 2.
fn usage(problem: &str) -> ! {
    eprintln!("voxel: {problem}\n{}", usage_text());
    std::process::exit(2);
}

fn video(name: &str) -> Result<VideoId, String> {
    VideoId::by_name(name).ok_or_else(|| format!("unknown video {name:?}"))
}

fn trace(token: &str) -> Result<BandwidthTrace, String> {
    TraceFamily::parse(token)
        .map(|family| family.build(TRACE_SEED, 300))
        .map_err(|want| format!("bad trace {token:?}: expected {want}"))
}

fn scenario(spec: &str) -> Result<Scenario, String> {
    Ok(Scenario::parse(spec)?)
}

fn cmd_prep(id: VideoId) {
    eprintln!("generating {id} and running the offline analysis ...");
    let v = Video::generate(id);
    let manifest = Manifest::prepare(&v, &QoeModel::default());
    print!("{}", manifest.to_mpd());
    eprintln!(
        "manifest: {} entries, {} kB serialized",
        manifest.num_segments() * 13,
        manifest.size_bytes() / 1000
    );
}

fn run(s: &Scenario, cache: &ContentCache) -> Aggregate {
    s.experiment(TRACE_SEED)
        .expect("parsed scenarios name a legend system")
        .build()
        .run(cache)
}

fn cmd_stream(s: &Scenario) {
    eprintln!("streaming {} ...", s.spec());
    let agg = run(s, &ContentCache::new());
    println!("bufRatio   p90  : {:8.2} %", agg.buf_ratio_p90());
    println!("bufRatio   mean : {:8.2} %", agg.buf_ratio_mean());
    println!("bitrate    mean : {:8.0} kbps", agg.bitrate_mean_kbps());
    println!("SSIM       mean : {:8.4}", agg.mean_ssim());
    println!("data skipped    : {:8.1} %", agg.data_skipped_mean_pct());
}

fn cmd_trace(name: &str, t: &BandwidthTrace, mahimahi: bool) {
    if mahimahi {
        print!("{}", mahimahi::to_lines(t));
    } else {
        for m in &t.mbps {
            println!("{m:.3}");
        }
    }
    eprintln!(
        "{name}: {} s, mean {:.2} Mbps, std {:.2} Mbps",
        t.duration_s(),
        t.mean_mbps(),
        t.std_mbps()
    );
}

fn cmd_survey(s: &Scenario) {
    let cache = ContentCache::new();
    eprintln!(
        "running paired BOLA vs {} sessions + a 54-user synthetic panel ...",
        s.system
    );
    let baseline = Scenario {
        system: "BOLA".into(),
        ..s.clone()
    };
    let (bola, ours) = (run(&baseline, &cache), run(s, &cache));
    let panel = run_survey(&bola.trials[0], &ours.trials[0], 54, 14);
    println!("{:12} {:>8} {:>8}", "dimension", "BOLA", s.system);
    for (dimension, a, b) in [
        ("clarity", panel.mos_a.clarity, panel.mos_b.clarity),
        ("glitches", panel.mos_a.glitches, panel.mos_b.glitches),
        ("fluidity", panel.mos_a.fluidity, panel.mos_b.fluidity),
        ("experience", panel.mos_a.experience, panel.mos_b.experience),
    ] {
        println!("{dimension:12} {a:>8.2} {b:>8.2}");
    }
    println!("prefer {}: {:.0} %", s.system, 100.0 * panel.prefer_b);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let done = match args[..] {
        ["prep", name] => video(name).map(cmd_prep),
        ["stream", spec] => scenario(spec).map(|s| cmd_stream(&s)),
        ["trace", token] => trace(token).map(|t| cmd_trace(token, &t, false)),
        ["trace", token, "--mahimahi"] => trace(token).map(|t| cmd_trace(token, &t, true)),
        ["survey", spec] => scenario(spec).map(|s| cmd_survey(&s)),
        _ => Err("expected a subcommand and its argument".to_string()),
    };
    done.unwrap_or_else(|problem| usage(&problem));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every name the CLI takes resolves through the one table of its
    /// noun, and the usage text prints exactly those tables.
    #[test]
    fn names_resolve() {
        assert_eq!(video("Sintel"), Ok(VideoId::Sintel));
        assert_eq!(video("P7"), Ok(VideoId::YouTube(7)));
        assert!(video("P11").is_err() && video("Px").is_err());
        assert_eq!(trace("fcc").expect("token").duration_s(), 300);
        assert!(
            trace("FCC").is_err(),
            "legends are for figures, not parsers"
        );
        let s = scenario("ED:BETA:3g:buf1").expect("spec");
        assert_eq!((s.video, s.system.as_str()), (VideoId::Ed, "BETA"));
        assert!(scenario("ED:NOPE:3g").is_err());
        assert!(
            scenario("ED:2xVOXEL:const6").is_err(),
            "stream takes one session"
        );

        let usage = usage_text();
        for id in VideoId::all() {
            assert!(usage.contains(&id.short_name()), "{id} missing from usage");
        }
        for (name, ..) in systems() {
            assert!(usage.contains(name), "{name} missing from usage");
        }
        for family in TraceFamily::named() {
            assert!(
                usage.contains(&family.token()),
                "{family:?} missing from usage"
            );
        }
    }
}
