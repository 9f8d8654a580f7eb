//! Golden timeline digests.
//!
//! Identically-seeded runs emit byte-identical JSONL timelines (the
//! determinism contract `tests/tracing.rs` pins), so a stable 64-bit
//! digest of the timeline is a regression tripwire for the *entire*
//! cross-layer event sequence: any change to packet scheduling, ABR
//! decisions, stall timing or event emission shows up as a digest
//! mismatch. Canonical digests live under `tests/golden/` and are
//! re-blessed with `VOXEL_BLESS=1 cargo test` after intentional behavior
//! changes.
//!
//! A golden run is also held to the DESIGN.md §9 taxonomy
//! ([`voxel_trace::KINDS`], [`voxel_trace::METRICS`]): every timeline line
//! must match its kind's row, field names in order, and every metric in
//! the run's snapshot must have a row of the same shape.

use crate::fleet::{edge_hot_invariants, shard_parity_failures};
use crate::runner::{run_scenario, Content};
use crate::scenario::Spec;
use std::collections::BTreeSet;
use std::path::Path;
use voxel_fleet::FleetResult;
use voxel_trace::{Kind, MetricShape, MetricsSnapshot, KINDS, METRICS};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash (stable across platforms and releases, no
/// dependency on `std`'s unstable hasher internals).
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Digest of one timeline: content hash plus event count (the count makes
/// mismatch reports actionable — "same events, different payloads" vs
/// "different event sequence").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// FNV-1a 64 over the raw JSONL bytes.
    pub hash: u64,
    /// Number of timeline lines.
    pub events: usize,
}

/// Digest a raw JSONL timeline: hash and line count in one pass.
pub fn timeline_digest(jsonl: &[u8]) -> Digest {
    let mut d = Digest {
        hash: FNV_OFFSET,
        events: 0,
    };
    for &b in jsonl {
        d.hash = (d.hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        d.events += usize::from(b == b'\n');
    }
    d
}

/// One committed golden: a spec of either kind and the seed it runs
/// under (fleets are a pure function of their spec; theirs is 0).
#[derive(Debug, Clone, Copy)]
pub struct Golden {
    /// Stable file stem under `tests/golden/`.
    pub name: &'static str,
    /// The spec; its kind and session count come from [`Spec::parse`]
    /// (every table entry parses; a unit test pins it).
    pub spec: &'static str,
    /// The seed the golden run uses.
    pub seed: u64,
}

const fn golden(name: &'static str, spec: &'static str, seed: u64) -> Golden {
    Golden { name, spec, seed }
}

/// The hot edge golden: additionally held to the hot-cache oracles
/// ([`edge_hot_invariants`]), not just to determinism.
const EDGE_HOT_GOLDEN: &str = "fleet-edge4x16-hot";

/// Every committed digest, one table. Five single-session scenarios,
/// kept cheap (one trial each) and diverse: reliable vs split transport,
/// comfortable vs starved constant rates, a seeded cellular trace, and a
/// packet-fault plane. Seven fleets: a mixed 8-session fleet (4 VOXEL, 2
/// BOLA, 2 BETA on a shared 6 Mbit/s DRR link), a homogeneous VOXEL
/// fleet pinning the fairness floor, a capped 64-session mixed fleet
/// exercising the sharded runtime at scale (staggered starts, droptail
/// pressure, the cap-freeze path), the congestion-control pair — all-BBR,
/// and BBR vs CUBIC on a FIFO droptail link (DRR would referee the
/// contention away) — and the `edge4x16` pair (DESIGN.md §16): 16
/// same-video sessions over 4 hash-routed edges, once *hot* (full
/// admission, the cache absorbs the crowd) and once *cold* (admission
/// `none`, every object rides the origin backhaul).
pub const GOLDENS: [Golden; 12] = [
    golden("bola-const8", "BBB:BOLA:const8", 1),
    golden("voxel-const3", "BBB:VOXEL:const3", 1),
    golden("voxel-tmobile-buf1", "ToS:VOXEL:tmobile:buf1", 2021),
    golden("bolassim-att", "ED:BOLA-SSIM:att", 7),
    golden("voxel-lossburst", "BBB:VOXEL:const5:loss@40+10x0.2", 11),
    golden(
        "fleet-mixed8",
        "BBB:4xVOXEL+2xBOLA+2xBETA:const6:buf3:q64:d300:drr:stg2",
        0,
    ),
    golden(
        "fleet-voxel8",
        "BBB:8xVOXEL:const6:buf3:q64:d300:drr:stg2",
        0,
    ),
    golden(
        "fleet-mixed64",
        "BBB:28xVOXEL+20xBOLA+16xBETA:const48:buf3:q256:d120:drr:stg1:cap90",
        0,
    ),
    golden(
        "fleet-bbr8",
        "BBB:8xVOXEL@bbr:const6:buf3:q64:d300:drr:stg2",
        0,
    ),
    golden(
        "fleet-ccmix8",
        "BBB:4xVOXEL@bbr+4xVOXEL@cubic:const6:buf3:q64:d300:fifo:stg2",
        0,
    ),
    golden(
        EDGE_HOT_GOLDEN,
        "BBB:16xVOXEL:const24:buf3:q128:d120:drr:stg0:cap90:e4:rhash:afull:plru:o50",
        0,
    ),
    golden(
        "fleet-edge4x16-cold",
        "BBB:16xVOXEL:const24:buf3:q128:d120:drr:stg0:cap90:e4:rhash:anone:plru:o50",
        0,
    ),
];

impl Golden {
    /// The table entry called `name`.
    pub fn named(name: &str) -> Option<&'static Golden> {
        GOLDENS.iter().find(|g| g.name == name)
    }
}

/// Outcome of a golden check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenStatus {
    /// The digest matched the committed golden.
    Matched,
    /// `VOXEL_BLESS=1`: the golden file was (re)written.
    Blessed,
}

/// Whether this process runs in bless mode.
fn blessing() -> bool {
    std::env::var("VOXEL_BLESS").as_deref() == Ok("1")
}

fn golden_line(g: &Golden, d: Digest) -> String {
    format!(
        "fnv64:{:016x} events:{} seed:{} spec:{}\n",
        d.hash, d.events, g.seed, g.spec
    )
}

/// Verify `jsonl`'s digest against `golden_dir/<name>.digest`, or rewrite
/// the file when `VOXEL_BLESS=1`.
pub fn check_or_bless(golden_dir: &Path, g: &Golden, jsonl: &[u8]) -> Result<GoldenStatus, String> {
    let line = golden_line(g, timeline_digest(jsonl));
    let path = golden_dir.join(format!("{}.digest", g.name));
    if blessing() {
        std::fs::create_dir_all(golden_dir)
            .map_err(|e| format!("cannot create {}: {e}", golden_dir.display()))?;
        std::fs::write(&path, &line)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        return Ok(GoldenStatus::Blessed);
    }
    let committed = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "no golden digest at {} ({e}); run `VOXEL_BLESS=1 cargo test golden` to create it",
            path.display()
        )
    })?;
    if committed == line {
        Ok(GoldenStatus::Matched)
    } else {
        Err(format!(
            "golden digest mismatch for {}:\n  committed: {}  observed:  {}\
             If the behavior change is intentional, re-bless with VOXEL_BLESS=1.",
            g.name,
            committed.trim_end().to_owned() + "\n",
            line
        ))
    }
}

/// One executed golden: the timeline its digest is taken over, and
/// everything that would disqualify it.
pub struct GoldenRun {
    /// The raw JSONL timeline (a scenario's single trial; a fleet's
    /// reference worker count).
    pub timeline: Vec<u8>,
    /// Oracle violations, taxonomy mismatches and, for fleets, every
    /// cross-worker-count divergence (empty = the digest is worth
    /// checking).
    pub failures: Vec<String>,
    /// The taxonomy rows the run produced.
    pub emitted: Emitted,
    /// Flight-recorder dump of the run's tail, when an oracle fired.
    pub postmortem: Option<String>,
    /// The fleet's result, for a fleet golden.
    pub fleet: Option<FleetResult>,
}

/// Run one golden. A scenario runs once under its seed, every oracle
/// armed. A fleet runs as a sharded-parity sweep over `workers`
/// ([`shard_parity_failures`]; the first count's timeline is the digest
/// candidate), and the hot edge golden also answers to the hot-cache
/// oracles. Either kind's timeline and metrics are then held to the
/// taxonomy. `workers` is ignored for scenarios.
pub fn run_golden(
    g: &Golden,
    content: &mut Content,
    workers: &[usize],
) -> Result<GoldenRun, String> {
    let (timeline, mut failures, postmortem, fleet, metrics) = match Spec::parse(g.spec)? {
        Spec::Scenario(scenario) => {
            let run = run_scenario(&scenario, g.seed, content)?;
            let trial = run
                .trials
                .into_iter()
                .next()
                .ok_or_else(|| format!("golden {} produced no trials", g.name))?;
            let postmortem = run.postmortems.into_iter().next();
            let metrics = trial.result.metrics;
            (trial.timeline, run.failures, postmortem, None, metrics)
        }
        Spec::Fleet(spec) => {
            let (run, mut failures) = shard_parity_failures(g.name, &spec, content, workers)?;
            if g.name == EDGE_HOT_GOLDEN {
                failures.extend(edge_hot_invariants(&run.result));
            }
            let fleet = Some(run.result);
            (run.timeline, failures, run.postmortem, fleet, run.metrics)
        }
    };
    let (emitted, mismatches) = taxonomy_check(&timeline, metrics.as_ref());
    failures.extend(mismatches);
    Ok(GoldenRun {
        timeline,
        failures,
        emitted,
        postmortem,
        fleet,
    })
}

/// The taxonomy rows one run produced, by name (kind names are unique
/// across layers, and metric names are prefixed by theirs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Emitted {
    /// [`KINDS`] rows with at least one timeline line.
    pub kinds: BTreeSet<&'static str>,
    /// [`METRICS`] rows present in the run's snapshot.
    pub metrics: BTreeSet<&'static str>,
}

/// Hold a timeline and its metrics snapshot to the taxonomy. Returns the
/// rows the run produced, and one failure per offending kind (quoting
/// its first line) or metric.
fn taxonomy_check(timeline: &[u8], metrics: Option<&MetricsSnapshot>) -> (Emitted, Vec<String>) {
    let mut emitted = Emitted::default();
    let mut failures = Vec::new();
    let mut reported = BTreeSet::new();
    for (n, line) in timeline.split(|&b| b == b'\n').enumerate() {
        if line.is_empty() {
            continue;
        }
        match check_line(line) {
            Ok(row) => {
                emitted.kinds.insert(row.kind);
            }
            Err((key, why)) => {
                if reported.insert(key) {
                    let line = String::from_utf8_lossy(line);
                    failures.push(format!("taxonomy: timeline line {}: {why}: {line}", n + 1));
                }
            }
        }
    }
    let Some(snap) = metrics else {
        return (emitted, failures);
    };
    let counters = snap.counters.iter().map(|(n, _)| (n, MetricShape::Counter));
    let histograms = snap
        .histograms
        .iter()
        .map(|(n, _)| (n, MetricShape::Histogram));
    for (name, shape) in counters.chain(histograms) {
        match METRICS.iter().find(|m| m.name == name) {
            Some(m) if m.shape == shape => {
                emitted.metrics.insert(m.name);
            }
            Some(m) => failures.push(format!(
                "taxonomy: metric `{name}` is a {shape} in the snapshot but a {} in METRICS",
                m.shape
            )),
            None => failures.push(format!("taxonomy: metric `{name}` has no METRICS row")),
        }
    }
    (emitted, failures)
}

/// Match one line in the tracer's canonical form — the header
/// `{"t":D,"seq":D,"sid":D,"layer":"L","kind":"K"`, then one `"name":value`
/// pair per field — against its [`KINDS`] row: the row must exist and
/// list exactly the line's field names, in order. An error carries the
/// key it is reported under (one report per kind) and what is wrong.
fn check_line(line: &[u8]) -> Result<&'static Kind, (String, String)> {
    let malformed = || ("header".to_string(), "not a canonical event".to_string());
    let mut rest = line.strip_prefix(b"{\"t\":").ok_or_else(malformed)?;
    for key in [&b",\"seq\":"[..], b",\"sid\":", b",\"layer\":\""] {
        let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        rest = rest[digits..].strip_prefix(key).ok_or_else(malformed)?;
    }
    let (layer, rest) = until_quote(rest).ok_or_else(malformed)?;
    let rest = rest.strip_prefix(b",\"kind\":\"").ok_or_else(malformed)?;
    let (kind, fields) = until_quote(rest).ok_or_else(malformed)?;
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    let row = KINDS
        .iter()
        .find(|k| k.kind.as_bytes() == kind && k.layer.as_str().as_bytes() == layer)
        .ok_or_else(|| {
            let (layer, kind) = (text(layer), text(kind));
            (
                format!("{layer}/{kind}"),
                format!("no KINDS row for layer `{layer}` kind `{kind}`"),
            )
        })?;
    let mut want = row.fields.iter();
    let mut same = true;
    let mut rest = fields;
    while let Some((name, tail)) = next_field(rest) {
        same &= want.next().is_some_and(|w| w.as_bytes() == name);
        rest = tail;
    }
    if rest != b"}" {
        return Err(malformed());
    }
    if !same || want.next().is_some() {
        let names: Vec<String> = std::iter::successors(next_field(fields), |&(_, t)| next_field(t))
            .map(|(name, _)| text(name))
            .collect();
        return Err((
            row.kind.to_string(),
            format!(
                "`{}` carries fields {names:?}, its KINDS row {:?}",
                row.kind, row.fields
            ),
        ));
    }
    Ok(row)
}

/// Split at the next `"`: the text before it, and what follows it.
fn until_quote(b: &[u8]) -> Option<(&[u8], &[u8])> {
    let at = b.iter().position(|&c| c == b'"')?;
    Some((&b[..at], &b[at + 1..]))
}

/// One `,"name":value` pair: the name, and what follows the value (a
/// string with its escapes, or a bare number, `true`, `false` or `null`).
fn next_field(b: &[u8]) -> Option<(&[u8], &[u8])> {
    let (name, rest) = until_quote(b.strip_prefix(b",\"")?)?;
    let value = rest.strip_prefix(b":")?;
    let end = if value.first() == Some(&b'"') {
        let mut i = 1;
        while i < value.len() && value[i] != b'"' {
            i += if value[i] == b'\\' { 2 } else { 1 };
        }
        (i + 1).min(value.len())
    } else {
        value
            .iter()
            .position(|&c| c == b',' || c == b'}')
            .unwrap_or(value.len())
    };
    Some((name, &value[end..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn one_pass_digest_matches_hash_and_count_taken_apart() {
        for jsonl in [
            &b""[..],
            b"\n",
            b"{\"t\":1}",
            b"{\"t\":1}\r\n{\"t\":2}\n\n\xff",
        ] {
            let d = timeline_digest(jsonl);
            assert_eq!(d.hash, fnv64(jsonl));
            assert_eq!(d.events, jsonl.iter().filter(|&&b| b == b'\n').count());
        }
    }

    #[test]
    fn digest_counts_lines_and_separates_content() {
        let a = timeline_digest(b"{\"t\":1}\n{\"t\":2}\n");
        assert_eq!(a.events, 2);
        let b = timeline_digest(b"{\"t\":1}\n{\"t\":3}\n");
        assert_eq!(b.events, 2);
        assert_ne!(a.hash, b.hash);
    }

    #[test]
    fn lines_are_matched_to_their_kinds_row() {
        let ok = r#"{"t":5,"seq":0,"sid":3,"layer":"quic","kind":"pto","count":1,"cwnd":2800}"#;
        assert_eq!(check_line(ok.as_bytes()).map(|k| k.kind), Ok("pto"));
        // String values may hold escapes, commas and braces.
        let path = r#"{"t":0,"seq":1,"sid":0,"layer":"http","kind":"request","stream":4,"path":"/a\",b}:","unreliable":false}"#;
        assert_eq!(check_line(path.as_bytes()).map(|k| k.kind), Ok("request"));
        for bad in [
            r#"{"t":5,"seq":0,"sid":3,"layer":"quic","kind":"pto","cwnd":2800,"count":1}"#,
            r#"{"t":5,"seq":0,"sid":3,"layer":"quic","kind":"pto","count":1}"#,
            r#"{"t":5,"seq":0,"sid":3,"layer":"http","kind":"pto","count":1,"cwnd":2800}"#,
            r#"{"t":5,"seq":0,"sid":3,"layer":"quic","kind":"pto","count":1,"cwnd":2800"#,
            "pto",
        ] {
            assert!(check_line(bad.as_bytes()).is_err(), "{bad}");
        }
    }

    #[test]
    fn taxonomy_check_reports_once_per_kind_and_each_bad_metric() {
        let line = r#"{"t":5,"seq":0,"sid":3,"layer":"quic","kind":"pto","count":1}"#;
        let timeline = format!("{line}\n{line}\n");
        let mut snap = voxel_trace::MetricsRegistry::new().snapshot(voxel_sim::SimTime::ZERO);
        snap.set_counter("quic.ptos", 2);
        snap.set_counter("quic.srtt_us", 1);
        snap.set_counter("quic.mystery", 1);
        let (emitted, failures) = taxonomy_check(timeline.as_bytes(), Some(&snap));
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures[0].contains("timeline line 1"), "{failures:?}");
        assert!(emitted.kinds.is_empty());
        assert_eq!(emitted.metrics, BTreeSet::from(["quic.ptos"]));
    }

    #[test]
    fn goldens_parse_are_unique_and_cheap() {
        let mut names: Vec<&str> = GOLDENS.iter().map(|g| g.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), GOLDENS.len(), "golden names must be unique");
        for g in &GOLDENS {
            match Spec::parse(g.spec).expect(g.name) {
                Spec::Scenario(s) => assert_eq!(s.trials, 1, "{} must stay cheap", g.name),
                // Fleet digests embed the spec string: keep it canonical.
                Spec::Fleet(f) => assert_eq!(f.to_string(), g.spec, "{}", g.name),
            }
            assert_eq!(Golden::named(g.name).expect(g.name).spec, g.spec);
        }
        assert!(matches!(
            Golden::named(EDGE_HOT_GOLDEN).map(|g| Spec::parse(g.spec)),
            Some(Ok(Spec::Fleet(f))) if f.edge.is_some()
        ));
    }

    #[test]
    fn bless_then_check_round_trips() {
        let dir = std::env::temp_dir().join(format!("voxel-golden-{}", std::process::id()));
        let g = golden("unit", "BBB:BOLA:const8", 1);
        let jsonl = b"{\"t\":1}\n";
        // Write the golden directly (env-var bless mode is exercised by
        // tests/golden_digests.rs; mutating the env here would race other
        // tests in this binary).
        std::fs::create_dir_all(&dir).expect("temp dir");
        std::fs::write(
            dir.join("unit.digest"),
            golden_line(&g, timeline_digest(jsonl)),
        )
        .expect("write golden");
        assert_eq!(
            check_or_bless(&dir, &g, jsonl).expect("clean check"),
            GoldenStatus::Matched
        );
        let err = check_or_bless(&dir, &g, b"{\"t\":2}\n").expect_err("mismatch");
        assert!(err.contains("mismatch"), "{err}");
        let missing = Golden { name: "nope", ..g };
        let err = check_or_bless(&dir, &missing, jsonl).expect_err("missing");
        assert!(err.contains("VOXEL_BLESS=1"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
