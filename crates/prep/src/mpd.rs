//! Parsing the extended manifest's wire format.
//!
//! A VOXEL-aware client receives the manifest as text (Listing 1) and needs
//! the per-entry attributes back: `mediaRange`, `reliableSize`, the
//! `ssims` triplets, and the chosen ordering. This module parses the
//! serialization [`crate::manifest::Manifest::to_mpd`] produces — the
//! deployable half of the §4.1 "size vs. compatibility tradeoff" (only the
//! manifest changes; video files stay untouched). A VOXEL-unaware client
//! would ignore every attribute except `mediaRange`, which is exactly what
//! [`ParsedEntry::media_range`] alone supports.

use crate::analysis::QoePoint;
use std::fmt::{self, Display, Write};

/// One parsed `<SegmentURL …/>` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedEntry {
    /// Segment index.
    pub segment: usize,
    /// Quality level index (0..=12).
    pub level: usize,
    /// Byte range of the segment within the video file (inclusive).
    pub media_range: (u64, u64),
    /// Name of the chosen ordering.
    pub ordering: String,
    /// Bytes requiring reliable delivery.
    pub reliable_size: u64,
    /// The bytes→QoE triplets.
    pub ssims: Vec<QoePoint>,
}

/// A parsed manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedMpd {
    /// The video's short name.
    pub video: String,
    /// Declared segment count.
    pub segments: usize,
    /// All entries, in document order.
    pub entries: Vec<ParsedEntry>,
}

/// Serialize a parsed manifest back to the Listing 1 wire format.
///
/// Exact inverse of [`parse`]: `parse(&serialize(&m)) == Some(m)` for any
/// `ParsedMpd` whose strings avoid `"` and whose `ssims` values are exact
/// at the printed 3-decimal precision (as every analysed manifest's are).
/// Matches [`crate::manifest::Manifest::to_mpd`] byte for byte, so a relay
/// can re-emit a manifest it only ever saw as text.
pub fn serialize(mpd: &ParsedMpd) -> String {
    write_mpd(
        &mpd.video,
        mpd.segments,
        mpd.entries.iter().map(|e| Line {
            segment: e.segment,
            level: e.level,
            media_range: e.media_range,
            ordering: &e.ordering,
            reliable_size: e.reliable_size,
            ssims: &e.ssims,
        }),
    )
}

/// The fields of one `<SegmentURL …/>` line, borrowed from a prepared
/// [`crate::manifest::SegmentEntry`] or a [`ParsedEntry`].
pub(crate) struct Line<'a> {
    pub(crate) segment: usize,
    pub(crate) level: usize,
    pub(crate) media_range: (u64, u64),
    pub(crate) ordering: &'a dyn Display,
    pub(crate) reliable_size: u64,
    pub(crate) ssims: &'a [QoePoint],
}

/// The one Listing 1 writer, behind both [`serialize`] and
/// [`crate::manifest::Manifest::to_mpd`]: the whole document goes into one
/// `String` sized up front, with no allocation per line or triplet.
pub(crate) fn write_mpd<'a>(
    video: &dyn Display,
    segments: usize,
    lines: impl Iterator<Item = Line<'a>> + Clone,
) -> String {
    // A line's attributes fit in 128 bytes and a triplet
    // (`0.997:96:1234567,`) in 20 for every segment the ladder produces, so
    // the text is written without regrowing.
    let capacity = 64
        + lines
            .clone()
            .map(|l| 128 + 20 * l.ssims.len())
            .sum::<usize>();
    let mut out = String::with_capacity(capacity);
    #[expect(
        clippy::expect_used,
        reason = "fmt::Write for String never returns an error"
    )]
    write_lines(&mut out, video, segments, lines).expect("writing to a String cannot fail");
    out
}

fn write_lines<'a>(
    out: &mut String,
    video: &dyn Display,
    segments: usize,
    lines: impl Iterator<Item = Line<'a>>,
) -> fmt::Result {
    writeln!(out, "<MPD video=\"{video}\" segments=\"{segments}\">")?;
    for l in lines {
        write!(
            out,
            "<SegmentURL seg=\"{}\" q=\"{}\" mediaRange=\"{}-{}\" ordering=\"{}\" \
             reliableSize=\"{}\" ssims=\"",
            l.segment, l.level, l.media_range.0, l.media_range.1, l.ordering, l.reliable_size,
        )?;
        for (i, p) in l.ssims.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{:.3}:{}:{}", p.ssim, p.frames, p.bytes)?;
        }
        out.push_str("\"/>\n");
    }
    out.push_str("</MPD>\n");
    Ok(())
}

/// Extract `name="value"` from an XML-ish attribute list.
fn attr<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("{name}=\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(&line[start..end])
}

/// Parse the output of `Manifest::to_mpd`; `None` on malformed input.
pub fn parse(text: &str) -> Option<ParsedMpd> {
    let mut lines = text.lines();
    let head = lines.next()?;
    if !head.starts_with("<MPD") {
        return None;
    }
    let video = attr(head, "video")?.to_string();
    let segments: usize = attr(head, "segments")?.parse().ok()?;
    let mut entries = Vec::new();
    for line in lines {
        let line = line.trim();
        if line == "</MPD>" {
            break;
        }
        if !line.starts_with("<SegmentURL") {
            return None;
        }
        let (start, end) = attr(line, "mediaRange")?.split_once('-')?;
        let ssims = attr(line, "ssims")?
            .split(',')
            .map(|t| {
                let mut parts = t.split(':');
                Some(QoePoint {
                    ssim: parts.next()?.parse().ok()?,
                    frames: parts.next()?.parse().ok()?,
                    bytes: parts.next()?.parse().ok()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        entries.push(ParsedEntry {
            segment: attr(line, "seg")?.parse().ok()?,
            level: attr(line, "q")?.parse().ok()?,
            media_range: (start.parse().ok()?, end.parse().ok()?),
            ordering: attr(line, "ordering")?.to_string(),
            reliable_size: attr(line, "reliableSize")?.parse().ok()?,
            ssims,
        });
    }
    Some(ParsedMpd {
        video,
        segments,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;
    use voxel_media::content::VideoId;
    use voxel_media::ladder::QualityLevel;
    use voxel_media::qoe::QoeModel;
    use voxel_media::video::Video;

    fn manifest() -> Manifest {
        let video = Video::generate(VideoId::Tos);
        Manifest::prepare_levels(&video, &QoeModel::default(), &[QualityLevel::MAX])
    }

    #[test]
    fn roundtrips_the_serialized_manifest() {
        let m = manifest();
        let parsed = parse(&m.to_mpd()).expect("parses");
        assert_eq!(parsed.video, "ToS");
        assert_eq!(parsed.segments, m.num_segments());
        assert_eq!(parsed.entries.len(), m.num_segments() * 13);
        // Spot-check a fully analysed entry against the source.
        let src = m.entry(5, QualityLevel::MAX);
        let got = parsed
            .entries
            .iter()
            .find(|e| e.segment == 5 && e.level == 12)
            .expect("present");
        assert_eq!(got.media_range, src.media_range);
        assert_eq!(got.reliable_size, src.reliable_size);
        assert_eq!(got.ssims.len(), src.ssims.len());
        assert_eq!(got.ordering, src.ordering.to_string());
        // Triplets round-trip within the printed precision.
        for (a, b) in got.ssims.iter().zip(&src.ssims) {
            assert!((a.ssim - b.ssim).abs() < 5e-4);
            assert_eq!(a.frames, b.frames);
            assert_eq!(a.bytes, b.bytes);
        }
    }

    #[test]
    fn parsed_ssims_stay_usable_for_decisions() {
        let m = manifest();
        let parsed = parse(&m.to_mpd()).expect("parses");
        let e = parsed
            .entries
            .iter()
            .find(|e| e.segment == 0 && e.level == 12)
            .expect("present");
        // Monotone in bytes, so a client can binary-search budgets.
        for w in e.ssims.windows(2) {
            assert!(w[0].bytes < w[1].bytes);
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("").is_none());
        assert!(parse("<NotMpd>").is_none());
        assert!(parse("<MPD video=\"x\" segments=\"1\">\ngarbage\n</MPD>").is_none());
        assert!(parse("<MPD video=\"x\" segments=\"nope\">\n</MPD>").is_none());
        // Truncated ssims triplet.
        let bad = "<MPD video=\"x\" segments=\"1\">\n<SegmentURL seg=\"0\" q=\"0\" mediaRange=\"0-9\" ordering=\"original\" reliableSize=\"5\" ssims=\"0.9:4\"/>\n</MPD>";
        assert!(parse(bad).is_none());
        // A triplet's frames or bytes beyond u32 (2^32 = 4294967296).
        let entry = |ssims: &str| {
            format!("<MPD video=\"x\" segments=\"1\">\n<SegmentURL seg=\"0\" q=\"0\" mediaRange=\"0-9\" ordering=\"original\" reliableSize=\"5\" ssims=\"{ssims}\"/>\n</MPD>")
        };
        assert!(parse(&entry("0.900:4:4294967295")).is_some());
        assert!(parse(&entry("0.900:4:4294967296")).is_none());
        assert!(parse(&entry("0.900:4294967296:10")).is_none());
    }

    #[test]
    fn serialize_is_byte_identical_to_manifest_output() {
        // parse → serialize reproduces Manifest::to_mpd byte for byte: a
        // relay that only ever saw the text can re-emit it unchanged.
        let text = manifest().to_mpd();
        let parsed = parse(&text).expect("parses");
        assert_eq!(serialize(&parsed), text);
    }

    #[test]
    fn attr_extraction() {
        let line = r#"<SegmentURL seg="3" q="12" mediaRange="10-99"/>"#;
        assert_eq!(attr(line, "seg"), Some("3"));
        assert_eq!(attr(line, "mediaRange"), Some("10-99"));
        assert_eq!(attr(line, "missing"), None);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// parse→serialize→parse is the identity on arbitrary documents
        /// (and serialize→parse→serialize is byte-stable). SSIMs are
        /// generated on the 1/1000 grid so the printed 3-decimal form is
        /// exact; every analysed manifest satisfies the same property once
        /// it has been through one print.
        #[test]
        fn parse_serialize_parse_is_identity(
            video in "[A-Za-z][A-Za-z0-9]{0,7}",
            segments in 0usize..500,
            raw in proptest::collection::vec(
                (
                    0usize..120,
                    0usize..13,
                    (0u64..1_000_000, 0u64..1_000_000),
                    "[a-z][a-z-]{0,11}",
                    0u64..500_000,
                    proptest::collection::vec(
                        (0u32..=1000, 0u32..600, 0u32..5_000_000),
                        1..6,
                    ),
                ),
                0..12,
            ),
        ) {
            let entries: Vec<ParsedEntry> = raw
                .into_iter()
                .map(|(segment, level, (a, b), ordering, reliable_size, pts)| ParsedEntry {
                    segment,
                    level,
                    media_range: (a.min(b), a.max(b)),
                    ordering,
                    reliable_size,
                    ssims: pts
                        .into_iter()
                        .map(|(milli, frames, bytes)| QoePoint {
                            ssim: f64::from(milli) / 1000.0,
                            frames,
                            bytes,
                        })
                        .collect(),
                })
                .collect();
            let doc = ParsedMpd { video, segments, entries };
            let text = serialize(&doc);
            let back = parse(&text).expect("serializer output parses");
            prop_assert_eq!(&back, &doc);
            prop_assert_eq!(serialize(&back), text);
        }
    }
}
