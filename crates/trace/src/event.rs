//! The event type, its layer tag, and deterministic JSON rendering.

use crate::json;
use std::fmt;
use voxel_sim::SimTime;

/// Which layer of the stack emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// QUIC\* transport: packets, acks, losses, congestion control.
    Quic,
    /// HTTP semantics: requests, range requests, responses, abandonment.
    Http,
    /// ABR decisions (real or virtual levels).
    Abr,
    /// Player state: startup, stalls, segment playback, retransmission.
    Player,
    /// Session harness: trial boundaries, progress, summaries.
    Session,
    /// Fleet harness: multi-session runs on a shared link — membership,
    /// per-flow shares, fairness summaries.
    Fleet,
    /// Edge serving tier: per-edge cache outcomes and origin backhaul
    /// load (DESIGN.md §16).
    Edge,
}

impl Layer {
    /// Stable lowercase name used on the wire and in timelines.
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Quic => "quic",
            Layer::Http => "http",
            Layer::Abr => "abr",
            Layer::Player => "player",
            Layer::Session => "session",
            Layer::Fleet => "fleet",
            Layer::Edge => "edge",
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A field value. Small closed set so rendering stays deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rendered with Rust's shortest-roundtrip formatting, which is
    /// deterministic; non-finite values render as `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (JSON-escaped on output).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

/// One structured, sim-time-stamped event.
#[derive(Debug, PartialEq)]
pub struct TraceEvent {
    /// Sim time of the event.
    pub t: SimTime,
    /// Monotone per-session sequence number (total emission order, which
    /// can run ahead of `t` for events reported retroactively, e.g. a
    /// stall detected when the segment that ends it arrives).
    pub seq: u64,
    /// Session the event belongs to.
    pub session_id: u64,
    /// Emitting layer.
    pub layer: Layer,
    /// Event kind, e.g. `pkt_sent`, `decision`, `stall_start`.
    pub kind: &'static str,
    /// Event-specific key/value payload.
    pub fields: Vec<(&'static str, Value)>,
}

impl Clone for TraceEvent {
    fn clone(&self) -> TraceEvent {
        TraceEvent {
            fields: self.fields.clone(),
            ..*self
        }
    }

    /// Reuses `self.fields`' allocation: a ring overwriting its oldest
    /// slot with a numeric-only event touches no heap.
    fn clone_from(&mut self, source: &TraceEvent) {
        self.t = source.t;
        self.seq = source.seq;
        self.session_id = source.session_id;
        self.layer = source.layer;
        self.kind = source.kind;
        self.fields.clone_from(&source.fields);
    }
}

impl TraceEvent {
    /// An event with no fields yet, for a writer that fills it in place.
    pub(crate) fn empty(session_id: u64) -> TraceEvent {
        TraceEvent {
            t: SimTime::ZERO,
            seq: 0,
            session_id,
            layer: Layer::Session,
            kind: "",
            fields: Vec::new(),
        }
    }

    /// One JSON object (no trailing newline), keys in fixed order:
    /// `t`, `seq`, `sid`, `layer`, `kind`, then the payload fields.
    pub fn to_json(&self) -> String {
        let mut out = Vec::with_capacity(128);
        self.write_json(&mut out);
        json::into_string(out)
    }

    /// Append [`TraceEvent::to_json`]'s bytes to `out`. The layer and
    /// kind are static identifiers and are written unescaped.
    pub(crate) fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"t\":");
        json::write_u64(out, self.t.as_micros());
        out.extend_from_slice(b",\"seq\":");
        json::write_u64(out, self.seq);
        out.extend_from_slice(b",\"sid\":");
        json::write_u64(out, self.session_id);
        out.extend_from_slice(b",\"layer\":\"");
        out.extend_from_slice(self.layer.as_str().as_bytes());
        out.extend_from_slice(b"\",\"kind\":\"");
        out.extend_from_slice(self.kind.as_bytes());
        out.push(b'"');
        for (name, value) in &self.fields {
            out.push(b',');
            json::write_str(out, name);
            out.push(b':');
            json::write_value(out, value);
        }
        out.push(b'}');
    }

    /// Human-readable single line for stderr / timeline rendering.
    pub fn to_human(&self) -> String {
        let mut out = format!(
            "[{:>13}] {:<7} {:<16}",
            format!("{}", self.t),
            self.layer.as_str(),
            self.kind
        );
        for (name, value) in &self.fields {
            out.push(' ');
            out.push_str(name);
            out.push('=');
            out.push_str(&value.to_string());
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn event() -> TraceEvent {
        TraceEvent {
            t: SimTime::from_millis(1500),
            seq: 3,
            session_id: 7,
            layer: Layer::Abr,
            kind: "decision",
            fields: vec![
                ("level", Value::U64(9)),
                ("buffer_s", Value::F64(4.25)),
                ("virtual", Value::Bool(true)),
                ("path", Value::Str("/seg/3/9/body".into())),
            ],
        }
    }

    #[test]
    fn json_key_order_and_values_are_stable() {
        assert_eq!(
            event().to_json(),
            "{\"t\":1500000,\"seq\":3,\"sid\":7,\"layer\":\"abr\",\"kind\":\"decision\",\
             \"level\":9,\"buffer_s\":4.25,\"virtual\":true,\"path\":\"/seg/3/9/body\"}"
        );
    }

    #[test]
    fn json_escapes_strings_and_nonfinite_floats() {
        let ev = TraceEvent {
            t: SimTime::ZERO,
            seq: 0,
            session_id: 0,
            layer: Layer::Session,
            kind: "note",
            fields: vec![
                ("msg", Value::Str("a\"b\\c\nd\u{1}".into())),
                ("bad", Value::F64(f64::NAN)),
            ],
        };
        let json = ev.to_json();
        assert!(
            json.contains("\"msg\":\"a\\\"b\\\\c\\nd\\u0001\""),
            "{json}"
        );
        assert!(json.contains("\"bad\":null"));
    }

    /// The `String`-building renderer the byte writer replaced, kept as
    /// the reference it must match byte for byte.
    pub(crate) mod reference {
        use super::*;

        pub(crate) fn write_json_string(s: &str, out: &mut String) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }

        fn write_value(v: &Value, out: &mut String) {
            match v {
                Value::U64(v) => out.push_str(&v.to_string()),
                Value::I64(v) => out.push_str(&v.to_string()),
                Value::F64(v) if v.is_finite() => out.push_str(&v.to_string()),
                Value::F64(_) => out.push_str("null"),
                Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
                Value::Str(s) => write_json_string(s, out),
            }
        }

        pub(crate) fn to_json(e: &TraceEvent) -> String {
            let mut out = String::with_capacity(96);
            out.push_str("{\"t\":");
            out.push_str(&e.t.as_micros().to_string());
            out.push_str(",\"seq\":");
            out.push_str(&e.seq.to_string());
            out.push_str(",\"sid\":");
            out.push_str(&e.session_id.to_string());
            out.push_str(",\"layer\":\"");
            out.push_str(e.layer.as_str());
            out.push_str("\",\"kind\":\"");
            out.push_str(e.kind);
            out.push('"');
            for (name, value) in &e.fields {
                out.push(',');
                write_json_string(name, &mut out);
                out.push(':');
                write_value(value, &mut out);
            }
            out.push('}');
            out
        }
    }

    /// Characters a generated string is drawn from: plain ASCII, every
    /// character with a short escape, control characters (including DEL,
    /// which JSON leaves alone), and one-to-four-byte UTF-8.
    pub(crate) const PALETTE: [char; 16] = [
        'a', 'Z', '7', ' ', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '中',
        '😀', '/',
    ];

    /// Field names: `&'static str`s, some needing escapes.
    const NAMES: [&str; 6] = ["pn", "bytes", "a\"b", "tab\tname", "é", ""];

    pub(crate) fn string_from(picks: &[usize]) -> String {
        picks.iter().map(|&i| PALETTE[i % PALETTE.len()]).collect()
    }

    /// Any `f64` bit pattern (NaN payloads, ±inf, subnormals, ±0), or one
    /// of the edge values named outright.
    fn float(kind: u64, bits: u64) -> f64 {
        const EDGES: [f64; 10] = [
            -0.0,
            0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0,
            1e21,
            1e-7,
            f64::MAX,
            0.1 + 0.2,
        ];
        match kind {
            0 => f64::from_bits(bits),
            1 => EDGES[(bits % EDGES.len() as u64) as usize],
            _ => (bits % 1_000_000) as f64 / 64.0,
        }
    }

    fn value(kind: u64, bits: u64, picks: &[usize]) -> Value {
        match kind % 7 {
            0 => Value::U64(bits),
            1 => Value::U64([0, 9, 10, u64::MAX][(bits % 4) as usize]),
            2 => Value::I64(bits as i64),
            3 => Value::I64([i64::MIN, -1, 0, i64::MAX][(bits % 4) as usize]),
            4 => Value::F64(float(bits % 3, bits.rotate_left(17))),
            5 => Value::Bool(bits & 1 == 1),
            _ => Value::Str(string_from(picks)),
        }
    }

    proptest::proptest! {
        /// The byte writer renders every event exactly as the
        /// `String`-building renderer did.
        #[test]
        fn byte_writer_matches_the_reference_renderer(
            head in (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, 0usize..7),
            fields in proptest::collection::vec(
                (0usize..6, 0u64..7, 0u64..=u64::MAX, proptest::collection::vec(0usize..64, 0..12)),
                0..8,
            ),
        ) {
            const LAYERS: [Layer; 7] = [
                Layer::Quic, Layer::Http, Layer::Abr, Layer::Player,
                Layer::Session, Layer::Fleet, Layer::Edge,
            ];
            let ev = TraceEvent {
                t: SimTime::from_micros(head.0),
                seq: head.1,
                session_id: head.2,
                layer: LAYERS[head.3],
                kind: "pkt_sent",
                fields: fields
                    .iter()
                    .map(|(n, kind, bits, picks)| (NAMES[*n], value(*kind, *bits, picks)))
                    .collect(),
            };
            proptest::prop_assert_eq!(ev.to_json(), reference::to_json(&ev));
        }
    }

    #[test]
    fn clone_from_reuses_the_field_buffer() {
        let mut slot = event();
        slot.fields.reserve(16);
        let capacity = slot.fields.capacity();
        let mut next = event();
        next.seq = 99;
        next.fields.truncate(2);
        slot.clone_from(&next);
        assert_eq!(slot, next);
        assert_eq!(slot.fields.capacity(), capacity);
    }

    #[test]
    fn human_line_includes_all_fields() {
        let line = event().to_human();
        assert!(line.contains("abr"), "{line}");
        assert!(line.contains("decision"));
        assert!(line.contains("level=9"));
        assert!(line.contains("buffer_s=4.25"));
        assert!(line.contains("1.500000s"));
    }

    #[test]
    fn layer_names_are_stable() {
        let all = [
            Layer::Quic,
            Layer::Http,
            Layer::Abr,
            Layer::Player,
            Layer::Session,
            Layer::Fleet,
            Layer::Edge,
        ];
        let names: Vec<&str> = all.iter().map(|l| l.as_str()).collect();
        assert_eq!(
            names,
            ["quic", "http", "abr", "player", "session", "fleet", "edge"]
        );
    }
}
