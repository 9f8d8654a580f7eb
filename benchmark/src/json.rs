//! The benchmark's one JSON reader/writer. Objects keep insertion order, so
//! files diff cleanly; numbers are `f64` printed with all their digits.

use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(pairs) => pairs,
            _ => &[],
        }
    }

    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// Indented rendering for files meant to be read and diffed.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        let (members, close): (Vec<(Option<&str>, &Json)>, char) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => return out.push_str(&n.to_string()),
            Json::Num(_) => return out.push_str("null"),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                (items.iter().map(|v| (None, v)).collect(), ']')
            }
            Json::Obj(pairs) => {
                out.push('{');
                let members = pairs.iter().map(|(k, v)| (Some(k.as_str()), v));
                (members.collect(), '}')
            }
        };
        // Containers whose members are all scalars stay on one line.
        let flat = members
            .iter()
            .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
        let inner = indent.filter(|_| !flat).map(|d| d + 1);
        let newline = |out: &mut String, depth: Option<usize>| {
            if let Some(d) = depth {
                out.push('\n');
                out.push_str(&"  ".repeat(d));
            }
        };
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push_str(if inner.is_some() { "," } else { ", " });
            }
            newline(out, inner);
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, inner);
        }
        if !members.is_empty() {
            newline(out, inner.and(indent));
        }
        out.push(close);
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.at != p.s.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

/// Compact one-line rendering.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.at)
    }

    fn ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.at..].starts_with(lit.as_bytes());
        if hit {
            self.at += lit.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.at) {
            Some(b'{') => self.container(b'}').map(Json::Obj),
            Some(b'[') => self
                .container(b']')
                .map(|kv| Json::Arr(kv.into_iter().map(|(_, v)| v).collect())),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .s
                    .get(self.at)
                    .is_some_and(|b| b"+-.eE".contains(b) || b.is_ascii_digit())
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.s[start..self.at])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| self.err("bad value"))
            }
            None => Err(self.err("unexpected end")),
        }
    }

    /// Members of an object (`close == b'}'`) or an array (keys left empty).
    fn container(&mut self, close: u8) -> Result<Vec<(String, Json)>, String> {
        self.at += 1;
        let mut out = Vec::new();
        loop {
            self.ws();
            if self.s.get(self.at) == Some(&close) {
                self.at += 1;
                return Ok(out);
            }
            if !out.is_empty() && !self.eat(",") {
                return Err(self.err("expected ','"));
            }
            self.ws();
            let key = if close == b'}' {
                let k = self.string()?;
                self.ws();
                if !self.eat(":") {
                    return Err(self.err("expected ':'"));
                }
                k
            } else {
                String::new()
            };
            out.push((key, self.value()?));
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("expected string"));
        }
        let mut out = Vec::new();
        loop {
            let b = *self.s.get(self.at).ok_or_else(|| self.err("open string"))?;
            self.at += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|_| self.err("bad UTF-8")),
                b'\\' => {
                    let e = *self.s.get(self.at).ok_or_else(|| self.err("open escape"))?;
                    self.at += 1;
                    let c = match e {
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self.s.get(self.at..self.at + 4);
                            self.at += 4;
                            hex.and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?
                        }
                        other => other as char,
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                b => out.push(b),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_reader_round_trip_including_escapes() {
        let doc = Json::obj([
            (
                "name",
                Json::from("tab\there \"quoted\" back\\slash\nnew\u{1}line é"),
            ),
            ("n", Json::from(5.0)),
            ("x", Json::from(1.2034e-7)),
            ("big", Json::from(1.4e6)),
            ("neg", Json::from(-0.25)),
            ("ok", Json::from(true)),
            ("none", Json::Null),
            (
                "list",
                Json::Arr(vec![Json::from(1.0), Json::from("a"), Json::Arr(vec![])]),
            ),
            (
                "nested",
                Json::obj([("k", Json::obj([("deep", Json::from(false))]))]),
            ),
            ("empty", Json::obj::<String>([])),
        ]);
        for text in [doc.to_string(), doc.pretty()] {
            assert_eq!(Json::parse(&text).expect("parses"), doc, "{text}");
        }
        assert!(!doc.to_string().contains('\n'));
        assert_eq!(doc.get("n").and_then(Json::num), Some(5.0));
        assert_eq!(doc.get("list").map(|l| l.items().len()), Some(3));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn non_finite_numbers_become_null_and_garbage_is_refused() {
        assert_eq!(Json::from(f64::NAN).to_string(), "null");
        for bad in ["", "{", "{\"a\" 1}", "[1 2]", "\"open", "{} x", "nul", "--"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        assert_eq!(
            Json::parse(" [1e3, -2.5] ").expect("parses").items().len(),
            2
        );
        assert_eq!(
            Json::parse("\"\\u00e9\\/\"").expect("parses").str(),
            Some("é/")
        );
    }
}
