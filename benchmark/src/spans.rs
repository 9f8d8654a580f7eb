//! The benchmark's own span recorder, used by the traced round.
//!
//! Spans are recorded from the benchmark's files, around the calls it makes
//! into a layer (no span is added inside the program here). They are kept
//! in memory and written out when the child ends. A span carries its name,
//! start, end, the span that caused it, and the workload as the shared id.
//! Self time is a span's duration minus the part its children cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A single-threaded span tree. Disabled (the untraced rounds) it records
/// nothing and `scope` is a plain call.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name`, child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            name,
            parent: self.stack.iter().rev().nth(1).copied(),
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if let Some(id) = self.stack.pop() {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Self time per span name, nanoseconds. Sums to the root spans' total.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0) += ns;
        }
        by_name
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("workload", Json::from(workload)),
                ("id", Json::from(id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::from(p as f64)),
                ),
                ("name", Json::from(s.name)),
                ("start_us", Json::from(s.start_ns as f64 / 1e3)),
                ("end_us", Json::from(s.end_ns as f64 / 1e3)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root_span() {
        let mut spans = Spans::new(true);
        spans.scope("child", |s| {
            s.scope("prep", |s| {
                s.scope("run", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            s.scope("run", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let all = &spans.spans;
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[2].parent, Some(1));
        assert_eq!(all[3].parent, Some(0));
        let own = spans.self_ns();
        let root = all[0].end_ns - all[0].start_ns;
        assert_eq!(own.values().sum::<u64>(), root);
        assert!(own["run"] >= 4_000_000);
        assert_eq!(spans.to_jsonl("w").lines().count(), 4);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.scope("run", |_| 7), 7);
        assert!(spans.spans.is_empty());
    }
}
