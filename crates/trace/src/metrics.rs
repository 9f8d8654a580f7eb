//! Counters and log-scale histograms, snapshotable at any sim time.

use crate::json;
use voxel_sim::SimTime;

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i` (1..=64)
/// holds values in `[2^(i-1), 2^i)`.
const BUCKETS: usize = 65;

/// A fixed-bucket histogram with power-of-two (log-scale) buckets.
///
/// Designed for the quantities the instrumentation records — RTTs in
/// microseconds, byte counts, stall durations — whose interesting structure
/// spans orders of magnitude. Insertion is O(1); percentile queries
/// interpolate linearly inside a bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bucket index for a value.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// `[lo, hi)` bounds of bucket `i` (saturating at `u64::MAX`).
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 1)
    } else {
        let lo = 1u64 << (i - 1);
        let hi = if i >= 64 { u64::MAX } else { 1u64 << i };
        (lo, hi)
    }
}

impl Histogram {
    /// Record one value.
    pub fn observe(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Approximate `p`-quantile (`p` in `[0, 1]`), linearly interpolated
    /// inside the containing bucket and clamped to the observed `min`/`max`.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 1.0);
        // Rank in [0, count-1], same convention as voxel_sim::stats.
        let rank = p * (self.count - 1) as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let first = seen as f64;
            let last = (seen + c - 1) as f64;
            if rank <= last {
                let (lo, hi) = bucket_bounds(i);
                // Clamp the bucket span to what was actually observed so
                // single-bucket histograms report exact values.
                let lo = lo.max(self.min) as f64;
                let hi = (hi - 1).min(self.max) as f64;
                if c == 1 || hi <= lo {
                    return lo;
                }
                let frac = (rank - first) / (last - first).max(1.0);
                return lo + (hi - lo) * frac.clamp(0.0, 1.0);
            }
            seen += c;
        }
        self.max as f64
    }
}

/// A point-in-time summary of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Mean sample.
    pub mean: f64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median (interpolated).
    pub p50: f64,
    /// 90th percentile (interpolated).
    pub p90: f64,
    /// 99th percentile (interpolated).
    pub p99: f64,
}

/// Named slots found by the address of their `&'static str` name, so a
/// hot-path update hashes and compares integers, not strings.
///
/// `slots` holds one entry per distinct name text, in first-use order.
/// `index` is an open-addressed hash from every `(address, length)` seen
/// so far to its slot, at most half full; an address of 0 marks an empty
/// bucket (a `&str` is never null). A new address is matched to a slot by
/// text once, so two distinct `&'static str`s with equal text share a
/// slot. Addresses only steer the lookup: slot order and every snapshot
/// depend on the names alone.
#[derive(Debug, Clone)]
struct Table<V> {
    slots: Vec<(&'static str, V)>,
    index: Vec<(usize, usize, usize)>,
    indexed: usize,
}

impl<V> Default for Table<V> {
    fn default() -> Table<V> {
        Table {
            slots: Vec::new(),
            index: Vec::new(),
            indexed: 0,
        }
    }
}

/// The first bucket to probe for `addr` in an index of `mask + 1` buckets.
fn bucket(addr: usize, mask: usize) -> usize {
    ((addr as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask
}

impl<V: Default> Table<V> {
    fn slot(&mut self, name: &'static str) -> &mut V {
        let (addr, len) = (name.as_ptr() as usize, name.len());
        let mask = self.index.len().wrapping_sub(1);
        if !self.index.is_empty() {
            let mut b = bucket(addr, mask);
            while self.index[b].0 != 0 {
                let (a, l, i) = self.index[b];
                if (a, l) == (addr, len) {
                    return &mut self.slots[i].1;
                }
                b = (b + 1) & mask;
            }
        }
        self.insert(name)
    }

    /// Index a name's address not seen before.
    #[cold]
    fn insert(&mut self, name: &'static str) -> &mut V {
        let i = match self.slots.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.slots.push((name, V::default()));
                self.slots.len() - 1
            }
        };
        if 2 * (self.indexed + 1) > self.index.len() {
            let old = std::mem::take(&mut self.index);
            self.index = vec![(0, 0, 0); (2 * old.len()).max(16)];
            for entry in old.into_iter().filter(|e| e.0 != 0) {
                self.place(entry);
            }
        }
        self.place((name.as_ptr() as usize, name.len(), i));
        self.indexed += 1;
        &mut self.slots[i].1
    }

    fn place(&mut self, entry: (usize, usize, usize)) {
        let mask = self.index.len() - 1;
        let mut b = bucket(entry.0, mask);
        while self.index[b].0 != 0 {
            b = (b + 1) & mask;
        }
        self.index[b] = entry;
    }
}

impl<V> Table<V> {
    fn get(&self, name: &str) -> Option<&V> {
        self.slots.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Every slot, sorted by name, mapped through `f`.
    fn sorted<T>(&self, f: impl Fn(&V) -> T) -> Vec<(String, T)> {
        let mut out: Vec<(String, T)> = self
            .slots
            .iter()
            .map(|(n, v)| ((*n).to_string(), f(v)))
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// Registry of named counters and histograms.
///
/// Names are `&'static str` so the instrumented hot paths never allocate
/// for metric bookkeeping, and find their slot by the name's address.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Table<u64>,
    histograms: Table<Histogram>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `delta` to a counter (creating it at zero).
    pub fn count(&mut self, name: &'static str, delta: u64) {
        *self.counters.slot(name) += delta;
    }

    /// Record a histogram sample.
    pub(crate) fn observe(&mut self, name: &'static str, v: u64) {
        self.histograms.slot(name).observe(v);
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Freeze the registry into a snapshot stamped `at` sim time.
    pub fn snapshot(&self, at: SimTime) -> MetricsSnapshot {
        MetricsSnapshot {
            at,
            counters: self.counters.sorted(|&v| v),
            histograms: self.histograms.sorted(|h| HistogramSummary {
                count: h.count(),
                mean: h.mean(),
                min: h.min(),
                max: h.max(),
                p50: h.percentile(0.5),
                p90: h.percentile(0.9),
                p99: h.percentile(0.99),
            }),
        }
    }
}

/// All metric values at one sim time, sorted by name.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Sim time of the snapshot.
    pub at: SimTime,
    /// Counter name → value.
    pub counters: Vec<(String, u64)>,
    /// Histogram name → summary.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Insert or overwrite a counter, preserving the by-name sort order.
    ///
    /// Used for values that live outside the registry proper — e.g. the
    /// sink's `trace.dropped` tally, which only exists at snapshot time.
    pub fn set_counter(&mut self, name: &str, v: u64) {
        match self
            .counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
        {
            Ok(i) => self.counters[i].1 = v,
            Err(i) => self.counters.insert(i, (name.to_string(), v)),
        }
    }

    /// Counter value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Histogram summary, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// One JSON object capturing the whole snapshot, written with the
    /// same primitives as a trace event. (A registry's histogram
    /// summaries are always finite; a non-finite value renders `null`.)
    pub fn to_json(&self) -> String {
        fn object<T>(
            out: &mut Vec<u8>,
            entries: &[(String, T)],
            mut value: impl FnMut(&mut Vec<u8>, &T),
        ) {
            out.push(b'{');
            for (i, (name, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                json::write_str(out, name);
                out.push(b':');
                value(out, v);
            }
            out.push(b'}');
        }
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(b"{\"at\":");
        json::write_u64(&mut out, self.at.as_micros());
        out.extend_from_slice(b",\"counters\":");
        object(&mut out, &self.counters, |o, &v| json::write_u64(o, v));
        out.extend_from_slice(b",\"histograms\":");
        object(&mut out, &self.histograms, write_histogram);
        out.push(b'}');
        json::into_string(out)
    }
}

fn write_histogram(out: &mut Vec<u8>, h: &HistogramSummary) {
    out.extend_from_slice(b"{\"count\":");
    json::write_u64(out, h.count);
    out.extend_from_slice(b",\"mean\":");
    json::write_f64(out, h.mean);
    out.extend_from_slice(b",\"min\":");
    json::write_u64(out, h.min);
    out.extend_from_slice(b",\"max\":");
    json::write_u64(out, h.max);
    out.extend_from_slice(b",\"p50\":");
    json::write_f64(out, h.p50);
    out.extend_from_slice(b",\"p90\":");
    json::write_f64(out, h.p90);
    out.extend_from_slice(b",\"p99\":");
    json::write_f64(out, h.p99);
    out.push(b'}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_covers_the_u64_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(hi - 1), i, "last value of bucket {i}");
        }
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let mut h = Histogram::default();
        for v in [3, 0, 10, 500, 7] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 500);
        assert!((h.mean() - 104.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), 0.0);
    }

    #[test]
    fn single_value_histogram_reports_it_exactly() {
        let mut h = Histogram::default();
        h.observe(777);
        for p in [0.0, 0.5, 1.0] {
            assert_eq!(h.percentile(p), 777.0, "p={p}");
        }
        assert_eq!(h.mean(), 777.0);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let mut prev = -1.0;
        for i in 0..=20 {
            let p = i as f64 / 20.0;
            let q = h.percentile(p);
            assert!(q >= prev, "p{p}: {q} < {prev}");
            assert!((1.0..=1000.0).contains(&q), "p{p} = {q}");
            prev = q;
        }
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(1.0), 1000.0);
        // The median of 1..=1000 is ~500; log-bucket resolution puts it in
        // [256, 512) — accept the bucket-level approximation.
        let p50 = h.percentile(0.5);
        assert!((256.0..512.0).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn u64_max_saturates_in_the_top_bucket() {
        let mut h = Histogram::default();
        h.observe(u64::MAX);
        h.observe(u64::MAX - 1);
        h.observe(1u64 << 63);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 1u64 << 63);
        assert_eq!(h.max(), u64::MAX);
        // The top bucket's upper bound saturates at u64::MAX rather than
        // wrapping; every percentile stays inside [min, max].
        let (lo, hi) = bucket_bounds(64);
        assert_eq!(lo, 1u64 << 63);
        assert_eq!(hi, u64::MAX);
        for p in [0.0, 0.5, 0.99, 1.0] {
            let q = h.percentile(p);
            assert!(
                ((1u64 << 63) as f64..=u64::MAX as f64).contains(&q),
                "p{p} = {q} escaped [min, max]"
            );
        }
        // Mean over near-MAX samples must not overflow into nonsense.
        assert!(h.mean() >= (1u64 << 63) as f64);
        assert!(h.mean() <= u64::MAX as f64);
    }

    proptest::proptest! {
        /// For any sample set, `percentile(p)` is monotone non-decreasing
        /// in `p` and clamped to the observed `[min, max]` — including
        /// zeros, duplicate-heavy sets, and values up to `u64::MAX`.
        #[test]
        fn percentile_is_monotone_and_clamped(
            samples in proptest::collection::vec((0u64..3, 0u64..=u64::MAX), 1..64),
            ps in proptest::collection::vec(0.0f64..=1.0, 2..16),
        ) {
            let mut h = Histogram::default();
            for &(class, raw) in &samples {
                // Mix value classes: tiny counts (incl. zeros), mid-range,
                // and near-MAX values exercising top-bucket saturation.
                let v = match class {
                    0 => raw % 17,
                    1 => raw % 1_000_000,
                    _ => u64::MAX - (raw % 1000),
                };
                h.observe(v);
            }
            let mut ps = ps;
            ps.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut prev = f64::NEG_INFINITY;
            for &p in &ps {
                let q = h.percentile(p);
                proptest::prop_assert!(q >= prev, "percentile({p}) = {q} < {prev}");
                proptest::prop_assert!(
                    (h.min() as f64..=h.max() as f64).contains(&q),
                    "percentile({p}) = {q} outside [{}, {}]",
                    h.min(),
                    h.max()
                );
                prev = q;
            }
        }
    }

    /// The `BTreeMap` registry and the `String`-building `to_json` that
    /// the address-keyed tables and the byte writer replaced, kept as the
    /// reference both must match.
    mod reference {
        use super::*;
        use crate::event::tests::reference::write_json_string;
        use std::collections::BTreeMap;

        #[derive(Default)]
        pub(super) struct Registry {
            counters: BTreeMap<&'static str, u64>,
            histograms: BTreeMap<&'static str, Histogram>,
        }

        impl Registry {
            pub(super) fn count(&mut self, name: &'static str, delta: u64) {
                *self.counters.entry(name).or_insert(0) += delta;
            }

            pub(super) fn observe(&mut self, name: &'static str, v: u64) {
                self.histograms.entry(name).or_default().observe(v);
            }

            pub(super) fn snapshot(&self, at: SimTime) -> MetricsSnapshot {
                let summary = |h: &Histogram| HistogramSummary {
                    count: h.count(),
                    mean: h.mean(),
                    min: h.min(),
                    max: h.max(),
                    p50: h.percentile(0.5),
                    p90: h.percentile(0.9),
                    p99: h.percentile(0.99),
                };
                MetricsSnapshot {
                    at,
                    counters: self
                        .counters
                        .iter()
                        .map(|(&k, &v)| (k.to_string(), v))
                        .collect(),
                    histograms: self
                        .histograms
                        .iter()
                        .map(|(&k, h)| (k.to_string(), summary(h)))
                        .collect(),
                }
            }
        }

        pub(super) fn to_json(s: &MetricsSnapshot) -> String {
            let mut out = String::with_capacity(256);
            out.push_str("{\"at\":");
            out.push_str(&s.at.as_micros().to_string());
            out.push_str(",\"counters\":{");
            for (i, (name, v)) in s.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(name, &mut out);
                out.push(':');
                out.push_str(&v.to_string());
            }
            out.push_str("},\"histograms\":{");
            for (i, (name, h)) in s.histograms.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(name, &mut out);
                out.push_str(&format!(
                    ":{{\"count\":{},\"mean\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                    h.count, h.mean, h.min, h.max, h.p50, h.p90, h.p99
                ));
            }
            out.push_str("}}");
            out
        }
    }

    /// A `&'static str` with the same text as the literal `"dup.name"`
    /// but its own address.
    fn dup_name() -> &'static str {
        Box::leak(String::from("dup.name").into_boxed_str())
    }

    proptest::proptest! {
        /// The address-keyed registry ends every sequence of updates in
        /// the snapshot (and the JSON) a by-name `BTreeMap` gives,
        /// including when two distinct `&'static str`s spell one name.
        #[test]
        fn address_keyed_registry_matches_a_btreemap(
            ops in proptest::collection::vec((0u8..2, 0usize..22, 0u64..=u64::MAX), 0..120),
            at in 0u64..1_000_000_000,
        ) {
            let dup = dup_name();
            proptest::prop_assert!(!std::ptr::eq(dup, "dup.name"));
            // Enough names to make the index grow twice.
            let names = [
                "quic.packets_sent", "b.second", "a.first", "dup.name", dup, "é\"q", "",
                "n.0", "n.1", "n.2", "n.3", "n.4", "n.5", "n.6", "n.7", "n.8", "n.9", "n.10",
                "n.11", "n.12", "n.13", "n.14",
            ];
            let mut reg = MetricsRegistry::new();
            let mut reference = reference::Registry::default();
            for &(op, n, v) in &ops {
                let name = names[n];
                match op {
                    0 => {
                        reg.count(name, v % 1000);
                        reference.count(name, v % 1000);
                    }
                    _ => {
                        reg.observe(name, v >> (v % 64));
                        reference.observe(name, v >> (v % 64));
                    }
                }
            }
            let at = SimTime::from_micros(at);
            let snap = reg.snapshot(at);
            proptest::prop_assert_eq!(&snap, &reference.snapshot(at));
            proptest::prop_assert_eq!(snap.to_json(), reference::to_json(&snap));
            proptest::prop_assert_eq!(
                reg.histogram("dup.name").map(Histogram::count),
                reg.histogram(dup).map(Histogram::count)
            );
        }

        /// `MetricsSnapshot::to_json` writes any snapshot (names needing
        /// escapes, extreme integers) as the `String`
        /// builder did.
        #[test]
        fn snapshot_json_matches_the_reference_writer(
            counters in proptest::collection::vec(
                (proptest::collection::vec(0usize..64, 0..8), 0u64..=u64::MAX), 0..5),
            histograms in proptest::collection::vec(
                (0u64..=u64::MAX, 0u64..=u64::MAX, 0.0f64..1e12), 0..4),
            at in 0u64..=u64::MAX,
        ) {
            use crate::event::tests::string_from;
            let snap = MetricsSnapshot {
                at: SimTime::from_micros(at),
                counters: counters.iter().map(|(p, v)| (string_from(p), *v)).collect(),
                histograms: histograms
                    .iter()
                    .map(|&(a, b, x)| {
                        (
                            format!("h{a}"),
                            HistogramSummary {
                                count: a,
                                mean: x,
                                min: a.min(b),
                                max: a.max(b),
                                p50: x / 3.0,
                                p90: x * 0.9,
                                p99: x,
                            },
                        )
                    })
                    .collect(),
            };
            proptest::prop_assert_eq!(snap.to_json(), reference::to_json(&snap));
        }
    }

    #[test]
    fn counters_and_histograms_snapshot_semantics() {
        let mut reg = MetricsRegistry::new();
        reg.count("quic.packets_sent", 2);
        reg.count("quic.packets_sent", 3);
        reg.observe("quic.srtt_us", 60_000);
        let snap = reg.snapshot(SimTime::from_secs(12));
        assert_eq!(snap.at, SimTime::from_secs(12));
        assert_eq!(snap.counter("quic.packets_sent"), 5);
        assert_eq!(snap.counter("missing"), 0);
        let h = snap.histogram("quic.srtt_us").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.p50, 60_000.0);
        // Snapshots are frozen: later mutation must not leak in.
        reg.count("quic.packets_sent", 100);
        assert_eq!(snap.counter("quic.packets_sent"), 5);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_sorted() {
        let mut reg = MetricsRegistry::new();
        reg.count("b.second", 1);
        reg.count("a.first", 2);
        reg.observe("h", 8);
        let json = reg.snapshot(SimTime::from_micros(42)).to_json();
        assert_eq!(json, reg.snapshot(SimTime::from_micros(42)).to_json());
        let a = json.find("a.first").unwrap();
        let b = json.find("b.second").unwrap();
        assert!(a < b, "counters sorted by name: {json}");
        assert!(json.starts_with("{\"at\":42,"));
        assert!(json.contains("\"count\":1"));
    }
}
