//! The sampling hot-path profiler.
//!
//! # Model
//!
//! A [`Profiler`] is a cheap cloneable handle (disabled = `None`, exactly
//! like `voxel_trace::Tracer`). [`Profiler::install`] binds it to the
//! *current thread*: from then on, event loops call [`arm`] once per
//! iteration, and every 1-in-`sample` iterations the thread is **armed** —
//! span guards created by `voxel_obs::span!` take real wall-clock
//! readings and feed a per-thread span tree. On the other
//! `sample - 1` iterations a span is a single thread-local flag check, so
//! the instrumentation stays within the <5% overhead budget that ci.sh
//! enforces.
//!
//! Scaling by `sample` at report time recovers absolute numbers: the
//! scaled span totals reconcile with the run's measured wall time (±10%
//! is the acceptance bar; `dbg profile` samples every iteration by
//! default, where they reconcile much tighter).
//!
//! # Determinism
//!
//! Wall-clock readings are quarantined here: they flow into the profile
//! report and **never** into simulation state, timers, or trace events.
//! Golden timelines are byte-identical with the profiler armed (there is
//! a test for exactly that). The `Instant::now` calls below carry
//! `clippy::disallowed_methods` expectations for the same reason, and the
//! per-thread span state is a `thread_local!` of `Cell`/`RefCell`: it is
//! never shared, and each shard thread installs its own.

#![expect(
    clippy::disallowed_types,
    reason = "per-thread profiler state: each thread owns its span tree, merged through the Arc<Mutex> on uninstall"
)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use voxel_trace::Histogram;

/// Default sampling factor: profile 1 in 32 event-loop iterations.
pub(crate) const DEFAULT_SAMPLE: u64 = 32;

/// One node of the span tree: a `(name, idx)` pair under a parent.
#[derive(Debug, Clone)]
struct Node {
    name: &'static str,
    idx: u32,
    calls: u64,
    wall_ns: u128,
    children: Vec<usize>,
}

/// The accumulating span tree plus profiler-owned histograms.
#[derive(Debug, Clone, Default)]
struct ProfileData {
    nodes: Vec<Node>,
    roots: Vec<usize>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl ProfileData {
    /// Find-or-create a child of `parent` (`None` = a root span).
    fn child(&mut self, parent: Option<usize>, name: &'static str, idx: u32) -> usize {
        let list = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&c) = list
            .iter()
            .find(|&&c| self.nodes[c].name == name && self.nodes[c].idx == idx)
        {
            return c;
        }
        let id = self.nodes.len();
        self.nodes.push(Node {
            name,
            idx,
            calls: 0,
            wall_ns: 0,
            children: Vec::new(),
        });
        match parent {
            Some(p) => self.nodes[p].children.push(id),
            None => self.roots.push(id),
        }
        id
    }

    /// Merge `other` into `self` (tree-shape union, values summed).
    fn merge(&mut self, other: &ProfileData) {
        fn merge_list(
            dst: &mut ProfileData,
            dst_parent: Option<usize>,
            src: &ProfileData,
            src_list: &[usize],
        ) {
            for &s in src_list {
                let n = &src.nodes[s];
                let d = dst.child(dst_parent, n.name, n.idx);
                dst.nodes[d].calls += n.calls;
                dst.nodes[d].wall_ns += n.wall_ns;
                let children = src.nodes[s].children.clone();
                merge_list(dst, Some(d), src, &children);
            }
        }
        merge_list(self, None, other, &other.roots);
        for (name, h) in &other.histograms {
            let dst = self.histograms.entry(name).or_default();
            *dst = merge_histograms(dst, h);
        }
    }
}

/// Histograms have no public merge; re-observing representative values
/// would distort them, so keep whichever side has more samples. Installs
/// are per-thread and sequential in practice, so this almost never fires
/// with both sides non-empty.
fn merge_histograms(a: &Histogram, b: &Histogram) -> Histogram {
    if a.count() >= b.count() {
        a.clone()
    } else {
        b.clone()
    }
}

/// Accumulated state across installs.
#[derive(Debug, Default)]
struct Accum {
    data: ProfileData,
    /// Wall time spent inside root spans on armed iterations (unscaled).
    busy_ns: u128,
    /// Wall time between install and uninstall.
    elapsed_ns: u128,
    installs: u64,
}

#[derive(Debug)]
struct Inner {
    sample: u64,
    acc: Mutex<Accum>,
}

/// A cheap, cloneable profiler handle. Disabled (the [`Default`]) carries
/// no allocation; all hot-path checks reduce to thread-local flag reads.
#[derive(Clone, Default)]
pub struct Profiler {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Profiler(disabled)"),
            Some(i) => write!(f, "Profiler(1/{})", i.sample),
        }
    }
}

impl Profiler {
    /// A profiler that never arms anything.
    pub fn disabled() -> Profiler {
        Profiler::default()
    }

    /// An enabled profiler sampling 1 in `DEFAULT_SAMPLE` (32) iterations.
    pub fn enabled() -> Profiler {
        Profiler::with_sample(DEFAULT_SAMPLE)
    }

    /// An enabled profiler sampling 1 in `sample` iterations (`1` =
    /// profile everything; heavier, but the report needs no scaling).
    pub fn with_sample(sample: u64) -> Profiler {
        Profiler {
            inner: Some(Arc::new(Inner {
                sample: sample.max(1),
                acc: Mutex::new(Accum::default()),
            })),
        }
    }

    /// The sampling factor (0 when disabled).
    pub fn sample(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.sample)
    }

    /// Bind this profiler to the current thread until the guard drops.
    ///
    /// Installing a disabled profiler is a no-op guard. Installs nest: the
    /// previous binding (if any) is restored on drop. The guard is `!Send`
    /// — it must drop on the thread that created it.
    pub fn install(&self) -> InstallGuard {
        let Some(inner) = &self.inner else {
            return InstallGuard {
                prev: None,
                active: false,
                _not_send: PhantomData,
            };
        };
        let prev = ACTIVE.replace(Some(Active {
            inner: inner.clone(),
            data: ProfileData::default(),
            stack: Vec::new(),
            #[expect(
                clippy::disallowed_methods,
                reason = "quarantined: profile reports only, never sim state"
            )]
            started: Instant::now(),
            busy_ns: 0,
        }));
        SAMPLE.set(inner.sample);
        ARMED.set(false);
        InstallGuard {
            prev,
            active: true,
            _not_send: PhantomData,
        }
    }

    /// Snapshot everything accumulated so far into a report (`None` when
    /// disabled or when nothing was ever installed).
    pub fn report(&self) -> Option<ProfileReport> {
        let inner = self.inner.as_ref()?;
        let acc = inner
            .acc
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if acc.installs == 0 {
            return None;
        }
        Some(ProfileReport::build(inner.sample, &acc))
    }
}

/// Live per-thread profiling state.
struct Active {
    inner: Arc<Inner>,
    data: ProfileData,
    stack: Vec<Open>,
    started: Instant,
    busy_ns: u128,
}

/// One span currently on the stack.
struct Open {
    node: usize,
    start: Instant,
}

thread_local! {
    static ACTIVE: RefCell<Option<Active>> = const { RefCell::new(None) };
    /// Sampling factor of the installed profiler; 0 = none installed.
    static SAMPLE: Cell<u64> = const { Cell::new(0) };
    /// Whether the current iteration is being profiled.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Uninstaller returned by [`Profiler::install`]; merges the thread's
/// data back into the profiler on drop.
pub struct InstallGuard {
    prev: Option<Active>,
    active: bool,
    _not_send: PhantomData<*const ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let prev = self.prev.take();
        let (sample, armed) = match &prev {
            Some(p) => (p.inner.sample, false),
            None => (0, false),
        };
        let finished = ACTIVE.replace(prev);
        SAMPLE.set(sample);
        ARMED.set(armed);
        let Some(active) = finished else { return };
        let mut acc = active
            .inner
            .acc
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        acc.data.merge(&active.data);
        acc.busy_ns += active.busy_ns;
        acc.elapsed_ns += active.started.elapsed().as_nanos();
        acc.installs += 1;
    }
}

/// Called once per event-loop iteration: decide whether this iteration is
/// profiled. When no profiler is installed this is one thread-local read
/// and a branch.
#[inline]
pub fn arm(iter: u64) {
    let s = SAMPLE.get();
    if s != 0 {
        ARMED.set(iter.is_multiple_of(s));
    }
}

/// Whether the current iteration is being profiled on this thread.
#[inline]
pub fn armed() -> bool {
    ARMED.get()
}

/// Record `v` into a profiler-owned histogram (e.g. `obs.queue_depth`)
/// when armed; free otherwise. Samples reflect armed iterations only,
/// which is an unbiased 1-in-`sample` systematic sample of the loop.
#[inline]
pub fn observe(name: &'static str, v: u64) {
    if !ARMED.get() {
        return;
    }
    ACTIVE.with_borrow_mut(|a| {
        if let Some(a) = a.as_mut() {
            a.data.histograms.entry(name).or_default().observe(v);
        }
    });
}

/// An RAII span: times and counts a region when the thread is armed.
/// Create via [`crate::span!`]; hold the returned `Option` in a binding
/// (`let _g = ...`) so it drops at scope end.
#[must_use = "a span guard measures until it drops; bind it with `let _g = ...`"]
pub struct SpanGuard {
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Open a span named `name` with a per-instance discriminator `idx`
    /// (e.g. the fleet flow number). Returns `None` when not armed.
    #[inline]
    pub fn enter(name: &'static str, idx: u32) -> Option<SpanGuard> {
        if !ARMED.get() {
            return None;
        }
        ACTIVE.with_borrow_mut(|a| {
            let a = a.as_mut()?;
            let parent = a.stack.last().map(|o| o.node);
            let node = a.data.child(parent, name, idx);
            a.stack.push(Open {
                node,
                #[expect(
                    clippy::disallowed_methods,
                    reason = "quarantined: profile reports only, never sim state"
                )]
                start: Instant::now(),
            });
            Some(SpanGuard {
                _not_send: PhantomData,
            })
        })
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        ACTIVE.with_borrow_mut(|a| {
            let Some(a) = a.as_mut() else { return };
            let Some(open) = a.stack.pop() else { return };
            let ns = open.start.elapsed().as_nanos();
            let node = &mut a.data.nodes[open.node];
            node.calls += 1;
            node.wall_ns += ns;
            if a.stack.is_empty() {
                a.busy_ns += ns;
            }
        });
    }
}

/// Render the live thread-local profile, if any — used by flight-recorder
/// postmortems to capture "profiler state so far" at the moment of a
/// failure, before the install guard has merged anything.
pub(crate) fn current_profile_text() -> Option<String> {
    ACTIVE.with_borrow(|a| {
        let a = a.as_ref()?;
        let acc = Accum {
            data: a.data.clone(),
            busy_ns: a.busy_ns,
            elapsed_ns: a.started.elapsed().as_nanos(),
            installs: 1,
        };
        Some(ProfileReport::build(a.inner.sample, &acc).render())
    })
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

/// One span in the rendered tree, values scaled back to absolute numbers
/// (multiplied by the sampling factor).
#[derive(Debug, Clone)]
pub struct ReportNode {
    /// Span name (`layer.operation` by convention).
    pub name: &'static str,
    /// Per-instance discriminator (0 when unused).
    pub idx: u32,
    /// Estimated call count.
    pub calls: u64,
    /// Estimated inclusive wall time.
    pub wall_ns: u128,
    /// Inclusive wall time minus the children's — time in this span's own
    /// code.
    pub self_ns: u128,
    /// Child spans, heaviest first.
    pub children: Vec<ReportNode>,
}

/// One row of the flat (per-name) view.
#[derive(Debug, Clone)]
pub struct FlatRow {
    /// Span name, aggregated over every tree position and `idx`.
    pub name: &'static str,
    /// Estimated call count.
    pub calls: u64,
    /// Estimated inclusive wall time.
    pub wall_ns: u128,
    /// Estimated self wall time.
    pub self_ns: u128,
}

/// A finished profile: the span tree plus derived views.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Sampling factor the values were scaled by.
    pub sample: u64,
    /// Wall time covered by installs (unscaled — real elapsed time).
    pub elapsed_ns: u128,
    /// Number of install/uninstall cycles merged in.
    pub installs: u64,
    /// Root spans, heaviest first, values scaled.
    pub roots: Vec<ReportNode>,
    /// Profiler-owned histograms (`obs.queue_depth`, ...), summarized.
    pub histograms: Vec<(String, voxel_trace::HistogramSummary)>,
    busy_ns_raw: u128,
}

impl ProfileReport {
    fn build(sample: u64, acc: &Accum) -> ProfileReport {
        fn convert(data: &ProfileData, list: &[usize], sample: u64) -> Vec<ReportNode> {
            let mut out: Vec<ReportNode> = list
                .iter()
                .map(|&i| {
                    let n = &data.nodes[i];
                    let children = convert(data, &n.children, sample);
                    let child_ns: u128 = children.iter().map(|c| c.wall_ns).sum();
                    let wall_ns = n.wall_ns * sample as u128;
                    ReportNode {
                        name: n.name,
                        idx: n.idx,
                        calls: n.calls * sample,
                        wall_ns,
                        self_ns: wall_ns.saturating_sub(child_ns),
                        children,
                    }
                })
                .collect();
            out.sort_by(|a, b| b.wall_ns.cmp(&a.wall_ns).then(a.name.cmp(b.name)));
            out
        }
        let roots = convert(&acc.data, &acc.data.roots, sample);
        let histograms = acc
            .data
            .histograms
            .iter()
            .map(|(&name, h)| {
                (
                    name.to_string(),
                    voxel_trace::HistogramSummary {
                        count: h.count(),
                        mean: h.mean(),
                        min: h.min(),
                        max: h.max(),
                        p50: h.percentile(0.5),
                        p90: h.percentile(0.9),
                        p99: h.percentile(0.99),
                    },
                )
            })
            .collect();
        ProfileReport {
            sample,
            elapsed_ns: acc.elapsed_ns,
            installs: acc.installs,
            roots,
            histograms,
            busy_ns_raw: acc.busy_ns,
        }
    }

    /// Scaled total time inside root spans — the number to reconcile
    /// against the run's measured wall time.
    pub fn total_ns(&self) -> u128 {
        self.roots.iter().map(|r| r.wall_ns).sum()
    }

    /// Event-loop utilization: fraction of the installed wall time spent
    /// inside root spans (scaled estimate, clamped to `[0, 1]`).
    pub(crate) fn utilization(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        let busy = self.busy_ns_raw as f64 * self.sample as f64;
        (busy / self.elapsed_ns as f64).clamp(0.0, 1.0)
    }

    /// Flat view: spans aggregated by name across tree positions and
    /// instance indices, by self time, heaviest first.
    pub fn flat(&self) -> Vec<FlatRow> {
        let mut map: BTreeMap<&'static str, FlatRow> = BTreeMap::new();
        fn walk(nodes: &[ReportNode], map: &mut BTreeMap<&'static str, FlatRow>) {
            for n in nodes {
                let row = map.entry(n.name).or_insert(FlatRow {
                    name: n.name,
                    calls: 0,
                    wall_ns: 0,
                    self_ns: 0,
                });
                row.calls += n.calls;
                row.wall_ns += n.wall_ns;
                row.self_ns += n.self_ns;
                walk(&n.children, map);
            }
        }
        walk(&self.roots, &mut map);
        let mut rows: Vec<FlatRow> = map.into_values().collect();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
        rows
    }

    /// Per-layer rollup of *self* time and span calls, as `(layer, self
    /// ns, calls)` (layer = the span name's prefix before the first `.`).
    /// Self-time attribution means the rows sum to
    /// [`ProfileReport::total_ns`] exactly.
    pub fn layers(&self) -> Vec<(String, u128, u64)> {
        let mut map: BTreeMap<String, (u128, u64)> = BTreeMap::new();
        fn walk(nodes: &[ReportNode], map: &mut BTreeMap<String, (u128, u64)>) {
            for n in nodes {
                let layer = n.name.split('.').next().unwrap_or(n.name).to_string();
                let e = map.entry(layer).or_insert((0, 0));
                e.0 += n.self_ns;
                e.1 += n.calls;
                walk(&n.children, map);
            }
        }
        walk(&self.roots, &mut map);
        let mut rows: Vec<(String, u128, u64)> =
            map.into_iter().map(|(k, (t, c))| (k, t, c)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }

    /// Render the whole report as human-readable text: header, per-layer
    /// table, flat top spans, top-down tree, histograms.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);
        let total = self.total_ns();
        out.push_str(&format!(
            "profile: {:.1} ms wall over {} install(s), sampling 1/{}\n",
            self.elapsed_ns as f64 / 1e6,
            self.installs,
            self.sample,
        ));
        out.push_str(&format!(
            "spans:   {:.1} ms ({:.1}% of wall), loop utilization {:.1}%\n",
            total as f64 / 1e6,
            if self.elapsed_ns > 0 {
                100.0 * total as f64 / self.elapsed_ns as f64
            } else {
                0.0
            },
            100.0 * self.utilization(),
        ));

        out.push_str("\nper-layer (self time):\n");
        out.push_str(&format!(
            "  {:<10} {:>12} {:>7} {:>12}\n",
            "layer", "time ms", "%", "calls"
        ));
        for (layer, ns, calls) in self.layers() {
            out.push_str(&format!(
                "  {:<10} {:>12.3} {:>6.1}% {:>12}\n",
                layer,
                ns as f64 / 1e6,
                if total > 0 {
                    100.0 * ns as f64 / total as f64
                } else {
                    0.0
                },
                calls,
            ));
        }

        out.push_str("\nflat (by self time, top 20):\n");
        out.push_str(&format!(
            "  {:<28} {:>12} {:>10} {:>10}\n",
            "span", "calls", "self ms", "incl ms"
        ));
        for row in self.flat().into_iter().take(20) {
            out.push_str(&format!(
                "  {:<28} {:>12} {:>10.3} {:>10.3}\n",
                row.name,
                row.calls,
                row.self_ns as f64 / 1e6,
                row.wall_ns as f64 / 1e6,
            ));
        }

        out.push_str("\ntree (top-down, inclusive):\n");
        fn tree(nodes: &[ReportNode], depth: usize, total: u128, out: &mut String) {
            for n in nodes {
                let label = if n.idx == 0 && nodes.iter().filter(|m| m.name == n.name).count() == 1
                {
                    n.name.to_string()
                } else {
                    format!("{}#{}", n.name, n.idx)
                };
                out.push_str(&format!(
                    "  {:indent$}{:<width$} {:>10.3} ms {:>5.1}%  calls={}\n",
                    "",
                    label,
                    n.wall_ns as f64 / 1e6,
                    if total > 0 {
                        100.0 * n.wall_ns as f64 / total as f64
                    } else {
                        0.0
                    },
                    n.calls,
                    indent = depth * 2,
                    width = 30usize.saturating_sub(depth * 2),
                ));
                tree(&n.children, depth + 1, total, out);
            }
        }
        tree(&self.roots, 0, total, &mut out);

        if !self.histograms.is_empty() {
            out.push_str("\ngauges (sampled):\n");
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "  {:<24} n={} mean={:.1} p50={:.0} p90={:.0} p99={:.0} max={}\n",
                    name, h.count, h.mean, h.p50, h.p90, h.p99, h.max,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[expect(
        clippy::disallowed_methods,
        reason = "the test needs real elapsed wall time to profile"
    )]
    fn spin(us: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < us as u128 {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn disabled_profiler_is_inert() {
        let p = Profiler::disabled();
        assert_eq!(p.sample(), 0);
        let _g = p.install();
        arm(0);
        assert!(!armed());
        assert!(SpanGuard::enter("x.y", 0).is_none());
        observe("obs.queue_depth", 1);
        assert!(p.report().is_none());
    }

    #[test]
    fn spans_accumulate_into_a_tree() {
        let p = Profiler::with_sample(1);
        {
            let _g = p.install();
            for i in 0..10u64 {
                arm(i);
                let _root = SpanGuard::enter("fleet.step", 0);
                {
                    let _child = SpanGuard::enter("quic.on_datagram", 0);
                    spin(50);
                }
                observe("obs.queue_depth", i);
            }
        }
        let r = p.report().expect("profile collected");
        assert_eq!(r.installs, 1);
        assert_eq!(r.roots.len(), 1);
        let root = &r.roots[0];
        assert_eq!(root.name, "fleet.step");
        assert_eq!(root.calls, 10);
        assert_eq!(root.children.len(), 1);
        let child = &root.children[0];
        assert_eq!(child.name, "quic.on_datagram");
        assert_eq!(child.calls, 10);
        assert!(child.wall_ns >= 10 * 50_000, "child {} ns", child.wall_ns);
        assert!(root.wall_ns >= child.wall_ns);
        // Self-time discipline: root self + child inclusive == root inclusive.
        assert_eq!(root.self_ns + child.wall_ns, root.wall_ns);
        assert_eq!(r.total_ns(), root.wall_ns);
        let (name, h) = &r.histograms[0];
        assert_eq!(name, "obs.queue_depth");
        assert_eq!(h.count, 10);
        assert!(r.utilization() > 0.0);
    }

    #[test]
    fn sampling_arms_one_in_n_and_scales_the_report() {
        let p = Profiler::with_sample(4);
        {
            let _g = p.install();
            let mut armed_iters = 0;
            for i in 0..16u64 {
                arm(i);
                if armed() {
                    armed_iters += 1;
                }
                let _s = SpanGuard::enter("session.step", 0);
            }
            assert_eq!(armed_iters, 4);
        }
        let r = p.report().expect("profile collected");
        assert_eq!(r.roots[0].calls, 16, "4 sampled calls scaled by 4");
    }

    #[test]
    fn installs_nest_and_merge() {
        let outer = Profiler::with_sample(1);
        let inner = Profiler::with_sample(1);
        let _go = outer.install();
        arm(0);
        {
            let _s = SpanGuard::enter("a.outer", 0);
        }
        {
            let _gi = inner.install();
            arm(0);
            let _s = SpanGuard::enter("b.inner", 0);
        }
        // Restored: spans land in the outer profile again.
        arm(0);
        {
            let _s = SpanGuard::enter("a.outer", 0);
        }
        drop(_go);
        let ro = outer.report().expect("outer profile");
        assert_eq!(ro.roots.len(), 1);
        assert_eq!(ro.roots[0].calls, 2);
        let ri = inner.report().expect("inner profile");
        assert_eq!(ri.roots[0].name, "b.inner");
    }

    #[test]
    fn per_instance_indices_stay_separate_but_flatten_together() {
        let p = Profiler::with_sample(1);
        {
            let _g = p.install();
            arm(0);
            for flow in 0..3u32 {
                let _s = SpanGuard::enter("fleet.session", flow);
            }
        }
        let r = p.report().expect("profile");
        assert_eq!(r.roots.len(), 3, "one node per flow idx");
        let flat = r.flat();
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].calls, 3);
    }

    #[test]
    fn layers_partition_total_time() {
        let p = Profiler::with_sample(1);
        {
            let _g = p.install();
            arm(0);
            let _root = SpanGuard::enter("fleet.step", 0);
            {
                let _a = SpanGuard::enter("quic.poll_transmit", 0);
                spin(30);
            }
            {
                let _b = SpanGuard::enter("netem.enqueue", 0);
                spin(30);
            }
        }
        let r = p.report().expect("profile");
        let layers = r.layers();
        let sum: u128 = layers.iter().map(|l| l.1).sum();
        assert_eq!(sum, r.total_ns(), "self-time rows partition the total");
        let names: Vec<&str> = layers.iter().map(|l| l.0.as_str()).collect();
        assert!(names.contains(&"fleet"), "{names:?}");
        assert!(names.contains(&"quic"), "{names:?}");
        assert!(names.contains(&"netem"), "{names:?}");
        assert!(
            layers.iter().all(|l| l.2 == 1),
            "one call per layer: {layers:?}"
        );
    }

    #[test]
    fn render_mentions_every_section() {
        let p = Profiler::with_sample(1);
        {
            let _g = p.install();
            arm(0);
            let _s = SpanGuard::enter("quic.on_datagram", 0);
            observe("obs.queue_depth", 5);
        }
        let text = p.report().expect("profile").render();
        for needle in [
            "per-layer",
            "flat (by self time",
            "tree (top-down",
            "quic.on_datagram",
            "obs.queue_depth",
            "utilization",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn current_profile_text_renders_mid_install() {
        let p = Profiler::with_sample(1);
        let _g = p.install();
        arm(0);
        {
            let _s = SpanGuard::enter("player.on_wake", 0);
        }
        let text = current_profile_text().expect("live profile");
        assert!(text.contains("player.on_wake"), "{text}");
        assert!(current_profile_text().is_some());
    }

    #[test]
    fn no_profiler_means_no_live_text() {
        assert!(current_profile_text().is_none());
    }
}
