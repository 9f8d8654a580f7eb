//! Shared prepared-content cache and the edge serving cache.
//!
//! Two caches live here, one per tier of the serving topology:
//!
//! - [`ContentCache`]: the §4.1 offline preparation (ladder analysis +
//!   extended manifest) is one-time per video; every harness in the
//!   workspace — single-session experiments, the testkit's conformance
//!   runner, fleet runs with many concurrent sessions — shares the result.
//!   Cheaply cloneable (clones share storage) and safe to use from the
//!   work-stealing trial pool.
//! - [`EdgeCache`]: a byte-budgeted per-edge object cache for the fleet's
//!   edge serving tier (DESIGN.md §16). It caches the *responses* an edge
//!   serves — manifests, segment heads (VOXEL's reliable prefix), segment
//!   bodies (the unreliable tail) — under an LRU or LFU eviction policy
//!   and a byte-range-aware admission mode.
//!
//! Both are configured through one [`CacheConfig`], so orthogonal settings
//! compose: the testkit's top-level-only ladder restriction and an edge's
//! byte budget are independent fields, not baked-in constructor modes.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use voxel_media::content::VideoId;
use voxel_media::ladder::QualityLevel;
use voxel_media::qoe::QoeModel;
use voxel_media::video::Video;
use voxel_prep::manifest::Manifest;

/// What an edge cache admits, over VOXEL's reliable/unreliable split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Admission {
    /// Cache everything: manifests, heads, and full segment bodies.
    #[default]
    Full,
    /// Cache only the reliable prefix (manifests and heads). Body objects
    /// are never admitted *and never served* from cache — an edge in this
    /// mode cannot replay unreliable-tail bytes it was told not to keep.
    ReliablePrefix,
    /// Admit nothing (a pure pass-through edge; every request misses).
    None,
}

impl Admission {
    /// Stable spec-grammar name (`full` | `rel` | `none`).
    pub fn as_str(self) -> &'static str {
        match self {
            Admission::Full => "full",
            Admission::ReliablePrefix => "rel",
            Admission::None => "none",
        }
    }

    /// Inverse of [`Admission::as_str`].
    pub fn by_name(name: &str) -> Option<Admission> {
        Some(match name {
            "full" => Admission::Full,
            "rel" => Admission::ReliablePrefix,
            "none" => Admission::None,
            _ => return None,
        })
    }
}

/// Eviction policy of a byte-budgeted [`EdgeCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used object first.
    #[default]
    Lru,
    /// Evict the least-frequently-used object first (ties by recency).
    Lfu,
}

impl EvictionPolicy {
    /// Stable spec-grammar name (`lru` | `lfu`).
    pub fn as_str(self) -> &'static str {
        match self {
            EvictionPolicy::Lru => "lru",
            EvictionPolicy::Lfu => "lfu",
        }
    }

    /// Inverse of [`EvictionPolicy::as_str`].
    pub fn by_name(name: &str) -> Option<EvictionPolicy> {
        Some(match name {
            "lru" => EvictionPolicy::Lru,
            "lfu" => EvictionPolicy::Lfu,
            _ => return None,
        })
    }
}

/// Cache configuration shared by both serving tiers. Every field is
/// orthogonal: a [`ContentCache`] reads `levels` (which ladder rungs the
/// offline prep analyzes), an [`EdgeCache`] reads `byte_budget`,
/// `eviction`, and `admission` — so a top-level-only content restriction
/// and an edge byte budget compose instead of fighting over one
/// constructor mode.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheConfig {
    /// `None` prepares the full ladder; `Some(levels)` restricts the §4.1
    /// analysis to those levels.
    pub levels: Option<Vec<QualityLevel>>,
    /// Edge byte budget; `None` is unbounded (no eviction).
    pub byte_budget: Option<u64>,
    /// Edge eviction policy once the budget is exceeded.
    pub eviction: EvictionPolicy,
    /// Edge admission mode over the reliable/unreliable ranges.
    pub admission: Admission,
}

impl CacheConfig {
    /// The testkit's ladder restriction: analyze only the top level.
    pub fn top_level_only() -> CacheConfig {
        CacheConfig {
            levels: Some(vec![QualityLevel::MAX]),
            ..CacheConfig::default()
        }
    }
}

struct Inner {
    entries: BTreeMap<VideoId, (Arc<Manifest>, Arc<Video>)>,
    qoe: QoeModel,
    config: CacheConfig,
}

/// Cache of prepared manifests, shareable across threads and harnesses.
/// Clones share the same storage.
#[derive(Clone)]
pub struct ContentCache {
    inner: Arc<Mutex<Inner>>,
}

impl Default for ContentCache {
    fn default() -> ContentCache {
        ContentCache::new()
    }
}

impl ContentCache {
    /// Empty cache with the given configuration (only `config.levels`
    /// affects offline preparation; the edge fields ride along so one
    /// config can describe a whole serving tier).
    pub(crate) fn with_config(config: CacheConfig) -> ContentCache {
        ContentCache {
            inner: Arc::new(Mutex::new(Inner {
                entries: BTreeMap::new(),
                qoe: QoeModel::default(),
                config,
            })),
        }
    }

    /// Empty cache preparing the full ladder with the default QoE model.
    pub fn new() -> ContentCache {
        ContentCache::with_config(CacheConfig::default())
    }

    /// Empty cache preparing only the top analyzed level (the testkit's
    /// mode: fast, and sufficient for every system in the legend).
    pub fn top_level_only() -> ContentCache {
        ContentCache::with_config(CacheConfig::top_level_only())
    }

    /// The cache's configuration (a clone).
    pub fn config(&self) -> CacheConfig {
        self.lock().config.clone()
    }

    /// The QoE model used for preparation and scoring.
    pub fn qoe(&self) -> QoeModel {
        self.lock().qoe.clone()
    }

    /// Get (or prepare) a video + manifest.
    pub fn get(&self, id: VideoId) -> (Arc<Manifest>, Arc<Video>) {
        let mut inner = self.lock();
        let qoe = inner.qoe.clone();
        let levels = inner.config.levels.clone();
        inner
            .entries
            .entry(id)
            .or_insert_with(|| {
                let video = Video::generate(id);
                let manifest = Arc::new(match levels {
                    None => Manifest::prepare(&video, &qoe),
                    Some(levels) => Manifest::prepare_levels(&video, &qoe, &levels),
                });
                (manifest, Arc::new(video))
            })
            .clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// What kind of object an edge serves or caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObjectKind {
    /// The extended DASH manifest (reliable).
    Manifest,
    /// A segment head: the reliable prefix (I-frame + frame headers).
    Head,
    /// A segment body: the unreliable tail payloads.
    Body,
}

/// The identity of one cacheable object at an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ObjectKey {
    /// The video the object belongs to.
    pub video: VideoId,
    /// Segment index (0 for the manifest).
    pub seg: u32,
    /// Quality level index (0 for the manifest).
    pub level: u8,
    /// Object kind.
    pub kind: ObjectKind,
}

#[derive(Debug, Clone, Copy)]
struct EdgeEntry {
    bytes: u64,
    last_use: u64,
    freq: u64,
}

/// A byte-budgeted per-edge object cache (DESIGN.md §16).
///
/// Deterministic by construction: recency and frequency are logical
/// clocks advanced by cache operations, never wall time, and eviction
/// ties break on the object key — so a fleet run's cache behavior is a
/// pure function of its (partition-invariant) request order.
#[derive(Debug, Clone)]
pub struct EdgeCache {
    config: CacheConfig,
    entries: BTreeMap<ObjectKey, EdgeEntry>,
    used_bytes: u64,
    clock: u64,
    /// Requests answered from cache.
    pub hits: u64,
    /// Requests that had to go to the origin.
    pub misses: u64,
    /// Objects evicted to respect the byte budget.
    pub evictions: u64,
}

impl EdgeCache {
    /// An empty cache under `config`'s budget, policy, and admission.
    pub fn new(config: CacheConfig) -> EdgeCache {
        EdgeCache {
            config,
            entries: BTreeMap::new(),
            used_bytes: 0,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether this cache is allowed to *serve* `key` from storage.
    /// Reliable-prefix admission refuses to serve body (unreliable-tail)
    /// objects even if one were somehow present; no-cache admission
    /// serves nothing.
    fn serves(&self, key: &ObjectKey) -> bool {
        match self.config.admission {
            Admission::Full => true,
            Admission::ReliablePrefix => key.kind != ObjectKind::Body,
            Admission::None => false,
        }
    }

    /// Look up one request: `true` is a cache hit (recency/frequency are
    /// bumped), `false` sends the request to the origin.
    pub fn lookup(&mut self, key: ObjectKey) -> bool {
        self.clock += 1;
        if !self.serves(&key) {
            self.misses += 1;
            return false;
        }
        match self.entries.get_mut(&key) {
            Some(e) => {
                e.last_use = self.clock;
                e.freq += 1;
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Offer an object fetched from the origin for admission. Admission
    /// mode and byte budget decide; eviction makes room under the policy.
    /// Objects larger than the whole budget are never admitted.
    pub fn admit(&mut self, key: ObjectKey, bytes: u64) {
        if !self.serves(&key) || self.entries.contains_key(&key) {
            return;
        }
        if let Some(budget) = self.config.byte_budget {
            if bytes > budget {
                return;
            }
            while self.used_bytes + bytes > budget {
                self.evict_one();
            }
        }
        self.clock += 1;
        self.entries.insert(
            key,
            EdgeEntry {
                bytes,
                last_use: self.clock,
                freq: 1,
            },
        );
        self.used_bytes += bytes;
    }

    /// Evict the policy's victim: least-recently-used (LRU) or
    /// least-frequently-used with recency ties (LFU); final ties break on
    /// the object key, keeping eviction deterministic.
    fn evict_one(&mut self) {
        let victim = self
            .entries
            .iter()
            .min_by_key(|(k, e)| match self.config.eviction {
                EvictionPolicy::Lru => (e.last_use, 0, **k),
                EvictionPolicy::Lfu => (e.freq, e.last_use, **k),
            })
            .map(|(k, _)| *k);
        if let Some(k) = victim {
            if let Some(e) = self.entries.remove(&k) {
                self.used_bytes -= e.bytes;
                self.evictions += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_prepares_once_and_clones_share_storage() {
        let cache = ContentCache::new();
        let (m1, _) = cache.get(VideoId::YouTube(9));
        let clone = cache.clone();
        let (m2, _) = clone.get(VideoId::YouTube(9));
        assert!(Arc::ptr_eq(&m1, &m2));
    }

    #[test]
    fn top_level_only_restricts_the_ladder() {
        let full = ContentCache::new();
        let top = ContentCache::top_level_only();
        let (mf, _) = full.get(VideoId::Bbb);
        let (mt, _) = top.get(VideoId::Bbb);
        assert_eq!(mf.num_segments(), mt.num_segments());
        // Unanalyzed levels carry the placeholder single-point analysis.
        let bottom = QualityLevel::all().next().expect("ladder is non-empty");
        assert!(
            mt.entry(0, bottom).ssims.len() <= mf.entry(0, bottom).ssims.len(),
            "top-level-only cache analyzed the bottom level"
        );
        assert_eq!(
            mt.entry(0, QualityLevel::MAX).ssims.len(),
            mf.entry(0, QualityLevel::MAX).ssims.len(),
            "the top level is analyzed in both modes"
        );
    }

    #[test]
    fn cache_config_fields_are_orthogonal() {
        // A top-level-only ladder restriction and an edge byte budget can
        // ride in one config (the PR-10 fix: mode is no longer baked into
        // the constructor).
        let cfg = CacheConfig {
            byte_budget: Some(1 << 20),
            ..CacheConfig::top_level_only()
        };
        let content = ContentCache::with_config(cfg.clone());
        assert_eq!(content.config(), cfg);
        let edge = EdgeCache::new(cfg);
        assert_eq!(edge.config.byte_budget, Some(1 << 20));
        assert!(edge.config.levels.is_some());
    }

    fn key(seg: u32, kind: ObjectKind) -> ObjectKey {
        ObjectKey {
            video: VideoId::Bbb,
            seg,
            level: 12,
            kind,
        }
    }

    #[test]
    fn lru_evicts_in_recency_order() {
        let mut c = EdgeCache::new(CacheConfig {
            byte_budget: Some(300),
            ..CacheConfig::default()
        });
        for seg in 0..3 {
            c.admit(key(seg, ObjectKind::Head), 100);
        }
        // Touch 0 so 1 becomes the LRU victim.
        assert!(c.lookup(key(0, ObjectKind::Head)));
        c.admit(key(3, ObjectKind::Head), 100);
        assert_eq!(c.evictions, 1);
        assert!(!c.lookup(key(1, ObjectKind::Head)), "LRU victim survived");
        assert!(c.lookup(key(0, ObjectKind::Head)));
        assert!(c.lookup(key(2, ObjectKind::Head)));
        assert!(c.lookup(key(3, ObjectKind::Head)));
        assert_eq!(c.used_bytes(), 300);
    }

    #[test]
    fn lfu_evicts_in_frequency_order() {
        let mut c = EdgeCache::new(CacheConfig {
            byte_budget: Some(300),
            eviction: EvictionPolicy::Lfu,
            ..CacheConfig::default()
        });
        for seg in 0..3 {
            c.admit(key(seg, ObjectKind::Head), 100);
        }
        // 0 and 2 get extra hits; 1 stays at freq 1 and is the victim
        // even though it is *more* recently used than 0.
        assert!(c.lookup(key(0, ObjectKind::Head)));
        assert!(c.lookup(key(2, ObjectKind::Head)));
        assert!(c.lookup(key(1, ObjectKind::Head)));
        assert!(c.lookup(key(0, ObjectKind::Head)));
        assert!(c.lookup(key(2, ObjectKind::Head)));
        c.admit(key(3, ObjectKind::Head), 100);
        assert!(!c.lookup(key(1, ObjectKind::Head)), "LFU victim survived");
        assert!(c.lookup(key(0, ObjectKind::Head)));
        assert!(c.lookup(key(2, ObjectKind::Head)));
    }

    #[test]
    fn oversized_objects_and_budget_edges() {
        let mut c = EdgeCache::new(CacheConfig {
            byte_budget: Some(100),
            ..CacheConfig::default()
        });
        c.admit(key(0, ObjectKind::Head), 101);
        assert!(c.is_empty(), "over-budget object admitted");
        c.admit(key(1, ObjectKind::Head), 100);
        assert_eq!(c.used_bytes(), 100);
        // An exact-fit replacement evicts the incumbent.
        c.admit(key(2, ObjectKind::Head), 100);
        assert_eq!((c.len(), c.evictions), (1, 1));
        // Unbounded cache never evicts.
        let mut unbounded = EdgeCache::new(CacheConfig::default());
        for seg in 0..64 {
            unbounded.admit(key(seg, ObjectKind::Body), 1 << 20);
        }
        assert_eq!(unbounded.evictions, 0);
        assert_eq!(unbounded.len(), 64);
    }

    #[test]
    fn admission_none_serves_nothing() {
        let mut c = EdgeCache::new(CacheConfig {
            admission: Admission::None,
            ..CacheConfig::default()
        });
        c.admit(key(0, ObjectKind::Head), 10);
        assert!(c.is_empty());
        assert!(!c.lookup(key(0, ObjectKind::Head)));
        assert_eq!((c.hits, c.misses), (0, 1));
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    fn key(seg: u32, kind: ObjectKind) -> ObjectKey {
        ObjectKey {
            video: VideoId::Bbb,
            seg,
            level: 12,
            kind,
        }
    }

    proptest! {
        /// Reliable-prefix-only admission never serves unreliable-tail
        /// (body) bytes from cache: across any interleaving of admissions
        /// and lookups, every body lookup misses and no body object is
        /// ever stored.
        #[test]
        fn reliable_prefix_never_serves_body_bytes(
            ops in proptest::collection::vec(
                (0u32..8, 0usize..3, proptest::bool::ANY, 1u64..5000),
                1..200,
            ),
            budget in prop_oneof![Just(None), (500u64..20_000).prop_map(Some)],
        ) {
            let mut c = EdgeCache::new(CacheConfig {
                byte_budget: budget,
                admission: Admission::ReliablePrefix,
                ..CacheConfig::default()
            });
            for (seg, kind, is_admit, bytes) in ops {
                let kind = [ObjectKind::Manifest, ObjectKind::Head, ObjectKind::Body][kind];
                let k = key(seg, kind);
                if is_admit {
                    c.admit(k, bytes);
                } else {
                    let hit = c.lookup(k);
                    prop_assert!(
                        !(hit && kind == ObjectKind::Body),
                        "cache served unreliable-tail bytes for {k:?}"
                    );
                }
                prop_assert!(
                    c.entries.keys().all(|k| k.kind != ObjectKind::Body),
                    "a body object was admitted"
                );
                if let Some(b) = budget {
                    prop_assert!(c.used_bytes() <= b);
                }
            }
        }
    }
}
