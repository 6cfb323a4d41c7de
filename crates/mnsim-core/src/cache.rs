//! Cross-request artifact cache for long-running sessions.
//!
//! A process that evaluates many configurations (the `mnsim-serve`
//! session server, a DSE driver, a notebook-style exploration loop)
//! repeatedly rebuilds the same expensive artifacts: full simulation
//! [`Report`]s, validation tables and DSE fronts. [`ArtifactCache`] keeps
//! them across requests, keyed by the same FNV-1a config fingerprints
//! the checkpoint layer uses (see [`crate::checkpoint::fnv64`]), under
//! a configurable byte budget with strict least-recently-used eviction.
//!
//! Artifacts are handed out as cheap [`Arc`] clones, so eviction can
//! never corrupt a consumer: a job holding an artifact keeps it alive
//! regardless of what the cache decides to drop. Hit/miss/eviction
//! counts are mirrored into the `mnsim-obs` registry under `cache.artifact.*`
//! when a metrics session is active, and are always available locally
//! via [`ArtifactCache::stats`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use mnsim_nn::BankDescriptor;
use mnsim_obs as obs;

use crate::accuracy::propagation::LayerAccuracy;
use crate::arch::BankModelResult;
use crate::dse::{DesignPoint, DseResult};
use crate::perf::ModulePerf;
use crate::simulate::Report;
use crate::validate::ValidationRow;

static CACHE_HITS: obs::Counter = obs::Counter::new("cache.artifact.hits");
static CACHE_MISSES: obs::Counter = obs::Counter::new("cache.artifact.misses");
static CACHE_INSERTS: obs::Counter = obs::Counter::new("cache.artifact.inserts");
static CACHE_EVICTIONS: obs::Counter = obs::Counter::new("cache.artifact.evictions");
static CACHE_BYTES: obs::Gauge = obs::Gauge::new("cache.artifact.bytes");
static CACHE_ENTRIES: obs::Gauge = obs::Gauge::new("cache.artifact.entries");

/// One cached artifact. Every variant is an [`Arc`] payload, so a cache
/// hit is a pointer clone and an evicted artifact stays valid for
/// whoever already holds it.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// A complete simulation report.
    Report(Arc<Report>),
    /// A model-vs-circuit validation table.
    Validation(Arc<Vec<ValidationRow>>),
    /// A design-space exploration result (full or partial front).
    DseFront(Arc<DseResult>),
}

impl Artifact {
    /// Resident size of the artifact in bytes, used for budget
    /// accounting. Reports and DSE fronts count their inline bytes and
    /// the capacity of every vector and string they own; allocator and
    /// `Arc` overhead are not counted — the budget is a pressure valve,
    /// not an allocator.
    pub fn approx_bytes(&self) -> usize {
        match self {
            Artifact::Report(report) => size_of::<Report>() + report_heap_bytes(report),
            Artifact::Validation(rows) => 64 + rows.len() * (size_of::<ValidationRow>() + 32),
            Artifact::DseFront(result) => {
                size_of::<DseResult>()
                    + result.feasible.capacity() * size_of::<DesignPoint>()
                    + result
                        .feasible
                        .iter()
                        .map(|p| report_heap_bytes(&p.report))
                        .sum::<usize>()
            }
        }
    }
}

/// The heap one [`Report`] owns: its network's name and bank list, its
/// per-bank results and links, and its per-layer accuracy.
fn report_heap_bytes(report: &Report) -> usize {
    let network = &report.config.network;
    let accelerator = &report.accelerator;
    network.name.capacity()
        + network.banks.capacity() * size_of::<BankDescriptor>()
        + accelerator.banks.capacity() * size_of::<BankModelResult>()
        + accelerator.links.capacity() * size_of::<ModulePerf>()
        + report.layer_accuracy.capacity() * size_of::<LayerAccuracy>()
}

/// A point-in-time view of cache effectiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Artifacts inserted.
    pub insertions: u64,
    /// Artifacts evicted to honor the byte budget.
    pub evictions: u64,
    /// Current resident estimate in bytes.
    pub bytes: usize,
    /// Current entry count.
    pub entries: usize,
    /// Configured byte budget.
    pub budget: usize,
}

/// One resident entry.
struct Entry {
    artifact: Artifact,
    bytes: usize,
    /// Logical access clock value of the most recent touch; the entry
    /// with the smallest value is the LRU eviction victim.
    last_used: u64,
}

/// State behind the cache mutex.
struct CacheInner {
    entries: HashMap<u64, Entry>,
    bytes: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

/// A fingerprint-keyed, byte-budgeted, LRU artifact cache shared across
/// requests (and threads — all methods take `&self`).
pub struct ArtifactCache {
    inner: Mutex<CacheInner>,
    budget: usize,
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ArtifactCache")
            .field("entries", &stats.entries)
            .field("bytes", &stats.bytes)
            .field("budget", &stats.budget)
            .finish()
    }
}

impl ArtifactCache {
    /// Default budget: 256 MiB, comfortably above any single artifact the
    /// platform builds today.
    pub const DEFAULT_BUDGET: usize = 256 << 20;

    /// Creates a cache with [`ArtifactCache::DEFAULT_BUDGET`].
    pub fn new() -> Self {
        Self::with_budget(Self::DEFAULT_BUDGET)
    }

    /// Creates a cache evicting LRU entries once the resident estimate
    /// exceeds `budget` bytes. A budget of 0 still caches nothing
    /// durable: every insert is immediately evictable, but the returned
    /// [`Arc`]s from `get`-before-evict remain valid.
    pub fn with_budget(budget: usize) -> Self {
        ArtifactCache {
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                bytes: 0,
                clock: 0,
                hits: 0,
                misses: 0,
                insertions: 0,
                evictions: 0,
            }),
            budget,
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: u64) -> Option<Artifact> {
        self.lookup(key, true)
    }

    /// [`ArtifactCache::get`] that records only hits. For a pre-check
    /// whose miss hands the key to code that looks it up again with `get`
    /// (a server answering hits before queueing a [`crate::Session`] job),
    /// so each missed request counts one miss, not two.
    pub fn probe(&self, key: u64) -> Option<Artifact> {
        self.lookup(key, false)
    }

    fn lookup(&self, key: u64, count_miss: bool) -> Option<Artifact> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.entries.get_mut(&key) {
            Some(entry) => {
                entry.last_used = clock;
                let artifact = entry.artifact.clone();
                inner.hits += 1;
                CACHE_HITS.add(1);
                Some(artifact)
            }
            None => {
                if count_miss {
                    inner.misses += 1;
                    CACHE_MISSES.add(1);
                }
                None
            }
        }
    }

    /// Inserts (or replaces) the artifact under `key`, then evicts
    /// least-recently-used entries until the resident estimate is back
    /// under budget. The freshly inserted entry is the most recent, so
    /// it is evicted only if it alone exceeds the whole budget.
    pub fn insert(&self, key: u64, artifact: Artifact) {
        let bytes = artifact.approx_bytes();
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(old) = inner.entries.insert(
            key,
            Entry {
                artifact,
                bytes,
                last_used: clock,
            },
        ) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        inner.insertions += 1;
        CACHE_INSERTS.add(1);
        while inner.bytes > self.budget {
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some(evicted) = inner.entries.remove(&victim) {
                inner.bytes -= evicted.bytes;
                inner.evictions += 1;
                CACHE_EVICTIONS.add(1);
            }
        }
        CACHE_BYTES.set(inner.bytes as f64);
        CACHE_ENTRIES.set(inner.entries.len() as f64);
    }

    /// Current effectiveness counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            bytes: inner.bytes,
            entries: inner.entries.len(),
            budget: self.budget,
        }
    }

    /// Configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            // The cache holds plain data; a panic mid-update can at
            // worst leave a stale byte estimate, never a dangling
            // artifact. Recover rather than cascade.
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A validation table of `n` rows; its size grows linearly in `n`.
    fn rows(n: usize) -> Artifact {
        Artifact::Validation(Arc::new(
            (0..n)
                .map(|k| ValidationRow {
                    metric: format!("metric {k}"),
                    mnsim: k as f64,
                    circuit: k as f64,
                    unit: "W",
                })
                .collect(),
        ))
    }

    #[test]
    fn hit_miss_and_recency_refresh() {
        let cache = ArtifactCache::with_budget(10_000);
        assert!(cache.get(1).is_none());
        cache.insert(1, rows(1));
        cache.insert(2, rows(1));
        assert!(cache.get(1).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 2);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn probe_counts_hits_but_not_misses() {
        let cache = ArtifactCache::with_budget(10_000);
        assert!(cache.probe(1).is_none());
        assert!(cache.get(1).is_none());
        cache.insert(1, rows(1));
        assert!(cache.probe(1).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn lru_evicts_oldest_first_and_get_refreshes() {
        // The budget fits two tables but not three.
        let one = rows(4).approx_bytes();
        let cache = ArtifactCache::with_budget(2 * one + one / 2);
        cache.insert(1, rows(4));
        cache.insert(2, rows(4));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(1).is_some());
        cache.insert(3, rows(4));
        assert!(cache.get(2).is_none(), "LRU entry evicted");
        assert!(cache.get(1).is_some(), "recently touched entry kept");
        assert!(cache.get(3).is_some(), "new entry kept");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn replacement_updates_byte_accounting() {
        let cache = ArtifactCache::with_budget(100_000);
        cache.insert(1, rows(100));
        let before = cache.stats().bytes;
        cache.insert(1, rows(1));
        let after = cache.stats().bytes;
        assert!(after < before, "replacing shrinks the estimate");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn evicted_artifact_stays_valid_for_holders() {
        let one = rows(4).approx_bytes();
        let cache = ArtifactCache::with_budget(one + one / 2);
        cache.insert(1, rows(4));
        let held = cache.get(1).expect("present before pressure");
        // Force eviction of key 1.
        cache.insert(2, rows(4));
        assert!(cache.get(1).is_none(), "evicted under pressure");
        match held {
            Artifact::Validation(rows) => assert_eq!(rows.len(), 4),
            other => panic!("unexpected artifact {other:?}"),
        }
    }

    #[test]
    fn zero_budget_never_retains_but_never_panics() {
        let cache = ArtifactCache::with_budget(0);
        cache.insert(1, rows(1));
        assert!(cache.get(1).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn report_and_front_sizes_count_the_heap_they_own() {
        let config = crate::config::Config::fully_connected_mlp(&[64, 32, 16]).unwrap();
        // A clone's vectors hold exactly their length, like the clones
        // in the front below.
        let report = crate::simulate::simulate(&config).unwrap().clone();
        let heap = report_heap_bytes(&report);
        assert!(heap >= 2 * (size_of::<BankModelResult>() + size_of::<LayerAccuracy>()));
        assert_eq!(
            Artifact::Report(Arc::new(report.clone())).approx_bytes(),
            size_of::<Report>() + heap
        );
        let point = DesignPoint {
            crossbar_size: config.crossbar_size,
            parallelism: config.parallelism,
            interconnect: config.interconnect,
            report,
        };
        let front = DseResult {
            evaluated: 3,
            feasible: vec![point.clone(), point.clone(), point],
        };
        assert_eq!(
            Artifact::DseFront(Arc::new(front)).approx_bytes(),
            size_of::<DseResult>() + 3 * (size_of::<DesignPoint>() + heap)
        );
    }
}
