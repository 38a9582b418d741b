//! The metrics sink: named monotonic counters, power-of-two-bucketed
//! duration histograms, and the quarantined wall clock.
//!
//! Handles are `Arc`'d atomics so hot paths (per piece, per cache
//! probe) never take the registry lock after registration. Everything
//! exact — counts — lands in sorted maps at snapshot time; everything
//! wall-clock-derived lands in the snapshot's quarantined `timing`
//! section and nowhere else.

use crate::progress::Progress;
use crate::snapshot::{TelemetrySnapshot, TimingSection, QUARANTINE, SCHEMA};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Which sidecar section a counter belongs to.
///
/// The split is the sharding-invariance contract: a direct sweep and
/// any shard-and-merge of the same index range must agree on the
/// `Scenario` section byte for byte, while `Process` counts describe
/// one process's execution plan (they still merge by summation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// Counts attributed to individual workload units: summing the
    /// shards of any partition reproduces the direct sweep's value
    /// exactly (e.g. scenarios executed).
    Scenario,
    /// Counts describing one process's execution structure: pieces
    /// completed, plan-cache hits/misses, batch groups. Deterministic
    /// for a given execution plan, but a 3-shard run legitimately
    /// compiles some plans three times.
    Process,
}

/// A monotonic counter handle — clone freely, increment from any
/// thread.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by a `usize` count (saturating into `u64`).
    pub fn add_count(&self, n: usize) {
        self.add(u64::try_from(n).unwrap_or(u64::MAX));
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket count: index 0 holds zero-length observations, index `i > 0`
/// holds durations whose bit length is `i` — i.e. `2^(i-1) <= ns <
/// 2^i`. 65 buckets cover the full `u64` nanosecond range.
const BUCKETS: usize = 65;

/// A duration histogram with power-of-two nanosecond buckets.
#[derive(Debug)]
struct Histogram {
    buckets: [AtomicU64; BUCKETS],
}

/// A histogram handle — clone freely, record from any thread.
#[derive(Debug, Clone)]
pub struct HistogramHandle(Arc<Histogram>);

impl HistogramHandle {
    fn new() -> HistogramHandle {
        HistogramHandle(Arc::new(Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }))
    }

    /// Records one observation of `ns` nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.0.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// The bucket counts with trailing zero buckets trimmed (the
    /// canonical sidecar form — trimming keeps merge associative).
    #[must_use]
    pub fn buckets(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }
}

/// The bucket index of a duration: its bit length (0 for 0 ns).
fn bucket_of(ns: u64) -> usize {
    let bits = u64::BITS - ns.leading_zeros();
    usize::try_from(bits).unwrap_or(BUCKETS - 1)
}

/// The workspace's only sanctioned wall-clock reader outside the bench
/// harness: everything it measures is display-only or lands in the
/// sidecar's quarantined `timing` section, never in a fold.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts measuring now.
    #[must_use]
    pub fn start() -> Stopwatch {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Nanoseconds since [`Stopwatch::start`] (saturating).
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Milliseconds since [`Stopwatch::start`] (saturating).
    #[must_use]
    pub fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

/// The metrics sink: a registry of named counters and histograms plus
/// live [`Progress`] state.
///
/// One `Arc<Metrics>` is shared by the runner, the executors, and the
/// reporter; [`Metrics::snapshot`] folds it into the deterministic
/// sidecar schema.
#[derive(Debug)]
pub struct Metrics {
    counters: RwLock<BTreeMap<(Scope, String), Counter>>,
    histograms: RwLock<BTreeMap<String, HistogramHandle>>,
    progress: Progress,
    started: Stopwatch,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// An empty sink; the wall-clock baseline for the quarantined
    /// `timing.wall_ns` field starts here.
    #[must_use]
    pub fn new() -> Metrics {
        Metrics {
            counters: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            progress: Progress::default(),
            started: Stopwatch::start(),
        }
    }

    /// The counter named `name` in `scope`, registering it at zero on
    /// first use. Registration order does not matter: the snapshot
    /// renders from a sorted map.
    pub fn counter(&self, scope: Scope, name: &str) -> Counter {
        let key = (scope, name.to_string());
        if let Some(c) = self
            .counters
            .read()
            .expect("counter registry poisoned")
            .get(&key)
        {
            return c.clone();
        }
        self.counters
            .write()
            .expect("counter registry poisoned")
            .entry(key)
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// The histogram named `name`, registering it empty on first use.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        if let Some(h) = self
            .histograms
            .read()
            .expect("histogram registry poisoned")
            .get(name)
        {
            return h.clone();
        }
        self.histograms
            .write()
            .expect("histogram registry poisoned")
            .entry(name.to_string())
            .or_insert_with(HistogramHandle::new)
            .clone()
    }

    /// The live progress state the reporter samples.
    #[must_use]
    pub fn progress(&self) -> &Progress {
        &self.progress
    }

    /// Folds the sink into the deterministic sidecar schema: counters
    /// split by scope into sorted sections, histograms and total wall
    /// time quarantined under `timing`.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut counters = BTreeMap::new();
        let mut process = BTreeMap::new();
        for ((scope, name), c) in self
            .counters
            .read()
            .expect("counter registry poisoned")
            .iter()
        {
            match scope {
                Scope::Scenario => counters.insert(name.clone(), c.get()),
                Scope::Process => process.insert(name.clone(), c.get()),
            };
        }
        let histograms = self
            .histograms
            .read()
            .expect("histogram registry poisoned")
            .iter()
            .map(|(name, h)| (name.clone(), h.buckets()))
            .collect();
        TelemetrySnapshot {
            schema: SCHEMA.to_string(),
            counters,
            process,
            timing: TimingSection {
                quarantine: QUARANTINE.to_string(),
                wall_ns: u128::from(self.started.elapsed_ns()),
                histograms,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_is_the_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn counters_register_once_and_share_state() {
        let metrics = Metrics::new();
        let a = metrics.counter(Scope::Scenario, "hits");
        let b = metrics.counter(Scope::Scenario, "hits");
        a.inc();
        b.add(2);
        b.add_count(3);
        assert_eq!(a.get(), 6);
        // Same name in the other scope is a distinct counter.
        assert_eq!(metrics.counter(Scope::Process, "hits").get(), 0);
    }

    #[test]
    fn histogram_buckets_trim_trailing_zeros() {
        let metrics = Metrics::new();
        let h = metrics.histogram("wall");
        assert!(h.buckets().is_empty());
        h.record_ns(0);
        h.record_ns(5);
        h.record_ns(5);
        assert_eq!(h.buckets(), vec![1, 0, 0, 2]);
    }

    #[test]
    fn snapshot_routes_scopes_to_sections() {
        let metrics = Metrics::new();
        metrics
            .counter(Scope::Scenario, "scenarios_executed")
            .add(7);
        metrics.counter(Scope::Process, "pieces_completed").add(2);
        metrics.histogram("piece_wall_ns").record_ns(100);
        let snap = metrics.snapshot();
        assert_eq!(snap.schema, SCHEMA);
        assert_eq!(snap.counters.get("scenarios_executed"), Some(&7));
        assert_eq!(snap.process.get("pieces_completed"), Some(&2));
        assert_eq!(snap.timing.quarantine, QUARANTINE);
        assert_eq!(
            snap.timing.histograms["piece_wall_ns"].iter().sum::<u64>(),
            1
        );
    }
}
