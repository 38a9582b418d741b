//! The `TELEMETRY.json` sidecar schema and its associative merge.
//!
//! Determinism contract, section by section:
//!
//! * `counters` — per-scenario counts. Byte-stable across reruns *and*
//!   across shard layouts: summing any partition's shards reproduces
//!   the direct sweep's section exactly.
//! * `process` — per-process structural counts (cache hits, pieces).
//!   Byte-stable across reruns of the same execution plan; merging
//!   shards sums them (a 3-shard run legitimately compiles more plans
//!   than a direct run).
//! * `timing` — everything wall-clock-derived, quarantined behind an
//!   explicit marker field so no consumer can mistake it for exact
//!   data. Excluded from byte-identity checks by construction.
//!
//! All maps are `BTreeMap`s: keys render sorted, so equal counts mean
//! equal bytes.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The sidecar schema identifier.
pub const SCHEMA: &str = "rendezvous-telemetry/v1";

/// The marker carried by the `timing` section: the one part of the
/// sidecar that varies run to run.
pub const QUARANTINE: &str =
    "wall-clock quarantine: fields here vary run to run and are excluded from byte-identity checks";

/// A point-in-time fold of a [`Metrics`](crate::Metrics) sink — the
/// sidecar document, and the unit the fabric coordinator merges across
/// workers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Sharding-invariant per-scenario counters, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Per-process structural counters, sorted by name.
    pub process: BTreeMap<String, u64>,
    /// The wall-clock quarantine.
    pub timing: TimingSection,
}

/// The quarantined wall-clock section of the sidecar.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingSection {
    /// Always [`QUARANTINE`] — a reader-facing marker, not data.
    pub quarantine: String,
    /// Total wall nanoseconds the sink was live (summed across
    /// processes after a merge).
    pub wall_ns: u128,
    /// Duration histograms: bucket `i > 0` counts observations whose
    /// nanosecond bit length is `i` (bucket 0: zero-length), trailing
    /// zero buckets trimmed.
    pub histograms: BTreeMap<String, Vec<u64>>,
}

impl Default for TelemetrySnapshot {
    fn default() -> Self {
        TelemetrySnapshot::empty()
    }
}

impl TelemetrySnapshot {
    /// The merge identity: empty sections, zero wall time.
    #[must_use]
    pub fn empty() -> TelemetrySnapshot {
        TelemetrySnapshot {
            schema: SCHEMA.to_string(),
            counters: BTreeMap::new(),
            process: BTreeMap::new(),
            timing: TimingSection {
                quarantine: QUARANTINE.to_string(),
                wall_ns: 0,
                histograms: BTreeMap::new(),
            },
        }
    }

    /// Folds two snapshots: counter sections sum key-wise, histograms
    /// sum bucket-wise, wall time adds. Associative and commutative
    /// (property-tested), so workers' snapshots merge in any order —
    /// `merge` with [`TelemetrySnapshot::empty`] is the identity.
    #[must_use]
    pub fn merge(&self, other: &TelemetrySnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            schema: self.schema.clone(),
            counters: merge_counts(&self.counters, &other.counters),
            process: merge_counts(&self.process, &other.process),
            timing: TimingSection {
                quarantine: self.timing.quarantine.clone(),
                wall_ns: self.timing.wall_ns.saturating_add(other.timing.wall_ns),
                histograms: merge_histograms(&self.timing.histograms, &other.timing.histograms),
            },
        }
    }

    /// The pretty-printed sidecar document (trailing newline included).
    #[must_use]
    pub fn render(&self) -> String {
        let mut doc = serde_json::to_string_pretty(self).expect("snapshot serializes");
        doc.push('\n');
        doc
    }

    /// Parses a sidecar document or a protocol-line payload.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a document that does not match the schema.
    pub fn parse(text: &str) -> Result<TelemetrySnapshot, String> {
        serde_json::from_str(text).map_err(|e| format!("telemetry snapshot: {e}"))
    }
}

/// Key-wise saturating sum of two counter sections.
fn merge_counts(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    let mut out = a.clone();
    for (name, add) in b {
        let slot = out.entry(name.clone()).or_insert(0);
        *slot = slot.saturating_add(*add);
    }
    out
}

/// Bucket-wise sum of two histogram sections, preserving the
/// trailing-zero-trimmed canonical form.
fn merge_histograms(
    a: &BTreeMap<String, Vec<u64>>,
    b: &BTreeMap<String, Vec<u64>>,
) -> BTreeMap<String, Vec<u64>> {
    let mut out = a.clone();
    for (name, add) in b {
        let slot = out.entry(name.clone()).or_default();
        if slot.len() < add.len() {
            slot.resize(add.len(), 0);
        }
        for (i, n) in add.iter().enumerate() {
            slot[i] = slot[i].saturating_add(*n);
        }
        while slot.last() == Some(&0) {
            slot.pop();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(counters: &[(&str, u64)], process: &[(&str, u64)], wall: u128) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::empty();
        for (k, v) in counters {
            s.counters.insert((*k).to_string(), *v);
        }
        for (k, v) in process {
            s.process.insert((*k).to_string(), *v);
        }
        s.timing.wall_ns = wall;
        s
    }

    #[test]
    fn merge_sums_key_wise_and_empty_is_identity() {
        let a = snap(&[("x", 1), ("y", 2)], &[("p", 5)], 10);
        let b = snap(&[("y", 3), ("z", 4)], &[], 7);
        let m = a.merge(&b);
        assert_eq!(m.counters.get("x"), Some(&1));
        assert_eq!(m.counters.get("y"), Some(&5));
        assert_eq!(m.counters.get("z"), Some(&4));
        assert_eq!(m.process.get("p"), Some(&5));
        assert_eq!(m.timing.wall_ns, 17);
        assert_eq!(a.merge(&TelemetrySnapshot::empty()), a);
        assert_eq!(TelemetrySnapshot::empty().merge(&a), a);
    }

    #[test]
    fn merge_histograms_keeps_canonical_trim() {
        let mut a = TelemetrySnapshot::empty();
        a.timing.histograms.insert("h".into(), vec![1, 0, 2]);
        let mut b = TelemetrySnapshot::empty();
        b.timing.histograms.insert("h".into(), vec![0, 1]);
        let m = a.merge(&b);
        assert_eq!(m.timing.histograms["h"], vec![1, 1, 2]);
    }

    #[test]
    fn render_is_sorted_and_round_trips() {
        let s = snap(&[("zeta", 1), ("alpha", 2)], &[("mid", 3)], 42);
        let doc = s.render();
        let alpha = doc.find("\"alpha\"").expect("alpha key");
        let zeta = doc.find("\"zeta\"").expect("zeta key");
        assert!(alpha < zeta, "counter keys render sorted");
        assert!(doc.ends_with('\n'));
        assert_eq!(TelemetrySnapshot::parse(&doc).expect("round trip"), s);
    }

    #[test]
    fn sections_appear_in_schema_order() {
        let doc = TelemetrySnapshot::empty().render();
        let schema = doc.find("\"schema\"").expect("schema");
        let counters = doc.find("\"counters\"").expect("counters");
        let process = doc.find("\"process\"").expect("process");
        let timing = doc.find("\"timing\"").expect("timing");
        assert!(schema < counters && counters < process && process < timing);
    }
}
