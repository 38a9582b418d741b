//! The experiments binary's side of the result store: a process-global
//! read-through cache session.
//!
//! With `--store DIR` active, every recorded sweep consults the
//! content-addressed store *before* any execution mode (fabric worker,
//! fabric replay, direct) gets a say: a hit returns the cached
//! [`SweepReport`] byte-identically and executes **zero** scenarios; a
//! miss falls through to whatever topology the run was going to use —
//! including `--fabric workers=N`, so novel sweeps schedule onto the
//! worker fleet — and the finished full report is written back.
//!
//! The determinism discipline across processes is subtraction, not
//! coordination: every process of a run (the fabric driver and its
//! workers) opens the same store directory and derives the same
//! [`StoreKey`] per sweep, so all of them see the same hit/miss
//! pattern and skip the same sweeps — fabric sweep numbering stays
//! aligned with the driver's replay cursor without any messages about
//! the cache ever crossing a process boundary. Only *full* reports are
//! written back (the direct-execution and merged-replay paths in
//! [`sweep_recorded`](crate::common::sweep_recorded)); worker processes
//! hold partial folds and never populate.

use rendezvous_runner::{SweepReport, WorkloadMeta};
use rendezvous_store::{Miss, Store, StoreKey};
use rendezvous_telemetry::Scope;
use std::path::Path;
use std::sync::OnceLock;

static SESSION: OnceLock<Store> = OnceLock::new();

/// Opens the store at `dir` (creating it if needed) and installs it for
/// the rest of the process.
///
/// # Panics
///
/// Panics if the directory cannot be created or a session is already
/// installed.
pub fn begin(dir: &Path) {
    let store = Store::open(dir).unwrap_or_else(|e| panic!("cannot open the result store: {e}"));
    assert!(SESSION.set(store).is_ok(), "store session already active");
}

/// True when the CLI enabled `--store`.
#[must_use]
pub fn active() -> bool {
    SESSION.get().is_some()
}

/// The key addressing `context`'s sweep of `meta` under the process's
/// current engine — one derivation for lookups, write-backs and the
/// `--plan` store column.
pub(crate) fn key_of(context: &str, meta: &WorkloadMeta) -> StoreKey {
    StoreKey::new(context, meta, crate::engine::current().name())
}

/// Consults the store for a cached report. `None` when no session is
/// active or on any typed miss (absent, corrupt, schema drift,
/// fingerprint drift) — the caller executes, exactly as without a
/// store. A hit counts `store_hits`, a miss `store_misses`, under the
/// process scope (cache behavior is a property of this run's store,
/// not of the swept space).
#[must_use]
pub fn lookup(context: &str, meta: &WorkloadMeta) -> Option<SweepReport> {
    let store = SESSION.get()?;
    match store.load(&key_of(context, meta)) {
        Ok(report) => {
            if let Some(metrics) = crate::telemetry::current() {
                metrics.counter(Scope::Process, "store_hits").inc();
            }
            Some(report)
        }
        Err(miss) => {
            if let Some(metrics) = crate::telemetry::current() {
                metrics.counter(Scope::Process, "store_misses").inc();
            }
            // A demoted entry (anything but plain absence) is worth a
            // visible note on stderr — the run recomputes either way,
            // but silent corruption would make `store verify` the only
            // way to ever learn about it.
            if miss != Miss::Absent {
                eprintln!("store: recomputing {context}: {miss}");
            }
            None
        }
    }
}

/// Writes a **full** sweep report back to the store. Callers guarantee
/// completeness (the direct-execution and merged-replay paths do;
/// fabric worker partials must never reach here).
///
/// # Panics
///
/// Panics if the write fails — a cache that silently stops recording
/// would make cold and warm runs diverge in what they execute.
pub fn record(context: &str, meta: &WorkloadMeta, report: &SweepReport) {
    let Some(store) = SESSION.get() else {
        return;
    };
    let key = key_of(context, meta);
    store
        .save(&key, context, crate::engine::current().name(), meta, report)
        .unwrap_or_else(|e| panic!("cannot record {context} in the result store: {e}"));
}

/// The `--plan` store column: `Some("cached")` / `Some("miss")` when a
/// session is active, `None` otherwise (the line then omits the
/// column). Uses the same lookup as a real run, so the plan's
/// prediction is exact.
#[must_use]
pub fn plan_status(context: &str, meta: &WorkloadMeta) -> Option<&'static str> {
    let store = SESSION.get()?;
    match store.load(&key_of(context, meta)) {
        Ok(_) => Some("cached"),
        Err(_) => Some("miss"),
    }
}
