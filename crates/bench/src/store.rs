//! The experiments binary's side of the result store: a read-through
//! cache in front of every recorded sweep.
//!
//! With `--store DIR` the [`Session`] holds the opened store, and every
//! recorded sweep consults it *before* its mode (fabric worker, fabric
//! replay, direct) gets a say: a hit returns the cached [`SweepReport`]
//! byte-identically and executes **zero** scenarios; a miss falls
//! through to whatever the run was going to do — including
//! `--fabric workers=N`, so novel sweeps schedule onto the worker fleet
//! — and the finished full report is written back. Only *full* reports
//! are written back (the direct and replay modes); fabric workers hold
//! partial folds and never populate.

use crate::session::Session;
use rendezvous_runner::{SweepReport, WorkloadMeta};
use rendezvous_store::Miss;
use rendezvous_telemetry::{Metrics, Scope};
use std::sync::Arc;

impl Session {
    /// Consults the store for a cached report. `None` without a store
    /// or on any typed miss (absent, corrupt, schema drift, fingerprint
    /// drift) — the caller executes, exactly as without a store. A hit
    /// counts `store_hits`, a miss `store_misses`, under the process
    /// scope (cache behavior is a property of this run's store, not of
    /// the swept space).
    pub(crate) fn cached(
        &self,
        context: &str,
        meta: &WorkloadMeta,
        metrics: Option<&Arc<Metrics>>,
    ) -> Option<SweepReport> {
        let store = self.store.as_ref()?;
        let result = store.load(&self.key(context, meta));
        if let Some(metrics) = metrics {
            let name = if result.is_ok() {
                "store_hits"
            } else {
                "store_misses"
            };
            metrics.counter(Scope::Process, name).inc();
        }
        // A demoted entry (anything but plain absence) is worth a visible
        // note on stderr — the run recomputes either way, but silent
        // corruption would make `store verify` the only way to ever
        // learn about it.
        match result {
            Err(miss) if miss != Miss::Absent => {
                eprintln!("store: recomputing {context}: {miss}");
                None
            }
            result => result.ok(),
        }
    }

    /// Writes a **full** sweep report back to the store, if there is one.
    ///
    /// # Panics
    ///
    /// Panics if the write fails — a cache that silently stops recording
    /// would make cold and warm runs diverge in what they execute.
    pub(crate) fn record(&self, context: &str, meta: &WorkloadMeta, report: &SweepReport) {
        let Some(store) = &self.store else {
            return;
        };
        store
            .save(
                &self.key(context, meta),
                context,
                self.engine.name(),
                meta,
                report,
            )
            .unwrap_or_else(|e| panic!("cannot record {context} in the result store: {e}"));
    }
}
