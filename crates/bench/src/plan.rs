//! `--plan` dry-run mode: enumerate every sweep's shape without
//! executing a single scenario.
//!
//! Like the store and fabric sessions, plan mode is a process-global
//! the CLI enables before any experiment runs. With it active,
//! [`sweep_recorded`](crate::common::sweep_recorded) prints one line
//! per sweep — its position in the sweep sequence, its context, its
//! canonical workload fingerprint
//! ([`WorkloadMeta::fingerprint`]), and its piece count — and returns
//! an empty report. This is exactly the identity the fabric coordinator
//! checks leases against and the result store addresses entries by, so
//! `--plan` answers "what would `--fabric` be scheduling?" before
//! committing any compute; with `--store` it also answers "what would a
//! real run actually execute?", marking each sweep `cached` or `miss`.

use rendezvous_runner::WorkloadMeta;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

static ACTIVE: AtomicBool = AtomicBool::new(false);
static CURSOR: AtomicUsize = AtomicUsize::new(0);

/// Turns plan mode on for the rest of the process.
pub fn enable() {
    ACTIVE.store(true, Ordering::SeqCst);
}

/// True when the CLI enabled `--plan`.
#[must_use]
pub fn active() -> bool {
    ACTIVE.load(Ordering::SeqCst)
}

/// Prints one sweep's plan line (stdout — the plan *is* the output in
/// this mode) and advances the sweep cursor. When a store session is
/// active the line gains a `store=` column predicting exactly what a
/// real run would do: serve the entry (`cached`) or execute (`miss`).
pub fn note(context: &str, meta: &WorkloadMeta, pieces: usize) {
    let sweep = CURSOR.fetch_add(1, Ordering::SeqCst);
    let store = match crate::store::plan_status(context, meta) {
        Some(status) => format!(" store={status}"),
        None => String::new(),
    };
    println!(
        "plan: sweep #{sweep}: {context} fingerprint={} pieces={pieces}{store}",
        meta.fingerprint()
    );
}
