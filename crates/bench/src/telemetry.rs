//! Process-global telemetry session for the experiments binary.
//!
//! Like the engine selection ([`crate::engine`]) and the fabric
//! session ([`crate::fabric`]), telemetry is a process-global the CLI
//! installs once before any sweep runs: experiment code deep inside
//! `sweep_worst` or the X10 per-piece executor just asks [`current`]
//! at its executor construction points and attaches the sink if one is
//! installed. No sink installed (the default, and every unit test)
//! means zero overhead and — by construction — zero output difference:
//! the sink only ever *observes* sweeps, it never enters a fold.

use rendezvous_telemetry::Metrics;
use std::sync::{Arc, OnceLock};

static METRICS: OnceLock<Arc<Metrics>> = OnceLock::new();

/// Installs (or returns the already-installed) process-wide metrics
/// sink. First call wins; the sink lives for the rest of the process.
pub fn install() -> Arc<Metrics> {
    Arc::clone(METRICS.get_or_init(|| Arc::new(Metrics::new())))
}

/// The installed sink, if the CLI enabled telemetry for this process.
#[must_use]
pub fn current() -> Option<Arc<Metrics>> {
    METRICS.get().map(Arc::clone)
}
