//! `rendezvous-telemetry` — determinism-safe observability for the
//! sweep engine.
//!
//! A long sweep was a black box: no progress, no ETA, no cache-hit or
//! batch-fallback rates. This crate adds those signals under one hard
//! invariant: **telemetry must be invisible to the byte-identity
//! discipline**. Attaching a [`Metrics`] sink, rendering progress, or
//! emitting a sidecar may never change a `SweepReport` or a markdown
//! table byte — CI diffs telemetry-on against telemetry-off output to
//! prove it.
//!
//! Three pieces:
//!
//! * [`Metrics`] — named monotonic counters and power-of-two-bucketed
//!   duration histograms, handed out as cheap atomic handles. Counters
//!   are split by [`Scope`]: per-scenario counts partition across any
//!   shard layout (the sums are sharding-invariant), per-process counts
//!   describe one execution plan (cache hits, pieces).
//! * [`ProgressReporter`] — a stderr sampling thread rendering
//!   pieces-done / scenarios-per-second / ETA from any counts source: a
//!   sink's [`Progress`] in a direct run, the fabric coordinator's chunk
//!   table in a fabric driver.
//! * [`TelemetrySnapshot`] — the `TELEMETRY.json` sidecar schema. Exact
//!   counter sections render from `BTreeMap`s (sorted keys, byte-stable
//!   across reruns and shard merges); every wall-clock-derived field is
//!   quarantined in the `timing` section behind an explicit marker.
//!   [`TelemetrySnapshot::merge`] is associative and commutative, so
//!   fabric workers' snapshots fold into one sidecar in any order.
//!
//! The crate is the workspace's **only** sanctioned wall-clock reader
//! outside the bench harness: [`Stopwatch`] wraps `Instant` here, under
//! a scoped `analyze.toml` timing exemption, so `rendezvous-analyze`
//! keeps flagging clocks everywhere else.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod progress;
mod snapshot;

pub use metrics::{Counter, HistogramHandle, Metrics, Scope, Stopwatch};
pub use progress::{Progress, ProgressCounts, ProgressReporter};
pub use snapshot::{TelemetrySnapshot, TimingSection, QUARANTINE, SCHEMA};
