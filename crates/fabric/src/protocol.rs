//! The fabric's message vocabulary — nine small shapes, serialized as
//! externally-tagged JSON inside length-prefixed frames (see
//! [`wire`](crate::wire)).
//!
//! The conversation is strictly worker-initiated: a worker sends
//! [`Message::Hello`] once, then loops `Request → (Lease | Wait |
//! SweepComplete)` per sweep, submitting a [`Message::Result`] for every
//! lease it finishes, with [`Message::Heartbeat`]s flowing from a side
//! thread the whole time. [`Message::Finished`] hands the worker's
//! telemetry snapshot to the coordinator for the merged sidecar. The
//! coordinator only ever speaks in *replies* to `Request` —
//! plus [`Message::Fault`] when it must refuse.

use rendezvous_runner::{SweepReport, WorkloadMeta};
use rendezvous_telemetry::TelemetrySnapshot;
use serde::{Deserialize, Serialize};

/// Wire-protocol version, carried in [`Message::Hello`]. Coordinator and
/// workers are always the same binary in practice (the driver re-execs
/// itself), but the check turns a version skew into a typed refusal
/// instead of a JSON parse error three frames later.
pub const PROTOCOL_VERSION: u32 = 1;

/// One frame of the fabric protocol.
///
/// `sweep` is always the sweep's position in the run's deterministic
/// sweep sequence (every worker walks the same experiment list in the
/// same order), and `lo..hi` are **global workload indices** — the same
/// coordinates [`Workload`](rendezvous_runner::Workload) pieces,
/// [`rendezvous_runner::SweepReport`] witnesses, and the
/// checkpoint records all use, which is what makes lease reassignment and
/// duplicate results idempotent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Message {
    /// Worker → coordinator, once per connection: identify and
    /// version-check.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u32,
        /// The worker's id (its process id — unique per run).
        worker: u64,
    },
    /// Worker → coordinator: "I am at sweep `sweep`, which I fingerprint
    /// as `meta`; lease me a range." The first request naming a sweep
    /// registers it; every later one must match its fingerprint.
    Request {
        /// Position in the sweep sequence.
        sweep: usize,
        /// The worker's fingerprint of that sweep's workload.
        meta: WorkloadMeta,
    },
    /// Coordinator → worker: execute global range `[lo, hi)` of sweep
    /// `sweep` and submit a [`Message::Result`] for exactly that range.
    Lease {
        /// Position in the sweep sequence.
        sweep: usize,
        /// Inclusive global start index.
        lo: usize,
        /// Exclusive global end index.
        hi: usize,
    },
    /// Coordinator → worker: nothing leasable right now, but the sweep is
    /// not complete either (other workers hold leases that may yet
    /// expire). Poll again shortly.
    Wait,
    /// Coordinator → worker: every range of sweep `sweep` is done; move
    /// on to the next sweep.
    SweepComplete {
        /// Position in the sweep sequence.
        sweep: usize,
    },
    /// Worker → coordinator: the partial fold of exactly the leased
    /// range. Duplicates (from a worker declared dead that was merely
    /// slow) are discarded — determinism makes them byte-identical to
    /// the copy already folded.
    Result {
        /// Position in the sweep sequence.
        sweep: usize,
        /// Inclusive global start index of the lease.
        lo: usize,
        /// Exclusive global end index of the lease.
        hi: usize,
        /// The fold of `[lo, hi)`, at global indices.
        report: SweepReport,
    },
    /// Worker → coordinator, from a side thread at a fixed cadence:
    /// proof of life. A worker silent past the lease deadline has its
    /// in-flight ranges requeued.
    Heartbeat,
    /// Worker → coordinator: the worker ran out of sweeps; here is its
    /// telemetry for the merged sidecar. The worker half-closes after
    /// this frame.
    Finished {
        /// The worker process's full telemetry snapshot.
        telemetry: TelemetrySnapshot,
    },
    /// Either direction: a typed refusal. The connection ends after this
    /// frame; the run fails loudly unless other workers can still finish
    /// the space.
    Fault {
        /// Human-readable reason.
        message: String,
    },
}

impl Message {
    /// Short tag for diagnostics ("got `Wait` while expecting a reply").
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "Hello",
            Message::Request { .. } => "Request",
            Message::Lease { .. } => "Lease",
            Message::Wait => "Wait",
            Message::SweepComplete { .. } => "SweepComplete",
            Message::Result { .. } => "Result",
            Message::Heartbeat => "Heartbeat",
            Message::Finished { .. } => "Finished",
            Message::Fault { .. } => "Fault",
        }
    }
}
