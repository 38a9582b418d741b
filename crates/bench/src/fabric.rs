//! The experiments binary's side of the sweep fabric: the process-global
//! worker session, and the driver's replay of the coordinator's merged
//! reports.
//!
//! A fabric worker process (`experiments … --fabric-worker ADDR`) runs
//! the *same* experiment sequence as a direct run — same selection,
//! same workload construction, same engine — but every sweep inside
//! [`sweep_recorded`](crate::common::sweep_recorded) detours through
//! [`sweep_via_fabric`]: instead of executing `[0, size())`, the worker
//! pulls lease ranges from the coordinator and executes exactly those
//! through [`Runner::sweep_range`]. Because every worker walks the
//! sweep sequence in the same order, the position of a sweep in that
//! walk is its identity on the wire; the workload fingerprint sent with
//! every request catches any process that disagrees.
//!
//! The session also hosts the chaos hook behind `--fabric-kill-one`:
//! a worker launched with the internal `--fabric-self-kill` flag
//! SIGKILLs itself upon being *granted* a lease after completing at
//! least one — mid-piece from the coordinator's point of view, which is
//! precisely the window lease reassignment exists for.
//!
//! The driver (`experiments … --fabric workers=N`) executes nothing
//! itself: once its workers finish it installs the coordinator's
//! per-sweep `(meta, report)` list with [`begin_replay`] and walks the
//! same experiment sequence, each sweep consuming the next merged report
//! instead of executing ([`replayed`]). Every replayed report is checked
//! against the fingerprint of the workload about to sweep, so a driver
//! and workers that disagree on the sweep sequence fail with a
//! diagnostic naming the sweep position, the expected versus found
//! sweep kind, and the report source — instead of folding garbage.

use rendezvous_fabric::WorkerClient;
use rendezvous_runner::{PieceExecutor, Runner, SweepReport, Workload, WorkloadKind, WorkloadMeta};
use rendezvous_telemetry::TelemetrySnapshot;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

struct WorkerSession {
    /// `None` after [`finish_worker`] hands the connection its snapshot.
    client: Mutex<Option<WorkerClient>>,
    /// Position of the *next* sweep in the walk — sweep identity.
    cursor: AtomicUsize,
    /// Leases completed by this process, across all sweeps.
    completed: AtomicUsize,
    /// The `--fabric-self-kill` chaos hook.
    self_kill: bool,
}

static SESSION: OnceLock<WorkerSession> = OnceLock::new();

/// Connects this process to the coordinator at `addr` and installs the
/// worker session. The worker's wire identity is its process id.
///
/// # Panics
///
/// Panics if the connection fails or a session is already installed.
pub fn begin_worker(addr: &str, self_kill: bool) {
    let client = WorkerClient::connect(addr, u64::from(std::process::id()))
        .unwrap_or_else(|e| panic!("cannot join the fabric at {addr}: {e}"));
    let installed = SESSION.set(WorkerSession {
        client: Mutex::new(Some(client)),
        cursor: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        self_kill,
    });
    assert!(installed.is_ok(), "fabric worker session already active");
}

/// True when this process is a fabric worker.
#[must_use]
pub fn active() -> bool {
    SESSION.get().is_some()
}

/// Ends the worker's conversation: sends the process's telemetry
/// snapshot (empty if no sink is installed) and half-closes the socket.
///
/// # Panics
///
/// Panics if the final frame cannot be written or the session was
/// already finished.
pub fn finish_worker() {
    let Some(session) = SESSION.get() else {
        return;
    };
    let client = session
        .client
        .lock()
        .expect("fabric client lock")
        .take()
        .expect("fabric worker session finished twice");
    let snapshot =
        crate::telemetry::current().map_or_else(TelemetrySnapshot::empty, |m| m.snapshot());
    client
        .finish(snapshot)
        .unwrap_or_else(|e| panic!("fabric worker cannot deliver its snapshot: {e}"));
}

/// The fabric worker's sweep loop, or `None` when this process is not a
/// worker (the caller then executes normally).
///
/// Pulls leases for the walk's next sweep until the coordinator reports
/// it complete, executing each granted range through
/// [`Runner::sweep_range`] and submitting its fold. Returns the local
/// merge of this worker's own ranges — partial, and possibly empty on a
/// resume of a finished checkpoint; output emission is suppressed in
/// worker mode, so partial rows never reach stdout.
///
/// # Panics
///
/// Panics on execution errors, wire failures, or coordinator faults —
/// the worker exits nonzero, the coordinator sees the connection drop
/// and requeues its leases, and the driver surfaces the diagnostics.
pub fn sweep_via_fabric<W, E>(
    context: &str,
    workload: &W,
    executor: &E,
    runner: &Runner,
) -> Option<SweepReport>
where
    W: Workload + ?Sized,
    E: PieceExecutor + ?Sized,
{
    let session = SESSION.get()?;
    let sweep = session.cursor.fetch_add(1, Ordering::SeqCst);
    let meta = workload.meta();
    let mut merged = SweepReport::default();
    loop {
        let lease = {
            let mut slot = session.client.lock().expect("fabric client lock");
            let client = slot
                .as_mut()
                .expect("sweep after the fabric session finished");
            client.next_lease(sweep, meta)
        };
        match lease {
            Ok(Some((lo, hi))) => {
                session.maybe_self_kill();
                let partial = runner
                    .sweep_range(workload, lo, hi, executor)
                    .unwrap_or_else(|e| {
                        panic!("fabric sweep failed for {context} on [{lo}, {hi}): {e}")
                    });
                {
                    let mut slot = session.client.lock().expect("fabric client lock");
                    let client = slot
                        .as_mut()
                        .expect("sweep after the fabric session finished");
                    client
                        .submit(sweep, lo, hi, partial.clone())
                        .unwrap_or_else(|e| {
                            panic!("fabric worker cannot submit [{lo}, {hi}): {e}")
                        });
                }
                session.completed.fetch_add(1, Ordering::SeqCst);
                merged = merged.merge(&partial);
            }
            Ok(None) => break,
            Err(e) => panic!("fabric worker lost its coordinator during {context}: {e}"),
        }
    }
    Some(merged)
}

impl WorkerSession {
    /// The `--fabric-self-kill` hook: once at least one lease has
    /// completed, dying on the *next* grant leaves that lease in flight
    /// — the reassignment path under test. SIGKILL (not a clean exit)
    /// so the coordinator learns only from the socket closing.
    fn maybe_self_kill(&self) {
        if self.self_kill && self.completed.load(Ordering::SeqCst) >= 1 {
            let pid = std::process::id().to_string();
            let _ = std::process::Command::new("kill")
                .args(["-9", &pid])
                .status();
            // `kill` missing (non-POSIX environment): abort is the
            // closest thing to an unannounced death available in std.
            std::process::abort();
        }
    }
}

/// The driver's replay session: the coordinator's merged reports, one
/// per sweep in sequence order, consumed front to back.
struct Replay {
    sweeps: Vec<(WorkloadMeta, SweepReport)>,
    cursor: usize,
    /// Where the reports came from — named in every diagnostic.
    source: String,
}

static REPLAY: Mutex<Option<Replay>> = Mutex::new(None);

/// Switches this process into replay mode: every subsequent sweep takes
/// the next of `sweeps` instead of executing. `source` says where the
/// reports came from and is named in every diagnostic.
///
/// # Panics
///
/// Panics if a replay is already active.
pub fn begin_replay(sweeps: Vec<(WorkloadMeta, SweepReport)>, source: String) {
    let mut replay = REPLAY.lock().expect("replay session poisoned");
    assert!(replay.is_none(), "a replay session is already active");
    *replay = Some(Replay {
        sweeps,
        cursor: 0,
        source,
    });
}

/// Ends replay mode, verifying every merged report was consumed (a
/// leftover means the workers walked a different sweep sequence than
/// the driver).
///
/// # Panics
///
/// Panics if reports remain unconsumed or no replay is active.
pub fn finish_replay() {
    let replay = REPLAY.lock().expect("replay session poisoned").take();
    let Some(Replay {
        sweeps,
        cursor,
        source,
    }) = replay
    else {
        panic!("finish_replay without an active replay session");
    };
    assert_eq!(
        cursor,
        sweeps.len(),
        "replay consumed {cursor} of {} merged sweeps from {source} — \
         the workers covered a different experiment selection than \
         this driver run",
        sweeps.len()
    );
}

/// The next merged report when a replay is active, or `None` (the caller
/// then executes). `meta` is the fingerprint of the workload about to
/// sweep; the replayed report must have been recorded under the same
/// one.
///
/// # Panics
///
/// Panics when the merged reports are exhausted or the next one came
/// from a different kind (or size) of sweep; the message names the
/// sweep's position in the sequence, the expected versus found sweep,
/// and the source. The failed replay is retired before panicking, so
/// the process holds no half-consumed session.
pub(crate) fn replayed(meta: &WorkloadMeta) -> Option<SweepReport> {
    let mut slot = REPLAY.lock().expect("replay session poisoned");
    let replay = slot.as_mut()?;
    let sweep = replay.cursor;
    // Diagnose inside the lock, panic outside it: a poisoned session
    // would mask the actual diagnostic in every later caller.
    let diagnostic = match replay.sweeps.get_mut(sweep) {
        None => format!(
            "sweep #{sweep} ({}) requested but the merged ledger from {} \
             holds only {} records — the workers covered a different \
             experiment selection",
            describe(meta),
            replay.source,
            replay.sweeps.len()
        ),
        Some((recorded, _)) if recorded != meta => format!(
            "sweep #{sweep} expected a {} but the merged ledger from {} \
             recorded a {} — workers and driver must use identical \
             experiment selections and flags",
            describe(meta),
            replay.source,
            describe(recorded)
        ),
        Some((_, report)) => {
            let report = std::mem::take(report);
            replay.cursor += 1;
            return Some(report);
        }
    };
    *slot = None;
    drop(slot);
    panic!("{diagnostic}");
}

/// Fingerprint description of a workload for diagnostics — the single
/// phrasing both sides of every expected-versus-found message use.
fn describe(meta: &WorkloadMeta) -> String {
    match meta.kind {
        WorkloadKind::Grid => format!(
            "grid sweep of {} scenarios ({} pre-cap)",
            meta.size, meta.full_size
        ),
        WorkloadKind::Topo => format!(
            "topo sweep of {} (spec × scenario) units ({} pre-cap)",
            meta.size, meta.full_size
        ),
    }
}
