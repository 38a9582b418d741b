//! The experiments binary's side of the sweep fabric: the two session
//! modes a fabric run puts its processes in.
//!
//! A fabric worker process (`experiments … --fabric-worker ADDR`) runs
//! the *same* experiment sequence as a direct run — same selection,
//! same workload construction, same engine — in [`Mode::Worker`]: instead
//! of executing `[0, size())`, every sweep pulls lease ranges from the
//! coordinator and executes exactly those through
//! [`Runner::sweep_range`] (`Worker::sweep`). Because every worker
//! walks the sweep sequence in the same order, the session cursor's
//! position of a sweep is its identity on the wire; the workload
//! fingerprint sent with every request catches any process that
//! disagrees.
//!
//! A worker also hosts the chaos hook behind `--fabric-kill-one`: one
//! launched with the internal `--fabric-self-kill` flag SIGKILLs itself
//! upon being *granted* a lease after completing at least one —
//! mid-piece from the coordinator's point of view, which is precisely
//! the window lease reassignment exists for.
//!
//! The driver (`experiments … --fabric workers=N`) executes nothing
//! itself: once its workers finish it installs the coordinator's
//! per-sweep `(meta, report)` list in [`Mode::Replay`] and walks the
//! same experiment sequence, each sweep taking the next merged report
//! instead of executing (`Replay::take`). Every replayed report is
//! checked against the fingerprint of the workload about to sweep, so a
//! driver and workers that disagree on the sweep sequence fail with a
//! diagnostic naming the sweep position, the expected versus found
//! sweep kind, and the report source — instead of folding garbage.
//!
//! [`Mode::Worker`]: crate::session::Mode::Worker
//! [`Mode::Replay`]: crate::session::Mode::Replay

use rendezvous_fabric::{FabricError, WorkerClient};
use rendezvous_runner::{PieceExecutor, Runner, SweepReport, Workload, WorkloadKind, WorkloadMeta};
use rendezvous_telemetry::TelemetrySnapshot;
use std::cell::{Cell, RefCell};

/// A fabric worker's connection to its coordinator.
pub struct Worker {
    client: RefCell<WorkerClient>,
    /// Leases completed by this process, across all sweeps.
    completed: Cell<usize>,
    /// The `--fabric-self-kill` chaos hook.
    self_kill: bool,
}

impl Worker {
    /// Connects this process to the coordinator at `addr`. The worker's
    /// wire identity is its process id. A failed connection ends the
    /// process.
    #[must_use]
    pub fn join(addr: &str, self_kill: bool) -> Worker {
        let client = WorkerClient::connect(addr, u64::from(std::process::id()))
            .unwrap_or_else(|e| end_worker(&format!("cannot join the fabric at {addr}: {e}")));
        Worker {
            client: RefCell::new(client),
            completed: Cell::new(0),
            self_kill,
        }
    }

    /// Pulls leases of walk position `sweep` until the coordinator
    /// reports it complete, executing each granted range through
    /// [`Runner::sweep_range`] and submitting its fold. Returns the local
    /// merge of this worker's own ranges — partial, and possibly empty on
    /// a resume of a finished checkpoint.
    ///
    /// A refusal or a lost coordinator ends the process: the
    /// coordinator requeues its leases and the driver reports the run.
    ///
    /// # Panics
    ///
    /// Panics on execution errors.
    pub(crate) fn sweep<W, E>(
        &self,
        sweep: usize,
        context: &str,
        workload: &W,
        executor: &E,
        runner: &Runner,
    ) -> SweepReport
    where
        W: Workload + ?Sized,
        E: PieceExecutor + ?Sized,
    {
        let meta = workload.meta();
        let mut merged = SweepReport::default();
        loop {
            let lease = self.client.borrow_mut().next_lease(sweep, meta);
            match lease {
                Ok(Some((lo, hi))) => {
                    self.maybe_self_kill();
                    let partial = runner
                        .sweep_range(workload, lo, hi, executor)
                        .unwrap_or_else(|e| {
                            panic!("fabric sweep failed for {context} on [{lo}, {hi}): {e}")
                        });
                    self.client
                        .borrow_mut()
                        .submit(sweep, lo, hi, partial.clone())
                        .unwrap_or_else(|e| {
                            end_worker(&format!("fabric worker cannot submit [{lo}, {hi}): {e}"))
                        });
                    self.completed.set(self.completed.get() + 1);
                    merged = merged.merge(&partial);
                }
                Ok(None) => return merged,
                Err(e @ FabricError::Refused(_)) => {
                    end_worker(&format!("fabric worker stopped during {context}: {e}"))
                }
                Err(e) => end_worker(&format!(
                    "fabric worker lost its coordinator during {context}: {e}"
                )),
            }
        }
    }

    /// Ends the conversation: sends the process's telemetry `snapshot`
    /// and half-closes the socket. A frame that cannot be written ends
    /// the process.
    pub(crate) fn finish(self, snapshot: TelemetrySnapshot) {
        self.client
            .into_inner()
            .finish(snapshot)
            .unwrap_or_else(|e| {
                end_worker(&format!("fabric worker cannot deliver its snapshot: {e}"))
            });
    }

    /// The `--fabric-self-kill` hook: once at least one lease has
    /// completed, dying on the *next* grant leaves that lease in flight
    /// — the reassignment path under test. SIGKILL (not a clean exit)
    /// so the coordinator learns only from the socket closing.
    fn maybe_self_kill(&self) {
        if self.self_kill && self.completed.get() >= 1 {
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

/// Ends a worker whose coordinator refused it or vanished: one line on
/// the driver's stderr, exit status 1. The driver names the run's own
/// failure, so a backtrace here would only bury it.
fn end_worker(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}

/// The driver's replay: the coordinator's merged reports, one per sweep
/// in walk order.
pub struct Replay {
    sweeps: RefCell<Vec<(WorkloadMeta, SweepReport)>>,
    /// Where the reports came from — named in every diagnostic.
    source: String,
}

impl Replay {
    /// A replay of `sweeps`; `source` says where the reports came from
    /// and is named in every diagnostic.
    #[must_use]
    pub fn new(sweeps: Vec<(WorkloadMeta, SweepReport)>, source: String) -> Replay {
        Replay {
            sweeps: RefCell::new(sweeps),
            source,
        }
    }

    /// The merged report of walk position `sweep`. `meta` is the
    /// fingerprint of the workload about to sweep; the replayed report
    /// must have been recorded under the same one.
    ///
    /// # Panics
    ///
    /// Panics when the merged reports are exhausted or the next one came
    /// from a different kind (or size) of sweep; the message names the
    /// sweep's position in the sequence, the expected versus found
    /// sweep, and the source.
    pub(crate) fn take(&self, sweep: usize, meta: &WorkloadMeta) -> SweepReport {
        let mut sweeps = self.sweeps.borrow_mut();
        let held = sweeps.len();
        match sweeps.get_mut(sweep) {
            None => panic!(
                "sweep #{sweep} ({}) requested but the merged ledger from {} \
                 holds only {held} records — the workers covered a different \
                 experiment selection",
                describe(meta),
                self.source,
            ),
            Some((recorded, _)) if recorded != meta => panic!(
                "sweep #{sweep} expected a {} but the merged ledger from {} \
                 recorded a {} — workers and driver must use identical \
                 experiment selections and flags",
                describe(meta),
                self.source,
                describe(recorded)
            ),
            Some((_, report)) => std::mem::take(report),
        }
    }

    /// Verifies that all `consumed` sweeps account for every merged
    /// report (a leftover means the workers walked a different sweep
    /// sequence than the driver).
    ///
    /// # Panics
    ///
    /// Panics if reports remain unconsumed.
    pub(crate) fn finish(self, consumed: usize) {
        let held = self.sweeps.into_inner().len();
        assert_eq!(
            consumed, held,
            "replay consumed {consumed} of {held} merged sweeps from {} — \
             the workers covered a different experiment selection than \
             this driver run",
            self.source
        );
    }
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
