//! The one sweep session of a process: which engine sweeps run on, the
//! result store they read through, and what a sweep *does* — execute,
//! describe itself, lease ranges from a fabric coordinator, or replay
//! the coordinator's merged reports.
//!
//! Every sweep of the experiments — pair grids, fleet and topology
//! grids ([`sweep_recorded`](crate::common::sweep_recorded)) and the
//! §3 audits' trim sweeps — goes through `Session::sweep` and
//! dispatches on [`Session::mode`], so the combinations that make no
//! sense (a plan run that is also a worker, a worker that also replays)
//! cannot be represented. The experiments binary installs one session
//! before any sweep runs ([`install`]); a process that installs none —
//! perfbench, the micro benches, unit tests — gets
//! [`Session::default`]: direct execution on the batched engine, no
//! store. Telemetry is not part of the session: the sink rides on the
//! [`Runner`] each sweep is handed.
//!
//! A session has one owner: it is installed per thread, and only the
//! thread that installed it sweeps through it (a process runs its
//! sweeps on one thread; the fabric is the one parallel path), so it
//! holds no locks.
//!
//! One cursor numbers the sweeps of a walk. Under `--plan` it counts
//! every sweep; otherwise it counts store misses only, which is the
//! sweep identity a fabric worker registers with the coordinator and a
//! driver replays by. Every process of a fabric run opens the same store
//! and skips the same cached sweeps, so their cursors stay aligned
//! without any message about the cache crossing a process boundary.

use crate::engine::Engine;
use crate::fabric::{Replay, Worker};
use rendezvous_runner::{PieceExecutor, Runner, SweepReport, Workload, WorkloadMeta};
use rendezvous_store::{Store, StoreKey};
use rendezvous_telemetry::{Scope, TelemetrySnapshot};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// How a process runs its sweeps.
#[derive(Default)]
pub struct Session {
    /// The engine every sweep executes on; part of every store key.
    pub engine: Engine,
    /// The read-through result store (`--store DIR`), if any.
    pub store: Option<Store>,
    /// What a sweep does when the store does not serve it.
    pub mode: Mode,
    /// Position of the next sweep in this process's walk.
    cursor: Cell<usize>,
}

/// What a sweep does when the store does not serve it.
#[derive(Default)]
pub enum Mode {
    /// Execute the whole sweep in this process.
    #[default]
    Direct,
    /// `--plan`: print one line per sweep and execute nothing.
    Plan,
    /// A fabric worker: execute the ranges the coordinator leases.
    Worker(Worker),
    /// The fabric driver: take each sweep's merged report, in order.
    Replay(Replay),
}

thread_local! {
    static INSTALLED: RefCell<Option<Rc<Session>>> = const { RefCell::new(None) };
}

/// Installs `session` for every later sweep on this thread, replacing
/// any earlier one. Other threads keep their own sessions.
pub fn install(session: Session) {
    INSTALLED.with_borrow_mut(|installed| *installed = Some(Rc::new(session)));
}

/// This thread's installed session, or [`Session::default`] when none
/// is.
#[must_use]
pub fn current() -> Rc<Session> {
    INSTALLED.with_borrow(Clone::clone).unwrap_or_default()
}

/// Uninstalls the session and ends its mode: a worker delivers the
/// snapshot of `runner`'s telemetry sink (empty without one) and
/// half-closes its socket; a replay checks that every merged report was
/// consumed.
///
/// # Panics
///
/// Panics if a replay left reports unconsumed, a worker cannot deliver
/// its snapshot, or a sweep still holds the session.
pub fn finish(runner: &Runner) {
    let Some(session) = INSTALLED.take() else {
        return;
    };
    let session = Rc::into_inner(session).expect("session finished while a sweep holds it");
    match session.mode {
        Mode::Worker(worker) => {
            worker.finish(
                runner
                    .metrics()
                    .map_or_else(TelemetrySnapshot::empty, |m| m.snapshot()),
            );
        }
        Mode::Replay(replay) => replay.finish(session.cursor.into_inner()),
        Mode::Direct | Mode::Plan => {}
    }
}

impl Session {
    /// A session with its cursor at the first sweep.
    #[must_use]
    pub fn new(engine: Engine, store: Option<Store>, mode: Mode) -> Session {
        Session {
            engine,
            store,
            mode,
            cursor: Cell::new(0),
        }
    }

    /// The key addressing `context`'s sweep of `meta` under this
    /// session's engine — one derivation for lookups, write-backs and
    /// the `--plan` store column.
    #[must_use]
    pub fn key(&self, context: &str, meta: &WorkloadMeta) -> StoreKey {
        StoreKey::new(context, meta, self.engine.name())
    }

    /// Sweeps `workload` as this session's mode dictates, returning the
    /// report and whether the store served it. `context` names the
    /// sweep in plan lines, panics and fabric registrations; its store
    /// entry is keyed by `key_context()` when given — called only when
    /// a store is open, so a run without one pays nothing for it — and
    /// by `context` otherwise.
    ///
    /// # Panics
    ///
    /// Panics on any execution error, on an empty direct or replayed
    /// sweep (`context` names it), and when a replayed report disagrees
    /// with `meta`.
    pub(crate) fn sweep<W, E>(
        &self,
        context: &str,
        key_context: Option<&dyn Fn() -> String>,
        meta: &WorkloadMeta,
        workload: &W,
        executor: &E,
        runner: &Runner,
    ) -> (SweepReport, bool)
    where
        W: Workload + ?Sized,
        E: PieceExecutor + ?Sized,
    {
        let key_context = match (&self.store, key_context) {
            (Some(_), Some(derive)) => Cow::Owned(derive()),
            _ => Cow::Borrowed(context),
        };
        // A plan run only describes the store's answer; every other mode
        // takes a cached full report in place of the whole sweep.
        if !matches!(self.mode, Mode::Plan) {
            if let Some(report) = self.cached(&key_context, meta, runner.metrics()) {
                return (report, true);
            }
        }
        let sweep = self.cursor.replace(self.cursor.get() + 1);
        // Sweeps executed here, by this process; a replayed report
        // stands in for execution and counts nothing.
        let count_sweep = || {
            if let Some(metrics) = runner.metrics() {
                metrics.counter(Scope::Process, "sweeps").inc();
            }
        };
        let report = match &self.mode {
            // The empty report is safe downstream for the same reason a
            // worker's partial folds are: every experiment tolerates
            // partial stats (the audits fold only a full trim report),
            // and a partial mode prints no tables.
            Mode::Plan => {
                let store = match &self.store {
                    Some(store) => match store.load(&self.key(&key_context, meta)) {
                        Ok(_) => " store=cached",
                        Err(_) => " store=miss",
                    },
                    None => "",
                };
                println!(
                    "plan: sweep #{sweep}: {context} fingerprint={} pieces={}{store}",
                    meta.fingerprint(),
                    workload.piece_count(0, workload.size())
                );
                return (SweepReport::default(), false);
            }
            // A worker's report is its own partial merge (possibly empty
            // on a checkpoint resume): no emptiness check, no write-back.
            Mode::Worker(worker) => {
                count_sweep();
                return (
                    worker.sweep(sweep, context, workload, executor, runner),
                    false,
                );
            }
            Mode::Replay(replay) => replay.take(sweep, meta),
            Mode::Direct => {
                count_sweep();
                runner
                    .sweep(workload, executor)
                    .unwrap_or_else(|e| panic!("adversarial sweep failed for {context}: {e}"))
            }
        };
        assert!(
            report.executed() > 0,
            "empty adversarial sweep for {context} — misconfigured workload \
             (no label pairs, no delays, or a graph without distinct start pairs)"
        );
        self.record(&key_context, meta, &report);
        (report, false)
    }
}
