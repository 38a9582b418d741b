//! The lease state machine — pure logic, no sockets, no clocks.
//!
//! The [`Coordinator`] owns every sweep's chunk partition and hands out
//! leases from a deque. Time reaches it only as `now_ms` arguments
//! (milliseconds from any fixed origin), and bytes never reach it at
//! all, so the whole work-stealing/liveness/resume surface is directly
//! drivable from deterministic tests: the fabric proptest runs real
//! sweeps through simulated workers against this exact type.
//!
//! # Why byte-identity survives all of this
//!
//! Chunks partition each sweep's global index space into contiguous
//! ranges. [`SweepReport::merge`] is associative and commutative with
//! lowest-global-index witness tie-breaks, so *any* assignment of
//! chunks to workers — including a chunk executed twice because its
//! first worker was declared dead while merely slow — folds to the same
//! bytes as the direct sweep. Duplicate results are discarded by range
//! identity; a reassigned range is re-leased at exactly its original
//! `[lo, hi)`, never split or shifted.

use crate::checkpoint::CheckpointRecord;
use crate::error::FabricError;
use rendezvous_runner::{SweepReport, WorkloadMeta};
use rendezvous_telemetry::ProgressCounts;
use std::collections::{BTreeMap, VecDeque};

/// A worker's identity on the fabric (its process id).
pub type WorkerId = u64;

/// Dispatch tuning for a [`Coordinator`].
#[derive(Debug, Clone, Copy)]
pub struct CoordinatorConfig {
    /// How many workers the driver launched — the auto-chunker's input.
    pub workers: usize,
    /// Lease chunk size in workload units; `0` picks one automatically
    /// (about eight chunks per worker, so uneven pieces still balance
    /// while tiny sweeps are not shredded into per-unit frames).
    pub chunk: usize,
    /// Silence budget: a worker unheard-from for longer than this has
    /// its in-flight leases requeued.
    pub lease_timeout_ms: u64,
}

impl Default for CoordinatorConfig {
    fn default() -> CoordinatorConfig {
        CoordinatorConfig {
            workers: 1,
            chunk: 0,
            lease_timeout_ms: 5_000,
        }
    }
}

/// The coordinator's answer to a lease request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseReply {
    /// Execute global range `[lo, hi)` of the requested sweep.
    Range {
        /// Inclusive global start index.
        lo: usize,
        /// Exclusive global end index.
        hi: usize,
    },
    /// Nothing leasable, sweep not complete — poll again shortly.
    Wait,
    /// Every range of the requested sweep is done.
    Complete,
}

/// Run counters surfaced to the driver after the merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Sweeps registered.
    pub sweeps: usize,
    /// Lease chunks across all sweeps (resumed ranges included).
    pub chunks: usize,
    /// Ranges requeued after their worker went silent or vanished.
    pub reassigned: usize,
    /// Duplicate results discarded (a "dead" worker turned out slow).
    pub duplicates: usize,
    /// Ranges satisfied from the checkpoint instead of executed.
    pub resumed: usize,
    /// Workers whose connection or deadline declared them lost.
    pub workers_lost: usize,
}

#[derive(Debug)]
enum Slot {
    Pending,
    Leased(WorkerId),
    Done(Box<SweepReport>),
}

#[derive(Debug)]
struct Chunk {
    lo: usize,
    hi: usize,
    slot: Slot,
}

#[derive(Debug)]
struct SweepState {
    meta: WorkloadMeta,
    /// Contiguous partition of `[0, meta.size)`, sorted by `lo`.
    chunks: Vec<Chunk>,
    /// Indices into `chunks` still leasable.
    queue: VecDeque<usize>,
    done: usize,
}

#[derive(Debug)]
struct WorkerState {
    last_seen_ms: u64,
    alive: bool,
    finished: bool,
    /// `(sweep, chunk index)` pairs this worker currently holds.
    leases: Vec<(usize, usize)>,
}

/// The fabric's dispatch state: sweeps, chunk partitions, lease
/// ownership, worker liveness. See the [module docs](self) for the
/// determinism argument.
#[derive(Debug)]
pub struct Coordinator {
    cfg: CoordinatorConfig,
    sweeps: Vec<SweepState>,
    workers: BTreeMap<WorkerId, WorkerState>,
    /// Checkpointed completed ranges, consumed as their sweeps register.
    resume: BTreeMap<usize, Vec<CheckpointRecord>>,
    stats: FabricStats,
}

impl Coordinator {
    /// Creates a coordinator, seeding it with the completed ranges of a
    /// prior run's checkpoint (empty slice for a fresh run).
    #[must_use]
    pub fn new(cfg: CoordinatorConfig, checkpoint: Vec<CheckpointRecord>) -> Coordinator {
        let mut resume: BTreeMap<usize, Vec<CheckpointRecord>> = BTreeMap::new();
        let mut resumed = 0;
        for rec in checkpoint {
            resumed += 1;
            resume.entry(rec.sweep).or_default().push(rec);
        }
        Coordinator {
            cfg,
            sweeps: Vec::new(),
            workers: BTreeMap::new(),
            resume,
            stats: FabricStats {
                resumed,
                ..FabricStats::default()
            },
        }
    }

    /// Records proof of life from `worker` at `now_ms`, registering it
    /// on first contact. A worker previously declared lost that speaks
    /// again is revived — its requeued ranges stay requeued, but its
    /// future results are welcome (and idempotent).
    pub fn touch(&mut self, worker: WorkerId, now_ms: u64) {
        let state = self.workers.entry(worker).or_insert(WorkerState {
            last_seen_ms: now_ms,
            alive: true,
            finished: false,
            leases: Vec::new(),
        });
        state.last_seen_ms = now_ms;
        state.alive = true;
    }

    /// Handles a lease request: `worker` is at position `sweep` of the
    /// sweep sequence and fingerprints it as `meta`.
    ///
    /// The first request naming a sweep registers it, carving its chunk
    /// partition around any checkpointed ranges; later requests must
    /// agree on the fingerprint.
    ///
    /// # Errors
    ///
    /// [`FabricError::MetaMismatch`] on fingerprint disagreement,
    /// [`FabricError::Protocol`] for out-of-order sweep registration,
    /// [`FabricError::Checkpoint`] if the checkpointed ranges for this
    /// sweep are unusable.
    pub fn request(
        &mut self,
        worker: WorkerId,
        sweep: usize,
        meta: WorkloadMeta,
        now_ms: u64,
    ) -> Result<LeaseReply, FabricError> {
        self.touch(worker, now_ms);
        self.ensure_sweep(sweep, meta)?;
        let state = &mut self.sweeps[sweep];
        while let Some(idx) = state.queue.pop_front() {
            let chunk = &mut state.chunks[idx];
            if matches!(chunk.slot, Slot::Done(_)) {
                // Stale queue entry: the chunk was requeued after its
                // holder went silent, and the holder's late (zombie)
                // result then landed anyway. The fold is already in;
                // re-leasing it would double-count completion.
                continue;
            }
            chunk.slot = Slot::Leased(worker);
            let (lo, hi) = (chunk.lo, chunk.hi);
            self.workers
                .get_mut(&worker)
                .expect("touched above")
                .leases
                .push((sweep, idx));
            return Ok(LeaseReply::Range { lo, hi });
        }
        if state.done == state.chunks.len() {
            Ok(LeaseReply::Complete)
        } else {
            Ok(LeaseReply::Wait)
        }
    }

    /// Accepts the fold of leased range `[lo, hi)` of `sweep`.
    ///
    /// Returns the record to append to the checkpoint, or `None` when
    /// the result is a duplicate of an already-completed range (a
    /// requeue raced a slow worker) — duplicates are byte-identical by
    /// determinism, so either copy is *the* fold and the second is
    /// simply dropped.
    ///
    /// # Errors
    ///
    /// [`FabricError::Protocol`] if the range is not a chunk of the
    /// sweep's partition.
    pub fn result(
        &mut self,
        sweep: usize,
        lo: usize,
        hi: usize,
        report: SweepReport,
    ) -> Result<Option<CheckpointRecord>, FabricError> {
        let state = self
            .sweeps
            .get_mut(sweep)
            .ok_or_else(|| FabricError::Protocol(format!("result for unknown sweep #{sweep}")))?;
        let idx = state
            .chunks
            .binary_search_by(|c| c.lo.cmp(&lo))
            .map_err(|_| {
                FabricError::Protocol(format!(
                    "result range [{lo}, {hi}) is not on sweep #{sweep}'s chunk partition"
                ))
            })?;
        let chunk = &mut state.chunks[idx];
        if chunk.hi != hi {
            return Err(FabricError::Protocol(format!(
                "result range [{lo}, {hi}) disagrees with leased chunk [{lo}, {})",
                chunk.hi
            )));
        }
        if matches!(chunk.slot, Slot::Done(_)) {
            self.stats.duplicates += 1;
            return Ok(None);
        }
        chunk.slot = Slot::Done(Box::new(report.clone()));
        state.done += 1;
        let meta = state.meta;
        for w in self.workers.values_mut() {
            w.leases.retain(|&(s, i)| !(s == sweep && i == idx));
        }
        Ok(Some(CheckpointRecord {
            sweep,
            lo,
            hi,
            meta,
            report,
        }))
    }

    /// Requeues the in-flight ranges of every live worker silent for
    /// longer than the lease timeout as of `now_ms`. Returns how many
    /// ranges were requeued.
    pub fn expire(&mut self, now_ms: u64) -> usize {
        let deadline = self.cfg.lease_timeout_ms;
        let lost: Vec<WorkerId> = self
            .workers
            .iter()
            .filter(|(_, w)| {
                w.alive && !w.finished && now_ms.saturating_sub(w.last_seen_ms) > deadline
            })
            .map(|(&id, _)| id)
            .collect();
        lost.into_iter().map(|id| self.worker_lost(id)).sum()
    }

    /// Declares `worker` lost right now (its connection closed),
    /// requeueing its in-flight ranges. Returns how many were requeued.
    /// A no-op for workers that already finished cleanly.
    pub fn worker_lost(&mut self, worker: WorkerId) -> usize {
        let Some(state) = self.workers.get_mut(&worker) else {
            return 0;
        };
        if state.finished {
            return 0;
        }
        if state.alive {
            state.alive = false;
            self.stats.workers_lost += 1;
        }
        let leases = std::mem::take(&mut state.leases);
        let requeued = leases.len();
        for &(sweep, idx) in leases.iter().rev() {
            let chunk = &mut self.sweeps[sweep].chunks[idx];
            debug_assert!(matches!(chunk.slot, Slot::Leased(w) if w == worker));
            chunk.slot = Slot::Pending;
            // Requeue at the front: the range has been waiting longest,
            // and a worker stuck in Wait on this sweep unblocks on its
            // very next poll.
            self.sweeps[sweep].queue.push_front(idx);
        }
        self.stats.reassigned += requeued;
        requeued
    }

    /// Marks `worker` cleanly finished: it walked the whole sweep
    /// sequence. Any lease it somehow still holds (a protocol oddity,
    /// not the normal path) is requeued first — without counting the
    /// worker as lost.
    pub fn worker_finished(&mut self, worker: WorkerId) {
        let Some(state) = self.workers.get_mut(&worker) else {
            return;
        };
        let leases = std::mem::take(&mut state.leases);
        state.finished = true;
        state.alive = true;
        self.stats.reassigned += leases.len();
        for &(sweep, idx) in leases.iter().rev() {
            self.sweeps[sweep].chunks[idx].slot = Slot::Pending;
            self.sweeps[sweep].queue.push_front(idx);
        }
    }

    /// The run's progress as its chunk table records it: units and
    /// chunks of every registered sweep, against those in `Done` slots.
    /// Checkpoint-resumed ranges count as done; a requeued range counts
    /// once, whichever worker completes it.
    #[must_use]
    pub fn progress(&self) -> ProgressCounts {
        let total = |per_sweep: fn(&SweepState) -> usize| {
            u64::try_from(self.sweeps.iter().map(per_sweep).sum::<usize>()).unwrap_or(u64::MAX)
        };
        ProgressCounts {
            scenarios_done: total(|s| {
                s.chunks
                    .iter()
                    .filter(|c| matches!(c.slot, Slot::Done(_)))
                    .map(|c| c.hi - c.lo)
                    .sum()
            }),
            scenarios_total: total(|s| s.meta.size),
            pieces_done: total(|s| s.done),
            pieces_total: total(|s| s.chunks.len()),
        }
    }

    /// Chunks leased or pending, across all sweeps.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.sweeps.iter().map(|s| s.chunks.len() - s.done).sum()
    }

    /// Run counters for the driver's diagnostics.
    #[must_use]
    pub fn stats(&self) -> FabricStats {
        FabricStats {
            sweeps: self.sweeps.len(),
            chunks: self.sweeps.iter().map(|s| s.chunks.len()).sum(),
            ..self.stats
        }
    }

    /// Folds every sweep's chunk reports, in ascending range order, into
    /// the per-sweep merged reports — the exact payload the driver's
    /// replay renders.
    ///
    /// # Errors
    ///
    /// [`FabricError::Incomplete`] if any chunk never completed.
    pub fn merged(&self) -> Result<Vec<(WorkloadMeta, SweepReport)>, FabricError> {
        let outstanding = self.outstanding();
        if outstanding > 0 {
            return Err(FabricError::Incomplete { outstanding });
        }
        Ok(self
            .sweeps
            .iter()
            .map(|s| {
                let mut merged = SweepReport::default();
                for chunk in &s.chunks {
                    match &chunk.slot {
                        Slot::Done(report) => merged = merged.merge(report),
                        _ => unreachable!("outstanding() == 0 guarantees all chunks are done"),
                    }
                }
                (s.meta, merged)
            })
            .collect())
    }

    /// Registers sweep `sweep` (fingerprint `meta`) if it is the next
    /// unregistered one, or checks the fingerprint if already known.
    fn ensure_sweep(&mut self, sweep: usize, meta: WorkloadMeta) -> Result<(), FabricError> {
        if let Some(state) = self.sweeps.get(sweep) {
            if state.meta != meta {
                return Err(FabricError::MetaMismatch {
                    sweep,
                    expected: state.meta.fingerprint(),
                    found: meta.fingerprint(),
                });
            }
            return Ok(());
        }
        if sweep != self.sweeps.len() {
            // Workers walk the sweep sequence densely in order, so the
            // first request for sweep k always follows sweep k-1.
            return Err(FabricError::Protocol(format!(
                "sweep #{sweep} requested before sweep #{}",
                self.sweeps.len()
            )));
        }
        let done_ranges = self.resume.remove(&sweep).unwrap_or_default();
        let state = build_sweep(sweep, meta, self.chunk_for(meta.size), done_ranges)?;
        self.sweeps.push(state);
        Ok(())
    }

    fn chunk_for(&self, size: usize) -> usize {
        if self.cfg.chunk > 0 {
            self.cfg.chunk
        } else {
            size.div_ceil(self.cfg.workers.max(1) * 8).max(1)
        }
    }
}

/// Carves sweep `sweep`'s partition: checkpointed ranges become `Done`
/// chunks as-is; the gaps between them are cut into `chunk`-sized
/// `Pending` chunks.
fn build_sweep(
    sweep: usize,
    meta: WorkloadMeta,
    chunk: usize,
    mut done: Vec<CheckpointRecord>,
) -> Result<SweepState, FabricError> {
    done.sort_by_key(|r| r.lo);
    let mut chunks = Vec::new();
    let mut queue = VecDeque::new();
    let mut cursor = 0usize;
    for rec in done {
        if rec.meta != meta {
            return Err(FabricError::Checkpoint(format!(
                "sweep #{sweep}: record fingerprint {} disagrees with the run's {}",
                rec.meta.fingerprint(),
                meta.fingerprint()
            )));
        }
        if rec.lo < cursor || rec.hi > meta.size || rec.lo >= rec.hi {
            return Err(FabricError::Checkpoint(format!(
                "sweep #{sweep}: range [{}, {}) overlaps a neighbor or exceeds size {}",
                rec.lo, rec.hi, meta.size
            )));
        }
        carve_gap(cursor, rec.lo, chunk, &mut chunks, &mut queue);
        chunks.push(Chunk {
            lo: rec.lo,
            hi: rec.hi,
            slot: Slot::Done(Box::new(rec.report)),
        });
        cursor = rec.hi;
    }
    carve_gap(cursor, meta.size, chunk, &mut chunks, &mut queue);
    let done_count = chunks
        .iter()
        .filter(|c| matches!(c.slot, Slot::Done(_)))
        .count();
    Ok(SweepState {
        meta,
        chunks,
        queue,
        done: done_count,
    })
}

fn carve_gap(
    lo: usize,
    hi: usize,
    chunk: usize,
    chunks: &mut Vec<Chunk>,
    queue: &mut VecDeque<usize>,
) {
    let mut at = lo;
    while at < hi {
        let end = (at + chunk).min(hi);
        queue.push_back(chunks.len());
        chunks.push(Chunk {
            lo: at,
            hi: end,
            slot: Slot::Pending,
        });
        at = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendezvous_runner::WorkloadKind;

    fn meta(size: usize) -> WorkloadMeta {
        WorkloadMeta {
            kind: WorkloadKind::Grid,
            digest: 7,
            full_size: size,
            size,
        }
    }

    fn counts(done: u64, total: u64, pieces_done: u64, pieces_total: u64) -> ProgressCounts {
        ProgressCounts {
            scenarios_done: done,
            scenarios_total: total,
            pieces_done,
            pieces_total,
        }
    }

    fn lease(c: &mut Coordinator, worker: WorkerId, now_ms: u64) -> (usize, usize) {
        match c.request(worker, 0, meta(10), now_ms).unwrap() {
            LeaseReply::Range { lo, hi } => (lo, hi),
            other => panic!("expected a lease, got {other:?}"),
        }
    }

    /// Progress is read off the chunk table: registration adds totals,
    /// and only `Done` slots count as done, so a requeued range counts
    /// once however many times it completes, and checkpointed ranges
    /// start done.
    #[test]
    fn progress_counts_each_done_chunk_once() {
        let cfg = CoordinatorConfig {
            workers: 2,
            chunk: 4,
            lease_timeout_ms: 100,
        };
        let mut c = Coordinator::new(cfg, Vec::new());
        assert_eq!(c.progress(), ProgressCounts::default());

        // Fresh registration: 10 units in chunks [0,4) [4,8) [8,10).
        let (lo, hi) = lease(&mut c, 1, 0);
        assert_eq!(c.progress(), counts(0, 10, 0, 3));
        c.result(0, lo, hi, SweepReport::default()).unwrap();
        assert_eq!(c.progress(), counts(4, 10, 1, 3));

        // Worker 1 goes silent on [4,8); the requeued range is not done
        // until worker 2 completes it, and worker 1's late duplicate
        // adds nothing.
        let (lo, hi) = lease(&mut c, 1, 10);
        assert_eq!(c.expire(200), 1);
        assert_eq!(c.progress(), counts(4, 10, 1, 3));
        assert_eq!(lease(&mut c, 2, 200), (lo, hi));
        assert!(c
            .result(0, lo, hi, SweepReport::default())
            .unwrap()
            .is_some());
        assert!(c
            .result(0, lo, hi, SweepReport::default())
            .unwrap()
            .is_none());
        assert_eq!(c.progress(), counts(8, 10, 2, 3));

        // A resumed run: the checkpointed [2,5) is done on registration,
        // carved as [0,2) [2,5) [5,9) [9,10).
        let record = CheckpointRecord {
            sweep: 0,
            lo: 2,
            hi: 5,
            meta: meta(10),
            report: SweepReport::default(),
        };
        let mut resumed = Coordinator::new(cfg, vec![record]);
        assert_eq!(resumed.progress(), ProgressCounts::default());
        lease(&mut resumed, 1, 0);
        assert_eq!(resumed.progress(), counts(3, 10, 1, 4));
    }
}
