//! Fabric byte-identity: merged fabric reports must equal the direct
//! `Runner::sweep` fold **byte for byte** — over seeded workloads,
//! worker counts m ∈ {1, 2, 3, 7}, an injected worker kill, lease
//! expiry with a zombie's duplicate submission, and checkpoint resume.
//!
//! The coordinator is pure (no sockets, no clocks), so these tests
//! drive the exact dispatch logic the server runs, with simulated
//! worker schedules standing in for the network.

use proptest::prelude::*;
use rendezvous_core::{Cheap, Fast, LabelSpace, RendezvousAlgorithm};
use rendezvous_explore::OrientedRingExplorer;
use rendezvous_fabric::{CheckpointRecord, Coordinator, CoordinatorConfig, LeaseReply};
use rendezvous_graph::generators;
use rendezvous_runner::{AlgorithmExecutor, Grid, Runner, SweepReport, Workload};
use std::sync::Arc;

/// Two sweeps (Cheap then Fast on the same ring) — enough to exercise
/// the sweep-sequence identity, not just a single space. Sampling-capped
/// so the many re-sweeps below stay cheap.
fn sweep_setup(n: usize, l: u64, cap: usize) -> Vec<(Box<dyn RendezvousAlgorithm>, Grid)> {
    let g = Arc::new(generators::oriented_ring(n).unwrap());
    let ex = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
    let space = LabelSpace::new(l).unwrap();
    let algs: Vec<Box<dyn RendezvousAlgorithm>> = vec![
        Box::new(Cheap::new(g.clone(), ex.clone(), space)),
        Box::new(Fast::new(g, ex, space)),
    ];
    algs.into_iter()
        .map(|alg| {
            let grid = Grid::new(4 * alg.time_bound())
                .label_pairs_both_orders(&[(1, l), (l / 2, l / 2 + 1)])
                .delays(&[0, 3])
                .all_start_pairs(alg.graph())
                .sample_cap(cap);
            (alg, grid)
        })
        .collect()
}

fn direct_reports(sweeps: &[(Box<dyn RendezvousAlgorithm>, Grid)]) -> Vec<SweepReport> {
    sweeps
        .iter()
        .map(|(alg, grid)| {
            let executor = AlgorithmExecutor::new(alg.as_ref()).with_bounds(None);
            Runner::sequential()
                .sweep(grid, &executor)
                .expect("valid configurations")
        })
        .collect()
}

struct SimWorker {
    id: u64,
    sweep: usize,
    completed: usize,
    dead: bool,
    finished: bool,
}

struct SimOutcome {
    merged: Vec<SweepReport>,
    checkpoint: Vec<CheckpointRecord>,
    executed_units: usize,
    stats: rendezvous_fabric::FabricStats,
}

/// Round-robin worker schedule against the real coordinator. With
/// `kill`, worker 0 "dies" on the first lease granted after it has
/// completed one: for m > 1 the lease is abandoned (requeued, the
/// death-mid-piece path); for m = 1 the worker is declared lost but
/// keeps submitting — the zombie path, where requeued ranges and
/// duplicate results must still fold to the exact bytes.
fn run_sim(
    sweeps: &[(Box<dyn RendezvousAlgorithm>, Grid)],
    m: usize,
    chunk: usize,
    kill: bool,
    resume: Vec<CheckpointRecord>,
) -> SimOutcome {
    let mut coordinator = Coordinator::new(
        CoordinatorConfig {
            workers: m,
            chunk,
            lease_timeout_ms: u64::MAX,
        },
        resume,
    );
    let mut workers: Vec<SimWorker> = (0..m)
        .map(|i| SimWorker {
            id: 1000 + i as u64,
            sweep: 0,
            completed: 0,
            dead: false,
            finished: false,
        })
        .collect();
    // One executor per sweep, shared by every simulated worker: a real
    // worker process reuses its executor (and so its compiled-schedule
    // cache) across all the leases of a sweep.
    let executors: Vec<AlgorithmExecutor> = sweeps
        .iter()
        .map(|(alg, _)| AlgorithmExecutor::new(alg.as_ref()).with_bounds(None))
        .collect();
    let mut checkpoint = Vec::new();
    let mut executed_units = 0usize;
    let mut killed = false;
    let mut now = 0u64;
    while workers.iter().any(|w| !w.finished && !w.dead) {
        let mut progressed = false;
        for w in &mut workers {
            if w.finished || w.dead {
                continue;
            }
            now += 1;
            let meta = sweeps[w.sweep].1.meta();
            match coordinator
                .request(w.id, w.sweep, meta, now)
                .expect("simulated workers follow the protocol")
            {
                LeaseReply::Range { lo, hi } => {
                    progressed = true;
                    let zombie = kill && !killed && w.id == 1000 && w.completed >= 1;
                    if zombie {
                        killed = true;
                        coordinator.worker_lost(w.id);
                        if m > 1 {
                            // Death mid-piece: the granted lease is
                            // abandoned and must be re-served to a
                            // survivor at the same [lo, hi).
                            w.dead = true;
                            continue;
                        }
                        // m = 1: no survivors to hand the range to, so
                        // the "dead" worker keeps going — submitting
                        // the abandoned lease late, as a zombie would.
                    }
                    let grid = &sweeps[w.sweep].1;
                    let report = Runner::sequential()
                        .sweep_range(grid, lo, hi, &executors[w.sweep])
                        .expect("valid configurations");
                    executed_units += hi - lo;
                    if let Some(record) = coordinator
                        .result(w.sweep, lo, hi, report)
                        .expect("range is on the partition")
                    {
                        checkpoint.push(record);
                    }
                    w.completed += 1;
                }
                LeaseReply::Complete => {
                    progressed = true;
                    w.sweep += 1;
                    if w.sweep == sweeps.len() {
                        coordinator.worker_finished(w.id);
                        w.finished = true;
                    }
                }
                LeaseReply::Wait => {}
            }
        }
        assert!(
            progressed || workers.iter().any(|w| !w.finished && !w.dead),
            "stalled schedule"
        );
    }
    let merged = coordinator
        .merged()
        .expect("all sweeps complete")
        .into_iter()
        .map(|(_, report)| report)
        .collect();
    SimOutcome {
        merged,
        checkpoint,
        executed_units,
        stats: coordinator.stats(),
    }
}

fn bytes(report: &SweepReport) -> String {
    serde_json::to_string(report).expect("serializable report")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fabric merged bytes == direct sweep bytes for every worker count,
    /// with a kill injected, and for a checkpoint resume of half the run.
    #[test]
    fn fabric_merge_is_byte_identical_to_the_direct_sweep(
        n in 4usize..7,
        l in 2u64..5,
        cap in 20usize..48,
        chunk in 1usize..8,
    ) {
        let sweeps = sweep_setup(n, l, cap);
        let direct = direct_reports(&sweeps);
        let mut kept_checkpoint: Option<Vec<CheckpointRecord>> = None;
        for m in [1usize, 2, 3, 7] {
            let out = run_sim(&sweeps, m, chunk, true, Vec::new());
            prop_assert_eq!(out.merged.len(), direct.len());
            for (got, want) in out.merged.iter().zip(&direct) {
                prop_assert_eq!(bytes(got), bytes(want), "m = {}", m);
            }
            // The kill must actually have exercised reassignment (m > 1)
            // or the zombie-duplicate path (m = 1, whose abandoned lease
            // is requeued and then double-submitted).
            prop_assert!(
                out.stats.reassigned >= 1,
                "m = {}: kill was injected but nothing was requeued", m
            );
            if m == 2 {
                kept_checkpoint = Some(out.checkpoint);
            }
        }

        // Resume from the m = 2 run's full checkpoint: nothing executes.
        let full = kept_checkpoint.expect("m = 2 ran");
        let resumed = run_sim(&sweeps, 2, chunk, false, full.clone());
        prop_assert_eq!(resumed.executed_units, 0, "full resume must re-run zero units");
        for (got, want) in resumed.merged.iter().zip(&direct) {
            prop_assert_eq!(bytes(got), bytes(want));
        }

        // Resume from half the records — and with a *different* worker
        // count and chunk than the run that wrote them: only the gaps
        // execute, and the bytes still match.
        let half: Vec<CheckpointRecord> =
            full.iter().step_by(2).cloned().collect();
        let missing: usize = {
            let done: usize = half.iter().map(|r| r.hi - r.lo).sum();
            sweeps.iter().map(|(_, g)| g.size()).sum::<usize>() - done
        };
        let partial = run_sim(&sweeps, 3, chunk + 1, false, half);
        prop_assert_eq!(partial.executed_units, missing);
        for (got, want) in partial.merged.iter().zip(&direct) {
            prop_assert_eq!(bytes(got), bytes(want));
        }
    }
}

/// Deadline-based lease expiry: a worker that leases a range and goes
/// silent past the timeout has it requeued; its late (zombie) submission
/// is discarded as a duplicate; the merge is still exact.
#[test]
fn silent_workers_expire_and_their_late_results_are_discarded() {
    let sweeps = sweep_setup(6, 4, 32);
    let direct = direct_reports(&sweeps);
    let chunk = sweeps[0].1.size().div_ceil(4).max(1);
    let mut coordinator = Coordinator::new(
        CoordinatorConfig {
            workers: 2,
            chunk,
            lease_timeout_ms: 100,
        },
        Vec::new(),
    );
    let meta0 = sweeps[0].1.meta();

    // Worker 1 takes the first chunk at t = 0 and is never heard again.
    let LeaseReply::Range { lo, hi } = coordinator.request(1, 0, meta0, 0).unwrap() else {
        panic!("first request must lease");
    };

    // Worker 2 sweeps everything else; at some point only worker 1's
    // chunk is missing, so it gets Wait until the deadline passes.
    let executors: Vec<AlgorithmExecutor> = sweeps
        .iter()
        .map(|(alg, _)| AlgorithmExecutor::new(alg.as_ref()).with_bounds(None))
        .collect();
    let run_range = |sweep: usize, lo: usize, hi: usize| {
        Runner::sequential()
            .sweep_range(&sweeps[sweep].1, lo, hi, &executors[sweep])
            .expect("valid configurations")
    };
    let mut now = 10u64;
    let mut sweep = 0usize;
    let mut saw_wait = false;
    while sweep < sweeps.len() {
        now += 1;
        let meta = sweeps[sweep].1.meta();
        match coordinator.request(2, sweep, meta, now).unwrap() {
            LeaseReply::Range { lo, hi } => {
                let report = run_range(sweep, lo, hi);
                coordinator.result(sweep, lo, hi, report).unwrap();
            }
            LeaseReply::Wait => {
                saw_wait = true;
                // The server's idle tick: nothing leasable, check
                // deadlines. Jump past worker 1's deadline (last seen at
                // t = 0) but not worker 2's (last seen just now) — +90
                // keeps worker 2 inside the 100 ms window while worker 1,
                // silent since t = 0 > 100 ms ago, expires.
                now += 90;
                assert_eq!(coordinator.expire(now), 1, "exactly worker 1's lease");
            }
            LeaseReply::Complete => sweep += 1,
        }
    }
    assert!(saw_wait, "worker 2 must have waited on the stuck lease");

    // Worker 1 wakes up and submits its long-expired range.
    let late = run_range(0, lo, hi);
    assert!(
        coordinator.result(0, lo, hi, late).unwrap().is_none(),
        "the zombie's duplicate is discarded, not folded twice"
    );

    let stats = coordinator.stats();
    assert_eq!(stats.reassigned, 1);
    assert_eq!(stats.duplicates, 1);
    assert_eq!(stats.workers_lost, 1);
    let merged = coordinator.merged().unwrap();
    for ((_, got), want) in merged.iter().zip(&direct) {
        assert_eq!(bytes(got), bytes(want));
    }
}

/// Fingerprint discipline: a worker that disagrees about what a sweep
/// *is* gets a typed refusal, and sweeps must register densely in order.
#[test]
fn meta_mismatch_and_out_of_order_sweeps_are_typed_errors() {
    let sweeps = sweep_setup(5, 3, 24);
    let mut coordinator = Coordinator::new(CoordinatorConfig::default(), Vec::new());
    let meta = sweeps[0].1.meta();
    assert!(matches!(
        coordinator.request(1, 1, meta, 0),
        Err(rendezvous_fabric::FabricError::Protocol(_))
    ));
    coordinator.request(1, 0, meta, 0).unwrap();
    let mut wrong = meta;
    wrong.size += 1;
    assert!(matches!(
        coordinator.request(2, 0, wrong, 1),
        Err(rendezvous_fabric::FabricError::MetaMismatch { sweep: 0, .. })
    ));
}

/// A checkpoint whose fingerprints disagree with the resumed run is
/// refused at sweep registration, not silently merged.
#[test]
fn stale_checkpoints_are_refused() {
    let sweeps = sweep_setup(5, 3, 24);
    let meta = sweeps[0].1.meta();
    let mut wrong = meta;
    wrong.full_size += 7;
    let record = CheckpointRecord {
        sweep: 0,
        lo: 0,
        hi: 1,
        meta: wrong,
        report: SweepReport::default(),
    };
    let mut coordinator = Coordinator::new(CoordinatorConfig::default(), vec![record]);
    assert!(matches!(
        coordinator.request(1, 0, meta, 0),
        Err(rendezvous_fabric::FabricError::Checkpoint(_))
    ));
}
