//! The telemetry layer's contract, end to end: **non-perturbation** —
//! a sweep with a [`Metrics`] sink attached produces a [`SweepReport`]
//! byte-identical to one without (the sink observes, it never enters
//! the fold).
//!
//! Plus the `RunnerError` context contract: errors surface the failing
//! scenario's *global* index and piece key in the rendered message.

use rendezvous_core::{Fast, LabelSpace, RendezvousAlgorithm};
use rendezvous_explore::OrientedRingExplorer;
use rendezvous_graph::{generators, NodeId};
use rendezvous_runner::PieceExecutor;
use rendezvous_runner::{
    AlgorithmExecutor, BatchExecutor, Bounded, Bounds, Grid, Placement, Runner, RunnerError,
    Scenario, WorkPiece,
};
use rendezvous_telemetry::Metrics;
use std::sync::Arc;

fn ring_fast(n: usize, l: u64) -> (Arc<rendezvous_graph::PortLabeledGraph>, Fast) {
    let g = Arc::new(generators::oriented_ring(n).unwrap());
    let ex = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
    let alg = Fast::new(g.clone(), ex, LabelSpace::new(l).unwrap());
    (g, alg)
}

fn standard_grid(alg: &dyn RendezvousAlgorithm) -> Grid {
    Grid::new(4 * alg.time_bound())
        .label_pairs_both_orders(&[(1, 4), (2, 3)])
        .delays(&[0, 1, 5])
        .all_start_pairs(alg.graph())
}

/// The error-context contract at the unit level: `at_index` pins the
/// in-piece index (first writer wins), `in_piece` lifts it to the
/// global index and tags the fold key.
#[test]
fn error_context_renders_global_index_and_key() {
    let rendered = RunnerError::new("boom").at_index(2).in_piece(10, "tree");
    assert_eq!(rendered.index(), Some(12));
    assert_eq!(
        rendered.to_string(),
        "scenario execution failed at global index 12 [tree]: boom"
    );
    // No context attached: the bare message.
    assert_eq!(
        RunnerError::new("boom").to_string(),
        "scenario execution failed: boom"
    );
    // The first index sticks; a later `at_index` must not clobber it.
    let first_wins = RunnerError::new("x").at_index(3).at_index(9);
    assert_eq!(first_wins.index(), Some(3));
    // An empty piece key adds no bracket noise.
    assert_eq!(
        RunnerError::new("x")
            .at_index(1)
            .in_piece(0, "")
            .to_string(),
        "scenario execution failed at global index 1: x"
    );
}

/// End to end: a sweep over a grid whose third label pair is invalid
/// (label 0 — the core layer rejects it) fails with the *global*
/// scenario index attached.
#[test]
fn sweep_error_carries_global_scenario_index() {
    let (_, alg) = ring_fast(6, 4);
    let grid = Grid::new(4 * alg.time_bound())
        .label_pairs_ordered(&[(1, 2), (2, 3), (3, 0)])
        .delays(&[0])
        .start_pairs(&[(NodeId::new(0), NodeId::new(3))]);
    let executor = AlgorithmExecutor::new(&alg);
    let bounded = Bounded::new(&executor, None);
    let err = Runner::sequential()
        .sweep(&grid, &bounded)
        .expect_err("label 0 is invalid");
    assert_eq!(err.index(), Some(2), "global index of the bad scenario");
    let msg = err.to_string();
    assert!(
        msg.contains("at global index 2"),
        "rendered message names the global index: {msg}"
    );
}

/// Telemetry attached everywhere (runner + executor) folds the same
/// report — byte for byte, through the same serde path fabric frames
/// use — as a bare sweep.
#[test]
fn metrics_never_perturb_report_bytes() {
    let (_, alg) = ring_fast(7, 4);
    let grid = standard_grid(&alg);
    let bounds = Some(Bounds {
        time: alg.time_bound(),
        cost: alg.cost_bound(),
    });

    let bare_executor = AlgorithmExecutor::new(&alg);
    let bare = Runner::sequential()
        .sweep(&grid, &Bounded::new(&bare_executor, bounds))
        .expect("sweep succeeds");

    let metrics = Arc::new(Metrics::new());
    let observed_executor = AlgorithmExecutor::new(&alg).with_metrics(&metrics);
    let observed = Runner::sequential()
        .with_metrics(Arc::clone(&metrics))
        .sweep(&grid, &Bounded::new(&observed_executor, bounds))
        .expect("sweep succeeds");

    assert_eq!(
        serde_json::to_string(&bare).unwrap(),
        serde_json::to_string(&observed).unwrap(),
        "telemetry-on report must be byte-identical to telemetry-off"
    );
    // ... and the sink actually observed the sweep.
    let snap = metrics.snapshot();
    let total = u64::try_from(grid.scenarios().len()).unwrap();
    assert_eq!(snap.counters.get("scenarios_executed"), Some(&total));
    assert!(snap.process.get("plan_cache_misses").copied() > Some(0));
}

/// The batched-vs-fallback classification observed on a mixed piece: a
/// hand-built piece whose last scenario delays the *first* agent (a
/// batched-solver precondition violation) routes exactly that scenario
/// through the stepped fallback — and the counters say so.
#[test]
fn batch_classification_counters_split_batched_from_fallback() {
    let (_, alg) = ring_fast(6, 4);
    let horizon = 4 * alg.time_bound();
    let mut scenarios = vec![
        Scenario::pair(1, 2, NodeId::new(0), NodeId::new(3), 0, horizon),
        Scenario::pair(1, 2, NodeId::new(0), NodeId::new(3), 1, horizon),
        Scenario::pair(2, 3, NodeId::new(1), NodeId::new(4), 0, horizon),
    ];
    // First agent delayed: `BatchExecutor::batchable` rejects it, so it
    // must fall back to the stepped engine.
    scenarios.push(Scenario::fleet(
        vec![
            Placement {
                label: 1,
                start: NodeId::new(0),
                delay: 1,
            },
            Placement {
                label: 2,
                start: NodeId::new(3),
                delay: 0,
            },
        ],
        horizon,
    ));
    let piece = WorkPiece {
        offset: 0,
        key: "",
        entry: None,
        scenarios,
    };
    let metrics = Arc::new(Metrics::new());
    let executor = BatchExecutor::new(&alg).with_metrics(&metrics);
    let (outcomes, _) = executor
        .run_piece(&Runner::sequential(), &piece)
        .expect("mixed piece succeeds");
    assert_eq!(outcomes.len(), 4);
    let snap = metrics.snapshot();
    assert_eq!(snap.counters.get("scenarios_batched"), Some(&3));
    assert_eq!(snap.counters.get("scenarios_stepped"), Some(&1));
    // Two distinct (labels, starts, horizon) groups among the batched 3.
    assert_eq!(snap.process.get("batch_groups"), Some(&2));
    // The shared plan cache served both paths: 4 distinct (label, start)
    // plans compiled, every further access a hit.
    assert_eq!(snap.process.get("plan_cache_misses"), Some(&4));
    assert!(snap.process["plan_cache_hits"] > 0);
}
