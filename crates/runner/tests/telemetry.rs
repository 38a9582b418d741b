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
    AlgorithmExecutor, BatchExecutor, Bounds, Grid, Placement, Runner, RunnerError, Scenario,
    WorkPiece,
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
    let executor = AlgorithmExecutor::new(&alg).with_bounds(None);
    let err = Runner::sequential()
        .sweep(&grid, &executor)
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

    let bare_executor = AlgorithmExecutor::new(&alg).with_bounds(bounds);
    let bare = Runner::sequential()
        .sweep(&grid, &bare_executor)
        .expect("sweep succeeds");

    let metrics = Arc::new(Metrics::new());
    let observed_executor = AlgorithmExecutor::new(&alg)
        .with_bounds(bounds)
        .with_metrics(&metrics);
    let observed = Runner::sequential()
        .with_metrics(Arc::clone(&metrics))
        .sweep(&grid, &observed_executor)
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
    // The stepped executor steps schedules: it compiles no plan.
    assert_eq!(snap.process.get("plan_cache_misses"), Some(&0));

    // The batched executor reads compiled plans, and its counters say so.
    let metrics = Arc::new(Metrics::new());
    let batched = BatchExecutor::new(&alg)
        .with_bounds(bounds)
        .with_metrics(&metrics);
    let observed = Runner::sequential()
        .with_metrics(Arc::clone(&metrics))
        .sweep(&grid, &batched)
        .expect("sweep succeeds");
    assert_eq!(
        serde_json::to_string(&bare).unwrap(),
        serde_json::to_string(&observed).unwrap(),
        "telemetry-on batched report must be byte-identical to telemetry-off"
    );
    assert!(metrics.snapshot().process.get("plan_cache_misses").copied() > Some(0));
}

/// The batched engine's run counters on a mixed piece: all four
/// scenarios are solved, a pair whose *first* agent sleeps included, in
/// three runs, and match the stepped engine. The last run has the first
/// run's labels and starts, so it reuses that run's two plans.
#[test]
fn batch_run_counters_count_every_scenario_once() {
    let (_, alg) = ring_fast(6, 4);
    let horizon = 4 * alg.time_bound();
    let mut scenarios = vec![
        Scenario::pair(1, 2, NodeId::new(0), NodeId::new(3), 0, horizon),
        Scenario::pair(1, 2, NodeId::new(0), NodeId::new(3), 1, horizon),
        Scenario::pair(2, 3, NodeId::new(1), NodeId::new(4), 0, horizon),
    ];
    // First agent delayed: solved with the second agent leading.
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
    let stepped = Runner::sequential()
        .outcomes(&AlgorithmExecutor::new(&alg), &piece.scenarios)
        .expect("the stepped engine runs it too");
    assert_eq!(outcomes, stepped);
    let snap = metrics.snapshot();
    // The engine counts runs, not scenarios: `scenarios_executed` is the
    // sweep's, and there is no per-engine scenario counter.
    assert!(!snap.counters.contains_key("scenarios_batched"));
    assert!(!snap.counters.contains_key("scenarios_stepped"));
    // Three runs: delays 0 and 1 of the first key, the second key, and
    // the delayed-first scenario.
    assert_eq!(snap.process.get("batch_groups"), Some(&3));
    // The first two runs compiled 4 distinct (label, start) plans, once
    // each; the third reads the first run's two again.
    assert_eq!(snap.process.get("plan_cache_misses"), Some(&4));
    assert_eq!(snap.process.get("plan_cache_hits"), Some(&2));
}
