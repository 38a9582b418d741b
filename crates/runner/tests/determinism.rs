//! The Runner's two core guarantees, as tests:
//!
//! 1. **Determinism** — [`Runner::sweep`] produces a [`SweepReport`]
//!    identical to a hand fold of the very same workload
//!    (property-tested over random instances);
//! 2. **Model fidelity** — edge crossings are *never* reported as
//!    meetings, no matter how they reach the statistics (regression test
//!    for the paper's "agents crossing inside an edge do not notice each
//!    other" rule surviving the aggregation layer).

use proptest::prelude::*;
use rendezvous_core::{Cheap, Fast, LabelSpace, RendezvousAlgorithm};
use rendezvous_explore::OrientedRingExplorer;
use rendezvous_graph::{generators, NodeId, Port, PortLabeledGraph};
use rendezvous_runner::{
    fold_outcomes, AlgorithmExecutor, Bounds, Executor, Grid, PieceExecutor, Runner, RunnerError,
    Scenario, ScenarioOutcome, WorkPiece,
};
use rendezvous_sim::{Action, AgentSpec, ScriptedAgent, Simulation};
use std::sync::Arc;

/// Runs every pair scenario with the same two scripted agents, whatever
/// its labels: the first agent follows `first`, the second `second`.
struct Scripted<'a> {
    graph: &'a PortLabeledGraph,
    first: Vec<Action>,
    second: Vec<Action>,
}

impl Executor for Scripted<'_> {
    fn run(&self, scenario: &Scenario) -> Result<ScenarioOutcome, RunnerError> {
        let agent = |script: &[Action]| Box::new(ScriptedAgent::new(script.to_vec()));
        let outcome = Simulation::new(self.graph)
            .agent(
                agent(&self.first),
                AgentSpec::delayed(scenario.start_a(), scenario.first().delay),
            )
            .agent(
                agent(&self.second),
                AgentSpec::delayed(scenario.start_b(), scenario.delay()),
            )
            .max_rounds(scenario.horizon)
            .run()?;
        Ok(ScenarioOutcome::pairwise(
            scenario.clone(),
            outcome.time(),
            outcome.cost(),
            outcome.crossings(),
        ))
    }
}

impl PieceExecutor for Scripted<'_> {
    fn run_piece(
        &self,
        runner: &Runner,
        piece: &WorkPiece<'_>,
    ) -> Result<(Vec<ScenarioOutcome>, Option<Bounds>), RunnerError> {
        runner.outcomes(self, &piece.scenarios).map(|o| (o, None))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sweep aggregates == a hand fold of the same grid, for arbitrary
    /// ring sizes, label spaces, delay sets and algorithms.
    #[test]
    fn sweep_equals_hand_fold(
        n in 4usize..10,
        l in 2u64..8,
        delay in 0u64..12,
        fast in 0u8..2,
    ) {
        let g = Arc::new(generators::oriented_ring(n).unwrap());
        let ex = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
        let space = LabelSpace::new(l).unwrap();
        let alg: Box<dyn RendezvousAlgorithm> = if fast == 0 {
            Box::new(Fast::new(g.clone(), ex, space))
        } else {
            Box::new(Cheap::new(g.clone(), ex, space))
        };
        let bounds = Some(Bounds { time: alg.time_bound(), cost: alg.cost_bound() });
        // Distinct labels only: identical labels can never break symmetry.
        let grid = Grid::new(4 * alg.time_bound() + 4 * delay)
            .label_pairs_both_orders(&[(1, l), (l / 2, l / 2 + 1)])
            .delays(&[0, delay])
            .all_start_pairs(&g);
        let executor = AlgorithmExecutor::new(alg.as_ref());

        // Reference: execute and fold by hand.
        let outcomes: Vec<_> = grid
            .scenarios()
            .iter()
            .map(|s| executor.run(s).expect("valid configuration"))
            .collect();
        let reference = fold_outcomes(&outcomes, bounds);

        // The runner over the same grid, as a Workload.
        let swept = Runner::sequential()
            .sweep(&grid, &executor.with_bounds(bounds))
            .expect("valid configurations");
        prop_assert_eq!(&swept, &reference);
        // Sanity: the paper's algorithms meet everywhere within 4x bounds.
        prop_assert_eq!(reference.failures(), 0);
        prop_assert!(reference.clean());
    }

    /// The capped grid is a deterministic subset: sweeping it twice
    /// (cold, then warm plan caches) gives identical reports.
    #[test]
    fn capped_grids_sweep_deterministically(
        n in 4usize..9,
        cap in 1usize..40,
    ) {
        let g = Arc::new(generators::oriented_ring(n).unwrap());
        let ex = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
        let alg = Cheap::new(g.clone(), ex, LabelSpace::new(4).unwrap());
        let grid = Grid::new(4 * alg.time_bound())
            .label_pairs_both_orders(&[(1, 4), (2, 3)])
            .delays(&[0, 1, 7])
            .all_start_pairs(&g)
            .sample_cap(cap);
        prop_assert!(grid.scenarios().len() <= cap.min(grid.full_size()));
        let executor = AlgorithmExecutor::new(&alg);
        let a = Runner::sequential().sweep(&grid, &executor).unwrap();
        let b = Runner::sequential().sweep(&grid, &executor).unwrap();
        prop_assert_eq!(a, b);
    }
}

/// Two adjacent agents walking toward each other on a 4-ring swap nodes
/// through the same edge every round and never stand on a common node:
/// the engine counts crossings, and the aggregation layer must report
/// them as crossings — never as meetings.
#[test]
fn edge_crossings_are_never_reported_as_meetings() {
    let g = generators::oriented_ring(4).unwrap();
    let horizon = 8;
    let executor = Scripted {
        graph: &g,
        first: vec![Action::Move(Port::new(0)); horizon as usize],
        second: vec![Action::Move(Port::new(1)); horizon as usize],
    };
    // Adjacent ordered start pairs (i, i+1): the cw/ccw pair swaps every
    // other round; positions coincide only if 2r ≡ 1 (mod 4) — never.
    let pairs: Vec<(NodeId, NodeId)> = (0..4)
        .map(|i| (NodeId::new(i), NodeId::new((i + 1) % 4)))
        .collect();
    let grid = Grid::new(horizon)
        .label_pairs_ordered(&[(1, 2)])
        .start_pairs(&pairs);
    let stats = Runner::sequential().sweep(&grid, &executor).unwrap().solo();
    assert_eq!(stats.executed, 4);
    assert_eq!(
        stats.meetings, 0,
        "a crossing inside an edge must never count as a meeting"
    );
    assert_eq!(stats.failures, 4, "all four executions time out instead");
    assert!(
        stats.crossings >= 4,
        "the swaps themselves must be visible as crossings (got {})",
        stats.crossings
    );
    assert!(stats.worst_time.is_none() && stats.worst_cost.is_none());
}

/// The exhaustive adversary, through the grid: a clockwise walker versus
/// an idler on an `n`-ring is worst when the idler sits one step
/// counter-clockwise of the walker — time exactly `n − 1` — and the
/// sweep's witness must name that placement. (This coverage moved here
/// from the old `rendezvous_sim::adversary` module, which the Runner
/// replaced.)
#[test]
fn worst_case_witness_of_walker_vs_idler_is_ring_length_minus_one() {
    let n = 8usize;
    let g = generators::oriented_ring(n).unwrap();
    let executor = Scripted {
        graph: &g,
        first: vec![Action::Move(Port::new(0)); 512],
        second: vec![],
    };
    let grid = Grid::new(1_000)
        .label_pairs_ordered(&[(1, 2)])
        .delays(&[0, 3, 10])
        .all_start_pairs(&g);
    let stats = Runner::sequential().sweep(&grid, &executor).unwrap().solo();
    assert_eq!(stats.failures, 0);
    assert_eq!(stats.max_time, (n - 1) as u64, "idler just behind walker");
    assert_eq!(stats.max_cost, (n - 1) as u64);
    let w = stats.worst_time.unwrap();
    assert_eq!(
        (w.scenario.start_b().index() + n - w.scenario.start_a().index()) % n,
        n - 1,
        "worst placement is one step counter-clockwise"
    );
}

/// The same fidelity holds for real algorithm sweeps: whenever a sweep
/// reports crossings, none of them leaked into the meeting count — every
/// meeting has a strictly positive time or a found-asleep partner, and
/// meetings + failures account for every scenario.
#[test]
fn algorithm_sweeps_account_meetings_and_crossings_separately() {
    let g = Arc::new(generators::oriented_ring(6).unwrap());
    let ex = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
    let alg = Fast::new(g.clone(), ex, LabelSpace::new(8).unwrap());
    let grid = Grid::new(4 * alg.time_bound())
        .label_pairs_both_orders(&[(1, 2), (7, 8), (1, 8)])
        .delays(&[0, 1, 5])
        .all_start_pairs(&g);
    let stats = Runner::sequential()
        .sweep(&grid, &AlgorithmExecutor::new(&alg))
        .unwrap()
        .solo();
    assert_eq!(stats.meetings + stats.failures, stats.executed);
    assert_eq!(stats.failures, 0, "Fast always meets within 4x its bound");
}
