//! The batched engine *is* the stepped engine: for every algorithm,
//! seeded topology and delay set here, a sweep through [`BatchExecutor`]
//! must reproduce the stepped [`AlgorithmExecutor`] sweep exactly —
//! sums, maxima, bound failures, worst-case witnesses and their global
//! indices. The stepped engine simulates round by round; the batched one
//! never simulates at all (it solves trajectory arrays), so agreement
//! here is the oracle the `--engine batched` experiment pipeline rests
//! on.

use proptest::prelude::*;
use rendezvous_core::{Cheap, CoreError, Fast, LabelSpace, RendezvousAlgorithm};
use rendezvous_explore::{spec_explorer, BoundedWalkExplorer};
use rendezvous_graph::{
    ErdosRenyiSpec, GraphBuilder, GraphSpec, NodeId, RegularSpec, RingSpec, SeededSpec,
};
use rendezvous_runner::{
    AlgorithmExecutor, BatchExecutor, Bounds, Grid, PieceExecutor, Placement, Runner, Scenario,
    SweepReport, WorkPiece, Workload,
};
use rendezvous_sim::SimError;
use std::sync::Arc;

/// One seeded spec per family knob, mirroring the experiment's spec pool.
fn spec_for(family: u8, n: usize, seed: u64) -> GraphSpec {
    match family {
        0 => GraphSpec::Ring(RingSpec { n }),
        1 => GraphSpec::ScrambledRing(SeededSpec { n, seed }),
        2 => GraphSpec::Tree(SeededSpec { n, seed }),
        3 => GraphSpec::Regular(RegularSpec {
            n: n + n % 2,
            d: 3,
            seed,
        }),
        _ => GraphSpec::ErdosRenyi(ErdosRenyiSpec {
            n,
            edge_permille: 600,
            seed,
        }),
    }
}

fn algorithm_on(
    spec: &GraphSpec,
    l: u64,
    fast: bool,
) -> (
    Arc<rendezvous_graph::PortLabeledGraph>,
    Box<dyn RendezvousAlgorithm>,
) {
    let graph = Arc::new(spec.build().expect("seeded specs build"));
    let explorer = spec_explorer(spec, graph.clone()).expect("every family has an explorer");
    let space = LabelSpace::new(l).expect("l >= 2");
    let alg: Box<dyn RendezvousAlgorithm> = if fast {
        Box::new(Fast::new(graph.clone(), explorer, space))
    } else {
        Box::new(Cheap::new(graph.clone(), explorer, space))
    };
    (graph, alg)
}

fn stepped_sweep(runner: &Runner, grid: &Grid, alg: &dyn RendezvousAlgorithm) -> SweepReport {
    let executor = AlgorithmExecutor::new(alg).with_bounds(Some(Bounds {
        time: alg.time_bound(),
        cost: alg.cost_bound(),
    }));
    runner.sweep(grid, &executor).expect("stepped sweep")
}

fn batched_sweep(runner: &Runner, grid: &Grid, alg: &dyn RendezvousAlgorithm) -> SweepReport {
    let executor = BatchExecutor::new(alg).with_bounds(Some(Bounds {
        time: alg.time_bound(),
        cost: alg.cost_bound(),
    }));
    runner.sweep(grid, &executor).expect("batched sweep")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cheap/Fast × five seeded graph families × adversarial delay sets:
    /// the batched report equals the stepped report, witnesses included.
    /// The delay axis deliberately contains 0, clustered small values and
    /// delays beyond the horizon (the second agent never wakes).
    #[test]
    fn batched_sweeps_equal_stepped_sweeps(
        family in 0u8..5,
        n in 5usize..9,
        seed in 0u64..300,
        l in 2u64..5,
        fast in 0u8..2,
        spread in 1u64..40,
    ) {
        let spec = spec_for(family, n, seed);
        let (graph, alg) = algorithm_on(&spec, l, fast == 1);
        // A generous horizon (meetings happen) and a starved one
        // (timeouts and bound failures happen); equality must hold on
        // both, clean or not.
        for horizon in [4 * alg.time_bound(), n as u64] {
            let grid = Grid::new(horizon)
                .label_pairs_both_orders(&[(1, l)])
                .delays(&[0, 1, spread, horizon, horizon + spread])
                .all_start_pairs(&graph);
            let stepped = stepped_sweep(&Runner::sequential(), &grid, alg.as_ref());
            let batched = batched_sweep(&Runner::sequential(), &grid, alg.as_ref());
            prop_assert_eq!(&stepped, &batched, "horizon {}", horizon);
            prop_assert_eq!(
                serde_json::to_string(&stepped).expect("serializable"),
                serde_json::to_string(&batched).expect("serializable"),
                "reports must serialize byte-identically (horizon {})", horizon
            );
        }
    }

    /// Split batched sweeps merge to the direct batched sweep (split
    /// x10-style sweeps use piece offsets, which the batched scatter
    /// must respect).
    #[test]
    fn split_batched_sweeps_merge_exactly(
        seed in 0u64..100,
        m in 2usize..5,
    ) {
        let spec = spec_for(2, 8, seed);
        let (graph, alg) = algorithm_on(&spec, 3, false);
        let grid = Grid::new(4 * alg.time_bound())
            .label_pairs_both_orders(&[(1, 3)])
            .delays(&[0, 1, 6])
            .all_start_pairs(&graph);
        let bounds = Some(Bounds { time: alg.time_bound(), cost: alg.cost_bound() });
        let executor = BatchExecutor::new(alg.as_ref()).with_bounds(bounds);
        let direct = Runner::sequential().sweep(&grid, &executor).expect("sweep");
        let mut merged = SweepReport::default();
        for (lo, hi) in grid.lease_ranges(grid.size().div_ceil(m)) {
            let range = Runner::sequential()
                .sweep_range(&grid, lo, hi, &executor)
                .expect("range sweep");
            merged = merged.merge(&range);
        }
        prop_assert_eq!(merged, direct);
    }
}

/// Zero-delay-only grids (every scenario in one batch group per start
/// pair) and single-scenario grids both take the batched path; spot-check
/// them against the stepped engine directly.
#[test]
fn degenerate_grids_agree() {
    let spec = spec_for(0, 6, 0);
    let (graph, alg) = algorithm_on(&spec, 4, true);
    for delays in [vec![0], vec![3]] {
        let grid = Grid::new(4 * alg.time_bound())
            .label_pairs_both_orders(&[(1, 4)])
            .delays(&delays)
            .all_start_pairs(&graph);
        let stepped = stepped_sweep(&Runner::sequential(), &grid, alg.as_ref());
        let batched = batched_sweep(&Runner::sequential(), &grid, alg.as_ref());
        assert_eq!(stepped, batched, "delays {delays:?}");
        assert!(stepped.clean());
    }
}

/// One stretch of a piece: pairs sharing labels, starts and horizon
/// (so one batched run), each with its own two delays. Starts are
/// equal, out of range (either agent's) or distinct; delays reach past
/// the horizon, so horizons below both delays occur.
fn arb_stretch(n: usize) -> impl Strategy<Value = Vec<Scenario>> {
    (
        (1u64..=4, 1u64..=4),
        (0u8..8, 0..n, 1..n),
        0u64..250,
        collection::vec((0u64..60, 0u64..60), 1..4),
    )
        .prop_map(move |(labels, (kind, s, t), horizon, delays)| {
            let starts = match kind {
                0 => (s, s),
                1 => (s, n + t),
                2 => (n + t, s),
                _ => (s, (s + t) % n),
            };
            delays
                .into_iter()
                .map(|(d1, d2)| {
                    let place = |label, start, delay| Placement {
                        label,
                        start: NodeId::new(start),
                        delay,
                    };
                    Scenario::fleet(
                        vec![place(labels.0, starts.0, d1), place(labels.1, starts.1, d2)],
                        horizon,
                    )
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any two delays (the first agent's too) and any horizon, on Cheap
    /// and Fast over five graph families: the batched piece equals the
    /// stepped engine's outcomes, or fails with its error at the same
    /// index — for each stretch alone and for all of them in one piece.
    #[test]
    fn any_delays_and_horizon_equal_stepped_outcomes(
        family in 0u8..5,
        seed in 0u64..100,
        fast in 0u8..2,
        stretches in collection::vec(arb_stretch(6), 1..5),
    ) {
        let spec = spec_for(family, 6, seed);
        let (_, alg) = algorithm_on(&spec, 4, fast == 1);
        let stepped = AlgorithmExecutor::new(alg.as_ref());
        let batched = BatchExecutor::new(alg.as_ref());
        let mut pieces = stretches.clone();
        pieces.push(stretches.concat());
        for scenarios in pieces {
            let reference = Runner::sequential().outcomes(&stepped, &scenarios);
            let piece = WorkPiece { offset: 0, key: "", entry: None, scenarios };
            let solved = batched
                .run_piece(&Runner::sequential(), &piece)
                .map(|(outcomes, _)| outcomes);
            prop_assert_eq!(solved, reference);
        }
    }
}

/// Two disjoint triangles: both pair engines refuse every scenario with
/// `NotConnected`, first at the range's first global index; and where a
/// label lies outside the space, both give the label error first, as
/// the stepped engine orders its checks.
#[test]
fn disconnected_graphs_are_refused_alike() {
    let mut builder = GraphBuilder::new(6);
    for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
        builder.add_edge(NodeId::new(u), NodeId::new(v)).unwrap();
    }
    let split = Arc::new(builder.build().unwrap());
    let walk = Arc::new(BoundedWalkExplorer::new(2));
    let alg = Fast::new(split.clone(), walk, LabelSpace::new(4).unwrap());
    let grid = |labels| {
        Grid::new(50)
            .label_pairs_ordered(&[labels])
            .delays(&[0, 3])
            .all_start_pairs(&split)
    };
    let not_connected = SimError::NotConnected.to_string();
    let bad_label = CoreError::LabelOutOfRange { label: 9, space: 4 }.to_string();
    for (grid, expected) in [(grid((1, 2)), not_connected), (grid((1, 9)), bad_label)] {
        for lo in [0, 5] {
            let hi = grid.size();
            let sweep = |executor: &dyn PieceExecutor| {
                Runner::sequential()
                    .sweep_range(&grid, lo, hi, executor)
                    .unwrap_err()
            };
            let stepped = sweep(&AlgorithmExecutor::new(&alg));
            let batched = sweep(&BatchExecutor::new(&alg));
            assert_eq!(batched, stepped);
            assert_eq!(stepped.index(), Some(lo));
            assert!(stepped.to_string().ends_with(&expected), "{stepped}");
        }
    }
}
