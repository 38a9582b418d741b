//! Sweeping start pairs up to rotation ([`Grid::start_orbits`]) is
//! exact: on every algorithm the tables sweep on oriented rings, the
//! reduced axis's report equals the full axis's up to the orbit size —
//! the same maxima and witness scenarios, and every count divided by n —
//! on the stepped engine and on the batched one. The full axis
//! ([`Grid::all_start_pairs`]) stays the reference. Explorers that fail
//! the certificate keep the full axis.

use rendezvous_core::{
    rotation_equivariant, BaseAlgorithm, Cheap, CheapSimultaneous, Fast, FastWithRelabeling,
    Iterated, LabelSpace, RendezvousAlgorithm,
};
use rendezvous_explore::{
    DfsMapExplorer, ExplorationFamily, Explorer, OrientedRingExplorer, RingDoublingFamily,
};
use rendezvous_graph::{generators, GraphSpec, PortLabeledGraph, SeededSpec};
use rendezvous_runner::{
    AlgorithmExecutor, BatchExecutor, Bounds, Grid, GroupStats, PieceExecutor, Runner, SweepReport,
    Witness, Workload,
};
use std::sync::Arc;

const L: u64 = 6;
const PAIRS: [(u64, u64); 4] = [(1, 2), (1, L), (L - 1, L), (2, 4)];

/// Every algorithm the tables sweep on an oriented ring: Cheap,
/// CheapSimultaneous, Fast, FastWithRelabeling for w = 1…4, and
/// Iterated on both bases over the ring-doubling family.
fn ring_algorithms(n: usize) -> Vec<Box<dyn RendezvousAlgorithm>> {
    let g = Arc::new(generators::oriented_ring(n).unwrap());
    let ex: Arc<dyn Explorer> = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
    let space = LabelSpace::new(L).unwrap();
    let mut algs: Vec<Box<dyn RendezvousAlgorithm>> = vec![
        Box::new(Cheap::new(g.clone(), ex.clone(), space)),
        Box::new(CheapSimultaneous::new(g.clone(), ex.clone(), space)),
        Box::new(Fast::new(g.clone(), ex.clone(), space)),
    ];
    for w in 1..=4 {
        algs.push(Box::new(
            FastWithRelabeling::new(g.clone(), ex.clone(), space, w).unwrap(),
        ));
    }
    let family = Arc::new(RingDoublingFamily::new());
    for base in [BaseAlgorithm::Cheap, BaseAlgorithm::Fast] {
        let top = family.level_for(n);
        algs.push(Box::new(
            Iterated::new(g.clone(), family.clone(), space, base, 1..=top).unwrap(),
        ));
    }
    algs
}

fn grid(alg: &dyn RendezvousAlgorithm, horizon: u64, reduced: bool) -> Grid {
    let e = alg.exploration_bound();
    let grid = Grid::new(horizon)
        .label_pairs_both_orders(&PAIRS)
        .delays(&[0, 1, e, e + 1, 2 * e]);
    if reduced {
        grid.start_orbits(alg)
    } else {
        grid.all_start_pairs(alg.graph())
    }
}

fn sweep(grid: &Grid, executor: &dyn PieceExecutor) -> SweepReport {
    Runner::sequential().sweep(grid, executor).unwrap()
}

/// A witness without its index: the reduced grid numbers its units
/// differently, but must name the same scenario with the same figures.
fn named(witness: &Option<Witness>) -> Option<Witness> {
    witness.clone().map(|w| Witness { index: 0, ..w })
}

/// `reduced` is `full` with every orbit of n start pairs swept once.
fn assert_orbit_equal(reduced: &GroupStats, full: &GroupStats, n: usize, at: &str) {
    assert_eq!(reduced.max_time, full.max_time, "max time, {at}");
    assert_eq!(reduced.max_cost, full.max_cost, "max cost, {at}");
    assert_eq!(named(&reduced.worst_time), named(&full.worst_time), "{at}");
    assert_eq!(named(&reduced.worst_cost), named(&full.worst_cost), "{at}");
    assert_eq!(
        named(&reduced.worst_ratio),
        named(&full.worst_ratio),
        "{at}"
    );
    let counts = |s: &GroupStats| {
        [
            s.executed as u128,
            s.meetings as u128,
            s.failures as u128,
            s.time_violations as u128,
            s.cost_violations as u128,
            s.total_time,
            s.total_cost,
            u128::from(s.crossings),
        ]
    };
    assert_eq!(counts(reduced).map(|c| c * n as u128), counts(full), "{at}");
}

/// Reduced and full sweeps agree on both engines, with a generous
/// horizon and the paper bounds (clean), with bounds tighter than the
/// algorithm (violations), and with a horizon too short to meet
/// (failures) — and the test checks those cases really occur.
#[test]
fn reduced_sweeps_equal_full_sweeps_on_both_engines() {
    let (mut failures, mut violations) = (0, 0);
    for n in [3, 5, 8, 12] {
        for alg in ring_algorithms(n) {
            let alg = alg.as_ref();
            let e = alg.exploration_bound();
            let paper = Bounds {
                time: alg.time_bound(),
                cost: alg.cost_bound(),
            };
            let tight = Bounds {
                time: e,
                cost: e / 2,
            };
            for (horizon, bounds) in [
                (8 * alg.time_bound(), paper),
                (8 * alg.time_bound(), tight),
                (n as u64, paper),
            ] {
                let (reduced, full) = (grid(alg, horizon, true), grid(alg, horizon, false));
                assert_eq!(reduced.start_pair_count(), n - 1);
                assert_eq!(reduced.size() * n, full.size());
                let stepped = AlgorithmExecutor::new(alg).with_bounds(Some(bounds));
                let batched = BatchExecutor::new(alg).with_bounds(Some(bounds));
                for (engine, executor) in [
                    ("stepped", &stepped as &dyn PieceExecutor),
                    ("batched", &batched),
                ] {
                    let at = format!(
                        "{} on the {n}-ring, horizon {horizon}, {bounds:?}, {engine}",
                        alg.name()
                    );
                    let full = sweep(&full, executor).solo();
                    assert_orbit_equal(&sweep(&reduced, executor).solo(), &full, n, &at);
                    failures += full.failures;
                    violations += full.time_violations + full.cost_violations;
                }
            }
        }
    }
    assert!(failures > 0 && violations > 0, "every case must occur");
}

/// An explorer whose walk depends on where it starts fails the
/// certificate, and the grid sweeps all n(n − 1) pairs: a DFS of the
/// map of a scrambled ring (ports flip at random nodes) and of a grid.
#[test]
fn uncertified_explorers_sweep_every_start_pair() {
    let space = LabelSpace::new(L).unwrap();
    let scrambled = GraphSpec::ScrambledRing(SeededSpec { n: 8, seed: 3 });
    let graphs: [PortLabeledGraph; 2] =
        [scrambled.build().unwrap(), generators::grid(3, 3).unwrap()];
    for g in graphs {
        let g = Arc::new(g);
        let n = g.node_count();
        let ex: Arc<dyn Explorer> = Arc::new(DfsMapExplorer::new(g.clone()));
        let alg = Cheap::new(g.clone(), ex, space);
        let labels: Vec<u64> = PAIRS.iter().flat_map(|&(a, b)| [a, b]).collect();
        assert!(!rotation_equivariant(&alg, &labels), "{n} nodes");
        let horizon = 4 * alg.time_bound();
        let (reduced, full) = (grid(&alg, horizon, true), grid(&alg, horizon, false));
        assert_eq!(reduced.start_pair_count(), n * (n - 1));
        assert_eq!(
            reduced.meta(),
            full.meta(),
            "the same grid, digest included"
        );
        let executor = BatchExecutor::new(&alg);
        assert_eq!(sweep(&reduced, &executor), sweep(&full, &executor));
    }
}
