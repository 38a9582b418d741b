//! Gathering sweeps inherit the Runner's two multi-process guarantees,
//! property-tested over random fleets (mirroring `tests/sharding.rs` for
//! the pair sweeps) — a fleet-mode [`Grid`] is the same [`Workload`] as
//! a pair grid, so the generic pipeline covers it unchanged:
//!
//! 1. **Order determinism** — a parallel gathering sweep folds to the
//!    same [`SweepReport`] as a sequential one (merge events,
//!    per-scenario ratio witnesses included);
//! 2. **Range-merge byte identity** — for m ∈ {2, 3, 7}, sweeping the
//!    ≤ m lease ranges independently, serde-round-tripping each partial
//!    and merging reproduces the whole sweep field for field *and byte
//!    for byte* as JSON.

use proptest::prelude::*;
use rendezvous_core::{Fast, LabelSpace, RendezvousAlgorithm};
use rendezvous_explore::OrientedRingExplorer;
use rendezvous_graph::generators;
use rendezvous_runner::{FleetRule, GatheringExecutor, Grid, Runner, SweepReport, Workload};
use std::sync::Arc;

/// A fleet grid on an `n`-ring under `Fast` with label space `l`: fleet
/// sizes {2, 3} (plus 5 when it fits), two rotations, two delay phases.
fn gathering_setup(n: usize, l: u64, phase: u64) -> (GatheringExecutor, Grid) {
    let g = Arc::new(generators::oriented_ring(n).unwrap());
    let ex = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
    let alg: Arc<dyn RendezvousAlgorithm> =
        Arc::new(Fast::new(g.clone(), ex, LabelSpace::new(l).unwrap()));
    let mut ks = vec![2usize, 3];
    if n >= 5 && l >= 5 {
        ks.push(5);
    }
    let rule = FleetRule::spread(&g, l);
    let k_max = *ks.iter().max().unwrap() as u64;
    let horizon = 4 * (k_max - 1) * (alg.time_bound() + rule.max_delay());
    let grid = Grid::new(horizon)
        .fleet_sizes(&ks)
        .fleet_rule(rule)
        .fleet_rotations(&[0, 1])
        .delays(&[0, phase]);
    (GatheringExecutor::new(alg), grid)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Parallel == sequential, and every sampled gathering stays within
    /// its own merge-and-restart bound.
    #[test]
    fn gathering_sweeps_are_order_deterministic(
        n in 6usize..12,
        l in 5u64..17,
        phase in 0u64..13,
        threads in 2usize..8,
    ) {
        let (executor, grid) = gathering_setup(n, l, phase);
        let sequential = Runner::sequential().sweep(&grid, &executor).unwrap();
        let parallel = Runner::with_threads(threads)
            .sweep(&grid, &executor)
            .unwrap();
        prop_assert_eq!(&parallel, &sequential);
        // The claim under test rides along: no failures, no violations
        // of the per-scenario (k−1)(T + max delay) bound, and the ratio
        // witness exists because every outcome carries its bound.
        let stats = sequential.solo();
        prop_assert_eq!(stats.failures, 0);
        prop_assert_eq!(stats.time_violations, 0);
        prop_assert!(stats.worst_ratio.is_some());
        prop_assert!(stats.merges >= stats.executed as u64);
    }

    /// For every m ∈ {2, 3, 7}: merging the ≤ m independently-swept,
    /// serde-round-tripped lease ranges equals the whole sweep —
    /// including its serialized JSON, byte for byte.
    #[test]
    fn gathering_range_merges_are_byte_identical(
        n in 6usize..11,
        l in 5u64..13,
        phase in 0u64..13,
    ) {
        let (executor, grid) = gathering_setup(n, l, phase);
        let reference = Runner::sequential().sweep(&grid, &executor).unwrap();
        let reference_json = serde_json::to_string(&reference).unwrap();
        for m in [2usize, 3, 7] {
            let mut merged = SweepReport::default();
            for (lo, hi) in grid.lease_ranges(grid.size().div_ceil(m).max(1)) {
                let report = Runner::sequential()
                    .sweep_range(&grid, lo, hi, &executor)
                    .unwrap();
                // Cross the "process boundary".
                let json = serde_json::to_string(&report).unwrap();
                let back: SweepReport = serde_json::from_str(&json).unwrap();
                merged = merged.merge(&back);
            }
            prop_assert_eq!(&merged, &reference, "m = {}", m);
            prop_assert_eq!(
                serde_json::to_string(&merged).unwrap(),
                reference_json.clone(),
                "merged JSON differs for m = {}",
                m
            );
        }
    }
}
