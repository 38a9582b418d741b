//! Multi-process determinism, single-process-tested: merging the range
//! sweeps of a grid workload — split by `Workload::lease_ranges` and
//! swept by `Runner::sweep_range`, the path the fabric takes — must
//! reproduce the whole sequential sweep **field for field** (witness
//! indices included) for every split, and the report must survive a
//! serde round trip (the range→merge path crosses a process boundary as
//! JSON).

use proptest::prelude::*;
use rendezvous_core::{Cheap, Fast, LabelSpace, RendezvousAlgorithm};
use rendezvous_explore::OrientedRingExplorer;
use rendezvous_graph::generators;
use rendezvous_runner::{
    AlgorithmExecutor, BatchExecutor, Bounds, Grid, Runner, SweepReport, Workload,
};
use rendezvous_telemetry::Metrics;
use std::sync::Arc;

fn sweep_setup(n: usize, l: u64, fast: bool) -> (Box<dyn RendezvousAlgorithm>, Option<Bounds>) {
    let g = Arc::new(generators::oriented_ring(n).unwrap());
    let ex = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
    let space = LabelSpace::new(l).unwrap();
    let alg: Box<dyn RendezvousAlgorithm> = if fast {
        Box::new(Fast::new(g, ex, space))
    } else {
        Box::new(Cheap::new(g, ex, space))
    };
    let bounds = Some(Bounds {
        time: alg.time_bound(),
        cost: alg.cost_bound(),
    });
    (alg, bounds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For every m ∈ {2, 3, 7}: sweep each of the ≤ m lease ranges
    /// independently (each through its own executor, as separate
    /// processes would), serde-round-trip the per-range reports, merge
    /// them in order and in reverse — both must equal the whole
    /// sequential sweep exactly.
    #[test]
    fn merging_range_sweeps_equals_the_whole_sweep(
        n in 4usize..9,
        l in 2u64..7,
        delay in 0u64..9,
        cap in 0usize..60,
        fast in 0u8..2,
    ) {
        let (alg, bounds) = sweep_setup(n, l, fast == 1);
        let mut grid = Grid::new(4 * alg.time_bound() + 4 * delay)
            .label_pairs_both_orders(&[(1, l), (l / 2, l / 2 + 1)])
            .delays(&[0, delay])
            .all_start_pairs(alg.graph());
        // cap < 5 means "no sampling cap" (caps that tiny make the sweep
        // degenerate; 0 is not a legal cap at all).
        if cap >= 5 {
            grid = grid.sample_cap(cap);
        }

        let reference_executor = AlgorithmExecutor::new(alg.as_ref()).with_bounds(bounds);
        let reference = Runner::sequential()
            .sweep(&grid, &reference_executor)
            .expect("valid configurations");

        for m in [2usize, 3, 7] {
            let mut merged = SweepReport::default();
            let mut reversed = SweepReport::default();
            let chunk = grid.size().div_ceil(m).max(1);
            let range_reports: Vec<SweepReport> = grid
                .lease_ranges(chunk)
                .into_iter()
                .map(|(lo, hi)| {
                    // Fresh executor per range: each process compiles its
                    // own schedule cache; determinism must not depend on a
                    // shared one.
                    let executor = AlgorithmExecutor::new(alg.as_ref()).with_bounds(bounds);
                    let report = Runner::sequential()
                        .sweep_range(&grid, lo, hi, &executor)
                        .expect("valid configurations");
                    // Cross the "process boundary".
                    let json = serde_json::to_string(&report).expect("serializable");
                    serde_json::from_str(&json).expect("round trip")
                })
                .collect();
            for report in &range_reports {
                merged = merged.merge(report);
            }
            for report in range_reports.iter().rev() {
                reversed = reversed.merge(report);
            }
            prop_assert_eq!(&merged, &reference, "m = {}", m);
            prop_assert_eq!(&reversed, &reference, "m = {} (reverse merge)", m);
        }
    }
}

/// The executors' compile caches (label → schedule, (label, start) →
/// trajectory) change nothing observable: a sweep with one shared
/// executor equals a sweep where every scenario pays a fresh compile
/// (the pre-cache behavior), the stepped executor caches exactly the
/// distinct labels of the grid and compiles no trajectory, and the
/// batched executor compiles one per distinct (label, start) pair.
#[test]
fn schedule_memoization_is_invisible_to_results() {
    let (alg, bounds) = sweep_setup(7, 6, true);
    let grid = Grid::new(4 * alg.time_bound())
        .label_pairs_both_orders(&[(1, 6), (2, 3), (1, 3)])
        .delays(&[0, 2, 5])
        .all_start_pairs(alg.graph());

    let shared = AlgorithmExecutor::new(alg.as_ref()).with_bounds(bounds);
    let cached = Runner::sequential().sweep(&grid, &shared).unwrap();
    // Distinct labels of the grid: {1, 2, 3, 6}. The stepped executor
    // steps schedules and compiles no trajectory.
    assert_eq!(shared.compiled_labels(), 4);
    assert_eq!(shared.compiled_plans(), 0);
    // Every label visits every one of the 7 start nodes across the
    // ordered start pairs: the batched executor compiles each plan once.
    let metrics = Metrics::new();
    let batched = BatchExecutor::new(alg.as_ref())
        .with_bounds(bounds)
        .with_metrics(&metrics);
    assert_eq!(Runner::sequential().sweep(&grid, &batched).unwrap(), cached);
    assert_eq!(
        metrics.snapshot().process.get("plan_cache_misses"),
        Some(&(4 * 7))
    );

    let mut uncached = SweepReport::default();
    for (i, s) in grid.scenarios().iter().enumerate() {
        use rendezvous_runner::Executor;
        // A fresh executor per scenario recompiles every schedule.
        let outcome = AlgorithmExecutor::new(alg.as_ref()).run(s).unwrap();
        uncached.absorb("", i, None, &outcome, bounds);
    }
    assert_eq!(cached, uncached);
}

/// Invalid labels surface as errors through the cached path, same as they
/// did through the uncached one, and leave nothing in the cache: labels
/// 0 and L + 1 are refused by `schedule` and `plan` alike, with no label
/// row and no plan behind them.
#[test]
fn cached_executor_still_rejects_invalid_labels() {
    use rendezvous_graph::NodeId;
    let (alg, _) = sweep_setup(5, 4, false);
    let executor = AlgorithmExecutor::new(alg.as_ref());
    // Label 0 is refused as outside the space, as a fleet refuses it.
    let zero = executor.schedule(0).unwrap_err().to_string();
    assert!(
        zero.ends_with("label 0 outside the label space {1, …, 4}"),
        "{zero}"
    );
    for label in [0, 5] {
        assert!(executor.schedule(label).is_err(), "schedule({label})");
        assert!(
            executor.plan(label, NodeId::new(1)).is_err(),
            "plan({label})"
        );
    }
    assert_eq!(executor.compiled_labels(), 0);
    assert_eq!(executor.compiled_plans(), 0);
    assert!(executor.schedule(3).is_ok());
    assert!(
        executor.schedule(99).is_err(),
        "label outside the space must not cache"
    );
    assert_eq!(executor.compiled_labels(), 1);
    assert_eq!(executor.compiled_plans(), 0);
    // Each start of a compiled label fills one plan slot, once.
    for start in [2, 0, 2] {
        assert!(executor.plan(3, NodeId::new(start)).is_ok());
    }
    assert_eq!(executor.compiled_labels(), 1);
    assert_eq!(executor.compiled_plans(), 2);
}
