//! Experiment X9 (extension) — gathering `k ≥ 2` agents by
//! merge-and-restart on top of the paper's two-agent algorithms.
//!
//! The paper cites gathering as the natural generalization (§1.4); the
//! merge-and-restart argument (see `rendezvous-core::GatheringAgent`)
//! predicts completion within `(k−1)` pairwise-bound windows. Expected
//! shape: rounds grow at most linearly in `k`, never exceeding
//! `(k−1) · (two-agent time bound + max delay)`.
//!
//! Since the `Scenario` redesign, X9 runs **through the Runner's
//! generic workload path**: each fleet size is a [`Grid`] in fleet mode
//! (the standard [`FleetRule`] spread × a delay-phase axis), executed by
//! the [`GatheringExecutor`] and folded into a
//! [`SweepReport`](rendezvous_runner::SweepReport) — which means
//! gathering sweeps are cached, leased to fabric workers and replayed
//! exactly like the adversarial pair sweeps of X1–X8.

use crate::common::{ring_setup, sweep_recorded};
use rendezvous_core::{Fast, LabelSpace, RendezvousAlgorithm};
use rendezvous_runner::{FleetRule, GatheringExecutor, Grid, GroupStats, Runner};
use serde::Serialize;
use std::sync::Arc;

/// One row of the X9 table.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Ring size.
    pub n: usize,
    /// Fleet size.
    pub k: usize,
    /// Delay-phase scenarios swept for this fleet size.
    pub scenarios: usize,
    /// Worst rounds-to-gather anywhere in the sweep (`max_time`).
    pub rounds: u64,
    /// The loosest merge-and-restart bound `(k−1)·(time bound + max
    /// delay)` over the sweep's scenarios. Every run met its own
    /// (possibly tighter) bound, so `rounds ≤ bound` always holds.
    pub bound: u64,
    /// The worst `rounds / bound` ratio, rendered as `rounds/bound` (the
    /// bound varies per scenario with the delays, so a single number
    /// would lie) — same semantics as the X11 column.
    pub ratio: String,
    /// Worst total edge traversals anywhere in the sweep.
    pub cost: u64,
    /// Cluster-merge events observed across the sweep (0-based: a run
    /// with no cluster-count decrease contributes nothing).
    pub merges: u64,
}

/// The delay-phase axis of one X9 sweep: each phase shifts the whole
/// stagger pattern through the rule's modulus, so every agent's wake-up
/// moves — the fleet analogue of the pair sweeps' delay axis.
#[must_use]
pub fn standard_phases() -> Vec<u64> {
    vec![0, 3, 9]
}

/// Runs gatherings of increasing fleet size on an `n`-ring with label
/// space `L` (labels and starts spread deterministically by the standard
/// [`FleetRule`]; wake-ups staggered, swept over
/// [`standard_phases`]). One grid sweep per fleet size, through the
/// shared store/fabric path.
///
/// # Panics
///
/// Panics if a gathering fails to complete within the analytic bound —
/// a correctness violation of the merge-and-restart argument.
#[must_use]
pub fn run(n: usize, l: u64, ks: &[usize], runner: &Runner) -> Vec<Row> {
    let (g, ex) = ring_setup(n);
    let space = LabelSpace::new(l).expect("l >= 2");
    let alg: Arc<dyn RendezvousAlgorithm> = Arc::new(Fast::new(g.clone(), ex, space));
    let executor = GatheringExecutor::new(Arc::clone(&alg));
    let rule = FleetRule::spread(&g, l);
    ks.iter()
        .map(|&k| {
            assert!(k >= 2 && k <= n && (k as u64) <= l, "fleet must fit");
            // The loosest phase yields the largest stagger delay; a
            // horizon of 4× that bound is generous for every phase in
            // the axis.
            let worst_bound = (k as u64 - 1) * (alg.time_bound() + rule.max_delay());
            let grid = Grid::new(4 * worst_bound)
                .fleet_sizes(&[k])
                .fleet_rule(rule.clone())
                .delays(&standard_phases());
            // The loosest per-scenario bound actually in the sweep (the
            // phases never reach the stagger's full modulus, so this is
            // tighter than `worst_bound`); identical in direct, worker
            // and replay runs, since all rebuild the same grid.
            let loosest = grid
                .scenarios()
                .iter()
                .map(|s| executor.merge_restart_bound(s))
                .max()
                .expect("non-empty fleet grid");
            let stats = sweep_recorded(&format!("x9 k={k}"), &grid, &executor, runner).solo();
            row(n, k, loosest, &stats)
        })
        .collect()
}

/// Builds one table row from a fleet sweep's aggregates, asserting the
/// merge-and-restart guarantee held on every sampled scenario. The
/// stats may be a fabric worker's **partial** fold (possibly empty — a
/// worker may be leased no range of a 3-scenario grid), whose rows are
/// never emitted; the ratio cell is `-` when no outcome carried one.
fn row(n: usize, k: usize, loosest_bound: u64, stats: &GroupStats) -> Row {
    assert_eq!(
        stats.failures, 0,
        "gathering must complete (k = {k}): {} of {} timed out",
        stats.failures, stats.executed
    );
    assert_eq!(
        stats.time_violations, 0,
        "merge-and-restart bound broken for k = {k}"
    );
    let ratio = stats
        .worst_ratio
        .as_ref()
        .map_or_else(|| "-".into(), rendezvous_runner::Witness::ratio_label);
    Row {
        n,
        k,
        scenarios: stats.executed,
        rounds: stats.max_time,
        bound: loosest_bound,
        ratio,
        cost: stats.max_cost,
        merges: stats.merges,
    }
}

/// Renders the table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let header = [
        "n",
        "k",
        "scenarios",
        "worst rounds",
        "bound (k-1)(T+d)",
        "worst r/bound",
        "worst cost",
        "merge events",
    ];
    let body = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.k.to_string(),
                r.scenarios.to_string(),
                r.rounds.to_string(),
                r.bound.to_string(),
                r.ratio.clone(),
                r.cost.to_string(),
                r.merges.to_string(),
            ]
        })
        .collect::<Vec<_>>();
    crate::common::markdown_table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x9_gathering_scales_linearly_in_k() {
        let rows = run(12, 32, &[2, 3, 5], &Runner::sequential());
        for r in &rows {
            assert!(r.rounds <= r.bound, "k={}: {} > {}", r.k, r.rounds, r.bound);
            assert_eq!(r.scenarios, standard_phases().len());
            // Every completed run needs at least one merge event (it must
            // reach a single cluster); a round can merge several clusters
            // at once, so k−1 per run is not guaranteed.
            assert!(
                r.merges >= r.scenarios as u64,
                "k={}: {} merge events over {} gatherings",
                r.k,
                r.merges,
                r.scenarios
            );
        }
        // more agents may take longer but never superlinearly
        assert!(rows[2].rounds <= 4 * rows[0].bound);
    }

    /// Regression (satellite of the fleet redesign): the merge count is
    /// 0-based. A two-agent gathering whose pair meets exactly once must
    /// report exactly one merge event per swept scenario — the old
    /// `windows(2) + 1` count reported two, and reported one for runs
    /// with no cluster-count decrease at all.
    #[test]
    fn x9_merge_count_is_zero_based() {
        let rows = run(8, 8, &[2], &Runner::sequential());
        let r = &rows[0];
        assert_eq!(
            r.merges, r.scenarios as u64,
            "a pair gathers with exactly one merge event per scenario"
        );
    }

    /// Regression: a split run can hand `row()` a **partial** (even
    /// empty) fold — a fabric worker may execute no range of a
    /// 3-scenario per-k grid. The old code `expect`ed a ratio witness
    /// and crashed; partial rows (which are never emitted) must build
    /// cleanly instead.
    #[test]
    fn x9_rows_tolerate_empty_shard_partials() {
        let empty = GroupStats::default();
        let r = row(12, 4, 858, &empty);
        assert_eq!(r.ratio, "-");
        assert_eq!((r.scenarios, r.rounds, r.cost, r.merges), (0, 0, 0, 0));
    }

    /// A 3-way lease-range split of the same run, each range swept with
    /// `Runner::sweep_range`, merges back to the identical fold — the
    /// merge property fabric replays rest on.
    #[test]
    fn x9_range_merge_reproduces_the_direct_rows() {
        use rendezvous_runner::{SweepReport, Workload};
        let (n, l, ks) = (9, 16, [2usize, 3]);
        let (g, ex) = ring_setup(n);
        let space = LabelSpace::new(l).unwrap();
        let alg: Arc<dyn RendezvousAlgorithm> = Arc::new(Fast::new(g.clone(), ex, space));
        let executor = GatheringExecutor::new(Arc::clone(&alg));
        let rule = FleetRule::spread(&g, l);
        for &k in &ks {
            let worst_bound = (k as u64 - 1) * (alg.time_bound() + rule.max_delay());
            let grid = Grid::new(4 * worst_bound)
                .fleet_sizes(&[k])
                .fleet_rule(rule.clone())
                .delays(&standard_phases());
            let direct = Runner::sequential().sweep(&grid, &executor).unwrap();
            let mut merged = SweepReport::default();
            for (lo, hi) in grid.lease_ranges(grid.size().div_ceil(3)) {
                let range = Runner::sequential()
                    .sweep_range(&grid, lo, hi, &executor)
                    .unwrap();
                merged = merged.merge(&range);
            }
            assert_eq!(merged, direct, "k = {k}");
        }
    }
}
