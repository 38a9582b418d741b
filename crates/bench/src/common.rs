//! Shared plumbing for the experiments: standard setups, adversarial
//! sweeps through the shared [`rendezvous_runner`] engine, and table
//! rendering.

use rendezvous_core::RendezvousAlgorithm;
use rendezvous_explore::{Explorer, OrientedRingExplorer};
use rendezvous_graph::{generators, PortLabeledGraph};
use rendezvous_runner::{
    AlgorithmExecutor, BatchExecutor, Bounded, Bounds, Grid, GroupStats, PieceExecutor, Runner,
    SweepReport, Workload, WorkloadMeta,
};
use rendezvous_telemetry::Scope;
use serde::Serialize;
use std::fmt::Write as _;
use std::sync::Arc;

/// An oriented ring plus its optimal explorer — the standard substrate of
/// the paper's analysis (`E = n − 1`).
#[must_use]
pub fn ring_setup(n: usize) -> (Arc<PortLabeledGraph>, Arc<dyn Explorer>) {
    let g = Arc::new(generators::oriented_ring(n).expect("n >= 3"));
    let ex: Arc<dyn Explorer> =
        Arc::new(OrientedRingExplorer::new(g.clone()).expect("oriented ring"));
    (g, ex)
}

/// Measured worst case of one algorithm over a set of label pairs, all
/// start-position pairs, and a set of wake-up delays for the second agent.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Measured {
    /// Worst observed time (rounds from the earlier agent's start).
    pub time: u64,
    /// Worst observed cost (total edge traversals).
    pub cost: u64,
}

/// The standard adversarial grid of one algorithm: every given label pair
/// in both role orders × all ordered start pairs × the given delays.
#[must_use]
pub fn adversarial_grid(
    algorithm: &dyn RendezvousAlgorithm,
    label_pairs: &[(u64, u64)],
    delays: &[u64],
    horizon: u64,
) -> Grid {
    Grid::new(horizon)
        .label_pairs_both_orders(label_pairs)
        .delays(delays)
        .all_start_pairs(algorithm.graph())
}

/// Sweeps any [`Workload`] through a [`PieceExecutor`] — the **single**
/// workload→report path of the experiments binary: the pair grids of
/// X1–X8 ([`sweep_worst`]), the gathering fleet grids of X9, and the
/// topology sweeps of X10/X11 all run through it. In order, it honors
/// the `--plan` dry run (describe, don't execute, via [`crate::plan`]),
/// the result store ([`crate::store`]), a fabric worker's lease-ranged
/// execution and a fabric driver's replay of merged reports (both in
/// [`crate::fabric`]), and otherwise sweeps the whole workload —
/// transparently to callers.
///
/// # Panics
///
/// Panics on any execution error, on an empty workload (`context` names
/// the sweep in the message) and — in a fabric replay — when the next
/// merged report disagrees with this run's workload (kind or size
/// fingerprint).
pub fn sweep_recorded<W, E>(
    context: &str,
    workload: &W,
    executor: &E,
    runner: &Runner,
) -> SweepReport
where
    W: Workload + ?Sized,
    E: PieceExecutor + ?Sized,
{
    sweep_recorded_cached(context, &workload.meta(), workload, executor, runner).0
}

/// [`sweep_recorded`] given the workload's `meta` (a caller that also
/// needs it computes it once), also saying whether the result store
/// served the report (`true`) instead of this call computing it — one
/// store lookup answers both.
pub(crate) fn sweep_recorded_cached<W, E>(
    context: &str,
    meta: &WorkloadMeta,
    workload: &W,
    executor: &E,
    runner: &Runner,
) -> (SweepReport, bool)
where
    W: Workload + ?Sized,
    E: PieceExecutor + ?Sized,
{
    // `--plan` dry run: describe the sweep, execute nothing. The empty
    // report is safe downstream for the same reason a fabric worker's
    // partial folds are — every experiment tolerates partial stats, and
    // emission is suppressed in plan mode.
    if crate::plan::active() {
        crate::plan::note(context, meta, workload.piece_count(0, workload.size()));
        return (SweepReport::default(), false);
    }
    // Result store: a cached full report stands in for the whole sweep
    // — zero scenarios execute, no sweep is counted, and the fabric
    // (worker or replay) is simply never consulted. Every process of a
    // run derives the same key from the same store, so driver and
    // workers all skip the same sweeps and their cursors stay aligned.
    if let Some(report) = crate::store::lookup(context, meta) {
        return (report, true);
    }
    (
        sweep_uncached(context, *meta, workload, executor, runner),
        false,
    )
}

/// The execution half of [`sweep_recorded`], after a store miss.
fn sweep_uncached<W, E>(
    context: &str,
    meta: WorkloadMeta,
    workload: &W,
    executor: &E,
    runner: &Runner,
) -> SweepReport
where
    W: Workload + ?Sized,
    E: PieceExecutor + ?Sized,
{
    // Sweeps *executed* here; a replayed report stands in for
    // execution, so it deliberately counts nothing.
    let count_sweep = || {
        if let Some(metrics) = crate::telemetry::current() {
            metrics.counter(Scope::Process, "sweeps").inc();
        }
    };
    // Fabric worker: pull lease ranges from the coordinator instead of
    // sweeping `[0, size())`. The returned report is this worker's own
    // partial merge (possibly empty on a checkpoint resume), so the
    // whole-sweep non-emptiness check does not apply — and, being
    // partial, it must never reach the store.
    if let Some(report) = crate::fabric::sweep_via_fabric(context, workload, executor, runner) {
        count_sweep();
        return report;
    }
    let report = crate::fabric::replayed(&meta).unwrap_or_else(|| {
        count_sweep();
        runner
            .sweep(workload, executor)
            .unwrap_or_else(|e| panic!("adversarial sweep failed for {context}: {e}"))
    });
    assert!(
        report.executed() > 0,
        "empty adversarial sweep for {context} — misconfigured workload \
         (no label pairs, no delays, or a graph without distinct start pairs)"
    );
    // The two full-report paths (direct execution and the fabric
    // driver's replay of its workers' merged reports) populate the
    // cache for the next run.
    crate::store::record(context, &meta, &report);
    report
}

/// Sweeps the standard adversarial grid through the shared [`Runner`] and
/// returns the full aggregate statistics, checked against the algorithm's
/// paper bounds. Plan, store and fabric sessions are honored via
/// [`sweep_recorded`].
///
/// # Panics
///
/// Panics if any execution fails to meet within `horizon` — the paper's
/// algorithms always meet within their bounds, so this is a correctness
/// alarm, not a reportable outcome.
#[must_use]
pub fn sweep_worst(
    algorithm: &dyn RendezvousAlgorithm,
    label_pairs: &[(u64, u64)],
    delays: &[u64],
    horizon: u64,
    runner: &Runner,
) -> GroupStats {
    let grid = adversarial_grid(algorithm, label_pairs, delays, horizon);
    let bounds = Some(Bounds {
        time: algorithm.time_bound(),
        cost: algorithm.cost_bound(),
    });
    // Both engines fold byte-identical reports (CI diffs them on every
    // push); the batched default collapses the delay axis per start pair.
    // An installed telemetry session observes either engine's executor —
    // plan-cache hit rates and batch classification — without entering
    // the fold (CI also diffs telemetry-on against telemetry-off).
    let session = crate::telemetry::current();
    let report = match crate::engine::current() {
        crate::engine::Engine::Stepped => {
            let mut executor = AlgorithmExecutor::new(algorithm);
            if let Some(metrics) = &session {
                executor = executor.with_metrics(metrics);
            }
            sweep_recorded(
                algorithm.name(),
                &grid,
                &Bounded::new(&executor, bounds),
                runner,
            )
        }
        crate::engine::Engine::Batched => {
            let mut executor = BatchExecutor::new(algorithm).with_bounds(bounds);
            if let Some(metrics) = &session {
                executor = executor.with_metrics(metrics);
            }
            sweep_recorded(algorithm.name(), &grid, &executor, runner)
        }
    };
    check_failures(algorithm, report.solo())
}

/// Asserts the paper's always-meets guarantee over (possibly partial)
/// sweep stats and passes them through.
fn check_failures(algorithm: &dyn RendezvousAlgorithm, stats: GroupStats) -> GroupStats {
    assert_eq!(
        stats.failures,
        0,
        "algorithm {} failed to meet in {} of {} configurations",
        algorithm.name(),
        stats.failures,
        stats.executed
    );
    stats
}

/// [`sweep_worst`] reduced to the worst time and cost observed anywhere —
/// the measurement every experiment table reports.
#[must_use]
pub fn measure_worst(
    algorithm: &dyn RendezvousAlgorithm,
    label_pairs: &[(u64, u64)],
    delays: &[u64],
    horizon: u64,
    runner: &Runner,
) -> Measured {
    let stats = sweep_worst(algorithm, label_pairs, delays, horizon, runner);
    Measured {
        time: stats.max_time,
        cost: stats.max_cost,
    }
}

/// The standard adversarial label-pair sample for a space of size `l`:
/// the extremes and a middle pair (for `Cheap` the worst pair has the
/// largest *smaller* label; for `Fast` the longest shared prefix).
///
/// # Panics
///
/// Panics on `l < 2`: a rendezvous label space needs two distinct labels,
/// and `l - 1` would otherwise wrap in release builds, producing label 0
/// deep inside a sweep where `Label::new` rejects it with a far less
/// useful message.
#[must_use]
pub fn standard_label_pairs(l: u64) -> Vec<(u64, u64)> {
    assert!(
        l >= 2,
        "label space of size {l} cannot hold two distinct labels (need l >= 2)"
    );
    let mut pairs = vec![(1, 2), (l - 1, l), (1, l)];
    if l >= 6 {
        pairs.push((l / 2, l / 2 + 1));
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// All `C(L, 2)` label pairs (exhaustive; use only for small `L`).
#[must_use]
pub fn all_label_pairs(l: u64) -> Vec<(u64, u64)> {
    (1..=l)
        .flat_map(|a| ((a + 1)..=l).map(move |b| (a, b)))
        .collect()
}

/// The delay sample `{0, 1, E, E+1, 2E}`: beyond `E` the earlier agent's
/// first exploration finds the sleeping partner, so larger delays add
/// nothing (cf. the `τ > E` case in Propositions 2.1/2.2).
#[must_use]
pub fn standard_delays(e: u64) -> Vec<u64> {
    let mut d = vec![0, 1, e, e + 1, 2 * e];
    // `dedup` only removes *adjacent* duplicates, and for e <= 1 the list
    // is not sorted (e.g. e = 0 gives [0, 1, 0, 1, 0]) — without sorting
    // first, duplicate delays survive and silently inflate every sweep.
    d.sort_unstable();
    d.dedup();
    d
}

/// Renders rows of `(name, values…)` as a GitHub-flavoured markdown table.
#[must_use]
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", header.join(" | "));
    let _ = writeln!(
        out,
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendezvous_core::{Cheap, LabelSpace};

    #[test]
    fn label_pair_samples() {
        assert_eq!(standard_label_pairs(2), vec![(1, 2)]);
        let p = standard_label_pairs(8);
        assert!(p.contains(&(7, 8)) && p.contains(&(1, 8)) && p.contains(&(4, 5)));
        assert_eq!(all_label_pairs(4).len(), 6);
    }

    /// Regression: `l - 1` used to wrap for `l < 2` in release builds,
    /// producing label 0 and a cryptic `Label::new` rejection deep inside
    /// the sweep; now the boundary rejects it with a clear message.
    #[test]
    #[should_panic(expected = "cannot hold two distinct labels")]
    fn label_pairs_reject_spaces_too_small_for_rendezvous() {
        let _ = standard_label_pairs(1);
    }

    #[test]
    #[should_panic(expected = "cannot hold two distinct labels")]
    fn label_pairs_reject_the_empty_space() {
        let _ = standard_label_pairs(0);
    }

    /// Regression: `standard_delays` called `dedup()` on an unsorted list
    /// for `e <= 1`, leaving duplicate delays that silently inflated every
    /// sweep (`e = 0` yielded `[0, 1, 0, 1, 0]`).
    #[test]
    fn standard_delays_are_strictly_increasing_and_duplicate_free() {
        assert_eq!(standard_delays(0), vec![0, 1]);
        assert_eq!(standard_delays(1), vec![0, 1, 2]);
        assert_eq!(standard_delays(2), vec![0, 1, 2, 3, 4]);
        assert_eq!(standard_delays(5), vec![0, 1, 5, 6, 10]);
        for e in 0..40 {
            let d = standard_delays(e);
            assert!(
                d.windows(2).all(|w| w[0] < w[1]),
                "delays for e = {e} are not strictly increasing: {d:?}"
            );
            assert!(d.contains(&0) && d.contains(&(2 * e).max(1)));
        }
    }

    #[test]
    fn measure_worst_respects_bounds_on_cheap() {
        let (g, ex) = ring_setup(6);
        let alg = Cheap::new(g, ex, LabelSpace::new(4).unwrap());
        let runner = Runner::with_threads(2);
        let m = measure_worst(
            &alg,
            &all_label_pairs(4),
            &standard_delays(5),
            4 * alg.time_bound(),
            &runner,
        );
        assert!(m.time <= alg.time_bound());
        assert!(m.cost <= alg.cost_bound());
        assert!(m.time >= alg.exploration_bound());
    }

    #[test]
    fn sweep_worst_reports_clean_stats_within_bounds() {
        let (g, ex) = ring_setup(6);
        let alg = Cheap::new(g, ex, LabelSpace::new(4).unwrap());
        let stats = sweep_worst(
            &alg,
            &all_label_pairs(4),
            &standard_delays(5),
            4 * alg.time_bound(),
            &Runner::sequential(),
        );
        assert!(stats.clean(), "Cheap must stay within its paper bounds");
        assert_eq!(
            stats.executed,
            all_label_pairs(4).len() * 2 * 30 * standard_delays(5).len(),
            "both label orders x ordered start pairs x delays"
        );
        assert!(stats.mean_time() <= stats.max_time as f64);
        assert!(stats.worst_time.is_some() && stats.worst_cost.is_some());
    }

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert_eq!(t.lines().count(), 4);
        assert!(t.contains("| 1 | 2 |"));
    }
}
