//! Shared plumbing for the experiments: standard setups, adversarial
//! sweeps through the shared [`rendezvous_runner`] engine (each one
//! dispatched by the process's [`Session`](crate::session::Session)),
//! and table rendering.

use rendezvous_core::{Label, Phase, RendezvousAlgorithm};
use rendezvous_explore::{Explorer, OrientedRingExplorer};
use rendezvous_graph::{generators, PortLabeledGraph};
use rendezvous_lower_bounds::{TrimSweep, TrimmedAlgorithm};
use rendezvous_runner::{
    Bounds, Fnv1a, Grid, GroupStats, PieceExecutor, Runner, SweepReport, Workload,
};
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

/// Sweeps any [`Workload`] through a [`PieceExecutor`] — the
/// workload→report path of the experiments binary: the gathering fleet
/// grids of X9 and the topology sweeps of X10/X11 run through it, and
/// the pair grids of X1–X8 ([`sweep_worst`]) through the same session
/// call with a store key of their own. The installed
/// [`Session`](crate::session::Session) decides, transparently to
/// callers, whether the sweep is served by the result store, described
/// (`--plan`), leased from a fabric coordinator, replayed from its
/// merged reports, or executed here.
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
    crate::session::current()
        .sweep(context, None, &workload.meta(), workload, executor, runner)
        .0
}

/// Sweeps the standard adversarial grid through the shared [`Runner`] and
/// returns the full aggregate statistics, checked against the algorithm's
/// paper bounds. The session's mode and store are honored as in
/// [`sweep_recorded`]; the store keys the sweep by its algorithm's name
/// plus a digest of its graph and label schedules.
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
    let executor = crate::engine::current().executor(algorithm, bounds, runner);
    let key_context = || pair_key_context(algorithm, label_pairs);
    let (report, _) = crate::session::current().sweep(
        algorithm.name(),
        Some(&key_context),
        &grid.meta(),
        &grid,
        &executor,
        runner,
    );
    check_failures(algorithm, report.solo())
}

/// Procedure `Trim` of `algorithm` (§3) as one recorded sweep on the
/// session's engine: its [`TrimSweep`] goes through the session like
/// every pair sweep — store, `--plan`, fabric lease or replay — keyed by
/// the context of a sweep of all its label pairs, then folds into the
/// trimmed algorithm.
///
/// Returns `None` when the session hands back less than the full report
/// (a `--plan` preview or a fabric worker's share): the fold needs every
/// pair group, and such a run prints no table.
///
/// # Panics
///
/// Panics if `algorithm` is not on an oriented ring or some execution
/// fails to meet within `horizon`.
pub(crate) fn sweep_trim(
    algorithm: &dyn RendezvousAlgorithm,
    horizon: u64,
    runner: &Runner,
) -> Option<TrimmedAlgorithm> {
    let context = format!("trim {}", algorithm.name());
    let sweep = TrimSweep::new(algorithm, horizon)
        .unwrap_or_else(|e| panic!("{context} cannot sweep: {e}"));
    let executor = crate::engine::current().executor(algorithm, None, runner);
    let key_context =
        || pair_key_context(algorithm, &all_label_pairs(algorithm.label_space().size()));
    let (report, _) = crate::session::current().sweep(
        &context,
        Some(&key_context),
        &sweep.meta(),
        &sweep,
        &executor,
        runner,
    );
    (report.executed() == sweep.size()).then(|| {
        TrimmedAlgorithm::from_report(algorithm, &sweep, &report, &executor, runner)
            .unwrap_or_else(|e| panic!("{context} failed: {e}"))
    })
}

/// The store-key context of a pair sweep: the algorithm's name plus a
/// digest of what runs that the grid's fingerprint does not see — the
/// graph's port table, each swept label's schedule (wait lengths,
/// explorer name and bound) and the paper bounds the fold checks. Two
/// sweeps with equal grids then get distinct entries when their graphs
/// or algorithm parameters differ (FastWithRelabeling weights of equal
/// `t`; Cheap on `oriented_ring(8)` and on `hypercube(3)`, both E = 7).
fn pair_key_context(algorithm: &dyn RendezvousAlgorithm, label_pairs: &[(u64, u64)]) -> String {
    let mut h = Fnv1a::new();
    let graph = algorithm.graph();
    for node in graph.nodes() {
        h.write_usize(graph.degree(node));
        for port in graph.ports(node) {
            let hop = graph.traverse(node, port).expect("a port of this node");
            h.write_usize(hop.target.index());
            h.write_usize(hop.entry_port.index());
        }
    }
    h.write_u64(algorithm.time_bound());
    h.write_u64(algorithm.cost_bound());
    let mut labels: Vec<u64> = label_pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
    labels.sort_unstable();
    labels.dedup();
    for value in labels {
        h.write_u64(value);
        // A label without a schedule fails the sweep itself.
        let Some(schedule) = Label::new(value).and_then(|label| algorithm.schedule(label).ok())
        else {
            continue;
        };
        for phase in schedule.phases() {
            match phase {
                Phase::Explore(explorer) => {
                    h.write_bytes(explorer.name().as_bytes());
                    h.write_usize(explorer.bound());
                }
                Phase::Wait(rounds) => {
                    h.write_bytes(b"wait");
                    h.write_u64(*rounds);
                }
            }
        }
    }
    format!("{} {:016x}", algorithm.name(), h.finish())
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
        let runner = Runner::sequential();
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
        assert!(stats.total_time <= stats.meetings as u128 * u128::from(stats.max_time));
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
