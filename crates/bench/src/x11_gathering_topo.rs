//! Experiment X11 — gathering across the topology grid: the §1.4
//! generalization (`k ≥ 2` agents assembling at one node) swept over
//! **every seeded graph family**.
//!
//! X9 checks merge-and-restart gathering on the oriented ring; X10
//! sweeps the two-agent algorithms over hundreds of seeded topologies.
//! X11 composes the two, which the `Scenario` redesign makes a pure
//! configuration exercise: each [`GraphSpec`]'s entry in the
//! [`TopoGrid`] is a **fleet-mode** [`Grid`] (fleet sizes × start
//! rotations × delay phases, expanded by the standard [`FleetRule`]
//! spread), executed by the session engine's [`GatheringExecutor`] and
//! folded into a per-family [`SweepReport`] — worst rounds, worst
//! rounds/bound ratio (against each scenario's own merge-and-restart
//! bound `b = (k−1)·(time bound + max delay)`, compared by exact `u128`
//! cross-multiplication; cost is judged against `k·b`, as in X9) and
//! total merge events.
//!
//! The sweep splits across processes exactly like X10:
//! `experiments x11 --fabric workers=N` leases its ranges to worker
//! processes and replays the merged [`SweepReport`]s, byte-identical to
//! a direct run (CI-checked).

use crate::common::{family_spec_counts, markdown_table, sweep_recorded};
use crate::engine::Engine;
use rendezvous_core::{Fast, LabelSpace, RendezvousAlgorithm};
use rendezvous_explore::{spec_explorer, Explorer};
use rendezvous_graph::GraphSpec;
use rendezvous_runner::{
    Bounds, FleetRule, GatheringExecutor, Grid, PieceExecutor, Runner, RunnerError,
    ScenarioOutcome, SweepReport, TopoGrid, WorkPiece,
};
use serde::Serialize;
use std::sync::Arc;

/// Fleet sizes swept per topology; `quick` trims the axis, never the
/// spec count (the topology budget is the point, as in X10).
#[must_use]
pub fn standard_fleet_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![2, 3]
    } else {
        vec![2, 3, 4]
    }
}

/// Delay phases swept per topology (each shifts every agent's staggered
/// wake-up through the rule's modulus).
#[must_use]
pub fn standard_phases(quick: bool) -> Vec<u64> {
    if quick {
        vec![0, 5]
    } else {
        vec![0, 3, 9]
    }
}

/// Builds the X11 [`TopoGrid`] plus one explorer per spec (indexed by
/// `spec_index`, built once here like X10's): every entry is a
/// fleet-mode grid — the given fleet sizes (clipped to what the graph and
/// label space can hold) × two start rotations × the delay phases —
/// capped at `cap` scenarios, with a horizon generous for the loosest
/// merge-and-restart bound in the entry.
///
/// # Panics
///
/// Panics if a spec fails to build (a bug in the spec list), or if no
/// fleet size fits some graph.
#[must_use]
pub fn build_gathering_topo_grid(
    specs: Vec<GraphSpec>,
    l: u64,
    ks: &[usize],
    phases: &[u64],
    cap: usize,
) -> (TopoGrid, Vec<Arc<dyn Explorer>>) {
    let space = LabelSpace::new(l).expect("l >= 2");
    let mut explorers: Vec<Arc<dyn Explorer>> = Vec::new();
    let topo = TopoGrid::build(specs, |spec, graph| {
        let explorer = spec_explorer(spec, graph.clone()).expect("sound recipe");
        let time_bound = Fast::new(graph.clone(), explorer.clone(), space).time_bound();
        explorers.push(explorer);
        let fit: Vec<usize> = ks
            .iter()
            .copied()
            .filter(|&k| k <= graph.node_count() && (k as u64) <= l)
            .collect();
        assert!(!fit.is_empty(), "no fleet size fits {spec:?}");
        let k_max = *fit.iter().max().expect("non-empty") as u64;
        let rule = FleetRule::spread(graph, l);
        let loosest_bound = (k_max - 1) * (time_bound + rule.max_delay());
        Grid::new(4 * loosest_bound)
            .fleet_sizes(&fit)
            .fleet_rule(rule)
            .fleet_rotations(&[0, 1])
            .delays(phases)
            .sample_cap(cap)
    })
    .unwrap_or_else(|e| panic!("standard topo specs must build: {e}"));
    (topo, explorers)
}

/// Per-entry gathering executor: builds `Fast` on the entry's cached
/// graph and pre-resolved explorer and runs the piece through the
/// engine's [`GatheringExecutor`], whose outcomes carry their own
/// merge-and-restart bounds.
struct GatheringTopoExecutor {
    engine: Engine,
    space: LabelSpace,
    /// `spec_index → explorer`, parallel to the grid's entries.
    explorers: Vec<Arc<dyn Explorer>>,
}

impl GatheringTopoExecutor {
    /// The gathering executor of `piece`'s entry.
    fn entry_executor(&self, piece: &WorkPiece<'_>) -> GatheringExecutor {
        let entry = piece.entry.expect("topology pieces carry their entry");
        let alg: Arc<dyn RendezvousAlgorithm> = Arc::new(Fast::new(
            entry.graph.clone(),
            Arc::clone(&self.explorers[entry.spec_index]),
            self.space,
        ));
        self.engine.gathering(alg)
    }
}

impl PieceExecutor for GatheringTopoExecutor {
    fn run_piece(
        &self,
        runner: &Runner,
        piece: &WorkPiece<'_>,
    ) -> Result<(Vec<ScenarioOutcome>, Option<Bounds>), RunnerError> {
        self.entry_executor(piece).run_piece(runner, piece)
    }
}

/// One row of the X11 table: one family, all sampled fleets.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Family name.
    pub family: String,
    /// Seeded instances swept in this family.
    pub specs: usize,
    /// Gathering scenarios executed in this family.
    pub scenarios: usize,
    /// Worst rounds-to-gather anywhere in the family.
    pub rounds: u64,
    /// The worst `rounds / merge-and-restart bound` ratio, rendered as
    /// `rounds/bound` (the bound varies per scenario with `k` and the
    /// delays, so a single number would lie).
    pub ratio: String,
    /// Worst total edge traversals.
    pub cost: u64,
    /// Cluster-merge events observed across the family.
    pub merges: u64,
}

/// The result of one X11 run: the per-family table plus the raw
/// aggregate (kept for tests and plotting pipelines).
#[derive(Debug, Clone)]
pub struct Report {
    /// One row per family, sorted by family name.
    pub rows: Vec<Row>,
    /// Full gathering aggregates, grouped by family.
    pub stats: SweepReport,
}

/// Runs X11: builds the gathering topo grid over `specs`, sweeps it
/// (honoring the session's mode and store), and folds per-family
/// rows.
///
/// # Panics
///
/// Panics if any sampled gathering fails to complete within its
/// merge-and-restart bound `(k−1)·(time bound + max delay)` — that is
/// the claim under test.
#[must_use]
pub fn run(
    specs: Vec<GraphSpec>,
    l: u64,
    ks: &[usize],
    phases: &[u64],
    cap: usize,
    runner: &Runner,
) -> Report {
    let space = LabelSpace::new(l).expect("l >= 2");
    let (topo, explorers) = build_gathering_topo_grid(specs, l, ks, phases, cap);
    let stats = sweep_recorded(
        "x11 gathering",
        &topo,
        &GatheringTopoExecutor {
            engine: crate::engine::current(),
            space,
            explorers,
        },
        runner,
    );
    assert!(
        stats.clean(),
        "merge-and-restart bound broken on a sampled topology: {} failures, {} violations",
        stats.failures(),
        stats.violations()
    );
    let rows = family_spec_counts(&topo)
        .iter()
        .map(|(family, specs)| {
            let f = stats.group(family);
            let ratio = f
                .and_then(|s| s.worst_ratio.as_ref())
                .map_or_else(|| "-".into(), rendezvous_runner::Witness::ratio_label);
            Row {
                family: family.clone(),
                specs: *specs,
                scenarios: f.map_or(0, |s| s.executed),
                rounds: f.map_or(0, |s| s.max_time),
                ratio,
                cost: f.map_or(0, |s| s.max_cost),
                merges: f.map_or(0, |s| s.merges),
            }
        })
        .collect();
    Report { rows, stats }
}

/// Renders the table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let header = [
        "family",
        "specs",
        "scenarios",
        "worst rounds",
        "worst r/bound",
        "worst cost",
        "merge events",
    ];
    let body = rows
        .iter()
        .map(|r| {
            vec![
                r.family.clone(),
                r.specs.to_string(),
                r.scenarios.to_string(),
                r.rounds.to_string(),
                r.ratio.clone(),
                r.cost.to_string(),
                r.merges.to_string(),
            ]
        })
        .collect::<Vec<_>>();
    markdown_table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::x10_topologies::standard_topo_specs;
    use rendezvous_runner::Workload;

    /// A debug-affordable slice of the acceptance sweep: every family
    /// present, every sampled gathering within its own
    /// merge-and-restart bound. (The release CI run uses the full quick
    /// budget and additionally diffs a 3-worker fabric run.)
    #[test]
    fn x11_gathering_stays_within_merge_and_restart_bounds_per_family() {
        // The standard list cycles the six families with period 6, so a
        // stride of 7 (coprime to 6) visits every family; 30 specs keep
        // the debug run affordable at 5 seeded instances per family.
        let specs: Vec<GraphSpec> = standard_topo_specs(true)
            .into_iter()
            .step_by(7)
            .take(30)
            .collect();
        let report = run(specs, 4, &[2, 3], &[0, 5], 2, &Runner::sequential());
        assert_eq!(report.rows.len(), 6, "six families");
        for row in &report.rows {
            assert!(row.scenarios > 0, "{}: empty grids", row.family);
            assert!(
                row.merges >= row.scenarios as u64,
                "{}: every gathering merges at least once",
                row.family
            );
        }
        // `run` itself asserts clean(); restate it visibly.
        assert!(report.stats.clean());
    }

    /// On the batched engine an x11 piece's fleets are replayed from
    /// compiled trajectories: every entry compiles plans, and every
    /// fleet gathers.
    #[test]
    fn batched_x11_pieces_replay_compiled_plans() {
        let specs: Vec<GraphSpec> = standard_topo_specs(false).into_iter().step_by(37).collect();
        let (topo, explorers) = build_gathering_topo_grid(
            specs,
            6,
            &standard_fleet_sizes(false),
            &standard_phases(false),
            8,
        );
        let exec = GatheringTopoExecutor {
            engine: Engine::Batched,
            space: LabelSpace::new(6).unwrap(),
            explorers,
        };
        for piece in topo.pieces(0, topo.size()) {
            let executor = exec.entry_executor(&piece);
            let outcomes = Runner::sequential()
                .outcomes(&executor, &piece.scenarios)
                .unwrap();
            assert!(outcomes.iter().all(|o| o.met()));
            assert!(executor.compiled_plans() > 0, "{:?}", piece.key);
        }
    }

    /// X11 split into lease ranges, each swept with `Runner::sweep_range`
    /// and merged, reproduces the direct sweep exactly — the merge
    /// property the fabric's lease folds depend on.
    #[test]
    fn x11_range_merge_equals_direct_topo_stats() {
        let specs: Vec<GraphSpec> = standard_topo_specs(true).into_iter().step_by(40).collect();
        let (topo, explorers) = build_gathering_topo_grid(specs, 4, &[2, 3], &[0, 5], 2);
        let exec = GatheringTopoExecutor {
            engine: Engine::Batched,
            space: LabelSpace::new(4).unwrap(),
            explorers,
        };
        let direct = Runner::sequential().sweep(&topo, &exec).unwrap();
        for m in [2usize, 3] {
            let mut merged = SweepReport::default();
            for (lo, hi) in topo.lease_ranges(topo.size().div_ceil(m)) {
                let range = Runner::sequential()
                    .sweep_range(&topo, lo, hi, &exec)
                    .unwrap();
                merged = merged.merge(&range);
            }
            assert_eq!(merged, direct, "m = {m}");
        }
    }
}
