//! Experiment X10 — the topology sweep: the graph itself as an adversary
//! axis.
//!
//! X7 checks the paper's generality claim on 8 hand-picked family
//! instances. X10 turns the topology into a first-class sweep dimension:
//! for each graph *family* it enumerates ≥ 100 **seeded** instances
//! ([`GraphSpec`]s), builds each graph once, and sweeps a capped
//! adversarial scenario grid (labels × starts × delays) on every
//! instance, running both `Cheap` and `Fast` and checking each execution
//! against the paper bounds with that instance's own exploration bound
//! `E`. Per-family worst cases (time, cost, and time/bound ratio) come
//! back with replayable `(spec, scenario)` witnesses.
//!
//! Every sweep here goes through the session's recorded-sweep path like
//! the scenario sweeps — a [`TopoGrid`] is just another [`Workload`]:
//! `experiments x10 --fabric workers=N` leases its ranges to worker
//! processes and replays the merged [`SweepReport`]s, byte-identical to
//! a direct run (CI-checked), and the sweep service answers
//! single-topology queries through the same path. The engine is fixed
//! when an executor is built and the telemetry sink comes from the
//! [`Runner`] each piece is handed.

use crate::common::{family_spec_counts, markdown_table, standard_delays, standard_label_pairs};
use crate::engine::Engine;
use rendezvous_core::{Cheap, Fast, LabelSpace, RendezvousAlgorithm};
use rendezvous_explore::{spec_explorer, Explorer};
use rendezvous_graph::{
    ErdosRenyiSpec, GraphSpec, PortLabeledGraph, RegularSpec, RingSpec, SeededSpec, TorusSpec,
};
use rendezvous_runner::{
    Bounds, Grid, PieceExecutor, Runner, RunnerError, ScenarioOutcome, SweepReport, TopoEntry,
    TopoGrid, WorkPiece, Workload,
};
use rendezvous_store::StoreKey;
use serde::Serialize;
use std::sync::Arc;

/// Seeded instances per family; the ROADMAP's "hundreds of random graphs
/// per family" floor that the acceptance tests assert.
pub const SPECS_PER_FAMILY: usize = 100;

/// The standard X10 spec list: `SPECS_PER_FAMILY` seeded instances of
/// each of six families, sizes cycling with the seed so one family spans
/// several node counts. `quick` shrinks the graphs, never the instance
/// count — the topology budget is the point of the experiment.
#[must_use]
pub fn standard_topo_specs(quick: bool) -> Vec<GraphSpec> {
    let mut specs = Vec::with_capacity(6 * SPECS_PER_FAMILY);
    for i in 0..SPECS_PER_FAMILY {
        let seed = i as u64;
        // Cycle sizes so each family covers a small range of n.
        let n_small = if quick { 6 + i % 3 } else { 8 + i % 5 };
        let n_er = if quick { 6 + i % 2 } else { 8 + i % 3 };
        let n_reg = if quick {
            6 + 2 * (i % 2)
        } else {
            8 + 2 * (i % 3)
        };
        specs.push(GraphSpec::ScrambledRing(SeededSpec { n: n_small, seed }));
        specs.push(GraphSpec::Tree(SeededSpec { n: n_small, seed }));
        specs.push(GraphSpec::ErdosRenyi(ErdosRenyiSpec {
            n: n_er,
            edge_permille: 300 + 100 * (i as u32 % 3),
            seed,
        }));
        specs.push(GraphSpec::Regular(RegularSpec {
            n: n_reg,
            d: 3,
            seed,
        }));
        specs.push(GraphSpec::permuted(
            GraphSpec::Ring(RingSpec { n: n_small }),
            seed,
        ));
        let (w, h) = if quick { (3, 3) } else { (3, 3 + i % 2) };
        specs.push(GraphSpec::permuted(
            GraphSpec::Torus(TorusSpec { w, h }),
            seed,
        ));
    }
    specs
}

/// One explorer per spec of a topology grid, indexed by `spec_index`.
type Explorers = Arc<Vec<Arc<dyn Explorer>>>;

/// Which algorithm a topo sweep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Algo {
    Cheap,
    Fast,
}

/// Per-piece executor: build the algorithm on the piece's cached graph
/// (`Arc` shared by all of the spec's scenarios) and the pre-resolved
/// explorer (built once per spec by [`build_topo_grid`], shared by both
/// algorithm sweeps — a `DfsMapExplorer` precomputes a walk per node, so
/// rebuilding it per sweep would waste more than the graph cache saves),
/// then sweep through the shared engine with a per-entry schedule cache.
struct AlgoTopoExecutor {
    space: LabelSpace,
    which: Algo,
    engine: Engine,
    /// `spec_index → explorer`, parallel to the topo grid's entries.
    explorers: Explorers,
}

impl AlgoTopoExecutor {
    fn algorithm(&self, entry: &TopoEntry) -> Box<dyn RendezvousAlgorithm> {
        let explorer = Arc::clone(&self.explorers[entry.spec_index]);
        match self.which {
            Algo::Cheap => Box::new(Cheap::new(entry.graph.clone(), explorer, self.space)),
            Algo::Fast => Box::new(Fast::new(entry.graph.clone(), explorer, self.space)),
        }
    }

    /// Hands `f` the engine's executor for the piece's graph, judging
    /// against that algorithm's bounds. The batched executor folds at the
    /// piece's global offsets, so reports stay byte-identical on either
    /// engine.
    fn with_executor<R>(
        &self,
        runner: &Runner,
        piece: &WorkPiece<'_>,
        f: impl FnOnce(&dyn PieceExecutor) -> R,
    ) -> R {
        let entry = piece.entry.expect("topology pieces carry their entry");
        let alg = self.algorithm(entry);
        let bounds = Bounds {
            time: alg.time_bound(),
            cost: alg.cost_bound(),
        };
        let executor = self.engine.executor(alg.as_ref(), Some(bounds), runner);
        f(&*executor)
    }
}

impl PieceExecutor for AlgoTopoExecutor {
    fn run_piece(
        &self,
        runner: &Runner,
        piece: &WorkPiece<'_>,
    ) -> Result<(Vec<ScenarioOutcome>, Option<Bounds>), RunnerError> {
        self.with_executor(runner, piece, |e| e.run_piece(runner, piece))
    }

    fn fold_piece(
        &self,
        runner: &Runner,
        piece: &WorkPiece<'_>,
        report: &mut SweepReport,
    ) -> Result<(), RunnerError> {
        self.with_executor(runner, piece, |e| e.fold_piece(runner, piece, report))
    }
}

/// Builds the X10 [`TopoGrid`] plus one explorer per spec: the scenario
/// grid uses the spec's own exploration bound `E` for delays and a
/// horizon generous for both algorithms, capped at `cap` scenarios — the
/// fixed per-topology budget that keeps a 600-graph sweep tractable.
///
/// Explorers are built exactly **once** here and shared by both the
/// `Cheap` and `Fast` sweeps (indexed by `spec_index`), mirroring the
/// graph cache one level up.
///
/// # Panics
///
/// Panics if a spec in the standard list fails to build or its horizon
/// does not fit in a `u64` (a bug in the list, not a reportable
/// outcome).
#[must_use]
pub fn build_topo_grid(specs: Vec<GraphSpec>, l: u64, cap: usize) -> (TopoGrid, Explorers) {
    let graphs = specs
        .into_iter()
        .map(|spec| match spec.build() {
            Ok(graph) => (spec, Arc::new(graph)),
            Err(e) => panic!("standard topo specs must build: building {spec:?}: {e}"),
        })
        .collect();
    topo_grid_of(graphs, l, cap).unwrap_or_else(|e| panic!("{e}"))
}

/// [`build_topo_grid`] over graphs already built from their specs, or
/// why a spec's horizon, four times the larger paper time bound, does
/// not fit in a `u64`.
fn topo_grid_of(
    graphs: Vec<(GraphSpec, Arc<PortLabeledGraph>)>,
    l: u64,
    cap: usize,
) -> Result<(TopoGrid, Explorers), String> {
    let space = LabelSpace::new(l).expect("l >= 2");
    let pairs = standard_label_pairs(l);
    let mut explorers: Vec<Arc<dyn Explorer>> = Vec::new();
    let mut overflow = None;
    let topo = TopoGrid::from_graphs(graphs, |spec, graph| {
        let explorer = spec_explorer(spec, graph.clone()).expect("sound recipe");
        let e = explorer.bound() as u64;
        let cheap = Cheap::new(graph.clone(), explorer.clone(), space);
        let fast = Fast::new(graph.clone(), explorer.clone(), space);
        explorers.push(explorer);
        // The bounds saturate, so a wrapped horizon cannot pass here.
        let horizon = cheap.time_bound().max(fast.time_bound()).checked_mul(4);
        if horizon.is_none() && overflow.is_none() {
            overflow = Some(format!(
                "the horizon of {spec:?} at l = {l} does not fit in 64 bits"
            ));
        }
        Grid::new(horizon.unwrap_or(0))
            .label_pairs_both_orders(&pairs)
            .delays(&standard_delays(e))
            .all_start_pairs(graph)
            .sample_cap(cap)
    });
    match overflow {
        Some(reason) => Err(reason),
        None => Ok((topo, Arc::new(explorers))),
    }
}

/// The context string naming a sweep-service computation of one
/// algorithm (`None` for anything but `cheap`/`fast`). The context is
/// part of the store key, so `experiments serve` and `experiments
/// query --direct` must agree on it to address the same cache entries.
#[must_use]
pub fn serve_context(algorithm: &str) -> Option<&'static str> {
    serve_algorithm(algorithm).map(|(_, context)| context)
}

/// The algorithm a sweep-service query names, with its
/// [`serve_context`] — the one home of that mapping.
fn serve_algorithm(algorithm: &str) -> Option<(Algo, &'static str)> {
    match algorithm {
        "cheap" => Some((Algo::Cheap, "serve cheap")),
        "fast" => Some((Algo::Fast, "serve fast")),
        _ => None,
    }
}

/// Answers one sweep-service query — one algorithm over one seeded
/// topology — building its graph, explorer and grid once and sweeping
/// them through the installed session, which serves from and records
/// into its store. Returns the report, whether the store served it, and
/// the store key addressing it.
///
/// # Errors
///
/// A message saying why the query is malformed: an unknown algorithm
/// (anything but `cheap`/`fast`), a degenerate grid (`l < 2`,
/// `cap == 0`), a spec that does not build, one that builds a graph of
/// fewer than two nodes (whose grid would be empty), or a horizon that
/// does not fit in a `u64`.
pub(crate) fn answer_spec_query(
    algorithm: &str,
    spec: GraphSpec,
    l: u64,
    cap: usize,
    runner: &Runner,
) -> Result<(SweepReport, bool, StoreKey), String> {
    let Some((which, context)) = serve_algorithm(algorithm) else {
        return Err(format!(
            "unknown algorithm `{algorithm}` (expected cheap or fast)"
        ));
    };
    if l < 2 {
        return Err(format!("l must be >= 2, got {l}"));
    }
    if cap == 0 {
        return Err("cap must be >= 1".into());
    }
    let graph = Arc::new(
        spec.build()
            .map_err(|e| format!("spec does not build: {e}"))?,
    );
    if graph.node_count() < 2 {
        return Err(format!(
            "spec builds a graph of {} node(s); two agents need two start nodes",
            graph.node_count()
        ));
    }
    let (topo, explorers) = topo_grid_of(vec![(spec, graph)], l, cap)?;
    let session = crate::session::current();
    let exec = AlgoTopoExecutor {
        space: LabelSpace::new(l).expect("l >= 2"),
        which,
        engine: session.engine,
        explorers,
    };
    let meta = topo.meta();
    let (report, cached) = session.sweep(context, None, &meta, &topo, &exec, runner);
    Ok((report, cached, session.key(context, &meta)))
}

/// Sweeps a **single** seeded topology with one algorithm through the
/// shared recorded-sweep path — the in-process form of a sweep-service
/// answer. The service and `query --direct` both reach
/// `answer_spec_query` through the service's `answer`, with the
/// same [`serve_context`], so all three consult (and populate) the same
/// store entry and produce byte-identical reports. `None` when
/// `algorithm` is not `cheap`/`fast`.
///
/// # Panics
///
/// Panics if the spec does not build or the grid is degenerate (`l <
/// 2`, `cap == 0`) — callers pass trusted parameters; untrusted queries
/// go through the service, which refuses them instead.
#[must_use]
pub fn sweep_single_spec(
    algorithm: &str,
    spec: GraphSpec,
    l: u64,
    cap: usize,
    runner: &Runner,
) -> Option<SweepReport> {
    serve_context(algorithm)?;
    let (report, _, _) =
        answer_spec_query(algorithm, spec, l, cap, runner).unwrap_or_else(|e| panic!("{e}"));
    Some(report)
}

/// Sweeps one algorithm over the topo grid through the shared
/// [`common::sweep_recorded`](crate::common::sweep_recorded)
/// store/fabric path, asserting the paper's bounds held everywhere.
///
/// # Panics
///
/// Panics if any execution fails, if any scenario misses its paper
/// bounds ([`SweepReport::clean`]), or — in a fabric replay — if the
/// merged report came from a different sweep.
fn sweep_topo_worst(
    context: &str,
    topo: &TopoGrid,
    exec: &AlgoTopoExecutor,
    runner: &Runner,
) -> SweepReport {
    let report = crate::common::sweep_recorded(context, topo, exec, runner);
    assert!(
        report.clean(),
        "paper bounds broken on a sampled topology: {} failures, {} violations",
        report.failures(),
        report.violations()
    );
    report
}

/// One row of the X10 table: one family, both algorithms.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Family name.
    pub family: String,
    /// Seeded instances swept in this family.
    pub specs: usize,
    /// Scenarios executed per algorithm in this family.
    pub scenarios: usize,
    /// Worst `Cheap` time anywhere in the family.
    pub cheap_time: u64,
    /// The time bound of the worst-ratio witness, rendered as
    /// `time/bound` (bounds vary per spec, so a single number would lie).
    pub cheap_ratio: String,
    /// Worst `Cheap` cost.
    pub cheap_cost: u64,
    /// Worst `Fast` time.
    pub fast_time: u64,
    /// Worst-ratio witness of `Fast`, as `time/bound`.
    pub fast_ratio: String,
    /// Worst `Fast` cost.
    pub fast_cost: u64,
}

fn ratio_cell(report: &SweepReport, family: &str) -> String {
    match report.group(family).and_then(|f| f.worst_ratio.as_ref()) {
        Some(w) => w.ratio_label(),
        None => "-".into(),
    }
}

/// The result of one X10 run: the per-family table plus the two raw
/// aggregates (kept for tests and for plotting pipelines).
#[derive(Debug, Clone)]
pub struct Report {
    /// One row per family, sorted by family name.
    pub rows: Vec<Row>,
    /// Full `Cheap` aggregates, grouped by family.
    pub cheap: SweepReport,
    /// Full `Fast` aggregates, grouped by family.
    pub fast: SweepReport,
}

/// Runs X10: builds the topo grid over `specs`, sweeps `Cheap` and
/// `Fast`, and folds both into per-family rows.
///
/// # Panics
///
/// Panics if any sampled scenario breaks the paper bounds — that is the
/// claim under test.
#[must_use]
pub fn run(specs: Vec<GraphSpec>, l: u64, cap: usize, runner: &Runner) -> Report {
    let space = LabelSpace::new(l).expect("l >= 2");
    let engine = crate::engine::current();
    let (topo, explorers) = build_topo_grid(specs, l, cap);
    let cheap = sweep_topo_worst(
        "x10 cheap",
        &topo,
        &AlgoTopoExecutor {
            space,
            which: Algo::Cheap,
            engine,
            explorers: Arc::clone(&explorers),
        },
        runner,
    );
    let fast = sweep_topo_worst(
        "x10 fast",
        &topo,
        &AlgoTopoExecutor {
            space,
            which: Algo::Fast,
            engine,
            explorers,
        },
        runner,
    );
    let rows = family_spec_counts(&topo)
        .iter()
        .map(|(family, specs)| {
            let c = cheap.group(family);
            let f = fast.group(family);
            Row {
                family: family.clone(),
                specs: *specs,
                scenarios: c.map_or(0, |s| s.executed),
                cheap_time: c.map_or(0, |s| s.max_time),
                cheap_ratio: ratio_cell(&cheap, family),
                cheap_cost: c.map_or(0, |s| s.max_cost),
                fast_time: f.map_or(0, |s| s.max_time),
                fast_ratio: ratio_cell(&fast, family),
                fast_cost: f.map_or(0, |s| s.max_cost),
            }
        })
        .collect();
    Report { rows, cheap, fast }
}

/// Renders the table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let header = [
        "family",
        "specs",
        "scenarios",
        "cheap time",
        "worst t/bound",
        "cheap cost",
        "fast time",
        "worst t/bound",
        "fast cost",
    ];
    let body = rows
        .iter()
        .map(|r| {
            vec![
                r.family.clone(),
                r.specs.to_string(),
                r.scenarios.to_string(),
                r.cheap_time.to_string(),
                r.cheap_ratio.clone(),
                r.cheap_cost.to_string(),
                r.fast_time.to_string(),
                r.fast_ratio.clone(),
                r.fast_cost.to_string(),
            ]
        })
        .collect::<Vec<_>>();
    markdown_table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance sweep: ≥ 100 seeded graphs in every family under a
    /// fixed per-spec scenario cap, every sampled scenario within the
    /// paper's Cheap/Fast bounds computed from that instance's own `E`.
    /// (Kept affordable for debug-mode `cargo test` by a small cap — the
    /// release CI run uses the full quick budget.)
    #[test]
    fn x10_hundred_seeded_graphs_per_family_stay_within_bounds() {
        let specs = standard_topo_specs(true);
        let report = run(specs, 4, 3, &Runner::sequential());
        assert_eq!(report.rows.len(), 6, "six families");
        for row in &report.rows {
            assert!(
                row.specs >= SPECS_PER_FAMILY,
                "{}: only {} seeded instances",
                row.family,
                row.specs
            );
            assert!(row.scenarios >= row.specs, "{}: empty grids", row.family);
        }
        // `run` itself asserts clean(); double-check the aggregates here
        // so the guarantee is visible in the test, not just the harness.
        assert!(report.cheap.clean() && report.fast.clean());
        let families: Vec<&str> = report.rows.iter().map(|r| r.family.as_str()).collect();
        assert_eq!(
            families,
            [
                "erdos-renyi",
                "permuted-ring",
                "permuted-torus",
                "regular",
                "scrambled-ring",
                "tree"
            ]
        );
    }

    /// The spec list itself is stable and fully seeded: rebuilding it
    /// yields identical specs (the fabric CI check depends on every
    /// process enumerating the same topologies).
    #[test]
    fn standard_spec_list_is_deterministic() {
        for quick in [false, true] {
            let a = standard_topo_specs(quick);
            let b = standard_topo_specs(quick);
            assert_eq!(a, b);
            assert_eq!(a.len(), 6 * SPECS_PER_FAMILY);
        }
    }
}
