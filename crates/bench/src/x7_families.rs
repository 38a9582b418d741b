//! Experiment X7 — generality: the algorithms work on arbitrary connected
//! graphs with whatever exploration procedure (and bound `E`) is available
//! (§1.2's scenarios).
//!
//! One row per (graph family, explorer): run `Cheap` and `Fast`, check the
//! bounds hold with the family-specific `E`.

use crate::common::{measure_worst, standard_delays};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rendezvous_core::{Cheap, Fast, LabelSpace, RendezvousAlgorithm};
use rendezvous_explore::{
    DfsMapExplorer, EulerianExplorer, Explorer, HamiltonianExplorer, OrientedRingExplorer,
    TrialDfsExplorer, UxsExplorer,
};
use rendezvous_graph::{generators, HamiltonianCycle, PortLabeledGraph};
use rendezvous_runner::Runner;
use serde::Serialize;
use std::sync::Arc;

/// One row of the X7 table.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Family label.
    pub family: String,
    /// Explorer used.
    pub explorer: &'static str,
    /// Nodes.
    pub n: usize,
    /// Edges.
    pub e_edges: usize,
    /// Exploration bound `E`.
    pub e_bound: u64,
    /// Measured worst `Cheap` time / its bound.
    pub cheap_time: u64,
    /// `(2L+1)E`.
    pub cheap_time_bound: u64,
    /// Measured worst `Cheap` cost (bound `3E`).
    pub cheap_cost: u64,
    /// Measured worst `Fast` time / its bound.
    pub fast_time: u64,
    /// `(4⌊log(L−1)⌋+9)E`.
    pub fast_time_bound: u64,
    /// Measured worst `Fast` cost.
    pub fast_cost: u64,
}

fn families(seed: u64) -> Vec<(String, Arc<PortLabeledGraph>, Arc<dyn Explorer>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<(String, Arc<PortLabeledGraph>, Arc<dyn Explorer>)> = Vec::new();

    let ring = Arc::new(generators::oriented_ring(10).expect("ring"));
    out.push((
        "oriented ring(10)".into(),
        ring.clone(),
        Arc::new(OrientedRingExplorer::new(ring.clone()).expect("ring explorer")),
    ));

    let star = Arc::new(generators::star(7).expect("star"));
    out.push((
        "star(7 leaves)".into(),
        star.clone(),
        Arc::new(DfsMapExplorer::new(star.clone())),
    ));

    let tree = Arc::new(generators::random_tree(12, &mut rng).expect("tree"));
    out.push((
        "random tree(12)".into(),
        tree.clone(),
        Arc::new(DfsMapExplorer::new(tree.clone())),
    ));

    let grid = Arc::new(generators::grid(3, 4).expect("grid"));
    out.push((
        "grid(3x4)".into(),
        grid.clone(),
        Arc::new(DfsMapExplorer::new(grid.clone())),
    ));

    let cube = Arc::new(generators::hypercube(3).expect("hypercube"));
    let cycle = HamiltonianCycle::known_hypercube(&cube).expect("gray code");
    out.push((
        "hypercube(3)".into(),
        cube.clone(),
        Arc::new(HamiltonianExplorer::new(cube.clone(), cycle).expect("hamiltonian")),
    ));

    let torus = Arc::new(generators::torus(3, 3).expect("torus"));
    out.push((
        "torus(3x3)".into(),
        torus.clone(),
        Arc::new(EulerianExplorer::new(torus.clone()).expect("eulerian")),
    ));

    let er = Arc::new(generators::erdos_renyi_connected(9, 0.3, &mut rng).expect("er"));
    out.push((
        "erdos-renyi(9, 0.3)".into(),
        er.clone(),
        Arc::new(TrialDfsExplorer::new(er.clone()).expect("trial dfs")),
    ));

    let scrambled = Arc::new(generators::scrambled_ring(8, &mut rng).expect("scrambled"));
    out.push((
        "scrambled ring(8)".into(),
        scrambled.clone(),
        Arc::new(UxsExplorer::search(scrambled.clone(), 4_000, &mut rng).expect("uxs")),
    ));

    out
}

/// Runs `Cheap` and `Fast` with label space `L` over every family.
#[must_use]
pub fn run(l: u64, seed: u64, runner: &Runner) -> Vec<Row> {
    let space = LabelSpace::new(l).expect("l >= 2");
    let pairs = crate::common::standard_label_pairs(l);
    families(seed)
        .into_iter()
        .map(|(family, graph, explorer)| {
            let e = explorer.bound() as u64;
            let delays = standard_delays(e);
            let cheap = Cheap::new(graph.clone(), explorer.clone(), space);
            let mc = measure_worst(&cheap, &pairs, &delays, 4 * cheap.time_bound(), runner);
            let fast = Fast::new(graph.clone(), explorer.clone(), space);
            let mf = measure_worst(&fast, &pairs, &delays, 4 * fast.time_bound(), runner);
            Row {
                family,
                explorer: explorer.name(),
                n: graph.node_count(),
                e_edges: graph.edge_count(),
                e_bound: e,
                cheap_time: mc.time,
                cheap_time_bound: cheap.time_bound(),
                cheap_cost: mc.cost,
                fast_time: mf.time,
                fast_time_bound: fast.time_bound(),
                fast_cost: mf.cost,
            }
        })
        .collect()
}

/// Renders the table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let header = [
        "family",
        "explorer",
        "n",
        "edges",
        "E",
        "cheap time",
        "bound",
        "cheap cost",
        "fast time",
        "bound",
        "fast cost",
    ];
    let body = rows
        .iter()
        .map(|r| {
            vec![
                r.family.clone(),
                r.explorer.to_string(),
                r.n.to_string(),
                r.e_edges.to_string(),
                r.e_bound.to_string(),
                r.cheap_time.to_string(),
                r.cheap_time_bound.to_string(),
                r.cheap_cost.to_string(),
                r.fast_time.to_string(),
                r.fast_time_bound.to_string(),
                r.fast_cost.to_string(),
            ]
        })
        .collect::<Vec<_>>();
    crate::common::markdown_table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x7_all_families_meet_within_bounds() {
        let rows = run(6, 0xBEEF, &Runner::sequential());
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(
                r.cheap_time <= r.cheap_time_bound,
                "{}: cheap {} > {}",
                r.family,
                r.cheap_time,
                r.cheap_time_bound
            );
            assert!(r.cheap_cost <= 3 * r.e_bound, "{}: cheap cost", r.family);
            assert!(
                r.fast_time <= r.fast_time_bound,
                "{}: fast {} > {}",
                r.family,
                r.fast_time,
                r.fast_time_bound
            );
            assert!(r.fast_cost <= 2 * r.fast_time_bound);
        }
    }
}
