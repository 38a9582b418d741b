//! Depth-first exploration with a port-labelled map and a marked start.
//!
//! §1.2: "If each agent has a map of the graph with unlabeled nodes, labeled
//! ports, and the agent's starting position marked … Depth-First-Search can
//! be performed in time at most `2n − 3`."

use crate::{ExploreRun, Explorer, PlannedRun};
use rendezvous_graph::{NodeId, Port, PortLabeledGraph};
use std::sync::Arc;

/// Computes the DFS port walk from `start`: ports are tried in increasing
/// order, backtracking retraces the entry port, and the walk is truncated
/// right after the last new node is discovered (no pointless final
/// backtracking — this is what makes the star achieve `2n − 3`).
///
/// # Panics
///
/// Panics if `start` is out of range.
#[must_use]
pub fn dfs_walk(graph: &PortLabeledGraph, start: NodeId) -> Vec<Port> {
    assert!(graph.contains(start), "start out of range");
    let n = graph.node_count();
    let mut visited = vec![false; n];
    visited[start.index()] = true;
    let mut discovered = 1;
    let mut walk = Vec::new();
    let mut last_discovery = 0;
    // stack of (node, next port index to try, entry port used to reach it)
    let mut stack: Vec<(NodeId, usize, Option<Port>)> = vec![(start, 0, None)];
    while let Some(&mut (v, ref mut next, entry)) = stack.last_mut() {
        let deg = graph.degree(v);
        let mut advanced = false;
        while *next < deg {
            let p = Port::new(*next);
            *next += 1;
            let t = graph.traverse(v, p).expect("valid port");
            if !visited[t.target.index()] {
                visited[t.target.index()] = true;
                discovered += 1;
                walk.push(p);
                last_discovery = walk.len();
                stack.push((t.target, 0, Some(t.entry_port)));
                advanced = true;
                break;
            }
        }
        if discovered == n {
            break;
        }
        if !advanced {
            stack.pop();
            if let Some(p) = entry {
                walk.push(p); // backtrack
            }
        }
    }
    walk.truncate(last_discovery);
    walk
}

/// The DFS-with-map exploration procedure.
///
/// Precomputes the DFS walk for every possible start node; the bound `E` is
/// the exact worst walk length over all starts (always at most `2n − 2`,
/// and at most `2n − 3` when `n ≥ 2`, matching §1.2).
///
/// # Examples
///
/// ```
/// use rendezvous_explore::{DfsMapExplorer, Explorer, verify_explorer};
/// use rendezvous_graph::generators;
/// use std::sync::Arc;
///
/// let g = Arc::new(generators::star(5).unwrap()); // n = 6
/// let ex = DfsMapExplorer::new(g.clone());
/// assert!(ex.bound() <= 2 * 6 - 3);
/// assert!(verify_explorer(&g, &ex).is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct DfsMapExplorer {
    graph: Arc<PortLabeledGraph>,
    walks: Vec<Vec<Port>>,
    bound: usize,
}

impl DfsMapExplorer {
    /// Builds the explorer by precomputing all `n` DFS walks.
    #[must_use]
    pub fn new(graph: Arc<PortLabeledGraph>) -> Self {
        let walks: Vec<Vec<Port>> = graph.nodes().map(|s| dfs_walk(&graph, s)).collect();
        let bound = walks.iter().map(Vec::len).max().unwrap_or(0);
        DfsMapExplorer {
            graph,
            walks,
            bound,
        }
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Arc<PortLabeledGraph> {
        &self.graph
    }
}

impl Explorer for DfsMapExplorer {
    fn bound(&self) -> usize {
        self.bound
    }

    fn begin(&self, start: NodeId) -> Box<dyn ExploreRun> {
        Box::new(PlannedRun::new(self.walks[start.index()].clone()))
    }

    fn name(&self) -> &'static str {
        "dfs-map"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_explorer;
    use rendezvous_graph::generators;

    #[test]
    fn dfs_walk_on_path_from_end_is_straight() {
        let g = generators::path(5).unwrap();
        let w = dfs_walk(&g, NodeId::new(0));
        assert_eq!(w.len(), 4); // no backtracking needed
    }

    #[test]
    fn dfs_walk_on_star_from_center_is_2n_minus_3() {
        let g = generators::star(5).unwrap(); // n = 6
        let w = dfs_walk(&g, NodeId::new(0));
        assert_eq!(w.len(), 2 * 6 - 3);
    }

    #[test]
    fn dfs_bound_never_exceeds_2n_minus_2() {
        for g in [
            generators::oriented_ring(9).unwrap(),
            generators::complete(6).unwrap(),
            generators::balanced_binary_tree(3).unwrap(),
            generators::grid(4, 4).unwrap(),
            generators::hypercube(4).unwrap(),
        ] {
            let n = g.node_count();
            let ex = DfsMapExplorer::new(Arc::new(g));
            assert!(ex.bound() <= 2 * n - 2, "bound {} vs n {}", ex.bound(), n);
        }
    }

    #[test]
    fn dfs_explorer_contract_holds_on_families() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let graphs = vec![
            generators::oriented_ring(8).unwrap(),
            generators::star(7).unwrap(),
            generators::grid(3, 5).unwrap(),
            generators::random_tree(17, &mut rng).unwrap(),
            generators::erdos_renyi_connected(14, 0.25, &mut rng).unwrap(),
        ];
        for g in graphs {
            let g = Arc::new(g);
            let ex = DfsMapExplorer::new(g.clone());
            let worst = verify_explorer(&g, &ex).expect("coverage within bound");
            assert_eq!(worst, ex.bound(), "bound should be sharp");
        }
    }

    #[test]
    fn single_node_graph_has_zero_bound() {
        let g = generators::path(1).unwrap();
        let ex = DfsMapExplorer::new(Arc::new(g));
        assert_eq!(ex.bound(), 0);
    }
}
