//! Structural analysis: connectivity, distances, diameter, bipartiteness.
//!
//! These are simulator-side utilities (they use [`NodeId`]s freely); agents
//! in the model never get to call them.

use crate::{NodeId, PortLabeledGraph};
use std::collections::VecDeque;

/// Breadth-first distances from `source`; `None` for unreachable nodes.
///
/// # Panics
///
/// Panics if `source` is out of range.
///
/// # Examples
///
/// ```
/// use rendezvous_graph::{analysis, generators, NodeId};
///
/// let g = generators::path(4).unwrap();
/// let d = analysis::bfs_distances(&g, NodeId::new(0));
/// assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
/// ```
#[must_use]
pub fn bfs_distances(graph: &PortLabeledGraph, source: NodeId) -> Vec<Option<usize>> {
    assert!(graph.contains(source), "source out of range");
    let mut dist = vec![None; graph.node_count()];
    dist[source.index()] = Some(0);
    let mut queue = VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()].expect("enqueued nodes have distances");
        for u in graph.neighbors(v) {
            if dist[u.index()].is_none() {
                dist[u.index()] = Some(dv + 1);
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Hop distance between two nodes, if connected.
///
/// # Panics
///
/// Panics if either node is out of range.
#[must_use]
pub fn distance(graph: &PortLabeledGraph, a: NodeId, b: NodeId) -> Option<usize> {
    assert!(graph.contains(b), "target out of range");
    bfs_distances(graph, a)[b.index()]
}

/// Returns `true` if the graph is connected. Single-node graphs are
/// connected.
#[must_use]
pub fn is_connected(graph: &PortLabeledGraph) -> bool {
    bfs_distances(graph, NodeId::new(0))
        .iter()
        .all(Option::is_some)
}

/// Eccentricity of `v` (greatest distance to any node), or `None` if the
/// graph is disconnected.
#[must_use]
pub fn eccentricity(graph: &PortLabeledGraph, v: NodeId) -> Option<usize> {
    bfs_distances(graph, v)
        .into_iter()
        .try_fold(0usize, |acc, d| d.map(|d| acc.max(d)))
}

/// Diameter of the graph, or `None` if disconnected.
///
/// Runs a BFS from every node (`O(n · e)`); fine at the laptop scales used
/// by the experiments.
#[must_use]
pub fn diameter(graph: &PortLabeledGraph) -> Option<usize> {
    graph
        .nodes()
        .map(|v| eccentricity(graph, v))
        .try_fold(0usize, |acc, e| e.map(|e| acc.max(e)))
}

/// Returns `true` if the graph is bipartite (2-colourable).
#[must_use]
pub fn is_bipartite(graph: &PortLabeledGraph) -> bool {
    let n = graph.node_count();
    let mut colour: Vec<Option<bool>> = vec![None; n];
    for start in graph.nodes() {
        if colour[start.index()].is_some() {
            continue;
        }
        colour[start.index()] = Some(false);
        let mut queue = VecDeque::from([start]);
        while let Some(v) = queue.pop_front() {
            let cv = colour[v.index()].expect("enqueued nodes are coloured");
            for u in graph.neighbors(v) {
                match colour[u.index()] {
                    None => {
                        colour[u.index()] = Some(!cv);
                        queue.push_back(u);
                    }
                    Some(cu) if cu == cv => return false,
                    Some(_) => {}
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn ring_diameter_is_half() {
        let g = generators::oriented_ring(10).unwrap();
        assert_eq!(diameter(&g), Some(5));
        let g = generators::oriented_ring(11).unwrap();
        assert_eq!(diameter(&g), Some(5));
    }

    #[test]
    fn star_diameter_is_two() {
        let g = generators::star(7).unwrap();
        assert_eq!(diameter(&g), Some(2));
        assert_eq!(eccentricity(&g, NodeId::new(0)), Some(1));
    }

    #[test]
    fn distances_on_torus() {
        let g = generators::torus(4, 4).unwrap();
        // opposite corner: 2 + 2 hops via wrap-around
        assert_eq!(distance(&g, NodeId::new(0), NodeId::new(10)), Some(4));
    }

    #[test]
    fn connectivity() {
        assert!(is_connected(&generators::path(1).unwrap()));
        assert!(is_connected(&generators::complete(4).unwrap()));
        // two isolated nodes
        let g = crate::GraphBuilder::new(2).build().unwrap();
        assert!(!is_connected(&g));
        assert_eq!(diameter(&g), None);
        assert_eq!(eccentricity(&g, NodeId::new(0)), None);
    }

    #[test]
    fn bipartiteness() {
        assert!(is_bipartite(&generators::oriented_ring(8).unwrap()));
        assert!(!is_bipartite(&generators::oriented_ring(9).unwrap()));
        assert!(is_bipartite(&generators::hypercube(3).unwrap()));
        assert!(is_bipartite(&generators::balanced_binary_tree(4).unwrap()));
        assert!(!is_bipartite(&generators::complete(3).unwrap()));
    }
}
