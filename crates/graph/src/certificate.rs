//! Exploration certificates: Hamiltonian cycles and Euler circuits.
//!
//! §1.2 of the paper: "if the graph has a Hamiltonian cycle, then `E` can be
//! taken as `n − 1`. If the graph has an Eulerian cycle, then `E` can be
//! taken as `e − 1`." Generators that know such a structure hand it to the
//! exploration layer through these validated certificate types.

use crate::{GraphError, NodeId, Port, PortLabeledGraph};

/// A validated Hamiltonian cycle: a cyclic order of **all** nodes in which
/// consecutive nodes are adjacent.
///
/// Finding Hamiltonian cycles is NP-hard in general; this type is meant to
/// carry cycles that are known *by construction* (rings, complete graphs,
/// tori, hypercubes — see the `known_*` constructors) or supplied externally.
///
/// # Examples
///
/// ```
/// use rendezvous_graph::{generators, HamiltonianCycle};
///
/// let g = generators::oriented_ring(6).unwrap();
/// let c = HamiltonianCycle::known_ring(&g).unwrap();
/// assert_eq!(c.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HamiltonianCycle {
    order: Vec<NodeId>,
}

impl HamiltonianCycle {
    /// Validates `order` as a Hamiltonian cycle of `graph`.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] if the order does not visit every
    /// node exactly once or if two consecutive nodes (cyclically) are not
    /// adjacent.
    pub fn new(graph: &PortLabeledGraph, order: Vec<NodeId>) -> Result<Self, GraphError> {
        let n = graph.node_count();
        if order.len() != n || n < 3 {
            return Err(GraphError::InvalidParameter {
                reason: format!(
                    "hamiltonian cycle must list all {n} nodes exactly once, got {}",
                    order.len()
                ),
            });
        }
        let mut seen = vec![false; n];
        for &v in &order {
            if !graph.contains(v) || seen[v.index()] {
                return Err(GraphError::InvalidParameter {
                    reason: format!("node {v} repeated or out of range in hamiltonian cycle"),
                });
            }
            seen[v.index()] = true;
        }
        for i in 0..n {
            let u = order[i];
            let v = order[(i + 1) % n];
            if graph.port_to(u, v).is_none() {
                return Err(GraphError::InvalidParameter {
                    reason: format!("consecutive cycle nodes {u} and {v} are not adjacent"),
                });
            }
        }
        Ok(HamiltonianCycle { order })
    }

    /// The canonical cycle `0, 1, …, n-1` of a ring generated by
    /// [`generators::oriented_ring`](crate::generators::oriented_ring) or
    /// [`generators::scrambled_ring`](crate::generators::scrambled_ring).
    ///
    /// # Errors
    ///
    /// Propagates validation failure if `graph` is not a ring on
    /// consecutively-numbered nodes.
    pub fn known_ring(graph: &PortLabeledGraph) -> Result<Self, GraphError> {
        Self::new(graph, graph.nodes().collect())
    }

    /// The cycle `0, 1, …, n-1` of a complete graph from
    /// [`generators::complete`](crate::generators::complete).
    ///
    /// # Errors
    ///
    /// Propagates validation failure if the graph is not complete.
    pub fn known_complete(graph: &PortLabeledGraph) -> Result<Self, GraphError> {
        Self::new(graph, graph.nodes().collect())
    }

    /// The binary-reflected Gray code cycle of a hypercube from
    /// [`generators::hypercube`](crate::generators::hypercube).
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] if the graph is not a hypercube of
    /// dimension at least 2 (a 1-cube has only 2 nodes, no cycle).
    pub fn known_hypercube(graph: &PortLabeledGraph) -> Result<Self, GraphError> {
        let n = graph.node_count();
        if !n.is_power_of_two() || n < 4 {
            return Err(GraphError::InvalidParameter {
                reason: format!("hypercube cycle needs 2^d nodes with d >= 2, got {n}"),
            });
        }
        let order = (0..n).map(|i| NodeId::new(i ^ (i >> 1))).collect();
        Self::new(graph, order)
    }

    /// The boustrophedon (serpentine + wrap) cycle of a torus from
    /// [`generators::torus`](crate::generators::torus) with even height, or
    /// the row-major wrap cycle for any width. Works for all `w, h >= 3`.
    ///
    /// # Errors
    ///
    /// Propagates validation failure on dimension mismatch.
    pub fn known_torus(graph: &PortLabeledGraph, w: usize, h: usize) -> Result<Self, GraphError> {
        if w * h != graph.node_count() {
            return Err(GraphError::InvalidParameter {
                reason: format!(
                    "torus dimensions {w}x{h} do not match node count {}",
                    graph.node_count()
                ),
            });
        }
        // Snake through rows 0..h-1 alternating direction, then the last
        // column of... simpler: walk each row fully using the wrap edge to
        // descend: traverse row y left-to-right, then step south from the
        // last visited cell. Row-major with a southward step at each row end
        // visits all nodes; the final wrap from (w-1, h-1) back... that cell
        // is adjacent to (w-1, 0)? No: we need the cycle to close. Use the
        // serpentine: alternate row directions, step south at row ends, and
        // close the cycle with the north wrap edge from the last cell to the
        // first. The last cell is in column 0 (h even) or column w-1 (h odd);
        // only column 0 is adjacent to the start (0,0) via the vertical wrap.
        // For odd h we instead snake over columns 1..w in rows and use
        // column 0 as the return path.
        let id = |x: usize, y: usize| NodeId::new(y * w + x);
        let mut order = Vec::with_capacity(w * h);
        if h.is_multiple_of(2) {
            for y in 0..h {
                if y % 2 == 0 {
                    for x in 0..w {
                        order.push(id(x, y));
                    }
                } else {
                    for x in (0..w).rev() {
                        order.push(id(x, y));
                    }
                }
            }
        } else {
            // snake through columns 1..w (a (w-1) x h serpentine, which has
            // even... may not be). Descend column 0, then snake the rest.
            for y in 0..h {
                order.push(id(0, y));
            }
            // now at (0, h-1); move east and snake upwards through rows.
            for y in (0..h).rev() {
                if (h - 1 - y).is_multiple_of(2) {
                    for x in 1..w {
                        order.push(id(x, y));
                    }
                } else {
                    for x in (1..w).rev() {
                        order.push(id(x, y));
                    }
                }
            }
            // remove duplicates introduced? none: column 0 visited once,
            // remaining columns once per row.
            order.dedup();
        }
        Self::new(graph, order)
    }

    /// Number of nodes on the cycle (equals the node count of the graph).
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` if the cycle is empty (never true for validated cycles).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The nodes in cyclic order.
    #[must_use]
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }
}

/// A validated Euler circuit: a closed walk using every edge exactly once,
/// stored as the start node plus the sequence of exit ports.
///
/// Exists iff the graph is connected and every degree is even; found by
/// Hierholzer's algorithm in `O(e)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EulerCircuit {
    start: NodeId,
    exits: Vec<Port>,
}

impl EulerCircuit {
    /// Finds an Euler circuit starting at `start`, if one exists.
    ///
    /// # Errors
    ///
    /// * [`GraphError::InvalidParameter`] if some node has odd degree,
    /// * [`GraphError::NotConnected`] if the graph is disconnected,
    /// * [`GraphError::NodeOutOfRange`] if `start` is not a node.
    pub fn find(graph: &PortLabeledGraph, start: NodeId) -> Result<Self, GraphError> {
        if !graph.contains(start) {
            return Err(GraphError::NodeOutOfRange {
                node: start,
                node_count: graph.node_count(),
            });
        }
        if graph.nodes().any(|v| !graph.degree(v).is_multiple_of(2)) {
            return Err(GraphError::InvalidParameter {
                reason: "euler circuit requires all degrees even".into(),
            });
        }
        if !crate::analysis::is_connected(graph) {
            return Err(GraphError::NotConnected);
        }
        // Hierholzer with explicit stack over (node, entry description).
        let mut used: Vec<Vec<bool>> = graph
            .nodes()
            .map(|v| vec![false; graph.degree(v)])
            .collect();
        let mut next_port: Vec<usize> = vec![0; graph.node_count()];
        // stack of (node, port taken to leave it) — circuit built in reverse.
        let mut stack: Vec<(NodeId, Option<Port>)> = vec![(start, None)];
        let mut walk_rev: Vec<(NodeId, Port)> = Vec::with_capacity(graph.edge_count());
        while let Some(&(v, _)) = stack.last() {
            let vi = v.index();
            // advance to the next unused port at v
            while next_port[vi] < graph.degree(v) && used[vi][next_port[vi]] {
                next_port[vi] += 1;
            }
            if next_port[vi] == graph.degree(v) {
                // retreat: the edge we used to *enter* v becomes part of the circuit
                let (node, via) = stack.pop().expect("nonempty");
                if let Some(p) = via {
                    walk_rev.push((node, p));
                }
            } else {
                let p = Port::new(next_port[vi]);
                let t = graph.traverse(v, p).expect("valid port");
                used[vi][p.index()] = true;
                used[t.target.index()][t.entry_port.index()] = true;
                // record that we entered t.target by moving back through entry_port
                stack.push((t.target, Some(t.entry_port)));
            }
        }
        // walk_rev holds, from the last edge to the first, pairs
        // (node entered, entry port). Convert to exits from each node along
        // the forward circuit: the forward exit from node u is the reverse of
        // the entry recorded at the next stack frame. Easiest correct
        // reconstruction: walk_rev is the reversed sequence of (node, entry);
        // forward order of visited nodes is start, then reversed nodes.
        walk_rev.reverse();
        let mut exits = Vec::with_capacity(walk_rev.len());
        let mut at = start;
        for &(node, entry) in &walk_rev {
            // we moved from `at` to `node`, entering via `entry`; the exit
            // port at `at` is the reverse of that entry.
            let back = graph.traverse(node, entry).expect("valid entry");
            debug_assert_eq!(back.target, at);
            exits.push(back.entry_port);
            at = node;
        }
        debug_assert_eq!(at, start, "euler circuit must close");
        debug_assert_eq!(exits.len(), graph.edge_count());
        Ok(EulerCircuit { start, exits })
    }

    /// The node at which the circuit starts and ends.
    #[must_use]
    pub fn start(&self) -> NodeId {
        self.start
    }

    /// The exit ports along the circuit (one per edge).
    #[must_use]
    pub fn exits(&self) -> &[Port] {
        &self.exits
    }

    /// Number of edges on the circuit.
    #[must_use]
    pub fn len(&self) -> usize {
        self.exits.len()
    }

    /// Returns `true` if the circuit uses no edges (single-node graph).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.exits.is_empty()
    }

    /// The sequence of nodes visited, starting and ending at
    /// [`EulerCircuit::start`]. Length `len() + 1`.
    ///
    /// # Panics
    ///
    /// Panics only if the circuit does not match `graph` (use the circuit
    /// with the graph it was computed from).
    #[must_use]
    pub fn node_sequence(&self, graph: &PortLabeledGraph) -> Vec<NodeId> {
        let mut seq = Vec::with_capacity(self.exits.len() + 1);
        let mut at = self.start;
        seq.push(at);
        for &p in &self.exits {
            at = graph.neighbor(at, p).expect("circuit matches graph");
            seq.push(at);
        }
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use std::collections::HashSet;

    #[test]
    fn ring_cycle_validates() {
        let g = generators::oriented_ring(5).unwrap();
        let c = HamiltonianCycle::known_ring(&g).unwrap();
        assert_eq!(c.len(), 5);
        assert_eq!(c.order()[3], NodeId::new(3));
    }

    #[test]
    fn bad_cycles_are_rejected() {
        let g = generators::path(4).unwrap();
        // path has no hamiltonian cycle: endpoints not adjacent
        assert!(HamiltonianCycle::new(&g, g.nodes().collect()).is_err());
        let r = generators::oriented_ring(4).unwrap();
        // wrong length
        assert!(HamiltonianCycle::new(&r, vec![NodeId::new(0)]).is_err());
        // repeated node
        assert!(HamiltonianCycle::new(
            &r,
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(0),
                NodeId::new(3)
            ]
        )
        .is_err());
    }

    #[test]
    fn hypercube_gray_code_cycle() {
        for d in 2..=5 {
            let g = generators::hypercube(d).unwrap();
            let c = HamiltonianCycle::known_hypercube(&g).unwrap();
            assert_eq!(c.len(), 1 << d);
        }
    }

    #[test]
    fn hypercube_cycle_rejects_dim_one() {
        let g = generators::hypercube(1).unwrap();
        assert!(HamiltonianCycle::known_hypercube(&g).is_err());
    }

    #[test]
    fn torus_cycles_even_and_odd_height() {
        for (w, h) in [(4, 4), (5, 4), (4, 3), (5, 3), (3, 5)] {
            let g = generators::torus(w, h).unwrap();
            let c = HamiltonianCycle::known_torus(&g, w, h)
                .unwrap_or_else(|e| panic!("torus {w}x{h}: {e}"));
            assert_eq!(c.len(), w * h);
        }
    }

    #[test]
    fn complete_graph_cycle() {
        let g = generators::complete(7).unwrap();
        let c = HamiltonianCycle::known_complete(&g).unwrap();
        assert_eq!(c.len(), 7);
    }

    #[test]
    fn euler_circuit_on_ring() {
        let g = generators::oriented_ring(6).unwrap();
        let c = EulerCircuit::find(&g, NodeId::new(2)).unwrap();
        assert_eq!(c.len(), 6);
        let seq = c.node_sequence(&g);
        assert_eq!(seq.first(), Some(&NodeId::new(2)));
        assert_eq!(seq.last(), Some(&NodeId::new(2)));
    }

    #[test]
    fn euler_circuit_covers_every_edge_once() {
        let g = generators::torus(3, 3).unwrap(); // 4-regular: eulerian
        let c = EulerCircuit::find(&g, NodeId::new(0)).unwrap();
        assert_eq!(c.len(), g.edge_count());
        let seq = c.node_sequence(&g);
        let mut seen = HashSet::new();
        for win in seq.windows(2) {
            let e = if win[0] < win[1] {
                (win[0], win[1])
            } else {
                (win[1], win[0])
            };
            assert!(seen.insert(e), "edge {e:?} reused");
        }
        assert_eq!(seen.len(), g.edge_count());
        // every node visited
        let visited: HashSet<_> = seq.iter().copied().collect();
        assert_eq!(visited.len(), g.node_count());
    }

    #[test]
    fn euler_rejects_odd_degrees() {
        let g = generators::path(3).unwrap();
        assert!(EulerCircuit::find(&g, NodeId::new(0)).is_err());
    }

    #[test]
    fn euler_rejects_disconnected() {
        // two disjoint triangles
        let mut b = crate::GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            b.add_edge(NodeId::new(u), NodeId::new(v)).unwrap();
        }
        let g = b.build().unwrap();
        assert!(matches!(
            EulerCircuit::find(&g, NodeId::new(0)),
            Err(GraphError::NotConnected)
        ));
    }

    #[test]
    fn euler_on_complete_odd() {
        // K5 is 4-regular: eulerian with 10 edges
        let g = generators::complete(5).unwrap();
        let c = EulerCircuit::find(&g, NodeId::new(3)).unwrap();
        assert_eq!(c.len(), 10);
        assert_eq!(c.start(), NodeId::new(3));
    }
}
