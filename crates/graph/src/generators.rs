//! Generators for the graph families used throughout the paper and its
//! experiments.
//!
//! The lower bounds of §3 are proven on **oriented rings** (port 0 goes
//! clockwise at every node); [`oriented_ring`] builds exactly that labelling.
//! The algorithms of §2 work on arbitrary connected graphs, so we also
//! provide paths, stars, complete graphs, hypercubes, grids, tori, trees and
//! two random families. All randomized generators take an explicit RNG so
//! that every experiment in this repository is reproducible from a seed.

use crate::{GraphBuilder, GraphError, NodeId, Port, PortLabeledGraph};
use rand::seq::SliceRandom;
use rand::Rng;

fn invalid(reason: impl Into<String>) -> GraphError {
    GraphError::InvalidParameter {
        reason: reason.into(),
    }
}

/// Oriented ring on `n >= 3` nodes: at every node, port 0 leads clockwise
/// (to node `i+1 mod n`) and port 1 counter-clockwise.
///
/// This is the graph family on which the paper proves both lower bounds
/// (§3): "a ring is oriented if every edge has port labels 0 and 1 at the
/// two end-points".
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `n < 3` (a 2-ring would be a
/// multigraph, which the simple-graph model excludes).
///
/// # Examples
///
/// ```
/// use rendezvous_graph::{generators, NodeId, Port};
///
/// let g = generators::oriented_ring(4).unwrap();
/// // Following port 0 for n steps returns to the start.
/// let mut at = NodeId::new(0);
/// for _ in 0..4 {
///     at = g.neighbor(at, Port::new(0)).unwrap();
/// }
/// assert_eq!(at, NodeId::new(0));
/// ```
pub fn oriented_ring(n: usize) -> Result<PortLabeledGraph, GraphError> {
    if n < 3 {
        return Err(invalid(format!("oriented ring needs n >= 3, got {n}")));
    }
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        let j = (i + 1) % n;
        // port 0 at i (clockwise out), port 1 at j (counter-clockwise back).
        b.add_edge_with_ports(NodeId::new(i), Port::new(0), NodeId::new(j), Port::new(1))?;
    }
    b.build()
}

/// Ring on `n >= 3` nodes with uniformly random port assignments at every
/// node (an *unoriented* ring: agents cannot rely on a consistent notion of
/// clockwise).
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `n < 3`.
pub fn scrambled_ring<R: Rng + ?Sized>(
    n: usize,
    rng: &mut R,
) -> Result<PortLabeledGraph, GraphError> {
    if n < 3 {
        return Err(invalid(format!("scrambled ring needs n >= 3, got {n}")));
    }
    // For each node, decide which of its two incident ring edges gets port 0.
    let flips: Vec<bool> = (0..n).map(|_| rng.random_bool(0.5)).collect();
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        let j = (i + 1) % n;
        // Port at i for its clockwise edge; port at j for its ccw edge.
        let pi = Port::new(usize::from(flips[i]));
        let pj = Port::new(usize::from(!flips[j]));
        b.add_edge_with_ports(NodeId::new(i), pi, NodeId::new(j), pj)?;
    }
    b.build()
}

/// Path on `n >= 1` nodes `0 - 1 - … - n-1`, ports assigned low-to-high.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `n == 0`.
pub fn path(n: usize) -> Result<PortLabeledGraph, GraphError> {
    if n == 0 {
        return Err(invalid("path needs n >= 1"));
    }
    let mut b = GraphBuilder::new(n);
    for i in 0..n.saturating_sub(1) {
        b.add_edge(NodeId::new(i), NodeId::new(i + 1))?;
    }
    b.build()
}

/// Star with `leaves >= 1` leaves: node 0 is the center. The star is the
/// tree of diameter 2 mentioned in §1.2, for which `E = 2n - 3` is the
/// optimal exploration time.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `leaves == 0`.
pub fn star(leaves: usize) -> Result<PortLabeledGraph, GraphError> {
    if leaves == 0 {
        return Err(invalid("star needs at least one leaf"));
    }
    let mut b = GraphBuilder::new(leaves + 1);
    for leaf in 1..=leaves {
        b.add_edge(NodeId::new(0), NodeId::new(leaf))?;
    }
    b.build()
}

/// Complete graph on `n >= 2` nodes.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `n < 2`.
pub fn complete(n: usize) -> Result<PortLabeledGraph, GraphError> {
    if n < 2 {
        return Err(invalid(format!("complete graph needs n >= 2, got {n}")));
    }
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(NodeId::new(i), NodeId::new(j))?;
        }
    }
    b.build()
}

/// Hypercube of dimension `d >= 1` (`2^d` nodes). Port `i` at every node
/// flips bit `i` of the node index — the canonical dimension-labelled
/// hypercube, which is `d`-regular and vertex-transitive.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `d == 0` or `d > 20`.
pub fn hypercube(d: usize) -> Result<PortLabeledGraph, GraphError> {
    if d == 0 || d > 20 {
        return Err(invalid(format!(
            "hypercube dimension must be 1..=20, got {d}"
        )));
    }
    let n = 1usize << d;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if v < u {
                b.add_edge_with_ports(
                    NodeId::new(v),
                    Port::new(bit),
                    NodeId::new(u),
                    Port::new(bit),
                )?;
            }
        }
    }
    b.build()
}

/// `w × h` grid (no wrap-around), `w, h >= 1`, `w * h >= 2`.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] for degenerate dimensions.
pub fn grid(w: usize, h: usize) -> Result<PortLabeledGraph, GraphError> {
    if w == 0 || h == 0 || w * h < 2 {
        return Err(invalid(format!(
            "grid needs w,h >= 1 and w*h >= 2, got {w}x{h}"
        )));
    }
    let id = |x: usize, y: usize| NodeId::new(y * w + x);
    let mut b = GraphBuilder::new(w * h);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b.add_edge(id(x, y), id(x + 1, y))?;
            }
            if y + 1 < h {
                b.add_edge(id(x, y), id(x, y + 1))?;
            }
        }
    }
    b.build()
}

/// `w × h` torus (grid with wrap-around), `w, h >= 3`. 4-regular.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if either dimension is below 3 (smaller
/// tori have parallel edges).
pub fn torus(w: usize, h: usize) -> Result<PortLabeledGraph, GraphError> {
    if w < 3 || h < 3 {
        return Err(invalid(format!("torus needs w,h >= 3, got {w}x{h}")));
    }
    let id = |x: usize, y: usize| NodeId::new(y * w + x);
    let mut b = GraphBuilder::new(w * h);
    for y in 0..h {
        for x in 0..w {
            // ports: 0 = east, 1 = west, 2 = south, 3 = north
            b.add_edge_with_ports(id(x, y), Port::new(0), id((x + 1) % w, y), Port::new(1))?;
            b.add_edge_with_ports(id(x, y), Port::new(2), id(x, (y + 1) % h), Port::new(3))?;
        }
    }
    b.build()
}

/// Complete binary tree of the given `depth` (`depth = 0` is a single node;
/// the tree has `2^(depth+1) - 1` nodes).
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `depth > 20`.
pub fn balanced_binary_tree(depth: usize) -> Result<PortLabeledGraph, GraphError> {
    if depth > 20 {
        return Err(invalid(format!(
            "binary tree depth must be <= 20, got {depth}"
        )));
    }
    let n = (1usize << (depth + 1)) - 1;
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        let parent = (v - 1) / 2;
        b.add_edge(NodeId::new(parent), NodeId::new(v))?;
    }
    b.build()
}

/// Uniformly random labelled tree on `n >= 1` nodes via a random Prüfer
/// sequence, with ports assigned in edge-insertion order.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `n == 0`.
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Result<PortLabeledGraph, GraphError> {
    if n == 0 {
        return Err(invalid("random tree needs n >= 1"));
    }
    let mut b = GraphBuilder::new(n);
    if n >= 2 {
        if n == 2 {
            b.add_edge(NodeId::new(0), NodeId::new(1))?;
        } else {
            let prufer: Vec<usize> = (0..n - 2).map(|_| rng.random_range(0..n)).collect();
            let mut degree = vec![1usize; n];
            for &v in &prufer {
                degree[v] += 1;
            }
            let mut edges = Vec::with_capacity(n - 1);
            // classic Prüfer decoding with a scan pointer + leaf variable
            let mut ptr = 0;
            while degree[ptr] != 1 {
                ptr += 1;
            }
            let mut leaf = ptr;
            for &v in &prufer {
                edges.push((leaf, v));
                degree[v] -= 1;
                if degree[v] == 1 && v < ptr {
                    leaf = v;
                } else {
                    ptr += 1;
                    while degree[ptr] != 1 {
                        ptr += 1;
                    }
                    leaf = ptr;
                }
            }
            edges.push((leaf, n - 1));
            for (u, v) in edges {
                b.add_edge(NodeId::new(u), NodeId::new(v))?;
            }
        }
    }
    b.build()
}

/// Connected Erdős–Rényi graph: a uniformly random spanning tree (to force
/// connectivity) unioned with each remaining pair independently with
/// probability `p`. Ports are assigned in insertion order.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `n == 0` or `p` is not in `[0, 1]`.
pub fn erdos_renyi_connected<R: Rng + ?Sized>(
    n: usize,
    // analyze: allow(d3) — coin threshold for a seeded RNG: same seed + same p bits
    // give the same graph on every platform; no arithmetic is done on it
    p: f64,
    rng: &mut R,
) -> Result<PortLabeledGraph, GraphError> {
    if n == 0 {
        return Err(invalid("erdos_renyi_connected needs n >= 1"));
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(invalid(format!(
            "edge probability must be in [0,1], got {p}"
        )));
    }
    let mut b = GraphBuilder::new(n);
    // random spanning tree: random permutation, attach each node to a
    // uniformly random earlier node.
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut present = vec![vec![false; n]; n];
    for i in 1..n {
        let u = order[i];
        let v = order[rng.random_range(0..i)];
        b.add_edge(NodeId::new(u), NodeId::new(v))?;
        present[u][v] = true;
        present[v][u] = true;
    }
    #[allow(clippy::needless_range_loop)] // u, v index two parallel structures
    for u in 0..n {
        for v in (u + 1)..n {
            if !present[u][v] && rng.random_bool(p) {
                b.add_edge(NodeId::new(u), NodeId::new(v))?;
            }
        }
    }
    b.build()
}

/// Re-labels the ports of `graph` with independent uniformly random
/// permutations at every node, preserving the topology.
///
/// In the model, port numberings are **adversarial**: an algorithm may not
/// rely on any particular assignment (beyond what a structure like an
/// oriented ring explicitly promises). This utility lets tests and
/// experiments realize that adversary on any generated graph.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use rendezvous_graph::{analysis, generators};
///
/// let g = generators::grid(3, 3).unwrap();
/// let mut rng = StdRng::seed_from_u64(7);
/// let h = generators::permute_ports(&g, &mut rng).unwrap();
/// assert_eq!(h.edge_count(), g.edge_count());
/// assert!(analysis::is_connected(&h));
/// ```
///
/// # Errors
///
/// Never fails for valid input graphs; the `Result` mirrors the builder's
/// signature for uniformity.
pub fn permute_ports<R: Rng + ?Sized>(
    graph: &PortLabeledGraph,
    rng: &mut R,
) -> Result<PortLabeledGraph, GraphError> {
    let n = graph.node_count();
    // perm[v][old_port] = new port index at v
    let perms: Vec<Vec<usize>> = (0..n)
        .map(|v| {
            let mut p: Vec<usize> = (0..graph.degree(NodeId::new(v))).collect();
            p.shuffle(rng);
            p
        })
        .collect();
    let mut b = GraphBuilder::new(n);
    for e in graph.edges() {
        b.add_edge_with_ports(
            e.u,
            Port::new(perms[e.u.index()][e.port_at_u.index()]),
            e.v,
            Port::new(perms[e.v.index()][e.port_at_v.index()]),
        )?;
    }
    b.build()
}

/// Wheel on `spokes + 1` nodes (`spokes >= 3`): node 0 is the hub, nodes
/// `1..=spokes` form a cycle, every rim node connects to the hub. The
/// high-degree hub next to degree-3 rim nodes stresses port handling.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `spokes < 3`.
pub fn wheel(spokes: usize) -> Result<PortLabeledGraph, GraphError> {
    if spokes < 3 {
        return Err(invalid(format!("wheel needs >= 3 spokes, got {spokes}")));
    }
    let mut b = GraphBuilder::new(spokes + 1);
    for i in 1..=spokes {
        b.add_edge(NodeId::new(0), NodeId::new(i))?;
    }
    for i in 1..=spokes {
        let j = if i == spokes { 1 } else { i + 1 };
        b.add_edge(NodeId::new(i), NodeId::new(j))?;
    }
    b.build()
}

/// Lollipop: a complete graph on `clique >= 3` nodes with a path of
/// `tail >= 1` nodes attached to node 0. A classic stress case for
/// walk-based exploration (the walker keeps getting pulled back into the
/// clique).
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] for degenerate sizes.
pub fn lollipop(clique: usize, tail: usize) -> Result<PortLabeledGraph, GraphError> {
    if clique < 3 || tail == 0 {
        return Err(invalid(format!(
            "lollipop needs clique >= 3 and tail >= 1, got {clique},{tail}"
        )));
    }
    let mut b = GraphBuilder::new(clique + tail);
    for i in 0..clique {
        for j in (i + 1)..clique {
            b.add_edge(NodeId::new(i), NodeId::new(j))?;
        }
    }
    for t in 0..tail {
        let prev = if t == 0 { 0 } else { clique + t - 1 };
        b.add_edge(NodeId::new(prev), NodeId::new(clique + t))?;
    }
    b.build()
}

/// Random connected `d`-regular simple graph via the configuration (pairing)
/// model with rejection. Requires `n * d` even, `d < n`, and `d >= 2` for
/// connectivity to be achievable.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if the parameter combination is
/// infeasible, or if no connected simple pairing was found within an
/// internal retry budget (extremely unlikely for sensible parameters).
pub fn random_regular_connected<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    rng: &mut R,
) -> Result<PortLabeledGraph, GraphError> {
    if d >= n || d < 2 || !(n * d).is_multiple_of(2) {
        return Err(invalid(format!(
            "random regular graph needs 2 <= d < n and n*d even, got n={n}, d={d}"
        )));
    }
    const RETRIES: usize = 5_000;
    for _ in 0..RETRIES {
        let mut stubs: Vec<usize> = (0..n * d).map(|s| s / d).collect();
        stubs.shuffle(rng);
        let mut b = GraphBuilder::new(n);
        let mut ok = true;
        for pair in stubs.chunks_exact(2) {
            let (u, v) = (pair[0], pair[1]);
            if u == v || b.add_edge(NodeId::new(u), NodeId::new(v)).is_err() {
                ok = false;
                break;
            }
        }
        if !ok {
            continue;
        }
        let g = b.build()?;
        if crate::analysis::is_connected(&g) {
            return Ok(g);
        }
    }
    Err(invalid(format!(
        "could not sample a connected simple {d}-regular graph on {n} nodes"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn oriented_ring_ports_are_oriented() {
        let g = oriented_ring(7).unwrap();
        assert!(g.is_regular());
        for v in g.nodes() {
            let cw = g.traverse(v, Port::new(0)).unwrap();
            assert_eq!(cw.target.index(), (v.index() + 1) % 7);
            assert_eq!(cw.entry_port, Port::new(1));
        }
    }

    #[test]
    fn oriented_ring_rejects_small_n() {
        assert!(oriented_ring(2).is_err());
        assert!(oriented_ring(0).is_err());
    }

    #[test]
    fn scrambled_ring_is_a_ring() {
        let g = scrambled_ring(9, &mut rng()).unwrap();
        assert_eq!(g.node_count(), 9);
        assert_eq!(g.edge_count(), 9);
        assert!(g.is_regular());
        assert!(analysis::is_connected(&g));
    }

    #[test]
    fn path_and_star_shapes() {
        let p = path(5).unwrap();
        assert_eq!(p.edge_count(), 4);
        assert_eq!(p.degree(NodeId::new(0)), 1);
        assert_eq!(p.degree(NodeId::new(2)), 2);

        let s = star(6).unwrap();
        assert_eq!(s.node_count(), 7);
        assert_eq!(s.degree(NodeId::new(0)), 6);
        for leaf in 1..=6 {
            assert_eq!(s.degree(NodeId::new(leaf)), 1);
        }
    }

    #[test]
    fn single_node_path() {
        let p = path(1).unwrap();
        assert_eq!(p.node_count(), 1);
        assert_eq!(p.edge_count(), 0);
    }

    #[test]
    fn complete_graph_edge_count() {
        let g = complete(6).unwrap();
        assert_eq!(g.edge_count(), 15);
        assert!(g.is_regular());
    }

    #[test]
    fn hypercube_ports_flip_bits() {
        let g = hypercube(4).unwrap();
        assert_eq!(g.node_count(), 16);
        assert!(g.is_regular());
        for v in g.nodes() {
            for bit in 0..4 {
                let t = g.traverse(v, Port::new(bit)).unwrap();
                assert_eq!(t.target.index(), v.index() ^ (1 << bit));
                assert_eq!(t.entry_port, Port::new(bit));
            }
        }
    }

    #[test]
    fn grid_and_torus_shapes() {
        let g = grid(4, 3).unwrap();
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 4 * 2 + 3 * 3); // 8 vertical rows? (w-1)*h + w*(h-1) = 3*3+4*2 = 17
        assert!(analysis::is_connected(&g));

        let t = torus(4, 3).unwrap();
        assert_eq!(t.node_count(), 12);
        assert_eq!(t.edge_count(), 24);
        assert!(t.is_regular());
        assert_eq!(t.max_degree(), 4);
    }

    #[test]
    fn torus_rejects_small_dims() {
        assert!(torus(2, 5).is_err());
    }

    #[test]
    fn binary_tree_shape() {
        let t = balanced_binary_tree(3).unwrap();
        assert_eq!(t.node_count(), 15);
        assert_eq!(t.edge_count(), 14);
        assert!(analysis::is_connected(&t));
    }

    #[test]
    fn random_tree_is_tree() {
        for n in [1usize, 2, 3, 10, 40] {
            let t = random_tree(n, &mut rng()).unwrap();
            assert_eq!(t.node_count(), n);
            assert_eq!(t.edge_count(), n.saturating_sub(1));
            assert!(analysis::is_connected(&t));
        }
    }

    #[test]
    fn erdos_renyi_is_connected() {
        for p in [0.0, 0.1, 0.5, 1.0] {
            let g = erdos_renyi_connected(20, p, &mut rng()).unwrap();
            assert!(analysis::is_connected(&g));
            assert!(g.edge_count() >= 19);
        }
    }

    #[test]
    fn erdos_renyi_p_one_is_complete() {
        let g = erdos_renyi_connected(8, 1.0, &mut rng()).unwrap();
        assert_eq!(g.edge_count(), 28);
    }

    #[test]
    fn random_regular_is_regular_and_connected() {
        let g = random_regular_connected(12, 3, &mut rng()).unwrap();
        assert!(g.is_regular());
        assert_eq!(g.max_degree(), 3);
        assert!(analysis::is_connected(&g));
    }

    #[test]
    fn random_regular_rejects_odd_product() {
        assert!(random_regular_connected(5, 3, &mut rng()).is_err());
    }

    #[test]
    fn permute_ports_preserves_topology() {
        let g = grid(4, 3).unwrap();
        let h = permute_ports(&g, &mut rng()).unwrap();
        assert_eq!(h.node_count(), g.node_count());
        assert_eq!(h.edge_count(), g.edge_count());
        assert!(h.check_invariants().is_ok());
        // same neighbourhoods, possibly different ports
        for v in g.nodes() {
            let mut a: Vec<_> = g.neighbors(v).collect();
            let mut b: Vec<_> = h.neighbors(v).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        assert_eq!(analysis::diameter(&g), analysis::diameter(&h));
    }

    #[test]
    fn permute_ports_usually_changes_the_labelling() {
        let g = complete(6).unwrap();
        let h = permute_ports(&g, &mut rng()).unwrap();
        assert_ne!(
            g, h,
            "a K6 relabelling is different with overwhelming probability"
        );
    }

    #[test]
    fn wheel_shape() {
        let g = wheel(5).unwrap();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.degree(NodeId::new(0)), 5);
        assert_eq!(g.degree(NodeId::new(3)), 3);
        assert!(analysis::is_connected(&g));
        assert!(wheel(2).is_err());
    }

    #[test]
    fn lollipop_shape() {
        let g = lollipop(4, 3).unwrap();
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 6 + 3);
        assert!(analysis::is_connected(&g));
        // tail end is degree 1
        assert_eq!(g.degree(NodeId::new(6)), 1);
        assert!(lollipop(2, 1).is_err());
    }

    #[test]
    fn generators_are_deterministic_under_seed() {
        let a = erdos_renyi_connected(15, 0.3, &mut StdRng::seed_from_u64(7)).unwrap();
        let b = erdos_renyi_connected(15, 0.3, &mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(a, b);
    }
}
