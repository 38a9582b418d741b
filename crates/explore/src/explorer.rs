//! The exploration interface: procedures with a known worst-case bound `E`.

use rendezvous_graph::{NodeId, Port, PortLabeledGraph};
use std::fmt;

/// One live execution of an exploration procedure.
///
/// The driver (the simulator, or the schedule layer of the rendezvous
/// algorithms) calls [`ExploreRun::next_move`] once per round, feeding the
/// agent's current observation, and applies the returned move. Runs may be
/// adaptive: trial-DFS and UXS explorations react to what they observe.
pub trait ExploreRun {
    /// Decides the move for the current round.
    ///
    /// * `degree` — degree of the node the agent currently occupies;
    /// * `entry_port` — the port through which the agent entered this node
    ///   on the *previous* round, or `None` if it did not move then (first
    ///   round of the run, or it stayed).
    ///
    /// Returns `Some(port)` to traverse that port, `None` to stay put. Once
    /// a run starts returning `None` because it has finished its walk, the
    /// driver keeps the agent idle until the full `E` rounds have elapsed
    /// ("if the exploration is completed earlier, the agent waits", §2).
    fn next_move(&mut self, degree: usize, entry_port: Option<Port>) -> Option<Port>;
}

/// An exploration procedure `EXPLORE` together with its bound `E`.
///
/// The contract (paper §1.2): *for every starting node*, executing the
/// procedure visits all nodes of the graph within [`Explorer::bound`]
/// rounds. The rendezvous algorithms of §2 are all built from repetitions
/// of `EXPLORE` separated by waiting periods, so this trait — procedure plus
/// known bound — is exactly the interface they need.
///
/// `begin(start)` receives the agent's actual start node. This models the
/// "port-labelled map with a marked starting position" scenario; explorers
/// for weaker scenarios (trial-DFS, UXS) simply ignore the argument, and
/// their documentation says so.
///
/// The `Send + Sync` bound stays although every sweep runs on one
/// thread: explorers are shared as `Arc<dyn Explorer>`, and without the
/// bound clippy's `arc_with_non_send_sync` lint rejects the `Arc`s that
/// hold them.
pub trait Explorer: fmt::Debug + Send + Sync {
    /// The bound `E`: from any start node, all nodes are visited within
    /// `bound()` rounds.
    fn bound(&self) -> usize;

    /// Starts an exploration from `start`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `start` is not a node of the underlying
    /// graph; validating starts is the driver's job.
    fn begin(&self, start: NodeId) -> Box<dyn ExploreRun>;

    /// Short human-readable name used in experiment output.
    fn name(&self) -> &'static str;
}

/// A non-adaptive run replaying a precomputed port walk, then idling.
#[derive(Debug, Clone)]
pub struct PlannedRun {
    walk: Vec<Port>,
    next: usize,
}

impl PlannedRun {
    /// Wraps a precomputed walk.
    #[must_use]
    pub fn new(walk: Vec<Port>) -> Self {
        PlannedRun { walk, next: 0 }
    }
}

impl ExploreRun for PlannedRun {
    fn next_move(&mut self, _degree: usize, _entry_port: Option<Port>) -> Option<Port> {
        let mv = self.walk.get(self.next).copied();
        if mv.is_some() {
            self.next += 1;
        }
        mv
    }
}

/// Drives `run` on `graph` from `start` for at most `max_rounds` rounds and
/// returns the number of rounds after which every node had been visited, or
/// `None` if coverage was not reached.
///
/// This is the verification oracle used by explorer constructors and tests
/// to check the `E`-bound contract.
///
/// # Panics
///
/// Panics if `start` is out of range or the run emits an invalid port.
#[must_use]
pub fn coverage_time(
    graph: &PortLabeledGraph,
    run: &mut dyn ExploreRun,
    start: NodeId,
    max_rounds: usize,
) -> Option<usize> {
    assert!(graph.contains(start), "start out of range");
    let mut visited = vec![false; graph.node_count()];
    visited[start.index()] = true;
    let mut remaining = graph.node_count() - 1;
    if remaining == 0 {
        return Some(0);
    }
    let mut at = start;
    let mut entry: Option<Port> = None;
    for round in 1..=max_rounds {
        match run.next_move(graph.degree(at), entry) {
            Some(p) => {
                let t = graph
                    .traverse(at, p)
                    .unwrap_or_else(|e| panic!("explorer emitted invalid move: {e}"));
                at = t.target;
                entry = Some(t.entry_port);
                if !visited[at.index()] {
                    visited[at.index()] = true;
                    remaining -= 1;
                    if remaining == 0 {
                        return Some(round);
                    }
                }
            }
            None => entry = None,
        }
    }
    None
}

/// Checks the full [`Explorer`] contract: from **every** start node, the
/// procedure covers the graph within its declared bound. Returns the worst
/// observed coverage time.
///
/// # Errors
///
/// Returns `Err(start)` for the first start node from which coverage was not
/// achieved within `explorer.bound()` rounds.
pub fn verify_explorer(graph: &PortLabeledGraph, explorer: &dyn Explorer) -> Result<usize, NodeId> {
    let mut worst = 0;
    for start in graph.nodes() {
        let mut run = explorer.begin(start);
        match coverage_time(graph, run.as_mut(), start, explorer.bound()) {
            Some(t) => worst = worst.max(t),
            None => return Err(start),
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendezvous_graph::generators;

    #[test]
    fn planned_run_replays_then_idles() {
        let mut r = PlannedRun::new(vec![Port::new(0), Port::new(1)]);
        assert_eq!(r.next_move(2, None), Some(Port::new(0)));
        assert_eq!(r.next_move(2, Some(Port::new(1))), Some(Port::new(1)));
        assert_eq!(r.next_move(2, None), None);
        assert_eq!(r.next_move(2, None), None);
    }

    #[test]
    fn coverage_time_on_ring_walk() {
        let g = generators::oriented_ring(5).unwrap();
        let mut run = PlannedRun::new(vec![Port::new(0); 4]);
        let t = coverage_time(&g, &mut run, NodeId::new(2), 10);
        assert_eq!(t, Some(4));
    }

    #[test]
    fn coverage_fails_when_walk_too_short() {
        let g = generators::oriented_ring(6).unwrap();
        let mut run = PlannedRun::new(vec![Port::new(0); 3]);
        assert_eq!(coverage_time(&g, &mut run, NodeId::new(0), 100), None);
    }

    #[test]
    fn single_node_graph_covered_instantly() {
        let g = generators::path(1).unwrap();
        let mut run = PlannedRun::new(vec![]);
        assert_eq!(coverage_time(&g, &mut run, NodeId::new(0), 5), Some(0));
    }
}
