//! Universal Exploration Sequences (UXS).
//!
//! §1.2: "If only an upper bound `m` on the size of the network is known,
//! then the best known estimate of the time of a (log-space constructible)
//! exploration is Reingold's polynomial estimate `R(m)` based on Universal
//! Exploration Sequences."
//!
//! **Substitution:** Reingold's log-space
//! construction is a theoretical device far beyond laptop scale. We
//! implement the UXS *semantics* exactly — at step `i`, an agent that
//! entered its current node through port `p` leaves through port
//! `(p + a_i) mod d` — and obtain concrete sequences by randomized search
//! with exhaustive verification against explicit graph families. The
//! rendezvous algorithms only require an exploration procedure with a known
//! bound `E`, so this preserves every code path the paper exercises.

use crate::{ExploreError, ExploreRun, Explorer};
use rand::Rng;
use rendezvous_graph::{NodeId, Port, PortLabeledGraph};
use std::sync::Arc;

/// A sequence of port increments driving a UXS walk on `d`-regular graphs.
///
/// # Examples
///
/// ```
/// use rendezvous_explore::UxsSequence;
///
/// let s = UxsSequence::new(2, vec![0, 1, 0, 0, 1]);
/// assert_eq!(s.degree(), 2);
/// assert_eq!(s.len(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UxsSequence {
    degree: usize,
    steps: Vec<usize>,
}

impl UxsSequence {
    /// Creates a sequence for `degree`-regular graphs. Increments are
    /// reduced modulo `degree`.
    ///
    /// # Panics
    ///
    /// Panics if `degree == 0`.
    #[must_use]
    pub fn new(degree: usize, steps: Vec<usize>) -> Self {
        assert!(degree > 0, "degree must be positive");
        let steps = steps.into_iter().map(|a| a % degree).collect();
        UxsSequence { degree, steps }
    }

    /// The regular degree `d` this sequence drives.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Length of the sequence (number of moves of the walk).
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` if the sequence is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The increments.
    #[must_use]
    pub fn steps(&self) -> &[usize] {
        &self.steps
    }

    /// Executes the walk on `graph` from `start`; returns the number of
    /// moves after which all nodes had been visited, or `None`.
    ///
    /// # Panics
    ///
    /// Panics if `graph` is not `d`-regular for this sequence's degree or
    /// `start` is out of range.
    #[must_use]
    pub fn coverage_time_from(&self, graph: &PortLabeledGraph, start: NodeId) -> Option<usize> {
        assert!(
            graph.is_regular() && graph.max_degree() == self.degree,
            "graph must be {}-regular",
            self.degree
        );
        let mut run = UxsRun {
            seq: self.clone(),
            pos: 0,
        };
        crate::coverage_time(graph, &mut run, start, self.steps.len())
    }

    /// Returns `true` if the walk covers `graph` from **every** start node.
    #[must_use]
    pub fn covers(&self, graph: &PortLabeledGraph) -> bool {
        graph
            .nodes()
            .all(|s| self.coverage_time_from(graph, s).is_some())
    }
}

#[derive(Debug)]
struct UxsRun {
    seq: UxsSequence,
    pos: usize,
}

impl ExploreRun for UxsRun {
    fn next_move(&mut self, degree: usize, entry_port: Option<Port>) -> Option<Port> {
        let a = *self.seq.steps.get(self.pos)?;
        self.pos += 1;
        let base = entry_port.map_or(0, Port::index);
        // `degree` equals the regular degree by contract; use the observed
        // value so that a mis-applied sequence fails loudly in tests.
        Some(Port::new((base + a) % degree))
    }
}

/// UXS-driven exploration of a specific `d`-regular graph.
///
/// # Examples
///
/// ```
/// use rendezvous_explore::{Explorer, UxsExplorer, verify_explorer};
/// use rendezvous_graph::generators;
/// use rand::{rngs::StdRng, SeedableRng};
/// use std::sync::Arc;
///
/// let g = Arc::new(generators::oriented_ring(6).unwrap());
/// let mut rng = StdRng::seed_from_u64(1);
/// let ex = UxsExplorer::search(g.clone(), 200, &mut rng).unwrap();
/// assert!(verify_explorer(&g, &ex).is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct UxsExplorer {
    sequence: UxsSequence,
    bound: usize,
}

impl UxsExplorer {
    /// Wraps an existing sequence after verifying it covers `graph` from
    /// every start node.
    ///
    /// # Errors
    ///
    /// * [`ExploreError::UnsuitableGraph`] if the graph is not regular of
    ///   the sequence's degree,
    /// * [`ExploreError::CoverageFailure`] if some start is not covered.
    pub fn with_sequence(
        graph: Arc<PortLabeledGraph>,
        sequence: UxsSequence,
    ) -> Result<Self, ExploreError> {
        if !graph.is_regular() || graph.max_degree() != sequence.degree() {
            return Err(ExploreError::UnsuitableGraph {
                explorer: "UxsExplorer",
                reason: format!("graph is not {}-regular", sequence.degree()),
            });
        }
        let mut worst = 0;
        for s in graph.nodes() {
            match sequence.coverage_time_from(&graph, s) {
                Some(t) => worst = worst.max(t),
                None => {
                    return Err(ExploreError::CoverageFailure {
                        explorer: "UxsExplorer",
                        start: s,
                    })
                }
            }
        }
        Ok(UxsExplorer {
            sequence,
            bound: worst,
        })
    }

    /// Randomized search for a covering sequence: starting from the empty
    /// sequence, repeatedly append a uniformly random increment until the
    /// walk covers the graph from every start, up to `max_len` increments.
    ///
    /// # Errors
    ///
    /// * [`ExploreError::UnsuitableGraph`] for irregular graphs,
    /// * [`ExploreError::SearchExhausted`] if no covering sequence of length
    ///   at most `max_len` was found.
    pub fn search<R: Rng + ?Sized>(
        graph: Arc<PortLabeledGraph>,
        max_len: usize,
        rng: &mut R,
    ) -> Result<Self, ExploreError> {
        if !graph.is_regular() {
            return Err(ExploreError::UnsuitableGraph {
                explorer: "UxsExplorer",
                reason: "graph is not regular".into(),
            });
        }
        let d = graph.max_degree();
        let mut steps = Vec::new();
        loop {
            let seq = UxsSequence::new(d, steps.clone());
            if seq.covers(&graph) {
                return Self::with_sequence(graph, seq);
            }
            if steps.len() >= max_len {
                return Err(ExploreError::SearchExhausted {
                    explorer: "UxsExplorer",
                    budget: format!("max sequence length {max_len}"),
                });
            }
            steps.push(rng.random_range(0..d));
        }
    }

    /// Searches for a sequence that covers **every** graph in `family` from
    /// every start node — a "universal" sequence for the family, the
    /// laptop-scale stand-in for Reingold's construction.
    ///
    /// Returns the sequence; wrap it per-graph with
    /// [`UxsExplorer::with_sequence`].
    ///
    /// # Errors
    ///
    /// * [`ExploreError::UnsuitableGraph`] if the family is empty or mixes
    ///   degrees/irregular graphs,
    /// * [`ExploreError::SearchExhausted`] on budget exhaustion.
    pub fn search_family<R: Rng + ?Sized>(
        family: &[Arc<PortLabeledGraph>],
        max_len: usize,
        rng: &mut R,
    ) -> Result<UxsSequence, ExploreError> {
        let Some(first) = family.first() else {
            return Err(ExploreError::UnsuitableGraph {
                explorer: "UxsExplorer",
                reason: "empty family".into(),
            });
        };
        let d = first.max_degree();
        if family
            .iter()
            .any(|g| !g.is_regular() || g.max_degree() != d)
        {
            return Err(ExploreError::UnsuitableGraph {
                explorer: "UxsExplorer",
                reason: "family mixes degrees or contains irregular graphs".into(),
            });
        }
        let mut steps = Vec::new();
        loop {
            let seq = UxsSequence::new(d, steps.clone());
            if family.iter().all(|g| seq.covers(g)) {
                return Ok(seq);
            }
            if steps.len() >= max_len {
                return Err(ExploreError::SearchExhausted {
                    explorer: "UxsExplorer",
                    budget: format!("max sequence length {max_len}"),
                });
            }
            steps.push(rng.random_range(0..d));
        }
    }

    /// The sequence driving this explorer.
    #[must_use]
    pub fn sequence(&self) -> &UxsSequence {
        &self.sequence
    }
}

impl Explorer for UxsExplorer {
    fn bound(&self) -> usize {
        self.bound
    }

    fn begin(&self, _start: NodeId) -> Box<dyn ExploreRun> {
        Box::new(UxsRun {
            seq: self.sequence.clone(),
            pos: 0,
        })
    }

    fn name(&self) -> &'static str {
        "uxs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_explorer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rendezvous_graph::generators;

    #[test]
    fn all_zero_increments_walk_straight_round_the_oriented_ring() {
        // entering via port 1, +0 keeps exiting port 1?? No: exit = entry + a.
        // On an oriented ring, entries alternate... first move exits p0,
        // entering via p1; exit p1 goes *back*. So zeros do NOT circle; use
        // increment 1 to keep going: (1 + 1) mod 2 = 0 = clockwise again.
        let g = generators::oriented_ring(5).unwrap();
        let ones = UxsSequence::new(2, vec![1; 4]);
        // first move: no entry -> port (0 + 1) % 2 = 1 (counter-clockwise),
        // then entry is p0, exit (0+1)%2=1... counter-clockwise forever: covers.
        assert!(ones.covers(&g));
    }

    #[test]
    fn search_finds_covering_sequence_on_rings() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [3usize, 5, 8] {
            let g = Arc::new(generators::oriented_ring(n).unwrap());
            let ex = UxsExplorer::search(g.clone(), 500, &mut rng).unwrap();
            assert!(verify_explorer(&g, &ex).is_ok());
            assert!(ex.bound() <= ex.sequence().len());
        }
    }

    #[test]
    fn search_works_on_higher_degree_regular_graphs() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = Arc::new(generators::hypercube(3).unwrap());
        let ex = UxsExplorer::search(g.clone(), 2_000, &mut rng).unwrap();
        assert!(verify_explorer(&g, &ex).is_ok());
    }

    #[test]
    fn family_sequence_is_universal_for_the_family() {
        let mut rng = StdRng::seed_from_u64(13);
        // All scrambled rings of sizes 3..=6 under a few seeds + oriented ones.
        let mut family: Vec<Arc<PortLabeledGraph>> = Vec::new();
        for n in 3..=6 {
            family.push(Arc::new(generators::oriented_ring(n).unwrap()));
            for seed in 0..4 {
                let mut r = StdRng::seed_from_u64(seed);
                family.push(Arc::new(generators::scrambled_ring(n, &mut r).unwrap()));
            }
        }
        let seq = UxsExplorer::search_family(&family, 5_000, &mut rng).unwrap();
        for g in &family {
            assert!(seq.covers(g));
            let ex = UxsExplorer::with_sequence(g.clone(), seq.clone()).unwrap();
            assert!(verify_explorer(g, &ex).is_ok());
        }
    }

    #[test]
    fn with_sequence_rejects_mismatched_degree() {
        let g = Arc::new(generators::hypercube(3).unwrap());
        let seq = UxsSequence::new(2, vec![1, 0, 1]);
        assert!(matches!(
            UxsExplorer::with_sequence(g, seq),
            Err(ExploreError::UnsuitableGraph { .. })
        ));
    }

    #[test]
    fn with_sequence_rejects_non_covering() {
        let g = Arc::new(generators::oriented_ring(8).unwrap());
        let seq = UxsSequence::new(2, vec![1]);
        assert!(matches!(
            UxsExplorer::with_sequence(g, seq),
            Err(ExploreError::CoverageFailure { .. })
        ));
    }

    #[test]
    fn family_search_rejects_mixed_degrees() {
        let family = vec![
            Arc::new(generators::oriented_ring(4).unwrap()),
            Arc::new(generators::hypercube(3).unwrap()),
        ];
        let mut rng = StdRng::seed_from_u64(1);
        assert!(UxsExplorer::search_family(&family, 10, &mut rng).is_err());
    }

    #[test]
    fn search_exhaustion_is_reported() {
        let g = Arc::new(generators::oriented_ring(16).unwrap());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            UxsExplorer::search(g, 2, &mut rng),
            Err(ExploreError::SearchExhausted { .. })
        ));
    }
}
