//! Algorithm `Fast` (§2, Algorithm 2): the time-optimal end of the
//! tradeoff curve — both time and cost `O(E log L)`.

use crate::{CoreError, Label, LabelSpace, ModifiedLabel, Phase, RendezvousAlgorithm, Schedule};
use rendezvous_explore::Explorer;
use rendezvous_graph::PortLabeledGraph;
use std::sync::Arc;

/// Builds the doubled schedule pattern `T = (1, b₁, b₁, b₂, b₂, …, b_m, b_m)`
/// from a bit string `b`, shared by `Fast` and `FastWithRelabeling`.
pub(crate) fn doubled_pattern(bits: &[bool]) -> Vec<bool> {
    let mut t = Vec::with_capacity(2 * bits.len() + 1);
    t.push(true);
    for &b in bits {
        t.push(b);
        t.push(b);
    }
    t
}

/// Compiles a `T`-pattern into a schedule: explore on 1, wait `E` on 0.
pub(crate) fn pattern_schedule(pattern: &[bool], explorer: &Arc<dyn Explorer>) -> Schedule {
    let e = explorer.bound() as u64;
    Schedule::new(
        pattern
            .iter()
            .map(|&b| {
                if b {
                    Phase::Explore(Arc::clone(explorer))
                } else {
                    Phase::Wait(e)
                }
            })
            .collect(),
    )
}

/// Algorithm `Fast`: transform the label to the prefix-free `M(ℓ)`, then
/// execute `T = (1, S₁, S₁, …, S_m, S_m)` — exploring in 1-blocks, waiting
/// in 0-blocks, each block lasting `E` rounds.
///
/// Guarantees (Proposition 2.2, arbitrary wake-up delays):
///
/// * time at most `(4⌊log(L−1)⌋ + 9)E`,
/// * cost at most `(8⌊log(L−1)⌋ + 18)E` (twice the time).
///
/// # Examples
///
/// ```
/// use rendezvous_core::{Fast, Label, LabelSpace, RendezvousAlgorithm};
/// use rendezvous_explore::OrientedRingExplorer;
/// use rendezvous_graph::generators;
/// use std::sync::Arc;
///
/// let g = Arc::new(generators::oriented_ring(8).unwrap());
/// let explore = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
/// let alg = Fast::new(g, explore, LabelSpace::new(16).unwrap());
/// assert_eq!(alg.time_bound(), (4 * 3 + 9) * 7);
/// // M(1) = 1101 -> T = 1 11 11 00 11, 9 phases:
/// let s = alg.schedule(Label::new(1).unwrap()).unwrap();
/// assert_eq!(s.phases().len(), 9);
/// assert_eq!(s.explore_phases(), 7);
/// ```
#[derive(Debug, Clone)]
pub struct Fast {
    graph: Arc<PortLabeledGraph>,
    explorer: Arc<dyn Explorer>,
    space: LabelSpace,
}

impl Fast {
    /// Creates the algorithm.
    #[must_use]
    pub fn new(
        graph: Arc<PortLabeledGraph>,
        explorer: Arc<dyn Explorer>,
        space: LabelSpace,
    ) -> Self {
        Fast {
            graph,
            explorer,
            space,
        }
    }
}

impl RendezvousAlgorithm for Fast {
    fn name(&self) -> &'static str {
        "fast"
    }

    fn label_space(&self) -> LabelSpace {
        self.space
    }

    fn graph(&self) -> &Arc<PortLabeledGraph> {
        &self.graph
    }

    fn exploration_bound(&self) -> u64 {
        self.explorer.bound() as u64
    }

    fn schedule(&self, label: Label) -> Result<Schedule, CoreError> {
        self.space.check(label)?;
        let pattern = doubled_pattern(ModifiedLabel::of(label).bits());
        Ok(pattern_schedule(&pattern, &self.explorer))
    }

    /// `(4⌊log(L−1)⌋ + 9) · E` (Proposition 2.2). Saturates at
    /// `u64::MAX`.
    fn time_bound(&self) -> u64 {
        (4 * self.space.floor_log2_l_minus_1() + 9).saturating_mul(self.exploration_bound())
    }

    /// `(8⌊log(L−1)⌋ + 18) · E` (Proposition 2.2; twice the time since
    /// both agents traverse at most one edge per round). Saturates at
    /// `u64::MAX`.
    fn cost_bound(&self) -> u64 {
        self.time_bound().saturating_mul(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendezvous_explore::OrientedRingExplorer;
    use rendezvous_graph::{generators, NodeId};
    use rendezvous_sim::{AgentSpec, Simulation};

    fn ring_alg(n: usize, l: u64) -> Fast {
        let g = Arc::new(generators::oriented_ring(n).unwrap());
        let ex: Arc<dyn Explorer> = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
        Fast::new(g, ex, LabelSpace::new(l).unwrap())
    }

    #[test]
    fn doubled_pattern_shape() {
        assert_eq!(
            doubled_pattern(&[true, false]),
            vec![true, true, true, false, false]
        );
        assert_eq!(doubled_pattern(&[]), vec![true]);
    }

    #[test]
    fn fast_meets_exhaustively_with_delays() {
        let alg = ring_alg(6, 6);
        let e = alg.exploration_bound();
        for la in 1..=6u64 {
            for lb in 1..=6u64 {
                if la == lb {
                    continue;
                }
                for pa in 0..6 {
                    for pb in 0..6 {
                        if pa == pb {
                            continue;
                        }
                        for delay in [0, 1, e, e + 1] {
                            let a = alg.agent(Label::new(la).unwrap(), NodeId::new(pa)).unwrap();
                            let b = alg.agent(Label::new(lb).unwrap(), NodeId::new(pb)).unwrap();
                            let out = Simulation::new(alg.graph())
                                .agent(Box::new(a), AgentSpec::immediate(NodeId::new(pa)))
                                .agent(Box::new(b), AgentSpec::delayed(NodeId::new(pb), delay))
                                .max_rounds(4 * alg.time_bound())
                                .run()
                                .unwrap();
                            let t = out.time().unwrap_or_else(|| {
                                panic!("no meeting: ℓ=({la},{lb}), p=({pa},{pb}), τ={delay}")
                            });
                            assert!(t <= alg.time_bound());
                            assert!(out.cost() <= alg.cost_bound());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fast_meeting_by_first_difference_block() {
        // The proof's sharper claim: meeting by round (2j+1)E where j is
        // the first index at which the modified labels differ.
        let alg = ring_alg(8, 8);
        let e = alg.exploration_bound();
        for (la, lb) in [(1u64, 2u64), (3, 5), (2, 6), (7, 8)] {
            let ma = crate::ModifiedLabel::of(Label::new(la).unwrap());
            let mb = crate::ModifiedLabel::of(Label::new(lb).unwrap());
            let j = (0..ma.len().min(mb.len()))
                .find(|&i| ma.bits()[i] != mb.bits()[i])
                .expect("prefix-free")
                + 1; // paper indexes from 1
            let a = alg.agent(Label::new(la).unwrap(), NodeId::new(0)).unwrap();
            let b = alg.agent(Label::new(lb).unwrap(), NodeId::new(3)).unwrap();
            let out = Simulation::new(alg.graph())
                .agent(Box::new(a), AgentSpec::immediate(NodeId::new(0)))
                .agent(Box::new(b), AgentSpec::immediate(NodeId::new(3)))
                .max_rounds(4 * alg.time_bound())
                .run()
                .unwrap();
            assert!(out.time().unwrap() <= (2 * j as u64 + 1) * e);
        }
    }

    #[test]
    fn fast_schedule_explore_count_tracks_label_weight() {
        let alg = ring_alg(5, 8);
        // ℓ=7 (111): M = 11111101, T has 1 + 2*weight(M) ones = 1 + 2*7.
        let s = alg.schedule(Label::new(7).unwrap()).unwrap();
        assert_eq!(s.explore_phases(), 15);
        // ℓ=4 (100): M = 11000001, ones in M = 3 -> 7 explore phases.
        let s = alg.schedule(Label::new(4).unwrap()).unwrap();
        assert_eq!(s.explore_phases(), 7);
    }

    #[test]
    fn fast_is_faster_than_cheap_for_large_l() {
        let g = Arc::new(generators::oriented_ring(12).unwrap());
        let ex: Arc<dyn Explorer> = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
        let space = LabelSpace::new(1024).unwrap();
        let fast = Fast::new(g.clone(), ex.clone(), space);
        let cheap = crate::Cheap::new(g, ex, space);
        assert!(fast.time_bound() < cheap.time_bound());
        assert!(fast.cost_bound() > cheap.cost_bound());
    }
}
