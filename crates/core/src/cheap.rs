//! Algorithm `Cheap` (§2, Algorithm 1) and its simultaneous-start variant:
//! the cost-optimal end of the tradeoff curve.

use crate::{CoreError, Label, LabelSpace, Phase, RendezvousAlgorithm, Schedule};
use rendezvous_explore::Explorer;
use rendezvous_graph::PortLabeledGraph;
use std::sync::Arc;

/// The simultaneous-start version of `Cheap`: "Agent X waits `(ℓ_X − 1)E`
/// rounds and then explores the graph once."
///
/// Guarantees (paper §2, for **simultaneous start only**):
///
/// * cost exactly at most `E` (a single exploration),
/// * time at most `ℓE ≤ (L − 1)E` where `ℓ` is the smaller label.
///
/// Under arbitrary wake-up delays this algorithm is *incorrect* (both
/// agents can finish their single exploration without meeting); use
/// [`Cheap`] there.
///
/// # Examples
///
/// ```
/// use rendezvous_core::{CheapSimultaneous, Label, LabelSpace, RendezvousAlgorithm};
/// use rendezvous_explore::OrientedRingExplorer;
/// use rendezvous_graph::generators;
/// use std::sync::Arc;
///
/// let g = Arc::new(generators::oriented_ring(8).unwrap());
/// let explore = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
/// let space = LabelSpace::new(4).unwrap();
/// let alg = CheapSimultaneous::new(g, explore, space);
/// assert_eq!(alg.cost_bound(), 7);           // E
/// assert_eq!(alg.time_bound(), 3 * 7);       // (L-1)·E
/// let s = alg.schedule(Label::new(3).unwrap()).unwrap();
/// assert_eq!(s.total_rounds(), 2 * 7 + 7);   // wait (ℓ-1)E, explore E
/// ```
#[derive(Debug, Clone)]
pub struct CheapSimultaneous {
    graph: Arc<PortLabeledGraph>,
    explorer: Arc<dyn Explorer>,
    space: LabelSpace,
}

impl CheapSimultaneous {
    /// Creates the algorithm.
    #[must_use]
    pub fn new(
        graph: Arc<PortLabeledGraph>,
        explorer: Arc<dyn Explorer>,
        space: LabelSpace,
    ) -> Self {
        CheapSimultaneous {
            graph,
            explorer,
            space,
        }
    }
}

impl RendezvousAlgorithm for CheapSimultaneous {
    fn name(&self) -> &'static str {
        "cheap-simultaneous"
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
        let e = self.exploration_bound();
        Ok(Schedule::new(vec![
            Phase::Wait((label.get() - 1) * e),
            Phase::Explore(Arc::clone(&self.explorer)),
        ]))
    }

    /// `(L − 1) · E`: the smaller of two distinct labels is at most `L − 1`
    /// and the meeting happens by round `ℓE`. Saturates at `u64::MAX`.
    fn time_bound(&self) -> u64 {
        (self.space.size() - 1).saturating_mul(self.exploration_bound())
    }

    /// Exactly one exploration: `E`.
    fn cost_bound(&self) -> u64 {
        self.exploration_bound()
    }
}

/// Algorithm `Cheap` (Algorithm 1): `EXPLORE; wait 2ℓE rounds; EXPLORE`.
///
/// Guarantees (Proposition 2.1, arbitrary wake-up delays):
///
/// * cost at most `3E`,
/// * time at most `(2ℓ + 3)E ≤ (2L + 1)E` (with `ℓ` the smaller label).
///
/// # Examples
///
/// ```
/// use rendezvous_core::{Cheap, Label, LabelSpace, RendezvousAlgorithm};
/// use rendezvous_explore::OrientedRingExplorer;
/// use rendezvous_graph::generators;
/// use std::sync::Arc;
///
/// let g = Arc::new(generators::oriented_ring(6).unwrap());
/// let explore = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
/// let alg = Cheap::new(g, explore, LabelSpace::new(8).unwrap());
/// assert_eq!(alg.cost_bound(), 3 * 5);
/// assert_eq!(alg.time_bound(), (2 * 8 + 1) * 5);
/// ```
#[derive(Debug, Clone)]
pub struct Cheap {
    graph: Arc<PortLabeledGraph>,
    explorer: Arc<dyn Explorer>,
    space: LabelSpace,
}

impl Cheap {
    /// Creates the algorithm.
    #[must_use]
    pub fn new(
        graph: Arc<PortLabeledGraph>,
        explorer: Arc<dyn Explorer>,
        space: LabelSpace,
    ) -> Self {
        Cheap {
            graph,
            explorer,
            space,
        }
    }
}

impl RendezvousAlgorithm for Cheap {
    fn name(&self) -> &'static str {
        "cheap"
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
        let e = self.exploration_bound();
        Ok(Schedule::new(vec![
            Phase::Explore(Arc::clone(&self.explorer)),
            Phase::Wait(2 * label.get() * e),
            Phase::Explore(Arc::clone(&self.explorer)),
        ]))
    }

    /// `(2L + 1) · E` (Proposition 2.1). Saturates at `u64::MAX`, so a
    /// label space too large for the bound to fit never yields a small
    /// wrapped one.
    fn time_bound(&self) -> u64 {
        let l = self.space.size();
        l.saturating_mul(2)
            .saturating_add(1)
            .saturating_mul(self.exploration_bound())
    }

    /// `3E` (Proposition 2.1).
    fn cost_bound(&self) -> u64 {
        3 * self.exploration_bound()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendezvous_explore::OrientedRingExplorer;
    use rendezvous_graph::{generators, NodeId};
    use rendezvous_sim::{AgentSpec, Simulation};

    fn ring_setup(n: usize, l: u64) -> (Arc<PortLabeledGraph>, Arc<dyn Explorer>, LabelSpace) {
        let g = Arc::new(generators::oriented_ring(n).unwrap());
        let ex: Arc<dyn Explorer> = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
        (g, ex, LabelSpace::new(l).unwrap())
    }

    fn run_pair(
        alg: &dyn RendezvousAlgorithm,
        la: u64,
        lb: u64,
        pa: usize,
        pb: usize,
        delay_b: u64,
    ) -> rendezvous_sim::Outcome {
        let a = alg.agent(Label::new(la).unwrap(), NodeId::new(pa)).unwrap();
        let b = alg.agent(Label::new(lb).unwrap(), NodeId::new(pb)).unwrap();
        Simulation::new(alg.graph())
            .agent(Box::new(a), AgentSpec::immediate(NodeId::new(pa)))
            .agent(Box::new(b), AgentSpec::delayed(NodeId::new(pb), delay_b))
            .max_rounds(10 * alg.time_bound() + 1_000)
            .run()
            .unwrap()
    }

    #[test]
    fn cheap_simultaneous_meets_within_bounds_exhaustively() {
        let (g, ex, space) = ring_setup(7, 4);
        let alg = CheapSimultaneous::new(g.clone(), ex, space);
        for la in 1..=4u64 {
            for lb in 1..=4u64 {
                if la == lb {
                    continue;
                }
                for pa in 0..7 {
                    for pb in 0..7 {
                        if pa == pb {
                            continue;
                        }
                        let out = run_pair(&alg, la, lb, pa, pb, 0);
                        let t = out.time().expect("must meet");
                        assert!(t <= alg.time_bound());
                        assert!(out.cost() <= alg.cost_bound());
                        // the paper's sharper claim: time <= min(la,lb)*E
                        assert!(t <= la.min(lb) * alg.exploration_bound());
                    }
                }
            }
        }
    }

    #[test]
    fn cheap_simultaneous_cost_is_exactly_at_most_e() {
        let (g, ex, space) = ring_setup(9, 5);
        let alg = CheapSimultaneous::new(g.clone(), ex, space);
        let out = run_pair(&alg, 2, 5, 0, 4, 0);
        assert!(out.cost() <= alg.exploration_bound());
    }

    #[test]
    fn cheap_meets_with_arbitrary_delays() {
        let (g, ex, space) = ring_setup(6, 3);
        let alg = Cheap::new(g.clone(), ex, space);
        let e = alg.exploration_bound();
        for (la, lb) in [(1u64, 2u64), (2, 1), (1, 3), (3, 2)] {
            for delay in [0, 1, e / 2, e, e + 1, 2 * e, 4 * e] {
                for pa in 0..6 {
                    for pb in 0..6 {
                        if pa == pb {
                            continue;
                        }
                        let out = run_pair(&alg, la, lb, pa, pb, delay);
                        let t = out.time().expect("must meet");
                        assert!(
                            t <= alg.time_bound(),
                            "time {t} > bound {} for ℓ=({la},{lb}), p=({pa},{pb}), τ={delay}",
                            alg.time_bound()
                        );
                        assert!(out.cost() <= alg.cost_bound());
                        // Prop 2.1's sharper time bound (2ℓ+3)E, ℓ = min:
                        assert!(t <= (2 * la.min(lb) + 3) * e);
                    }
                }
            }
        }
    }

    #[test]
    fn cheap_schedule_shape() {
        let (g, ex, space) = ring_setup(5, 4);
        let alg = Cheap::new(g, ex, space);
        let s = alg.schedule(Label::new(3).unwrap()).unwrap();
        assert_eq!(s.phases().len(), 3);
        assert_eq!(s.explore_phases(), 2);
        assert_eq!(s.total_rounds(), 4 + 2 * 3 * 4 + 4);
    }

    #[test]
    fn label_out_of_space_is_rejected() {
        let (g, ex, space) = ring_setup(5, 2);
        let alg = Cheap::new(g, ex, space);
        assert!(alg.schedule(Label::new(3).unwrap()).is_err());
    }

    #[test]
    fn cheap_simultaneous_time_bound_breaks_under_delays() {
        // The (L-1)·E time bound of the simultaneous-start variant relies
        // on the *smaller*-labelled agent exploring while the larger one
        // still waits. With an adversarial delay, the smaller agent can be
        // asleep, and the larger agent (label L) only explores after
        // waiting (L-1)·E rounds — so the meeting lands at ~L·E, past the
        // bound. This is why Algorithm 1 (Cheap) exists.
        let (g, ex, space) = ring_setup(5, 8);
        let alg = CheapSimultaneous::new(g.clone(), ex, space);
        let e = alg.exploration_bound();
        let a = alg.agent(Label::new(8).unwrap(), NodeId::new(0)).unwrap();
        let b = alg.agent(Label::new(1).unwrap(), NodeId::new(2)).unwrap();
        let out = Simulation::new(&g)
            .agent(Box::new(a), AgentSpec::immediate(NodeId::new(0)))
            .agent(Box::new(b), AgentSpec::delayed(NodeId::new(2), 1_000 * e))
            .max_rounds(2_000 * e)
            .run()
            .unwrap();
        assert!(out.met(), "the sleeping agent is still found");
        assert!(
            out.time().unwrap() > alg.time_bound(),
            "time {} should exceed the simultaneous-start bound {}",
            out.time().unwrap(),
            alg.time_bound()
        );
    }

    /// A label space too large for the time bound to fit in a `u64`
    /// saturates it instead of wrapping it into a short horizon.
    #[test]
    fn time_bounds_saturate_instead_of_wrapping() {
        let (g, ex, _) = ring_setup(6, 2);
        for l in [1u64 << 62, u64::MAX] {
            let space = LabelSpace::new(l).unwrap();
            let cheap = Cheap::new(g.clone(), ex.clone(), space);
            assert_eq!(cheap.time_bound(), u64::MAX, "L = {l}");
            assert_eq!(cheap.cost_bound(), 15);
        }
        let space = LabelSpace::new(u64::MAX).unwrap();
        let simultaneous = CheapSimultaneous::new(g.clone(), ex.clone(), space);
        assert_eq!(simultaneous.time_bound(), u64::MAX);
        // Below the limit the formula is exact: (2L + 1)·E at L = 2^40.
        let space = LabelSpace::new(1 << 40).unwrap();
        assert_eq!(Cheap::new(g, ex, space).time_bound(), ((1 << 41) + 1) * 5);
    }
}
