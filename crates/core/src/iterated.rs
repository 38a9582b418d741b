//! Iterated rendezvous for agents with **no** knowledge of the network size
//! (paper, Conclusion).
//!
//! "Each of our algorithms can be modified by iterating the original
//! algorithm using `EXPLORE = EXPLORE_i` and `E = E_i` in the i-th
//! iteration. Iterations proceed until rendezvous, which will occur when
//! `2^i` is at least the actual size of the graph. Due to telescoping, the
//! time and cost complexities will not change."
//!
//! One detail the paper leaves to the reader ("the proofs have to be
//! slightly modified"): the base algorithms' schedule lengths depend on the
//! agent's label, so naive concatenation would desynchronize the agents'
//! iteration boundaries. We therefore **pad** every iteration to the
//! label-independent maximum length (the schedule of label `L`), which
//! keeps both agents inside iteration `i` during the same global rounds
//! (for simultaneous start) and changes neither complexity: the padding is
//! waiting, so cost is unaffected, and it stretches each iteration by at
//! most the length the worst label already had. Experiment X8 validates
//! the construction empirically under delays as well.

use crate::{
    Cheap, CoreError, Fast, FastWithRelabeling, Label, LabelSpace, Phase, RendezvousAlgorithm,
    Schedule,
};
use rendezvous_explore::ExplorationFamily;
use rendezvous_graph::PortLabeledGraph;
use std::sync::Arc;

/// Which base algorithm to iterate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseAlgorithm {
    /// Iterate [`Cheap`].
    Cheap,
    /// Iterate [`Fast`].
    Fast,
    /// Iterate [`FastWithRelabeling`] with the given weight.
    FastWithRelabeling(u64),
}

impl BaseAlgorithm {
    fn instantiate(
        self,
        graph: Arc<PortLabeledGraph>,
        explorer: Arc<dyn rendezvous_explore::Explorer>,
        space: LabelSpace,
    ) -> Result<Box<dyn RendezvousAlgorithm>, CoreError> {
        Ok(match self {
            BaseAlgorithm::Cheap => Box::new(Cheap::new(graph, explorer, space)),
            BaseAlgorithm::Fast => Box::new(Fast::new(graph, explorer, space)),
            BaseAlgorithm::FastWithRelabeling(w) => {
                Box::new(FastWithRelabeling::new(graph, explorer, space, w)?)
            }
        })
    }
}

/// The unknown-`E` wrapper: concatenates padded runs of the base algorithm
/// over the levels of an [`ExplorationFamily`].
///
/// # Examples
///
/// ```
/// use rendezvous_core::{BaseAlgorithm, Iterated, Label, LabelSpace, RendezvousAlgorithm};
/// use rendezvous_explore::RingDoublingFamily;
/// use rendezvous_graph::generators;
/// use std::sync::Arc;
///
/// let g = Arc::new(generators::oriented_ring(6).unwrap());
/// let alg = Iterated::new(
///     g,
///     Arc::new(RingDoublingFamily::new()),
///     LabelSpace::new(4).unwrap(),
///     BaseAlgorithm::Fast,
///     1..=4, // levels: E_i = 1, 3, 7, 15
/// ).unwrap();
/// assert!(alg.schedule(Label::new(2).unwrap()).is_ok());
/// ```
#[derive(Debug)]
pub struct Iterated {
    graph: Arc<PortLabeledGraph>,
    family: Arc<dyn ExplorationFamily>,
    space: LabelSpace,
    levels: std::ops::RangeInclusive<u32>,
    /// The base algorithm at each level of `levels`, in order, built once
    /// so every label's schedule shares each level's explorer.
    level_algorithms: Vec<Box<dyn RendezvousAlgorithm>>,
}

impl Iterated {
    /// Creates the iterated algorithm over the given inclusive level range.
    ///
    /// The simulation needs a finite schedule, so the caller picks the top
    /// level; correctness requires `2^max_level ≥ n`. Semantically the
    /// paper's construction is the limit `max_level → ∞`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoLevels`] for an empty range,
    /// * weight errors propagated from the base algorithm.
    pub fn new(
        graph: Arc<PortLabeledGraph>,
        family: Arc<dyn ExplorationFamily>,
        space: LabelSpace,
        base: BaseAlgorithm,
        levels: std::ops::RangeInclusive<u32>,
    ) -> Result<Self, CoreError> {
        if levels.is_empty() {
            return Err(CoreError::NoLevels);
        }
        let level_algorithms = levels
            .clone()
            .map(|level| base.instantiate(Arc::clone(&graph), family.level(level), space))
            .collect::<Result<_, _>>()?;
        Ok(Iterated {
            graph,
            family,
            space,
            levels,
            level_algorithms,
        })
    }

    /// The level whose class first contains `n`-node graphs — the iteration
    /// in which the paper guarantees rendezvous.
    #[must_use]
    pub fn decisive_level(&self, n: usize) -> u32 {
        self.family.level_for(n)
    }

    /// Sum of padded iteration lengths up to and including `level` — the
    /// round by which rendezvous is guaranteed if the decisive level is
    /// `level` (simultaneous start).
    #[must_use]
    pub fn guaranteed_round(&self, level: u32) -> u64 {
        let max_label = Label::new(self.space.size()).expect("L >= 2");
        self.levels
            .clone()
            .zip(&self.level_algorithms)
            .take_while(|&(i, _)| i <= level)
            .map(|(_, alg)| {
                alg.schedule(max_label)
                    .expect("max label is in space")
                    .total_rounds()
            })
            .sum()
    }
}

impl RendezvousAlgorithm for Iterated {
    fn name(&self) -> &'static str {
        "iterated"
    }

    fn label_space(&self) -> LabelSpace {
        self.space
    }

    fn graph(&self) -> &Arc<PortLabeledGraph> {
        &self.graph
    }

    /// The bound of the **top** level (the only `E` this agent ever fully
    /// trusts; earlier levels are speculative).
    fn exploration_bound(&self) -> u64 {
        self.family.bound(*self.levels.end()) as u64
    }

    fn schedule(&self, label: Label) -> Result<Schedule, CoreError> {
        self.space.check(label)?;
        let max_label = Label::new(self.space.size()).expect("L >= 2");
        let mut out = Schedule::default();
        for alg in &self.level_algorithms {
            let mine = alg.schedule(label)?;
            let longest = alg.schedule(max_label)?.total_rounds();
            let pad = longest - mine.total_rounds();
            out.extend(mine);
            if pad > 0 {
                out.extend(Schedule::new(vec![Phase::Wait(pad)]));
            }
        }
        Ok(out)
    }

    /// Total padded length over all levels: a finite, honest bound. For
    /// doubling families this telescopes to at most twice the top level's
    /// base-algorithm bound (the paper's "complexities do not change").
    fn time_bound(&self) -> u64 {
        self.guaranteed_round(*self.levels.end())
    }

    /// Sum of base cost bounds over the levels; telescopes like the time.
    fn cost_bound(&self) -> u64 {
        self.level_algorithms
            .iter()
            .map(|alg| alg.cost_bound())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendezvous_explore::RingDoublingFamily;
    use rendezvous_graph::{generators, NodeId};
    use rendezvous_sim::{AgentSpec, Simulation};

    fn iterated_on_ring(n: usize, l: u64, base: BaseAlgorithm) -> Iterated {
        let g = Arc::new(generators::oriented_ring(n).unwrap());
        let fam = Arc::new(RingDoublingFamily::new());
        let top = fam.level_for(n) + 1; // one spare level for good measure
        Iterated::new(g, fam, LabelSpace::new(l).unwrap(), base, 1..=top).unwrap()
    }

    fn meets(alg: &Iterated, la: u64, lb: u64, pa: usize, pb: usize, delay: u64) -> (u64, u64) {
        let a = alg.agent(Label::new(la).unwrap(), NodeId::new(pa)).unwrap();
        let b = alg.agent(Label::new(lb).unwrap(), NodeId::new(pb)).unwrap();
        let out = Simulation::new(alg.graph())
            .agent(Box::new(a), AgentSpec::immediate(NodeId::new(pa)))
            .agent(Box::new(b), AgentSpec::delayed(NodeId::new(pb), delay))
            .max_rounds(4 * alg.time_bound() + 4 * delay)
            .run()
            .unwrap();
        (
            out.time()
                .unwrap_or_else(|| panic!("no meeting ℓ=({la},{lb}) p=({pa},{pb}) τ={delay}")),
            out.cost(),
        )
    }

    #[test]
    fn iterated_fast_meets_on_rings_without_size_knowledge() {
        let alg = iterated_on_ring(6, 4, BaseAlgorithm::Fast);
        for (la, lb) in [(1u64, 2u64), (2, 3), (1, 4), (3, 4)] {
            for (pa, pb) in [(0usize, 3usize), (1, 5), (4, 2)] {
                for delay in [0u64, 1, 7] {
                    let (t, _c) = meets(&alg, la, lb, pa, pb, delay);
                    assert!(t <= alg.time_bound() + delay);
                }
            }
        }
    }

    #[test]
    fn iterated_cheap_meets_and_stays_cheap() {
        let alg = iterated_on_ring(5, 3, BaseAlgorithm::Cheap);
        let (_t, c) = meets(&alg, 1, 3, 0, 2, 0);
        assert!(c <= alg.cost_bound());
        // telescoping: cost across all levels stays O(E_top)
        let e_top = alg.exploration_bound();
        assert!(alg.cost_bound() <= 6 * e_top + 6); // 3E_i summed over doubling E_i <= 6E_top
    }

    #[test]
    fn iterated_relabeling_works() {
        let alg = iterated_on_ring(5, 6, BaseAlgorithm::FastWithRelabeling(2));
        let (t, c) = meets(&alg, 2, 5, 1, 3, 0);
        assert!(t <= alg.time_bound());
        assert!(c <= alg.cost_bound());
    }

    #[test]
    fn empty_level_range_rejected() {
        let g = Arc::new(generators::oriented_ring(4).unwrap());
        let fam = Arc::new(RingDoublingFamily::new());
        #[allow(clippy::reversed_empty_ranges)]
        let r = Iterated::new(
            g,
            fam,
            LabelSpace::new(2).unwrap(),
            BaseAlgorithm::Fast,
            3..=2,
        );
        assert!(matches!(r, Err(CoreError::NoLevels)));
    }

    #[test]
    fn schedules_of_all_labels_have_equal_length() {
        let alg = iterated_on_ring(6, 5, BaseAlgorithm::Cheap);
        let lens: std::collections::HashSet<u64> = (1..=5)
            .map(|l| alg.schedule(Label::new(l).unwrap()).unwrap().total_rounds())
            .collect();
        assert_eq!(lens.len(), 1, "padding must equalize iteration boundaries");
    }

    /// Every label's schedule runs the explorer its level was built
    /// with: one `Arc` per level, however many labels, so compiles keyed
    /// by explorer identity happen once per level.
    #[test]
    fn labels_share_each_levels_explorer() {
        let alg = iterated_on_ring(12, 6, BaseAlgorithm::Fast);
        let explorers = |l: u64| -> Vec<Arc<dyn rendezvous_explore::Explorer>> {
            let schedule = alg.schedule(Label::new(l).unwrap()).unwrap();
            schedule
                .phases()
                .iter()
                .filter_map(|phase| match phase {
                    Phase::Explore(ex) => Some(Arc::clone(ex)),
                    Phase::Wait(_) => None,
                })
                .collect()
        };
        // Labels 1 and 2 both begin with an explore phase at the first level.
        assert!(Arc::ptr_eq(&explorers(1)[0], &explorers(2)[0]));
        let mut distinct: Vec<Arc<dyn rendezvous_explore::Explorer>> = Vec::new();
        for l in 1..=6 {
            for ex in explorers(l) {
                if !distinct.iter().any(|d| Arc::ptr_eq(d, &ex)) {
                    distinct.push(ex);
                }
            }
        }
        assert_eq!(distinct.len(), alg.levels.clone().count());
    }

    #[test]
    fn decisive_level_matches_family() {
        let alg = iterated_on_ring(6, 3, BaseAlgorithm::Fast);
        assert_eq!(alg.decisive_level(6), 3);
        assert!(alg.guaranteed_round(3) <= alg.time_bound());
    }
}
