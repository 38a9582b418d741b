//! Procedure `Trim(A)` (§3): zeroing the rounds an algorithm never uses.
//!
//! For each label `x`, `m_x` is the latest round, over all partner labels
//! and all pairs of start positions (simultaneous start), in which `x` is
//! still unmet in some execution. Everything after `m_x` in `x`'s behaviour
//! vector is dead code and is zeroed; the lower-bound arguments then reason
//! about the non-zero entries that remain.
//!
//! The executions run through the workspace's sweep pipeline: one pair
//! [`Grid`] per label pair (all ordered start pairs, delay 0), swept by a
//! [`Runner`] through a [`BatchExecutor`], so each `(label, start)` plan
//! compiles once for the whole procedure.

use crate::{behavior_vector, oriented_ring_size, BehaviorVector, LowerBoundError};
use rendezvous_core::{Label, RendezvousAlgorithm};
use rendezvous_runner::{BatchExecutor, Grid, GroupStats, PieceExecutor, Runner, Workload};

/// The result of trimming: per-label horizons `m_x`, trimmed behaviour
/// vectors, and the worst time/cost observed across all executions
/// (the latter yields the measured slack `φ` of Theorem 3.1).
#[derive(Debug, Clone)]
pub struct TrimmedAlgorithm {
    /// `vectors[x - 1]` = trimmed behaviour vector of label `x` (length
    /// `max_time`, zeroed after `m_x`).
    pub vectors: Vec<BehaviorVector>,
    /// `horizons[x - 1]` = `m_x`.
    pub horizons: Vec<u64>,
    /// Worst meeting round over all executions (simultaneous start).
    pub max_time: u64,
    /// Worst total cost over all executions.
    pub max_cost: u64,
}

impl TrimmedAlgorithm {
    /// The trimmed vector of a label.
    ///
    /// # Panics
    ///
    /// Panics if the label is outside the analyzed space.
    #[must_use]
    pub fn vector(&self, label: Label) -> &BehaviorVector {
        &self.vectors[(label.get() - 1) as usize]
    }

    /// `m_x` for a label.
    ///
    /// # Panics
    ///
    /// Panics if the label is outside the analyzed space.
    #[must_use]
    pub fn horizon(&self, label: Label) -> u64 {
        self.horizons[(label.get() - 1) as usize]
    }

    /// The measured slack `φ = max(0, max_cost − E)`: the algorithm's cost
    /// is `E + φ` in the worst case. Theorem 3.1 applies when `φ ∈ o(E)`.
    #[must_use]
    pub fn phi(&self, exploration_bound: u64) -> u64 {
        self.max_cost.saturating_sub(exploration_bound)
    }
}

/// Runs procedure `Trim` for `algorithm` on its oriented ring, exhausting
/// all unordered label pairs and all ordered pairs of distinct start
/// positions, with simultaneous start (the lower-bound scenario).
///
/// `horizon` caps each execution; it must exceed the algorithm's time
/// bound or [`LowerBoundError::NoMeeting`] is returned.
///
/// # Errors
///
/// * [`LowerBoundError::NotAnOrientedRing`] for non-ring graphs,
/// * [`LowerBoundError::NoMeeting`] if some execution fails to meet
///   (incorrect algorithm or too-small horizon); it names the first such
///   execution in (label pair, start pair) order.
pub fn trim(
    algorithm: &dyn RendezvousAlgorithm,
    horizon: u64,
) -> Result<TrimmedAlgorithm, LowerBoundError> {
    trim_on(
        algorithm,
        horizon,
        &Runner::sequential(),
        &BatchExecutor::new(algorithm),
    )
}

/// [`trim`] through the caller's runner and executor, so an audit that
/// runs executions of its own shares one plan cache with the trim.
pub(crate) fn trim_on(
    algorithm: &dyn RendezvousAlgorithm,
    horizon: u64,
    runner: &Runner,
    executor: &BatchExecutor<'_>,
) -> Result<TrimmedAlgorithm, LowerBoundError> {
    let graph = algorithm.graph();
    oriented_ring_size(graph)?;
    let l = algorithm.label_space().size();
    let mut horizons = vec![0u64; l as usize];
    let mut max_time = 0u64;
    let mut max_cost = 0u64;
    for x in 1..=l {
        for y in (x + 1)..=l {
            let grid = Grid::new(horizon)
                .label_pairs_ordered(&[(x, y)])
                .all_start_pairs(graph);
            let stats = meeting_stats(runner, executor, &grid)?;
            horizons[(x - 1) as usize] = horizons[(x - 1) as usize].max(stats.max_time);
            horizons[(y - 1) as usize] = horizons[(y - 1) as usize].max(stats.max_time);
            max_time = max_time.max(stats.max_time);
            max_cost = max_cost.max(stats.max_cost);
        }
    }
    let mut vectors = Vec::with_capacity(l as usize);
    for x in 1..=l {
        let label = Label::new(x).expect(">0");
        let mut v = behavior_vector(algorithm, label, max_time)?;
        v.truncate_after(horizons[(x - 1) as usize] as usize);
        vectors.push(v);
    }
    Ok(TrimmedAlgorithm {
        vectors,
        horizons,
        max_time,
        max_cost,
    })
}

/// Sweeps every execution of a pair `grid` and returns its statistics,
/// or [`LowerBoundError::NoMeeting`] naming the first execution (in grid
/// order) that did not meet.
pub(crate) fn meeting_stats(
    runner: &Runner,
    executor: &BatchExecutor<'_>,
    grid: &Grid,
) -> Result<GroupStats, LowerBoundError> {
    let stats = runner.sweep(grid, executor)?.solo();
    if stats.failures == 0 {
        return Ok(stats);
    }
    // The fold keeps no failure witness; rerun the grid to name one.
    for piece in grid.pieces(0, grid.size()) {
        let (outcomes, _) = executor.run_piece(runner, &piece)?;
        if let Some(miss) = outcomes.iter().find(|o| o.time.is_none()) {
            let s = &miss.scenario;
            return Err(LowerBoundError::NoMeeting {
                labels: (s.first_label(), s.second_label()),
                starts: (s.start_a().index(), s.start_b().index()),
                horizon: s.horizon,
            });
        }
    }
    unreachable!("the sweep counted a failed execution")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendezvous_core::{Cheap, CheapSimultaneous, Fast, LabelSpace};
    use rendezvous_explore::{Explorer, OrientedRingExplorer};
    use rendezvous_graph::{generators, NodeId, PortLabeledGraph};
    use rendezvous_runner::{AlgorithmExecutor, Executor, Scenario};
    use std::sync::Arc;

    fn ring(n: usize) -> (Arc<PortLabeledGraph>, Arc<dyn Explorer>) {
        let g = Arc::new(generators::oriented_ring(n).unwrap());
        let ex: Arc<dyn Explorer> = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
        (g, ex)
    }

    fn cheap_sim(n: usize, l: u64) -> CheapSimultaneous {
        let (g, ex) = ring(n);
        CheapSimultaneous::new(g, ex, LabelSpace::new(l).unwrap())
    }

    /// `Trim`'s horizons and extremes by the four-deep loop over
    /// (x, y, px, py), each execution on the stepped engine — the
    /// reference the batched sweep must reproduce.
    fn stepped_trim(alg: &dyn RendezvousAlgorithm, horizon: u64) -> (Vec<u64>, u64, u64) {
        let executor = AlgorithmExecutor::new(alg);
        let n = alg.graph().node_count();
        let l = alg.label_space().size();
        let mut horizons = vec![0u64; l as usize];
        let (mut max_time, mut max_cost) = (0, 0);
        for x in 1..=l {
            for y in (x + 1)..=l {
                for px in 0..n {
                    for py in (0..n).filter(|&py| py != px) {
                        let scenario =
                            Scenario::pair(x, y, NodeId::new(px), NodeId::new(py), 0, horizon);
                        let out = executor.run(&scenario).unwrap();
                        let t = out.time.expect("the reference horizon suffices");
                        horizons[(x - 1) as usize] = horizons[(x - 1) as usize].max(t);
                        horizons[(y - 1) as usize] = horizons[(y - 1) as usize].max(t);
                        max_time = max_time.max(t);
                        max_cost = max_cost.max(out.cost);
                    }
                }
            }
        }
        (horizons, max_time, max_cost)
    }

    #[test]
    fn trim_equals_the_stepped_reference() {
        for n in [6, 12] {
            for l in [2, 3, 5] {
                let (g, ex) = ring(n);
                let space = LabelSpace::new(l).unwrap();
                let algorithms: [Box<dyn RendezvousAlgorithm>; 3] = [
                    Box::new(Cheap::new(g.clone(), ex.clone(), space)),
                    Box::new(CheapSimultaneous::new(g.clone(), ex.clone(), space)),
                    Box::new(Fast::new(g, ex, space)),
                ];
                for alg in &algorithms {
                    let horizon = 10 * alg.time_bound();
                    let t = trim(alg.as_ref(), horizon).unwrap();
                    let (horizons, max_time, max_cost) = stepped_trim(alg.as_ref(), horizon);
                    let at = format!("{} on the {n}-ring, L = {l}", alg.name());
                    assert_eq!(t.horizons, horizons, "{at}");
                    assert_eq!(t.max_time, max_time, "{at}");
                    assert_eq!(t.max_cost, max_cost, "{at}");
                }
            }
        }
    }

    #[test]
    fn trim_of_cheap_simultaneous() {
        let alg = cheap_sim(6, 4);
        let t = trim(&alg, 10 * alg.time_bound()).unwrap();
        let e = alg.exploration_bound();
        // Cost of the simultaneous variant never exceeds E: φ = 0.
        assert!(t.max_cost <= e, "cost {} > E {}", t.max_cost, e);
        assert_eq!(t.phi(e), 0);
        // Worst time is within the paper's bound and at least E
        // (the adversary can always force a full exploration).
        assert!(t.max_time <= alg.time_bound());
        assert!(t.max_time >= e);
        // Smaller labels stop being useful earlier: label 1 explores in
        // rounds 1..E so m_1 <= ... every label's vector is bounded by its
        // own schedule plus the partner's; sanity: horizons nonzero.
        for h in &t.horizons {
            assert!(*h > 0);
        }
    }

    #[test]
    fn trimmed_vectors_are_zero_after_horizon() {
        let alg = cheap_sim(6, 3);
        let t = trim(&alg, 10 * alg.time_bound()).unwrap();
        for x in 1..=3u64 {
            let label = Label::new(x).unwrap();
            let v = t.vector(label);
            let m = t.horizon(label) as usize;
            assert!(v.entries()[m.min(v.len())..].iter().all(|&e| e == 0));
        }
    }

    #[test]
    fn no_meeting_is_reported() {
        let alg = cheap_sim(8, 4);
        // horizon far too small for label pair (3,4) to meet
        let err = trim(&alg, 3).unwrap_err();
        // The first failing execution in (x, y, px, py) order.
        assert_eq!(
            err,
            LowerBoundError::NoMeeting {
                labels: (1, 2),
                starts: (0, 4),
                horizon: 3,
            }
        );
    }

    #[test]
    fn trim_of_fast_has_nonzero_phi() {
        // Fast costs far more than E: φ > 0, so Theorem 3.1's premise
        // fails for it — exactly the tradeoff the paper describes.
        let (g, ex) = ring(6);
        let alg = Fast::new(g, ex, LabelSpace::new(4).unwrap());
        let t = trim(&alg, 10 * alg.time_bound()).unwrap();
        assert!(t.phi(alg.exploration_bound()) > 0);
    }
}
