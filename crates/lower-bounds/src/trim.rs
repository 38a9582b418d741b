//! Procedure `Trim(A)` (§3): zeroing the rounds an algorithm never uses.
//!
//! For each label `x`, `m_x` is the latest round, over all partner labels
//! and all pairs of start positions (simultaneous start), in which `x` is
//! still unmet in some execution. Everything after `m_x` in `x`'s behaviour
//! vector is dead code and is zeroed; the lower-bound arguments then reason
//! about the non-zero entries that remain.
//!
//! The procedure is a sweep and a fold. [`TrimSweep`] is its whole
//! execution space as one [`Workload`] — every label pair `x < y` ×
//! every ordered start pair up to rotation, delay 0 — cut into one fold
//! group per label pair, so it runs through any sweep path (a
//! [`Runner`], a result store, a fabric lease) like every other grid.
//! [`TrimmedAlgorithm::from_report`] folds the horizons and extremes
//! from the swept report's pair groups; [`trim`] composes the two on a
//! sequential runner.

use crate::{behavior_vector, oriented_ring_size, BehaviorVector, LowerBoundError};
use rendezvous_core::{Label, RendezvousAlgorithm};
use rendezvous_runner::{
    BatchExecutor, Fnv1a, Grid, PieceExecutor, Runner, SweepReport, WorkPiece, Workload,
    WorkloadMeta,
};

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
    /// Folds procedure `Trim` from `report`, the full report of `sweep`
    /// (built for `algorithm`): `m_x` is the largest `max_time` over the
    /// pair groups containing `x`.
    ///
    /// A pair group that counted a miss is rerun through `executor` to
    /// name it.
    ///
    /// # Errors
    ///
    /// [`LowerBoundError::NoMeeting`] naming the first execution, in
    /// (label pair, start pair) order, that did not meet; simulation
    /// errors of the behaviour vectors or the rerun.
    ///
    /// # Panics
    ///
    /// Panics if `report` did not fold every unit of `sweep`.
    pub fn from_report<E>(
        algorithm: &dyn RendezvousAlgorithm,
        sweep: &TrimSweep,
        report: &SweepReport,
        executor: &E,
        runner: &Runner,
    ) -> Result<TrimmedAlgorithm, LowerBoundError>
    where
        E: PieceExecutor + ?Sized,
    {
        assert_eq!(
            report.executed(),
            sweep.size(),
            "a trim folds from the full report of its sweep"
        );
        let l = algorithm.label_space().size();
        let mut horizons = vec![0u64; l as usize];
        let mut max_time = 0u64;
        let mut max_cost = 0u64;
        for (block, (&(x, y), key)) in sweep.pairs.iter().zip(&sweep.keys).enumerate() {
            let stats = report.group(key).expect("every label pair has a group");
            if stats.failures > 0 {
                // The fold keeps no failure witness: rerun the block (one
                // piece) to name the first miss.
                let lo = block * sweep.block;
                let piece = sweep.pieces(lo, lo + sweep.block).remove(0);
                let (outcomes, _) = executor.run_piece(runner, &piece)?;
                let miss = outcomes.iter().find(|o| o.time.is_none());
                let s = &miss.expect("the sweep counted a miss").scenario;
                return Err(LowerBoundError::NoMeeting {
                    labels: (s.first_label(), s.second_label()),
                    starts: (s.start_a().index(), s.start_b().index()),
                    horizon: s.horizon,
                });
            }
            horizons[(x - 1) as usize] = horizons[(x - 1) as usize].max(stats.max_time);
            horizons[(y - 1) as usize] = horizons[(y - 1) as usize].max(stats.max_time);
            max_time = max_time.max(stats.max_time);
            max_cost = max_cost.max(stats.max_cost);
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

/// Every execution procedure `Trim` makes, as one [`Workload`]: all
/// label pairs `x < y` (outer) × the ordered start pairs of
/// [`Grid::start_orbits`] (inner), delay 0. Each label pair's block
/// folds under its own key, so one report holds every pair's extremes.
///
/// On the oriented ring every explorer the tables trim with commutes
/// with rotation, so a block is the n − 1 representatives (0, d) of the
/// n(n − 1) start pairs. Rotating both starts of a simultaneous-start
/// execution changes neither its meeting round nor its cost, and the
/// rotations act freely on distinct pairs (each orbit holds n of them),
/// so every pair's `max_time` and `max_cost`, hence every `m_x`, equal
/// the full axis's. The first miss in (x, y, px, py) order is some
/// (0, d) too: a miss from (px, py) is also one from (0, py − px mod n),
/// which comes earlier. An explorer that fails the certificate keeps
/// blocks of all n(n − 1) pairs.
#[derive(Debug, Clone)]
pub struct TrimSweep {
    grid: Grid,
    /// The label pairs, in block order.
    pairs: Vec<(u64, u64)>,
    /// The fold key of each block: the pair's labels, zero-padded so
    /// the report's key order is block order.
    keys: Vec<String>,
    /// Units per block: the grid's start axis.
    block: usize,
}

impl TrimSweep {
    /// The trim sweep of `algorithm` on its oriented ring, each
    /// execution capped at `horizon` rounds.
    ///
    /// # Errors
    ///
    /// [`LowerBoundError::NotAnOrientedRing`] for non-ring graphs.
    pub fn new(
        algorithm: &dyn RendezvousAlgorithm,
        horizon: u64,
    ) -> Result<TrimSweep, LowerBoundError> {
        oriented_ring_size(algorithm.graph())?;
        let l = algorithm.label_space().size();
        let pairs: Vec<(u64, u64)> = (1..=l)
            .flat_map(|x| ((x + 1)..=l).map(move |y| (x, y)))
            .collect();
        let width = l.to_string().len();
        let keys = pairs
            .iter()
            .map(|(x, y)| format!("{x:0width$} {y:0width$}"))
            .collect();
        let grid = Grid::new(horizon)
            .label_pairs_ordered(&pairs)
            .start_orbits(algorithm);
        let block = grid.start_pair_count();
        Ok(TrimSweep {
            grid,
            pairs,
            keys,
            block,
        })
    }
}

impl Workload for TrimSweep {
    fn size(&self) -> usize {
        self.grid.size()
    }

    /// The grid's meta with a trim marker folded into the digest, so a
    /// trim's report is never mistaken for the plain grid's.
    fn meta(&self) -> WorkloadMeta {
        let mut meta = self.grid.meta();
        let mut h = Fnv1a::new();
        h.write_bytes(b"trim");
        h.write_u64(meta.digest);
        meta.digest = h.finish();
        meta
    }

    fn pieces(&self, lo: usize, hi: usize) -> Vec<WorkPiece<'_>> {
        assert!(
            lo <= hi && hi <= self.size(),
            "scenario range {lo}..{hi} out of bounds for a trim of {}",
            self.size()
        );
        let mut pieces = Vec::with_capacity(self.piece_count(lo, hi));
        let mut at = lo;
        while at < hi {
            let block = at / self.block;
            let end = hi.min((block + 1) * self.block);
            pieces.push(WorkPiece {
                offset: at,
                key: &self.keys[block],
                entry: None,
                scenarios: self.grid.scenarios_in(at, end),
            });
            at = end;
        }
        pieces
    }

    fn piece_count(&self, lo: usize, hi: usize) -> usize {
        if lo < hi {
            (hi - 1) / self.block - lo / self.block + 1
        } else {
            0
        }
    }
}

/// Runs procedure `Trim` for `algorithm` on its oriented ring, exhausting
/// all unordered label pairs and all ordered pairs of distinct start
/// positions (up to rotation), with simultaneous start (the lower-bound
/// scenario): the [`TrimSweep`] on a sequential [`Runner`] through a
/// [`BatchExecutor`], folded by [`TrimmedAlgorithm::from_report`].
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
    let (runner, executor) = (Runner::sequential(), BatchExecutor::new(algorithm));
    let sweep = TrimSweep::new(algorithm, horizon)?;
    let report = runner.sweep(&sweep, &executor)?;
    TrimmedAlgorithm::from_report(algorithm, &sweep, &report, &executor, &runner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The `Workload` contract on the trim sweep, cut at arbitrary
        /// points (block boundaries and mid-block alike, plus the middle
        /// of the first block): each range's pieces partition it in
        /// order with one key per label pair, `piece_count` counts them
        /// without building them, and the range sweeps merge back to the
        /// whole sweep.
        #[test]
        fn trim_sweep_keeps_the_workload_contract(
            n in 3usize..8,
            l in 2u64..6,
            cuts in proptest::collection::vec(0usize..2000, 0..6),
        ) {
            let alg = cheap_sim(n, l);
            let sweep = TrimSweep::new(&alg, 4 * alg.time_bound()).unwrap();
            let size = sweep.size();
            // One block of n − 1 rotation representatives per label pair.
            prop_assert_eq!(size, (l * (l - 1) / 2) as usize * (n - 1));
            let mut points: Vec<usize> = cuts.iter().map(|c| c % (size + 1)).collect();
            points.extend([0, (n - 1) / 2, size]);
            points.sort_unstable();
            points.dedup();

            let executor = BatchExecutor::new(&alg);
            let runner = Runner::sequential();
            let whole = runner.sweep(&sweep, &executor).unwrap();
            prop_assert_eq!(whole.groups.len(), (l * (l - 1) / 2) as usize);
            // Each pair group holds the extremes of all n(n − 1) start
            // pairs, in 1/n of the executions.
            for (group, &pair) in whole.groups.iter().zip(&sweep.pairs) {
                let full = Grid::new(4 * alg.time_bound())
                    .label_pairs_ordered(&[pair])
                    .all_start_pairs(alg.graph());
                let full = runner.sweep(&full, &executor).unwrap().solo();
                prop_assert_eq!(
                    (group.max_time, group.max_cost, group.executed * n),
                    (full.max_time, full.max_cost, full.executed)
                );
            }
            let mut merged = SweepReport::default();
            let mut scenarios = Vec::new();
            for w in points.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                let pieces = sweep.pieces(lo, hi);
                prop_assert_eq!(sweep.piece_count(lo, hi), pieces.len());
                let mut at = lo;
                for piece in &pieces {
                    prop_assert_eq!(piece.offset, at);
                    let block = at / (n - 1);
                    prop_assert_eq!(piece.key, sweep.keys[block].as_str());
                    at += piece.scenarios.len();
                    prop_assert!(at <= (block + 1) * (n - 1), "a piece spans blocks");
                }
                prop_assert_eq!(at, hi);
                scenarios.extend(pieces.into_iter().flat_map(|p| p.scenarios));
                merged = merged.merge(&runner.sweep_range(&sweep, lo, hi, &executor).unwrap());
            }
            prop_assert_eq!(&scenarios, &sweep.grid.scenarios());
            prop_assert_eq!(merged, whole);
        }
    }

    /// `Trim` over the full start axis through `executor`: for each
    /// label pair x < y, every ordered pair of distinct starts, delay 0,
    /// in (x, y, px, py) order — the reference the rotation
    /// representatives must reproduce, first miss included.
    fn full_axis_trim(
        alg: &dyn RendezvousAlgorithm,
        horizon: u64,
        executor: &dyn PieceExecutor,
    ) -> Result<(Vec<u64>, u64, u64), LowerBoundError> {
        let runner = Runner::sequential();
        let l = alg.label_space().size();
        let mut horizons = vec![0u64; l as usize];
        let (mut max_time, mut max_cost) = (0, 0);
        for x in 1..=l {
            for y in (x + 1)..=l {
                let grid = Grid::new(horizon)
                    .label_pairs_ordered(&[(x, y)])
                    .all_start_pairs(alg.graph());
                let piece = grid.pieces(0, grid.size()).remove(0);
                for out in executor.run_piece(&runner, &piece)?.0 {
                    let Some(t) = out.time else {
                        let s = &out.scenario;
                        return Err(LowerBoundError::NoMeeting {
                            labels: (x, y),
                            starts: (s.start_a().index(), s.start_b().index()),
                            horizon,
                        });
                    };
                    horizons[(x - 1) as usize] = horizons[(x - 1) as usize].max(t);
                    horizons[(y - 1) as usize] = horizons[(y - 1) as usize].max(t);
                    max_time = max_time.max(t);
                    max_cost = max_cost.max(out.cost);
                }
            }
        }
        Ok((horizons, max_time, max_cost))
    }

    /// The trim sweep on its n − 1 rotation representatives equals the
    /// full-axis reference on both engines, for every algorithm the
    /// tables trim or could: horizons, `max_time` and `max_cost` under a
    /// sufficient horizon, and the `NoMeeting` error naming the first
    /// miss in (x, y, px, py) order under horizons too small to meet.
    #[test]
    fn trim_on_rotation_representatives_equals_the_full_axis() {
        use rendezvous_core::FastWithRelabeling;
        let (mut met, mut missed) = (0, 0);
        for n in [3, 6, 12] {
            for l in [2, 3, 5] {
                let (g, ex) = ring(n);
                let space = LabelSpace::new(l).unwrap();
                let algorithms: [Box<dyn RendezvousAlgorithm>; 5] = [
                    Box::new(Cheap::new(g.clone(), ex.clone(), space)),
                    Box::new(CheapSimultaneous::new(g.clone(), ex.clone(), space)),
                    Box::new(Fast::new(g.clone(), ex.clone(), space)),
                    Box::new(FastWithRelabeling::new(g.clone(), ex.clone(), space, 1).unwrap()),
                    Box::new(FastWithRelabeling::new(g, ex, space, 2).unwrap()),
                ];
                for alg in &algorithms {
                    let alg = alg.as_ref();
                    let stepped = AlgorithmExecutor::new(alg);
                    let batched = BatchExecutor::new(alg);
                    let engines: [(&str, &dyn PieceExecutor); 2] =
                        [("stepped", &stepped), ("batched", &batched)];
                    for horizon in [10 * alg.time_bound(), 3, n as u64] {
                        for (engine, executor) in engines {
                            let at = format!("{} on the {n}-ring, L = {l}, {engine}", alg.name());
                            let runner = Runner::sequential();
                            let sweep = TrimSweep::new(alg, horizon).unwrap();
                            assert_eq!(sweep.size(), (l * (l - 1) / 2) as usize * (n - 1));
                            let report = runner.sweep(&sweep, executor).unwrap();
                            let reduced = TrimmedAlgorithm::from_report(
                                alg, &sweep, &report, executor, &runner,
                            )
                            .map(|t| (t.horizons, t.max_time, t.max_cost));
                            let full = full_axis_trim(alg, horizon, executor);
                            assert_eq!(reduced, full, "{at}, horizon {horizon}");
                            if full.is_ok() {
                                met += 1;
                            } else {
                                missed += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(met > 0 && missed > 0, "both outcomes must occur");
    }

    #[test]
    fn trim_meta_differs_from_its_grid() {
        let alg = cheap_sim(6, 3);
        let sweep = TrimSweep::new(&alg, 100).unwrap();
        let (trim, grid) = (sweep.meta(), sweep.grid.meta());
        assert_ne!(trim.digest, grid.digest);
        assert_eq!(
            (trim.kind, trim.size, trim.full_size),
            (grid.kind, grid.size, grid.full_size)
        );
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
