//! The Theorem 3.1 pipeline, executable: any algorithm of cost `E + o(E)`
//! has time `Ω(EL)`.
//!
//! The proof builds a tournament over the clockwise-heavy agents using the
//! *eager* relation (Fact 3.5), extracts a Hamiltonian path (Rédei), and
//! shows the meeting times along the path grow by at least `(F − 3φ)/2`
//! per step (Facts 3.6–3.8), yielding an execution of length
//! `Ω(L · E)`. This module runs exactly that construction on a concrete
//! algorithm and reports every intermediate quantity, so experiments can
//! verify the chain numerically.
//!
//! [`eager_chain`] is the construction after the trim: its executions
//! run as one batch through the caller's executor. [`eager_chain_audit`]
//! composes it with [`trim`](fn@crate::trim) on one sequential runner.

use crate::{hamiltonian_path, oriented_ring_size, trim, LowerBoundError, TrimmedAlgorithm};
use rendezvous_core::{Label, RendezvousAlgorithm};
use rendezvous_graph::NodeId;
use rendezvous_runner::{BatchExecutor, PieceExecutor, Runner, Scenario, WorkPiece};

/// Everything the Theorem 3.1 construction produces on a concrete
/// algorithm.
#[derive(Debug, Clone)]
pub struct EagerChainReport {
    /// Ring size.
    pub n: usize,
    /// Exploration bound `E = n − 1`.
    pub e: u64,
    /// `F = ⌈E/2⌉`: the initial distance used by the construction.
    pub f: u64,
    /// Measured cost slack `φ` (worst cost minus `E`, clamped at 0).
    pub phi: u64,
    /// The heavy-side agents the tournament is built on (at least half).
    pub heavy: Vec<Label>,
    /// Hamiltonian path of the eager tournament.
    pub path: Vec<Label>,
    /// Meeting round `|α_i|` of each consecutive path pair's execution.
    pub chain_times: Vec<u64>,
    /// Fact 3.7: whether the chain times are strictly increasing.
    pub strictly_increasing: bool,
    /// Fact 3.8's final value: `(⌊L/2⌋ − 1) · (F − 3φ)/2` (clamped at 0) —
    /// the Ω(EL) witness the last chain execution must exceed.
    pub witness: u64,
    /// The trimming data (horizons, vectors, measured extremes).
    pub trimmed: TrimmedAlgorithm,
}

impl EagerChainReport {
    /// The observed time of the last chain execution — the concrete
    /// `Ω(EL)`-scale number.
    #[must_use]
    pub fn chain_final_time(&self) -> u64 {
        self.chain_times.last().copied().unwrap_or(0)
    }

    /// Returns `true` if the measured chain dominates the Fact 3.8 bound.
    #[must_use]
    pub fn witness_holds(&self) -> bool {
        self.chain_final_time() >= self.witness
    }
}

/// Runs the full Theorem 3.1 construction for `algorithm` (which must
/// operate on an oriented ring) with per-execution round cap `horizon`:
/// [`trim`](fn@crate::trim), then [`eager_chain`] through a
/// [`BatchExecutor`] on a sequential [`Runner`].
///
/// # Errors
///
/// As [`trim`](fn@crate::trim) and [`eager_chain`].
pub fn eager_chain_audit(
    algorithm: &dyn RendezvousAlgorithm,
    horizon: u64,
) -> Result<EagerChainReport, LowerBoundError> {
    let trimmed = trim(algorithm, horizon)?;
    eager_chain(
        algorithm,
        trimmed,
        &BatchExecutor::new(algorithm),
        &Runner::sequential(),
    )
}

/// The Theorem 3.1 construction on `trimmed`, the trim of `algorithm`:
/// every pairwise execution among the heavy agents runs as one batch
/// through `executor`.
///
/// The construction follows the paper exactly, with one generalization:
/// if the counter-clockwise-heavy agents form the majority, the whole
/// analysis is mirrored (the paper says "without loss of generality").
///
/// # Errors
///
/// * [`LowerBoundError::NotAnOrientedRing`] for non-ring graphs,
/// * [`LowerBoundError::EagerDichotomyViolated`] if some pair violates
///   Fact 3.5 — this happens precisely when the algorithm's cost is *not*
///   `E + o(E)`, i.e. when the theorem's premise fails,
/// * [`LowerBoundError::NoMeeting`] if a pair does not meet by
///   `trimmed.max_time` — `trimmed` is not this algorithm's trim,
/// * execution errors of the batch.
pub fn eager_chain<E>(
    algorithm: &dyn RendezvousAlgorithm,
    trimmed: TrimmedAlgorithm,
    executor: &E,
    runner: &Runner,
) -> Result<EagerChainReport, LowerBoundError>
where
    E: PieceExecutor + ?Sized,
{
    let n = oriented_ring_size(algorithm.graph())?;
    let e = (n - 1) as u64;
    let f = e.div_ceil(2);
    let phi = trimmed.phi(e);

    // Heavy-side selection (mirror if needed).
    let l = algorithm.label_space().size();
    let cw: Vec<Label> = (1..=l)
        .map(|v| Label::new(v).expect(">0"))
        .filter(|&lab| trimmed.vector(lab).is_clockwise_heavy())
        .collect();
    let mirror = cw.len() * 2 < l as usize;
    let heavy: Vec<Label> = if mirror {
        (1..=l)
            .map(|v| Label::new(v).expect(">0"))
            .filter(|&lab| !trimmed.vector(lab).is_clockwise_heavy())
            .collect()
    } else {
        cw
    };
    let sign: i64 = if mirror { -1 } else { 1 };
    // Start of the second agent: distance F in the heavy direction.
    let py = if mirror {
        (n - f as usize % n) % n
    } else {
        f as usize % n
    };

    // disp(X, α) from the solo behaviour vector prefix (determinism: the
    // agent behaves identically until the meeting).
    let disp = |lab: Label, rounds: u64| -> i64 {
        sign * trimmed.vector(lab).displacement_prefix(rounds as usize)
    };

    // Pairwise executions α(x, 0, y, py) among heavy agents, in one
    // batch; `heavy` ascends, so x < y as in the trim. Each is a trim
    // execution, all of which met by round `max_time`.
    let k = heavy.len();
    let pairs: Vec<(usize, usize)> = (0..k)
        .flat_map(|i| ((i + 1)..k).map(move |j| (i, j)))
        .collect();
    let piece = WorkPiece {
        offset: 0,
        key: "",
        entry: None,
        scenarios: pairs
            .iter()
            .map(|&(i, j)| {
                let (x, y) = (heavy[i].get(), heavy[j].get());
                Scenario::pair(x, y, NodeId::new(0), NodeId::new(py), 0, trimmed.max_time)
            })
            .collect(),
    };
    let (outcomes, _) = executor.run_piece(runner, &piece)?;

    // Meeting time and eager side of each pair.
    let mut time = vec![vec![0u64; k]; k];
    let mut eager = vec![vec![false; k]; k]; // eager[i][j]: heavy[i] eager in (i,j) exec
    for (&(i, j), outcome) in pairs.iter().zip(&outcomes) {
        let labels = (heavy[i].get(), heavy[j].get());
        let t = outcome.time.ok_or(LowerBoundError::NoMeeting {
            labels,
            starts: (0, py),
            horizon: trimmed.max_time,
        })?;
        let (dx, dy) = (disp(heavy[i], t), disp(heavy[j], t));
        // F enters the comparison positively on both orientations: the
        // mirroring is already applied to the displacements.
        let x_eager = dx >= dy + f as i64;
        let y_eager = dy >= dx + f as i64;
        if x_eager == y_eager {
            return Err(LowerBoundError::EagerDichotomyViolated { labels });
        }
        time[i][j] = t;
        time[j][i] = t;
        eager[i][j] = x_eager;
        eager[j][i] = y_eager;
    }

    let order = hamiltonian_path(k, |a, b| eager[a][b]);
    let path: Vec<Label> = order.iter().map(|&i| heavy[i]).collect();
    let chain_times: Vec<u64> = order.windows(2).map(|w| time[w[0]][w[1]]).collect();
    let strictly_increasing = chain_times.windows(2).all(|w| w[1] > w[0]);
    let steps = (l / 2).saturating_sub(1);
    let witness = steps * (f.saturating_sub(3 * phi)) / 2;

    Ok(EagerChainReport {
        n,
        e,
        f,
        phi,
        heavy,
        path,
        chain_times,
        strictly_increasing,
        witness,
        trimmed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendezvous_core::{CheapSimultaneous, LabelSpace};
    use rendezvous_explore::OrientedRingExplorer;
    use rendezvous_graph::generators;
    use rendezvous_runner::{AlgorithmExecutor, Executor};
    use std::sync::Arc;

    fn cheap_sim(n: usize, l: u64) -> CheapSimultaneous {
        let g = Arc::new(generators::oriented_ring(n).unwrap());
        let ex = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
        CheapSimultaneous::new(g, ex, LabelSpace::new(l).unwrap())
    }

    /// The batched chain equals its executions run one by one on the
    /// stepped engine at the audit's own horizon.
    #[test]
    fn chain_times_equal_per_scenario_stepped_runs() {
        for n in [6, 12] {
            for l in [4, 6] {
                let alg = cheap_sim(n, l);
                let horizon = 20 * alg.time_bound();
                let report = eager_chain_audit(&alg, horizon).unwrap();
                assert_eq!(report.heavy.len(), l as usize, "no mirroring");
                let stepped = AlgorithmExecutor::new(&alg);
                let reference: Vec<u64> = report
                    .path
                    .windows(2)
                    .map(|w| {
                        let (x, y) = (w[0].min(w[1]), w[0].max(w[1]));
                        let scenario = Scenario::pair(
                            x.get(),
                            y.get(),
                            NodeId::new(0),
                            NodeId::new(report.f as usize),
                            0,
                            horizon,
                        );
                        stepped.run(&scenario).unwrap().time.expect("meets")
                    })
                    .collect();
                assert_eq!(report.chain_times, reference, "n = {n}, L = {l}");
            }
        }
    }

    #[test]
    fn chain_audit_on_cheap_simultaneous() {
        let alg = cheap_sim(12, 8);
        let report = eager_chain_audit(&alg, 20 * alg.time_bound()).unwrap();
        assert_eq!(report.e, 11);
        assert_eq!(report.f, 6);
        assert_eq!(report.phi, 0, "the cheap variant has cost exactly <= E");
        // All agents move only clockwise: all heavy.
        assert_eq!(report.heavy.len(), 8);
        assert_eq!(report.path.len(), 8);
        assert_eq!(report.chain_times.len(), 7);
        // Fact 3.7: strictly increasing chain.
        assert!(
            report.strictly_increasing,
            "chain times {:?} must increase",
            report.chain_times
        );
        // Fact 3.8: the final chain time dominates the Ω(EL) witness.
        assert!(report.witness > 0);
        assert!(
            report.witness_holds(),
            "final time {} < witness {}",
            report.chain_final_time(),
            report.witness
        );
    }

    #[test]
    fn chain_times_grow_linearly_in_l() {
        // The heart of Theorem 3.1: more labels, proportionally longer
        // chain execution — time Ω(E·L) for cost-E algorithms.
        let n = 12;
        let t4 = {
            let alg = cheap_sim(n, 4);
            eager_chain_audit(&alg, 20 * alg.time_bound())
                .unwrap()
                .chain_final_time()
        };
        let t8 = {
            let alg = cheap_sim(n, 8);
            eager_chain_audit(&alg, 20 * alg.time_bound())
                .unwrap()
                .chain_final_time()
        };
        // Doubling L should roughly double the witness execution time.
        assert!(t8 >= t4 + 3, "t4={t4}, t8={t8}");
    }

    #[test]
    fn eager_in_cheap_sim_is_the_smaller_label() {
        // In CheapSimultaneous the smaller label explores first and covers
        // distance F alone: it is always the eager one, so the tournament
        // is transitive and the path is descending.
        let alg = cheap_sim(12, 6);
        let report = eager_chain_audit(&alg, 20 * alg.time_bound()).unwrap();
        let labels: Vec<u64> = report.path.iter().map(|l| l.get()).collect();
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        assert_eq!(
            labels, sorted,
            "the eager tournament of CheapSimultaneous is transitive: \
             smaller labels (which explore first) beat larger ones, so the \
             Hamiltonian path is the ascending chain"
        );
    }
}
