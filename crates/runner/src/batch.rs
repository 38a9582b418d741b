//! The delay-batched piece executor: one trajectory solve per (labels,
//! starts) run instead of one simulation per scenario.
//!
//! A pair grid enumerates label pair → start pair → delay, so within a
//! work piece the scenarios sharing (labels, starts, horizon) form one
//! contiguous run of delays — and since both agents' walks are
//! precomputed [`FlatPlan`] position arrays, the whole run collapses into
//! one [`BatchSolver`] pass over two fixed arrays (O(T + D) instead of
//! the stepped engine's O(D·T)). [`BatchExecutor`] splits each piece into
//! such maximal runs, solves them in order and concatenates the results,
//! so outcomes keep their in-piece indices and the fold — and with it
//! `SweepReport`s, witnesses and every merged report — is byte-identical to
//! the stepped engine's.
//!
//! Scenarios the solver's preconditions don't cover (fleets, equal or
//! out-of-range starts, a delayed *first* agent, a disconnected graph)
//! fall back to the wrapped [`AlgorithmExecutor`] one by one, which keeps
//! error behavior — `StartsNotDistinct`, `NotConnected`, bad labels —
//! identical too. The stepped engine thus stays in the loop as the
//! equivalence oracle; see `tests/batch_equivalence.rs`.
//!
//! [`FlatPlan`]: rendezvous_core::FlatPlan

use crate::executor::{AlgorithmExecutor, Executor, RunnerError};
use crate::scenario::{Scenario, ScenarioOutcome};
use crate::workload::{PieceExecutor, WorkPiece};
use crate::{Bounds, Runner};
use rendezvous_core::RendezvousAlgorithm;
use rendezvous_graph::analysis;
use rendezvous_sim::BatchSolver;
use rendezvous_telemetry::{Counter, Metrics, Scope};
use std::ops::Range;

/// A work unit of one piece, as a range of in-piece scenario indices:
/// either a maximal run of batchable scenarios sharing labels, starts and
/// horizon, or a single stepped-fallback scenario.
enum Job {
    Batched(Range<usize>),
    Stepped(usize),
}

/// Piece executor that solves the delay axis of a pair sweep in batch.
///
/// Wraps an [`AlgorithmExecutor`] (sharing its schedule/plan caches with
/// the fallback path) and carries the sweep's [`Bounds`] itself, playing
/// the role [`Bounded`](crate::Bounded) plays for stepped executors.
pub struct BatchExecutor<'a> {
    algorithm: &'a dyn RendezvousAlgorithm,
    inner: AlgorithmExecutor<'a>,
    bounds: Option<Bounds>,
    connected: bool,
    counters: Option<BatchCounters>,
}

/// Batched-vs-fallback classification counters (attached via
/// [`BatchExecutor::with_metrics`]). The scenario-scoped pair is
/// sharding-invariant because [`BatchExecutor::batchable`] is a pure
/// per-scenario predicate: any partition of a sweep classifies every
/// scenario identically.
struct BatchCounters {
    batched: Counter,
    stepped: Counter,
    groups: Counter,
}

impl<'a> BatchExecutor<'a> {
    /// Wraps `algorithm` with no sweep bounds attached.
    #[must_use]
    pub fn new(algorithm: &'a dyn RendezvousAlgorithm) -> Self {
        BatchExecutor {
            algorithm,
            inner: AlgorithmExecutor::new(algorithm),
            bounds: None,
            // The stepped engine re-checks connectivity every run; check
            // once here and route everything stepped if it fails, so the
            // error surfaces identically.
            connected: analysis::is_connected(algorithm.graph()),
            counters: None,
        }
    }

    /// Attaches the bounds every outcome of this executor's pieces is
    /// judged against.
    #[must_use]
    pub fn with_bounds(mut self, bounds: Option<Bounds>) -> Self {
        self.bounds = bounds;
        self
    }

    /// Attaches classification counters (and the inner executor's
    /// plan-cache counters) from `metrics`.
    #[must_use]
    pub fn with_metrics(mut self, metrics: &Metrics) -> Self {
        self.inner = self.inner.with_metrics(metrics);
        self.counters = Some(BatchCounters {
            batched: metrics.counter(Scope::Scenario, "scenarios_batched"),
            stepped: metrics.counter(Scope::Scenario, "scenarios_stepped"),
            groups: metrics.counter(Scope::Process, "batch_groups"),
        });
        self
    }

    /// Returns `true` if `scenario` satisfies the batched solver's
    /// preconditions; anything else goes through the stepped fallback so
    /// outcomes *and errors* match the stepped engine exactly.
    fn batchable(&self, scenario: &Scenario) -> bool {
        let graph = self.algorithm.graph();
        self.connected
            && scenario.is_pair()
            && scenario.first().delay == 0
            && scenario.start_a() != scenario.start_b()
            && graph.contains(scenario.start_a())
            && graph.contains(scenario.start_b())
    }

    /// Solves one batched run: both plans are compiled (or fetched from
    /// the shared cache) once, then every delay is one solver call.
    /// Returns the run's outcomes in order, or its error tagged with the
    /// run's first index.
    fn solve_run(
        &self,
        scenarios: &[Scenario],
        run: Range<usize>,
    ) -> Result<Vec<ScenarioOutcome>, (usize, RunnerError)> {
        let lead = &scenarios[run.start];
        let plan_a = self
            .inner
            .plan(lead.first_label(), lead.start_a())
            .map_err(|e| (run.start, e))?;
        let plan_b = self
            .inner
            .plan(lead.second_label(), lead.start_b())
            .map_err(|e| (run.start, e))?;
        let solver = BatchSolver::new(plan_a.trajectory(), plan_b.trajectory(), lead.horizon);
        Ok(scenarios[run]
            .iter()
            .map(|scenario| {
                let out = solver.solve(scenario.delay());
                // With an undelayed first agent the meeting round *is*
                // the paper's time (counted from the earlier wake-up).
                ScenarioOutcome::pairwise(scenario.clone(), out.round, out.cost, out.crossings)
            })
            .collect())
    }

    /// Splits a piece into jobs, in index order: grid order is label pair
    /// → start pair → delay, so each (labels, starts, horizon) group is
    /// one contiguous run.
    fn jobs(&self, scenarios: &[Scenario]) -> Vec<Job> {
        let run_key = |s: &Scenario| {
            (
                s.first_label(),
                s.second_label(),
                s.start_a(),
                s.start_b(),
                s.horizon,
            )
        };
        let mut jobs = Vec::new();
        let mut i = 0;
        while i < scenarios.len() {
            if !self.batchable(&scenarios[i]) {
                jobs.push(Job::Stepped(i));
                i += 1;
                continue;
            }
            let key = run_key(&scenarios[i]);
            let end = scenarios[i..]
                .iter()
                .position(|s| !self.batchable(s) || run_key(s) != key)
                .map_or(scenarios.len(), |k| i + k);
            jobs.push(Job::Batched(i..end));
            i = end;
        }
        jobs
    }
}

impl PieceExecutor for BatchExecutor<'_> {
    fn run_piece(
        &self,
        _runner: &Runner,
        piece: &WorkPiece<'_>,
    ) -> Result<(Vec<ScenarioOutcome>, Option<Bounds>), RunnerError> {
        let scenarios = &piece.scenarios;
        // Jobs cover the piece in index order, so concatenating restores
        // it, and the first error met is the lowest-index one — what the
        // per-scenario fold would surface.
        let mut outcomes = Vec::with_capacity(scenarios.len());
        for job in self.jobs(scenarios) {
            match job {
                Job::Batched(run) => {
                    if let Some(counters) = &self.counters {
                        counters.batched.add_count(run.len());
                        counters.groups.inc();
                    }
                    let solved = self.solve_run(scenarios, run);
                    outcomes.extend(solved.map_err(|(i, e)| e.at_index(i))?);
                }
                Job::Stepped(i) => {
                    if let Some(counters) = &self.counters {
                        counters.stepped.inc();
                    }
                    outcomes.push(self.inner.run(&scenarios[i]).map_err(|e| e.at_index(i))?);
                }
            }
        }
        Ok((outcomes, self.bounds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Placement;
    use rendezvous_core::{Cheap, LabelSpace};
    use rendezvous_explore::OrientedRingExplorer;
    use rendezvous_graph::{generators, NodeId};
    use std::sync::Arc;

    fn cheap_ring(n: usize, l: u64) -> Cheap {
        let g = Arc::new(generators::oriented_ring(n).unwrap());
        let ex = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
        Cheap::new(g, ex, LabelSpace::new(l).unwrap())
    }

    fn pair(labels: (u64, u64), starts: (usize, usize), delay: u64, horizon: u64) -> Scenario {
        let (a, b) = starts;
        Scenario::pair(
            labels.0,
            labels.1,
            NodeId::new(a),
            NodeId::new(b),
            delay,
            horizon,
        )
    }

    /// Two agents where the *first* sleeps — a pair the solver can't take.
    fn delayed_first(horizon: u64) -> Scenario {
        let place = |label, start, delay| Placement {
            label,
            start: NodeId::new(start),
            delay,
        };
        Scenario::fleet(vec![place(2, 1, 3), place(4, 5, 0)], horizon)
    }

    /// A three-agent fleet: the pair executor rejects it with an error.
    fn fleet(horizon: u64) -> Scenario {
        let place = |label, start| Placement {
            label,
            start: NodeId::new(start),
            delay: 0,
        };
        Scenario::fleet(vec![place(1, 0), place(2, 2), place(3, 4)], horizon)
    }

    /// Runs `scenarios` as two pieces cut at `cut`, like a chunk boundary
    /// would, lifting errors to global indices the way the sweep does.
    fn run_cut(
        executor: &BatchExecutor<'_>,
        runner: &Runner,
        scenarios: &[Scenario],
        cut: usize,
    ) -> Result<Vec<ScenarioOutcome>, RunnerError> {
        let mut outcomes = Vec::new();
        for (offset, part) in [(0, &scenarios[..cut]), (cut, &scenarios[cut..])] {
            let piece = WorkPiece {
                offset,
                key: "",
                entry: None,
                scenarios: part.to_vec(),
            };
            let (solved, _) = executor
                .run_piece(runner, &piece)
                .map_err(|e| e.in_piece(piece.offset, piece.key))?;
            outcomes.extend(solved);
        }
        Ok(outcomes)
    }

    /// Batchable runs (one of them a repeat of an earlier key) around
    /// stepped fallbacks, cut at every index — including mid-run:
    /// outcomes and errors equal the stepped executor's, the error at the
    /// same global index.
    #[test]
    fn mixed_piece_equals_stepped_outcomes_at_every_cut() {
        let alg = cheap_ring(6, 4);
        let h = 4 * alg.time_bound();
        let run = |labels, starts, delays: &[u64]| -> Vec<Scenario> {
            delays.iter().map(|&d| pair(labels, starts, d, h)).collect()
        };
        let mut clean = run((1, 3), (0, 2), &[0, 1, 5, 40]);
        clean.push(delayed_first(h));
        clean.extend(run((4, 2), (1, 4), &[0, 2]));
        clean.extend(run((1, 3), (0, 2), &[3, 7]));
        clean.extend(run((1, 3), (0, 2), &[3]).into_iter().map(|mut s| {
            s.horizon = h / 2;
            s
        }));
        let executor = BatchExecutor::new(&alg);
        let shape: Vec<(bool, usize)> = executor
            .jobs(&clean)
            .into_iter()
            .map(|job| match job {
                Job::Batched(run) => (true, run.len()),
                Job::Stepped(_) => (false, 1),
            })
            .collect();
        assert_eq!(
            shape,
            [(true, 4), (false, 1), (true, 2), (true, 2), (true, 1)],
            "runs split at fallbacks, key changes and horizon changes"
        );
        // Errors: equal starts (`StartsNotDistinct`) before a fleet, and
        // the other way round.
        let mut equal_first = clean.clone();
        equal_first.insert(6, pair((2, 3), (3, 3), 0, h));
        equal_first.insert(9, fleet(h));
        let mut fleet_first = clean.clone();
        fleet_first.insert(2, fleet(h));
        fleet_first.insert(8, pair((2, 3), (3, 3), 1, h));
        let stepped = AlgorithmExecutor::new(&alg);
        for (scenarios, error_at) in [
            (clean, None),
            (equal_first, Some(6)),
            (fleet_first, Some(2)),
        ] {
            let reference = Runner::sequential().outcomes(&stepped, &scenarios);
            assert_eq!(
                reference.as_ref().err().and_then(RunnerError::index),
                error_at
            );
            for cut in 0..=scenarios.len() {
                let batched = run_cut(&executor, &Runner::sequential(), &scenarios, cut);
                assert_eq!(batched, reference, "cut at {cut}");
            }
        }
    }
}
