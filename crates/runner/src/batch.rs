//! The delay-batched piece executor: one trajectory solve per (labels,
//! starts) run instead of one simulation per scenario.
//!
//! A pair grid enumerates label pair → start pair → delay, so within a
//! work piece the scenarios sharing (labels, starts, horizon) form one
//! contiguous run of delays — and since both agents' walks are
//! precompiled [`Trajectory`] position arrays, the whole run collapses into
//! one [`BatchSolver`] pass over two fixed arrays (O(T + D) instead of
//! the stepped engine's O(D·T)). [`BatchExecutor`] splits each piece into
//! such maximal runs and solves them in order. In a sweep
//! ([`PieceExecutor::fold_piece`]) each solve is folded straight into the
//! piece's group at its global index — no per-delay
//! [`ScenarioOutcome`] is built — through the same fold rule an outcome
//! goes through, so `SweepReport`s, witnesses and every merged report are
//! byte-identical to the stepped engine's. [`PieceExecutor::run_piece`]
//! runs the same loop and collects the outcomes instead, for callers
//! that read them one by one.
//!
//! The executor validates, then solves. Each run's lead is checked as
//! the stepped engine checks a scenario, in the same order: a pair
//! (fleets run on the [`GatheringExecutor`](crate::GatheringExecutor)),
//! starts inside the graph, both labels (by fetching their plans, which
//! fail exactly when the labels' schedules do), [`check_agents`], then
//! the graph's connectivity (computed once per executor). Every
//! scenario of a run would fail alike, so a refusal carries the run's
//! first index and the stepped engine's error. Every pair that passes
//! is solved, whichever agent sleeps: time counts from the earlier
//! wake-up and nobody moves before it, so the earlier riser is the
//! solver's first agent, the delay is the difference of the two, and
//! the horizon loses the rounds both sleep. The stepped
//! [`AlgorithmExecutor`] is never run; it is the independent oracle of
//! `--engine stepped` and `tests/batch_equivalence.rs`.
//!
//! [`Trajectory`]: rendezvous_sim::Trajectory

use crate::executor::{AlgorithmExecutor, RunnerError};
use crate::scenario::{Measured, Scenario, ScenarioOutcome};
use crate::workload::{PieceExecutor, WorkPiece};
use crate::{Bounds, Runner, SweepReport};
use rendezvous_core::RendezvousAlgorithm;
use rendezvous_graph::analysis;
use rendezvous_sim::{check_agents, BatchSolver, SimError};
use rendezvous_telemetry::{Counter, Metrics, Scope};
use std::ops::Range;

/// Piece executor that solves the delay axis of a pair sweep in batch.
///
/// Wraps an [`AlgorithmExecutor`]: its pair check, its plan cache and
/// the bounds every outcome is judged against.
pub struct BatchExecutor<'a> {
    algorithm: &'a dyn RendezvousAlgorithm,
    inner: AlgorithmExecutor<'a>,
    connected: bool,
    /// Runs solved (attached via [`BatchExecutor::with_metrics`]); it
    /// depends on where a sweep's cuts fall. How many scenarios ran is
    /// the sweep's `scenarios_executed`.
    groups: Option<Counter>,
}

impl<'a> BatchExecutor<'a> {
    /// Wraps `algorithm` with no bounds attached.
    #[must_use]
    pub fn new(algorithm: &'a dyn RendezvousAlgorithm) -> Self {
        BatchExecutor {
            algorithm,
            inner: AlgorithmExecutor::new(algorithm),
            // The stepped engine checks connectivity every run; this
            // executor checks once.
            connected: analysis::is_connected(algorithm.graph()),
            groups: None,
        }
    }

    /// Attaches the bounds every outcome of this executor's pieces is
    /// judged against, as [`AlgorithmExecutor::with_bounds`] does.
    #[must_use]
    pub fn with_bounds(mut self, bounds: Option<Bounds>) -> Self {
        self.inner = self.inner.with_bounds(bounds);
        self
    }

    /// Attaches the run counter `batch_groups` (and the inner executor's
    /// plan-cache counters) from `metrics`.
    #[must_use]
    pub fn with_metrics(mut self, metrics: &Metrics) -> Self {
        self.inner = self.inner.with_metrics(metrics);
        self.groups = Some(metrics.counter(Scope::Process, "batch_groups"));
        self
    }

    /// Checks one run's lead as the stepped engine checks a scenario,
    /// then solves the run: both plans are compiled (or fetched from the
    /// shared cache) once, and every scenario is one solver call, handed
    /// to `sink` with its in-piece index.
    fn solve_run(
        &self,
        scenarios: &[Scenario],
        run: Range<usize>,
        sink: &mut impl FnMut(usize, &Scenario, Measured),
    ) -> Result<(), RunnerError> {
        let [(plan_a, a), (plan_b, b)] = self
            .inner
            .check_pair(&scenarios[run.start], |label, start| {
                self.inner.plan(label, start)
            })?;
        check_agents(self.algorithm.graph(), &[a, b])?;
        if !self.connected {
            return Err(SimError::NotConnected.into());
        }
        let mut solver = None;
        for (i, scenario) in run.clone().zip(&scenarios[run]) {
            // Nobody moves before the earlier wake-up, from which the
            // paper counts time: the earlier riser leads (a tie keeps
            // placement order), the later one sleeps the difference, and
            // the horizon loses the rounds both sleep. Cost and crossings
            // are symmetric in the two agents.
            let (d1, d2) = (scenario.first().delay, scenario.delay());
            let shape = (d1 > d2, d1.min(d2));
            let solve = match &solver {
                Some((built, solve)) if *built == shape => solve,
                _ => {
                    let horizon = scenario.horizon.saturating_sub(shape.1);
                    let built = if shape.0 {
                        BatchSolver::new(&plan_b, &plan_a, horizon)
                    } else {
                        BatchSolver::new(&plan_a, &plan_b, horizon)
                    };
                    &solver.insert((shape, built)).1
                }
            };
            let out = solve.solve(d1.abs_diff(d2));
            sink(
                i,
                scenario,
                Measured::pairwise(out.round, out.cost, out.crossings),
            );
        }
        Ok(())
    }

    /// The one run loop behind [`PieceExecutor::run_piece`] and
    /// [`PieceExecutor::fold_piece`]: every scenario of the piece, in
    /// index order, goes to `sink` with its in-piece index and what it
    /// measured. Runs cover the piece in index order, so the first error
    /// met is the lowest-index one, which is what the per-scenario fold
    /// would surface.
    fn drive(
        &self,
        scenarios: &[Scenario],
        mut sink: impl FnMut(usize, &Scenario, Measured),
    ) -> Result<(), RunnerError> {
        for run in runs(scenarios) {
            if let Some(groups) = &self.groups {
                groups.inc();
            }
            let first = run.start;
            self.solve_run(scenarios, run, &mut sink)
                .map_err(|e| e.at_index(first))?;
        }
        Ok(())
    }
}

/// Splits a piece into maximal runs, in index order, of scenarios that
/// share agent count, labels, starts and horizon: grid order is label
/// pair → start pair → delay, so each such group is one contiguous run
/// of delays. Every check the stepped engine makes depends on the run's
/// key alone, so all scenarios of a run pass or fail alike.
fn runs(scenarios: &[Scenario]) -> impl Iterator<Item = Range<usize>> + '_ {
    let key = |s: &Scenario| {
        (
            s.k(),
            s.first_label(),
            s.second_label(),
            s.start_a(),
            s.start_b(),
            s.horizon,
        )
    };
    let mut start = 0;
    std::iter::from_fn(move || {
        let lead = key(scenarios.get(start)?);
        let end = scenarios[start..]
            .iter()
            .position(|s| key(s) != lead)
            .map_or(scenarios.len(), |k| start + k);
        let run = start..end;
        start = end;
        Some(run)
    })
}

impl PieceExecutor for BatchExecutor<'_> {
    fn run_piece(
        &self,
        _runner: &Runner,
        piece: &WorkPiece<'_>,
    ) -> Result<(Vec<ScenarioOutcome>, Option<Bounds>), RunnerError> {
        let mut outcomes = Vec::with_capacity(piece.scenarios.len());
        self.drive(&piece.scenarios, |_, scenario, m| {
            outcomes.push(ScenarioOutcome::from_measured(scenario.clone(), m));
        })?;
        Ok((outcomes, self.inner.bounds))
    }

    /// Folds each solve straight into the piece's group, at its global
    /// index: no [`ScenarioOutcome`] is built, and the report equals
    /// `run_piece` followed by [`SweepReport::absorb_piece`].
    fn fold_piece(
        &self,
        _runner: &Runner,
        piece: &WorkPiece<'_>,
        report: &mut SweepReport,
    ) -> Result<(), RunnerError> {
        if piece.scenarios.is_empty() {
            return Ok(());
        }
        let (spec, bounds) = (piece.entry.map(|e| &e.spec), self.inner.bounds);
        let group = report.group_mut(piece.key);
        self.drive(&piece.scenarios, |i, scenario, m| {
            group.absorb_measured(piece.offset + i, spec, scenario, m, bounds);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::SWEEP_CHUNK;
    use crate::scenario::Placement;
    use crate::{Grid, Workload};
    use proptest::prelude::*;
    use rendezvous_core::{Cheap, CoreError, LabelSpace};
    use rendezvous_explore::OrientedRingExplorer;
    use rendezvous_graph::{generators, NodeId};
    use rendezvous_sim::SimError;
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

    /// Two agents where the *first* sleeps: solved with the second one
    /// leading.
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

    /// The pieces of `scenarios` cut at `cuts` (ascending, each within
    /// the list; repeats give empty pieces), under `key`.
    fn pieces_at<'k>(scenarios: &[Scenario], cuts: &[usize], key: &'k str) -> Vec<WorkPiece<'k>> {
        let mut edges = vec![0];
        edges.extend_from_slice(cuts);
        edges.push(scenarios.len());
        edges
            .windows(2)
            .map(|w| WorkPiece {
                offset: w[0],
                key,
                entry: None,
                scenarios: scenarios[w[0]..w[1]].to_vec(),
            })
            .collect()
    }

    /// Runs the pieces through `run_piece`, lifting errors to global
    /// indices the way the sweep does.
    fn run_pieces(
        executor: &BatchExecutor<'_>,
        pieces: &[WorkPiece<'_>],
    ) -> Result<Vec<ScenarioOutcome>, RunnerError> {
        let mut outcomes = Vec::new();
        for piece in pieces {
            let (solved, _) = executor
                .run_piece(&Runner::sequential(), piece)
                .map_err(|e| e.in_piece(piece.offset, piece.key))?;
            outcomes.extend(solved);
        }
        Ok(outcomes)
    }

    /// The two folds of the same pieces, serialized: `run_piece` +
    /// `absorb_piece` (the default `fold_piece`), and the batched
    /// `fold_piece`. Both stop at the first error, lifted to its global
    /// index.
    fn both_folds(
        executor: &BatchExecutor<'_>,
        pieces: &[WorkPiece<'_>],
    ) -> [Result<String, RunnerError>; 2] {
        let runner = Runner::sequential();
        let by_outcomes = || {
            let mut report = SweepReport::default();
            for piece in pieces {
                let (outcomes, bounds) = executor
                    .run_piece(&runner, piece)
                    .map_err(|e| e.in_piece(piece.offset, piece.key))?;
                report.absorb_piece(piece.key, piece.offset, None, &outcomes, bounds);
            }
            Ok(serde_json::to_string(&report).unwrap())
        };
        let folded = || {
            let mut report = SweepReport::default();
            for piece in pieces {
                executor
                    .fold_piece(&runner, piece, &mut report)
                    .map_err(|e| e.in_piece(piece.offset, piece.key))?;
            }
            Ok(serde_json::to_string(&report).unwrap())
        };
        [by_outcomes(), folded()]
    }

    /// The stepped oracle's fold of `scenarios` under `key`, serialized,
    /// or its lowest-index error.
    fn stepped_fold(
        alg: &dyn RendezvousAlgorithm,
        scenarios: &[Scenario],
        key: &str,
        bounds: Option<Bounds>,
    ) -> Result<String, RunnerError> {
        let outcomes = Runner::sequential()
            .outcomes(&AlgorithmExecutor::new(alg), scenarios)
            .map_err(|e| e.in_piece(0, key))?;
        let mut report = SweepReport::default();
        report.absorb_piece(key, 0, None, &outcomes, bounds);
        Ok(serde_json::to_string(&report).unwrap())
    }

    /// Runs (one of them a repeat of an earlier key, one delayed-first)
    /// cut at every index — including mid-run: outcomes, folded reports
    /// and errors equal the stepped executor's, the error at the same
    /// global index, also where a scenario fails two checks at once.
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
        let shape: Vec<usize> = runs(&clean).map(|run| run.len()).collect();
        assert_eq!(
            shape,
            [4, 1, 2, 2, 1],
            "runs split at key changes and horizon changes"
        );
        // Errors: equal starts (`StartsNotDistinct`) before a fleet, and
        // the other way round; a start outside the 6-ring
        // (`StartOutOfRange`) before equal starts.
        let mut equal_first = clean.clone();
        equal_first.insert(6, pair((2, 3), (3, 3), 0, h));
        equal_first.insert(9, fleet(h));
        let mut fleet_first = clean.clone();
        fleet_first.insert(2, fleet(h));
        fleet_first.insert(8, pair((2, 3), (3, 3), 1, h));
        let mut out_of_range = clean.clone();
        out_of_range.insert(4, pair((1, 2), (0, 9), 0, h));
        out_of_range.insert(7, pair((2, 3), (3, 3), 0, h));
        // Two checks failed at once: equal starts and a label outside
        // the space (the label is checked first), then label 0 (refused
        // as outside the space too), each before a later equal-start
        // pair.
        let mut bad_label = clean.clone();
        bad_label.insert(5, pair((1, 7), (2, 2), 0, h));
        bad_label.insert(8, pair((2, 3), (3, 3), 0, h));
        let mut label_zero = clean.clone();
        label_zero.insert(1, pair((0, 3), (0, 2), 1, h));
        label_zero.insert(3, pair((2, 3), (3, 3), 0, h));
        let out_of_range_error = SimError::StartOutOfRange {
            node: NodeId::new(9),
        }
        .to_string();
        let label_error = |label| CoreError::LabelOutOfRange { label, space: 4 }.to_string();
        let stepped = AlgorithmExecutor::new(&alg);
        for (scenarios, error_at, expected) in [
            (clean, None, None),
            (equal_first, Some(6), None),
            (fleet_first, Some(2), None),
            (out_of_range, Some(4), Some(out_of_range_error)),
            (bad_label, Some(5), Some(label_error(7))),
            (label_zero, Some(1), Some(label_error(0))),
        ] {
            let reference = Runner::sequential().outcomes(&stepped, &scenarios);
            let error = reference.as_ref().err();
            assert_eq!(error.and_then(RunnerError::index), error_at);
            if let Some(expected) = expected {
                let msg = error.unwrap().to_string();
                assert!(msg.ends_with(&expected), "{msg}");
            }
            let folded = stepped_fold(&alg, &scenarios, "", None);
            // An empty piece adds no group, as `absorb_piece` promises.
            let mut report = SweepReport::default();
            let empty = &pieces_at(&scenarios, &[0], "ring")[0];
            executor
                .fold_piece(&Runner::sequential(), empty, &mut report)
                .unwrap();
            assert_eq!(report, SweepReport::default());
            for cut in 0..=scenarios.len() {
                let pieces = pieces_at(&scenarios, &[cut], "");
                assert_eq!(run_pieces(&executor, &pieces), reference, "cut at {cut}");
                for fold in both_folds(&executor, &pieces) {
                    assert_eq!(fold, folded, "cut at {cut}");
                }
            }
        }
    }

    /// Four times Cheap's time bound on the 6-ring with `L = 4`.
    const H: u64 = 4 * 45;

    /// One generated stretch of a piece list: a run of delays for one of
    /// a few (labels, starts) keys at one of three horizons (the
    /// shortest forces misses), a delayed first agent, or an error:
    /// equal starts or a 3-agent fleet.
    fn arb_stretch() -> impl Strategy<Value = Vec<Scenario>> {
        const LABELS: [(u64, u64); 3] = [(1, 3), (3, 1), (2, 4)];
        const STARTS: [(usize, usize); 3] = [(0, 2), (4, 1), (3, 5)];
        (
            0u8..16,
            (0usize..3, 0usize..3, 0usize..3),
            collection::vec(0u64..30, 1..6),
        )
            .prop_map(move |(kind, (labels, starts, horizon), delays)| {
                let horizon = [H, H / 2, 6][horizon];
                match kind {
                    0 => vec![pair(LABELS[labels], (3, 3), delays[0], horizon)],
                    1 => vec![fleet(horizon)],
                    2..=4 => vec![delayed_first(horizon)],
                    _ => delays
                        .iter()
                        .map(|&d| pair(LABELS[labels], STARTS[starts], d, horizon))
                        .collect(),
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random piece lists, repeated stretches (forced time, cost and
        /// ratio ties at different indices), delayed first agents, horizon changes
        /// and errors, cut anywhere, empty pieces included: the batched
        /// `fold_piece` serializes to the same report as `run_piece` +
        /// `absorb_piece` and as the stepped oracle's fold, or fails at
        /// the same global index with the same error.
        #[test]
        fn fold_piece_equals_run_piece_then_absorb(
            stretches in collection::vec(arb_stretch(), 1..10),
            repeat in collection::vec(0usize..10, 0..3),
            mut cuts in collection::vec(0usize..60, 0..5),
        ) {
            let alg = cheap_ring(6, 4);
            prop_assert_eq!(4 * alg.time_bound(), H);
            let mut scenarios: Vec<Scenario> = stretches.concat();
            for r in repeat {
                scenarios.extend_from_slice(&stretches[r % stretches.len()]);
            }
            cuts.iter_mut().for_each(|c| *c = (*c).min(scenarios.len()));
            cuts.sort_unstable();
            let bounds = Some(Bounds { time: alg.time_bound(), cost: alg.cost_bound() });
            let executor = BatchExecutor::new(&alg).with_bounds(bounds);
            let oracle = stepped_fold(&alg, &scenarios, "ring", bounds);
            for fold in both_folds(&executor, &pieces_at(&scenarios, &cuts, "ring")) {
                prop_assert_eq!(&fold, &oracle);
            }
            // The witness of every slot is the lowest index at its
            // maximum (the oracle's rule, restated on the fold itself).
            if let Ok(json) = &oracle {
                let report: SweepReport = serde_json::from_str(json).unwrap();
                let outcomes = run_pieces(&executor, &pieces_at(&scenarios, &[], "")).unwrap();
                for stats in &report.groups {
                    let first = |hit: &dyn Fn(&ScenarioOutcome) -> bool| {
                        outcomes.iter().position(|o| o.time.is_some() && hit(o))
                    };
                    let time = stats.worst_time.as_ref().map(|w| w.index);
                    let cost = stats.worst_cost.as_ref().map(|w| w.index);
                    prop_assert_eq!(time, first(&|o| o.time == Some(stats.max_time)));
                    prop_assert_eq!(cost, first(&|o| o.cost == stats.max_cost));
                    prop_assert_eq!(stats.worst_ratio.as_ref().map(|w| w.index), time);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Random grids longer than a sweep chunk, swept over a range
        /// that starts and ends anywhere: the runner's chunked
        /// `fold_piece` sweep serializes to the same report as one
        /// `run_piece` over the whole range, absorbed at once.
        #[test]
        fn chunked_fold_sweep_equals_one_run_piece(
            (len, step, first) in (9u64..12, 1u64..5, 0u64..3),
            horizon in 0usize..3,
            lo in 0usize..512,
            back in 0usize..200,
        ) {
            let alg = cheap_ring(6, 5);
            let horizon = [4 * alg.time_bound(), alg.time_bound() / 2, 6][horizon];
            let grid = Grid::new(horizon)
                .label_pairs_both_orders(&[(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])
                .delays(&(0..len).map(|i| first + i * step).collect::<Vec<_>>())
                .all_start_pairs(alg.graph());
            // 20 label orders × 30 start pairs × ≥ 9 delays: the range
            // crosses at least one chunk boundary.
            let hi = grid.size() - back;
            prop_assert!(hi > lo + SWEEP_CHUNK);
            let bounds = Some(Bounds { time: alg.time_bound(), cost: alg.cost_bound() });
            let executor = BatchExecutor::new(&alg).with_bounds(bounds);
            let swept = Runner::sequential().sweep_range(&grid, lo, hi, &executor).unwrap();
            let whole = grid.pieces(lo, hi).remove(0);
            let (outcomes, piece_bounds) = executor.run_piece(&Runner::sequential(), &whole).unwrap();
            let mut reference = SweepReport::default();
            reference.absorb_piece("", lo, None, &outcomes, piece_bounds);
            prop_assert_eq!(
                serde_json::to_string(&swept).unwrap(),
                serde_json::to_string(&reference).unwrap()
            );
        }
    }
}
