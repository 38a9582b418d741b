//! The sweep executor.

use crate::{Executor, PieceExecutor, RunnerError, Scenario, SweepReport, WorkPiece, Workload};
use rendezvous_telemetry::{Metrics, Scope, Stopwatch};
use std::sync::Arc;

/// Units per chunk of [`Runner::sweep_range`]: the most scenarios one
/// sweep holds in memory at a time.
pub(crate) const SWEEP_CHUNK: usize = 4096;

/// Executes workload sweeps on the calling thread.
///
/// Outcomes are folded at global workload indices, so any contiguous
/// split of a sweep — the runner's own chunks, the fabric's lease
/// ranges — folds to **the same** [`SweepReport`] as one pass over the
/// whole workload, asserted by the determinism property tests in
/// `tests/`. Parallelism lives one level up, in the multi-process
/// fabric (`rendezvous-fabric`).
///
/// A [`Metrics`] sink may be attached ([`Runner::with_metrics`]); it
/// observes the sweep (scenarios executed, pieces completed, per-piece
/// wall time, live progress) without ever entering the fold — a sweep
/// with a sink produces byte-identical reports to one without.
#[derive(Debug, Clone)]
pub struct Runner {
    metrics: Option<Arc<Metrics>>,
}

impl Runner {
    /// A runner with no telemetry sink.
    #[must_use]
    pub fn sequential() -> Self {
        Runner { metrics: None }
    }

    /// Attaches a telemetry sink observing this runner's sweeps.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The attached telemetry sink, if any.
    #[must_use]
    pub fn metrics(&self) -> Option<&Arc<Metrics>> {
        self.metrics.as_ref()
    }

    /// Executes every scenario through `executor` and returns the raw
    /// outcomes in input order — the building block piece executors use
    /// for their batches.
    ///
    /// # Errors
    ///
    /// The first [`RunnerError`] by scenario index, if any execution
    /// failed; no later scenario runs.
    pub fn outcomes(
        &self,
        executor: &dyn Executor,
        scenarios: &[Scenario],
    ) -> Result<Vec<crate::ScenarioOutcome>, RunnerError> {
        scenarios
            .iter()
            .enumerate()
            .map(|(i, scenario)| executor.run(scenario).map_err(|e| e.at_index(i)))
            .collect()
    }

    /// Sweeps an entire [`Workload`] into a [`SweepReport`] — the one
    /// enumerate → run → fold pipeline behind every experiment.
    ///
    /// # Errors
    ///
    /// The first [`RunnerError`] in global unit order.
    pub fn sweep<W, E>(&self, workload: &W, executor: &E) -> Result<SweepReport, RunnerError>
    where
        W: Workload + ?Sized,
        E: PieceExecutor + ?Sized,
    {
        self.sweep_range(workload, 0, workload.size(), executor)
    }

    /// Sweeps the global index range `[lo, hi)` of a [`Workload`].
    ///
    /// The range is walked in fixed chunks of `SWEEP_CHUNK` (4096) units:
    /// each chunk's pieces are enumerated, then run and folded into the
    /// one report piece by piece, each piece's outcomes dropped before the
    /// next piece runs. So no more than a chunk's scenarios and a piece's
    /// outcomes are ever held at once, however large the workload.
    /// Chunking never changes a report: the fold is at global indices, so
    /// any contiguous split folds to the same aggregates.
    ///
    /// # Errors
    ///
    /// See [`Runner::sweep`]; the sweep stops at the first failing piece.
    pub fn sweep_range<W, E>(
        &self,
        workload: &W,
        lo: usize,
        hi: usize,
        executor: &E,
    ) -> Result<SweepReport, RunnerError>
    where
        W: Workload + ?Sized,
        E: PieceExecutor + ?Sized,
    {
        assert!(
            lo <= hi && hi <= workload.size(),
            "sweep range {lo}..{hi} out of bounds for a workload of {}",
            workload.size()
        );
        let chunks = || {
            (lo..hi)
                .step_by(SWEEP_CHUNK)
                .map(|a| (a, hi.min(a + SWEEP_CHUNK)))
        };
        if let Some(metrics) = self.metrics.as_deref() {
            // Planned once for the whole range, so live progress shows
            // whole-sweep totals from the first chunk on.
            let pieces = chunks().map(|(a, b)| workload.piece_count(a, b)).sum();
            metrics.progress().add_planned(hi - lo, pieces);
        }
        let mut report = SweepReport::default();
        for (a, b) in chunks() {
            for piece in workload.pieces(a, b) {
                self.fold_piece(&mut report, &piece, executor)?;
            }
        }
        Ok(report)
    }

    /// Runs one piece and folds its outcomes into `report` at their
    /// global indices, into the piece's group with one lookup.
    fn fold_piece<E>(
        &self,
        report: &mut SweepReport,
        piece: &WorkPiece<'_>,
        executor: &E,
    ) -> Result<(), RunnerError>
    where
        E: PieceExecutor + ?Sized,
    {
        let telemetry = self.metrics.as_deref();
        let watch = telemetry.map(|_| Stopwatch::start());
        let result = executor.run_piece(self, piece);
        if let (Some(metrics), Some(watch)) = (telemetry, &watch) {
            metrics
                .histogram("piece_wall_ns")
                .record_ns(watch.elapsed_ns());
            if result.is_ok() {
                metrics
                    .counter(Scope::Scenario, "scenarios_executed")
                    .add_count(piece.scenarios.len());
                metrics.counter(Scope::Process, "pieces_completed").inc();
            }
            metrics.progress().piece_done(piece.scenarios.len());
        }
        let (outcomes, bounds) = result.map_err(|e| e.in_piece(piece.offset, piece.key))?;
        debug_assert_eq!(outcomes.len(), piece.scenarios.len());
        let spec = piece.entry.map(|e| &e.spec);
        report.absorb_piece(piece.key, piece.offset, spec, &outcomes, bounds);
        Ok(())
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fold_outcomes, BatchExecutor, Bounds, Grid, ScenarioOutcome, TopoGrid};
    use rendezvous_core::{Cheap, LabelSpace, RendezvousAlgorithm};
    use rendezvous_explore::{spec_explorer, OrientedRingExplorer};
    use rendezvous_graph::{generators, GraphSpec, RingSpec, SeededSpec};
    use rendezvous_telemetry::ProgressCounts;
    use std::cell::{Cell, RefCell};

    fn cheap_ring(n: usize, l: u64) -> Cheap {
        let g = Arc::new(generators::oriented_ring(n).unwrap());
        let ex = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
        Cheap::new(g, ex, LabelSpace::new(l).unwrap())
    }

    fn label_pairs(l: u64) -> Vec<(u64, u64)> {
        (1..=l)
            .flat_map(|a| ((a + 1)..=l).map(move |b| (a, b)))
            .collect()
    }

    /// Five delays per (labels, starts) group: 5 does not divide
    /// [`SWEEP_CHUNK`], so batched groups straddle chunk boundaries.
    const DELAYS: [u64; 5] = [0, 1, 7, 8, 14];

    /// A pair grid several chunks long: 56 label orders × 56 start
    /// pairs × 5 delays on the 8-ring.
    fn straddling_grid(alg: &dyn RendezvousAlgorithm) -> Grid {
        let grid = Grid::new(4 * alg.time_bound())
            .label_pairs_both_orders(&label_pairs(8))
            .delays(&DELAYS)
            .all_start_pairs(alg.graph());
        assert!(grid.size() > 3 * SWEEP_CHUNK);
        assert_ne!(
            SWEEP_CHUNK % DELAYS.len(),
            0,
            "a (labels, starts) group must straddle the first chunk boundary"
        );
        grid
    }

    /// The pre-chunking fold: every piece of the whole range run at
    /// once, outcomes absorbed in global order.
    fn one_shot<W, E>(workload: &W, executor: &E) -> SweepReport
    where
        W: Workload + ?Sized,
        E: PieceExecutor + ?Sized,
    {
        let mut report = SweepReport::default();
        for piece in workload.pieces(0, workload.size()) {
            let (outcomes, bounds) = executor
                .run_piece(&Runner::sequential(), &piece)
                .expect("reference run succeeds");
            let spec = piece.entry.map(|e| &e.spec);
            for (k, outcome) in outcomes.iter().enumerate() {
                report.absorb(piece.key, piece.offset + k, spec, outcome, bounds);
            }
        }
        report
    }

    /// Wraps a piece executor, recording every piece it is handed and
    /// the live progress totals at that moment.
    struct Recording<'e, E: ?Sized> {
        inner: &'e E,
        metrics: Option<Arc<Metrics>>,
        calls: Cell<usize>,
        largest: Cell<usize>,
        units: Cell<usize>,
        planned: RefCell<Vec<ProgressCounts>>,
    }

    impl<'e, E: PieceExecutor + ?Sized> Recording<'e, E> {
        fn new(inner: &'e E, metrics: Option<Arc<Metrics>>) -> Self {
            Recording {
                inner,
                metrics,
                calls: Cell::new(0),
                largest: Cell::new(0),
                units: Cell::new(0),
                planned: RefCell::new(Vec::new()),
            }
        }
    }

    impl<E: PieceExecutor + ?Sized> PieceExecutor for Recording<'_, E> {
        fn run_piece(
            &self,
            runner: &Runner,
            piece: &WorkPiece<'_>,
        ) -> Result<(Vec<ScenarioOutcome>, Option<Bounds>), RunnerError> {
            let len = piece.scenarios.len();
            self.calls.set(self.calls.get() + 1);
            self.largest.set(self.largest.get().max(len));
            self.units.set(self.units.get() + len);
            if let Some(metrics) = &self.metrics {
                self.planned.borrow_mut().push(metrics.progress().counts());
            }
            self.inner.run_piece(runner, piece)
        }
    }

    /// Per-piece executor for topology sweeps: `Cheap` on the piece's
    /// graph, batched.
    struct CheapTopo;

    impl PieceExecutor for CheapTopo {
        fn run_piece(
            &self,
            runner: &Runner,
            piece: &WorkPiece<'_>,
        ) -> Result<(Vec<ScenarioOutcome>, Option<Bounds>), RunnerError> {
            let entry = piece.entry.expect("topology pieces carry their entry");
            let explorer = spec_explorer(&entry.spec, entry.graph.clone())
                .map_err(|e| RunnerError::new(e.to_string()))?;
            let alg = Cheap::new(entry.graph.clone(), explorer, LabelSpace::new(6).unwrap());
            let bounds = Some(Bounds {
                time: alg.time_bound(),
                cost: alg.cost_bound(),
            });
            BatchExecutor::new(&alg)
                .with_bounds(bounds)
                .run_piece(runner, piece)
        }
    }

    /// Rings and scrambled rings whose grids (30 label orders × n(n−1)
    /// start pairs × 5 delays) put entry boundaries and chunk
    /// boundaries at unrelated indices.
    fn straddling_topo() -> TopoGrid {
        let specs = vec![
            GraphSpec::Ring(RingSpec { n: 7 }),
            GraphSpec::ScrambledRing(SeededSpec { n: 6, seed: 3 }),
            GraphSpec::Ring(RingSpec { n: 9 }),
            GraphSpec::ScrambledRing(SeededSpec { n: 5, seed: 8 }),
        ];
        let topo = TopoGrid::build(specs, |_, g| {
            Grid::new(400)
                .label_pairs_both_orders(&label_pairs(6))
                .delays(&DELAYS)
                .all_start_pairs(g)
        })
        .unwrap();
        assert!(topo.size() > 3 * SWEEP_CHUNK);
        topo
    }

    #[test]
    fn no_piece_exceeds_the_chunk() {
        let alg = cheap_ring(8, 8);
        let grid = straddling_grid(&alg);
        let batched = BatchExecutor::new(&alg);
        let topo = straddling_topo();
        let runner = Runner::sequential();
        let recording = Recording::new(&batched, None);
        assert_eq!(
            runner.sweep(&grid, &recording).unwrap().executed(),
            grid.size()
        );
        assert!(recording.largest.get() <= SWEEP_CHUNK);
        assert_eq!(recording.units.get(), grid.size());
        assert_eq!(recording.calls.get(), grid.size().div_ceil(SWEEP_CHUNK));

        let recording = Recording::new(&CheapTopo, None);
        assert_eq!(
            runner.sweep(&topo, &recording).unwrap().executed(),
            topo.size()
        );
        assert!(recording.largest.get() <= SWEEP_CHUNK);
        assert_eq!(recording.units.get(), topo.size());
    }

    #[test]
    fn chunked_grid_sweep_equals_one_shot_fold() {
        let alg = cheap_ring(8, 8);
        let grid = straddling_grid(&alg);
        let bounds = Some(Bounds {
            time: alg.time_bound(),
            cost: alg.cost_bound(),
        });
        let batched = BatchExecutor::new(&alg).with_bounds(bounds);
        let whole = grid.pieces(0, grid.size()).remove(0);
        let (outcomes, piece_bounds) = batched
            .run_piece(&Runner::sequential(), &whole)
            .expect("one-shot run succeeds");
        let reference = fold_outcomes(&outcomes, piece_bounds);
        assert_eq!(reference, one_shot(&grid, &batched));
        assert_eq!(
            Runner::sequential().sweep(&grid, &batched).unwrap(),
            reference
        );
        // A range that starts and ends mid-chunk folds like the same
        // slice of the one-shot outcomes.
        let (lo, hi) = (SWEEP_CHUNK - 2, 2 * SWEEP_CHUNK + 3);
        let mut slice = SweepReport::default();
        for (k, outcome) in outcomes[lo..hi].iter().enumerate() {
            slice.absorb("", lo + k, None, outcome, piece_bounds);
        }
        assert_eq!(
            Runner::sequential()
                .sweep_range(&grid, lo, hi, &batched)
                .unwrap(),
            slice
        );
    }

    #[test]
    fn chunked_topo_sweep_equals_one_shot_fold() {
        let topo = straddling_topo();
        let reference = one_shot(&topo, &CheapTopo);
        assert_eq!(reference.executed(), topo.size());
        assert!(reference.clean());
        assert_eq!(
            Runner::sequential().sweep(&topo, &CheapTopo).unwrap(),
            reference
        );
    }

    /// Sweeps `workload` with live progress attached: the planned
    /// totals are whole-sweep from the first piece on, and met exactly
    /// at the end.
    fn assert_whole_sweep_plan<W: Workload, E: PieceExecutor>(workload: &W, executor: &E) {
        let metrics = Arc::new(Metrics::new());
        let runner = Runner::sequential().with_metrics(Arc::clone(&metrics));
        let recording = Recording::new(executor, Some(Arc::clone(&metrics)));
        let report = runner.sweep(workload, &recording).unwrap();
        assert_eq!(report.executed(), workload.size());
        let done = metrics.progress().counts();
        let size = workload.size() as u64;
        let pieces = recording.calls.get() as u64;
        assert_eq!((done.scenarios_done, done.scenarios_total), (size, size));
        assert_eq!((done.pieces_done, done.pieces_total), (pieces, pieces));
        let planned = recording.planned.into_inner();
        assert!(planned.len() > 1, "the sweep spans several chunks");
        for seen in planned {
            assert_eq!((seen.scenarios_total, seen.pieces_total), (size, pieces));
        }
    }

    #[test]
    fn progress_plans_whole_sweep_totals_under_chunking() {
        let alg = cheap_ring(8, 8);
        assert_whole_sweep_plan(&straddling_grid(&alg), &BatchExecutor::new(&alg));
        assert_whole_sweep_plan(&straddling_topo(), &CheapTopo);
    }
}
