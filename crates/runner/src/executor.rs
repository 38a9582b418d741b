//! How a [`Scenario`] becomes an execution: pluggable executors.

use crate::{Bounds, PieceExecutor, Placement, Runner, Scenario, ScenarioOutcome, WorkPiece};
use rendezvous_core::{
    CoreError, Label, RendezvousAlgorithm, Schedule, ScheduleBehavior, SegmentMemo,
};
use rendezvous_graph::NodeId;
use rendezvous_sim::{AgentSpec, SimError, Simulation, Trajectory};
use rendezvous_telemetry::{Counter, Metrics, Scope};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// An executor error: configuration or simulation failure. Both indicate a
/// harness bug (the adversary only enumerates valid configurations), so the
/// sweep fails fast instead of folding poisoned values.
///
/// Errors carry locating context when the sweep machinery can attach
/// it: the failing scenario's **global** workload index and its piece's
/// fold key — at 10⁹-scenario scale "which scenario" must be in the
/// message, not reconstructed from logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunnerError {
    msg: String,
    index: Option<usize>,
    key: Option<String>,
}

impl RunnerError {
    /// Wraps any error message (no location attached yet).
    pub fn new(msg: impl Into<String>) -> Self {
        RunnerError {
            msg: msg.into(),
            index: None,
            key: None,
        }
    }

    /// Attaches the failing scenario's index if none is attached yet —
    /// piece executors call this with the **in-piece** index, which
    /// [`RunnerError::in_piece`] later lifts to a global one.
    #[must_use]
    pub fn at_index(mut self, index: usize) -> Self {
        if self.index.is_none() {
            self.index = Some(index);
        }
        self
    }

    /// Lifts an attached in-piece index to the global one (adding the
    /// piece's offset) and records the piece's fold key — what the
    /// sweep fold applies to every piece error.
    #[must_use]
    pub fn in_piece(mut self, offset: usize, key: &str) -> Self {
        if let Some(i) = self.index {
            self.index = Some(offset + i);
        }
        if self.key.is_none() && !key.is_empty() {
            self.key = Some(key.to_string());
        }
        self
    }

    /// The failing scenario's global workload index, when attached.
    #[must_use]
    pub fn index(&self) -> Option<usize> {
        self.index
    }
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario execution failed")?;
        if let Some(index) = self.index {
            write!(f, " at global index {index}")?;
            if let Some(key) = &self.key {
                write!(f, " [{key}]")?;
            }
        }
        write!(f, ": {}", self.msg)
    }
}

impl std::error::Error for RunnerError {}

impl From<SimError> for RunnerError {
    fn from(e: SimError) -> Self {
        RunnerError::new(e.to_string())
    }
}

impl From<CoreError> for RunnerError {
    fn from(e: CoreError) -> Self {
        RunnerError::new(e.to_string())
    }
}

/// Turns one scenario into one measured outcome. The
/// [`Runner`](crate::Runner) calls it on one thread, in scenario order,
/// so an implementation may keep single-owner caches behind `&self`.
pub trait Executor {
    /// Executes `scenario` and reports what happened.
    ///
    /// # Errors
    ///
    /// Any configuration or simulation error, which aborts the sweep.
    fn run(&self, scenario: &Scenario) -> Result<ScenarioOutcome, RunnerError>;
}

/// The compiled forms of one algorithm's schedules, memoized at three
/// levels and owned by one executor. A sweep revisits each label across
/// thousands of start pairs and delays, so the cache compiles each
/// label's schedule once; and because a schedule's whole execution is a
/// deterministic function of its start node, it further records the
/// label's plan (the `Arc<Trajectory>` the batched engines read) per
/// start node. Both live in one table keyed by label, whose row holds
/// the schedule and one plan slot per node, so a lookup is one `u64`
/// search plus an index. Plans are assembled from explore segments
/// compiled once per (explorer, node) in a [`SegmentMemo`], shared by
/// every label and start. Every entry is write-once.
///
/// The cache does not hold the algorithm: its owner passes the same one
/// to every call.
pub(crate) struct PlanCache {
    labels: RefCell<BTreeMap<u64, LabelPlans>>,
    /// Filled plan slots over all rows.
    plans: Cell<usize>,
    nodes: usize,
    segments: SegmentMemo,
    stats: Option<PlanCacheStats>,
}

/// One compiled label: its schedule and its plan from each start node
/// (`plans[start.index()]`, compiled on first use). A row exists only
/// once the schedule compiled, so a refused label allocates nothing.
struct LabelPlans {
    schedule: Arc<Schedule>,
    plans: Vec<Option<Arc<Trajectory>>>,
}

/// Plan-cache hit/miss counters (attached via
/// [`AlgorithmExecutor::with_metrics`]).
struct PlanCacheStats {
    hits: Counter,
    misses: Counter,
}

impl PlanCache {
    /// An empty cache for `algorithm`'s schedules.
    pub(crate) fn new(algorithm: &dyn RendezvousAlgorithm) -> Self {
        let graph = algorithm.graph();
        PlanCache {
            labels: RefCell::new(BTreeMap::new()),
            plans: Cell::new(0),
            nodes: graph.node_count(),
            segments: SegmentMemo::new(Arc::clone(graph)),
            stats: None,
        }
    }

    /// The compiled schedule for `label_value`; see
    /// [`AlgorithmExecutor::schedule`].
    pub(crate) fn schedule(
        &self,
        algorithm: &dyn RendezvousAlgorithm,
        label_value: u64,
    ) -> Result<Arc<Schedule>, RunnerError> {
        if let Some(row) = self.labels.borrow().get(&label_value) {
            return Ok(Arc::clone(&row.schedule));
        }
        // Label 0 is refused as `gathering_fleet` refuses it.
        let label = Label::new(label_value).ok_or(CoreError::LabelOutOfRange {
            label: 0,
            space: algorithm.label_space().size(),
        })?;
        let compiled = Arc::new(algorithm.schedule(label)?);
        self.labels.borrow_mut().insert(
            label_value,
            LabelPlans {
                schedule: Arc::clone(&compiled),
                plans: vec![None; self.nodes],
            },
        );
        Ok(compiled)
    }

    /// The plan for `(label_value, start)`; see
    /// [`AlgorithmExecutor::plan`].
    pub(crate) fn plan(
        &self,
        algorithm: &dyn RendezvousAlgorithm,
        label_value: u64,
        start: NodeId,
    ) -> Result<Arc<Trajectory>, RunnerError> {
        if let Some(row) = self.labels.borrow().get(&label_value) {
            if let Some(Some(p)) = row.plans.get(start.index()) {
                if let Some(stats) = &self.stats {
                    stats.hits.inc();
                }
                return Ok(Arc::clone(p));
            }
        }
        let schedule = self.schedule(algorithm, label_value)?;
        let compiled = Arc::new(self.segments.trajectory(&schedule, start));
        if let Some(stats) = &self.stats {
            stats.misses.inc();
        }
        self.labels
            .borrow_mut()
            .get_mut(&label_value)
            .expect("the schedule's row")
            .plans[start.index()] = Some(Arc::clone(&compiled));
        self.plans.set(self.plans.get() + 1);
        Ok(compiled)
    }

    /// Number of distinct labels compiled so far.
    pub(crate) fn compiled_labels(&self) -> usize {
        self.labels.borrow().len()
    }

    /// Number of distinct `(label, start)` plans compiled so far.
    pub(crate) fn compiled_plans(&self) -> usize {
        self.plans.get()
    }
}

/// Executes scenarios against a [`RendezvousAlgorithm`]: each agent is a
/// [`ScheduleBehavior`] stepping the schedule the algorithm compiles for
/// its label, round by round — the stepped engine, the oracle the
/// batched engine is checked against.
///
/// Compilation is **memoized per executor**: each label's schedule
/// serves every scenario, and the executor also owns the label's plan
/// per start node and the per-(explorer, node) explore segments the
/// [`BatchExecutor`](crate::BatchExecutor) around it reads, in one
/// write-once cache owned by the executor alone. Its own
/// [`run`](Executor::run) compiles no plan. A
/// [`GatheringExecutor`](crate::GatheringExecutor) owns the same kind of
/// cache.
///
/// As a [`PieceExecutor`] it judges every outcome against the bounds
/// attached with [`AlgorithmExecutor::with_bounds`] (none by default):
/// one algorithm, hence one bound pair, covers a whole pair sweep.
pub struct AlgorithmExecutor<'a> {
    algorithm: &'a dyn RendezvousAlgorithm,
    cache: PlanCache,
    pub(crate) bounds: Option<Bounds>,
}

impl<'a> AlgorithmExecutor<'a> {
    /// Wraps an algorithm.
    #[must_use]
    pub fn new(algorithm: &'a dyn RendezvousAlgorithm) -> Self {
        AlgorithmExecutor {
            algorithm,
            cache: PlanCache::new(algorithm),
            bounds: None,
        }
    }

    /// Attaches the bounds every outcome of this executor's pieces is
    /// judged against.
    #[must_use]
    pub fn with_bounds(mut self, bounds: Option<Bounds>) -> Self {
        self.bounds = bounds;
        self
    }

    /// Attaches plan-cache hit/miss counters from `metrics`: a **miss**
    /// per plan compiled (once per key), a **hit** per reuse, so
    /// `hits + misses` equals accesses. Only the batched engine reads
    /// plans, so a stepped sweep leaves both at 0.
    #[must_use]
    pub fn with_metrics(mut self, metrics: &Metrics) -> Self {
        self.cache.stats = Some(PlanCacheStats {
            hits: metrics.counter(Scope::Process, "plan_cache_hits"),
            misses: metrics.counter(Scope::Process, "plan_cache_misses"),
        });
        self
    }

    /// The compiled schedule for `label_value`, memoized across scenarios.
    ///
    /// # Errors
    ///
    /// Rejects non-positive labels and propagates compilation errors
    /// (e.g. a label outside the algorithm's label space).
    pub fn schedule(&self, label_value: u64) -> Result<Arc<Schedule>, RunnerError> {
        self.cache.schedule(self.algorithm, label_value)
    }

    /// The plan for `(label_value, start)` — the trajectory of the
    /// label's compiled schedule run from that start node — memoized
    /// across scenarios. A pair grid revisits each `(label, start)`
    /// across every delay and every partner configuration, so the
    /// compile amortizes the same way the schedule compile does one
    /// level up.
    ///
    /// # Errors
    ///
    /// See [`AlgorithmExecutor::schedule`].
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a node of the algorithm's graph.
    pub fn plan(&self, label_value: u64, start: NodeId) -> Result<Arc<Trajectory>, RunnerError> {
        self.cache.plan(self.algorithm, label_value, start)
    }

    /// Number of distinct labels compiled so far (cache size).
    #[must_use]
    pub fn compiled_labels(&self) -> usize {
        self.cache.compiled_labels()
    }

    /// Number of distinct `(label, start)` plans compiled so far.
    #[must_use]
    pub fn compiled_plans(&self) -> usize {
        self.cache.compiled_plans()
    }
}

impl AlgorithmExecutor<'_> {
    /// The checks both pair engines make before the placements: a pair
    /// (a fleet is refused, not cut to its first two agents), both starts
    /// nodes of the graph (a behavior's constructor panics on any other,
    /// so this comes first, with the error
    /// [`check_agents`](rendezvous_sim::check_agents) gives), then both
    /// labels, each through `compile(label, start)`: the stepped engine
    /// fetches the label's schedule, the batched one its plan, which
    /// compiles from that schedule and fails exactly when it does. Both
    /// engines then check the returned placements with `check_agents`,
    /// then the graph's connectivity — [`Simulation::run`]'s order — so
    /// a scenario that fails two checks gets the same error from either.
    pub(crate) fn check_pair<T>(
        &self,
        scenario: &Scenario,
        mut compile: impl FnMut(u64, NodeId) -> Result<T, RunnerError>,
    ) -> Result<[(T, AgentSpec); 2], RunnerError> {
        if !scenario.is_pair() {
            return Err(RunnerError::new(format!(
                "AlgorithmExecutor runs two-agent rendezvous but the scenario places {} agents; \
                 use GatheringExecutor for fleets",
                scenario.k()
            )));
        }
        let graph = self.algorithm.graph();
        for node in [scenario.start_a(), scenario.start_b()] {
            if !graph.contains(node) {
                return Err(SimError::StartOutOfRange { node }.into());
            }
        }
        let mut member = |p: &Placement| {
            compile(p.label, p.start).map(|c| (c, AgentSpec::delayed(p.start, p.delay)))
        };
        Ok([member(scenario.first())?, member(scenario.second())?])
    }
}

impl Executor for AlgorithmExecutor<'_> {
    fn run(&self, scenario: &Scenario) -> Result<ScenarioOutcome, RunnerError> {
        let [(schedule_a, a), (schedule_b, b)] =
            self.check_pair(scenario, |label, _| self.schedule(label))?;
        let graph = self.algorithm.graph();
        let behavior = |schedule, spec: AgentSpec| {
            Box::new(ScheduleBehavior::with_shared(
                Arc::clone(graph),
                schedule,
                spec.start,
            ))
        };
        let outcome = Simulation::new(graph)
            .agent(behavior(schedule_a, a), a)
            .agent(behavior(schedule_b, b), b)
            .max_rounds(scenario.horizon)
            .run()?;
        Ok(ScenarioOutcome::pairwise(
            scenario.clone(),
            outcome.time(),
            outcome.cost(),
            outcome.crossings(),
        ))
    }
}

impl PieceExecutor for AlgorithmExecutor<'_> {
    fn run_piece(
        &self,
        runner: &Runner,
        piece: &WorkPiece<'_>,
    ) -> Result<(Vec<ScenarioOutcome>, Option<Bounds>), RunnerError> {
        runner
            .outcomes(self, &piece.scenarios)
            .map(|o| (o, self.bounds))
    }
}
