//! Fleet scenarios (`k ≥ 2`) as merge-and-restart gatherings, on two
//! engines: compiled walks replayed by a [`FleetSolver`] (the default)
//! or [`GatheringAgent`](rendezvous_core::GatheringAgent)s stepped by
//! [`run_gathering`] (the oracle).

use crate::executor::{Executor, PlanCache, RunnerError};
use crate::{Bounds, PieceExecutor, Runner, Scenario, ScenarioOutcome, WorkPiece};
use rendezvous_core::{gathering_fleet, RendezvousAlgorithm};
use rendezvous_graph::NodeId;
use rendezvous_sim::gathering::{run_gathering, FleetSolver};
use rendezvous_sim::AgentSpec;
use std::sync::Arc;

/// Executes **fleet** scenarios (`k ≥ 2`) as gatherings: every placement
/// is a merge-and-restart agent running `algorithm`, until all `k`
/// agents share a node or the horizon elapses.
///
/// [`GatheringExecutor::new`] replays the strategy from compiled walks:
/// each agent's walk between restarts is the trajectory of one
/// `(effective label, restart node)` plan, drawn from the same memoized
/// schedule/plan/segment cache an
/// [`AlgorithmExecutor`](crate::AlgorithmExecutor) owns, and a
/// [`FleetSolver`] runs the rounds. [`GatheringExecutor::stepped`] is
/// the oracle: [`GatheringAgent`](rendezvous_core::GatheringAgent)s
/// driven by [`run_gathering`] round by round. Both check each fleet
/// through the solver (the graph's connectivity once per executor)
/// before anything runs, and give the same outcome and the same error
/// on every scenario.
///
/// Each outcome carries its fleet's own
/// [`bounds`](crate::ScenarioOutcome::bounds): the merge-and-restart
/// time bound `b = (k−1) · (time bound + max delay)` and the cost bound
/// `k · b`, since each of the `k` agents crosses at most one edge per
/// round. [`SweepReport`](crate::SweepReport) folds judge violations and
/// the worst rounds/bound ratio against the bounds that actually apply
/// to that fleet, which one pair of piece [`Bounds`] cannot express, so
/// its pieces carry none.
pub struct GatheringExecutor {
    algorithm: Arc<dyn RendezvousAlgorithm>,
    /// Checks every fleet; on the compiled engine it also replays them.
    solver: FleetSolver,
    /// The compiled walks; `None` on the stepped engine.
    plans: Option<PlanCache>,
}

impl GatheringExecutor {
    /// Wraps the two-agent algorithm the fleet members run pairwise,
    /// replaying gatherings from compiled walks.
    #[must_use]
    pub fn new(algorithm: Arc<dyn RendezvousAlgorithm>) -> Self {
        let plans = Some(PlanCache::new(algorithm.as_ref()));
        GatheringExecutor {
            solver: FleetSolver::new(Arc::clone(algorithm.graph())),
            algorithm,
            plans,
        }
    }

    /// Like [`GatheringExecutor::new`], but stepping
    /// [`GatheringAgent`](rendezvous_core::GatheringAgent)s through
    /// [`run_gathering`]: the oracle the compiled replay is checked
    /// against.
    #[must_use]
    pub fn stepped(algorithm: Arc<dyn RendezvousAlgorithm>) -> Self {
        GatheringExecutor {
            solver: FleetSolver::new(Arc::clone(algorithm.graph())),
            algorithm,
            plans: None,
        }
    }

    /// The merge-and-restart bound `(k−1) · (time bound + max delay)` of
    /// one fleet scenario under this executor's algorithm.
    #[must_use]
    pub fn merge_restart_bound(&self, scenario: &Scenario) -> u64 {
        (scenario.k() as u64 - 1) * (self.algorithm.time_bound() + scenario.max_delay())
    }

    /// Number of distinct `(label, start)` plans compiled so far (0 on
    /// the stepped engine).
    #[must_use]
    pub fn compiled_plans(&self) -> usize {
        self.plans.as_ref().map_or(0, PlanCache::compiled_plans)
    }
}

impl Executor for GatheringExecutor {
    fn run(&self, scenario: &Scenario) -> Result<ScenarioOutcome, RunnerError> {
        let fleet: Vec<(u64, AgentSpec)> = scenario
            .placements
            .iter()
            .map(|p| (p.label, AgentSpec::delayed(p.start, p.delay)))
            .collect();
        let (time, cost, merges) = if let Some(plans) = &self.plans {
            let out = self
                .solver
                .solve(&fleet, scenario.horizon, |label, start| {
                    plans.plan(self.algorithm.as_ref(), label, start)
                })?;
            (out.gathered, out.cost, out.merges)
        } else {
            // Checked before the agents are built, as the solver checks
            // before it compiles a walk: both engines refuse a fleet
            // with the same error, and a bad start never reaches an
            // agent's constructor.
            self.solver.check(&fleet)?;
            let placements: Vec<(u64, NodeId, u64)> = scenario
                .placements
                .iter()
                .map(|p| (p.label, p.start, p.delay))
                .collect();
            let members = gathering_fleet(&self.algorithm, &placements)?;
            let out = run_gathering(self.algorithm.graph(), members, scenario.horizon)?;
            let merges = out.merge_events() as u64;
            (out.gathered.map(|m| m.round), out.cost(), merges)
        };
        let bound = self.merge_restart_bound(scenario);
        Ok(ScenarioOutcome {
            scenario: scenario.clone(),
            time,
            cost,
            // Neither engine tracks edge crossings — they are a
            // two-agent-meeting diagnostic.
            crossings: 0,
            bounds: Some(Bounds {
                time: bound,
                cost: scenario.k() as u64 * bound,
            }),
            merges,
        })
    }
}

impl PieceExecutor for GatheringExecutor {
    fn run_piece(
        &self,
        runner: &Runner,
        piece: &WorkPiece<'_>,
    ) -> Result<(Vec<ScenarioOutcome>, Option<Bounds>), RunnerError> {
        runner.outcomes(self, &piece.scenarios).map(|o| (o, None))
    }
}
