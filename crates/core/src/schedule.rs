//! Schedules: the common compiled form of all three algorithms.
//!
//! Every algorithm in the paper is a sequence of *phases*, each either an
//! execution of `EXPLORE` (taking exactly `E` rounds, idling after an early
//! finish) or a waiting period. `Cheap` is `[Explore, Wait(2ℓE), Explore]`;
//! `Fast` maps the bits of a transformed label to explore/wait phases. A
//! [`Schedule`] captures this shape, and [`ScheduleBehavior`] executes it
//! as a simulator agent.

use rendezvous_explore::{ExploreRun, Explorer};
use rendezvous_graph::{NodeId, Port, PortLabeledGraph};
use rendezvous_sim::{Action, AgentBehavior, Observation, Trajectory};
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

/// One phase of a schedule.
#[derive(Clone)]
pub enum Phase {
    /// Execute the exploration procedure once (exactly `bound()` rounds,
    /// idling if the walk finishes early).
    Explore(Arc<dyn Explorer>),
    /// Stay idle for the given number of rounds.
    Wait(u64),
}

impl Phase {
    /// Duration of the phase in rounds.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        match self {
            Phase::Explore(e) => e.bound() as u64,
            Phase::Wait(r) => *r,
        }
    }

    /// Returns `true` for exploration phases.
    #[must_use]
    pub fn is_explore(&self) -> bool {
        matches!(self, Phase::Explore(_))
    }
}

impl fmt::Debug for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Explore(e) => write!(f, "Explore[{} x{}]", e.name(), e.bound()),
            Phase::Wait(r) => write!(f, "Wait[{r}]"),
        }
    }
}

/// A finite sequence of phases — the deterministic plan an agent follows
/// from its wake-up round.
///
/// # Examples
///
/// ```
/// use rendezvous_core::{Phase, Schedule};
/// use rendezvous_explore::BoundedWalkExplorer;
/// use std::sync::Arc;
///
/// let explore = Arc::new(BoundedWalkExplorer::new(4));
/// let s = Schedule::new(vec![
///     Phase::Explore(explore.clone()),
///     Phase::Wait(8),
///     Phase::Explore(explore),
/// ]);
/// assert_eq!(s.total_rounds(), 4 + 8 + 4);
/// assert_eq!(s.explore_phases(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    phases: Vec<Phase>,
}

impl Schedule {
    /// Creates a schedule from phases.
    #[must_use]
    pub fn new(phases: Vec<Phase>) -> Self {
        Schedule { phases }
    }

    /// The phases.
    #[must_use]
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total duration in rounds.
    #[must_use]
    pub fn total_rounds(&self) -> u64 {
        self.phases.iter().map(Phase::rounds).sum()
    }

    /// Number of exploration phases — this times `E` upper-bounds the
    /// agent's individual cost.
    #[must_use]
    pub fn explore_phases(&self) -> u64 {
        self.phases.iter().filter(|p| p.is_explore()).count() as u64
    }

    /// Appends another schedule (used by the iterated, unknown-`E`
    /// algorithms of the Conclusion).
    pub fn extend(&mut self, other: Schedule) {
        self.phases.extend(other.phases);
    }

    /// One-character-per-phase summary: `E` for an exploration, `w` for a
    /// wait of at most one exploration bound, `W` for a longer wait.
    /// Mirrors the `T = (1, S₁, S₁, …)` pictures in the paper.
    ///
    /// # Examples
    ///
    /// ```
    /// use rendezvous_core::{Phase, Schedule};
    /// use rendezvous_explore::BoundedWalkExplorer;
    /// use std::sync::Arc;
    ///
    /// let e = Arc::new(BoundedWalkExplorer::new(4));
    /// let s = Schedule::new(vec![
    ///     Phase::Explore(e.clone()),
    ///     Phase::Wait(16),
    ///     Phase::Explore(e),
    /// ]);
    /// assert_eq!(s.describe(), "EWE");
    /// ```
    #[must_use]
    pub fn describe(&self) -> String {
        let e = self
            .phases
            .iter()
            .filter_map(|p| match p {
                Phase::Explore(ex) => Some(ex.bound() as u64),
                Phase::Wait(_) => None,
            })
            .max()
            .unwrap_or(0);
        self.phases
            .iter()
            .map(|p| match p {
                Phase::Explore(_) => 'E',
                Phase::Wait(r) if *r <= e => 'w',
                Phase::Wait(_) => 'W',
            })
            .collect()
    }
}

/// Executes a [`Schedule`] as a simulator agent.
///
/// The behavior is constructed with the agent's start node and tracks its
/// own position on the map as it moves — the "port-labelled map with marked
/// start" scenario of §1.2. (Explorers that ignore position, like trial-DFS
/// or UXS, simply never use the tracked value.) After the schedule is
/// exhausted the agent stays idle forever; the algorithms guarantee that
/// rendezvous happens before that.
pub struct ScheduleBehavior {
    graph: Arc<PortLabeledGraph>,
    /// Shared, not owned: sweep executors compile a label's schedule once
    /// and hand the same `Arc` to thousands of behaviors.
    schedule: Arc<Schedule>,
    position: NodeId,
    phase_idx: usize,
    round_in_phase: u64,
    run: Option<Box<dyn ExploreRun>>,
    /// Entry port of the move made on the previous round *within the
    /// current run* (None on a run's first round, after a stay, or across
    /// phase boundaries).
    last_entry: Option<Port>,
}

impl fmt::Debug for ScheduleBehavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScheduleBehavior")
            .field("phases", &self.schedule.phases())
            .field("position", &self.position)
            .field("phase_idx", &self.phase_idx)
            .field("round_in_phase", &self.round_in_phase)
            .finish_non_exhaustive()
    }
}

impl ScheduleBehavior {
    /// Creates the behavior for an agent starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a node of `graph`.
    #[must_use]
    pub fn new(graph: Arc<PortLabeledGraph>, schedule: Schedule, start: NodeId) -> Self {
        Self::with_shared(graph, Arc::new(schedule), start)
    }

    /// Like [`ScheduleBehavior::new`] but reusing an already-compiled,
    /// shared schedule — the constructor sweep executors use so that one
    /// compilation serves every scenario with the same label.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a node of `graph`.
    #[must_use]
    pub fn with_shared(
        graph: Arc<PortLabeledGraph>,
        schedule: Arc<Schedule>,
        start: NodeId,
    ) -> Self {
        assert!(graph.contains(start), "start node out of range");
        ScheduleBehavior {
            graph,
            schedule,
            position: start,
            phase_idx: 0,
            round_in_phase: 0,
            run: None,
            last_entry: None,
        }
    }

    /// The node the behavior believes it occupies (its map position).
    #[must_use]
    pub fn position(&self) -> NodeId {
        self.position
    }

    /// Returns `true` once every phase has been executed — from then on
    /// [`next_action`](AgentBehavior::next_action) answers [`Action::Stay`]
    /// forever. Two-agent runs never observe this (the paper's algorithms
    /// meet within their schedules), but gathering fleets must: a cluster
    /// whose schedule ran out without the fleet assembling has to re-run
    /// it, or it goes permanently inert (see
    /// [`GatheringAgent`](crate::GatheringAgent)).
    #[must_use]
    pub fn exhausted(&mut self) -> bool {
        self.settle();
        self.phase_idx >= self.schedule.phases().len()
    }

    /// Skips zero-length phases and starts runs lazily.
    fn settle(&mut self) {
        while let Some(phase) = self.schedule.phases().get(self.phase_idx) {
            if self.round_in_phase >= phase.rounds() {
                self.phase_idx += 1;
                self.round_in_phase = 0;
                self.run = None;
                self.last_entry = None;
                continue;
            }
            if let Phase::Explore(explorer) = phase {
                if self.run.is_none() {
                    self.run = Some(explorer.begin(self.position));
                    self.last_entry = None;
                }
            }
            break;
        }
    }
}

/// A schedule fully unrolled from a fixed start node: every round's
/// action precomputed into one flat array, so an agent's per-round
/// decision phase is an **indexed load** instead of phase bookkeeping
/// plus an explorer-run step.
///
/// Everything a [`ScheduleBehavior`] does is a deterministic function of
/// `(schedule, start)` — the observation stream never influences its
/// moves — so the whole action sequence can be compiled once and replayed
/// by [`FlatPlan::behavior`]. Sweep workloads revisit each `(label,
/// start)` pair across every delay and partner choice of the grid, which
/// is exactly the reuse the
/// [`AlgorithmExecutor`](../../rendezvous_runner/struct.AlgorithmExecutor.html)
/// cache exploits.
///
/// The compiler walks the schedule's phases. A wait phase is appended
/// whole (stays, a repeated position, no moves). An explore phase is
/// appended as the *segment* of (explorer, node the phase starts on)
/// from a [`SegmentMemo`]: a [`ScheduleBehavior`] restarts its explorer
/// and clears the entry port at every phase boundary, so that pair
/// fixes the phase's every move. Each segment is computed once, by a
/// [`ScheduleBehavior`] stepped round by round over a one-phase
/// schedule — so the flat plan is equal to the stepped execution by
/// construction. The equivalence tests below and the byte-identical
/// experiment outputs both rest on that.
///
/// A plan keeps both forms of the walk: [`FlatPlan::actions`] for the
/// stepped engine and [`FlatPlan::trajectory`] for the batched one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatPlan {
    actions: Vec<Action>,
    end_position: NodeId,
    trajectory: Trajectory,
}

/// One explore phase unrolled from its start node: what the phase
/// appends to every plan that runs the same explorer from that node.
#[derive(Debug)]
struct Segment {
    actions: Vec<Action>,
    /// The phase's walk, starting at the start node.
    trajectory: Trajectory,
    end: NodeId,
}

impl Segment {
    /// Steps a [`ScheduleBehavior`] through the one-phase schedule
    /// `[Explore(explorer)]` from `start`.
    fn explore(graph: &Arc<PortLabeledGraph>, explorer: &Arc<dyn Explorer>, start: NodeId) -> Self {
        let rounds = explorer.bound();
        let schedule = Arc::new(Schedule::new(vec![Phase::Explore(Arc::clone(explorer))]));
        let mut behavior = ScheduleBehavior::with_shared(Arc::clone(graph), schedule, start);
        let mut actions = Vec::with_capacity(rounds);
        let mut trajectory = Trajectory::with_capacity(node_index(start), rounds);
        for round in 0..rounds as u64 {
            // The behavior reads only the degree from its observation
            // (it tracks position and entry ports internally), so the
            // synthesized observation needs nothing else.
            let action = behavior.next_action(Observation {
                local_round: round,
                degree: graph.degree(behavior.position()),
                entry_port: None,
            });
            trajectory.push(node_index(behavior.position()), action.is_move());
            actions.push(action);
        }
        Segment {
            actions,
            trajectory,
            end: behavior.position(),
        }
    }
}

/// Explore segments compiled once per (explorer, start node) of one
/// graph, shared by every [`FlatPlan`] compiled through the memo.
///
/// An explorer is identified by its `Arc` ([`Arc::ptr_eq`] against the
/// `Arc`s the memo holds, so an address cannot be reused while the memo
/// lives). Each slot is written once, by the memo's single owner.
#[derive(Debug)]
pub struct SegmentMemo {
    graph: Arc<PortLabeledGraph>,
    explorers: RefCell<Vec<ExplorerSegments>>,
}

/// One explorer's segments, indexed by start node.
#[derive(Debug)]
struct ExplorerSegments {
    explorer: Arc<dyn Explorer>,
    by_start: Vec<Option<Arc<Segment>>>,
}

impl SegmentMemo {
    /// An empty memo for schedules run on `graph`.
    #[must_use]
    pub fn new(graph: Arc<PortLabeledGraph>) -> Self {
        SegmentMemo {
            graph,
            explorers: RefCell::new(Vec::new()),
        }
    }

    /// Number of distinct (explorer, start node) segments compiled so far.
    #[cfg(test)]
    fn compiled_segments(&self) -> usize {
        self.explorers
            .borrow()
            .iter()
            .map(|e| e.by_start.iter().flatten().count())
            .sum()
    }

    /// The segment of `explorer` run from `start`, compiled on first use.
    fn segment(&self, explorer: &Arc<dyn Explorer>, start: NodeId) -> Arc<Segment> {
        let mut explorers = self.explorers.borrow_mut();
        let i = explorers
            .iter()
            .position(|e| Arc::ptr_eq(&e.explorer, explorer))
            .unwrap_or_else(|| {
                explorers.push(ExplorerSegments {
                    explorer: Arc::clone(explorer),
                    by_start: vec![None; self.graph.node_count()],
                });
                explorers.len() - 1
            });
        Arc::clone(
            explorers[i].by_start[start.index()]
                .get_or_insert_with(|| Arc::new(Segment::explore(&self.graph, explorer, start))),
        )
    }
}

/// A node's index as a trajectory entry.
fn node_index(node: NodeId) -> u32 {
    u32::try_from(node.index()).expect("node index fits in u32")
}

impl FlatPlan {
    /// Compiles the flat plan of `schedule` from `start` through a
    /// throwaway [`SegmentMemo`]; see [`FlatPlan::compile_memoized`].
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a node of `graph`.
    #[must_use]
    pub fn compile(
        graph: Arc<PortLabeledGraph>,
        schedule: Arc<Schedule>,
        start: NodeId,
    ) -> FlatPlan {
        Self::compile_memoized(&SegmentMemo::new(graph), &schedule, start)
    }

    /// Compiles the flat plan of `schedule` from `start` on the memo's
    /// graph: each wait phase is appended in bulk, each explore phase as
    /// the memo's segment for (explorer, node the phase starts on).
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a node of the memo's graph.
    #[must_use]
    pub fn compile_memoized(memo: &SegmentMemo, schedule: &Schedule, start: NodeId) -> FlatPlan {
        assert!(memo.graph.contains(start), "start node out of range");
        let total = usize::try_from(schedule.total_rounds()).expect("schedule fits in memory");
        let mut actions = Vec::with_capacity(total);
        let mut trajectory = Trajectory::with_capacity(node_index(start), total);
        let mut at = start;
        for phase in schedule.phases() {
            match phase {
                Phase::Wait(rounds) => {
                    let idle = usize::try_from(*rounds).expect("wait fits in memory");
                    actions.resize(actions.len() + idle, Action::Stay);
                    trajectory.idle(*rounds);
                }
                Phase::Explore(explorer) => {
                    let segment = memo.segment(explorer, at);
                    actions.extend_from_slice(&segment.actions);
                    trajectory.append(&segment.trajectory);
                    at = segment.end;
                }
            }
        }
        FlatPlan {
            actions,
            end_position: at,
            trajectory,
        }
    }

    /// The compiled per-round actions, in schedule order.
    #[must_use]
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Total rounds the plan covers (= the schedule's total rounds).
    #[must_use]
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Returns `true` for a zero-round plan.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Where the agent stands after the full plan has executed.
    #[must_use]
    pub fn end_position(&self) -> NodeId {
        self.end_position
    }

    /// The position-and-moves trace recorded during compilation, the
    /// input of the delay-batched
    /// [`BatchSolver`](rendezvous_sim::BatchSolver): `positions()[r]` is
    /// the node index after round `r` of the plan.
    #[must_use]
    pub fn trajectory(&self) -> &Trajectory {
        &self.trajectory
    }

    /// A behavior replaying this plan from its first round.
    #[must_use]
    pub fn behavior(self: &Arc<Self>) -> FlatPlanBehavior {
        FlatPlanBehavior {
            plan: Arc::clone(self),
            cursor: 0,
        }
    }
}

/// Replays a compiled [`FlatPlan`]: each round is one array load and a
/// cursor increment. After the plan is exhausted the agent stays idle
/// forever, exactly like an exhausted [`ScheduleBehavior`].
pub struct FlatPlanBehavior {
    /// Shared, not owned: sweep executors compile a `(label, start)`
    /// plan once and hand the same `Arc` to thousands of behaviors.
    plan: Arc<FlatPlan>,
    cursor: usize,
}

impl fmt::Debug for FlatPlanBehavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlatPlanBehavior")
            .field("rounds", &self.plan.len())
            .field("cursor", &self.cursor)
            .finish()
    }
}

impl AgentBehavior for FlatPlanBehavior {
    fn next_action(&mut self, _observation: Observation) -> Action {
        let action = self
            .plan
            .actions
            .get(self.cursor)
            .copied()
            .unwrap_or(Action::Stay);
        self.cursor += 1;
        action
    }
}

impl AgentBehavior for ScheduleBehavior {
    fn next_action(&mut self, observation: Observation) -> Action {
        self.settle();
        let Some(phase) = self.schedule.phases().get(self.phase_idx) else {
            return Action::Stay; // schedule exhausted
        };
        debug_assert_eq!(
            observation.degree,
            self.graph.degree(self.position),
            "map position diverged from the simulator's ground truth"
        );
        let action = match phase {
            Phase::Wait(_) => Action::Stay,
            Phase::Explore(_) => {
                let run = self.run.as_mut().expect("settle() started the run");
                match run.next_move(observation.degree, self.last_entry) {
                    Some(p) => Action::Move(p),
                    None => Action::Stay,
                }
            }
        };
        self.round_in_phase += 1;
        match action {
            Action::Move(p) => {
                let t = self
                    .graph
                    .traverse(self.position, p)
                    .expect("explorers emit valid ports");
                self.position = t.target;
                self.last_entry = Some(t.entry_port);
            }
            Action::Stay => self.last_entry = None,
        }
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendezvous_explore::{BoundedWalkExplorer, DfsMapExplorer};
    use rendezvous_graph::generators;
    use rendezvous_sim::run_solo;

    #[test]
    fn schedule_accounting() {
        let e = Arc::new(BoundedWalkExplorer::new(3));
        let s = Schedule::new(vec![
            Phase::Wait(5),
            Phase::Explore(e.clone()),
            Phase::Wait(0),
            Phase::Explore(e),
        ]);
        assert_eq!(s.total_rounds(), 11);
        assert_eq!(s.explore_phases(), 2);
        assert_eq!(s.phases().len(), 4);
    }

    #[test]
    fn behavior_waits_then_explores() {
        let g = Arc::new(generators::oriented_ring(5).unwrap());
        let e = Arc::new(BoundedWalkExplorer::new(4));
        let s = Schedule::new(vec![Phase::Wait(2), Phase::Explore(e)]);
        let mut b = ScheduleBehavior::new(g.clone(), s, NodeId::new(0));
        let trace = run_solo(&g, &mut b, NodeId::new(0), 8).unwrap();
        // rounds 1-2: stay; rounds 3-6: clockwise; rounds 7-8: exhausted.
        let moved: Vec<bool> = trace.actions.iter().map(|a| a.is_move()).collect();
        assert_eq!(
            moved,
            vec![false, false, true, true, true, true, false, false]
        );
        assert_eq!(trace.positions.last(), Some(&NodeId::new(4)));
    }

    #[test]
    fn zero_length_wait_phases_are_skipped() {
        let g = Arc::new(generators::oriented_ring(4).unwrap());
        let e = Arc::new(BoundedWalkExplorer::new(2));
        let s = Schedule::new(vec![Phase::Wait(0), Phase::Explore(e)]);
        let mut b = ScheduleBehavior::new(g.clone(), s, NodeId::new(1));
        let trace = run_solo(&g, &mut b, NodeId::new(1), 3).unwrap();
        assert!(
            trace.actions[0].is_move(),
            "first round must already explore"
        );
        assert_eq!(trace.cost(), 2);
    }

    #[test]
    fn consecutive_explorations_restart_from_current_node() {
        // Cheap's second exploration starts wherever the first ended; the
        // DFS explorer must be re-begun from the new position.
        let g = Arc::new(generators::path(4).unwrap());
        let dfs = Arc::new(DfsMapExplorer::new(g.clone()));
        let e = dfs.bound() as u64;
        let s = Schedule::new(vec![
            Phase::Explore(dfs.clone()),
            Phase::Explore(dfs.clone()),
        ]);
        let mut b = ScheduleBehavior::new(g.clone(), s, NodeId::new(0));
        let trace = run_solo(&g, &mut b, NodeId::new(0), 2 * e).unwrap();
        // Each exploration visits all nodes; positions stay in range and
        // the second phase's walk is valid from its own start.
        let mid = trace.positions[e as usize];
        assert!(g.contains(mid));
        // coverage in both halves:
        let firsthalf: std::collections::HashSet<_> =
            trace.positions[..=e as usize].iter().copied().collect();
        assert_eq!(firsthalf.len(), 4);
        let secondhalf: std::collections::HashSet<_> =
            trace.positions[e as usize..].iter().copied().collect();
        assert_eq!(secondhalf.len(), 4);
    }

    #[test]
    fn position_tracking_matches_ground_truth() {
        let g = Arc::new(generators::grid(3, 3).unwrap());
        let dfs = Arc::new(DfsMapExplorer::new(g.clone()));
        let s = Schedule::new(vec![Phase::Explore(dfs)]);
        let mut b = ScheduleBehavior::new(g.clone(), s, NodeId::new(4));
        let rounds = b.schedule.phases()[0].rounds();
        let trace = run_solo(&g, &mut b, NodeId::new(4), rounds).unwrap();
        assert_eq!(b.position(), *trace.positions.last().unwrap());
    }

    #[test]
    fn exhausted_schedule_idles_forever() {
        let g = Arc::new(generators::oriented_ring(4).unwrap());
        let s = Schedule::new(vec![Phase::Wait(1)]);
        let mut b = ScheduleBehavior::new(g.clone(), s, NodeId::new(0));
        let trace = run_solo(&g, &mut b, NodeId::new(0), 10).unwrap();
        assert_eq!(trace.cost(), 0);
    }

    #[test]
    fn describe_matches_the_papers_pictures() {
        use crate::{Fast, Label, LabelSpace, RendezvousAlgorithm};
        use rendezvous_explore::OrientedRingExplorer;
        let g = Arc::new(generators::oriented_ring(5).unwrap());
        let ex = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
        let alg = Fast::new(g, ex, LabelSpace::new(4).unwrap());
        // ℓ = 1: M(1) = 1101 -> T = 1 11 11 00 11 -> E EE EE ww EE
        let s = alg.schedule(Label::new(1).unwrap()).unwrap();
        assert_eq!(s.describe(), "EEEEEwwEE");
    }

    /// The flat plan is defined as the stepped execution: for every
    /// (algorithm, label, start) triple here, replaying the compiled
    /// array move for move matches driving the `ScheduleBehavior`, and
    /// both agree on the final position. The sweep executors' byte-identical
    /// outputs rest on this equivalence.
    #[test]
    fn flat_plan_replays_the_stepped_schedule_exactly() {
        use crate::{Cheap, Fast, Label, LabelSpace, RendezvousAlgorithm};
        use rendezvous_explore::DfsMapExplorer;
        let g = Arc::new(generators::grid(3, 3).unwrap());
        let ex = Arc::new(DfsMapExplorer::new(g.clone()));
        let space = LabelSpace::new(8).unwrap();
        let algs: Vec<Box<dyn RendezvousAlgorithm>> = vec![
            Box::new(Cheap::new(g.clone(), ex.clone(), space)),
            Box::new(Fast::new(g.clone(), ex.clone(), space)),
        ];
        for alg in &algs {
            for label in [1u64, 5, 8] {
                let schedule = Arc::new(alg.schedule(Label::new(label).unwrap()).unwrap());
                for start in 0..g.node_count() {
                    let start = NodeId::new(start);
                    let plan = Arc::new(FlatPlan::compile(g.clone(), Arc::clone(&schedule), start));
                    let rounds = schedule.total_rounds();
                    let mut stepped =
                        ScheduleBehavior::with_shared(g.clone(), Arc::clone(&schedule), start);
                    let step_trace = run_solo(&g, &mut stepped, start, rounds).unwrap();
                    let mut flat = plan.behavior();
                    let flat_trace = run_solo(&g, &mut flat, start, rounds).unwrap();
                    assert_eq!(flat_trace.actions, step_trace.actions);
                    assert_eq!(flat_trace.positions, step_trace.positions);
                    assert_eq!(plan.len() as u64, rounds);
                    assert_eq!(plan.end_position(), *step_trace.positions.last().unwrap());
                    // The recorded trajectory is the same walk as SoA:
                    // per-round positions and cumulative traversals.
                    let trajectory = plan.trajectory();
                    assert_eq!(trajectory.steps(), rounds);
                    let step_positions: Vec<u32> = step_trace
                        .positions
                        .iter()
                        .map(|n| n.index() as u32)
                        .collect();
                    assert_eq!(trajectory.positions(), &step_positions[..]);
                    assert_eq!(trajectory.moves_through(rounds), step_trace.cost());
                    for (r, action) in step_trace.actions.iter().enumerate() {
                        assert_eq!(trajectory.moved_in(r as u64 + 1), action.is_move());
                    }
                    // Past the end, the plan idles forever like an
                    // exhausted schedule.
                    let mut tail = plan.behavior();
                    let long = run_solo(&g, &mut tail, start, rounds + 7).unwrap();
                    assert!(long.actions[rounds as usize..].iter().all(|a| !a.is_move()));
                }
            }
        }
    }

    /// The compile oracle: a [`ScheduleBehavior`] stepped through every
    /// round of the whole schedule, waits included. Returns the actions,
    /// the trajectory and the end position.
    fn stepped_plan(
        graph: &Arc<PortLabeledGraph>,
        schedule: &Arc<Schedule>,
        start: NodeId,
    ) -> (Vec<Action>, Trajectory, NodeId) {
        let node_index = |n: NodeId| u32::try_from(n.index()).unwrap();
        let mut behavior =
            ScheduleBehavior::with_shared(Arc::clone(graph), Arc::clone(schedule), start);
        let mut actions = Vec::new();
        let mut trajectory = Trajectory::new(node_index(start));
        for round in 0..schedule.total_rounds() {
            let action = behavior.next_action(Observation {
                local_round: round,
                degree: graph.degree(behavior.position()),
                entry_port: None,
            });
            trajectory.push(node_index(behavior.position()), action.is_move());
            actions.push(action);
        }
        (actions, trajectory, behavior.position())
    }

    /// Plans of `schedule` from every start, compiled cold and through
    /// `memo` (warm after the first call), equal the stepped compile:
    /// actions, positions, prefix moves, end position.
    fn assert_compile_is_stepped(memo: &SegmentMemo, schedule: Schedule) {
        let graph = &memo.graph;
        let schedule = Arc::new(schedule);
        for start in graph.nodes() {
            let cold = FlatPlan::compile(Arc::clone(graph), Arc::clone(&schedule), start);
            let (actions, trajectory, end) = stepped_plan(graph, &schedule, start);
            let context = format!("{:?} from {start:?}", schedule.phases());
            assert_eq!(cold.actions(), &actions[..], "actions of {context}");
            // Trajectory equality covers positions and prefix moves.
            assert_eq!(cold.trajectory(), &trajectory, "trajectory of {context}");
            assert_eq!(cold.end_position(), end, "end position of {context}");
            let warm = FlatPlan::compile_memoized(memo, &schedule, start);
            assert_eq!(warm, cold, "warm and cold memo differ on {context}");
        }
    }

    /// Wait shapes the bulk path must get exactly right — a leading
    /// wait, `Wait(0)`, consecutive waits, a trailing wait, wait-only and
    /// empty schedules — around both a position-free and a map-tracking
    /// explorer.
    #[test]
    fn bulk_wait_compile_equals_stepped_on_wait_shapes() {
        let ring = Arc::new(generators::oriented_ring(5).unwrap());
        let grid = Arc::new(generators::grid(3, 3).unwrap());
        let walk: Arc<dyn Explorer> = Arc::new(BoundedWalkExplorer::new(3));
        let dfs: Arc<dyn Explorer> = Arc::new(DfsMapExplorer::new(grid.clone()));
        for (graph, e) in [(&ring, &walk), (&grid, &walk), (&grid, &dfs)] {
            let memo = SegmentMemo::new(graph.clone());
            let explore = || Phase::Explore(Arc::clone(e));
            let shapes = vec![
                vec![
                    Phase::Wait(3),
                    explore(),
                    Phase::Wait(0),
                    explore(),
                    Phase::Wait(2),
                    Phase::Wait(5),
                    explore(),
                    Phase::Wait(4),
                ],
                vec![Phase::Wait(0), explore(), Phase::Wait(0)],
                vec![explore(), Phase::Wait(1), Phase::Wait(0), Phase::Wait(1)],
                vec![Phase::Wait(7)],
                vec![Phase::Wait(0), Phase::Wait(0)],
                vec![],
            ];
            for phases in shapes {
                assert_compile_is_stepped(&memo, Schedule::new(phases));
            }
        }
    }

    /// Every algorithm's schedules, on an oriented ring and on a DFS-map
    /// grid, with ring-doubling Iterated schedules running a different
    /// explorer per level: compiled plans equal the stepped compile.
    #[test]
    fn bulk_wait_compile_equals_stepped_for_every_algorithm() {
        use crate::{
            BaseAlgorithm, Cheap, Fast, FastWithRelabeling, Iterated, Label, LabelSpace,
            RendezvousAlgorithm,
        };
        use rendezvous_explore::{OrientedRingExplorer, RingDoublingFamily};
        let ring = Arc::new(generators::oriented_ring(6).unwrap());
        let grid = Arc::new(generators::grid(3, 3).unwrap());
        let ring_ex: Arc<dyn Explorer> = Arc::new(OrientedRingExplorer::new(ring.clone()).unwrap());
        let grid_ex: Arc<dyn Explorer> = Arc::new(DfsMapExplorer::new(grid.clone()));
        let space = LabelSpace::new(6).unwrap();
        for (graph, ex) in [(&ring, &ring_ex), (&grid, &grid_ex)] {
            let memo = SegmentMemo::new(graph.clone());
            let iterated = |base| {
                Iterated::new(
                    graph.clone(),
                    Arc::new(RingDoublingFamily::new()),
                    space,
                    base,
                    1..=3,
                )
                .unwrap()
            };
            let algs: Vec<Box<dyn RendezvousAlgorithm>> = vec![
                Box::new(Cheap::new(graph.clone(), ex.clone(), space)),
                Box::new(Fast::new(graph.clone(), ex.clone(), space)),
                Box::new(FastWithRelabeling::new(graph.clone(), ex.clone(), space, 2).unwrap()),
                Box::new(iterated(BaseAlgorithm::Cheap)),
                Box::new(iterated(BaseAlgorithm::Fast)),
            ];
            for alg in &algs {
                for label in [1u64, 4, 6] {
                    let schedule = alg.schedule(Label::new(label).unwrap()).unwrap();
                    assert_compile_is_stepped(&memo, schedule);
                }
            }
        }
    }

    /// Every exploration level is the same explorer `Arc`: an Iterated
    /// schedule over any explorer, sharing one memo key across levels.
    #[derive(Debug)]
    struct FixedFamily(Arc<dyn Explorer>);

    impl rendezvous_explore::ExplorationFamily for FixedFamily {
        fn level(&self, _level: u32) -> Arc<dyn Explorer> {
            Arc::clone(&self.0)
        }
    }

    /// The compile oracle: for Cheap, Fast, FastWithRelabeling and both
    /// Iterated bases, over all seven explorers and from every start
    /// node, a plan's actions, trajectory and end position equal a
    /// round-by-round [`ScheduleBehavior`] run. Plans compiled through
    /// one warm memo equal cold [`FlatPlan::compile`] plans, and that
    /// memo holds at most one segment per (explorer, node).
    #[test]
    fn memoized_compile_equals_stepped_for_every_explorer() {
        use crate::{
            BaseAlgorithm, Cheap, Fast, FastWithRelabeling, Iterated, Label, LabelSpace,
            RendezvousAlgorithm,
        };
        use rendezvous_explore::{
            EulerianExplorer, HamiltonianExplorer, OrientedRingExplorer, TrialDfsExplorer,
            UxsExplorer, UxsSequence,
        };
        use rendezvous_graph::HamiltonianCycle;
        let ring = Arc::new(generators::oriented_ring(6).unwrap());
        let ring5 = Arc::new(generators::oriented_ring(5).unwrap());
        let grid = Arc::new(generators::grid(3, 3).unwrap());
        let cube = Arc::new(generators::hypercube(3).unwrap());
        let torus = Arc::new(generators::torus(3, 3).unwrap());
        let cycle = HamiltonianCycle::known_hypercube(&cube).unwrap();
        let ones = UxsSequence::new(2, vec![1; 4]);
        let cases: Vec<(&Arc<PortLabeledGraph>, Arc<dyn Explorer>)> = vec![
            (
                &ring,
                Arc::new(OrientedRingExplorer::new(ring.clone()).unwrap()),
            ),
            (&ring, Arc::new(BoundedWalkExplorer::new(4))),
            (&grid, Arc::new(DfsMapExplorer::new(grid.clone()))),
            (
                &grid,
                Arc::new(TrialDfsExplorer::new(grid.clone()).unwrap()),
            ),
            (
                &ring5,
                Arc::new(UxsExplorer::with_sequence(ring5.clone(), ones).unwrap()),
            ),
            (
                &cube,
                Arc::new(HamiltonianExplorer::new(cube.clone(), cycle).unwrap()),
            ),
            (
                &torus,
                Arc::new(EulerianExplorer::new(torus.clone()).unwrap()),
            ),
        ];
        let space = LabelSpace::new(6).unwrap();
        for (graph, ex) in cases {
            let iterated = |base| {
                let family = Arc::new(FixedFamily(Arc::clone(&ex)));
                Iterated::new(graph.clone(), family, space, base, 1..=2).unwrap()
            };
            let algs: Vec<Box<dyn RendezvousAlgorithm>> = vec![
                Box::new(Cheap::new(graph.clone(), ex.clone(), space)),
                Box::new(Fast::new(graph.clone(), ex.clone(), space)),
                Box::new(FastWithRelabeling::new(graph.clone(), ex.clone(), space, 2).unwrap()),
                Box::new(iterated(BaseAlgorithm::Cheap)),
                Box::new(iterated(BaseAlgorithm::Fast)),
            ];
            let memo = SegmentMemo::new(graph.clone());
            for alg in &algs {
                for label in 1..=space.size() {
                    let schedule = alg.schedule(Label::new(label).unwrap()).unwrap();
                    assert_compile_is_stepped(&memo, schedule);
                }
            }
            assert!(
                memo.compiled_segments() <= graph.node_count(),
                "{}: one segment per start node, shared by every plan",
                ex.name()
            );
        }
    }

    #[test]
    fn schedule_extend_concatenates() {
        let e = Arc::new(BoundedWalkExplorer::new(1));
        let mut a = Schedule::new(vec![Phase::Explore(e.clone())]);
        let b = Schedule::new(vec![Phase::Wait(3), Phase::Explore(e)]);
        a.extend(b);
        assert_eq!(a.total_rounds(), 5);
        assert_eq!(a.explore_phases(), 2);
    }
}
