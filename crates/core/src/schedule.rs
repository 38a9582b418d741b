//! Schedules: the common compiled form of all three algorithms.
//!
//! Every algorithm in the paper is a sequence of *phases*, each either an
//! execution of `EXPLORE` (taking exactly `E` rounds, idling after an early
//! finish) or a waiting period. `Cheap` is `[Explore, Wait(2ℓE), Explore]`;
//! `Fast` maps the bits of a transformed label to explore/wait phases. A
//! [`Schedule`] captures this shape, and [`ScheduleBehavior`] executes it
//! as a simulator agent.

use crate::{Label, RendezvousAlgorithm};
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

/// Explore segments compiled once per (explorer, start node) of one
/// graph, and the trajectories of whole schedules assembled from them.
///
/// Everything a [`ScheduleBehavior`] does is a deterministic function of
/// `(schedule, start)` — the observation stream never influences its
/// moves — so its whole walk can be recorded once as a [`Trajectory`],
/// the form the batched engines read. Sweep workloads revisit each
/// `(label, start)` pair across every delay and partner choice of the
/// grid, which is exactly the reuse the
/// [`AlgorithmExecutor`](../../rendezvous_runner/struct.AlgorithmExecutor.html)
/// cache exploits.
///
/// [`SegmentMemo::trajectory`] walks the schedule's phases. A wait phase
/// is appended whole (a repeated position, no moves). An explore phase
/// is appended as the *segment* of (explorer, node the phase starts
/// on): a [`ScheduleBehavior`] restarts its explorer and clears the
/// entry port at every phase boundary, so that pair fixes the phase's
/// every move. Each segment is computed once, by a [`ScheduleBehavior`]
/// stepped round by round over a one-phase schedule — so the trajectory
/// equals the stepped execution by construction. The equivalence tests
/// below and the byte-identical experiment outputs both rest on that.
///
/// An explorer is identified by its `Arc` ([`Arc::ptr_eq`] against the
/// `Arc`s the memo holds, so an address cannot be reused while the memo
/// lives). Each slot is written once, by the memo's single owner.
#[derive(Debug)]
pub struct SegmentMemo {
    graph: Arc<PortLabeledGraph>,
    explorers: RefCell<Vec<ExplorerSegments>>,
}

/// One explorer's segments, indexed by start node: each the phase's walk
/// from that node.
#[derive(Debug)]
struct ExplorerSegments {
    explorer: Arc<dyn Explorer>,
    by_start: Vec<Option<Trajectory>>,
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

    /// The trajectory of `schedule` run from `start` on the memo's graph:
    /// each wait phase appended in bulk, each explore phase as the memo's
    /// segment for (explorer, node the phase starts on), compiled on
    /// first use. `positions()[r]` is the node index after round `r`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a node of the memo's graph.
    #[must_use]
    pub fn trajectory(&self, schedule: &Schedule, start: NodeId) -> Trajectory {
        assert!(self.graph.contains(start), "start node out of range");
        let total = usize::try_from(schedule.total_rounds()).expect("schedule fits in memory");
        let mut trajectory = Trajectory::with_capacity(node_index(start), total);
        let mut explorers = self.explorers.borrow_mut();
        for phase in schedule.phases() {
            match phase {
                Phase::Wait(rounds) => trajectory.idle(*rounds),
                Phase::Explore(explorer) => {
                    let at = NodeId::new(trajectory.end() as usize);
                    trajectory.append(self.segment(&mut explorers, explorer, at));
                }
            }
        }
        trajectory
    }

    /// The segment of `explorer` run from `start`: a [`ScheduleBehavior`]
    /// stepped through the one-phase schedule `[Explore(explorer)]`,
    /// compiled on first use.
    fn segment<'m>(
        &self,
        explorers: &'m mut Vec<ExplorerSegments>,
        explorer: &Arc<dyn Explorer>,
        start: NodeId,
    ) -> &'m Trajectory {
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
        explorers[i].by_start[start.index()].get_or_insert_with(|| {
            let graph = &self.graph;
            let rounds = explorer.bound();
            let schedule = Arc::new(Schedule::new(vec![Phase::Explore(Arc::clone(explorer))]));
            let mut behavior = ScheduleBehavior::with_shared(Arc::clone(graph), schedule, start);
            let mut walk = Trajectory::with_capacity(node_index(start), rounds);
            for round in 0..rounds as u64 {
                // The behavior reads only the degree from its observation
                // (it tracks position and entry ports internally), so the
                // synthesized observation needs nothing else.
                let action = behavior.next_action(Observation {
                    local_round: round,
                    degree: graph.degree(behavior.position()),
                    entry_port: None,
                });
                walk.push(node_index(behavior.position()), action.is_move());
            }
            walk
        })
    }

    /// Whether `explorer` commutes with the rotation ρ: v ↦ v + 1 (mod n)
    /// of the memo's node indices: for v = 0…n−2, the segment from
    /// v + 1 equals the segment from v with every node shifted by +1,
    /// round for round, positions and moves alike. Checking the
    /// generator covers every rotation (the segment from v is then ρᵛ
    /// of the segment from 0, and ρⁿ is the identity), so the check
    /// compiles each segment once: O(n·E).
    fn commutes_with_rotation(&self, explorer: &Arc<dyn Explorer>) -> bool {
        let n = self.graph.node_count();
        let ring = u32::try_from(n).expect("node indices fit in u32");
        let mut explorers = self.explorers.borrow_mut();
        let mut walk = self
            .segment(&mut explorers, explorer, NodeId::new(0))
            .clone();
        for v in 1..n {
            let next = self.segment(&mut explorers, explorer, NodeId::new(v));
            let rotated = walk.steps() == next.steps()
                && (walk.positions().iter().zip(next.positions()))
                    .all(|(&p, &q)| (p + 1) % ring == q)
                && (1..=walk.steps()).all(|r| walk.moved_in(r) == next.moved_in(r));
            if !rotated {
                return false;
            }
            walk.clone_from(next);
        }
        true
    }
}

/// Certifies that sweeping `algorithm`'s start pairs up to rotation is
/// exact for the given labels: every distinct explorer in their
/// schedules commutes with the rotation v ↦ v + 1 (mod n) of the graph's
/// node indices (see [`SegmentMemo`]'s segments).
///
/// When it holds, a label's compiled walk from v + k is its walk from v
/// shifted by k, because waits carry over and every explore phase starts
/// on the shifted node. So rotating both starts of a pair execution
/// shifts both walks alike: the meeting round, the cost and every
/// crossing (both agents move and swap nodes) are unchanged, on the
/// stepped engine as on the batched one. The clockwise walk of
/// `OrientedRingExplorer` on an oriented ring passes (so does a DFS of
/// the ring's map, which takes the same ports from every node); a DFS
/// of a grid's map fails, since its walk depends on where it starts.
///
/// A label outside the algorithm's space fails the certificate (the
/// sweep then reports the label itself).
///
/// # Examples
///
/// ```
/// use rendezvous_core::{rotation_equivariant, Cheap, LabelSpace};
/// use rendezvous_explore::{DfsMapExplorer, OrientedRingExplorer};
/// use rendezvous_graph::generators;
/// use std::sync::Arc;
///
/// let space = LabelSpace::new(4).unwrap();
/// let ring = Arc::new(generators::oriented_ring(6).unwrap());
/// let clockwise = Arc::new(OrientedRingExplorer::new(ring.clone()).unwrap());
/// assert!(rotation_equivariant(&Cheap::new(ring, clockwise, space), &[1, 2, 3, 4]));
/// let grid = Arc::new(generators::grid(2, 3).unwrap());
/// let dfs = Arc::new(DfsMapExplorer::new(grid.clone()));
/// assert!(!rotation_equivariant(&Cheap::new(grid, dfs, space), &[1, 2, 3, 4]));
/// ```
#[must_use]
pub fn rotation_equivariant(algorithm: &dyn RendezvousAlgorithm, labels: &[u64]) -> bool {
    let mut labels = labels.to_vec();
    labels.sort_unstable();
    labels.dedup();
    let mut explorers: Vec<Arc<dyn Explorer>> = Vec::new();
    for value in labels {
        let Some(schedule) = Label::new(value).and_then(|label| algorithm.schedule(label).ok())
        else {
            return false;
        };
        for phase in schedule.phases() {
            if let Phase::Explore(e) = phase {
                if !explorers.iter().any(|known| Arc::ptr_eq(known, e)) {
                    explorers.push(Arc::clone(e));
                }
            }
        }
    }
    let memo = SegmentMemo::new(Arc::clone(algorithm.graph()));
    explorers.iter().all(|e| memo.commutes_with_rotation(e))
}

/// A node's index as a trajectory entry.
fn node_index(node: NodeId) -> u32 {
    u32::try_from(node.index()).expect("node index fits in u32")
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

    /// A compiled trajectory is the stepped execution, checked through
    /// the simulator's solo harness: for every (algorithm, label, start)
    /// triple here, its positions, per-round moves, total cost and end
    /// position equal driving the `ScheduleBehavior`. The sweep
    /// executors' byte-identical outputs rest on this equivalence.
    #[test]
    fn compiled_trajectory_equals_the_solo_run() {
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
                    let trajectory = SegmentMemo::new(g.clone()).trajectory(&schedule, start);
                    let rounds = schedule.total_rounds();
                    let mut stepped =
                        ScheduleBehavior::with_shared(g.clone(), Arc::clone(&schedule), start);
                    let step_trace = run_solo(&g, &mut stepped, start, rounds).unwrap();
                    assert_eq!(trajectory.steps(), rounds);
                    assert_eq!(
                        trajectory.end() as usize,
                        step_trace.positions.last().unwrap().index()
                    );
                    // The same walk as SoA: per-round positions and
                    // cumulative traversals.
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
                }
            }
        }
    }

    /// The compile oracle: a [`ScheduleBehavior`] stepped through every
    /// round of the whole schedule, waits included. Returns the
    /// trajectory and the end position.
    fn stepped_plan(
        graph: &Arc<PortLabeledGraph>,
        schedule: &Arc<Schedule>,
        start: NodeId,
    ) -> (Trajectory, NodeId) {
        let mut behavior =
            ScheduleBehavior::with_shared(Arc::clone(graph), Arc::clone(schedule), start);
        let mut trajectory = Trajectory::new(node_index(start));
        for round in 0..schedule.total_rounds() {
            let action = behavior.next_action(Observation {
                local_round: round,
                degree: graph.degree(behavior.position()),
                entry_port: None,
            });
            trajectory.push(node_index(behavior.position()), action.is_move());
        }
        (trajectory, behavior.position())
    }

    /// Trajectories of `schedule` from every start, compiled cold and
    /// through `memo` (warm after the first call), equal the stepped
    /// compile: positions, prefix moves, end position.
    fn assert_compile_is_stepped(memo: &SegmentMemo, schedule: Schedule) {
        let graph = &memo.graph;
        let schedule = Arc::new(schedule);
        for start in graph.nodes() {
            let cold = SegmentMemo::new(Arc::clone(graph)).trajectory(&schedule, start);
            let (trajectory, end) = stepped_plan(graph, &schedule, start);
            let context = format!("{:?} from {start:?}", schedule.phases());
            // Trajectory equality covers positions and prefix moves.
            assert_eq!(cold, trajectory, "trajectory of {context}");
            assert_eq!(cold.end(), node_index(end), "end position of {context}");
            let warm = memo.trajectory(&schedule, start);
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
    /// explorer per level: compiled trajectories equal the stepped compile.
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
    /// node, a compiled trajectory and its end position equal a
    /// round-by-round [`ScheduleBehavior`] run. Trajectories compiled
    /// through one warm memo equal cold ones, and that memo holds at
    /// most one segment per (explorer, node).
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

    /// A ring whose even nodes take port 0 clockwise and odd nodes port
    /// 0 counter-clockwise: rotating by one node is no port-preserving
    /// automorphism.
    fn alternating_ring(n: usize) -> Arc<PortLabeledGraph> {
        let mut b = rendezvous_graph::GraphBuilder::new(n);
        for i in 0..n {
            let j = (i + 1) % n;
            let (pi, pj) = (
                usize::from(!i.is_multiple_of(2)),
                usize::from(j.is_multiple_of(2)),
            );
            b.add_edge_with_ports(NodeId::new(i), Port::new(pi), NodeId::new(j), Port::new(pj))
                .unwrap();
        }
        Arc::new(b.build().unwrap())
    }

    /// Clockwise for `steps` rounds from every node but `odd`, where it
    /// stops one step short: commutes with every rotation step except
    /// the ones into and out of `odd`.
    #[derive(Debug)]
    struct ShortFrom {
        odd: NodeId,
        steps: usize,
    }

    impl Explorer for ShortFrom {
        fn bound(&self) -> usize {
            self.steps
        }
        fn begin(&self, start: NodeId) -> Box<dyn ExploreRun> {
            let steps = self.steps - usize::from(start == self.odd);
            Box::new(rendezvous_explore::PlannedRun::new(vec![
                Port::new(0);
                steps
            ]))
        }
        fn name(&self) -> &'static str {
            "short-from"
        }
    }

    /// The certificate on the explorers the tables sweep: the clockwise
    /// walks (`OrientedRingExplorer`, `BoundedWalkExplorer`, the
    /// ring-doubling levels of `Iterated`) and even `DfsMapExplorer`
    /// (its DFS takes the same ports from every node of an oriented
    /// ring) pass on oriented rings; a DFS map of a grid or star, any
    /// explorer on a ring whose ports alternate, an explorer that
    /// deviates from one node only (the first, a middle or the last)
    /// and a label outside the space fail.
    #[test]
    fn rotation_certificate_accepts_ring_walks_and_rejects_the_rest() {
        use crate::{BaseAlgorithm, Cheap, Fast, Iterated, LabelSpace, RendezvousAlgorithm};
        use rendezvous_explore::{ExplorationFamily, OrientedRingExplorer, RingDoublingFamily};
        let space = LabelSpace::new(5).unwrap();
        let labels: Vec<u64> = (1..=5).collect();
        for n in 3..=9 {
            let g = Arc::new(generators::oriented_ring(n).unwrap());
            let explorers: [Arc<dyn Explorer>; 3] = [
                Arc::new(OrientedRingExplorer::new(g.clone()).unwrap()),
                Arc::new(BoundedWalkExplorer::new(2 * n)),
                Arc::new(DfsMapExplorer::new(g.clone())),
            ];
            for ex in explorers {
                for alg in [
                    Box::new(Cheap::new(g.clone(), ex.clone(), space))
                        as Box<dyn RendezvousAlgorithm>,
                    Box::new(Fast::new(g.clone(), ex.clone(), space)),
                ] {
                    assert!(
                        rotation_equivariant(alg.as_ref(), &labels),
                        "{} over {} on the {n}-ring",
                        alg.name(),
                        ex.name()
                    );
                    assert!(
                        !rotation_equivariant(alg.as_ref(), &[1, 6]),
                        "label 6 ∉ [5]"
                    );
                }
                for odd in [0, n / 2, n - 1] {
                    let short: Arc<dyn Explorer> = Arc::new(ShortFrom {
                        odd: NodeId::new(odd),
                        steps: n,
                    });
                    let alg = Cheap::new(g.clone(), short, space);
                    assert!(
                        !rotation_equivariant(&alg, &labels),
                        "odd node {odd} of {n}"
                    );
                }
            }
            for base in [BaseAlgorithm::Cheap, BaseAlgorithm::Fast] {
                let family = Arc::new(RingDoublingFamily::new());
                let top = family.level_for(n);
                let alg = Iterated::new(g.clone(), family, space, base, 1..=top).unwrap();
                assert!(
                    rotation_equivariant(&alg, &labels),
                    "{base:?} on the {n}-ring"
                );
            }
            if n % 2 == 0 {
                let alternating = alternating_ring(n);
                for ex in [
                    Arc::new(DfsMapExplorer::new(alternating.clone())) as Arc<dyn Explorer>,
                    Arc::new(BoundedWalkExplorer::new(n)),
                ] {
                    let alg = Cheap::new(alternating.clone(), ex, space);
                    assert!(!rotation_equivariant(&alg, &labels), "alternating {n}-ring");
                }
            }
        }
        for g in [
            generators::grid(3, 3).unwrap(),
            generators::star(5).unwrap(),
        ] {
            let g = Arc::new(g);
            let alg = Cheap::new(g.clone(), Arc::new(DfsMapExplorer::new(g)), space);
            assert!(!rotation_equivariant(&alg, &labels));
        }
    }

    /// What the certificate promises: a certified algorithm's compiled
    /// walk of every label from v + k is its walk from v with every node
    /// shifted by k, move for move.
    #[test]
    fn certified_trajectories_rotate_with_their_start() {
        use crate::{
            BaseAlgorithm, Cheap, Fast, FastWithRelabeling, Iterated, Label, LabelSpace,
            RendezvousAlgorithm,
        };
        use rendezvous_explore::{ExplorationFamily, OrientedRingExplorer, RingDoublingFamily};
        let space = LabelSpace::new(6).unwrap();
        for n in [3, 7, 12] {
            let g = Arc::new(generators::oriented_ring(n).unwrap());
            let ex: Arc<dyn Explorer> = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
            let iterated = |base| {
                let family = Arc::new(RingDoublingFamily::new());
                let top = family.level_for(n);
                Iterated::new(g.clone(), family, space, base, 1..=top).unwrap()
            };
            let algs: Vec<Box<dyn RendezvousAlgorithm>> = vec![
                Box::new(Cheap::new(g.clone(), ex.clone(), space)),
                Box::new(Fast::new(g.clone(), ex.clone(), space)),
                Box::new(FastWithRelabeling::new(g.clone(), ex.clone(), space, 2).unwrap()),
                Box::new(iterated(BaseAlgorithm::Cheap)),
                Box::new(iterated(BaseAlgorithm::Fast)),
            ];
            let ring = n as u32;
            for alg in &algs {
                assert!(rotation_equivariant(alg.as_ref(), &[1, 2, 3, 4, 5, 6]));
                let memo = SegmentMemo::new(g.clone());
                for label in 1..=6 {
                    let schedule = alg.schedule(Label::new(label).unwrap()).unwrap();
                    let from_0 = memo.trajectory(&schedule, NodeId::new(0));
                    for k in 1..n {
                        let from_k = memo.trajectory(&schedule, NodeId::new(k));
                        let shifted: Vec<u32> = (from_0.positions().iter())
                            .map(|&p| (p + k as u32) % ring)
                            .collect();
                        assert_eq!(
                            from_k.positions(),
                            &shifted[..],
                            "{} label {label}",
                            alg.name()
                        );
                        for r in 0..=from_0.steps() {
                            assert_eq!(from_k.moves_through(r), from_0.moves_through(r));
                        }
                    }
                }
            }
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
