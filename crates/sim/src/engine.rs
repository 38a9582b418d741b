//! The synchronous-round execution engine.
//!
//! Each round is the one §1.2 round every stepped engine plays
//! (`step` in `round.rs`, which states the rules). What this
//! engine adds on top:
//!
//! * crossings — two agents swapping nodes through one edge — are
//!   counted, but are **not** meetings;
//! * rendezvous ⇔ two agents occupy the same node at the end of a round,
//!   reported at the node of the lowest-indexed such agent;
//! * upon meeting, both agents stop.

use crate::round::{step, Walker};
use crate::{Action, AgentBehavior, SimError};
use rendezvous_graph::{NodeId, PortLabeledGraph};

/// Crossing count for one round by pairwise scan: agents `i < j` crossed
/// iff both moved and swapped nodes (on a simple graph that means the same
/// edge in opposite directions).
fn count_crossings(previous: &[NodeId], walkers: &[Walker]) -> u64 {
    let k = walkers.len();
    let mut crossings = 0;
    for i in 0..k {
        if !walkers[i].action.is_move() {
            continue;
        }
        for j in (i + 1)..k {
            if walkers[j].action.is_move()
                && walkers[i].position == previous[j]
                && walkers[j].position == previous[i]
            {
                crossings += 1;
            }
        }
    }
    crossings
}

/// The node of the first agent (lowest index) that shares its node with
/// any other agent — the meeting witness, by pairwise scan.
fn first_shared_node(walkers: &[Walker]) -> Option<NodeId> {
    let k = walkers.len();
    for i in 0..k {
        for j in (i + 1)..k {
            if walkers[i].position == walkers[j].position {
                return Some(walkers[i].position);
            }
        }
    }
    None
}

/// Placement of one agent: where it starts and when it wakes up.
///
/// Wake-up rounds are 1-based global round numbers chosen by the adversary;
/// the agent's own clock starts at its wake-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AgentSpec {
    /// Starting node (occupied from round 0 onward).
    pub start: NodeId,
    /// First global round in which the agent acts (1-based).
    pub wake_round: u64,
}

impl AgentSpec {
    /// Agent starting at `start`, awake from round 1 (no delay).
    #[must_use]
    pub fn immediate(start: NodeId) -> Self {
        AgentSpec {
            start,
            wake_round: 1,
        }
    }

    /// Agent starting at `start`, woken after `delay` rounds (wake round
    /// `delay + 1`).
    #[must_use]
    pub fn delayed(start: NodeId, delay: u64) -> Self {
        AgentSpec {
            start,
            wake_round: delay + 1,
        }
    }
}

/// Checks agent placements the way every engine does before its first
/// round: at least two agents, then per agent (in order) a start that is
/// a node of `graph` and a 1-based wake round, then distinct starts.
/// Connectivity is left to the caller, which can check it once per graph.
///
/// # Errors
///
/// The first violated condition's [`SimError`]:
/// [`SimError::TooFewAgents`], [`SimError::StartOutOfRange`],
/// [`SimError::InvalidWakeRound`] or [`SimError::StartsNotDistinct`].
pub fn check_agents(graph: &PortLabeledGraph, agents: &[AgentSpec]) -> Result<(), SimError> {
    if agents.len() < 2 {
        return Err(SimError::TooFewAgents { got: agents.len() });
    }
    for spec in agents {
        if !graph.contains(spec.start) {
            return Err(SimError::StartOutOfRange { node: spec.start });
        }
        if spec.wake_round == 0 {
            return Err(SimError::InvalidWakeRound);
        }
    }
    for (i, a) in agents.iter().enumerate() {
        if agents[i + 1..].iter().any(|b| b.start == a.start) {
            return Err(SimError::StartsNotDistinct { node: a.start });
        }
    }
    Ok(())
}

/// A successful meeting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meeting {
    /// Global round (1-based) at whose end the meeting happened.
    pub round: u64,
    /// Node where the agents met.
    pub node: NodeId,
}

/// Full per-round history of an execution (optional, for analysis).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// `positions[agent][r]` = node occupied at the end of round `r`
    /// (`r = 0` is the initial configuration).
    pub positions: Vec<Vec<NodeId>>,
    /// `actions[agent][r]` = action taken in round `r + 1`. Sleeping agents
    /// record [`Action::Stay`].
    pub actions: Vec<Vec<Action>>,
}

/// The result of running a simulation.
#[derive(Debug, Clone)]
pub struct Outcome {
    meeting: Option<Meeting>,
    rounds_executed: u64,
    per_agent_cost: Vec<u64>,
    crossings: u64,
    wake_rounds: Vec<u64>,
    trace: Option<Trace>,
}

impl Outcome {
    /// The meeting, if one occurred within the round budget.
    #[must_use]
    pub fn meeting(&self) -> Option<Meeting> {
        self.meeting
    }

    /// Returns `true` if the agents met.
    #[must_use]
    pub fn met(&self) -> bool {
        self.meeting.is_some()
    }

    /// Number of rounds actually simulated.
    #[must_use]
    pub fn rounds_executed(&self) -> u64 {
        self.rounds_executed
    }

    /// Edge traversals by each agent (configuration order), up to and
    /// including the meeting round.
    #[must_use]
    pub fn per_agent_cost(&self) -> &[u64] {
        &self.per_agent_cost
    }

    /// The paper's **cost**: total edge traversals by all agents until the
    /// meeting (or until the round budget, if no meeting).
    #[must_use]
    pub fn cost(&self) -> u64 {
        self.per_agent_cost.iter().sum()
    }

    /// The paper's **time**: rounds from the start of the *earlier* agent
    /// until the meeting. `None` if no meeting occurred.
    #[must_use]
    pub fn time(&self) -> Option<u64> {
        let earliest = self.wake_rounds.iter().min().copied()?;
        self.meeting.map(|m| m.round - (earliest - 1))
    }

    /// Alternative accounting (paper Conclusion): rounds from the wake-up
    /// of the *later* agent until the meeting. If the meeting happened
    /// before the later agent woke (it was found asleep), this is 0.
    #[must_use]
    pub fn time_from_later(&self) -> Option<u64> {
        let latest = self.wake_rounds.iter().max().copied()?;
        self.meeting.map(|m| m.round.saturating_sub(latest - 1))
    }

    /// How often agents crossed each other inside an edge (never a meeting).
    #[must_use]
    pub fn crossings(&self) -> u64 {
        self.crossings
    }

    /// The recorded trace, if tracing was enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }
}

/// A configured multi-agent simulation. Use [`Simulation::new`], add agents,
/// then [`Simulation::run`].
///
/// # Examples
///
/// ```
/// use rendezvous_graph::{generators, NodeId, Port};
/// use rendezvous_sim::{Action, AgentSpec, ScriptedAgent, Simulation};
///
/// let g = generators::oriented_ring(5).unwrap();
/// // One agent walks clockwise; the other sits still.
/// let walker = ScriptedAgent::new(vec![Action::Move(Port::new(0)); 4]);
/// let sitter = ScriptedAgent::new(vec![]);
/// let outcome = Simulation::new(&g)
///     .agent(Box::new(walker), AgentSpec::immediate(NodeId::new(0)))
///     .agent(Box::new(sitter), AgentSpec::immediate(NodeId::new(2)))
///     .max_rounds(100)
///     .run()
///     .unwrap();
/// assert_eq!(outcome.time(), Some(2));
/// assert_eq!(outcome.cost(), 2);
/// ```
pub struct Simulation<'a> {
    graph: &'a PortLabeledGraph,
    agents: Vec<(Box<dyn AgentBehavior + 'a>, AgentSpec)>,
    max_rounds: u64,
    record_trace: bool,
}

impl std::fmt::Debug for Simulation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("agents", &self.agents.len())
            .field("max_rounds", &self.max_rounds)
            .field("record_trace", &self.record_trace)
            .finish_non_exhaustive()
    }
}

impl<'a> Simulation<'a> {
    /// Creates an empty simulation on `graph`.
    #[must_use]
    pub fn new(graph: &'a PortLabeledGraph) -> Self {
        Simulation {
            graph,
            agents: Vec::new(),
            max_rounds: 1_000_000,
            record_trace: false,
        }
    }

    /// Adds an agent.
    #[must_use]
    pub fn agent(mut self, behavior: Box<dyn AgentBehavior + 'a>, spec: AgentSpec) -> Self {
        self.agents.push((behavior, spec));
        self
    }

    /// Caps the number of simulated rounds (default: 1,000,000).
    #[must_use]
    pub fn max_rounds(mut self, rounds: u64) -> Self {
        self.max_rounds = rounds;
        self
    }

    /// Enables full trace recording.
    #[must_use]
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Runs the simulation to meeting or round budget.
    ///
    /// # Errors
    ///
    /// * the configuration errors of [`check_agents`], then
    ///   [`SimError::NotConnected`];
    /// * [`SimError::InvalidMove`] if an agent emits a port that does not
    ///   exist at its current node (an algorithm bug, surfaced loudly).
    pub fn run(self) -> Result<Outcome, SimError> {
        let Simulation {
            graph,
            mut agents,
            max_rounds,
            record_trace,
        } = self;
        let k = agents.len();
        let specs: Vec<AgentSpec> = agents.iter().map(|(_, s)| *s).collect();
        check_agents(graph, &specs)?;
        if !rendezvous_graph::analysis::is_connected(graph) {
            return Err(SimError::NotConnected);
        }

        let mut walkers: Vec<Walker> = specs.into_iter().map(Walker::new).collect();
        let mut crossings = 0u64;
        let mut trace = record_trace.then(|| Trace {
            positions: walkers.iter().map(|w| vec![w.position]).collect(),
            actions: vec![Vec::new(); k],
        });
        // Start-of-round positions, for the crossing scan.
        let mut previous: Vec<NodeId> = walkers.iter().map(|w| w.position).collect();

        let mut meeting = None;
        let mut rounds_executed = 0;
        for round in 1..=max_rounds {
            rounds_executed = round;
            for (p, w) in previous.iter_mut().zip(&walkers) {
                *p = w.position;
            }
            step(graph, &mut walkers, round, |i, obs, _| {
                agents[i].0.next_action(obs)
            })?;
            crossings += count_crossings(&previous, &walkers);
            if let Some(t) = trace.as_mut() {
                for (i, w) in walkers.iter().enumerate() {
                    t.positions[i].push(w.position);
                    t.actions[i].push(w.action);
                }
            }
            if let Some(node) = first_shared_node(&walkers) {
                meeting = Some(Meeting { round, node });
                break;
            }
        }

        Ok(Outcome {
            meeting,
            rounds_executed,
            per_agent_cost: walkers.iter().map(|w| w.cost).collect(),
            crossings,
            wake_rounds: walkers.iter().map(|w| w.wake_round).collect(),
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IdleAgent, ScriptedAgent};
    use rendezvous_graph::{generators, Port};

    fn cw(steps: usize) -> Box<ScriptedAgent> {
        Box::new(ScriptedAgent::new(vec![Action::Move(Port::new(0)); steps]))
    }
    fn ccw(steps: usize) -> Box<ScriptedAgent> {
        Box::new(ScriptedAgent::new(vec![Action::Move(Port::new(1)); steps]))
    }

    #[test]
    fn walker_meets_sitter() {
        let g = generators::oriented_ring(6).unwrap();
        let out = Simulation::new(&g)
            .agent(cw(5), AgentSpec::immediate(NodeId::new(0)))
            .agent(Box::new(IdleAgent), AgentSpec::immediate(NodeId::new(3)))
            .run()
            .unwrap();
        let m = out.meeting().unwrap();
        assert_eq!(m.round, 3);
        assert_eq!(m.node, NodeId::new(3));
        assert_eq!(out.time(), Some(3));
        assert_eq!(out.cost(), 3);
        assert_eq!(out.per_agent_cost(), &[3, 0]);
    }

    #[test]
    fn crossing_on_an_edge_is_not_a_meeting() {
        // Two adjacent agents walk toward each other: they swap nodes
        // through the same edge and must NOT meet that round.
        let g = generators::oriented_ring(4).unwrap();
        let out = Simulation::new(&g)
            .agent(cw(8), AgentSpec::immediate(NodeId::new(0)))
            .agent(ccw(8), AgentSpec::immediate(NodeId::new(1)))
            .max_rounds(8)
            .run()
            .unwrap();
        assert!(out.crossings() >= 1);
        // After the swap they keep walking in opposite directions around a
        // 4-ring: positions after round r are (r mod 4) and (1 - r mod 4);
        // they coincide only when 2r ≡ 1 (mod 4): never. No meeting.
        assert!(!out.met());
    }

    #[test]
    fn simultaneous_arrival_is_a_meeting() {
        // Agents two apart walk toward each other: both arrive at the
        // middle node in round 1.
        let g = generators::oriented_ring(6).unwrap();
        let out = Simulation::new(&g)
            .agent(cw(3), AgentSpec::immediate(NodeId::new(0)))
            .agent(ccw(3), AgentSpec::immediate(NodeId::new(2)))
            .run()
            .unwrap();
        let m = out.meeting().unwrap();
        assert_eq!(m.round, 1);
        assert_eq!(m.node, NodeId::new(1));
        assert_eq!(out.cost(), 2); // both traversals up to the meeting count
    }

    #[test]
    fn sleeping_agent_can_be_found() {
        let g = generators::oriented_ring(5).unwrap();
        let out = Simulation::new(&g)
            .agent(cw(4), AgentSpec::immediate(NodeId::new(0)))
            .agent(cw(4), AgentSpec::delayed(NodeId::new(2), 1_000))
            .run()
            .unwrap();
        assert_eq!(out.meeting().unwrap().round, 2);
        assert_eq!(out.time(), Some(2));
        // The later agent never woke: found asleep.
        assert_eq!(out.time_from_later(), Some(0));
        assert_eq!(out.per_agent_cost(), &[2, 0]);
    }

    #[test]
    fn delayed_wake_shifts_local_clock() {
        // An agent woken at round 3 executes its script from round 3 on.
        let g = generators::oriented_ring(5).unwrap();
        let out = Simulation::new(&g)
            .agent(Box::new(IdleAgent), AgentSpec::immediate(NodeId::new(2)))
            .agent(cw(4), AgentSpec::delayed(NodeId::new(0), 2))
            .run()
            .unwrap();
        // Walker starts moving in round 3, reaches node 2 in round 3+1.
        assert_eq!(out.meeting().unwrap().round, 4);
        assert_eq!(out.time(), Some(4));
        assert_eq!(out.time_from_later(), Some(2));
    }

    #[test]
    fn timeout_returns_no_meeting() {
        let g = generators::oriented_ring(5).unwrap();
        let out = Simulation::new(&g)
            .agent(Box::new(IdleAgent), AgentSpec::immediate(NodeId::new(0)))
            .agent(Box::new(IdleAgent), AgentSpec::immediate(NodeId::new(2)))
            .max_rounds(10)
            .run()
            .unwrap();
        assert!(!out.met());
        assert_eq!(out.time(), None);
        assert_eq!(out.rounds_executed(), 10);
    }

    #[test]
    fn invalid_move_is_surfaced() {
        let g = generators::path(3).unwrap();
        let bad = ScriptedAgent::new(vec![Action::Move(Port::new(7))]);
        let err = Simulation::new(&g)
            .agent(Box::new(bad), AgentSpec::immediate(NodeId::new(0)))
            .agent(Box::new(IdleAgent), AgentSpec::immediate(NodeId::new(2)))
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidMove { agent: 0, .. }));
    }

    #[test]
    fn configuration_errors() {
        let g = generators::oriented_ring(4).unwrap();
        let err = Simulation::new(&g)
            .agent(Box::new(IdleAgent), AgentSpec::immediate(NodeId::new(1)))
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::TooFewAgents { got: 1 }));

        let err = Simulation::new(&g)
            .agent(Box::new(IdleAgent), AgentSpec::immediate(NodeId::new(1)))
            .agent(Box::new(IdleAgent), AgentSpec::immediate(NodeId::new(1)))
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::StartsNotDistinct { .. }));

        let err = Simulation::new(&g)
            .agent(Box::new(IdleAgent), AgentSpec::immediate(NodeId::new(9)))
            .agent(Box::new(IdleAgent), AgentSpec::immediate(NodeId::new(1)))
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::StartOutOfRange { .. }));

        let err = Simulation::new(&g)
            .agent(
                Box::new(IdleAgent),
                AgentSpec {
                    start: NodeId::new(0),
                    wake_round: 0,
                },
            )
            .agent(Box::new(IdleAgent), AgentSpec::immediate(NodeId::new(1)))
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidWakeRound));
    }

    #[test]
    fn disconnected_graph_rejected() {
        let g = rendezvous_graph::GraphBuilder::new(2).build().unwrap();
        let err = Simulation::new(&g)
            .agent(Box::new(IdleAgent), AgentSpec::immediate(NodeId::new(0)))
            .agent(Box::new(IdleAgent), AgentSpec::immediate(NodeId::new(1)))
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::NotConnected));
    }

    #[test]
    fn trace_records_positions_and_actions() {
        let g = generators::oriented_ring(5).unwrap();
        let out = Simulation::new(&g)
            .agent(cw(2), AgentSpec::immediate(NodeId::new(0)))
            .agent(Box::new(IdleAgent), AgentSpec::immediate(NodeId::new(2)))
            .record_trace(true)
            .run()
            .unwrap();
        let t = out.trace().unwrap();
        assert_eq!(
            t.positions[0],
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]
        );
        assert_eq!(t.actions[0].len(), 2);
        assert_eq!(t.positions[1], vec![NodeId::new(2); 3]);
    }

    #[test]
    fn large_fleet_meeting_reports_the_earliest_agents_node() {
        // 12 agents: two walkers converge while ten idlers sit elsewhere.
        // The meeting is reported at the earliest agent's node.
        let g = generators::oriented_ring(32).unwrap();
        let mut sim = Simulation::new(&g)
            .agent(cw(8), AgentSpec::immediate(NodeId::new(0)))
            .agent(Box::new(IdleAgent), AgentSpec::immediate(NodeId::new(3)));
        for i in 0..10 {
            sim = sim.agent(
                Box::new(IdleAgent),
                AgentSpec::immediate(NodeId::new(10 + i)),
            );
        }
        let out = sim.run().unwrap();
        let m = out.meeting().unwrap();
        assert_eq!(m.round, 3);
        assert_eq!(m.node, NodeId::new(3));
        assert_eq!(out.cost(), 3);
    }

    #[test]
    fn large_fleet_crossings_are_counted() {
        // Two adjacent walkers swap through one edge while ten idlers pad
        // the fleet to 12 agents.
        let g = generators::oriented_ring(32).unwrap();
        let mut sim = Simulation::new(&g)
            .agent(cw(4), AgentSpec::immediate(NodeId::new(0)))
            .agent(ccw(4), AgentSpec::immediate(NodeId::new(1)))
            .max_rounds(4);
        for i in 0..10 {
            sim = sim.agent(
                Box::new(IdleAgent),
                AgentSpec::immediate(NodeId::new(10 + i)),
            );
        }
        let out = sim.run().unwrap();
        assert!(out.crossings() >= 1, "the swap must be counted");
    }
}
