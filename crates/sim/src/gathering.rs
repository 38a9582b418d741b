//! Gathering: the `k ≥ 2` generalization of rendezvous (all agents must
//! assemble at one node).
//!
//! The paper treats two agents and cites gathering as the natural
//! generalization (§1.4). The model extension is minimal and faithful:
//! agents that occupy the same node have *met*, and met agents may
//! communicate (the paper's motivation for meeting is exactly "to exchange
//! data"). A [`GatheringBehavior`] therefore receives, besides the usual
//! local observation, the labels of the **awake** agents co-located with it
//! at the start of the round. Sleeping agents cannot communicate (but still
//! count for the final all-together condition, which the engine checks on
//! positions alone).
//!
//! [`run_gathering`] steps arbitrary [`GatheringBehavior`]s round by
//! round, through the §1.2 round every stepped engine shares (`step` in
//! `round.rs`); it adds the co-located labels, the cluster history and
//! the all-on-one-node stop. [`FleetSolver`] sits beside it as
//! [`BatchSolver`](crate::BatchSolver) sits beside
//! [`Simulation`](crate::Simulation): it replays the merge-and-restart
//! strategy from precomputed walks ([`Trajectory`]s, one per effective
//! label and restart node), with no behavior objects and no allocation
//! in its round loop.

use crate::round::{step, Walker};
use crate::{check_agents, Action, AgentSpec, Meeting, Observation, SimError, Trajectory};
use rendezvous_graph::{NodeId, PortLabeledGraph};
use std::ops::Deref;
use std::sync::Arc;

/// A deterministic gathering agent: like
/// [`AgentBehavior`](crate::AgentBehavior), plus awareness of co-located
/// awake agents' labels.
pub trait GatheringBehavior {
    /// Decides this round's action. `co_located` holds the labels of the
    /// other awake agents standing on the same node at the start of the
    /// round (empty when alone).
    fn next_action(&mut self, observation: Observation, co_located: &[u64]) -> Action;
}

/// Result of a gathering run.
#[derive(Debug, Clone)]
pub struct GatheringOutcome {
    /// Round and node at which all agents were first co-located.
    pub gathered: Option<Meeting>,
    /// Rounds simulated.
    pub rounds_executed: u64,
    /// Edge traversals per agent.
    pub per_agent_cost: Vec<u64>,
    /// Number of distinct occupied nodes (cluster count) after each round;
    /// useful to watch the merge process.
    pub cluster_history: Vec<usize>,
}

impl GatheringOutcome {
    /// Total edge traversals.
    #[must_use]
    pub fn cost(&self) -> u64 {
        self.per_agent_cost.iter().sum()
    }

    /// Returns `true` if gathering completed.
    #[must_use]
    pub fn gathered_all(&self) -> bool {
        self.gathered.is_some()
    }

    /// Number of merge events: rounds after which the cluster count
    /// strictly decreased, measured against the initial `k` separate
    /// clusters. A run in which no clusters ever merged reports **0**
    /// (the old hand-rolled `windows(2)`-plus-one count both missed a
    /// first-round merge and inflated every count by one).
    #[must_use]
    pub fn merge_events(&self) -> usize {
        let mut previous = self.per_agent_cost.len();
        self.cluster_history
            .iter()
            .filter(|&&clusters| {
                let decreased = clusters < previous;
                previous = clusters;
                decreased
            })
            .count()
    }
}

/// Checks a fleet of `(label, placement)` members the way a gathering
/// run does before its first round: [`check_agents`] on the
/// placements, then distinct labels. Connectivity is left to the
/// caller, which can check it once per graph.
///
/// # Errors
///
/// The first violated condition's [`SimError`].
pub fn check_fleet(graph: &PortLabeledGraph, fleet: &[(u64, AgentSpec)]) -> Result<(), SimError> {
    let specs: Vec<AgentSpec> = fleet.iter().map(|(_, s)| *s).collect();
    check_agents(graph, &specs)?;
    for (i, (label, _)) in fleet.iter().enumerate() {
        if fleet[i + 1..].iter().any(|(other, _)| other == label) {
            return Err(SimError::LabelsNotDistinct { label: *label });
        }
    }
    Ok(())
}

/// Runs a gathering of `k ≥ 2` agents with distinct labels and distinct
/// start nodes until all share a node or `max_rounds` elapse.
///
/// # Errors
///
/// Mirrors [`Simulation::run`](crate::Simulation::run): the
/// configuration errors of [`check_fleet`], then
/// [`SimError::NotConnected`], and [`SimError::InvalidMove`] for
/// behavior bugs.
pub fn run_gathering(
    graph: &PortLabeledGraph,
    mut agents: Vec<(u64, Box<dyn GatheringBehavior + '_>, AgentSpec)>,
    max_rounds: u64,
) -> Result<GatheringOutcome, SimError> {
    let k = agents.len();
    let fleet: Vec<(u64, AgentSpec)> = agents.iter().map(|(l, _, s)| (*l, *s)).collect();
    check_fleet(graph, &fleet)?;
    if !rendezvous_graph::analysis::is_connected(graph) {
        return Err(SimError::NotConnected);
    }

    let mut walkers: Vec<Walker> = fleet.iter().map(|(_, spec)| Walker::new(*spec)).collect();
    let mut co_located = Vec::with_capacity(k);
    let mut cluster_history = Vec::new();
    let mut gathered = None;
    let mut rounds_executed = 0;

    for round in 1..=max_rounds {
        rounds_executed = round;
        step(graph, &mut walkers, round, |i, obs, at_start| {
            // The labels of the other awake agents on this node.
            co_located.clear();
            co_located.extend(
                at_start
                    .iter()
                    .zip(&fleet)
                    .enumerate()
                    .filter(|&(j, (w, _))| {
                        j != i && round >= w.wake_round && w.position == at_start[i].position
                    })
                    .map(|(_, (_, (label, _)))| *label),
            );
            agents[i].1.next_action(obs, &co_located)
        })?;
        let mut occupied: Vec<NodeId> = walkers.iter().map(|w| w.position).collect();
        occupied.sort_unstable();
        occupied.dedup();
        cluster_history.push(occupied.len());
        if occupied.len() == 1 {
            gathered = Some(Meeting {
                round,
                node: walkers[0].position,
            });
            break;
        }
    }

    Ok(GatheringOutcome {
        gathered,
        rounds_executed,
        per_agent_cost: walkers.iter().map(|w| w.cost).collect(),
        cluster_history,
    })
}

/// What a [`FleetSolver`] replay measured: the parts of a
/// [`GatheringOutcome`] a sweep folds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetOutcome {
    /// Round at which all agents first shared a node.
    pub gathered: Option<u64>,
    /// Total edge traversals of all agents.
    pub cost: u64,
    /// Merge events, counted as [`GatheringOutcome::merge_events`] does.
    pub merges: u64,
}

/// Merge-and-restart gathering replayed from compiled walks.
///
/// Under merge-and-restart (`GatheringAgent` in `rendezvous-core`) an
/// agent's every move is a function of three things: the label its
/// cluster runs, the node the cluster last (re)started the schedule
/// from, and the rounds since. A restart happens when awake agents of
/// different clusters stand on one node at the start of a round (they
/// merge into one cluster under the minimum label) or when a cluster's
/// schedule runs out (it re-runs the schedule from where it stands).
/// So each agent's walk between restarts is the trajectory of one
/// `(effective label, restart node)` plan, and the solver only needs
/// those plans, asked for through a callback when a restart needs them.
///
/// The graph's connectivity is checked once, when the solver is built.
#[derive(Debug)]
pub struct FleetSolver {
    graph: Arc<PortLabeledGraph>,
    connected: bool,
}

/// One fleet member's state in a [`FleetSolver`] replay.
struct Member<P> {
    label: u64,
    wake: u64,
    position: u32,
    /// The index of some member of this member's cluster: clusters
    /// travel in lockstep and never split, so the id stays a member.
    cluster: usize,
    /// The label the cluster runs: its minimum label.
    effective: u64,
    /// The walk since the last (re)start.
    walk: P,
    /// The global round before the walk's first round.
    origin: u64,
    cost: u64,
}

impl FleetSolver {
    /// A solver for fleets on `graph`.
    #[must_use]
    pub fn new(graph: Arc<PortLabeledGraph>) -> Self {
        let connected = rendezvous_graph::analysis::is_connected(&graph);
        FleetSolver { graph, connected }
    }

    /// Checks `fleet` as [`run_gathering`] does: [`check_fleet`], then
    /// the graph's connectivity.
    ///
    /// # Errors
    ///
    /// The first violated condition's [`SimError`].
    pub fn check(&self, fleet: &[(u64, AgentSpec)]) -> Result<(), SimError> {
        check_fleet(&self.graph, fleet)?;
        if self.connected {
            Ok(())
        } else {
            Err(SimError::NotConnected)
        }
    }

    /// Replays a merge-and-restart gathering of `fleet` for at most
    /// `horizon` rounds. `walk(label, node)` returns the trajectory of
    /// the two-agent schedule of `label` run from `node`; it is called
    /// once per member, in fleet order, for the member's own label and
    /// start before the first round, and again at every restart.
    ///
    /// The result equals [`run_gathering`] over `GatheringAgent`s on
    /// the same fleet: gathering round, total cost and merge events.
    ///
    /// # Errors
    ///
    /// In order: [`FleetSolver::check`]'s errors, then the first error
    /// `walk` returns.
    pub fn solve<P, E>(
        &self,
        fleet: &[(u64, AgentSpec)],
        horizon: u64,
        mut walk: impl FnMut(u64, NodeId) -> Result<P, E>,
    ) -> Result<FleetOutcome, E>
    where
        P: Deref<Target = Trajectory> + Clone,
        E: From<SimError>,
    {
        self.check(fleet)?;
        let mut members = Vec::with_capacity(fleet.len());
        for (i, &(label, spec)) in fleet.iter().enumerate() {
            members.push(Member {
                label,
                wake: spec.wake_round,
                position: node_index(spec.start),
                cluster: i,
                effective: label,
                walk: walk(label, spec.start)?,
                origin: spec.wake_round - 1,
                cost: 0,
            });
        }
        let k = members.len();
        // Each cluster stands on one node, so a node holds two clusters
        // (the only way a merge can happen) exactly when fewer nodes are
        // occupied than there are clusters.
        let (mut occupied, mut clusters) = (k, k);
        let mut merges = 0;
        for round in 1..=horizon {
            // Start of round: the awake members on one node that belong
            // to more than one cluster merge, and restart together from
            // that node under their minimum label. The lowest-index
            // awake member on the node does it for all of them.
            if occupied < clusters {
                for i in 0..k {
                    if round < members[i].wake {
                        continue;
                    }
                    let (at, cluster) = (members[i].position, members[i].cluster);
                    let here = |m: &Member<P>| round >= m.wake && m.position == at;
                    if members[..i].iter().any(here) {
                        continue;
                    }
                    let rest = &members[i..];
                    if rest.iter().all(|m| !here(m) || m.cluster == cluster) {
                        continue;
                    }
                    let joined = (0..rest.len())
                        .filter(|&j| {
                            here(&rest[j])
                                && rest[..j]
                                    .iter()
                                    .all(|m| !here(m) || m.cluster != rest[j].cluster)
                        })
                        .count();
                    clusters -= joined - 1;
                    let effective = rest
                        .iter()
                        .filter(|m| here(m))
                        .map(|m| m.label)
                        .min()
                        .expect("member i is here");
                    let merged = walk(effective, node(at))?;
                    for m in members[i..].iter_mut().filter(|m| here(m)) {
                        m.cluster = i;
                        m.effective = effective;
                        m.walk = merged.clone();
                        m.origin = round - 1;
                    }
                }
            }
            // Every awake member takes its walk's next step; one whose
            // walk ran out first re-runs its cluster's schedule from
            // where it stands.
            for m in members.iter_mut().filter(|m| round >= m.wake) {
                let mut step = round - m.origin;
                if step > m.walk.steps() {
                    m.walk = walk(m.effective, node(m.position))?;
                    m.origin = round - 1;
                    step = 1;
                }
                let trajectory = &*m.walk;
                if step <= trajectory.steps() {
                    m.cost += u64::from(trajectory.moved_in(step));
                    m.position = trajectory.position_at(step);
                }
            }
            let now = (0..k)
                .filter(|&i| {
                    let at = members[i].position;
                    members[..i].iter().all(|m| m.position != at)
                })
                .count();
            if now < occupied {
                merges += 1;
            }
            occupied = now;
            if now == 1 {
                return Ok(outcome(&members, Some(round), merges));
            }
        }
        Ok(outcome(&members, None, merges))
    }
}

/// A node's index as a trajectory entry.
fn node_index(node: NodeId) -> u32 {
    u32::try_from(node.index()).expect("node index fits in u32")
}

/// A trajectory entry as a node.
fn node(index: u32) -> NodeId {
    NodeId::new(index as usize)
}

/// What a replay measured, from its members' final state.
fn outcome<P>(members: &[Member<P>], gathered: Option<u64>, merges: u64) -> FleetOutcome {
    FleetOutcome {
        gathered,
        cost: members.iter().map(|m| m.cost).sum(),
        merges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendezvous_graph::{generators, Port};

    /// A gathering agent that walks clockwise until it has ever seen a
    /// smaller label, then freezes. Smallest label freezes... no: smallest
    /// never sees smaller, keeps walking — good enough for engine tests.
    struct ChaseDown {
        label: u64,
        frozen: bool,
    }

    impl GatheringBehavior for ChaseDown {
        fn next_action(&mut self, _obs: Observation, co_located: &[u64]) -> Action {
            if co_located.iter().any(|&l| l < self.label) {
                self.frozen = true;
            }
            if self.frozen {
                Action::Stay
            } else {
                Action::Move(Port::new(0))
            }
        }
    }

    #[test]
    fn engine_reports_cluster_merges() {
        // Idle low-label agent plus two chasers: the chasers sweep the
        // ring, freeze on the idle one, and gathering completes.
        let g = generators::oriented_ring(6).unwrap();
        struct Idle;
        impl GatheringBehavior for Idle {
            fn next_action(&mut self, _o: Observation, _c: &[u64]) -> Action {
                Action::Stay
            }
        }
        let agents: Vec<(u64, Box<dyn GatheringBehavior>, AgentSpec)> = vec![
            (1, Box::new(Idle), AgentSpec::immediate(NodeId::new(0))),
            (
                2,
                Box::new(ChaseDown {
                    label: 2,
                    frozen: false,
                }),
                AgentSpec::immediate(NodeId::new(2)),
            ),
            (
                3,
                Box::new(ChaseDown {
                    label: 3,
                    frozen: false,
                }),
                AgentSpec::immediate(NodeId::new(4)),
            ),
        ];
        let out = run_gathering(&g, agents, 100).unwrap();
        let m = out.gathered.expect("gathering completes");
        assert_eq!(m.node, NodeId::new(0));
        assert!(out.cluster_history.last() == Some(&1));
        // cluster count never increases once agents freeze together
        let min_seen = out
            .cluster_history
            .iter()
            .scan(usize::MAX, |m, &c| {
                *m = (*m).min(c);
                Some(*m)
            })
            .collect::<Vec<_>>();
        assert_eq!(min_seen.last(), Some(&1));
    }

    /// Regression for the merge-event count: it is **0-based** (no
    /// cluster-count decrease ⇒ 0 merges, not 1) and it sees a merge that
    /// happens in the very first round, which a `windows(2)` scan over
    /// the history alone cannot (the initial `k` is the baseline).
    #[test]
    fn merge_events_are_zero_based_and_count_first_round_merges() {
        // No decrease at all: two idlers parked apart forever.
        let out = GatheringOutcome {
            gathered: None,
            rounds_executed: 4,
            per_agent_cost: vec![0, 0],
            cluster_history: vec![2, 2, 2, 2],
        };
        assert_eq!(out.merge_events(), 0, "no merge may be invented");
        // A first-round merge (3 clusters → 2 before any window exists),
        // then another merge later: exactly two events.
        let out = GatheringOutcome {
            gathered: Some(Meeting {
                round: 3,
                node: NodeId::new(0),
            }),
            rounds_executed: 3,
            per_agent_cost: vec![1, 1, 1],
            cluster_history: vec![2, 2, 1],
        };
        assert_eq!(out.merge_events(), 2);
        // Fluctuating counts: only strict decreases count, increases
        // (clusters drifting apart) do not un-count them.
        let out = GatheringOutcome {
            gathered: None,
            rounds_executed: 5,
            per_agent_cost: vec![0; 4],
            cluster_history: vec![4, 3, 4, 3, 2],
        };
        assert_eq!(out.merge_events(), 3);
    }

    #[test]
    fn engine_validates_configuration() {
        let g = generators::oriented_ring(4).unwrap();
        let one: Vec<(u64, Box<dyn GatheringBehavior>, AgentSpec)> =
            vec![(1, Box::new(Idle), AgentSpec::immediate(NodeId::new(0)))];
        assert!(matches!(
            run_gathering(&g, one, 10),
            Err(SimError::TooFewAgents { got: 1 })
        ));
    }

    struct Idle;

    impl GatheringBehavior for Idle {
        fn next_action(&mut self, _o: Observation, _c: &[u64]) -> Action {
            Action::Stay
        }
    }

    /// `rounds` idle rounds at `node`.
    fn stand(node: NodeId, rounds: u64) -> Arc<Trajectory> {
        let mut walk = Trajectory::new(node_index(node));
        walk.idle(rounds);
        Arc::new(walk)
    }

    /// The solver refuses every fleet `run_gathering` refuses, with the
    /// same error: too few agents, a start out of range, a zero wake
    /// round, equal starts, a repeated label, a disconnected graph.
    #[test]
    fn solver_refuses_what_run_gathering_refuses() {
        let ring = generators::oriented_ring(4).unwrap();
        let mut builder = rendezvous_graph::GraphBuilder::new(4);
        for (u, v) in [(0, 1), (2, 3)] {
            builder.add_edge(NodeId::new(u), NodeId::new(v)).unwrap();
        }
        let split = builder.build().unwrap();
        let at = |node| AgentSpec::immediate(NodeId::new(node));
        let asleep = AgentSpec {
            start: NodeId::new(1),
            wake_round: 0,
        };
        let cases = [
            (&ring, vec![(1, at(0))], SimError::TooFewAgents { got: 1 }),
            (
                &ring,
                vec![(1, at(0)), (2, at(4))],
                SimError::StartOutOfRange {
                    node: NodeId::new(4),
                },
            ),
            (
                &ring,
                vec![(1, at(0)), (2, asleep)],
                SimError::InvalidWakeRound,
            ),
            (
                &ring,
                vec![(1, at(0)), (2, at(2)), (3, at(2))],
                SimError::StartsNotDistinct {
                    node: NodeId::new(2),
                },
            ),
            (
                &ring,
                vec![(1, at(0)), (2, at(2)), (1, at(3))],
                SimError::LabelsNotDistinct { label: 1 },
            ),
            (&split, vec![(1, at(0)), (2, at(2))], SimError::NotConnected),
        ];
        for (graph, fleet, expected) in cases {
            let agents: Vec<(u64, Box<dyn GatheringBehavior>, AgentSpec)> = fleet
                .iter()
                .map(|&(label, spec)| (label, Box::new(Idle) as Box<dyn GatheringBehavior>, spec))
                .collect();
            let stepped = run_gathering(graph, agents, 10).unwrap_err();
            let solver = FleetSolver::new(Arc::new(graph.clone()));
            let solved = solver
                .solve(&fleet, 10, |_, node| Ok::<_, SimError>(stand(node, 10)))
                .unwrap_err();
            assert_eq!(stepped, expected);
            assert_eq!(solved, expected);
        }
    }

    /// On an oriented 6-ring, label 1 walks clockwise from node 0 past
    /// a sleeper (label 2 on node 2) to an awake idler (label 3 on node
    /// 5). Landing on the sleeper is a merge event with no restart: the
    /// walker walks on. Landing on the idler is a merge event too, and
    /// at the next round's start the two restart together under label
    /// 1 from node 5, so the idler moves with the walker from then on.
    #[test]
    fn solver_walks_over_sleepers_and_restarts_merged_clusters() {
        let ring = Arc::new(generators::oriented_ring(6).unwrap());
        let fleet = [
            (1, AgentSpec::immediate(NodeId::new(0))),
            (2, AgentSpec::delayed(NodeId::new(2), 99)),
            (3, AgentSpec::immediate(NodeId::new(5))),
        ];
        let mut calls = Vec::new();
        let out = FleetSolver::new(Arc::clone(&ring))
            .solve(&fleet, 6, |label, node| {
                calls.push((label, node.index()));
                if label != 1 {
                    return Ok::<_, SimError>(stand(node, 100));
                }
                let mut walk = Trajectory::new(node_index(node));
                for step in 1..=5 {
                    walk.push(((node.index() + step) % 6) as u32, true);
                }
                Ok(Arc::new(walk))
            })
            .unwrap();
        assert_eq!(
            out,
            FleetOutcome {
                gathered: None,
                cost: 7,
                merges: 2,
            }
        );
        assert_eq!(calls, [(1, 0), (2, 2), (3, 5), (1, 5)]);
    }

    #[test]
    fn sleeping_agents_are_invisible_to_communication() {
        // An awake agent parked on a sleeping one sees no co-located labels.
        let g = generators::oriented_ring(4).unwrap();
        struct Recorder {
            ever_saw: bool,
        }
        impl GatheringBehavior for Recorder {
            fn next_action(&mut self, _o: Observation, c: &[u64]) -> Action {
                if !c.is_empty() {
                    self.ever_saw = true;
                }
                Action::Move(Port::new(0))
            }
        }
        struct Idle;
        impl GatheringBehavior for Idle {
            fn next_action(&mut self, _o: Observation, _c: &[u64]) -> Action {
                Action::Stay
            }
        }
        let agents: Vec<(u64, Box<dyn GatheringBehavior>, AgentSpec)> = vec![
            (
                1,
                Box::new(Recorder { ever_saw: false }),
                AgentSpec::immediate(NodeId::new(0)),
            ),
            (2, Box::new(Idle), AgentSpec::delayed(NodeId::new(2), 1_000)),
        ];
        let out = run_gathering(&g, agents, 8).unwrap();
        // walker passes over the sleeper; engine does count positions for
        // the gathered check (they coincide at some round end):
        assert!(out.gathered_all());
    }
}
