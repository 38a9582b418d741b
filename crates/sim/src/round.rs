//! The synchronous round of §1.2, written once for every stepped engine.
//!
//! [`Simulation::run`](crate::Simulation::run),
//! [`run_gathering`](crate::gathering::run_gathering) and
//! [`run_solo`](crate::run_solo) all advance their agents through
//! [`step`]; each keeps only what it reads off the new configuration
//! (meetings and crossings, clusters, a solo trace).

use crate::{Action, AgentSpec, Observation, SimError};
use rendezvous_graph::{NodeId, Port, PortLabeledGraph};

/// One agent of a stepped execution: where it stands, how it entered,
/// what it has paid and what it did last.
#[derive(Clone, Copy)]
pub(crate) struct Walker {
    /// First global round in which the agent acts.
    pub(crate) wake_round: u64,
    /// Node at the end of the last played round (the start before
    /// round 1).
    pub(crate) position: NodeId,
    entry_port: Option<Port>,
    /// Edge traversals so far.
    pub(crate) cost: u64,
    /// What the agent did in the last played round.
    pub(crate) action: Action,
}

impl Walker {
    /// An agent standing on its start, not moved yet.
    pub(crate) fn new(spec: AgentSpec) -> Self {
        Walker {
            wake_round: spec.wake_round,
            position: spec.start,
            entry_port: None,
            cost: 0,
            action: Action::Stay,
        }
    }
}

/// Plays global round `round` (1-based) of `walkers` on `graph` under
/// the rules of §1.2:
///
/// * agents occupy their starts from round 0, asleep or not;
/// * an agent is awake from its wake round on, and only awake agents
///   decide; a sleeper's action is [`Action::Stay`];
/// * each awake agent decides from its own [`Observation`] alone: local
///   round `round − wake`, the degree of its node, and the port it
///   entered through last round (`None` after a stay or before its first
///   move). `decide(i, observation, walkers)` answers for agent `i`;
///   `walkers` is the start-of-round configuration, for engines whose
///   agents may see who stands with them;
/// * decisions are checked in agent order: the first move through a port
///   its node lacks ends the round as [`SimError::InvalidMove`], and
///   later agents do not decide;
/// * then all moves apply at once, updating positions, entry ports and
///   costs. Two agents that swap nodes through one edge crossed inside
///   it, which is not a meeting; whether the new configuration is a
///   meeting is the caller's question.
///
/// # Errors
///
/// [`SimError::InvalidMove`] as above.
#[inline]
pub(crate) fn step(
    graph: &PortLabeledGraph,
    walkers: &mut [Walker],
    round: u64,
    mut decide: impl FnMut(usize, Observation, &[Walker]) -> Action,
) -> Result<(), SimError> {
    for i in 0..walkers.len() {
        let Walker {
            wake_round,
            position,
            entry_port,
            ..
        } = walkers[i];
        if round < wake_round {
            walkers[i].action = Action::Stay;
            continue;
        }
        let degree = graph.degree(position);
        let observation = Observation {
            local_round: round - wake_round,
            degree,
            entry_port,
        };
        let action = decide(i, observation, walkers);
        if let Action::Move(port) = action {
            if port.index() >= degree {
                return Err(SimError::InvalidMove {
                    agent: i,
                    round,
                    port,
                    degree,
                });
            }
        }
        walkers[i].action = action;
    }
    for walker in walkers {
        match walker.action {
            Action::Stay => walker.entry_port = None,
            Action::Move(port) => {
                let t = graph.traverse(walker.position, port)?;
                walker.position = t.target;
                walker.entry_port = Some(t.entry_port);
                walker.cost += 1;
            }
        }
    }
    Ok(())
}
