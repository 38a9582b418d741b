//! Solo executions `α(x, p, ⊥, ⊥)`: one agent running its algorithm alone.
//!
//! The lower-bound machinery of §3 is built entirely on solo executions —
//! an agent's *behaviour vector* is defined by what it does when no other
//! agent is present, and (by determinism) its behaviour in a real execution
//! coincides with its solo behaviour until the meeting round.
//!
//! A solo run is the §1.2 round every stepped engine shares (`step` in
//! `round.rs`), played by one agent awake from round 1 for a fixed
//! number of rounds.

use crate::round::{step, Walker};
use crate::{Action, AgentBehavior, AgentSpec, SimError};
use rendezvous_graph::{NodeId, PortLabeledGraph};

/// History of a solo execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoloTrace {
    /// Node occupied at the end of round `r` (`positions[0]` = start).
    pub positions: Vec<NodeId>,
    /// Action taken in round `r + 1`.
    pub actions: Vec<Action>,
}

impl SoloTrace {
    /// Total number of edge traversals.
    #[must_use]
    pub fn cost(&self) -> u64 {
        self.actions.iter().filter(|a| a.is_move()).count() as u64
    }

    /// Number of rounds executed.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.actions.len()
    }
}

/// Runs `behavior` alone on `graph` from `start` for exactly `rounds`
/// rounds.
///
/// # Errors
///
/// * [`SimError::StartOutOfRange`] for a bad start node,
/// * [`SimError::InvalidMove`] if the behavior emits a non-existent port.
pub fn run_solo(
    graph: &PortLabeledGraph,
    behavior: &mut dyn AgentBehavior,
    start: NodeId,
    rounds: u64,
) -> Result<SoloTrace, SimError> {
    if !graph.contains(start) {
        return Err(SimError::StartOutOfRange { node: start });
    }
    let mut walker = [Walker::new(AgentSpec::immediate(start))];
    let mut positions = Vec::with_capacity(rounds as usize + 1);
    positions.push(start);
    let mut actions = Vec::with_capacity(rounds as usize);
    for round in 1..=rounds {
        step(graph, &mut walker, round, |_, obs, _| {
            // Kept as decided: a refused move discards the whole trace.
            let action = behavior.next_action(obs);
            actions.push(action);
            action
        })?;
        positions.push(walker[0].position);
    }
    Ok(SoloTrace { positions, actions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScriptedAgent;
    use rendezvous_graph::{generators, Port};

    #[test]
    fn solo_walk_positions() {
        let g = generators::oriented_ring(4).unwrap();
        let mut a = ScriptedAgent::new(vec![
            Action::Move(Port::new(0)),
            Action::Stay,
            Action::Move(Port::new(0)),
        ]);
        let t = run_solo(&g, &mut a, NodeId::new(1), 5).unwrap();
        assert_eq!(
            t.positions,
            vec![
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(2),
                NodeId::new(3),
                NodeId::new(3),
                NodeId::new(3),
            ]
        );
        assert_eq!(t.cost(), 2);
        assert_eq!(t.rounds(), 5);
    }

    #[test]
    fn solo_rejects_bad_start() {
        let g = generators::oriented_ring(4).unwrap();
        let mut a = ScriptedAgent::new(vec![]);
        assert!(run_solo(&g, &mut a, NodeId::new(10), 1).is_err());
    }

    #[test]
    fn solo_surfaces_invalid_move() {
        let g = generators::path(2).unwrap();
        let mut a = ScriptedAgent::new(vec![Action::Move(Port::new(3))]);
        assert!(matches!(
            run_solo(&g, &mut a, NodeId::new(0), 1),
            Err(SimError::InvalidMove { .. })
        ));
    }
}
