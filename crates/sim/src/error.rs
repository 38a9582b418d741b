//! Error type for simulation setup and execution.

use rendezvous_graph::{GraphError, NodeId, Port};
use std::error::Error;
use std::fmt;

/// Errors raised while configuring or running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// Fewer than two agents were configured.
    TooFewAgents {
        /// How many were configured.
        got: usize,
    },
    /// Two agents were placed on the same start node; the problem statement
    /// requires distinct starting positions.
    StartsNotDistinct {
        /// The shared node.
        node: NodeId,
    },
    /// Two fleet members carry the same label; gathering agents tell
    /// each other apart by label, so labels must be distinct.
    LabelsNotDistinct {
        /// The shared label.
        label: u64,
    },
    /// A start node is not a node of the graph.
    StartOutOfRange {
        /// The offending node.
        node: NodeId,
    },
    /// Wake-up rounds are 1-based; 0 is not a round.
    InvalidWakeRound,
    /// The simulation requires a connected graph (otherwise rendezvous can
    /// be impossible regardless of algorithm).
    NotConnected,
    /// An agent emitted a move through a non-existent port — an algorithm
    /// bug surfaced by the engine rather than silently ignored.
    InvalidMove {
        /// Index of the offending agent (configuration order).
        agent: usize,
        /// Global round of the bad decision.
        round: u64,
        /// The invalid port.
        port: Port,
        /// Degree of the node the agent was at.
        degree: usize,
    },
    /// Graph navigation failed (wraps [`GraphError`]).
    Graph(GraphError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TooFewAgents { got } => {
                write!(f, "simulation needs at least 2 agents, got {got}")
            }
            SimError::StartsNotDistinct { node } => {
                write!(f, "agents must start at distinct nodes (both at {node})")
            }
            SimError::LabelsNotDistinct { label } => {
                write!(f, "agents must carry distinct labels (two carry {label})")
            }
            SimError::StartOutOfRange { node } => write!(f, "start node {node} out of range"),
            SimError::InvalidWakeRound => write!(f, "wake-up rounds are 1-based (got 0)"),
            SimError::NotConnected => write!(f, "simulation requires a connected graph"),
            SimError::InvalidMove {
                agent,
                round,
                port,
                degree,
            } => write!(
                f,
                "agent {agent} emitted invalid move {port} (degree {degree}) in round {round}"
            ),
            SimError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for SimError {
    fn from(e: GraphError) -> Self {
        SimError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = SimError::InvalidMove {
            agent: 1,
            round: 7,
            port: Port::new(5),
            degree: 2,
        };
        let s = e.to_string();
        assert!(s.contains("agent 1") && s.contains("p5") && s.contains("round 7"));
    }
}
