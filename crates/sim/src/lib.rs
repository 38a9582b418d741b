//! The synchronous execution model of Miller & Pelc (PODC 2014): agents as
//! deterministic state machines, an engine with exact meeting semantics,
//! solo executions, and k-agent gathering. The exhaustive adversary
//! (worst case over start positions, label orders and wake-up delays)
//! lives in the `rendezvous-runner` crate, which sweeps scenario grids
//! through this engine.
//!
//! # Model recap (§1.2 of the paper)
//!
//! Two agents start at **distinct** nodes of a connected, anonymous,
//! port-labelled graph, possibly woken in different rounds by an adversary.
//! In each round an awake agent either stays or moves through a chosen
//! port. Agents cannot mark nodes or communicate; they notice each other
//! only when they occupy the same node at the end of a round — crossing
//! inside an edge goes unnoticed. **Time** is counted from the wake-up of
//! the earlier agent; **cost** is the total number of edge traversals of
//! both agents.
//!
//! # Examples
//!
//! ```
//! use rendezvous_graph::{generators, NodeId, Port};
//! use rendezvous_sim::{Action, AgentSpec, ScriptedAgent, Simulation};
//!
//! let g = generators::oriented_ring(6).unwrap();
//! let walker = ScriptedAgent::new(vec![Action::Move(Port::new(0)); 5]);
//! let idler = ScriptedAgent::new(vec![]);
//! let out = Simulation::new(&g)
//!     .agent(Box::new(walker), AgentSpec::immediate(NodeId::new(0)))
//!     .agent(Box::new(idler), AgentSpec::immediate(NodeId::new(4)))
//!     .run()?;
//! assert_eq!(out.time(), Some(4));
//! # Ok::<(), rendezvous_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod behavior;
mod engine;
mod error;
pub mod gathering;
pub mod render;
mod round;
mod solo;

pub use batch::{BatchSolver, DelayOutcome, Trajectory};
pub use behavior::{Action, AgentBehavior, IdleAgent, Observation, ScriptedAgent};
pub use engine::{check_agents, AgentSpec, Meeting, Outcome, Simulation, Trace};
pub use error::SimError;
pub use solo::{run_solo, SoloTrace};
