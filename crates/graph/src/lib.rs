//! Anonymous port-labelled graphs — the network substrate of
//! *Time Versus Cost Tradeoffs for Deterministic Rendezvous in Networks*
//! (Miller & Pelc, PODC 2014).
//!
//! # Model
//!
//! Networks are undirected, connected, **anonymous** graphs: agents cannot
//! perceive node identities. At each node `v`, the incident edges carry
//! distinct local **port numbers** `0..deg(v)`, and the numberings at the two
//! endpoints of an edge are unrelated. When an agent traverses an edge it
//! learns the degree of the node it reaches and the port through which it
//! entered — nothing else.
//!
//! This crate provides:
//!
//! * [`PortLabeledGraph`] — the immutable, invariant-checked graph,
//! * [`GraphBuilder`] — validated construction,
//! * [`generators`] — the families used by the paper's algorithms and lower
//!   bounds (oriented rings, stars, hypercubes, tori, random graphs, …),
//! * [`GraphSpec`] — serializable, seeded recipes for graph instances
//!   (family + parameters + seed), the enumerable topology axis of the
//!   adversarial sweeps,
//! * [`analysis`] — BFS/diameter/connectivity utilities for the simulator,
//! * [`HamiltonianCycle`] / [`EulerCircuit`] — exploration certificates that
//!   make the sharper bounds `E = n - 1` and `E = e - 1` of §1.2 available.
//!
//! # Examples
//!
//! ```
//! use rendezvous_graph::{analysis, generators, NodeId, Port};
//!
//! // The oriented ring: the graph family of the paper's lower bounds.
//! let g = generators::oriented_ring(8)?;
//! assert!(analysis::is_connected(&g));
//! assert_eq!(analysis::diameter(&g), Some(4));
//!
//! // Agents navigate purely by ports:
//! let hop = g.traverse(NodeId::new(0), Port::new(0))?;
//! assert_eq!(hop.target, NodeId::new(1));
//! # Ok::<(), rendezvous_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod builder;
mod certificate;
mod error;
pub mod generators;
#[allow(clippy::module_inception)]
mod graph;
mod ids;
mod spec;

pub use builder::GraphBuilder;
pub use certificate::{EulerCircuit, HamiltonianCycle};
pub use error::GraphError;
pub use graph::{Edge, PortLabeledGraph, Traversal};
pub use ids::{NodeId, Port};
pub use spec::{
    ErdosRenyiSpec, ExplorerRecipe, GraphSpec, PermutedSpec, RegularSpec, RingSpec, SeededSpec,
    TorusSpec,
};
