//! Deterministic rendezvous algorithms from *Time Versus Cost Tradeoffs
//! for Deterministic Rendezvous in Networks* (Miller & Pelc, PODC 2014).
//!
//! Two agents with distinct labels from `{1, …, L}`, dropped on distinct
//! nodes of an anonymous port-labelled network and woken at adversarial
//! times, must meet at a node. Both know an exploration procedure with
//! bound `E`. The paper charts the tradeoff between the **time** and the
//! **cost** of rendezvous:
//!
//! | algorithm | time | cost |
//! |---|---|---|
//! | [`CheapSimultaneous`] (simultaneous start) | `≤ (L−1)E` | `≤ E` |
//! | [`Cheap`] | `≤ (2L+1)E` | `≤ 3E` |
//! | [`Fast`] | `≤ (4⌊log(L−1)⌋+9)E` | `≤ 2×` time |
//! | [`FastWithRelabeling`]`(w)` | `≤ (4t+5)E` | `O(wE)` |
//! | [`Iterated`] (unknown `E`) | telescoped | telescoped |
//!
//! and proves the two ends essentially optimal: cost `E + o(E)` forces time
//! `Ω(EL)`, and time `O(E log L)` forces cost `Ω(E log L)` (see the
//! `rendezvous-lower-bounds` crate for that machinery, executable).
//!
//! # Examples
//!
//! ```
//! use rendezvous_core::{Fast, Label, LabelSpace, RendezvousAlgorithm};
//! use rendezvous_explore::OrientedRingExplorer;
//! use rendezvous_graph::{generators, NodeId};
//! use rendezvous_sim::{AgentSpec, Simulation};
//! use std::sync::Arc;
//!
//! let g = Arc::new(generators::oriented_ring(10).unwrap());
//! let explore = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
//! let alg = Fast::new(g.clone(), explore, LabelSpace::new(32).unwrap());
//!
//! let alice = alg.agent(Label::new(7).unwrap(), NodeId::new(0)).unwrap();
//! let bob = alg.agent(Label::new(21).unwrap(), NodeId::new(5)).unwrap();
//! let out = Simulation::new(&g)
//!     .agent(Box::new(alice), AgentSpec::immediate(NodeId::new(0)))
//!     .agent(Box::new(bob), AgentSpec::immediate(NodeId::new(5)))
//!     .max_rounds(alg.time_bound())
//!     .run()
//!     .unwrap();
//! assert!(out.met());
//! assert!(out.time().unwrap() <= alg.time_bound());
//! assert!(out.cost() <= alg.cost_bound());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod cheap;
mod error;
mod fast;
mod gathering;
mod iterated;
mod label;
mod relabel;
mod schedule;

pub use algorithm::RendezvousAlgorithm;
pub use cheap::{Cheap, CheapSimultaneous};
pub use error::CoreError;
pub use fast::Fast;
pub use gathering::{gathering_fleet, FleetMember, GatheringAgent};
pub use iterated::{BaseAlgorithm, Iterated};
pub use label::{Label, LabelSpace, ModifiedLabel};
pub use relabel::{binomial, corollary_t_prime, lex_subset_bits, smallest_t, FastWithRelabeling};
pub use schedule::{rotation_equivariant, Phase, Schedule, ScheduleBehavior, SegmentMemo};
