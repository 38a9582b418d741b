//! The lower-bound machinery of §3 of Miller & Pelc (PODC 2014), as
//! **executable code**: every definition in the proofs — behaviour vectors,
//! procedure `Trim`, the eager tournament with its Rédei Hamiltonian path,
//! sectors/blocks, aggregate vectors and `DefineProgress` (Algorithm 3) —
//! is implemented and can be run against any concrete
//! [`RendezvousAlgorithm`](rendezvous_core::RendezvousAlgorithm) on an
//! oriented ring.
//!
//! Two end-to-end audits reproduce the theorems numerically:
//!
//! * [`eager_chain_audit`] — Theorem 3.1: for a cost-`E + o(E)` algorithm,
//!   builds the eager tournament and exhibits a concrete execution chain of
//!   length `(⌊L/2⌋ − 1)(F − 3φ)/2 ∈ Ω(EL)`;
//! * [`progress_audit`] — Theorem 3.2: for a time-`O(E log L)` algorithm,
//!   computes the group's progress vectors and the `k · n/6` cost witnesses
//!   of Fact 3.17.
//!
//! Both start from procedure `Trim`, which is one sweep: a [`TrimSweep`]
//! (every label pair × every ordered start pair, up to rotation) swept
//! by any runner or sweep path, then folded by
//! [`TrimmedAlgorithm::from_report`]. The
//! construction after the trim is a separate call — [`eager_chain`] and
//! [`progress`] — so a caller that sweeps the trim elsewhere (a result
//! store, a distributed fabric) feeds its report straight in; the audits
//! above compose the three on one sequential runner.
//!
//! # Examples
//!
//! ```
//! use rendezvous_core::{CheapSimultaneous, LabelSpace, RendezvousAlgorithm};
//! use rendezvous_explore::OrientedRingExplorer;
//! use rendezvous_graph::generators;
//! use rendezvous_lower_bounds::eager_chain_audit;
//! use std::sync::Arc;
//!
//! let g = Arc::new(generators::oriented_ring(12).unwrap());
//! let ex = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
//! let alg = CheapSimultaneous::new(g, ex, LabelSpace::new(6).unwrap());
//! let report = eager_chain_audit(&alg, 20 * alg.time_bound()).unwrap();
//! assert!(report.strictly_increasing);      // Fact 3.7
//! assert!(report.witness_holds());          // Fact 3.8's Ω(EL) witness
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod behavior_vector;
mod eager;
mod error;
mod progress;
mod tournament;
mod trim;

pub use behavior_vector::{behavior_vector, oriented_ring_size, BehaviorVector};
pub use eager::{eager_chain, eager_chain_audit, EagerChainReport};
pub use error::LowerBoundError;
pub use progress::{
    aggregate_vector, define_progress, progress, progress_audit, surplus, ProgressReport,
};
pub use tournament::{hamiltonian_path, is_hamiltonian_path};
pub use trim::{trim, TrimSweep, TrimmedAlgorithm};
