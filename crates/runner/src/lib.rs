//! The unified scenario-sweep engine of the rendezvous workspace.
//!
//! The paper's claims (Miller & Pelc, PODC 2014) are all *worst-case over
//! an adversary*: any label pair from `{1, …, L}`, any distinct start
//! nodes, any wake-up delays — and, in this workspace's generalizations,
//! any fleet of `k ≥ 2` agents on any of hundreds of seeded topologies.
//! Reproducing a claim therefore means sweeping an adversarial
//! configuration space and folding every execution into aggregate
//! statistics. That shape is defined exactly **once**, as a generic
//! pipeline over the [`Workload`] trait:
//!
//! ```text
//! enumerate (Workload) → run (PieceExecutor) → fold (SweepReport)
//!     → split (Workload::lease_ranges) → merge (SweepReport::merge)
//! ```
//!
//! * [`Scenario`] — one fully-specified `k ≥ 2`-agent execution: a list
//!   of [`Placement`]s (label, start, wake-up delay) plus the round
//!   budget. [`Scenario::pair`] builds the paper's two-agent case;
//! * [`Workload`] — an index-stable, capped, splittable source of
//!   `(global index, context, Scenario)` units. Implemented by [`Grid`]
//!   (label pairs × start pairs × delays in pair mode, fleet sizes ×
//!   rotations × delay phases in fleet mode — one graph, one fold group)
//!   and [`TopoGrid`] (per-[`GraphSpec`](rendezvous_graph::GraphSpec)
//!   grids concatenated over many graphs, each built once and keyed by
//!   family);
//! * [`Runner`] — executes workloads on the calling thread through a
//!   [`PieceExecutor`] (any per-scenario [`Executor`] works as-is;
//!   [`Bounded`] attaches sweep-level [`Bounds`]); the fold walks
//!   outcomes in global index order, so any contiguous split of a sweep
//!   produces an **identical** report by construction;
//! * [`SweepReport`] — the one keyed fold: per-group (`""` for plain
//!   sweeps, the graph family for topology sweeps) sums, maxima,
//!   bound-violation counts and worst-case [`Witness`]es, tie-broken
//!   toward the lowest global index with exact-`u128` ratio comparison.
//!
//! Sweeps scale **across processes**, the one parallel path:
//! [`Workload::lease_ranges`]
//! cuts the index space into contiguous ranges, [`Runner::sweep_range`]
//! folds a range's outcomes at their global indices, the resulting
//! [`SweepReport`] serializes over any byte channel (serde), and
//! [`SweepReport::merge`] is the associative fold that reassembles the
//! exact single-process aggregates — worst-case witnesses and their
//! lowest-index tie-breaks included.
//!
//! # Examples
//!
//! ```
//! use rendezvous_core::{Cheap, LabelSpace};
//! use rendezvous_explore::OrientedRingExplorer;
//! use rendezvous_graph::generators;
//! use rendezvous_runner::{AlgorithmExecutor, Grid, Runner};
//! use std::sync::Arc;
//!
//! let g = Arc::new(generators::oriented_ring(6).unwrap());
//! let ex = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
//! let alg = Cheap::new(g.clone(), ex, LabelSpace::new(4).unwrap());
//! let grid = Grid::new(4 * rendezvous_core::RendezvousAlgorithm::time_bound(&alg))
//!     .label_pairs_both_orders(&[(1, 4)])
//!     .delays(&[0, 5])
//!     .all_start_pairs(&g);
//! let stats = Runner::sequential()
//!     .sweep(&grid, &AlgorithmExecutor::new(&alg))
//!     .unwrap()
//!     .solo();
//! assert_eq!(stats.failures, 0);
//! assert!(stats.max_time > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod executor;
mod grid;
mod report;
mod runner;
mod scenario;
mod topo;
mod workload;

pub use batch::BatchExecutor;
pub use executor::{AlgorithmExecutor, Executor, FactoryExecutor, GatheringExecutor, RunnerError};
pub use grid::{FleetRule, Grid};
pub use report::{fold_outcomes, Bounds, GroupStats, SweepReport, Witness};
pub use runner::Runner;
pub use scenario::{Placement, Scenario, ScenarioOutcome};
pub use topo::{TopoEntry, TopoGrid};
pub use workload::{
    Bounded, Fnv1a, PieceExecutor, WorkPiece, Workload, WorkloadKind, WorkloadMeta,
};
