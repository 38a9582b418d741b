//! Umbrella crate re-exporting the rendezvous reproduction workspace.
//!
//! See the individual crates for the substance:
//! - [`rendezvous_graph`] — anonymous port-labelled graphs,
//! - [`rendezvous_explore`] — exploration procedures with known bounds `E`,
//! - [`rendezvous_sim`] — the synchronous two-agent execution model,
//! - [`rendezvous_core`] — the paper's algorithms (`Cheap`, `Fast`, `FastWithRelabeling`),
//! - [`rendezvous_lower_bounds`] — the executable lower-bound machinery of §3,
//! - [`rendezvous_runner`] — the shared scenario-sweep engine
//!   (`Scenario`, `Grid`, `Runner`) every experiment executes through.

pub use rendezvous_core as core;
pub use rendezvous_explore as explore;
pub use rendezvous_graph as graph;
pub use rendezvous_lower_bounds as lower_bounds;
pub use rendezvous_runner as runner;
pub use rendezvous_sim as sim;
