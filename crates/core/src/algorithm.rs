//! The common interface of the paper's rendezvous algorithms.

use crate::{CoreError, Label, LabelSpace, Schedule, ScheduleBehavior};
use rendezvous_graph::{NodeId, PortLabeledGraph};
use std::fmt;
use std::sync::Arc;

/// A deterministic rendezvous algorithm, parameterized by the exploration
/// procedure (with bound `E`) and the label space `{1, …, L}`.
///
/// An algorithm compiles each label into a [`Schedule`] — the full plan the
/// agent follows from its wake-up round. The paper's worst-case guarantees
/// are exposed as [`RendezvousAlgorithm::time_bound`] and
/// [`RendezvousAlgorithm::cost_bound`] so that experiments can assert
/// *measured ≤ bound* on every execution.
///
/// The `Send + Sync` bound stays although every sweep runs on one
/// thread: algorithms, their schedules and explorers are shared as
/// `Arc`s, and without the bound clippy's `arc_with_non_send_sync`
/// lint rejects each of those `Arc`s.
pub trait RendezvousAlgorithm: fmt::Debug + Send + Sync {
    /// Short name used in experiment output (e.g. `"cheap"`, `"fast"`).
    fn name(&self) -> &'static str;

    /// The label space the algorithm was configured for.
    fn label_space(&self) -> LabelSpace;

    /// The graph the agents operate on.
    fn graph(&self) -> &Arc<PortLabeledGraph>;

    /// The exploration bound `E` of the underlying procedure.
    fn exploration_bound(&self) -> u64;

    /// Compiles the schedule for an agent with the given label.
    ///
    /// # Errors
    ///
    /// [`CoreError::LabelOutOfRange`] if the label is outside the space.
    fn schedule(&self, label: Label) -> Result<Schedule, CoreError>;

    /// The paper's worst-case **time** bound (rounds from the earlier
    /// agent's start), over all label pairs, start positions and delays.
    fn time_bound(&self) -> u64;

    /// The paper's worst-case **cost** bound (total edge traversals).
    fn cost_bound(&self) -> u64;

    /// Instantiates the agent behavior for a label and start node.
    ///
    /// Note that the sweep engine's `AlgorithmExecutor` does **not** call
    /// this method: it compiles via [`RendezvousAlgorithm::schedule`]
    /// (memoized per sweep) and builds the [`ScheduleBehavior`] itself —
    /// so `schedule` is the customization point an implementation must
    /// override; overriding `agent` only affects direct callers.
    ///
    /// # Errors
    ///
    /// Propagates [`RendezvousAlgorithm::schedule`] errors.
    fn agent(&self, label: Label, start: NodeId) -> Result<ScheduleBehavior, CoreError> {
        Ok(ScheduleBehavior::new(
            Arc::clone(self.graph()),
            self.schedule(label)?,
            start,
        ))
    }
}
