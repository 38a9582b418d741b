//! Sweep-engine selection: compiled trajectories (the default) or the
//! stepped simulator (the oracle). Pair sweeps run on the delay-batched
//! trajectory solver or step round by round; gathering fleets (x9/x11)
//! are replayed from compiled walks or step `GatheringAgent`s.
//!
//! The two engines share no execution path: each validates a scenario
//! the same way, in the same order, and the compiled engine then solves
//! every scenario that passes, with no fallback to the stepped one. Both
//! produce byte-identical experiment outputs (that is CI-enforced for
//! every experiment) and the same refusals; the choice is purely a throughput
//! knob, surfaced as `experiments --engine {batched,stepped}`. The
//! selection is a field of the process's [`Session`](crate::session::Session);
//! experiment code asks [`current`] and builds its executor with
//! `Engine::executor` ([`crate::common::sweep_worst`], the x5/x6 trim
//! sweeps and the `x10` topology executor) or `Engine::gathering` (the
//! x9 and x11 fleet sweeps), the two places the engines differ. Either
//! pair executor carries the paper bounds it judges against, and each
//! gathering outcome carries its fleet's own, so an executor from either
//! engine is used as is.
//! The engine name is part of every result-store key, so a store written
//! under one engine misses (and recomputes) under the other.

use rendezvous_core::RendezvousAlgorithm;
use rendezvous_runner::{
    AlgorithmExecutor, BatchExecutor, Bounds, GatheringExecutor, PieceExecutor, Runner,
};
use std::sync::Arc;

/// Which executors sweeps run through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Round-by-round simulation ([`rendezvous_runner::AlgorithmExecutor`]
    /// stepping `ScheduleBehavior`s for pairs, [`GatheringExecutor::stepped`]
    /// for fleets) — the semantic reference the batched engine is checked
    /// against. It compiles no trajectory, so a compile bug cannot reach
    /// both engines alike.
    Stepped,
    /// Compiled trajectories: delay-batched solving for pairs
    /// ([`rendezvous_runner::BatchExecutor`], O(T+D) per (labels,
    /// starts) group instead of O(D·T)) and the fleet solver for
    /// gatherings ([`GatheringExecutor::new`]). The default.
    #[default]
    Batched,
}

impl Engine {
    /// Parses a `--engine` argument value.
    #[must_use]
    pub fn parse(name: &str) -> Option<Engine> {
        match name {
            "stepped" => Some(Engine::Stepped),
            "batched" => Some(Engine::Batched),
            _ => None,
        }
    }

    /// The CLI name of the engine.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Engine::Stepped => "stepped",
            Engine::Batched => "batched",
        }
    }

    /// `algorithm`'s piece executor on this engine, judging outcomes
    /// against `bounds`. The runner's telemetry sink, if any, observes
    /// it — plan-cache hit rates and batch classification — without
    /// entering the fold.
    pub(crate) fn executor<'a>(
        self,
        algorithm: &'a dyn RendezvousAlgorithm,
        bounds: Option<Bounds>,
        runner: &Runner,
    ) -> Box<dyn PieceExecutor + 'a> {
        let metrics = runner.metrics();
        match self {
            Engine::Stepped => {
                let mut executor = AlgorithmExecutor::new(algorithm).with_bounds(bounds);
                if let Some(metrics) = metrics {
                    executor = executor.with_metrics(metrics);
                }
                Box::new(executor)
            }
            Engine::Batched => {
                let mut executor = BatchExecutor::new(algorithm).with_bounds(bounds);
                if let Some(metrics) = metrics {
                    executor = executor.with_metrics(metrics);
                }
                Box::new(executor)
            }
        }
    }

    /// The gathering executor of `algorithm` on this engine.
    pub(crate) fn gathering(self, algorithm: Arc<dyn RendezvousAlgorithm>) -> GatheringExecutor {
        match self {
            Engine::Stepped => GatheringExecutor::stepped(algorithm),
            Engine::Batched => GatheringExecutor::new(algorithm),
        }
    }
}

/// The installed session's engine ([`Engine::Batched`] when no session
/// is installed).
#[must_use]
pub fn current() -> Engine {
    crate::session::current().engine
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_roundtrip() {
        assert_eq!(Engine::parse("stepped"), Some(Engine::Stepped));
        assert_eq!(Engine::parse("batched"), Some(Engine::Batched));
        assert_eq!(Engine::parse("turbo"), None);
        assert_eq!(Engine::Stepped.name(), "stepped");
        assert_eq!(Engine::Batched.name(), "batched");
        // Default selection is the batched engine. (Sessions are per
        // thread, so no other test's install reaches this one.)
        assert_eq!(current(), Engine::Batched);
        assert_eq!(Engine::default(), Engine::Batched);
    }
}
