//! Process-wide sweep-engine selection: the delay-batched trajectory
//! solver (the default) or the stepped simulator (the oracle).
//!
//! Both engines produce byte-identical experiment outputs (that is
//! CI-enforced for every experiment); the choice is purely a throughput
//! knob, surfaced as `experiments --engine {batched,stepped}`. Like the
//! fabric session ([`crate::fabric`]), the selection is a
//! process-global set once by the CLI before any sweep runs — experiment
//! code just asks [`current`] at its executor switch points
//! ([`crate::common::sweep_worst`] and the `x10` per-piece executor).
//! The engine name is part of every result-store key, so a store written
//! under one engine misses (and recomputes) under the other.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which executor pair sweeps run through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Round-by-round simulation ([`rendezvous_runner::AlgorithmExecutor`])
    /// — the semantic reference the batched engine is checked against.
    Stepped,
    /// Delay-batched trajectory solving
    /// ([`rendezvous_runner::BatchExecutor`]) — O(T+D) per (labels,
    /// starts) group instead of O(D·T). The default.
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
}

static ENGINE: AtomicU8 = AtomicU8::new(Engine::Batched as u8);

/// Selects the engine for every subsequent sweep in this process.
pub fn set_engine(engine: Engine) {
    ENGINE.store(engine as u8, Ordering::Relaxed);
}

/// The currently selected engine (default [`Engine::Batched`]).
#[must_use]
pub fn current() -> Engine {
    if ENGINE.load(Ordering::Relaxed) == Engine::Stepped as u8 {
        Engine::Stepped
    } else {
        Engine::Batched
    }
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
        // Default selection is the batched engine. (Other tests never
        // touch the global, so this is race-free.)
        assert_eq!(current(), Engine::Batched);
        assert_eq!(Engine::default(), Engine::Batched);
    }
}
