//! Error type for the lower-bound machinery.

use rendezvous_core::CoreError;
use rendezvous_runner::RunnerError;
use rendezvous_sim::SimError;
use std::error::Error;
use std::fmt;

/// Errors raised by the §3 analysis pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LowerBoundError {
    /// The lower bounds are proven on oriented rings; other graphs are
    /// rejected.
    NotAnOrientedRing {
        /// Why the validation failed.
        reason: String,
    },
    /// Theorem 3.2's sector construction needs `n` divisible by 6.
    RingNotDivisibleBySix {
        /// The ring size.
        n: usize,
    },
    /// An execution failed to meet within the provided horizon — either
    /// the algorithm is incorrect or the horizon too small; both are fatal
    /// for the analysis.
    NoMeeting {
        /// The two labels.
        labels: (u64, u64),
        /// The two start nodes.
        starts: (usize, usize),
        /// The horizon that was exhausted.
        horizon: u64,
    },
    /// Fact 3.5 was violated: in some execution neither or both agents
    /// were eager. Indicates the algorithm breaks the theorem's premise
    /// (its cost is not `E + o(E)`), reported rather than panicking so
    /// that experiments can show *why* the bound does not apply.
    EagerDichotomyViolated {
        /// The two labels.
        labels: (u64, u64),
    },
    /// An algorithm-level failure (bad label etc.).
    Algorithm(CoreError),
    /// A simulation-level failure.
    Simulation(SimError),
    /// A failure of the sweep that ran the executions.
    Sweep(RunnerError),
}

impl fmt::Display for LowerBoundError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerBoundError::NotAnOrientedRing { reason } => {
                write!(f, "lower bounds require an oriented ring: {reason}")
            }
            LowerBoundError::RingNotDivisibleBySix { n } => {
                write!(f, "sector analysis requires 6 | n, got n = {n}")
            }
            LowerBoundError::NoMeeting {
                labels,
                starts,
                horizon,
            } => write!(
                f,
                "agents ℓ{} and ℓ{} starting at v{} and v{} did not meet within {horizon} rounds",
                labels.0, labels.1, starts.0, starts.1
            ),
            LowerBoundError::EagerDichotomyViolated { labels } => write!(
                f,
                "eager dichotomy (Fact 3.5) violated for labels ℓ{} and ℓ{}",
                labels.0, labels.1
            ),
            LowerBoundError::Algorithm(e) => write!(f, "algorithm error: {e}"),
            LowerBoundError::Simulation(e) => write!(f, "simulation error: {e}"),
            LowerBoundError::Sweep(e) => write!(f, "sweep error: {e}"),
        }
    }
}

impl Error for LowerBoundError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LowerBoundError::Algorithm(e) => Some(e),
            LowerBoundError::Simulation(e) => Some(e),
            LowerBoundError::Sweep(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for LowerBoundError {
    fn from(e: CoreError) -> Self {
        LowerBoundError::Algorithm(e)
    }
}

impl From<SimError> for LowerBoundError {
    fn from(e: SimError) -> Self {
        LowerBoundError::Simulation(e)
    }
}

impl From<RunnerError> for LowerBoundError {
    fn from(e: RunnerError) -> Self {
        LowerBoundError::Sweep(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_parameters() {
        let e = LowerBoundError::NoMeeting {
            labels: (1, 2),
            starts: (0, 3),
            horizon: 99,
        };
        let s = e.to_string();
        assert!(s.contains("ℓ1") && s.contains("v3") && s.contains("99"));
    }
}
