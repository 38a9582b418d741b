//! One fully-specified adversarial configuration and its measured result.

use rendezvous_graph::NodeId;
use serde::{Deserialize, Serialize};

/// One agent's slot in a [`Scenario`]: everything the adversary chooses
/// about a single fleet member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Placement {
    /// The agent's label.
    pub label: u64,
    /// The agent's start node (distinct from every other placement's).
    pub start: NodeId,
    /// Rounds the adversary keeps this agent asleep.
    pub delay: u64,
}

/// A complete `k ≥ 2`-agent configuration: everything the adversary
/// chooses, plus the round budget the harness allows.
///
/// The paper analyses two agents and names gathering of `k ≥ 2` agents as
/// the natural generalization (§1.4); a `Scenario` is the list of agent
/// [`Placement`]s (label, start node, wake-up delay). The two-agent case
/// is built by [`Scenario::pair`]: the first agent wakes in round 1 and
/// the adversary's wake-up power is expressed by the second placement's
/// delay *combined with* enumerating both label role orders in the
/// [`Grid`](crate::Grid) — that pair of choices realizes "either agent
/// may be delayed arbitrarily" exactly, as in §1.2 of the paper.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Scenario {
    /// The fleet, in placement order (`len() ≥ 2`).
    pub placements: Vec<Placement>,
    /// Maximum number of rounds to simulate.
    pub horizon: u64,
}

impl Scenario {
    /// The classic two-agent configuration: an undelayed first agent and
    /// a possibly delayed second one — a lossless adapter from the old
    /// pairwise call sites onto the fleet model.
    #[must_use]
    pub fn pair(
        first_label: u64,
        second_label: u64,
        start_a: NodeId,
        start_b: NodeId,
        delay: u64,
        horizon: u64,
    ) -> Scenario {
        Scenario {
            placements: vec![
                Placement {
                    label: first_label,
                    start: start_a,
                    delay: 0,
                },
                Placement {
                    label: second_label,
                    start: start_b,
                    delay,
                },
            ],
            horizon,
        }
    }

    /// A `k`-agent fleet configuration.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two placements are given — rendezvous and
    /// gathering are both defined for `k ≥ 2` only.
    #[must_use]
    pub fn fleet(placements: Vec<Placement>, horizon: u64) -> Scenario {
        assert!(
            placements.len() >= 2,
            "a scenario places at least two agents, got {}",
            placements.len()
        );
        Scenario {
            placements,
            horizon,
        }
    }

    /// Fleet size `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.placements.len()
    }

    /// Returns `true` for the classic two-agent configuration.
    #[must_use]
    pub fn is_pair(&self) -> bool {
        self.placements.len() == 2
    }

    /// The first (in the pair case: undelayed) agent's placement.
    #[must_use]
    pub fn first(&self) -> &Placement {
        &self.placements[0]
    }

    /// The second agent's placement.
    #[must_use]
    pub fn second(&self) -> &Placement {
        &self.placements[1]
    }

    /// Label of the first agent — pairwise ergonomics preserved.
    #[must_use]
    pub fn first_label(&self) -> u64 {
        self.first().label
    }

    /// Label of the second agent.
    #[must_use]
    pub fn second_label(&self) -> u64 {
        self.second().label
    }

    /// Start node of the first agent.
    #[must_use]
    pub fn start_a(&self) -> NodeId {
        self.first().start
    }

    /// Start node of the second agent.
    #[must_use]
    pub fn start_b(&self) -> NodeId {
        self.second().start
    }

    /// Wake-up delay of the second agent (the pair adversary's knob).
    #[must_use]
    pub fn delay(&self) -> u64 {
        self.second().delay
    }

    /// The largest wake-up delay anywhere in the fleet — the `d` of the
    /// merge-and-restart bound `(k−1)·(time bound + d)`.
    #[must_use]
    pub fn max_delay(&self) -> u64 {
        self.placements.iter().map(|p| p.delay).max().unwrap_or(0)
    }
}

/// The measured result of executing one [`Scenario`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// The configuration that produced this outcome.
    pub scenario: Scenario,
    /// Rounds until the agents met (pair: paper time from the earlier
    /// agent's start; fleet: global round at which all `k` agents first
    /// shared a node); `None` if they did not within the horizon.
    pub time: Option<u64>,
    /// Total edge traversals until the meeting (or horizon).
    pub cost: u64,
    /// Edge crossings observed (never meetings, by the model). Pair
    /// executions only; gathering runs report 0.
    pub crossings: u64,
    /// The per-scenario analytic time bound this execution is checked
    /// against, when the executor computes one. Gathering's
    /// merge-and-restart bound `(k−1)·(time bound + max delay)` varies
    /// with the fleet size and delays, so it travels with the outcome;
    /// pair executors leave `None` and the sweep-level
    /// [`Bounds`](crate::Bounds) apply instead.
    pub time_bound: Option<u64>,
    /// Cluster-merge events observed (gathering runs; 0 for pair
    /// rendezvous, where the single meeting ends the run).
    pub merges: u64,
}

impl ScenarioOutcome {
    /// A pair-execution outcome: no per-scenario bound, no merge events.
    #[must_use]
    pub fn pairwise(scenario: Scenario, time: Option<u64>, cost: u64, crossings: u64) -> Self {
        ScenarioOutcome {
            scenario,
            time,
            cost,
            crossings,
            time_bound: None,
            merges: 0,
        }
    }

    /// Returns `true` if the agents met (gathered) within the horizon.
    #[must_use]
    pub fn met(&self) -> bool {
        self.time.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_constructor_is_a_lossless_adapter() {
        let s = Scenario::pair(3, 7, NodeId::new(1), NodeId::new(4), 5, 100);
        assert_eq!(s.k(), 2);
        assert!(s.is_pair());
        assert_eq!(s.first_label(), 3);
        assert_eq!(s.second_label(), 7);
        assert_eq!(s.start_a(), NodeId::new(1));
        assert_eq!(s.start_b(), NodeId::new(4));
        assert_eq!(s.delay(), 5);
        assert_eq!(s.max_delay(), 5);
        assert_eq!(s.first().delay, 0, "first agent always wakes in round 1");
        assert_eq!(s.horizon, 100);
    }

    #[test]
    fn fleet_constructor_accepts_arbitrary_k() {
        let placements: Vec<Placement> = (0..5)
            .map(|i| Placement {
                label: i + 1,
                start: NodeId::new(i as usize * 2),
                delay: (7 * i) % 13,
            })
            .collect();
        let s = Scenario::fleet(placements, 500);
        assert_eq!(s.k(), 5);
        assert!(!s.is_pair());
        // Delays are (7·i) mod 13 = [0, 7, 1, 8, 2]; the max is 8.
        assert_eq!(s.max_delay(), 8);
        assert_eq!(s.first().label, 1);
    }

    #[test]
    #[should_panic(expected = "at least two agents")]
    fn fleet_rejects_single_agents() {
        let _ = Scenario::fleet(
            vec![Placement {
                label: 1,
                start: NodeId::new(0),
                delay: 0,
            }],
            10,
        );
    }

    /// The serialized shape of a k-agent scenario: `placements` is an
    /// array of `{label, start, delay}` objects and the round trip is
    /// **byte-identical** — what the fabric pipeline relies on.
    #[test]
    fn k_agent_scenario_serde_round_trips_byte_identically() {
        let s = Scenario::fleet(
            vec![
                Placement {
                    label: 1,
                    start: NodeId::new(0),
                    delay: 0,
                },
                Placement {
                    label: 9,
                    start: NodeId::new(4),
                    delay: 7,
                },
                Placement {
                    label: 17,
                    start: NodeId::new(8),
                    delay: 1,
                },
            ],
            4_000,
        );
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(
            json,
            r#"{"placements":[{"label":1,"start":0,"delay":0},{"label":9,"start":4,"delay":7},{"label":17,"start":8,"delay":1}],"horizon":4000}"#
        );
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
