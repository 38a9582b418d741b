//! One fully-specified adversarial configuration and its measured result.

use crate::Bounds;
use rendezvous_graph::NodeId;
use serde::{DeError, Deserialize, Serialize, Value};
use std::hash::{Hash, Hasher};

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

/// The agents of a [`Scenario`], in placement order (`len() ≥ 2`).
///
/// A pair is stored inline, so building, cloning and dropping a
/// two-agent scenario touches no heap; fleets of three or more live in
/// a `Vec`. Either way it reads as a `[Placement]` slice (`Deref`), and
/// equality, hashing and serialization go by that slice: a pair built by
/// [`Scenario::pair`] and one read back from a two-element JSON array are
/// the same value, and both serialize as the same array.
#[derive(Debug, Clone)]
pub struct Placements(Repr);

#[derive(Debug, Clone)]
enum Repr {
    Pair([Placement; 2]),
    Fleet(Vec<Placement>),
}

impl Placements {
    /// The placements of `fleet`, a pair inline; fewer than two are
    /// refused, since rendezvous and gathering need `k ≥ 2`.
    fn from_vec(fleet: Vec<Placement>) -> Result<Placements, String> {
        match fleet[..] {
            [] | [_] => Err(format!(
                "a scenario places at least two agents, got {}",
                fleet.len()
            )),
            [a, b] => Ok(Placements(Repr::Pair([a, b]))),
            _ => Ok(Placements(Repr::Fleet(fleet))),
        }
    }
}

impl std::ops::Deref for Placements {
    type Target = [Placement];

    fn deref(&self) -> &[Placement] {
        match &self.0 {
            Repr::Pair(pair) => pair,
            Repr::Fleet(fleet) => fleet,
        }
    }
}

impl PartialEq for Placements {
    fn eq(&self, other: &Placements) -> bool {
        **self == **other
    }
}

impl Eq for Placements {}

impl Hash for Placements {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl Serialize for Placements {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Deserialize for Placements {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Placements::from_vec(Vec::from_value(value)?).map_err(DeError::custom)
    }
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
/// may be delayed arbitrarily" exactly, as in §1.2 of the paper. A pair
/// holds its two placements inline ([`Placements`]), so the hundreds of
/// thousands of pair scenarios a sweep enumerates allocate nothing.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Scenario {
    /// The fleet, in placement order (`len() ≥ 2`).
    pub placements: Placements,
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
            placements: Placements(Repr::Pair([
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
            ])),
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
        Scenario {
            placements: Placements::from_vec(placements).unwrap_or_else(|msg| panic!("{msg}")),
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
    /// The bounds this execution is judged against, when they depend on
    /// the scenario: a gathering's merge-and-restart time bound
    /// `b = (k−1)·(time bound + max delay)` and cost bound `k·b` vary
    /// with the fleet, so they travel with the outcome. Pair executors
    /// leave `None`, and the piece's [`Bounds`] apply instead.
    pub bounds: Option<Bounds>,
    /// Cluster-merge events observed (gathering runs; 0 for pair
    /// rendezvous, where the single meeting ends the run).
    pub merges: u64,
}

/// What one execution measured: every field of a [`ScenarioOutcome`]
/// but the scenario, as one `Copy` value — what the fold reads, so the
/// batched engine can fold a solve without building an outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Measured {
    pub(crate) time: Option<u64>,
    pub(crate) cost: u64,
    pub(crate) crossings: u64,
    pub(crate) bounds: Option<Bounds>,
    pub(crate) merges: u64,
}

impl Measured {
    /// A pair execution's measurements: no per-scenario bounds, no merge
    /// events.
    pub(crate) fn pairwise(time: Option<u64>, cost: u64, crossings: u64) -> Measured {
        Measured {
            time,
            cost,
            crossings,
            bounds: None,
            merges: 0,
        }
    }
}

impl ScenarioOutcome {
    /// A pair-execution outcome: no per-scenario bounds, no merge events.
    #[must_use]
    pub fn pairwise(scenario: Scenario, time: Option<u64>, cost: u64, crossings: u64) -> Self {
        ScenarioOutcome::from_measured(scenario, Measured::pairwise(time, cost, crossings))
    }

    /// The outcome of `scenario` that measured `m`.
    pub(crate) fn from_measured(scenario: Scenario, m: Measured) -> Self {
        ScenarioOutcome {
            scenario,
            time: m.time,
            cost: m.cost,
            crossings: m.crossings,
            bounds: m.bounds,
            merges: m.merges,
        }
    }

    /// This outcome's measurements, without the scenario.
    pub(crate) fn measured(&self) -> Measured {
        Measured {
            time: self.time,
            cost: self.cost,
            crossings: self.crossings,
            bounds: self.bounds,
            merges: self.merges,
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

    /// Golden bytes: a pair serializes exactly as when placements were a
    /// plain `Vec` (the 3-fleet's golden string is in the test above).
    #[test]
    fn pair_serializes_as_a_two_element_array() {
        let pair = Scenario::pair(3, 7, NodeId::new(1), NodeId::new(4), 5, 100);
        assert_eq!(
            serde_json::to_string(&pair).unwrap(),
            r#"{"placements":[{"label":3,"start":1,"delay":0},{"label":7,"start":4,"delay":5}],"horizon":100}"#
        );
    }

    fn hash_of(s: &Scenario) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    /// However a pair is built — `pair`, a two-placement `fleet`, or read
    /// back from JSON — it is one value, stored inline, with one hash.
    #[test]
    fn every_two_agent_scenario_is_the_inline_pair() {
        let pair = Scenario::pair(3, 7, NodeId::new(1), NodeId::new(4), 5, 100);
        assert!(matches!(pair.placements.0, Repr::Pair(_)));
        let fleet = Scenario::fleet(pair.placements.to_vec(), 100);
        let json = r#"{"placements":[{"label":3,"start":1,"delay":0},{"label":7,"start":4,"delay":5}],"horizon":100}"#;
        let read: Scenario = serde_json::from_str(json).unwrap();
        for same in [&fleet, &read] {
            assert_eq!(*same, pair);
            assert_eq!(hash_of(same), hash_of(&pair));
            assert!(matches!(same.placements.0, Repr::Pair(_)));
        }
        let three = Scenario::fleet(
            (1..=3)
                .map(|i| Placement {
                    label: i,
                    start: NodeId::new(i as usize),
                    delay: 0,
                })
                .collect(),
            100,
        );
        assert!(matches!(three.placements.0, Repr::Fleet(_)));
        assert_ne!(three, pair);
    }

    /// Fewer than two placements is refused on load, as `fleet` refuses
    /// it on construction — not loaded for `second()` to panic on later.
    #[test]
    fn fewer_than_two_placements_do_not_load() {
        for placements in ["[]", r#"[{"label":1,"start":0,"delay":0}]"#] {
            let json = format!(r#"{{"placements":{placements},"horizon":10}}"#);
            let err = serde_json::from_str::<Scenario>(&json).unwrap_err();
            assert!(err.to_string().contains("at least two agents"), "{err}");
        }
    }

    /// A store entry written before pairs were stored inline (schema 1,
    /// checked in verbatim) still loads: its report equals the same sweep
    /// recomputed now, and re-serializes to the same JSON.
    #[test]
    fn a_schema_1_store_entry_loads_and_equals_the_recomputed_report() {
        use crate::Workload;
        use crate::{BatchExecutor, Bounds, Grid, Runner, SweepReport, WorkloadMeta};
        use rendezvous_core::{Cheap, LabelSpace, RendezvousAlgorithm};
        use rendezvous_explore::OrientedRingExplorer;
        use rendezvous_graph::generators;
        use std::sync::Arc;

        let text = include_str!("../testdata/store_entry_v1.json");
        let entry = serde_json::parse(text).unwrap();
        let g = Arc::new(generators::oriented_ring(5).unwrap());
        let ex = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
        let alg = Cheap::new(g.clone(), ex, LabelSpace::new(3).unwrap());
        let grid = Grid::new(4 * alg.time_bound())
            .label_pairs_both_orders(&[(1, 2), (2, 3)])
            .delays(&[0, 1, 4])
            .all_start_pairs(&g);
        let bounds = Some(Bounds {
            time: alg.time_bound(),
            cost: alg.cost_bound(),
        });
        let report = Runner::sequential()
            .sweep(&grid, &BatchExecutor::new(&alg).with_bounds(bounds))
            .unwrap();
        assert_eq!(
            WorkloadMeta::from_value(&entry["meta"]).unwrap(),
            grid.meta()
        );
        assert_eq!(SweepReport::from_value(&entry["report"]).unwrap(), report);
        assert_eq!(report.to_value(), entry["report"]);
    }
}
