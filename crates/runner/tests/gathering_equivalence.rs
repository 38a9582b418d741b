//! The compiled gathering replay *is* the stepped oracle: for random
//! fleets on rings, trees and Erdős–Rényi graphs, a
//! [`GatheringExecutor::new`] (trajectories replayed by the fleet
//! solver) must report exactly what [`GatheringExecutor::stepped`]
//! (`GatheringAgent`s driven by `run_gathering`) reports — gathering
//! round, cost, merge events — and refuse a bad fleet with the same
//! error at the same index.
//!
//! The generator draws 2 to 6 agents with labels from label spaces of
//! up to 1024, delays long enough for awake agents to walk over
//! sleepers, horizons short enough to end ungathered, and (on some
//! cases) a one-to-three-step walk in place of the family's explorer,
//! so schedules run out and clusters restart. A coverage test checks
//! that the generator really produces each of those situations.

use proptest::prelude::*;
use rendezvous_core::{
    gathering_fleet, Cheap, CoreError, Fast, Label, LabelSpace, RendezvousAlgorithm,
};
use rendezvous_explore::{spec_explorer, BoundedWalkExplorer, Explorer};
use rendezvous_graph::{ErdosRenyiSpec, GraphBuilder, GraphSpec, NodeId, RingSpec, SeededSpec};
use rendezvous_runner::{
    AlgorithmExecutor, Executor, GatheringExecutor, Placement, Runner, Scenario,
};
use rendezvous_sim::gathering::{run_gathering, GatheringOutcome};
use std::sync::Arc;

/// SplitMix64: the stream a case is drawn from.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// `k` distinct values of `0..n`, in draw order.
    fn distinct(&mut self, k: usize, n: u64) -> Vec<u64> {
        let mut picked: Vec<u64> = Vec::with_capacity(k);
        while picked.len() < k {
            let v = self.below(n);
            if !picked.contains(&v) {
                picked.push(v);
            }
        }
        picked
    }
}

/// The longest horizon a drawn fleet gets.
const MAX_ROUNDS: u64 = 3000;

/// One drawn case: an algorithm and fleets on its graph.
struct Case {
    algorithm: Arc<dyn RendezvousAlgorithm>,
    fleets: Vec<Scenario>,
}

/// Draws the case of `seed`.
fn case(seed: u64) -> Case {
    let mut mix = Mix(seed);
    let n = 4 + mix.below(10) as usize;
    let graph_seed = mix.below(1000);
    let spec = match mix.below(3) {
        0 => GraphSpec::Ring(RingSpec { n }),
        1 => GraphSpec::Tree(SeededSpec {
            n,
            seed: graph_seed,
        }),
        _ => GraphSpec::ErdosRenyi(ErdosRenyiSpec {
            n,
            edge_permille: 450,
            seed: graph_seed,
        }),
    };
    let graph = Arc::new(spec.build().expect("seeded specs build"));
    // A walk of one to three port-0 steps explores almost nothing, so
    // schedules run out long before the fleet gathers.
    let explorer: Arc<dyn Explorer> = match mix.below(4) {
        0 => Arc::new(BoundedWalkExplorer::new(1 + mix.below(3) as usize)),
        _ => spec_explorer(&spec, graph.clone()).expect("every family has an explorer"),
    };
    // Cheap's schedules grow linearly in the label, Fast's in its log.
    let fast = mix.below(2) == 0;
    let l = if fast {
        8 + mix.below(1017)
    } else {
        8 + mix.below(57)
    };
    let space = LabelSpace::new(l).expect("l >= 2");
    let algorithm: Arc<dyn RendezvousAlgorithm> = if fast {
        Arc::new(Fast::new(graph.clone(), explorer, space))
    } else {
        Arc::new(Cheap::new(graph.clone(), explorer, space))
    };
    let t = algorithm.time_bound();
    let fleets = (0..3)
        .map(|_| {
            let k = 2 + mix.below(5.min(n as u64 - 1)) as usize;
            // Long delays let awake agents walk over sleepers; the
            // caps keep the oracle's round-by-round runs short.
            let max_delay = match mix.below(3) {
                0 => 0,
                1 => mix.below(2 * n as u64),
                _ => (2 * t).min(MAX_ROUNDS / 4),
            };
            let horizon = match mix.below(3) {
                0 => 1 + mix.below(3 * n as u64),
                1 => t / 2 + 1,
                _ => (2 * (k as u64 - 1) * (t + max_delay)).min(MAX_ROUNDS),
            };
            let labels = mix.distinct(k, l);
            let starts = mix.distinct(k, n as u64);
            let placements = (0..k)
                .map(|i| Placement {
                    label: labels[i] + 1,
                    start: NodeId::new(starts[i] as usize),
                    delay: mix.below(max_delay + 1),
                })
                .collect();
            Scenario::fleet(placements, horizon)
        })
        .collect();
    Case { algorithm, fleets }
}

/// The oracle's full outcome, cluster history included.
fn oracle(algorithm: &Arc<dyn RendezvousAlgorithm>, scenario: &Scenario) -> GatheringOutcome {
    let placements: Vec<(u64, NodeId, u64)> = scenario
        .placements
        .iter()
        .map(|p| (p.label, p.start, p.delay))
        .collect();
    let fleet = gathering_fleet(algorithm, &placements).unwrap();
    run_gathering(algorithm.graph(), fleet, scenario.horizon).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Compiled replay and stepped oracle agree on every drawn fleet:
    /// gathering round, cost, merge events and bound.
    #[test]
    fn compiled_gathering_equals_the_stepped_oracle(seed in 0u64..u64::MAX) {
        let Case { algorithm, fleets } = case(seed);
        let compiled = GatheringExecutor::new(Arc::clone(&algorithm));
        let stepped = GatheringExecutor::stepped(Arc::clone(&algorithm));
        for scenario in &fleets {
            prop_assert_eq!(compiled.run(scenario), stepped.run(scenario), "{:?}", scenario);
        }
    }
}

/// The generator produces the situations the equivalence must cover,
/// and the engines agree on each: fleets that end ungathered, awake
/// agents walking over sleepers (the cluster count drops, then rises
/// again: a merge event with no restart), and two-agent fleets that run
/// past a schedule's end before they meet, so a schedule ran out and
/// restarted.
#[test]
fn the_generator_covers_timeouts_sleepers_and_restarts() {
    let (mut ungathered, mut walked_over, mut restarted) = (0, 0, 0);
    for seed in 0..150 {
        let Case { algorithm, fleets } = case(seed);
        let compiled = GatheringExecutor::new(Arc::clone(&algorithm));
        for scenario in &fleets {
            let out = oracle(&algorithm, scenario);
            let run = compiled.run(scenario).unwrap();
            assert_eq!(run.time, out.gathered.map(|m| m.round), "{scenario:?}");
            assert_eq!(run.cost, out.cost(), "{scenario:?}");
            assert_eq!(run.merges, out.merge_events() as u64, "{scenario:?}");
            ungathered += usize::from(!out.gathered_all());
            let mut lowest = scenario.k();
            walked_over += usize::from(out.cluster_history.iter().any(|&c| {
                let rose = c > lowest;
                lowest = lowest.min(c);
                rose
            }));
            // A pair restarts only when a schedule runs out: an agent
            // still unmet more than its schedule's length after waking
            // has restarted.
            if scenario.is_pair() {
                let ran_out = scenario.placements.iter().any(|p| {
                    let schedule = algorithm.schedule(Label::new(p.label).unwrap()).unwrap();
                    out.rounds_executed > p.delay + 1 + schedule.total_rounds()
                });
                restarted += usize::from(ran_out);
            }
        }
    }
    assert!(ungathered > 0, "no fleet ended ungathered");
    assert!(walked_over > 0, "no awake agent walked over a sleeper");
    assert!(restarted > 0, "no schedule ran out and restarted");
}

/// A fleet scenario of `(label, start, delay)` placements, horizon 100.
fn refused(placements: &[(u64, usize, u64)]) -> Scenario {
    let placements = placements
        .iter()
        .map(|&(label, start, delay)| Placement {
            label,
            start: NodeId::new(start),
            delay,
        })
        .collect();
    Scenario::fleet(placements, 100)
}

/// Both engines refuse a bad fleet with the same error, located at the
/// same index of the batch: equal starts, an out-of-range start, a
/// repeated label, a label outside the space and a disconnected graph.
/// (A one-agent fleet cannot be a `Scenario`; the solver's unit tests
/// check that it refuses one as `run_gathering` does.)
#[test]
fn both_engines_refuse_bad_fleets_alike() {
    let spec = GraphSpec::Ring(RingSpec { n: 8 });
    let graph = Arc::new(spec.build().unwrap());
    let explorer = spec_explorer(&spec, graph.clone()).unwrap();
    let algorithm: Arc<dyn RendezvousAlgorithm> =
        Arc::new(Fast::new(graph, explorer, LabelSpace::new(8).unwrap()));
    let good = refused(&[(1, 0, 0), (2, 4, 3)]);
    let bad = [
        ("equal starts", refused(&[(1, 0, 0), (2, 3, 0), (3, 3, 0)])),
        ("start out of range", refused(&[(1, 0, 0), (2, 8, 0)])),
        (
            "repeated label",
            refused(&[(2, 0, 0), (5, 3, 0), (2, 6, 0)]),
        ),
        ("label outside the space", refused(&[(1, 0, 0), (9, 3, 0)])),
        ("label zero", refused(&[(0, 0, 0), (3, 3, 0)])),
        (
            "label zero later",
            refused(&[(3, 0, 2), (5, 3, 0), (0, 6, 0)]),
        ),
    ];
    let compiled = GatheringExecutor::new(Arc::clone(&algorithm));
    let stepped = GatheringExecutor::stepped(Arc::clone(&algorithm));
    let runner = Runner::sequential();
    for (what, scenario) in bad {
        let batch = [good.clone(), good.clone(), scenario];
        let expected = runner.outcomes(&stepped, &batch).unwrap_err();
        let got = runner.outcomes(&compiled, &batch).unwrap_err();
        assert_eq!(got, expected, "{what}");
        assert_eq!(got.index(), Some(2), "{what}");
    }
    // Label 0 is outside the space, in the same words on both fleet
    // engines and on the pair engine.
    let zero = CoreError::LabelOutOfRange { label: 0, space: 8 }.to_string();
    let pair = [good.clone(), good.clone(), refused(&[(0, 0, 0), (3, 3, 0)])];
    let pair_error = runner
        .outcomes(&AlgorithmExecutor::new(algorithm.as_ref()), &pair)
        .unwrap_err();
    for executor in [&compiled, &stepped] {
        let got = runner.outcomes(executor, &pair).unwrap_err();
        assert!(got.to_string().ends_with(&zero), "{got}");
        assert_eq!(got, pair_error);
    }
    // Repeated labels would otherwise run: the two agents carrying one
    // label never merge on meeting, so the engines could disagree.
    let repeated = runner
        .outcomes(&compiled, &[refused(&[(4, 0, 0), (4, 4, 0)])])
        .unwrap_err();
    assert!(
        repeated.to_string().contains("distinct labels"),
        "{repeated}"
    );

    // Two disjoint triangles: every node has a port 0 to walk, but no
    // fleet across them can gather.
    let mut builder = GraphBuilder::new(6);
    for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
        builder.add_edge(NodeId::new(u), NodeId::new(v)).unwrap();
    }
    let split = Arc::new(builder.build().unwrap());
    let walk: Arc<dyn Explorer> = Arc::new(BoundedWalkExplorer::new(2));
    let algorithm: Arc<dyn RendezvousAlgorithm> =
        Arc::new(Fast::new(split, walk, LabelSpace::new(4).unwrap()));
    let batch = [refused(&[(1, 0, 0), (2, 4, 0)])];
    let expected = runner
        .outcomes(&GatheringExecutor::stepped(Arc::clone(&algorithm)), &batch)
        .unwrap_err();
    let got = runner
        .outcomes(&GatheringExecutor::new(algorithm), &batch)
        .unwrap_err();
    assert_eq!(got, expected);
    assert!(got.to_string().contains("connected"), "{got}");
}
