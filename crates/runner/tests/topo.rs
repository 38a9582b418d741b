//! Topology-sweep determinism: merging the range sweeps of a [`TopoGrid`]
//! workload must reproduce the whole sweep **byte for byte** —
//! per-family groups, witnesses and their global indices included — for
//! every split, surviving a JSON round trip (the range→merge path
//! crosses a process boundary as text).

use proptest::prelude::*;
use rendezvous_core::{Cheap, Fast, LabelSpace, RendezvousAlgorithm};
use rendezvous_explore::spec_explorer;
use rendezvous_graph::{GraphSpec, RingSpec, SeededSpec, TorusSpec};
use rendezvous_runner::{
    AlgorithmExecutor, Bounds, Grid, PieceExecutor, Runner, RunnerError, ScenarioOutcome,
    SweepReport, TopoGrid, WorkPiece, Workload,
};

/// Per-piece executor used by the real `x10_topologies` experiment shape:
/// resolve the spec's explorer, build the algorithm on the piece's cached
/// graph, sweep through the shared engine.
struct AlgoTopo {
    l: u64,
    fast: bool,
}

impl PieceExecutor for AlgoTopo {
    fn run_piece(
        &self,
        runner: &Runner,
        piece: &WorkPiece<'_>,
    ) -> Result<(Vec<ScenarioOutcome>, Option<Bounds>), RunnerError> {
        let entry = piece.entry.expect("topology pieces carry their entry");
        let explorer = spec_explorer(&entry.spec, entry.graph.clone())
            .map_err(|e| RunnerError::new(e.to_string()))?;
        let space = LabelSpace::new(self.l).expect("l >= 2");
        let alg: Box<dyn RendezvousAlgorithm> = if self.fast {
            Box::new(Fast::new(entry.graph.clone(), explorer, space))
        } else {
            Box::new(Cheap::new(entry.graph.clone(), explorer, space))
        };
        let bounds = Bounds {
            time: alg.time_bound(),
            cost: alg.cost_bound(),
        };
        let outcomes = runner.outcomes(&AlgorithmExecutor::new(alg.as_ref()), &piece.scenarios)?;
        Ok((outcomes, Some(bounds)))
    }
}

fn spec_list(seed: u64) -> Vec<GraphSpec> {
    vec![
        GraphSpec::Ring(RingSpec { n: 5 }),
        GraphSpec::ScrambledRing(SeededSpec { n: 5, seed }),
        GraphSpec::Tree(SeededSpec {
            n: 6,
            seed: seed + 1,
        }),
        GraphSpec::Tree(SeededSpec {
            n: 6,
            seed: seed + 2,
        }),
        GraphSpec::permuted(GraphSpec::Torus(TorusSpec { w: 3, h: 3 }), seed + 3),
        GraphSpec::permuted(GraphSpec::Ring(RingSpec { n: 6 }), seed + 4),
    ]
}

fn build_topo(seed: u64, l: u64, cap: usize) -> TopoGrid {
    // The horizon mirrors the experiment: generous enough for both
    // algorithms on any of these graphs (E <= 2n - 3 <= 9, L <= l).
    let horizon = 40 * (2 * l + 1);
    TopoGrid::build(spec_list(seed), |_, g| {
        Grid::new(horizon)
            .label_pairs_both_orders(&[(1, l), (l / 2, l / 2 + 1)])
            .delays(&[0, 3])
            .all_start_pairs(g)
            .sample_cap(cap)
    })
    .expect("all specs build")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every m ∈ {2, 3, 7}: sweep each of the ≤ m topo lease ranges
    /// independently, JSON-round-trip the per-range reports, merge in
    /// order and in reverse — both must equal the whole sweep exactly,
    /// and the merged JSON must be **byte-identical** to the direct
    /// sweep's.
    #[test]
    fn merging_topo_ranges_equals_the_whole_sweep(
        seed in 0u64..500,
        l in 2u64..6,
        cap in 5usize..30,
        fast in 0u8..2,
    ) {
        let topo = build_topo(seed, l, cap);
        let exec = AlgoTopo { l, fast: fast == 1 };
        let reference = Runner::sequential().sweep(&topo, &exec).expect("sweep");
        prop_assert_eq!(reference.executed(), topo.size());
        prop_assert!(reference.clean(), "paper bounds must hold on every sampled topology");

        let reference_json = serde_json::to_string(&reference).expect("serializable");
        for m in [2usize, 3, 7] {
            let mut merged = SweepReport::default();
            let mut reversed = SweepReport::default();
            let range_reports: Vec<SweepReport> = topo
                .lease_ranges(topo.size().div_ceil(m).max(1))
                .into_iter()
                .map(|(lo, hi)| {
                    let report = Runner::sequential()
                        .sweep_range(&topo, lo, hi, &exec)
                        .expect("range sweep");
                    // Cross the "process boundary".
                    let json = serde_json::to_string(&report).expect("serializable");
                    serde_json::from_str(&json).expect("round trip")
                })
                .collect();
            for report in &range_reports {
                merged = merged.merge(report);
            }
            for report in range_reports.iter().rev() {
                reversed = reversed.merge(report);
            }
            prop_assert_eq!(&merged, &reference, "m = {}", m);
            prop_assert_eq!(&reversed, &reference, "m = {} (reverse merge)", m);
            prop_assert_eq!(
                serde_json::to_string(&merged).expect("serializable"),
                reference_json.clone(),
                "merged JSON must be byte-identical (m = {})", m
            );
        }
    }
}

/// The cached graph contract: every piece of any split refers back to
/// the same entry — and hence the same `Arc` allocation — not a rebuilt
/// clone.
#[test]
fn entries_share_one_graph_allocation_per_spec() {
    let topo = build_topo(7, 3, 10);
    for entry in topo.entries() {
        let again = entry.spec.build().unwrap();
        assert_eq!(*entry.graph, again, "spec determinism");
        for chunk in [topo.size().div_ceil(2), topo.size().div_ceil(5)] {
            for (lo, hi) in topo.lease_ranges(chunk) {
                for piece in topo.pieces(lo, hi) {
                    let e = piece.entry.expect("topology pieces carry their entry");
                    if e.spec_index == entry.spec_index {
                        assert!(std::sync::Arc::ptr_eq(&e.graph, &entry.graph));
                    }
                }
            }
        }
    }
}
