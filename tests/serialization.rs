//! Serialization round-trips: graphs (fixtures for experiments) and the
//! experiment row types (JSON / CSV output).

use rendezvous_graph::{generators, PortLabeledGraph};

#[test]
fn every_generator_round_trips_through_json() {
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(1);
    let graphs = vec![
        generators::oriented_ring(7).unwrap(),
        generators::scrambled_ring(7, &mut rng).unwrap(),
        generators::path(5).unwrap(),
        generators::star(4).unwrap(),
        generators::complete(5).unwrap(),
        generators::hypercube(3).unwrap(),
        generators::grid(3, 3).unwrap(),
        generators::torus(3, 4).unwrap(),
        generators::balanced_binary_tree(3).unwrap(),
        generators::random_tree(9, &mut rng).unwrap(),
        generators::erdos_renyi_connected(9, 0.4, &mut rng).unwrap(),
        generators::random_regular_connected(8, 3, &mut rng).unwrap(),
    ];
    for g in graphs {
        let json = serde_json::to_string(&g).unwrap();
        let back: PortLabeledGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
        back.check_invariants().unwrap();
    }
}

#[test]
fn deserialized_graphs_are_revalidated() {
    // Tampered adjacency (broken symmetry) must be caught by the explicit
    // invariant check, the documented pattern for untrusted input.
    let g = generators::oriented_ring(4).unwrap();
    let mut value: serde_json::Value = serde_json::to_value(&g).unwrap();
    // break one half-edge's entry port
    value["adj"][0][0]["entry"] = serde_json::json!(0);
    let tampered: PortLabeledGraph = serde_json::from_value(value).unwrap();
    assert!(tampered.check_invariants().is_err());
}

#[test]
fn experiment_rows_serialize_for_csv_and_json_export() {
    let rows = rendezvous_bench::x3_relabel::run_bounds(&[16], &[2]);
    let json = serde_json::to_string(&rows).unwrap();
    assert!(json.contains("\"time_bound_per_e\""));
    let m = rendezvous_bench::common::Measured { time: 3, cost: 4 };
    assert_eq!(serde_json::to_string(&m).unwrap(), r#"{"time":3,"cost":4}"#);
}

/// Fabric checkpoint records — each a sweep's kind-tagged
/// [`WorkloadMeta`](rendezvous_runner::WorkloadMeta) fingerprint next to
/// a range's fold — must round-trip **byte-identically** through the
/// vendored serde, k-agent fleet witnesses, per-family topology groups
/// and per-scenario ratio bounds included: the property every
/// multi-process sweep of x1–x11 stands on.
#[test]
fn checkpoint_records_round_trip_kind_tagged_payloads_byte_identically() {
    use rendezvous_fabric::CheckpointRecord;
    use rendezvous_graph::{GraphSpec, NodeId, RingSpec};
    use rendezvous_runner::{
        Bounds, Placement, Scenario, ScenarioOutcome, SweepReport, WorkloadKind, WorkloadMeta,
    };

    let fleet = Scenario::fleet(
        (0..4)
            .map(|i| Placement {
                label: 1 + 5 * i,
                start: NodeId::new(3 * i as usize),
                delay: (7 * i) % 13,
            })
            .collect(),
        2_048,
    );
    let mut fleet_report = SweepReport::default();
    fleet_report.absorb(
        "",
        9,
        None,
        &ScenarioOutcome {
            scenario: fleet,
            time: Some(311),
            cost: 640,
            crossings: 0,
            bounds: Some(Bounds {
                time: 900,
                cost: 3_600,
            }),
            merges: 3,
        },
        None,
    );
    let mut topo_report = SweepReport::default();
    topo_report.absorb(
        "ring",
        4,
        Some(&GraphSpec::Ring(RingSpec { n: 7 })),
        &ScenarioOutcome::pairwise(
            Scenario::pair(1, 4, NodeId::new(0), NodeId::new(3), 2, 120),
            Some(11),
            9,
            0,
        ),
        Some(Bounds { time: 60, cost: 18 }),
    );
    let records = vec![
        CheckpointRecord {
            sweep: 0,
            lo: 0,
            hi: 12,
            meta: WorkloadMeta {
                kind: WorkloadKind::Grid,
                digest: 0xabad_cafe,
                full_size: 40,
                size: 12,
            },
            report: fleet_report,
        },
        CheckpointRecord {
            sweep: 1,
            lo: 16,
            hi: 32,
            meta: WorkloadMeta {
                kind: WorkloadKind::Topo,
                digest: 0x0def_aced,
                full_size: 96,
                size: 48,
            },
            report: topo_report,
        },
    ];
    let json = serde_json::to_string_pretty(&records).unwrap();
    let back: Vec<CheckpointRecord> = serde_json::from_str(&json).unwrap();
    assert_eq!(serde_json::to_string_pretty(&back).unwrap(), json);
    // The kind tag is visible in the text…
    assert!(json.contains("\"Grid\"") && json.contains("\"Topo\""));
    assert_eq!(back[1].meta.kind, WorkloadKind::Topo);
    // …and the payloads come back intact.
    let stats = back[0].report.solo();
    let witness = stats.worst_ratio.as_ref().unwrap();
    assert_eq!(witness.scenario.k(), 4);
    assert_eq!(witness.time_bound, Some(900));
    assert_eq!(witness.cost_bound, Some(3_600));
    assert_eq!(stats.merges, 3);
    let ring = back[1].report.group("ring").unwrap().clone();
    let witness = ring.worst_time.as_ref().unwrap();
    assert_eq!(
        witness.spec.as_ref().unwrap().build().unwrap().node_count(),
        7
    );
    assert_eq!(witness.cost_bound, Some(18));
}

/// The vendored serde's tuple impls: `(label, start, delay)` placement
/// triples and `(a, b)` pairs serialize as fixed-length arrays and come
/// back exactly.
#[test]
fn placement_tuples_round_trip_as_arrays() {
    use rendezvous_graph::NodeId;
    let triples: Vec<(u64, NodeId, u64)> = vec![(1, NodeId::new(0), 0), (9, NodeId::new(4), 7)];
    let json = serde_json::to_string(&triples).unwrap();
    assert_eq!(json, "[[1,0,0],[9,4,7]]");
    let back: Vec<(u64, NodeId, u64)> = serde_json::from_str(&json).unwrap();
    assert_eq!(back, triples);
    let pair: (u64, u64) = serde_json::from_str("[3,5]").unwrap();
    assert_eq!(pair, (3, 5));
    // Exact arity: trailing elements must fail, not silently truncate.
    assert!(serde_json::from_str::<(u64, u64)>("[3,5,8]").is_err());
    assert!(serde_json::from_str::<(u64, NodeId, u64)>("[3,5]").is_err());
}
