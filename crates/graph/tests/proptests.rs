//! Property tests for the graph substrate: structural invariants hold for
//! every generated graph, and the analysis functions agree with first
//! principles.

use proptest::prelude::*;
use rendezvous_graph::{analysis, generators, EulerCircuit, GraphBuilder, NodeId, Port};

fn arbitrary_connected_graph() -> impl Strategy<Value = rendezvous_graph::PortLabeledGraph> {
    (3usize..24, 0u64..1_000, 0..4u8).prop_map(|(n, seed, family)| {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        match family {
            0 => generators::erdos_renyi_connected(n, 0.3, &mut rng).unwrap(),
            1 => generators::random_tree(n, &mut rng).unwrap(),
            2 => generators::scrambled_ring(n.max(3), &mut rng).unwrap(),
            _ => generators::oriented_ring(n.max(3)).unwrap(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_graphs_satisfy_all_invariants(g in arbitrary_connected_graph()) {
        prop_assert!(g.check_invariants().is_ok());
        prop_assert!(analysis::is_connected(&g));
        // handshake lemma
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    #[test]
    fn traverse_is_an_involution(g in arbitrary_connected_graph()) {
        for v in g.nodes() {
            for p in g.ports(v) {
                let t = g.traverse(v, p).unwrap();
                let back = g.traverse(t.target, t.entry_port).unwrap();
                prop_assert_eq!(back.target, v);
                prop_assert_eq!(back.entry_port, p);
            }
        }
    }

    #[test]
    fn bfs_distances_satisfy_edge_lipschitz(g in arbitrary_connected_graph()) {
        // Neighbouring nodes have distances differing by at most 1.
        let d = analysis::bfs_distances(&g, NodeId::new(0));
        for e in g.edges() {
            let du = d[e.u.index()].unwrap() as i64;
            let dv = d[e.v.index()].unwrap() as i64;
            prop_assert!((du - dv).abs() <= 1);
        }
    }

    #[test]
    fn diameter_bounds(g in arbitrary_connected_graph()) {
        let n = g.node_count();
        let diam = analysis::diameter(&g).unwrap();
        prop_assert!(diam < n);
        // diameter at least eccentricity of node 0 / 1... trivially:
        prop_assert!(diam >= analysis::eccentricity(&g, NodeId::new(0)).unwrap());
    }

    #[test]
    fn euler_circuit_exists_exactly_for_even_degrees(g in arbitrary_connected_graph()) {
        let all_even = g.nodes().all(|v| g.degree(v) % 2 == 0);
        let circuit = EulerCircuit::find(&g, NodeId::new(0));
        prop_assert_eq!(circuit.is_ok(), all_even);
        if let Ok(c) = circuit {
            prop_assert_eq!(c.len(), g.edge_count());
            // circuit closes
            let seq = c.node_sequence(&g);
            prop_assert_eq!(seq.first(), seq.last());
        }
    }

    #[test]
    fn builder_rejects_whatever_breaks_simplicity(
        n in 2usize..10,
        edges in proptest::collection::vec((0usize..10, 0usize..10), 1..30),
    ) {
        // Inserting arbitrary (possibly bad) edges either fails loudly or
        // results in a valid graph — never a silently broken one.
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            let _ = b.add_edge(NodeId::new(u), NodeId::new(v));
        }
        if let Ok(g) = b.build() {
            prop_assert!(g.check_invariants().is_ok());
        }
    }

    #[test]
    fn scrambled_rings_are_rings(n in 3usize..30, seed in 0u64..500) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::scrambled_ring(n, &mut rng).unwrap();
        prop_assert!(g.is_regular());
        prop_assert_eq!(g.max_degree(), 2);
        prop_assert_eq!(g.edge_count(), n);
        prop_assert!(analysis::is_connected(&g));
    }

    /// The `GraphSpec` contract, part 1: `permute_ports` changes only the
    /// port labelling — the degree sequence is preserved node for node,
    /// and the result is a valid port-labelled graph (ports `0..deg(v)`
    /// distinct at every node, traversal an involution).
    #[test]
    fn permute_ports_preserves_degrees_and_port_validity(
        g in arbitrary_connected_graph(),
        seed in 0u64..1_000,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let h = generators::permute_ports(&g, &mut rng).unwrap();
        prop_assert!(h.check_invariants().is_ok(), "port labelling must stay valid");
        prop_assert_eq!(h.node_count(), g.node_count());
        prop_assert_eq!(h.edge_count(), g.edge_count());
        for v in g.nodes() {
            prop_assert_eq!(h.degree(v), g.degree(v), "degree sequence must be preserved");
            // Ports at v are exactly 0..deg(v), each usable.
            for p in 0..h.degree(v) {
                prop_assert!(h.traverse(v, Port::new(p)).is_ok());
            }
            prop_assert!(h.traverse(v, Port::new(h.degree(v))).is_err());
        }
    }

    /// The `GraphSpec` contract, part 2: the seeded random generators are
    /// **byte-deterministic** — the same seed always produces the same
    /// graph (asserted on the Debug rendering, which serializes the full
    /// adjacency-with-ports structure, so equality is byte equality).
    #[test]
    fn seeded_generators_are_byte_deterministic(
        n in 4usize..20,
        seed in 0u64..1_000,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let er_a = generators::erdos_renyi_connected(n, 0.3, &mut StdRng::seed_from_u64(seed)).unwrap();
        let er_b = generators::erdos_renyi_connected(n, 0.3, &mut StdRng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(format!("{er_a:?}").into_bytes(), format!("{er_b:?}").into_bytes());

        let d = 3;
        if n > d && (n * d) % 2 == 0 {
            let rr_a = generators::random_regular_connected(n, d, &mut StdRng::seed_from_u64(seed)).unwrap();
            let rr_b = generators::random_regular_connected(n, d, &mut StdRng::seed_from_u64(seed)).unwrap();
            prop_assert_eq!(format!("{rr_a:?}").into_bytes(), format!("{rr_b:?}").into_bytes());
        }
    }

    /// `GraphSpec` builds are pure: equal specs build equal graphs, and
    /// the JSON round trip preserves the spec exactly — together these
    /// make specs valid cross-process sweep coordinates.
    #[test]
    fn graph_specs_build_deterministically_and_round_trip(
        n in 4usize..16,
        seed in 0u64..1_000,
        kind in 0u8..5,
    ) {
        use rendezvous_graph::{ErdosRenyiSpec, GraphSpec, RegularSpec, SeededSpec};
        let even = if n % 2 == 0 { n } else { n + 1 };
        let spec = match kind {
            0 => GraphSpec::ScrambledRing(SeededSpec { n, seed }),
            1 => GraphSpec::Tree(SeededSpec { n, seed }),
            2 => GraphSpec::ErdosRenyi(ErdosRenyiSpec { n, edge_permille: 300, seed }),
            3 => GraphSpec::Regular(RegularSpec { n: even.max(6), d: 3, seed }),
            _ => GraphSpec::permuted(GraphSpec::ScrambledRing(SeededSpec { n, seed }), seed ^ 0xA5),
        };
        let a = spec.build().unwrap();
        let b = spec.build().unwrap();
        prop_assert_eq!(format!("{a:?}").into_bytes(), format!("{b:?}").into_bytes());
        prop_assert!(analysis::is_connected(&a));
        let text = serde_json::to_string(&spec).unwrap();
        let back: GraphSpec = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(format!("{:?}", back.build().unwrap()), format!("{a:?}"));
    }

    #[test]
    fn port_to_agrees_with_traverse(g in arbitrary_connected_graph()) {
        for v in g.nodes() {
            for u in g.neighbors(v) {
                let p = g.port_to(v, u).unwrap();
                prop_assert_eq!(g.neighbor(v, p).unwrap(), u);
            }
        }
        // non-adjacent pairs yield None
        let n = g.node_count();
        for vi in 0..n {
            let v = NodeId::new(vi);
            for ui in 0..n {
                let u = NodeId::new(ui);
                if u == v { continue; }
                let adjacent = g.neighbors(v).any(|w| w == u);
                prop_assert_eq!(g.port_to(v, u).is_some(), adjacent);
            }
        }
    }
}

#[test]
fn ports_are_exactly_zero_to_degree() {
    let g = generators::complete(6).unwrap();
    for v in g.nodes() {
        let deg = g.degree(v);
        assert!(g.traverse(v, Port::new(deg)).is_err());
        for p in 0..deg {
            assert!(g.traverse(v, Port::new(p)).is_ok());
        }
    }
}

/// Small specs of every variant, degenerate parameters included (`n`
/// of 0 or 1, `d >= n`, `edge_permille > 1000`), under at most one
/// `Permuted` layer.
fn small_spec() -> impl Strategy<Value = rendezvous_graph::GraphSpec> {
    use rendezvous_graph::{
        ErdosRenyiSpec, GraphSpec, RegularSpec, RingSpec, SeededSpec, TorusSpec,
    };
    (
        0u8..6,
        0usize..13,
        0usize..7,
        0u32..1100,
        0u64..1_000,
        0u8..2,
    )
        .prop_map(|(kind, n, k, edge_permille, seed, permute)| {
            let spec = match kind {
                0 => GraphSpec::Ring(RingSpec { n }),
                1 => GraphSpec::ScrambledRing(SeededSpec { n, seed }),
                2 => GraphSpec::Tree(SeededSpec { n, seed }),
                3 => GraphSpec::ErdosRenyi(ErdosRenyiSpec {
                    n,
                    edge_permille,
                    seed,
                }),
                4 => GraphSpec::Regular(RegularSpec { n, d: k, seed }),
                _ => GraphSpec::Torus(TorusSpec { w: k, h: n % 5 }),
            };
            if permute == 1 {
                GraphSpec::permuted(spec, seed)
            } else {
                spec
            }
        })
}

/// Spec JSON as a client might send it: one well-formed value per
/// variant, to be mangled.
const SPEC_TEXTS: &[&str] = &[
    r#"{"Ring":{"n":4}}"#,
    r#"{"Tree":{"n":5,"seed":1}}"#,
    r#"{"ErdosRenyi":{"n":8,"edge_permille":400,"seed":5}}"#,
    r#"{"Regular":{"n":6,"d":3,"seed":2}}"#,
    r#"{"Torus":{"w":3,"h":4}}"#,
    r#"{"Permuted":{"inner":{"ScrambledRing":{"n":5,"seed":3}},"seed":9}}"#,
];

/// Bytes the mangler inserts: JSON syntax, digits, a sign and a
/// non-ASCII character.
const SPEC_ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '0', '1', '9', '-', 'n', ' ', 'é',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Never-panic: building any small spec yields a graph or a typed
    /// error, and a graph it yields is valid and connected.
    #[test]
    fn small_specs_build_or_refuse(spec in small_spec()) {
        if let Ok(g) = spec.build() {
            prop_assert!(g.check_invariants().is_ok());
            prop_assert!(analysis::is_connected(&g));
        }
    }

    /// Never-panic: parsing any string as a spec yields a spec or an
    /// error. The strings are well-formed specs with characters
    /// inserted or removed, then possibly cut short.
    #[test]
    fn arbitrary_strings_parse_as_specs_or_fail(
        template in 0usize..SPEC_TEXTS.len() + 1,
        edits in proptest::collection::vec((0usize..100, 0usize..SPEC_ALPHABET.len() + 1), 0..6),
        cut in 0usize..160,
    ) {
        let mut text: Vec<char> = SPEC_TEXTS.get(template).map_or_else(Vec::new, |t| t.chars().collect());
        for (at, c) in edits {
            let at = at % (text.len() + 1);
            match SPEC_ALPHABET.get(c) {
                Some(&c) => text.insert(at, c),
                None if at < text.len() => {
                    text.remove(at);
                }
                None => {}
            }
        }
        text.truncate(cut);
        let text: String = text.into_iter().collect();
        let _ = serde_json::from_str::<rendezvous_graph::GraphSpec>(&text);
    }
}
