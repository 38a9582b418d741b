//! The sweep query service, end to end through the real binary: a
//! served report must be byte-identical to a `query --direct` local
//! run, a repeat query must be a cache hit, and damaged or mismatched
//! store entries must come back as *typed refusals* (exit 3), never as
//! wrong bytes.

use proptest::prelude::*;
use rendezvous_bench::serve::{answer, Query, Reply};
use rendezvous_fabric::wire::read_json_frame;
use rendezvous_fabric::WireError;
use rendezvous_graph::{ErdosRenyiSpec, GraphSpec, RegularSpec, RingSpec, SeededSpec, TorusSpec};
use rendezvous_runner::Runner;
use std::io::Cursor;
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const SPEC: &str = r#"{"ErdosRenyi":{"n":8,"edge_permille":400,"seed":5}}"#;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

fn stdout_of(args: &[&str]) -> Vec<u8> {
    let out = experiments(args);
    assert!(
        out.status.success(),
        "experiments {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rendezvous-serve-e2e-{name}-{}",
        std::process::id()
    ))
}

/// A running `experiments serve` child, killed on drop so a failing
/// assertion never leaks the process.
struct Server {
    child: Child,
    addr_file: PathBuf,
}

impl Server {
    fn start(store: &std::path::Path, addr_file: PathBuf) -> Server {
        let _ = std::fs::remove_file(&addr_file);
        let child = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args([
                "serve",
                "--store",
                store.to_str().unwrap(),
                "--addr-file",
                addr_file.to_str().unwrap(),
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("serve spawns");
        Server { child, addr_file }
    }

    /// Polls the address file the server publishes atomically. Bounded
    /// by attempt count (~30 s), not a clock — the determinism linter
    /// keeps `Instant` out of non-bench code, and counting suffices
    /// for a startup race.
    fn wait_ready(&self) -> String {
        for _ in 0..1500 {
            if let Ok(addr) = std::fs::read_to_string(&self.addr_file) {
                return addr.trim().to_string();
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("server never published its address");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.addr_file);
    }
}

#[test]
fn served_reports_match_direct_runs_byte_for_byte() {
    let dir = scratch("roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut server = Server::start(&dir, scratch("roundtrip-addr"));
    let addr = server.wait_ready();

    let grid: Vec<&str> = vec![
        "query", "--addr", &addr, "--grid", "cheap", "--spec", SPEC, "--l", "2", "--cap", "2",
    ];

    // First query computes, second is served from the store; both must
    // print the same bytes as a fully local computation.
    let first = experiments(&grid);
    assert!(
        first.status.success(),
        "first query failed:\n{}",
        String::from_utf8_lossy(&first.stderr)
    );
    assert!(
        String::from_utf8_lossy(&first.stderr).contains("query: computed"),
        "a cold query computes"
    );
    let second = experiments(&grid);
    assert!(second.status.success());
    assert!(
        String::from_utf8_lossy(&second.stderr).contains("query: cached"),
        "a repeat query is a cache hit: {}",
        String::from_utf8_lossy(&second.stderr)
    );
    assert_eq!(first.stdout, second.stdout, "hit and compute must agree");

    let direct = stdout_of(&[
        "query",
        "--direct",
        "--store",
        dir.to_str().unwrap(),
        "--grid",
        "cheap",
        "--spec",
        SPEC,
        "--l",
        "2",
        "--cap",
        "2",
    ]);
    assert_eq!(
        first.stdout, direct,
        "served and direct runs must be byte-identical"
    );

    // The reply's token addresses the same bytes.
    let token = String::from_utf8_lossy(&first.stderr)
        .lines()
        .find_map(|l| l.strip_prefix("query: computed ").map(str::to_string))
        .expect("the client reports the token");
    let by_token = stdout_of(&["query", "--addr", &addr, "--token", &token]);
    assert_eq!(by_token, direct, "token lookup must return the same bytes");

    // Clean shutdown: the server exits 0 on its own.
    stdout_of(&["query", "--addr", &addr, "--shutdown"]);
    let status = server.child.wait().expect("server exits");
    assert!(status.success(), "server exit after shutdown: {status}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn refusals_are_typed_and_never_wrong_bytes() {
    let dir = scratch("refuse");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let server = Server::start(&dir, scratch("refuse-addr"));
    let addr = server.wait_ready();

    let refused = |args: &[&str], needle: &str| {
        let out = experiments(args);
        assert_eq!(
            out.status.code(),
            Some(3),
            "{args:?} must exit 3:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(out.stdout.is_empty(), "a refusal must print no report");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "want {needle:?} in {stderr:?}");
    };

    refused(
        &["query", "--addr", &addr, "--token", "no-such-entry"],
        "not cached",
    );
    refused(
        &[
            "query", "--addr", &addr, "--grid", "slow", "--spec", SPEC, "--l", "2", "--cap", "2",
        ],
        "bad query",
    );
    refused(
        &[
            "query",
            "--addr",
            &addr,
            "--grid",
            "cheap",
            "--spec",
            r#"{"Ring":{"n":1}}"#,
            "--l",
            "2",
            "--cap",
            "2",
        ],
        "bad query",
    );

    // Populate one entry, then rewrite its schema header: the token
    // path must refuse with the typed mismatch, not serve the entry.
    let out = experiments(&[
        "query", "--addr", &addr, "--grid", "fast", "--spec", SPEC, "--l", "2", "--cap", "2",
    ]);
    assert!(out.status.success());
    let token = String::from_utf8_lossy(&out.stderr)
        .lines()
        .find_map(|l| l.strip_prefix("query: computed ").map(str::to_string))
        .expect("the client reports the token");
    let path = dir.join(format!("{token}.json"));
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, text.replacen("\"schema\": 1", "\"schema\": 99", 1)).unwrap();
    refused(
        &["query", "--addr", &addr, "--token", &token],
        "schema mismatch",
    );

    stdout_of(&["query", "--addr", &addr, "--shutdown"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `query --direct` validates through the service's own front end: every
/// query the server refuses as bad, the direct path refuses with the
/// same exit code (3) and the same `query refused: bad query: …` line —
/// never a panic.
#[test]
fn direct_and_served_refusals_are_identical() {
    let dir = scratch("refuse-same");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let server = Server::start(&dir, scratch("refuse-same-addr"));
    let addr = server.wait_ready();

    let ring1 = r#"{"Ring":{"n":1}}"#;
    // Builds, but into one node: its grid would be empty. The server
    // used to panic on it and stop answering.
    let tree1 = r#"{"Tree":{"n":1,"seed":1}}"#;
    let er1 = r#"{"ErdosRenyi":{"n":1,"edge_permille":400,"seed":5}}"#;
    let dense = r#"{"ErdosRenyi":{"n":8,"edge_permille":5000,"seed":5}}"#;
    for (algorithm, spec, l, cap) in [
        ("cheap", ring1, "2", "2"),
        ("cheap", tree1, "2", "2"),
        ("fast", er1, "2", "2"),
        ("cheap", dense, "2", "2"),
        ("cheap", SPEC, "0", "2"),
        ("cheap", SPEC, "2", "0"),
        ("slow", SPEC, "2", "2"),
        // Horizons past `u64::MAX`: the bound used to wrap into a short
        // horizon and answer with failures (a debug build panicked).
        ("fast", SPEC, "4611686018427387904", "2"),
        ("cheap", SPEC, "18446744073709551615", "2"),
    ] {
        let grid = ["--grid", algorithm, "--spec", spec, "--l", l, "--cap", cap];
        let served = experiments(&[&["query", "--addr", &addr][..], &grid].concat());
        let direct = experiments(&[&["query", "--direct"][..], &grid].concat());
        for (how, out) in [("served", &served), ("direct", &direct)] {
            assert_eq!(
                out.status.code(),
                Some(3),
                "{how} {grid:?} must be refused:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(out.stdout.is_empty(), "{how} {grid:?} printed a report");
        }
        let text = String::from_utf8_lossy(&direct.stderr);
        assert!(
            text.starts_with("query refused: bad query: "),
            "{grid:?}: {text}"
        );
        assert_eq!(served.stderr, direct.stderr, "{grid:?}");
    }

    // Every refusal left the server answering.
    stdout_of(&[
        "query", "--addr", &addr, "--grid", "cheap", "--spec", SPEC, "--l", "2", "--cap", "2",
    ]);
    stdout_of(&["query", "--addr", &addr, "--shutdown"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Connections are served one at a time, so a client that connects and
/// sends nothing must not stall the service: the server drops it after
/// its read timeout and answers the next client.
#[test]
fn a_silent_connection_does_not_stall_the_next_query() {
    let dir = scratch("silent");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let server = Server::start(&dir, scratch("silent-addr"));
    let addr = server.wait_ready();

    let silent = TcpStream::connect(&addr).expect("connect a silent client");
    let mut query = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["query", "--addr", &addr, "--token", "no-such-entry"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("query spawns");
    // Bounded by attempt count (~5 s), like `wait_ready`.
    let mut status = None;
    for _ in 0..250 {
        status = query.try_wait().expect("query is waitable");
        if status.is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    if status.is_none() {
        let _ = query.kill();
        let _ = query.wait();
    }
    drop(silent);
    let status = status.expect("a query answers within ~5 s while a silent client is connected");
    assert_eq!(
        status.code(),
        Some(3),
        "the token query is refused: not cached"
    );

    stdout_of(&["query", "--addr", &addr, "--shutdown"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bytes a hostile or broken client might send, drawn from JSON syntax,
/// query field names and a non-UTF-8 byte.
const ALPHABET: &[u8] = b"{}[]\":,0123456789 TokentokenGridalgorithmspecRingncapShutdown\\\xff";

/// Whole frames the server accepts as queries, or nearly does.
const TEMPLATES: &[&str] = &[
    r#""Shutdown""#,
    r#"{"Token":{"token":"abc"}}"#,
    r#"{"Token":7}"#,
    r#"{"Grid":{"algorithm":"cheap","spec":{"Ring":{"n":4}},"l":2,"cap":1}}"#,
    r#"{"Grid":{"algorithm":"cheap","spec":{"Ring":{"n":-4}},"l":2,"cap":1}}"#,
];

/// Arbitrary byte streams biased toward the reader's interesting paths:
/// a few frames, each either a template or alphabet bytes under a small
/// declared length (so valid, truncated, malformed and non-UTF-8 frames
/// all occur), then raw noise that may start a frame it never finishes.
fn arbitrary_stream() -> impl Strategy<Value = Vec<u8>> {
    let frame = (
        0..TEMPLATES.len() + 1,
        0u32..48,
        collection::vec(0..ALPHABET.len(), 0..48),
    );
    (
        collection::vec(frame, 0..4),
        collection::vec(0u8..=255, 0..16),
    )
        .prop_map(|(frames, noise)| {
            let mut bytes = Vec::new();
            for (template, len, payload) in frames {
                let payload: Vec<u8> = match TEMPLATES.get(template) {
                    Some(t) => t.as_bytes().to_vec(),
                    None => payload.iter().map(|&i| ALPHABET[i]).collect(),
                };
                let len = if template < TEMPLATES.len() {
                    u32::try_from(payload.len()).unwrap()
                } else {
                    len
                };
                bytes.extend_from_slice(&len.to_be_bytes());
                bytes.extend(payload);
            }
            bytes.extend(noise);
            bytes
        })
}

/// Small specs of every variant, degenerate ones included (`n` of 0 or
/// 1, `d >= n`, `edge_permille > 1000`), under at most one `Permuted`
/// layer.
fn small_spec() -> impl Strategy<Value = GraphSpec> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Never-panic: every small `Grid` query gets a reply — a report
    /// for a graph two agents can be placed on, a `BadQuery` otherwise.
    #[test]
    fn small_grid_queries_always_get_a_reply(
        fast in 0u8..2,
        spec in small_spec(),
        l in 0u64..7,
        cap in 0usize..5,
    ) {
        let two_nodes = spec.build().is_ok_and(|g| g.node_count() >= 2);
        let query = Query::Grid {
            algorithm: if fast == 1 { "fast" } else { "cheap" }.to_string(),
            spec,
            l,
            cap,
        };
        match answer(query, &Runner::sequential()) {
            Reply::Report { report, .. } => {
                prop_assert!(two_nodes && l >= 2 && cap >= 1);
                prop_assert!(report.executed() > 0);
            }
            Reply::BadQuery { .. } => prop_assert!(!two_nodes || l < 2 || cap == 0),
            other => prop_assert!(false, "unexpected reply {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Never-panic: reading queries from any byte stream ends in a clean
    /// close or a typed error — never a panic, and never an I/O error
    /// from an in-memory stream.
    #[test]
    fn arbitrary_byte_streams_never_panic_the_query_reader(bytes in arbitrary_stream()) {
        let mut cursor = Cursor::new(bytes);
        // Every frame read consumes its 4-byte prefix, so this ends.
        loop {
            match read_json_frame::<_, Query>(&mut cursor, "a query") {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    prop_assert!(!matches!(e, WireError::Io(_)), "{e}");
                    break;
                }
            }
        }
    }
}
