//! The `serve-mixed` workload: closed-loop sessions of `serve::ask`
//! queries, one client, against `experiments serve` on a store seeded in
//! set-up. A session's script is a pure function of the seed and the
//! session index.

use crate::sys::{peak_rss_kb, wait_for_file, Reaped, WorkDir};
use crate::trace::Tracer;
use rendezvous_bench::serve::{ask, Query, Reply};
use rendezvous_bench::x10_topologies::{build_topo_grid, serve_context, sweep_single_spec};
use rendezvous_graph::{ErdosRenyiSpec, GraphSpec, RegularSpec, RingSpec, SeededSpec, TorusSpec};
use rendezvous_runner::{Runner, SweepReport, Workload, WorkloadMeta};
use rendezvous_store::{Store, StoreKey};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

// The mix keeps every class between 5% and 50% of session time whether
// the machine is quiet or busy: the ring query's share grows as the
// machine gets quieter.

/// Token lookups per session.
const TOKENS: usize = 300;
/// Cached grid queries on small specs per session.
const SMALL: usize = 192;
/// Cached grid queries on the ring per session.
const RING: usize = 1;
/// Grid queries on fresh specs per session; each misses and computes.
const MISSES: usize = 4;

/// Small specs seeded into the store.
const SMALL_SPECS: usize = 6;
/// Nodes of the seeded ring; every query on it builds its n(n−1) start
/// pairs.
const RING_NODES: usize = 1000;
/// Shape of a miss query: a scrambled ring this large, swept this hard.
const MISS_NODES: usize = 48;
const MISS_L: u64 = 8;
const MISS_CAP: usize = 1600;

/// How long the server may take to publish its address or to exit.
const SERVER_DEADLINE: Duration = Duration::from_secs(20);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Token,
    GridSmall,
    GridRing,
    GridMiss,
}

impl Class {
    pub const ALL: [Class; 4] = [
        Class::Token,
        Class::GridSmall,
        Class::GridRing,
        Class::GridMiss,
    ];

    /// The span (and metric stem) of one round trip of this class.
    pub fn span(self) -> &'static str {
        match self {
            Class::Token => "serve.token",
            Class::GridSmall => "serve.grid_hit_small",
            Class::GridRing => "serve.grid_hit_ring",
            Class::GridMiss => "serve.grid_miss",
        }
    }
}

/// One grid query's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GridQuery {
    pub algorithm: &'static str,
    pub spec: GraphSpec,
    pub l: u64,
    pub cap: usize,
}

impl GridQuery {
    fn query(&self) -> Query {
        Query::Grid {
            algorithm: self.algorithm.to_string(),
            spec: self.spec.clone(),
            l: self.l,
            cap: self.cap,
        }
    }

    /// The direct answer: the same computation `query --direct` runs.
    pub fn direct(&self) -> SweepReport {
        sweep_single_spec(
            self.algorithm,
            self.spec.clone(),
            self.l,
            self.cap,
            &Runner::sequential(),
        )
        .expect("cheap or fast")
    }
}

/// One step of a session script. `Token`, `Small` and `Ring` index the
/// catalog's entries; a miss carries its own fresh query.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    Token(usize),
    Small(usize),
    Ring(usize),
    Miss(GridQuery),
}

impl Step {
    pub fn class(&self) -> Class {
        match self {
            Step::Token(_) => Class::Token,
            Step::Small(_) => Class::GridSmall,
            Step::Ring(_) => Class::GridRing,
            Step::Miss(_) => Class::GridMiss,
        }
    }
}

/// SplitMix64: a small, fixed generator, so scripts never depend on a
/// library's stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The entries a run seeds into its store: small specs first, then the
/// ring queries. Token steps index this whole list.
pub struct Catalog {
    pub entries: Vec<GridQuery>,
}

pub fn catalog(seed: u64) -> Catalog {
    let mut rng = Rng::new(seed ^ 0xca7a_106e);
    let mut entries = Vec::new();
    for i in 0..SMALL_SPECS {
        let s = rng.next() % 1_000_000;
        let n = 9 + rng.below(4);
        let spec = match i % 6 {
            0 => GraphSpec::ScrambledRing(SeededSpec { n, seed: s }),
            1 => GraphSpec::Tree(SeededSpec { n, seed: s }),
            2 => GraphSpec::ErdosRenyi(ErdosRenyiSpec {
                n,
                edge_permille: 400,
                seed: s,
            }),
            3 => GraphSpec::Regular(RegularSpec {
                n: 10,
                d: 3,
                seed: s,
            }),
            4 => GraphSpec::permuted(GraphSpec::Ring(RingSpec { n }), s),
            _ => GraphSpec::permuted(GraphSpec::Torus(TorusSpec { w: 3, h: 4 }), s),
        };
        entries.push(GridQuery {
            algorithm: if i % 2 == 0 { "cheap" } else { "fast" },
            spec,
            l: 6,
            cap: 24,
        });
    }
    for algorithm in ["cheap", "fast"] {
        entries.push(GridQuery {
            algorithm,
            spec: GraphSpec::Ring(RingSpec { n: RING_NODES }),
            l: 4,
            cap: 4,
        });
    }
    Catalog { entries }
}

/// Session `session`'s script: a fixed mix of the four classes in a
/// seeded order. Miss specs are distinct for every session of a run, so
/// each one misses a store that started as the seeded copy.
pub fn script(seed: u64, session: u64, catalog: &Catalog) -> Vec<Step> {
    let mut rng = Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ session);
    let mut steps = Vec::new();
    for _ in 0..TOKENS {
        steps.push(Step::Token(rng.below(catalog.entries.len())));
    }
    for _ in 0..SMALL {
        steps.push(Step::Small(rng.below(SMALL_SPECS)));
    }
    for _ in 0..RING {
        let rings = catalog.entries.len() - SMALL_SPECS;
        steps.push(Step::Ring(SMALL_SPECS + rng.below(rings)));
    }
    let base = (seed % 1_000_000) << 24;
    for j in 0..MISSES {
        steps.push(Step::Miss(GridQuery {
            algorithm: if j % 2 == 0 { "cheap" } else { "fast" },
            spec: GraphSpec::ScrambledRing(SeededSpec {
                n: MISS_NODES,
                seed: base + session * MISSES as u64 + j as u64,
            }),
            l: MISS_L,
            cap: MISS_CAP,
        }));
    }
    for i in (1..steps.len()).rev() {
        steps.swap(i, rng.below(i + 1));
    }
    steps
}

/// One catalog entry as seeded into a store.
pub struct SeededEntry {
    pub key: StoreKey,
    pub context: &'static str,
    pub meta: WorkloadMeta,
    pub report: SweepReport,
}

/// Computes every catalog entry directly and saves it under the key the
/// server derives for the same query: the entry's context, its
/// `build_topo_grid` fingerprint and the current engine.
pub fn seed_store(store: &Store, catalog: &Catalog) -> Result<Vec<SeededEntry>, String> {
    let engine = rendezvous_bench::engine::current().name();
    let mut seeded = Vec::new();
    for q in &catalog.entries {
        let report = q.direct();
        let (topo, _) = build_topo_grid(vec![q.spec.clone()], q.l, q.cap);
        let context = serve_context(q.algorithm).expect("cheap or fast");
        let meta = topo.meta();
        let key = StoreKey::new(context, &meta, engine);
        store
            .save(&key, context, engine, &meta, &report)
            .map_err(|e| e.to_string())?;
        seeded.push(SeededEntry {
            key,
            context,
            meta,
            report,
        });
    }
    Ok(seeded)
}

/// What a seeded entry must be served as.
struct Seeded {
    token: String,
    report: String,
}

/// A running server on a freshly seeded store.
pub struct Fixture {
    server: Reaped,
    addr: String,
    seeded: Vec<Seeded>,
    _dir: WorkDir,
}

fn to_json(report: &SweepReport) -> String {
    serde_json::to_string(report).expect("serializable report")
}

impl Fixture {
    /// Seeds a fresh store with every catalog entry (computed directly,
    /// saved under the key the server derives), then starts
    /// `experiments serve` on it and waits for its address.
    pub fn start(exe: &Path, catalog: &Catalog) -> Result<Fixture, String> {
        let dir = WorkDir::create("serve")?;
        let store_dir = dir.path().join("store");
        let store = Store::open(&store_dir).map_err(|e| e.to_string())?;
        let seeded = seed_store(&store, catalog)?
            .into_iter()
            .map(|e| Seeded {
                token: e.key.token().to_string(),
                report: to_json(&e.report),
            })
            .collect();
        let addr_file = dir.path().join("addr");
        let server = Reaped::spawn(
            Command::new(exe)
                .arg("serve")
                .arg("--store")
                .arg(&store_dir)
                .arg("--addr-file")
                .arg(&addr_file)
                .arg("--sequential")
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null()),
        )?;
        let addr = wait_for_file(&addr_file, SERVER_DEADLINE)?;
        Ok(Fixture {
            server,
            addr,
            seeded,
            _dir: dir,
        })
    }

    pub fn server_peak_rss_kb(&self) -> Option<u64> {
        peak_rss_kb(self.server.id())
    }

    /// Asks the server to shut down and reaps it; the work directory is
    /// removed when `self` drops, on every path.
    pub fn stop(self) -> Result<(), String> {
        let bye = ask(&self.addr, &Query::Shutdown);
        let status = self.server.wait_within(SERVER_DEADLINE)?;
        match bye {
            Ok(Reply::Bye) if status.success() => Ok(()),
            Ok(_) => Err(format!("server did not shut down cleanly ({status})")),
            Err(e) => Err(e),
        }
    }

    /// Runs one session: every query of `steps` in order, each sent only
    /// after the previous reply arrived. Timing covers the round trips
    /// alone; replies are checked afterwards against the seeded entries
    /// and `misses` (the direct answers of the script's miss steps, in
    /// order). With a tracer, each round trip is a `serve.<class>` span.
    pub fn session(
        &self,
        catalog: &Catalog,
        steps: &[Step],
        misses: &[String],
        mut tracer: Option<&mut Tracer>,
    ) -> Session {
        let queries: Vec<Query> = steps
            .iter()
            .map(|s| match s {
                Step::Token(i) => Query::Token {
                    token: self.seeded[*i].token.clone(),
                },
                Step::Small(i) | Step::Ring(i) => catalog.entries[*i].query(),
                Step::Miss(q) => q.query(),
            })
            .collect();
        let mut replies = Vec::with_capacity(queries.len());
        let start = Instant::now();
        for (step, q) in steps.iter().zip(&queries) {
            replies.push(match tracer.as_deref_mut() {
                Some(t) => t.span(step.class().span(), |_| ask(&self.addr, q)),
                None => ask(&self.addr, q),
            });
        }
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let mut misses = misses.iter();
        let mut failed = 0;
        let mut cached_grid = 0;
        for (step, reply) in steps.iter().zip(replies) {
            let (want_cached, want_token, want_report) = match step {
                Step::Token(i) | Step::Small(i) | Step::Ring(i) => {
                    (true, Some(&self.seeded[*i].token), &self.seeded[*i].report)
                }
                Step::Miss(_) => (false, None, misses.next().expect("one answer per miss")),
            };
            let ok = match reply {
                Ok(Reply::Report {
                    cached,
                    token,
                    report,
                }) => {
                    if cached && !matches!(step, Step::Token(_)) {
                        cached_grid += 1;
                    }
                    cached == want_cached
                        && want_token.is_none_or(|t| *t == token)
                        && to_json(&report) == *want_report
                }
                Ok(other) => {
                    eprintln!("perfbench: {step:?} refused: {other:?}");
                    false
                }
                Err(e) => {
                    eprintln!("perfbench: {step:?} failed: {e}");
                    false
                }
            };
            if !ok {
                failed += 1;
            }
        }
        Session {
            ms,
            failed,
            cached_grid,
        }
    }
}

/// The direct answers of a script's miss steps, in order.
pub fn expected_misses(steps: &[Step]) -> Vec<String> {
    steps
        .iter()
        .filter_map(|s| match s {
            Step::Miss(q) => Some(to_json(&q.direct())),
            _ => None,
        })
        .collect()
}

/// One session's outcome.
pub struct Session {
    pub ms: f64,
    pub failed: usize,
    /// Grid queries (not token lookups) answered from the store.
    pub cached_grid: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_a_pure_function_of_seed_and_session() {
        let c = catalog(7);
        assert_eq!(catalog(7).entries, c.entries);
        assert_eq!(script(7, 3, &c), script(7, 3, &c));
        assert_ne!(script(7, 3, &c), script(8, 3, &catalog(8)));
        assert_ne!(script(7, 3, &c), script(7, 4, &c));
    }

    #[test]
    fn script_holds_the_fixed_class_mix() {
        let c = catalog(1);
        let steps = script(1, 0, &c);
        let count = |class| steps.iter().filter(|s| s.class() == class).count();
        assert_eq!(count(Class::Token), TOKENS);
        assert_eq!(count(Class::GridSmall), SMALL);
        assert_eq!(count(Class::GridRing), RING);
        assert_eq!(count(Class::GridMiss), MISSES);
    }

    #[test]
    fn miss_specs_never_repeat_within_a_run() {
        let c = catalog(5);
        let mut seen = Vec::new();
        for session in 0..50 {
            for step in script(5, session, &c) {
                if let Step::Miss(q) = step {
                    assert!(!seen.contains(&q), "repeated miss {q:?}");
                    assert!(!c.entries.contains(&q));
                    seen.push(q);
                }
            }
        }
    }
}
