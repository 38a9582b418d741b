//! The traced run: per-layer metrics, each measured from outside by
//! timing calls into the layer's public functions (see README.md for
//! which end-to-end metric each one should move).

use crate::session::{self, Catalog, Class, SeededEntry};
use crate::stats::median;
use crate::sys::{children_cpu_ms, Pinned, Reaped, WorkDir};
use crate::tables;
use crate::trace::Tracer;
use crate::{serve_setup, Args, Metrics, Outcome};
use rendezvous_bench::common::{ring_setup, standard_delays, standard_label_pairs};
use rendezvous_bench::x10_topologies::{self, build_topo_grid, standard_topo_specs};
use rendezvous_bench::{x11_gathering_topo, x9_gathering};
use rendezvous_core::{
    BaseAlgorithm, Cheap, CheapSimultaneous, Fast, FastWithRelabeling, Iterated, LabelSpace,
    RendezvousAlgorithm,
};
use rendezvous_explore::{spec_explorer, ExplorationFamily, Explorer, RingDoublingFamily};
use rendezvous_fabric::wire::{read_json_frame, write_json_frame};
use rendezvous_fabric::{CoordinatorConfig, FabricServer, ServerConfig};
use rendezvous_graph::{GraphSpec, PortLabeledGraph};
use rendezvous_lower_bounds::{eager_chain_audit, progress_audit};
use rendezvous_runner::{
    AlgorithmExecutor, BatchExecutor, Bounds, FleetRule, GatheringExecutor, Grid, PieceExecutor,
    Runner, RunnerError, ScenarioOutcome, SweepReport, WorkPiece, Workload,
};
use rendezvous_store::Store;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Untraced samples a traced run takes of a table workload.
const TABLE_SAMPLES: usize = 3;
/// Sessions a traced run takes of `serve-mixed`, untraced and traced.
const SESSIONS: usize = 8;
/// Spawns timed for `bench.process_start_ms`.
const STARTS: usize = 15;
/// Repeats of each store call and frame round trip.
const REPEATS: usize = 5;
/// Least and most of a session's time each query class may take.
const MIN_SHARE: f64 = 0.05;
const MAX_SHARE: f64 = 0.5;
/// Fabric workers, as in `tables-fabric`.
const WORKERS: usize = 2;
/// Longest a fabric worker may run.
const WORKER_DEADLINE: Duration = Duration::from_secs(150);

/// What a traced run checked besides the per-layer numbers.
struct Checks {
    attempted: usize,
    failed: usize,
}

impl Checks {
    fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: traced check failed: {what}");
        }
    }
}

/// The workload's untraced and traced sample times, and what the traced
/// sample's spans cover.
struct Overhead {
    untraced_ms: f64,
    traced_ms: f64,
    covered_ms: f64,
}

pub fn traced(args: &Args, workload: &str) -> Result<Outcome, String> {
    let mut checks = Checks {
        attempted: 0,
        failed: 0,
    };
    let mut m = Metrics::default();

    // The untraced samples and the in-process pass they are compared
    // with run on one CPU when the workload does.
    let pin = if workload == "tables" {
        Some(Pinned::to_one_cpu()?)
    } else {
        None
    };
    let mut untraced = Vec::new();
    let mut stdout = None;
    if workload != "serve-mixed" {
        let fabric = workload == "tables-fabric";
        tables::warm_up(&args.exe, fabric)?;
        for _ in 0..TABLE_SAMPLES {
            let s = tables::sample(&args.exe, fabric)?;
            let ok = s.stdout.as_deref().is_some_and(tables::matches_reference);
            checks.op(ok, "table stdout matches the reference");
            stdout = stdout.or(s.stdout);
            untraced.push(s.ms);
        }
    }

    let process_start_ms = process_start(&args.exe)?;
    m.put("bench.process_start_ms", process_start_ms, "ms");

    let mut t = Tracer::new();
    let pass_start = Instant::now();
    let pass = tables::traced_pass(&mut t);
    let pass_ms = pass_start.elapsed().as_secs_f64() * 1e3;
    if let Some(out) = &stdout {
        checks.op(
            tables::parity(out, &pass.renders),
            "in-process renders equal the binary's tables",
        );
    }
    for x in 1..=11 {
        let name = format!("bench.x{x}");
        m.put(&format!("{name}_ms"), t.total_ms(&name), "ms");
    }
    m.put("bench.render_ms", t.total_ms("bench.render"), "ms");
    drop(pin);

    let catalog = session::catalog(args.seed);
    let seeded = store_layer(&catalog, &mut m, &mut checks)?;
    compute_layers(&catalog, &seeded, &pass.x10, &mut m, &mut checks)?;
    lower_bounds(&mut m)?;
    frames(&seeded, &mut m, &mut checks)?;

    // The fabric run driven here. For `tables-fabric` it is the traced
    // sample: one clock around the fabric run and the work the driver
    // then does itself (the §3 audits and their renders).
    let mut ft = Tracer::new();
    let fabric_start = Instant::now();
    ft.span("fabric.run", |_| fabric_layer(&args.exe, &mut m))?;
    if workload == "tables-fabric" {
        tables::audits(&mut ft);
    }
    let fabric_ms = fabric_start.elapsed().as_secs_f64() * 1e3;

    let serve = serve_layer(args, &catalog, &mut m, &mut checks)?;

    let o = match workload {
        "tables" => Overhead {
            untraced_ms: median(&untraced),
            traced_ms: pass_ms + process_start_ms,
            covered_ms: t.top_level_ms() + process_start_ms,
        },
        "tables-fabric" => Overhead {
            untraced_ms: median(&untraced),
            traced_ms: fabric_ms + process_start_ms,
            covered_ms: ft.top_level_ms() + process_start_ms,
        },
        _ => serve,
    };
    let uncovered = o.untraced_ms - o.covered_ms;
    eprintln!(
        "perfbench: {workload}: spans cover {:.1} of {:.1} ms untraced p50; {uncovered:.1} ms uncovered",
        o.covered_ms, o.untraced_ms
    );
    m.put(
        "trace.overhead_pct",
        100.0 * (o.traced_ms - o.untraced_ms) / o.untraced_ms,
        "%",
    );
    m.put(
        "trace.coverage_pct",
        100.0 * o.covered_ms / o.untraced_ms,
        "%",
    );
    m.put("trace.uncovered_ms", uncovered, "ms");
    Ok(Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: m,
    })
}

/// Median spawn-to-exit of an invocation that selects no experiment:
/// process start, argument parsing and exit, with no sweep.
fn process_start(exe: &Path) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..STARTS {
        let start = Instant::now();
        let status = Reaped::spawn(
            Command::new(exe)
                .arg("none")
                .stdout(Stdio::null())
                .stderr(Stdio::null()),
        )?
        .wait()?;
        times.push(start.elapsed().as_secs_f64() * 1e3);
        if !status.success() {
            return Err(format!("no-sweep invocation exited with {status}"));
        }
    }
    Ok(median(&times))
}

/// One call of the program's `build_topo_grid`, with what the runner
/// sweep over it must produce.
struct Group<'a> {
    specs: Vec<GraphSpec>,
    l: u64,
    cap: usize,
    /// Each algorithm swept over the group, with the program's report.
    sweeps: Vec<(Algo, &'a SweepReport)>,
}

#[derive(Clone, Copy)]
enum Algo {
    Cheap,
    Fast,
}

impl Algo {
    fn named(name: &str) -> Algo {
        if name == "fast" {
            Algo::Fast
        } else {
            Algo::Cheap
        }
    }

    fn build(
        self,
        graph: &Arc<PortLabeledGraph>,
        explorer: &Arc<dyn Explorer>,
        space: LabelSpace,
    ) -> Box<dyn RendezvousAlgorithm> {
        match self {
            Algo::Cheap => Box::new(Cheap::new(graph.clone(), explorer.clone(), space)),
            Algo::Fast => Box::new(Fast::new(graph.clone(), explorer.clone(), space)),
        }
    }
}

/// Sweeps one algorithm over a `build_topo_grid` grid piece by piece,
/// building the algorithm on each piece's graph and explorer, as the
/// program's topology sweeps do on the default (stepped) engine. Every
/// report it gives is checked against the program's own.
struct TopoSweep {
    algo: Algo,
    space: LabelSpace,
    explorers: Arc<Vec<Arc<dyn Explorer>>>,
}

impl PieceExecutor for TopoSweep {
    fn run_piece(
        &self,
        runner: &Runner,
        piece: &WorkPiece<'_>,
    ) -> Result<(Vec<ScenarioOutcome>, Option<Bounds>), RunnerError> {
        let entry = piece.entry.expect("topology pieces carry their entry");
        let alg = self
            .algo
            .build(&entry.graph, &self.explorers[entry.spec_index], self.space);
        let bounds = Bounds {
            time: alg.time_bound(),
            cost: alg.cost_bound(),
        };
        let outcomes = runner.outcomes(&AlgorithmExecutor::new(alg.as_ref()), &piece.scenarios)?;
        Ok((outcomes, Some(bounds)))
    }
}

fn same_json<T: serde::Serialize>(a: &T, b: &T) -> bool {
    serde_json::to_string(a).ok() == serde_json::to_string(b).ok()
}

/// Grid construction and sweeps over the x10 specs at the binary's
/// parameters (one `build_topo_grid` call, as x10 makes) and over each
/// serve catalog entry (one call each, as the server makes per query);
/// then the x9 and x11 fleet sweeps.
///
/// `runner.grid_build` and `runner.sweep` time the program's own grid
/// and sweep path. `build_topo_grid` builds graphs, explorers and
/// algorithms inside one closure, so the graph, explore and core spans
/// time a copy of that closure per spec, checked to build the same grid.
/// The sim spans sweep each spec's grid through both engines.
fn compute_layers(
    catalog: &Catalog,
    seeded: &[SeededEntry],
    x10: &x10_topologies::Report,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    let runner = Runner::sequential();
    let mut t = Tracer::new();
    let mut groups = vec![Group {
        specs: standard_topo_specs(false),
        l: 6,
        cap: 24,
        sweeps: vec![(Algo::Cheap, &x10.cheap), (Algo::Fast, &x10.fast)],
    }];
    for (q, e) in catalog.entries.iter().zip(seeded) {
        groups.push(Group {
            specs: vec![q.spec.clone()],
            l: q.l,
            cap: q.cap,
            sweeps: vec![(Algo::named(q.algorithm), &e.report)],
        });
    }
    let (mut scenarios, mut compiled) = (0, 0);
    for group in groups {
        let (topo, explorers) = t.span("runner.grid_build", |_| {
            let built = build_topo_grid(group.specs, group.l, group.cap);
            std::hint::black_box(built.0.meta());
            built
        });
        let space = LabelSpace::new(group.l).expect("l >= 2");
        for entry in topo.entries() {
            let spec = &entry.spec;
            let graph = Arc::new(
                t.span("graph.build", |_| spec.build())
                    .map_err(|e| format!("{spec:?}: {e}"))?,
            );
            let explorer = t
                .span("explore.build", |_| spec_explorer(spec, graph.clone()))
                .map_err(|e| format!("{spec:?}: {e}"))?;
            let [cheap, fast] = t.span("core.algorithm_build", |_| {
                [Algo::Cheap, Algo::Fast].map(|a| a.build(&graph, &explorer, space))
            });
            let horizon = 4 * cheap.time_bound().max(fast.time_bound());
            let copy = Grid::new(horizon)
                .label_pairs_both_orders(&standard_label_pairs(group.l))
                .delays(&standard_delays(explorer.bound() as u64))
                .all_start_pairs(&graph)
                .sample_cap(group.cap);
            checks.op(
                copy.meta() == entry.grid.meta(),
                "the copied construction builds build_topo_grid's grid",
            );
            for (algo, _) in &group.sweeps {
                let alg = match algo {
                    Algo::Cheap => &cheap,
                    Algo::Fast => &fast,
                };
                let exec = AlgorithmExecutor::new(alg.as_ref());
                let stepped = t
                    .span("sim.stepped_sweep", |_| runner.sweep(&entry.grid, &exec))
                    .map_err(|e| e.to_string())?;
                scenarios += entry.grid.size();
                compiled += exec.compiled_plans();
                let batched = t
                    .span("sim.batched_sweep", |_| {
                        runner.sweep(&entry.grid, &BatchExecutor::new(alg.as_ref()))
                    })
                    .map_err(|e| e.to_string())?;
                checks.op(
                    same_json(&stepped, &batched),
                    "batched sweep equals stepped sweep",
                );
            }
        }
        for (algo, want) in group.sweeps {
            let exec = TopoSweep {
                algo,
                space,
                explorers: Arc::clone(&explorers),
            };
            let report = t
                .span("runner.sweep", |_| runner.sweep(&topo, &exec))
                .map_err(|e| e.to_string())?;
            checks.op(
                same_json(&report, want),
                "the topology sweep equals the program's report",
            );
        }
    }
    // Constructions the table experiments make beyond Cheap and Fast:
    // x3's FastWithRelabeling and x8's iterated algorithms.
    t.span("core.algorithm_build", |_| {
        let (g, ex) = ring_setup(10);
        for w in 1..=4 {
            let space = LabelSpace::new(16).expect("l >= 2");
            std::hint::black_box(FastWithRelabeling::new(g.clone(), ex.clone(), space, w).ok());
        }
        let fam = Arc::new(RingDoublingFamily::new());
        for n in [6, 12, 24] {
            let (g, _) = ring_setup(n);
            let space = LabelSpace::new(4).expect("l >= 2");
            for base in [BaseAlgorithm::Fast, BaseAlgorithm::Cheap] {
                let levels = 1..=fam.level_for(n);
                std::hint::black_box(
                    Iterated::new(g.clone(), fam.clone(), space, base, levels).ok(),
                );
            }
        }
    });
    gathering(&runner, &mut t)?;

    let lookups = 2 * scenarios;
    for name in [
        "graph.build",
        "explore.build",
        "core.algorithm_build",
        "runner.grid_build",
    ] {
        m.put(&format!("{name}_ms"), t.total_ms(name), "ms");
    }
    m.put("runner.sweep_ms", t.total_ms("runner.sweep"), "ms");
    m.put("runner.scenarios", scenarios as f64, "count");
    m.put("runner.plan_lookups", lookups as f64, "count");
    m.put(
        "runner.plan_cache_hit_ratio",
        1.0 - compiled as f64 / lookups as f64,
        "ratio",
    );
    let stepped = t.total_ms("sim.stepped_sweep");
    let batched = t.total_ms("sim.batched_sweep");
    m.put("sim.stepped_sweep_ms", stepped, "ms");
    m.put("sim.batched_sweep_ms", batched, "ms");
    m.put("sim.batched_share", batched / stepped, "ratio");
    m.put(
        "sim.gathering_sweep_ms",
        t.total_ms("sim.gathering_sweep"),
        "ms",
    );
    Ok(())
}

/// The fleet sweeps of x9 (oriented 12-ring, L = 32) and x11 (the x10
/// specs), each through a `GatheringExecutor` on `Fast`.
fn gathering(runner: &Runner, t: &mut Tracer) -> Result<(), String> {
    let (g, ex) = ring_setup(12);
    let alg: Arc<dyn RendezvousAlgorithm> = Arc::new(Fast::new(
        g.clone(),
        ex,
        LabelSpace::new(32).expect("l >= 2"),
    ));
    let exec = GatheringExecutor::new(Arc::clone(&alg));
    let rule = FleetRule::spread(&g, 32);
    for k in 2..=6u64 {
        let bound = (k - 1) * (alg.time_bound() + rule.max_delay());
        let grid = Grid::new(4 * bound)
            .fleet_sizes(&[k as usize])
            .fleet_rule(rule.clone())
            .delays(&x9_gathering::standard_phases());
        let report = t
            .span("sim.gathering_sweep", |_| runner.sweep(&grid, &exec))
            .map_err(|e| e.to_string())?;
        let _ = std::hint::black_box(report);
    }
    let (topo, _) = x11_gathering_topo::build_gathering_topo_grid(
        standard_topo_specs(false),
        6,
        &x11_gathering_topo::standard_fleet_sizes(false),
        &x11_gathering_topo::standard_phases(false),
        8,
    );
    let space = LabelSpace::new(6).expect("l >= 2");
    for entry in topo.entries() {
        let explorer =
            spec_explorer(&entry.spec, entry.graph.clone()).map_err(|e| e.to_string())?;
        let alg: Arc<dyn RendezvousAlgorithm> =
            Arc::new(Fast::new(entry.graph.clone(), explorer, space));
        let exec = GatheringExecutor::new(alg);
        let all = entry.grid.scenarios();
        t.span("sim.gathering_sweep", |_| runner.outcomes(&exec, &all))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The §3 audits at the x5 and x6 parameters. `executions` counts the
/// trimmed runs each audit makes: every unordered label pair from every
/// ordered pair of distinct start nodes.
fn lower_bounds(m: &mut Metrics) -> Result<(), String> {
    let n = 12u64;
    let per_l = |l: u64| l * (l - 1) / 2 * n * (n - 1);
    let mut t = Tracer::new();
    let mut executions = 0;
    for l in [4, 6, 8, 10, 12, 16] {
        let (g, ex) = ring_setup(n as usize);
        let alg = CheapSimultaneous::new(g, ex, LabelSpace::new(l).expect("l >= 2"));
        t.span("lower_bounds.eager", |_| {
            eager_chain_audit(&alg, 20 * alg.time_bound())
        })
        .map_err(|e| e.to_string())?;
        executions += per_l(l);
    }
    for l in [4, 8, 16, 32] {
        let (g, ex) = ring_setup(n as usize);
        let alg = Fast::new(g, ex, LabelSpace::new(l).expect("l >= 2"));
        t.span("lower_bounds.progress", |_| {
            progress_audit(&alg, 4 * alg.time_bound())
        })
        .map_err(|e| e.to_string())?;
        executions += per_l(l);
    }
    m.put(
        "lower_bounds.eager_ms",
        t.total_ms("lower_bounds.eager"),
        "ms",
    );
    m.put(
        "lower_bounds.progress_ms",
        t.total_ms("lower_bounds.progress"),
        "ms",
    );
    m.put("lower_bounds.executions", executions as f64, "count");
    Ok(())
}

/// Seeds a fresh store with the catalog, then times `Store::save`,
/// `load` and `load_token` on its entries; per-call medians. Returns the
/// seeded entries.
fn store_layer(
    catalog: &Catalog,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<Vec<SeededEntry>, String> {
    let dir = WorkDir::create("store-probe")?;
    let store = Store::open(dir.path()).map_err(|e| e.to_string())?;
    let engine = rendezvous_bench::engine::current().name();
    let seeded = session::seed_store(&store, catalog)?;
    let mut t = Tracer::new();
    let mut bytes = 0;
    for e in &seeded {
        for _ in 0..REPEATS {
            t.span("store.save", |_| {
                store.save(&e.key, e.context, engine, &e.meta, &e.report)
            })
            .map_err(|e| e.to_string())?;
            let loaded = t
                .span("store.load", |_| store.load(&e.key))
                .map_err(|e| format!("{e}"))?;
            let entry = t
                .span("store.load_token", |_| store.load_token(e.key.token()))
                .map_err(|e| format!("{e}"))?;
            checks.op(
                same_json(&loaded, &e.report) && same_json(&entry.report, &e.report),
                "stored entries load back unchanged",
            );
        }
        bytes += std::fs::metadata(store.path_of(&e.key))
            .map_err(|e| e.to_string())?
            .len();
    }
    for name in ["store.load", "store.load_token", "store.save"] {
        m.put(&format!("{name}_ms"), median(&t.durations(name)), "ms");
    }
    m.put(
        "store.entry_kb",
        bytes as f64 / 1024.0 / seeded.len() as f64,
        "KB",
    );
    Ok(seeded)
}

/// `write_json_frame` + `read_json_frame` of the largest catalog report
/// over loopback, echoed back by a peer thread; median round trip.
fn frames(seeded: &[SeededEntry], m: &mut Metrics, checks: &mut Checks) -> Result<(), String> {
    let report = seeded
        .iter()
        .map(|e| &e.report)
        .max_by_key(|r| serde_json::to_string(r).map_or(0, |s| s.len()))
        .ok_or("no reports")?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let echo = std::thread::spawn(move || -> Result<(), String> {
        let (mut s, _) = listener.accept().map_err(|e| e.to_string())?;
        while let Some(r) =
            read_json_frame::<_, SweepReport>(&mut s, "a report").map_err(|e| e.to_string())?
        {
            write_json_frame(&mut s, &r, "a report").map_err(|e| e.to_string())?;
        }
        Ok(())
    });
    let mut times = Vec::new();
    {
        let mut client = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        client.set_nodelay(true).map_err(|e| e.to_string())?;
        for _ in 0..REPEATS {
            let start = Instant::now();
            write_json_frame(&mut client, report, "a report").map_err(|e| e.to_string())?;
            let back: Option<SweepReport> =
                read_json_frame(&mut client, "a report").map_err(|e| e.to_string())?;
            times.push(start.elapsed().as_secs_f64() * 1e3);
            checks.op(
                back.as_ref().is_some_and(|b| same_json(b, report)),
                "a framed report survives the round trip",
            );
        }
    }
    echo.join().map_err(|_| "echo thread panicked")??;
    let kb = serde_json::to_string(report)
        .map_err(|e| e.to_string())?
        .len() as f64
        / 1024.0;
    m.put("fabric.frame_roundtrip_ms", median(&times), "ms");
    m.put("fabric.frame_kb", kb, "KB");
    Ok(())
}

/// One fabric run of the table selection, driven from here: an
/// in-process coordinator and two `--fabric-worker` processes. Returns
/// its wall time.
fn fabric_layer(exe: &Path, m: &mut Metrics) -> Result<f64, String> {
    let cpu_before = children_cpu_ms();
    let start = Instant::now();
    let server = FabricServer::start(ServerConfig {
        coordinator: CoordinatorConfig {
            workers: WORKERS,
            chunk: 0,
            lease_timeout_ms: 5_000,
        },
        checkpoint: None,
        resume: Vec::new(),
    })
    .map_err(|e| e.to_string())?;
    let mut workers = Vec::new();
    for _ in 0..WORKERS {
        let spawned = Instant::now();
        let child = Reaped::spawn(
            Command::new(exe)
                .args(tables::SELECTION)
                .arg("--fabric-worker")
                .arg(server.addr())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null()),
        )?;
        workers.push((spawned, child));
    }
    let mut worker_ms = Vec::new();
    for (spawned, child) in workers {
        let status = child.wait_within(WORKER_DEADLINE)?;
        if !status.success() {
            return Err(format!("fabric worker exited with {status}"));
        }
        worker_ms.push(spawned.elapsed().as_secs_f64() * 1e3);
    }
    let outcome = server.join().map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64() * 1e3;
    let busy = children_cpu_ms() - cpu_before;
    let capacity = WORKERS as f64 * wall;
    m.put("fabric.sweeps", outcome.stats.sweeps as f64, "count");
    m.put("fabric.chunks", outcome.stats.chunks as f64, "count");
    m.put(
        "fabric.worker_wall_ms",
        worker_ms.iter().sum::<f64>() / WORKERS as f64,
        "ms",
    );
    m.put("fabric.capacity_ms", capacity, "ms");
    m.put("fabric.idle_share", 1.0 - busy / capacity, "ratio");
    Ok(wall)
}

/// Untraced then traced sessions against one server: per-class round
/// trips, the store hit ratio, and the session-level overhead figures.
fn serve_layer(
    args: &Args,
    catalog: &Catalog,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<Overhead, String> {
    let _pin = Pinned::to_one_cpu()?;
    let (fx, _) = serve_setup(args, catalog, 1)?;
    let run = |index: u64, tracer: Option<&mut Tracer>, checks: &mut Checks| {
        let steps = session::script(args.seed, index, catalog);
        let misses = session::expected_misses(&steps);
        let s = fx.session(catalog, &steps, &misses, tracer);
        let grid = steps.iter().filter(|s| s.class() != Class::Token).count();
        checks.op(
            s.failed == 0,
            "every session reply matches its direct answer",
        );
        (s, grid)
    };
    let mut untraced = Vec::new();
    for i in 0..SESSIONS {
        untraced.push(run(1 + i as u64, None, checks).0.ms);
    }
    let mut t = Tracer::new();
    let mut traced = Vec::new();
    let (mut cached, mut grid) = (0, 0);
    for i in 0..SESSIONS {
        let (s, g) = run(1 + (SESSIONS + i) as u64, Some(&mut t), checks);
        traced.push(s.ms);
        cached += s.cached_grid;
        grid += g;
    }
    fx.stop()?;
    for class in Class::ALL {
        m.put(
            &format!("{}_ms", class.span()),
            median(&t.durations(class.span())),
            "ms",
        );
    }
    let total: f64 = traced.iter().sum();
    let mut shares = Vec::new();
    for class in Class::ALL {
        let share = t.total_ms(class.span()) / total;
        shares.push(format!("{} {:.1}%", class.span(), 100.0 * share));
        checks.op(
            (MIN_SHARE..=MAX_SHARE).contains(&share),
            &format!(
                "{} takes {:.1}% of session time, outside {}–{}%",
                class.span(),
                100.0 * share,
                100.0 * MIN_SHARE,
                100.0 * MAX_SHARE
            ),
        );
    }
    eprintln!("perfbench: share of session time: {}", shares.join(", "));
    m.put("store.grid_queries", grid as f64, "count");
    m.put("store.hit_ratio", cached as f64 / grid as f64, "ratio");
    Ok(Overhead {
        untraced_ms: median(&untraced),
        traced_ms: median(&traced),
        covered_ms: t.top_level_ms() / SESSIONS as f64,
    })
}
