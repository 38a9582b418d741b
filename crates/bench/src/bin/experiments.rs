//! Regenerates the paper's claims as markdown tables, one per experiment
//! (the index is in the crate docs).
//!
//! Usage:
//!
//! ```text
//! experiments [all|none|x1|x2|...|x11]... [--quick] [--json]
//!             [--sequential] [--engine batched|stepped]
//!             [--progress] [--telemetry FILE] [--plan] [--store DIR]
//!             [--fabric workers=N [--fabric-checkpoint FILE] [--fabric-kill-one]]
//! experiments serve --store DIR [--addr-file FILE]
//!             [--engine batched|stepped] [--sequential]
//! experiments query (--addr ADDR | --addr-file FILE)
//!             (--token TOKEN | --grid ALGO --spec JSON --l N --cap N | --shutdown)
//! experiments query --direct --store DIR
//!             (--token TOKEN | --grid ALGO --spec JSON --l N --cap N)
//! ```
//!
//! `--quick` shrinks the sweeps (used by CI); the default parameters are
//! the paper-scale ones set in each experiment's function below. `none`
//! selects no experiment; any other unknown id is a usage error (exit 2)
//! raised before anything runs.
//! `--json` emits the raw rows as JSON (one document per experiment)
//! instead of markdown tables, for plotting pipelines — section headings
//! go to stderr in that mode, so stdout stays a clean JSON stream
//! (`experiments all --json | jq` works).
//!
//! Every experiment executes through the shared `rendezvous-runner`
//! engine on one thread; the one parallel path is `--fabric workers=N`
//! below. `--sequential` is still accepted (the benchmark harness passes
//! it) and changes nothing: it names the only in-process mode.
//!
//! Every pair sweep runs on the delay-batched trajectory solver
//! (`BatchExecutor`) by default; `--engine stepped` swaps in the stepped
//! simulator, the oracle — same knob shape: the outputs are
//! **byte-identical** either way, the batched engine is only faster, and
//! CI diffs the two on every experiment on every push. The engine name
//! is part of every `--store` key, so entries written under one engine
//! miss (and are recomputed) under the other.
//!
//! # Observability
//!
//! `--progress` renders a live pieces/scenarios/rate/ETA line to stderr
//! while sweeps execute (stdout untouched); `--telemetry FILE` writes a
//! deterministic `TELEMETRY.json` sidecar after the run — exact
//! counters in sorted sections, wall-clock data quarantined under
//! `timing`. Both compose with `--fabric workers=N`, whose workers talk
//! to the driver over the fabric socket only: each sends its telemetry
//! snapshot in its final `Finished` frame, and the driver merges them
//! into one sidecar; the driver's live display samples the
//! coordinator's chunk table. A worker's stderr is the driver's, so a
//! worker panic shows up as it happens. Neither flag may change the
//! experiment output: CI byte-diffs telemetry-on against telemetry-off
//! on every push.
//!
//! # Distributed fabric
//!
//! `--fabric workers=N` runs the selection on the coordinator/worker
//! fabric (`rendezvous-fabric`): the driver starts a loopback
//! coordinator, re-execs itself `N` times with the internal
//! `--fabric-worker ADDR` flag, and workers *pull* small lease-sized
//! ranges of every sweep — so uneven pieces balance themselves, and a
//! worker that dies mid-piece
//! (heartbeat silence or a dropped connection) has its in-flight ranges
//! requeued to the survivors. The merged output is byte-identical to
//! the direct run; CI diffs it — with and without a SIGKILL'd worker —
//! on every push. `--fabric-checkpoint FILE` appends one JSONL record
//! per completed range, and a rerun against the same file re-executes
//! zero completed ranges (`--fabric-kill-one` is the chaos switch CI
//! uses: worker 0 SIGKILLs itself after its first completed lease).
//! The driver executes nothing itself: it replays the coordinator's
//! merged per-sweep reports through the same experiment sequence.
//!
//! `--plan` is the zero-cost preview: one line per sweep — context,
//! canonical workload fingerprint, piece count (the fabric's chunking
//! input) — with no scenario executed.
//!
//! `--plan`, `--fabric` and the internal `--fabric-worker` each select
//! the process's execution mode (`session::Mode`), so at most one of
//! them may be given; the mode, the engine and the store make up the
//! one session every sweep of the process dispatches on.
//!
//! # Result store
//!
//! `--store DIR` puts a content-addressed read-through cache in front
//! of every recorded sweep: a hit returns the stored `SweepReport`
//! byte-identically and executes **zero** scenarios; a miss computes
//! as usual (direct or through `--fabric`; the flag is forwarded to
//! every worker so all of them skip the same cached sweeps) and writes
//! the full report back. A warm rerun is byte-identical to the cold
//! one, CI-checked. With `--plan` each line gains a `store=cached|miss`
//! column.
//!
//! `experiments serve --store DIR` turns the store into a query
//! service: length-framed JSON queries over a loopback socket (the
//! fabric's wire discipline), answered cached-or-computed, with typed
//! refusals for schema/fingerprint drift and malformed queries.
//! `experiments query` is the client; `query --direct` answers locally
//! through the service's own validation and compute path, so its
//! reports and refusals match a served reply, and CI byte-diffs the
//! two.
//!
//! # Topology sweeps
//!
//! `x10` sweeps 100+ **seeded graph instances per
//! family** ([`x10_topologies`]): the graph becomes an adversary axis.
//! `x11` composes that grid with the gathering generalization
//! ([`x11_gathering_topo`]): k-agent fleets gathered on every seeded
//! topology, each run checked against its own merge-and-restart bound.
//! `all` deliberately excludes both (they are the heaviest tables);
//! select them explicitly. The fabric works for them exactly as above —
//! a `TopoGrid` is just another `Workload`, so its per-family reports
//! are leased, merged and replayed like every grid sweep.

use rendezvous_bench::engine::Engine;
use rendezvous_bench::fabric::{Replay, Worker};
use rendezvous_bench::session::{self, Mode, Session};
use rendezvous_bench::*;
use rendezvous_runner::Runner;
use rendezvous_store::Store;
use rendezvous_telemetry::{Metrics, ProgressReporter, TelemetrySnapshot};
use std::path::Path;
use std::sync::Arc;

struct Config {
    quick: bool,
    json: bool,
    runner: Runner,
}

/// Emits either the rendered markdown or the serialized rows — or
/// nothing, when the session's reports are partial (a fabric worker's
/// own ranges, a `--plan` run's empty ones).
fn emit<R: serde::Serialize>(cfg: &Config, id: &str, rows: &[R], rendered: String) {
    if !matches!(session::current().mode, Mode::Direct | Mode::Replay(_)) {
        return;
    }
    if cfg.json {
        let doc = serde_json::json!({ "experiment": id, "rows": rows });
        println!(
            "{}",
            serde_json::to_string_pretty(&doc).expect("serializable rows")
        );
    } else {
        print!("{rendered}");
    }
}

/// Prints a section heading: to stdout for markdown output, to stderr in
/// `--json` mode (so stdout stays a clean JSON stream) and under
/// `--plan`; a fabric worker, whose stderr is the driver's, prints none.
fn section(cfg: &Config, heading: &str) {
    match session::current().mode {
        Mode::Worker(_) => {}
        Mode::Plan => eprintln!("{heading}"),
        _ if cfg.json => eprintln!("{heading}"),
        Mode::Direct | Mode::Replay(_) => println!("{heading}"),
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The value following `flag`, or a usage error saying what it needs.
fn value(args: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> String {
    args.next()
        .unwrap_or_else(|| usage_error(&format!("{flag} requires {what}")))
}

/// [`value`] parsed as a number.
fn number<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> T {
    value(args, flag, what)
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} requires {what}")))
}

/// The flags the three command lines (experiments, `serve`, `query`)
/// share; each is parsed here and nowhere else.
#[derive(Default)]
struct Shared {
    engine: Engine,
    store: Option<String>,
    addr_file: Option<String>,
}

impl Shared {
    /// Parses `flag` (taking its value from `args`) when it is a shared
    /// flag; `false` for any other.
    fn parse(&mut self, flag: &str, args: &mut impl Iterator<Item = String>) -> bool {
        match flag {
            "--engine" => {
                let name = value(args, flag, "stepped or batched");
                self.engine = Engine::parse(&name).unwrap_or_else(|| {
                    usage_error(&format!(
                        "--engine expects stepped or batched, got `{name}`"
                    ))
                });
            }
            "--store" => self.store = Some(value(args, flag, "a directory")),
            "--addr-file" => self.addr_file = Some(value(args, flag, "a file path")),
            // One thread is the only in-process mode; the flag is a
            // kept no-op.
            "--sequential" => {}
            _ => return false,
        }
        true
    }

    /// The session these flags ask for, in `mode`, its store opened.
    fn session(&self, mode: Mode) -> Session {
        let store = self.store.as_deref().map(|dir| {
            Store::open(Path::new(dir)).unwrap_or_else(|e| {
                eprintln!("cannot open the result store: {e}");
                std::process::exit(1);
            })
        });
        Session::new(self.engine, store, mode)
    }
}

/// Runs the selection on the distributed fabric: starts the loopback
/// coordinator, re-execs this binary `workers` times in
/// `--fabric-worker` mode, waits for every worker process, and returns
/// the coordinator's outcome: the merged per-sweep reports plus the
/// workers' merged telemetry (delivered over the socket in their
/// `Finished` frames). The socket is a worker's only channel: its
/// stderr is this process's, and `--progress` samples the coordinator.
///
/// A worker that exits abnormally while the run still completes is a
/// *survived* fault — its leases were reassigned — and is only noted on
/// stderr; the run fails only if ranges remain unfinished or the
/// coordinator recorded a protocol/checkpoint error.
fn run_fabric(
    workers: usize,
    passthrough: &[String],
    progress: bool,
    checkpoint: Option<&str>,
    kill_one: bool,
) -> rendezvous_fabric::FabricOutcome {
    use rendezvous_fabric as fab;
    let resume = match checkpoint {
        Some(path) => fab::checkpoint::load(Path::new(path)).unwrap_or_else(|e| {
            eprintln!("cannot resume fabric run: {e}");
            std::process::exit(1);
        }),
        None => Vec::new(),
    };
    let server = fab::FabricServer::start(fab::ServerConfig {
        coordinator: fab::CoordinatorConfig {
            workers,
            chunk: 0,
            lease_timeout_ms: 5_000,
        },
        checkpoint: checkpoint.map(std::path::PathBuf::from),
        resume,
    })
    .unwrap_or_else(|e| {
        eprintln!("cannot start fabric coordinator: {e}");
        std::process::exit(1);
    });
    let addr = server.addr().to_string();
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate own binary: {e}");
        std::process::exit(1);
    });
    let children: Vec<std::process::Child> = (0..workers)
        .map(|i| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(passthrough)
                .arg("--fabric-worker")
                .arg(&addr)
                .stdout(std::process::Stdio::null());
            if kill_one && i == 0 {
                cmd.arg("--fabric-self-kill");
            }
            cmd.spawn().unwrap_or_else(|e| {
                eprintln!("cannot spawn fabric worker {i}: {e}");
                std::process::exit(1);
            })
        })
        .collect();
    let reporter = progress.then(|| ProgressReporter::new(server.progress()));
    let statuses: Vec<std::io::Result<std::process::ExitStatus>> =
        children.into_iter().map(|mut c| c.wait()).collect();
    if let Some(reporter) = reporter {
        reporter.finish();
    }
    let outcome = server.join().unwrap_or_else(|e| {
        eprintln!("fabric run failed: {e}");
        std::process::exit(1);
    });
    for (i, status) in statuses.iter().enumerate() {
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("fabric worker {i} exited abnormally ({s}); its leases were reassigned")
            }
            Err(e) => eprintln!("cannot join fabric worker {i}: {e}"),
        }
    }
    outcome
}

/// Writes the sidecar document (exact sections sorted, wall-clock data
/// quarantined) to `path`.
fn write_sidecar(path: &str, snapshot: &TelemetrySnapshot) {
    std::fs::write(path, snapshot.render()).unwrap_or_else(|e| {
        eprintln!("cannot write telemetry sidecar {path}: {e}");
        std::process::exit(1);
    });
}

/// `experiments serve`: run the sweep query service until a client
/// sends `Shutdown`.
fn run_serve(mut args: impl Iterator<Item = String>) {
    let mut shared = Shared::default();
    while let Some(arg) = args.next() {
        if !shared.parse(&arg, &mut args) {
            usage_error(&format!("unknown serve flag: {arg}"));
        }
    }
    if shared.store.is_none() {
        usage_error("serve requires --store DIR");
    }
    let result = serve::serve(
        shared.session(Mode::Direct),
        shared.addr_file.as_deref().map(Path::new),
        &Runner::sequential(),
    );
    if let Err(e) = result {
        eprintln!("serve failed: {e}");
        std::process::exit(1);
    }
}

/// Prints a refusal and exits 3 — distinct from runtime failure (1)
/// and usage errors (2) so CI can assert on the *kind* of refusal.
fn query_refused(msg: &str) -> ! {
    eprintln!("query refused: {msg}");
    std::process::exit(3);
}

/// Renders a server reply: report JSON to stdout (byte-identical to a
/// direct run), everything else as a refusal or stderr note.
fn render_reply(reply: serve::Reply) {
    match reply {
        serve::Reply::Report {
            cached,
            token,
            report,
        } => {
            eprintln!(
                "query: {} {token}",
                if cached { "cached" } else { "computed" }
            );
            println!(
                "{}",
                serde_json::to_string_pretty(&report).expect("serializable report")
            );
        }
        serve::Reply::NotCached { reason } => query_refused(&format!("not cached: {reason}")),
        serve::Reply::SchemaMismatch { found, expected } => query_refused(&format!(
            "schema mismatch: entry is v{found}, this build speaks v{expected}"
        )),
        serve::Reply::FingerprintMismatch { found, expected } => query_refused(&format!(
            "fingerprint mismatch: entry holds {found}, its address demands {expected}"
        )),
        serve::Reply::BadQuery { reason } => query_refused(&format!("bad query: {reason}")),
        serve::Reply::Bye => eprintln!("query: server shut down"),
    }
}

/// `experiments query`: the service client (and, with `--direct`, the
/// reference local answer CI diffs a served one against).
fn run_query(mut args: impl Iterator<Item = String>) {
    let mut shared = Shared::default();
    let mut addr: Option<String> = None;
    let mut token: Option<String> = None;
    let mut grid_algo: Option<String> = None;
    let mut spec_json: Option<String> = None;
    let mut l: Option<u64> = None;
    let mut cap: Option<usize> = None;
    let mut shutdown = false;
    let mut direct = false;
    while let Some(arg) = args.next() {
        if shared.parse(&arg, &mut args) {
            continue;
        }
        match arg.as_str() {
            "--addr" => addr = Some(value(&mut args, &arg, "host:port")),
            "--token" => token = Some(value(&mut args, &arg, "a store token")),
            "--grid" => grid_algo = Some(value(&mut args, &arg, "cheap or fast")),
            "--spec" => spec_json = Some(value(&mut args, &arg, "a GraphSpec JSON value")),
            "--l" => l = Some(number(&mut args, &arg, "a label-space size")),
            "--cap" => cap = Some(number(&mut args, &arg, "a scenario cap")),
            "--shutdown" => shutdown = true,
            "--direct" => direct = true,
            other => usage_error(&format!("unknown query flag: {other}")),
        }
    }
    let grid = grid_algo.map(|algorithm| {
        let spec_json = spec_json.unwrap_or_else(|| usage_error("--grid requires --spec JSON"));
        let spec: rendezvous_graph::GraphSpec = serde_json::from_str(&spec_json)
            .unwrap_or_else(|e| usage_error(&format!("--spec is not a GraphSpec: {e}")));
        serve::Query::Grid {
            algorithm,
            spec,
            l: l.unwrap_or_else(|| usage_error("--grid requires --l N")),
            cap: cap.unwrap_or_else(|| usage_error("--grid requires --cap N")),
        }
    });
    let query = match (token, grid, shutdown) {
        (Some(token), None, false) => serve::Query::Token { token },
        (None, Some(grid), false) => grid,
        (None, None, true) => serve::Query::Shutdown,
        _ => usage_error("query needs exactly one of --token, --grid, or --shutdown"),
    };
    // The direct answer goes through the service's own `answer`, so it
    // validates, computes and refuses exactly as a served one does.
    let reply = if direct {
        if shutdown {
            usage_error("--shutdown needs a server; it cannot combine with --direct");
        }
        if matches!(query, serve::Query::Token { .. }) && shared.store.is_none() {
            usage_error("query --direct --token requires --store DIR");
        }
        session::install(shared.session(Mode::Direct));
        Ok(serve::answer(query, &Runner::sequential()))
    } else {
        let addr = match (addr, shared.addr_file) {
            (Some(addr), None) => addr,
            (None, Some(path)) => std::fs::read_to_string(&path)
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|e| usage_error(&format!("cannot read --addr-file {path}: {e}"))),
            _ => usage_error("query needs exactly one of --addr or --addr-file (or --direct)"),
        };
        serve::ask(&addr, &query)
    };
    match reply {
        Ok(reply) => render_reply(reply),
        Err(e) => {
            eprintln!("query failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The command line each fabric worker re-runs (before its
/// `--fabric-worker ADDR`): the driver's, minus the flags only the
/// driver acts on. Everything that shapes the sweep walk — selection,
/// `--quick`, `--engine`, `--store` — is kept, so every process walks
/// the same sweeps and skips the same cached ones.
fn worker_args(args: &[String]) -> Vec<String> {
    let mut kept = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // The driver owns the sidecar (workers send their snapshots
            // over the socket), the fleet size and the checkpoint.
            "--telemetry" | "--fabric" | "--fabric-checkpoint" => {
                args.next();
            }
            // The driver renders the progress display and picks the
            // worker to kill.
            "--progress" | "--fabric-kill-one" => {}
            "--engine" | "--store" => {
                kept.push(arg.clone());
                kept.extend(args.next().cloned());
            }
            _ => kept.push(arg.clone()),
        }
    }
    kept
}

/// The execution mode a command line selects, before its resources (a
/// coordinator connection, the merged reports) exist.
enum Run {
    Direct,
    Plan,
    /// `--fabric workers=N`: drive N workers, then replay their reports.
    Driver(usize),
    /// The internal `--fabric-worker ADDR`.
    Worker(String),
}

/// Claims the run's mode for `flag`: `--plan`, `--fabric` and
/// `--fabric-worker` each select one, so no two can combine.
fn claim(mode: &mut Option<(String, Run)>, flag: &str, run: Run) {
    if let Some((other, _)) = mode {
        usage_error(&format!("{flag} cannot be combined with {other}"));
    }
    *mode = Some((flag.to_string(), run));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return run_serve(args.into_iter().skip(1)),
        Some("query") => return run_query(args.into_iter().skip(1)),
        _ => {}
    }
    let mut shared = Shared::default();
    let mut quick = false;
    let mut json = false;
    let mut progress = false;
    let mut telemetry_path: Option<String> = None;
    let mut mode: Option<(String, Run)> = None;
    let mut fabric_checkpoint: Option<String> = None;
    let mut fabric_kill_one = false;
    let mut fabric_self_kill = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut iter = args.iter().cloned();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            // `serve`/`query` only.
            "--addr-file" => usage_error(&format!("unknown flag: {arg}")),
            _ if shared.parse(&arg, &mut iter) => {}
            "--quick" => quick = true,
            "--json" => json = true,
            "--progress" => progress = true,
            "--telemetry" => telemetry_path = Some(value(&mut iter, &arg, "a file path")),
            "--plan" => claim(&mut mode, &arg, Run::Plan),
            "--fabric" => {
                let spec = value(&mut iter, &arg, "workers=N");
                let count = spec
                    .strip_prefix("workers=")
                    .and_then(|n| n.parse::<usize>().ok())
                    .filter(|&n| n > 0);
                let Some(n) = count else {
                    usage_error(&format!(
                        "--fabric expects workers=N with N > 0, got `{spec}`"
                    ))
                };
                claim(&mut mode, &arg, Run::Driver(n));
            }
            // Internal (fabric-worker) flag: pull leases from ADDR.
            "--fabric-worker" => {
                let addr = value(&mut iter, &arg, "an address");
                claim(&mut mode, &arg, Run::Worker(addr));
            }
            // Driver-side only: the coordinator owns the checkpoint file.
            "--fabric-checkpoint" => {
                fabric_checkpoint = Some(value(&mut iter, &arg, "a file path"));
            }
            "--fabric-kill-one" => fabric_kill_one = true,
            // Internal chaos hook, set by the driver on worker 0 under
            // --fabric-kill-one.
            "--fabric-self-kill" => fabric_self_kill = true,
            other if other.starts_with("--") => {
                usage_error(&format!("unknown flag: {other}"));
            }
            id => wanted.push(id.to_string()),
        }
    }
    let run = mode.map_or(Run::Direct, |(_, run)| run);
    match run {
        Run::Driver(n) if fabric_kill_one && n < 2 => {
            usage_error("--fabric-kill-one needs workers=2 or more to have survivors")
        }
        Run::Driver(_) => {}
        _ if fabric_checkpoint.is_some() || fabric_kill_one => {
            usage_error("--fabric-checkpoint/--fabric-kill-one require --fabric workers=N")
        }
        _ => {}
    }
    if fabric_self_kill && !matches!(run, Run::Worker(_)) {
        usage_error("--fabric-self-kill is internal to fabric workers");
    }
    if matches!(run, Run::Plan) && telemetry_path.is_some() {
        usage_error("--telemetry with --plan would write a vacuously empty sidecar");
    }
    // Every id is checked before any session is installed or worker
    // spawned, so a typo runs nothing. Besides the experiment ids, `all`
    // expands below and `none` selects nothing (a bare process start,
    // which perfbench times as `bench.process_start_ms`).
    let experiment = |id: &str| {
        EXPERIMENTS
            .iter()
            .find(|(name, _)| *name == id)
            .map(|&(_, run)| run)
    };
    if let Some(bad) = wanted
        .iter()
        .find(|w| !matches!(w.as_str(), "all" | "none") && experiment(w).is_none())
    {
        usage_error(&format!("unknown experiment: {bad}"));
    }
    // `all` (or no id) stays x1..x9: the topology sweeps are the
    // heaviest tables and are selected explicitly, so an explicit `x11`
    // and then `x10` survive an `all` expansion, in that order.
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        let explicit: Vec<String> = ["x11", "x10"]
            .into_iter()
            .filter(|id| wanted.iter().any(|w| w == id))
            .map(String::from)
            .collect();
        wanted = ["x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9"]
            .map(String::from)
            .to_vec();
        wanted.extend(explicit);
    }
    let selected: Vec<Experiment> = wanted.iter().filter_map(|w| experiment(w)).collect();
    // The telemetry sink rides on the runner of every process that
    // *executes* sweeps. A fabric worker always carries one — its
    // snapshot rides the socket in its `Finished` frame; the driver
    // replays its workers' merged reports and samples its coordinator's
    // progress, so it needs none.
    let local_sink = match run {
        Run::Worker(_) => true,
        Run::Driver(_) | Run::Plan => false,
        Run::Direct => progress || telemetry_path.is_some(),
    };
    let mut runner = Runner::sequential();
    if local_sink {
        runner = runner.with_metrics(Arc::new(Metrics::new()));
    }

    // The fabric driver's merged worker snapshot (written after the
    // replayed render below, so a failed replay never leaves a sidecar).
    let mut fabric_snapshot: Option<TelemetrySnapshot> = None;
    let mode = match run {
        Run::Direct => Mode::Direct,
        Run::Plan => Mode::Plan,
        Run::Worker(addr) => Mode::Worker(Worker::join(&addr, fabric_self_kill)),
        Run::Driver(m) => {
            let outcome = run_fabric(
                m,
                &worker_args(&args),
                progress,
                fabric_checkpoint.as_deref(),
                fabric_kill_one,
            );
            let stats = outcome.stats;
            if stats.reassigned > 0 || stats.duplicates > 0 || stats.resumed > 0 {
                eprintln!(
                    "fabric: {} range(s) reassigned, {} duplicate result(s) discarded, \
                     {} range(s) resumed from checkpoint",
                    stats.reassigned, stats.duplicates, stats.resumed
                );
            }
            fabric_snapshot = Some(outcome.telemetry);
            Mode::Replay(Replay::new(
                outcome.sweeps,
                format!("fabric coordinator ({m} workers)"),
            ))
        }
    };
    let cfg = Config {
        quick,
        json,
        runner,
    };
    session::install(shared.session(mode));

    // Live progress of a direct run, over its local sink (a fabric
    // worker never gets `--progress`; the driver's display samples the
    // coordinator).
    let reporter = cfg
        .runner
        .metrics()
        .filter(|_| progress)
        .map(ProgressReporter::human);

    for experiment in selected {
        experiment(&cfg);
    }

    if let Some(reporter) = reporter {
        reporter.finish();
    }
    // Ends the mode: a driver checks that its replay consumed every
    // merged report; a worker delivers its telemetry snapshot over the
    // socket and half-closes, so the coordinator sees a clean end.
    session::finish(&cfg.runner);
    // Telemetry emission, after every exact byte of output is out: the
    // merged worker sidecar for the fabric driver, the local sink's
    // otherwise.
    if let Some(path) = &telemetry_path {
        let snapshot = fabric_snapshot.or_else(|| cfg.runner.metrics().map(|m| m.snapshot()));
        if let Some(snapshot) = snapshot {
            write_sidecar(path, &snapshot);
        }
    }
}

/// Runs one experiment: prints its sections and emits its rows.
type Experiment = fn(&Config);

/// Every experiment id and the function that runs it.
const EXPERIMENTS: [(&str, Experiment); 11] = [
    ("x1", x1),
    ("x2", x2),
    ("x3", x3),
    ("x4", x4),
    ("x5", x5),
    ("x6", x6),
    ("x7", x7),
    ("x8", x8),
    ("x9", x9),
    ("x10", x10),
    ("x11", x11),
];

fn x1(cfg: &Config) {
    section(
        cfg,
        "\n## X1 — Proposition 2.1: Cheap (cost <= 3E, time <= (2L+1)E)\n",
    );
    let (n, ls): (usize, Vec<u64>) = if cfg.quick {
        (8, vec![2, 4, 8])
    } else {
        (12, vec![2, 4, 8, 16, 32])
    };
    let rows = x1_cheap::run(
        n,
        &ls,
        ls.iter().max().copied().unwrap_or(8) <= 8,
        &cfg.runner,
    );
    emit(cfg, "x1", &rows, x1_cheap::render(&rows));
}

fn x2(cfg: &Config) {
    section(
        cfg,
        "\n## X2 — Proposition 2.2: Fast (time and cost O(E log L))\n",
    );
    let (n, ls): (usize, Vec<u64>) = if cfg.quick {
        (8, vec![2, 8, 32])
    } else {
        (12, vec![2, 4, 8, 16, 64, 256])
    };
    let rows = x2_fast::run(n, &ls, false, &cfg.runner);
    emit(cfg, "x2", &rows, x2_fast::render(&rows));
}

fn x3(cfg: &Config) {
    section(
        cfg,
        "\n## X3 — Proposition 2.3 / Corollary 2.1: FastWithRelabeling(w)\n",
    );
    section(cfg, "### Analytic bounds (per E)\n");
    let ls: Vec<u64> = if cfg.quick {
        vec![16, 256]
    } else {
        vec![16, 64, 256, 1024, 4096]
    };
    let rows = x3_relabel::run_bounds(&ls, &[1, 2, 3, 4]);
    emit(cfg, "x3-bounds", &rows, x3_relabel::render_bounds(&rows));
    section(cfg, "\n### Measured on an oriented ring\n");
    let (n, l) = if cfg.quick { (6, 8) } else { (10, 16) };
    let rows = x3_relabel::run_exec(n, l, &[1, 2, 3, 4], &cfg.runner);
    emit(cfg, "x3-exec", &rows, x3_relabel::render_exec(&rows));
}

fn x4(cfg: &Config) {
    section(cfg, "\n## X4 — The time/cost tradeoff frontier\n");
    let (n, l, ws): (usize, u64, Vec<u64>) = if cfg.quick {
        (8, 32, vec![2, 3])
    } else {
        (12, 64, vec![1, 2, 3, 4, 5])
    };
    let points = x4_tradeoff::run(n, l, &ws, &cfg.runner);
    emit(cfg, "x4", &points, x4_tradeoff::render(&points));
}

fn x5(cfg: &Config) {
    section(
        cfg,
        "\n## X5 — Theorem 3.1: cost E + o(E) forces time Omega(EL)\n",
    );
    let (n, ls): (usize, Vec<u64>) = if cfg.quick {
        (12, vec![4, 8])
    } else {
        (12, vec![4, 6, 8, 10, 12, 16])
    };
    let rows = x5_lb_time::run(n, &ls, &cfg.runner);
    emit(cfg, "x5", &rows, x5_lb_time::render(&rows));
}

fn x6(cfg: &Config) {
    section(
        cfg,
        "\n## X6 — Theorem 3.2: time O(E log L) forces cost Omega(E log L)\n",
    );
    let (n, ls): (usize, Vec<u64>) = if cfg.quick {
        (12, vec![4, 8])
    } else {
        (12, vec![4, 8, 16, 32])
    };
    let rows = x6_lb_cost::run(n, &ls, &cfg.runner);
    emit(cfg, "x6", &rows, x6_lb_cost::render(&rows));
}

fn x7(cfg: &Config) {
    section(cfg, "\n## X7 — Graph families and exploration scenarios\n");
    let l = if cfg.quick { 4 } else { 8 };
    let rows = x7_families::run(l, 0xBEEF, &cfg.runner);
    emit(cfg, "x7", &rows, x7_families::render(&rows));
}

fn x8(cfg: &Config) {
    section(
        cfg,
        "\n## X8 — Unknown E: iterated algorithms (Conclusion)\n",
    );
    let ns: Vec<usize> = if cfg.quick { vec![6] } else { vec![6, 12, 24] };
    let rows = x8_iterated::run(&ns, 4, &cfg.runner);
    emit(cfg, "x8", &rows, x8_iterated::render(&rows));
}

fn x10(cfg: &Config) {
    section(
        cfg,
        "\n## X10 — Topology sweep: 100+ seeded graphs per family\n",
    );
    let (l, cap) = if cfg.quick { (4, 6) } else { (6, 24) };
    let specs = x10_topologies::standard_topo_specs(cfg.quick);
    let report = x10_topologies::run(specs, l, cap, &cfg.runner);
    emit(
        cfg,
        "x10",
        &report.rows,
        x10_topologies::render(&report.rows),
    );
}

fn x11(cfg: &Config) {
    section(
        cfg,
        "\n## X11 — Gathering fleets across the topology grid\n",
    );
    let (l, cap) = if cfg.quick { (4, 4) } else { (6, 8) };
    let specs = x10_topologies::standard_topo_specs(cfg.quick);
    let report = x11_gathering_topo::run(
        specs,
        l,
        &x11_gathering_topo::standard_fleet_sizes(cfg.quick),
        &x11_gathering_topo::standard_phases(cfg.quick),
        cap,
        &cfg.runner,
    );
    emit(
        cfg,
        "x11",
        &report.rows,
        x11_gathering_topo::render(&report.rows),
    );
}

fn x9(cfg: &Config) {
    section(
        cfg,
        "\n## X9 — Extension: k-agent gathering by merge-and-restart\n",
    );
    let ks: Vec<usize> = if cfg.quick {
        vec![2, 3]
    } else {
        vec![2, 3, 4, 5, 6]
    };
    let rows = x9_gathering::run(12, 32, &ks, &cfg.runner);
    emit(cfg, "x9", &rows, x9_gathering::render(&rows));
}
