//! Regenerates the paper's claims as markdown tables, one per experiment
//! (the index is in the crate docs).
//!
//! Usage:
//!
//! ```text
//! experiments [all|x1|x2|...|x11]... [--topo] [--quick] [--json]
//!             [--sequential|--parallel] [--engine batched|stepped]
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
//! the paper-scale ones set in each experiment's function below.
//! `--json` emits the raw rows as JSON (one document per experiment)
//! instead of markdown tables, for plotting pipelines — section headings
//! go to stderr in that mode, so stdout stays a clean JSON stream
//! (`experiments all --json | jq` works).
//!
//! Every experiment executes through the shared `rendezvous-runner`
//! engine. `--parallel` (the default) uses all hardware threads;
//! `--sequential` forces one thread. The two modes produce **identical**
//! tables — the runner folds outcomes in scenario order either way — so
//! diffing the outputs is a quick end-to-end determinism check:
//!
//! ```text
//! diff <(experiments all --quick --sequential) <(experiments all --quick --parallel)
//! ```
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
//! `timing`. Both compose with `--fabric workers=N`: each worker streams
//! `@progress` protocol lines over stderr (internal `--progress-stream`
//! flag) and sends its telemetry snapshot in its final `Finished` frame;
//! the driver aggregates the live display and merges the workers'
//! snapshots into one sidecar. Neither flag may change the experiment
//! output: CI byte-diffs telemetry-on against telemetry-off on every
//! push.
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
//! # Result store
//!
//! `--store DIR` puts a content-addressed read-through cache in front
//! of every recorded sweep: a hit returns the stored [`SweepReport`]
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
//! refusals for schema/fingerprint drift. `experiments query` is the
//! client; `query --direct` computes the same answer locally, and CI
//! byte-diffs the two.
//!
//! # Topology sweeps
//!
//! `x10` (alias `--topo`) sweeps 100+ **seeded graph instances per
//! family** ([`x10_topologies`]): the graph becomes an adversary axis.
//! `x11` composes that grid with the gathering generalization
//! ([`x11_gathering_topo`]): k-agent fleets gathered on every seeded
//! topology, each run checked against its own merge-and-restart bound.
//! `all` deliberately excludes both (they are the heaviest tables);
//! select them explicitly. The fabric works for them exactly as above —
//! a `TopoGrid` is just another `Workload`, so its per-family reports
//! are leased, merged and replayed like every grid sweep.

use rendezvous_bench::*;
use rendezvous_runner::Runner;
use rendezvous_telemetry::{ProgressHub, ProgressReporter, StderrPump, TelemetrySnapshot};
use std::sync::Arc;

struct Config {
    quick: bool,
    json: bool,
    /// Suppress the ordinary output: a fabric worker's rows are partial,
    /// and a `--plan` run prints only its plan lines.
    suppress_output: bool,
    runner: Runner,
}

/// Emits either the rendered markdown or the serialized rows — or
/// nothing, when the output is suppressed.
fn emit<R: serde::Serialize>(cfg: &Config, id: &str, rows: &[R], rendered: String) {
    if cfg.suppress_output {
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
/// `--json` mode (so stdout stays a clean JSON stream) and when the
/// output is suppressed.
fn section(cfg: &Config, heading: &str) {
    if cfg.json || cfg.suppress_output {
        eprintln!("{heading}");
    } else {
        println!("{heading}");
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Runs the selection on the distributed fabric: starts the loopback
/// coordinator, re-execs this binary `workers` times in
/// `--fabric-worker` mode, waits for every worker process, and returns
/// the coordinator's outcome: the merged per-sweep reports plus the
/// workers' merged telemetry (delivered over the socket in their
/// `Finished` frames).
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
        Some(path) => fab::checkpoint::load(std::path::Path::new(path)).unwrap_or_else(|e| {
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
    let hub = ProgressHub::new(workers);
    let mut pumps: Vec<StderrPump> = Vec::with_capacity(workers);
    let children: Vec<std::process::Child> = (0..workers)
        .map(|i| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(passthrough)
                .arg("--fabric-worker")
                .arg(&addr)
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::piped());
            if progress {
                cmd.arg("--progress-stream");
            }
            if kill_one && i == 0 {
                cmd.arg("--fabric-self-kill");
            }
            let mut child = cmd.spawn().unwrap_or_else(|e| {
                eprintln!("cannot spawn fabric worker {i}: {e}");
                std::process::exit(1);
            });
            let stderr = child.stderr.take().expect("worker stderr is piped");
            pumps.push(StderrPump::pump(stderr, &hub, i));
            child
        })
        .collect();
    let reporter = progress.then(|| ProgressReporter::aggregate(&hub));
    let statuses: Vec<std::io::Result<std::process::ExitStatus>> =
        children.into_iter().map(|mut c| c.wait()).collect();
    let diagnostics: Vec<String> = pumps.into_iter().map(StderrPump::finish).collect();
    if let Some(reporter) = reporter {
        reporter.finish();
    }
    match server.join() {
        Ok(outcome) => {
            for (i, status) in statuses.iter().enumerate() {
                match status {
                    Ok(s) if s.success() => {}
                    Ok(s) => eprintln!(
                        "fabric worker {i} exited abnormally ({s}); its leases were reassigned"
                    ),
                    Err(e) => eprintln!("cannot join fabric worker {i}: {e}"),
                }
            }
            outcome
        }
        Err(e) => {
            eprintln!("fabric run failed: {e}");
            for (i, status) in statuses.iter().enumerate() {
                if !matches!(status, Ok(s) if s.success()) {
                    eprintln!("fabric worker {i} diagnostics:\n{}", diagnostics[i]);
                }
            }
            std::process::exit(1);
        }
    }
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
fn run_serve(args: &[String]) {
    let mut store_dir: Option<String> = None;
    let mut addr_file: Option<String> = None;
    let mut sequential = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--store" => {
                store_dir = Some(
                    iter.next()
                        .cloned()
                        .unwrap_or_else(|| usage_error("--store requires a directory")),
                );
            }
            "--addr-file" => {
                addr_file = Some(
                    iter.next()
                        .cloned()
                        .unwrap_or_else(|| usage_error("--addr-file requires a file path")),
                );
            }
            "--engine" => {
                let name = iter
                    .next()
                    .unwrap_or_else(|| usage_error("--engine requires stepped or batched"));
                match engine::Engine::parse(name) {
                    Some(choice) => engine::set_engine(choice),
                    None => usage_error(&format!(
                        "--engine expects stepped or batched, got `{name}`"
                    )),
                }
            }
            "--sequential" => sequential = true,
            other => usage_error(&format!("unknown serve flag: {other}")),
        }
    }
    let dir = store_dir.unwrap_or_else(|| usage_error("serve requires --store DIR"));
    let runner = if sequential {
        Runner::sequential()
    } else {
        Runner::parallel()
    };
    let result = serve::serve(
        std::path::Path::new(&dir),
        addr_file.as_deref().map(std::path::Path::new),
        &runner,
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
/// reference local computation CI diffs a served answer against).
fn run_query(args: &[String]) {
    let mut addr: Option<String> = None;
    let mut addr_file: Option<String> = None;
    let mut token: Option<String> = None;
    let mut grid_algo: Option<String> = None;
    let mut spec_json: Option<String> = None;
    let mut l: Option<u64> = None;
    let mut cap: Option<usize> = None;
    let mut shutdown = false;
    let mut direct = false;
    let mut store_dir: Option<String> = None;
    let mut sequential = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => {
                addr = Some(
                    iter.next()
                        .cloned()
                        .unwrap_or_else(|| usage_error("--addr requires host:port")),
                );
            }
            "--addr-file" => {
                addr_file = Some(
                    iter.next()
                        .cloned()
                        .unwrap_or_else(|| usage_error("--addr-file requires a file path")),
                );
            }
            "--token" => {
                token = Some(
                    iter.next()
                        .cloned()
                        .unwrap_or_else(|| usage_error("--token requires a store token")),
                );
            }
            "--grid" => {
                grid_algo = Some(
                    iter.next()
                        .cloned()
                        .unwrap_or_else(|| usage_error("--grid requires cheap or fast")),
                );
            }
            "--spec" => {
                spec_json = Some(
                    iter.next()
                        .cloned()
                        .unwrap_or_else(|| usage_error("--spec requires a GraphSpec JSON value")),
                );
            }
            "--l" => {
                l = iter.next().and_then(|s| s.parse().ok());
                if l.is_none() {
                    usage_error("--l requires a label-space size");
                }
            }
            "--cap" => {
                cap = iter.next().and_then(|s| s.parse().ok());
                if cap.is_none() {
                    usage_error("--cap requires a scenario cap");
                }
            }
            "--shutdown" => shutdown = true,
            "--direct" => direct = true,
            "--store" => {
                store_dir = Some(
                    iter.next()
                        .cloned()
                        .unwrap_or_else(|| usage_error("--store requires a directory")),
                );
            }
            "--engine" => {
                let name = iter
                    .next()
                    .unwrap_or_else(|| usage_error("--engine requires stepped or batched"));
                match engine::Engine::parse(name) {
                    Some(choice) => engine::set_engine(choice),
                    None => usage_error(&format!(
                        "--engine expects stepped or batched, got `{name}`"
                    )),
                }
            }
            "--sequential" => sequential = true,
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
    if direct {
        if shutdown {
            usage_error("--shutdown needs a server; it cannot combine with --direct");
        }
        let runner = if sequential {
            Runner::sequential()
        } else {
            Runner::parallel()
        };
        match query {
            serve::Query::Token { token } => {
                let dir = store_dir
                    .unwrap_or_else(|| usage_error("query --direct --token requires --store DIR"));
                let store = rendezvous_store::Store::open(std::path::Path::new(&dir))
                    .unwrap_or_else(|e| {
                        eprintln!("cannot open the result store: {e}");
                        std::process::exit(1);
                    });
                match store.load_token(&token) {
                    Ok(entry) => {
                        eprintln!("query: cached {token}");
                        println!(
                            "{}",
                            serde_json::to_string_pretty(&entry.report)
                                .expect("serializable report")
                        );
                    }
                    Err(miss) => query_refused(&miss.to_string()),
                }
            }
            serve::Query::Grid {
                algorithm,
                spec,
                l,
                cap,
            } => {
                if let Some(dir) = &store_dir {
                    store::begin(std::path::Path::new(dir));
                }
                let report = x10_topologies::sweep_single_spec(&algorithm, spec, l, cap, &runner)
                    .unwrap_or_else(|| {
                        usage_error(&format!(
                            "unknown algorithm `{algorithm}` (expected cheap or fast)"
                        ))
                    });
                println!(
                    "{}",
                    serde_json::to_string_pretty(&report).expect("serializable report")
                );
            }
            serve::Query::Shutdown => unreachable!("rejected above"),
        }
        return;
    }
    let addr = match (addr, addr_file) {
        (Some(addr), None) => addr,
        (None, Some(path)) => std::fs::read_to_string(&path)
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|e| usage_error(&format!("cannot read --addr-file {path}: {e}"))),
        _ => usage_error("query needs exactly one of --addr or --addr-file (or --direct)"),
    };
    match serve::ask(&addr, &query) {
        Ok(reply) => render_reply(reply),
        Err(e) => {
            eprintln!("query failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return run_serve(&args[1..]),
        Some("query") => return run_query(&args[1..]),
        _ => {}
    }
    let mut quick = false;
    let mut json = false;
    let mut sequential = false;
    let mut parallel = false;
    let mut topo = false;
    let mut progress = false;
    let mut progress_stream = false;
    let mut telemetry_path: Option<String> = None;
    let mut plan = false;
    let mut fabric_workers: Option<usize> = None;
    let mut fabric_worker_addr: Option<String> = None;
    let mut fabric_checkpoint: Option<String> = None;
    let mut fabric_kill_one = false;
    let mut fabric_self_kill = false;
    let mut store_dir: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    // What each fabric worker re-runs (with its --fabric-worker ADDR
    // appended): the args minus the driver-only flags.
    let mut passthrough: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let mut forward = true;
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => json = true,
            "--sequential" => sequential = true,
            "--parallel" => parallel = true,
            "--topo" => topo = true,
            // Not forwarded: the fabric driver renders the aggregate
            // display itself and hands workers the stream flag below.
            "--progress" => {
                progress = true;
                forward = false;
            }
            // Not forwarded: each worker would clobber the driver's
            // sidecar; workers send their snapshots over the socket.
            "--telemetry" => {
                telemetry_path = Some(
                    iter.next()
                        .unwrap_or_else(|| usage_error("--telemetry requires a file path")),
                );
                continue;
            }
            // Internal (fabric-worker) flag: emit `@progress` protocol
            // lines on stderr for the driver.
            "--progress-stream" => {
                progress_stream = true;
                forward = false;
            }
            // Forwarded (flag and value) so fabric workers sweep through
            // the same engine as the driver.
            "--engine" => {
                let name = iter
                    .next()
                    .unwrap_or_else(|| usage_error("--engine requires stepped or batched"));
                match engine::Engine::parse(&name) {
                    Some(choice) => engine::set_engine(choice),
                    None => usage_error(&format!(
                        "--engine expects stepped or batched, got `{name}`"
                    )),
                }
                passthrough.push(arg);
                passthrough.push(name);
                continue;
            }
            // Forwarded (flag and value): every process of a run —
            // fabric workers and the driver — must open the same store
            // so all of them skip the same cached sweeps and their
            // cursors stay aligned.
            "--store" => {
                let dir = iter
                    .next()
                    .unwrap_or_else(|| usage_error("--store requires a directory"));
                store_dir = Some(dir.clone());
                passthrough.push(arg);
                passthrough.push(dir);
                continue;
            }
            // Not forwarded: workers get --fabric-worker ADDR instead.
            "--fabric" => {
                let spec = iter
                    .next()
                    .unwrap_or_else(|| usage_error("--fabric requires workers=N"));
                let count = spec
                    .strip_prefix("workers=")
                    .and_then(|n| n.parse::<usize>().ok())
                    .filter(|&n| n > 0);
                match count {
                    Some(n) => fabric_workers = Some(n),
                    None => usage_error(&format!(
                        "--fabric expects workers=N with N > 0, got `{spec}`"
                    )),
                }
                continue;
            }
            // Internal (fabric-worker) flag: pull leases from ADDR.
            "--fabric-worker" => {
                fabric_worker_addr = Some(
                    iter.next()
                        .unwrap_or_else(|| usage_error("--fabric-worker requires an address")),
                );
                continue;
            }
            // Driver-side only: the coordinator owns the checkpoint file.
            "--fabric-checkpoint" => {
                fabric_checkpoint =
                    Some(iter.next().unwrap_or_else(|| {
                        usage_error("--fabric-checkpoint requires a file path")
                    }));
                continue;
            }
            "--fabric-kill-one" => {
                fabric_kill_one = true;
                forward = false;
            }
            // Internal chaos hook, set by the driver on worker 0 under
            // --fabric-kill-one.
            "--fabric-self-kill" => {
                fabric_self_kill = true;
                forward = false;
            }
            "--plan" => {
                plan = true;
                forward = false;
            }
            other if other.starts_with("--") => {
                usage_error(&format!("unknown flag: {other}"));
            }
            id => wanted.push(id.to_string()),
        }
        if forward {
            passthrough.push(arg);
        }
    }
    if sequential && parallel {
        usage_error("--sequential and --parallel are mutually exclusive");
    }
    // One execution mode per invocation: the fabric driver, a fabric
    // worker, and the plan dry-run are mutually exclusive.
    if fabric_workers.is_some() && fabric_worker_addr.is_some() {
        usage_error("--fabric cannot be combined with the internal --fabric-worker");
    }
    if (fabric_checkpoint.is_some() || fabric_kill_one) && fabric_workers.is_none() {
        usage_error("--fabric-checkpoint/--fabric-kill-one require --fabric workers=N");
    }
    if fabric_kill_one && fabric_workers.is_some_and(|n| n < 2) {
        usage_error("--fabric-kill-one needs workers=2 or more to have survivors");
    }
    if fabric_self_kill && fabric_worker_addr.is_none() {
        usage_error("--fabric-self-kill is internal to fabric workers");
    }
    if plan && (fabric_workers.is_some() || fabric_worker_addr.is_some()) {
        usage_error("--plan executes nothing and cannot combine with fabric modes");
    }
    if plan && telemetry_path.is_some() {
        usage_error("--telemetry with --plan would write a vacuously empty sidecar");
    }
    // `all` stays x1..x9: the topology sweeps (x10/x11) are the heaviest
    // tables and are selected explicitly. `--topo` is a selector — alone
    // it runs just x10; next to ids (or `all`) it adds x10 to them. An
    // explicit `x10`/`x11` id survives an `all` expansion for the same
    // reason.
    let topo = topo || wanted.iter().any(|w| w == "x10");
    if wanted.iter().any(|w| w == "all") || (wanted.is_empty() && !topo) {
        let explicit_x11 = wanted.iter().any(|w| w == "x11");
        wanted = ["x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9"]
            .map(String::from)
            .to_vec();
        if explicit_x11 {
            wanted.push("x11".into());
        }
    }
    if topo && !wanted.iter().any(|w| w == "x10") {
        wanted.push("x10".into());
    }
    // Telemetry session: installed only in processes that *execute*
    // sweeps. The fabric driver replays its workers' merged reports, so
    // its observability flags translate into worker stream flags
    // instead of a local sink; a fabric worker always installs a sink —
    // its snapshot rides the socket in its `Finished` frame.
    let wants_local_telemetry = progress_stream
        || fabric_worker_addr.is_some()
        || (fabric_workers.is_none() && !plan && (progress || telemetry_path.is_some()));
    let session = wants_local_telemetry.then(telemetry::install);
    let mut runner = if sequential {
        Runner::sequential()
    } else {
        Runner::parallel()
    };
    if let Some(metrics) = &session {
        runner = runner.with_metrics(Arc::clone(metrics));
    }
    // Fabric workers and plan runs suppress ordinary emission: their
    // rows are partial (or absent), so stdout carries only the mode's
    // own stream (nothing for a worker, the plan lines for --plan).
    let cfg = Config {
        quick,
        json,
        suppress_output: fabric_worker_addr.is_some() || plan,
        runner,
    };

    // The read-through result store, installed before any execution
    // mode: the cache consultation happens per sweep inside
    // `sweep_recorded`, upstream of the fabric worker and replay.
    if let Some(dir) = &store_dir {
        store::begin(std::path::Path::new(dir));
    }

    // The fabric driver's merged worker snapshot (written after the
    // replayed render below, so a failed replay never leaves a sidecar).
    let mut fabric_snapshot: Option<TelemetrySnapshot> = None;
    if let Some(m) = fabric_workers {
        let outcome = run_fabric(
            m,
            &passthrough,
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
        if telemetry_path.is_some() {
            fabric_snapshot = Some(outcome.telemetry);
        }
        fabric::begin_replay(outcome.sweeps, format!("fabric coordinator ({m} workers)"));
    } else if let Some(addr) = &fabric_worker_addr {
        fabric::begin_worker(addr, fabric_self_kill);
    } else if plan {
        plan::enable();
    }

    // Live progress over the local session: `--progress-stream`
    // (machine lines for the fabric driver) wins over `--progress`
    // (human display) — a fabric worker never renders its own display.
    let reporter = match &session {
        Some(metrics) if progress_stream => Some(ProgressReporter::stream(metrics)),
        Some(metrics) if progress => Some(ProgressReporter::human(metrics)),
        _ => None,
    };

    for w in &wanted {
        match w.as_str() {
            "x1" => x1(&cfg),
            "x2" => x2(&cfg),
            "x3" => x3(&cfg),
            "x4" => x4(&cfg),
            "x5" => x5(&cfg),
            "x6" => x6(&cfg),
            "x7" => x7(&cfg),
            "x8" => x8(&cfg),
            "x9" => x9(&cfg),
            "x10" => x10(&cfg),
            "x11" => x11(&cfg),
            other => eprintln!("unknown experiment: {other}"),
        }
    }

    if let Some(reporter) = reporter {
        reporter.finish();
    }
    if fabric_workers.is_some() {
        fabric::finish_replay();
    }
    // A fabric worker's last act: deliver its telemetry snapshot over
    // the socket and half-close, letting the coordinator's handler see
    // a clean end of conversation.
    if fabric_worker_addr.is_some() {
        fabric::finish_worker();
    }
    // Telemetry emission, after every exact byte of output is out: the
    // sidecar file for a local session, the merged worker sidecar for
    // the fabric driver.
    if let Some(path) = &telemetry_path {
        if let Some(metrics) = &session {
            write_sidecar(path, &metrics.snapshot());
        }
        if let Some(snapshot) = &fabric_snapshot {
            write_sidecar(path, snapshot);
        }
    }
}

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
