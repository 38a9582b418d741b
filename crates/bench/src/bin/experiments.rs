//! Regenerates the paper's claims as markdown tables (see `DESIGN.md` §4).
//!
//! Usage:
//!
//! ```text
//! experiments [all|x1|x2|...|x11]... [--topo] [--quick] [--json]
//!             [--sequential|--parallel] [--engine batched|stepped]
//!             [--progress] [--telemetry FILE] [--plan] [--store DIR]
//!             [--shard i/m [--emit-shard]] [--merge-shards FILE...]
//!             [--spawn-shards m]
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
//! the ones recorded in `EXPERIMENTS.md`. `--json` emits the raw rows as
//! JSON (one document per experiment) instead of markdown tables, for
//! plotting pipelines — section headings go to stderr in that mode, so
//! stdout stays a clean JSON stream (`experiments all --json | jq` works).
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
//! # Sharded sweeps (multi-process)
//!
//! `--shard i/m --emit-shard` executes only shard `i` of every
//! adversarial grid and prints a JSON ledger of per-sweep partial stats
//! instead of tables; `--merge-shards` merges the `m` ledgers and renders
//! the ordinary output from the merged stats — byte-identical to a
//! single-process run with the same selection and flags:
//!
//! ```text
//! for i in 0 1 2; do experiments x1 --json --shard $i/3 --emit-shard > s$i.json; done
//! experiments x1 --json --merge-shards s0.json s1.json s2.json   # == experiments x1 --json
//! ```
//!
//! `--spawn-shards m` automates the loop above in one invocation: it
//! re-execs this binary `m` times with `--shard i/m`, captures the
//! ledgers in memory, merges them, and renders the ordinary output —
//! still byte-identical to the single-process run.
//!
//! # Observability
//!
//! `--progress` renders a live pieces/scenarios/rate/ETA line to stderr
//! while sweeps execute (stdout untouched); `--telemetry FILE` writes a
//! deterministic `TELEMETRY.json` sidecar after the run — exact
//! counters in sorted sections, wall-clock data quarantined under
//! `timing`. Both compose with `--spawn-shards m`: each child streams
//! `@progress`/`@telemetry` protocol lines over stderr (internal
//! `--progress-stream`/`--telemetry-stream` flags), the parent
//! aggregates the live display and merges the children's snapshots
//! into one sidecar. Neither flag may change the experiment output:
//! CI byte-diffs telemetry-on against telemetry-off on every push.
//! `--telemetry` with `--merge-shards` is rejected — a merge replays
//! recorded sweeps and executes nothing, so its sidecar would be
//! vacuously empty.
//!
//! # Distributed fabric
//!
//! `--fabric workers=N` runs the selection on the coordinator/worker
//! fabric (`rendezvous-fabric`): the driver starts a loopback
//! coordinator, re-execs itself `N` times with the internal
//! `--fabric-worker ADDR` flag, and workers *pull* small lease-sized
//! ranges of every sweep instead of owning fixed stride shards — so
//! uneven pieces balance themselves, and a worker that dies mid-piece
//! (heartbeat silence or a dropped connection) has its in-flight ranges
//! requeued to the survivors. The merged output is byte-identical to
//! the direct run; CI diffs it — with and without a SIGKILL'd worker —
//! on every push. `--fabric-checkpoint FILE` appends one JSONL record
//! per completed range, and a rerun against the same file re-executes
//! zero completed ranges (`--fabric-kill-one` is the chaos switch CI
//! uses: worker 0 SIGKILLs itself after its first completed lease).
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
//! as usual (through whatever topology the run uses — `--store`
//! composes with `--spawn-shards` and `--fabric`, the flag is
//! forwarded to every child process so all of them skip the same
//! cached sweeps) and writes the full report back. A warm rerun is
//! byte-identical to the cold one, CI-checked. With `--plan` each line
//! gains a `store=cached|miss` column. Shard/merge and fabric runs
//! must all use the same `--store` setting (and store state): the
//! cache changes *which* sweeps produce ledger records, so mixing
//! cached and uncached artifacts in one merge is a diagnosed error.
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
//! select them explicitly. Sharding works for them exactly as above —
//! a `TopoGrid` is just another `Workload`, so its per-family reports
//! ride the same unified ledger as every grid sweep.

use rendezvous_bench::*;
use rendezvous_runner::Runner;
use rendezvous_telemetry::{
    telemetry_line, ProgressHub, ProgressReporter, StderrPump, TelemetrySnapshot,
};
use std::sync::Arc;

struct Config {
    quick: bool,
    json: bool,
    /// Shard mode: suppress the ordinary output (the shard ledger goes to
    /// stdout instead).
    emit_shard: bool,
    runner: Runner,
}

/// Emits either the rendered markdown or the serialized rows. In
/// `--emit-shard` mode nothing is emitted: the rows are partial (one
/// shard's worth of scenarios) and stdout is reserved for the ledger.
fn emit<R: serde::Serialize>(cfg: &Config, id: &str, rows: &[R], rendered: String) {
    if cfg.emit_shard {
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
/// `--json` and `--emit-shard` modes so stdout stays a clean JSON stream.
fn section(cfg: &Config, heading: &str) {
    if cfg.json || cfg.emit_shard {
        eprintln!("{heading}");
    } else {
        println!("{heading}");
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Parses `i/m` (as in `--shard 1/3`) into `(shard, of)`.
fn parse_shard_spec(spec: &str) -> (usize, usize) {
    let parsed = spec.split_once('/').and_then(|(i, m)| {
        let shard: usize = i.parse().ok()?;
        let of: usize = m.parse().ok()?;
        (of > 0 && shard < of).then_some((shard, of))
    });
    match parsed {
        Some(pair) => pair,
        None => usage_error(&format!(
            "--shard expects i/m with i < m (e.g. --shard 1/3), got `{spec}`"
        )),
    }
}

/// Re-execs this binary once per shard (same selection and flags plus
/// `--shard i/m`), parses the emitted ledgers, and returns them merged —
/// the driver mode that closes the "spawn the shards and merge
/// automatically" loop without temp files.
///
/// With `progress` the children stream `@progress` protocol lines and
/// the parent renders their aggregated live display; with `telemetry`
/// each child's final `@telemetry` snapshot is captured and the merged
/// snapshot returned (merge order is irrelevant — the fold is
/// associative and commutative, property-tested in the telemetry
/// crate). Every child's stderr is drained on a pump thread either
/// way, so a failed shard's diagnostics still surface verbatim.
fn spawn_shards(
    m: usize,
    passthrough: &[String],
    progress: bool,
    telemetry: bool,
) -> (sharding::MergedLedger, Option<TelemetrySnapshot>) {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate own binary: {e}");
        std::process::exit(1);
    });
    // Launch every child before collecting any, so the shards actually
    // overlap in wall-clock time; collection order is irrelevant to the
    // result (the merge validates and sorts by shard index).
    let hub = ProgressHub::new(m);
    let mut pumps: Vec<StderrPump> = Vec::with_capacity(m);
    let children: Vec<std::process::Child> = (0..m)
        .map(|i| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(passthrough)
                .arg("--shard")
                .arg(format!("{i}/{m}"))
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::piped());
            if progress {
                cmd.arg("--progress-stream");
            }
            if telemetry {
                cmd.arg("--telemetry-stream");
            }
            let mut child = cmd.spawn().unwrap_or_else(|e| {
                eprintln!("cannot spawn shard {i}/{m}: {e}");
                std::process::exit(1);
            });
            let stderr = child.stderr.take().expect("child stderr is piped");
            pumps.push(StderrPump::pump(stderr, &hub, i));
            child
        })
        .collect();
    let reporter = progress.then(|| ProgressReporter::aggregate(&hub));
    // Join (and thereby reap) every child before inspecting any status:
    // bailing out on the first failure would orphan the still-running
    // shards mid-sweep. A failed shard is a runtime failure (exit 1),
    // not a usage error.
    let outputs: Vec<std::io::Result<std::process::Output>> = children
        .into_iter()
        .map(std::process::Child::wait_with_output)
        .collect();
    // Children have exited, so the pumps see EOF; join them (and stop
    // the live display) before any diagnostics are printed.
    let drained: Vec<(String, Option<TelemetrySnapshot>)> =
        pumps.into_iter().map(StderrPump::finish).collect();
    if let Some(reporter) = reporter {
        reporter.finish();
    }
    let emissions: Vec<sharding::ShardEmission> = outputs
        .into_iter()
        .enumerate()
        .map(|(i, output)| {
            let output = output.unwrap_or_else(|e| {
                eprintln!("cannot join shard {i}/{m}: {e}");
                std::process::exit(1);
            });
            if !output.status.success() {
                eprintln!(
                    "shard {i}/{m} failed ({}):\n{}",
                    output.status, drained[i].0
                );
                std::process::exit(1);
            }
            let text = String::from_utf8_lossy(&output.stdout);
            serde_json::from_str(&text).unwrap_or_else(|e| {
                eprintln!("shard {i}/{m} emitted an invalid ledger: {e}");
                std::process::exit(1);
            })
        })
        .collect();
    let snapshot = telemetry.then(|| {
        drained
            .iter()
            .enumerate()
            .map(|(i, (_, snap))| {
                snap.as_ref().unwrap_or_else(|| {
                    eprintln!("shard {i}/{m} exited without a telemetry snapshot");
                    std::process::exit(1);
                })
            })
            .fold(TelemetrySnapshot::empty(), |acc, s| acc.merge(s))
    });
    let names: Vec<String> = (0..m).map(|i| format!("spawned shard {i}/{m}")).collect();
    let merged = sharding::merge_emissions(emissions, &names).unwrap_or_else(|e| {
        eprintln!("cannot merge spawned shards: {e}");
        std::process::exit(1);
    });
    (merged, snapshot)
}

/// Runs the selection on the distributed fabric: starts the loopback
/// coordinator, re-execs this binary `workers` times in
/// `--fabric-worker` mode, waits for every worker process, and returns
/// the coordinator's merged per-sweep ledger plus the workers' merged
/// telemetry (delivered over the socket in their `Finished` frames).
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
) -> (
    sharding::MergedLedger,
    TelemetrySnapshot,
    rendezvous_fabric::FabricStats,
) {
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
    let drained: Vec<(String, Option<TelemetrySnapshot>)> =
        pumps.into_iter().map(StderrPump::finish).collect();
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
            let records: Vec<sharding::LedgerRecord> = outcome
                .sweeps
                .into_iter()
                .map(|(meta, report)| sharding::LedgerRecord::new(meta, report))
                .collect();
            let merged = sharding::MergedLedger {
                records,
                source: format!("fabric coordinator ({workers} workers)"),
            };
            (merged, outcome.telemetry, outcome.stats)
        }
        Err(e) => {
            eprintln!("fabric run failed: {e}");
            for (i, status) in statuses.iter().enumerate() {
                if !matches!(status, Ok(s) if s.success()) {
                    eprintln!("fabric worker {i} diagnostics:\n{}", drained[i].0);
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
    let mut emit_shard = false;
    let mut topo = false;
    let mut progress = false;
    let mut progress_stream = false;
    let mut telemetry_stream = false;
    let mut telemetry_path: Option<String> = None;
    let mut shard: Option<(usize, usize)> = None;
    let mut spawn: Option<usize> = None;
    let mut merge_files: Option<Vec<String>> = None;
    let mut plan = false;
    let mut fabric_workers: Option<usize> = None;
    let mut fabric_worker_addr: Option<String> = None;
    let mut fabric_checkpoint: Option<String> = None;
    let mut fabric_kill_one = false;
    let mut fabric_self_kill = false;
    let mut store_dir: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    // Args minus the --spawn-shards directive itself: what each spawned
    // child re-runs (with its --shard i/m appended).
    let mut passthrough: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let mut forward = true;
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => json = true,
            "--sequential" => sequential = true,
            "--parallel" => parallel = true,
            "--emit-shard" => emit_shard = true,
            "--topo" => topo = true,
            // Not forwarded: the spawn driver renders the aggregate
            // display itself and hands children the stream flags below.
            "--progress" => {
                progress = true;
                forward = false;
            }
            // Not forwarded: each child would clobber the parent's
            // sidecar; the driver merges child snapshots instead.
            "--telemetry" => {
                telemetry_path = Some(
                    iter.next()
                        .unwrap_or_else(|| usage_error("--telemetry requires a file path")),
                );
                continue;
            }
            // Internal (spawned-child) flags: emit `@progress` /
            // `@telemetry` protocol lines on stderr for the parent.
            "--progress-stream" => {
                progress_stream = true;
                forward = false;
            }
            "--telemetry-stream" => {
                telemetry_stream = true;
                forward = false;
            }
            // Not forwarded: --shard cannot combine with --spawn-shards
            // (rejected below), so passthrough never carries a shard spec.
            "--shard" => {
                let spec = iter
                    .next()
                    .unwrap_or_else(|| usage_error("--shard requires an i/m argument"));
                shard = Some(parse_shard_spec(&spec));
                continue;
            }
            // Forwarded (flag and value) so spawned shards sweep through
            // the same engine as the parent.
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
            // spawned shards, fabric workers, the driver — must open
            // the same store so all of them skip the same cached
            // sweeps and their ledgers/cursors stay aligned.
            "--store" => {
                let dir = iter
                    .next()
                    .unwrap_or_else(|| usage_error("--store requires a directory"));
                store_dir = Some(dir.clone());
                passthrough.push(arg);
                passthrough.push(dir);
                continue;
            }
            "--spawn-shards" => {
                let count = iter
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&m| m > 0)
                    .unwrap_or_else(|| {
                        usage_error("--spawn-shards requires a positive shard count")
                    });
                spawn = Some(count);
                forward = false;
            }
            "--merge-shards" => {
                // Everything after --merge-shards is a shard ledger file;
                // experiment ids go before the flag.
                merge_files = Some(iter.by_ref().collect());
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
    if emit_shard && shard.is_none() {
        usage_error("--emit-shard requires --shard i/m");
    }
    // --shard implies --emit-shard: a shard run's rows are partial (one
    // shard's worth of scenarios) and would be indistinguishable from full
    // results, so the only meaningful stdout for a shard run is the ledger.
    let emit_shard = emit_shard || shard.is_some();
    if merge_files.is_some() && (shard.is_some() || emit_shard) {
        usage_error("--merge-shards cannot be combined with --shard/--emit-shard");
    }
    if spawn.is_some() && (shard.is_some() || emit_shard || merge_files.is_some()) {
        usage_error("--spawn-shards cannot be combined with --shard/--emit-shard/--merge-shards");
    }
    if telemetry_path.is_some() && merge_files.is_some() {
        usage_error(
            "--telemetry cannot be combined with --merge-shards: a merge replays recorded \
             sweeps and executes nothing, so the sidecar would be vacuously empty",
        );
    }
    // One execution topology per invocation: the fabric, the shard
    // machinery, and the plan dry-run are mutually exclusive modes.
    let sharded = shard.is_some() || emit_shard || spawn.is_some() || merge_files.is_some();
    if fabric_workers.is_some() && (sharded || fabric_worker_addr.is_some()) {
        usage_error("--fabric cannot be combined with --shard/--spawn-shards/--merge-shards");
    }
    if fabric_worker_addr.is_some() && sharded {
        usage_error("--fabric-worker cannot be combined with the shard flags");
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
    if plan && (sharded || fabric_workers.is_some() || fabric_worker_addr.is_some()) {
        usage_error("--plan executes nothing and cannot combine with shard or fabric modes");
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
    // sweeps. The spawn and fabric drivers replay their children's
    // merged ledgers, so observability flags translate into child
    // stream flags instead of a local sink; a spawned child always has
    // the stream flags, and a fabric worker always installs a sink —
    // its snapshot rides the socket in its `Finished` frame.
    let wants_local_telemetry = progress_stream
        || telemetry_stream
        || fabric_worker_addr.is_some()
        || (spawn.is_none()
            && fabric_workers.is_none()
            && !plan
            && (progress || telemetry_path.is_some()));
    let session = wants_local_telemetry.then(telemetry::install);
    let mut runner = if sequential {
        Runner::sequential()
    } else {
        Runner::parallel()
    };
    if let Some(metrics) = &session {
        runner = runner.with_metrics(Arc::clone(metrics));
    }
    // Fabric workers and plan runs suppress ordinary emission exactly
    // like shard runs: their rows are partial (or absent), so stdout
    // carries only the mode's own stream (nothing for a worker, the
    // plan lines for --plan).
    let cfg = Config {
        quick,
        json,
        emit_shard: emit_shard || fabric_worker_addr.is_some() || plan,
        runner,
    };

    // The read-through result store, installed before any execution
    // mode: the cache consultation happens per sweep inside
    // `sweep_recorded`, upstream of the shard/fabric/replay machinery.
    if let Some(dir) = &store_dir {
        store::begin(std::path::Path::new(dir));
    }

    // The spawn/fabric drivers' merged child snapshot (written after the
    // replayed render below, so a failed replay never leaves a sidecar).
    let mut spawned_snapshot: Option<TelemetrySnapshot> = None;
    if let Some((i, m)) = shard {
        sharding::begin_shard(i, m);
    } else if let Some(m) = spawn {
        let (merged, snapshot) = spawn_shards(m, &passthrough, progress, telemetry_path.is_some());
        spawned_snapshot = snapshot;
        sharding::begin_replay(merged.records, merged.source);
    } else if let Some(m) = fabric_workers {
        let (merged, snapshot, stats) = run_fabric(
            m,
            &passthrough,
            progress,
            fabric_checkpoint.as_deref(),
            fabric_kill_one,
        );
        if stats.reassigned > 0 || stats.duplicates > 0 || stats.resumed > 0 {
            eprintln!(
                "fabric: {} range(s) reassigned, {} duplicate result(s) discarded, \
                 {} range(s) resumed from checkpoint",
                stats.reassigned, stats.duplicates, stats.resumed
            );
        }
        if telemetry_path.is_some() {
            spawned_snapshot = Some(snapshot);
        }
        sharding::begin_replay(merged.records, merged.source);
    } else if let Some(addr) = &fabric_worker_addr {
        fabric::begin_worker(addr, fabric_self_kill);
    } else if plan {
        plan::enable();
    } else if let Some(files) = &merge_files {
        let emissions: Vec<sharding::ShardEmission> = files
            .iter()
            .map(|path| {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| usage_error(&format!("cannot read {path}: {e}")));
                serde_json::from_str(&text)
                    .unwrap_or_else(|e| usage_error(&format!("{path} is not a shard ledger: {e}")))
            })
            .collect();
        let merged = sharding::merge_emissions(emissions, files)
            .unwrap_or_else(|e| usage_error(&format!("cannot merge shards: {e}")));
        sharding::begin_replay(merged.records, merged.source);
    }

    // Live progress over the local session: `--progress-stream`
    // (machine lines for a parent driver) wins over `--progress`
    // (human display) — a spawned child never renders its own display.
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
    if shard.is_some() {
        let emission = sharding::finish_shard();
        println!(
            "{}",
            serde_json::to_string_pretty(&emission).expect("serializable ledger")
        );
    } else if spawn.is_some() || merge_files.is_some() || fabric_workers.is_some() {
        sharding::finish_replay();
    }
    // A fabric worker's last act: deliver its telemetry snapshot over
    // the socket and half-close, letting the coordinator's handler see
    // a clean end of conversation.
    if fabric_worker_addr.is_some() {
        fabric::finish_worker();
    }
    // Telemetry emission, after every exact byte of output is out: the
    // final `@telemetry` protocol line for a parent driver, the sidecar
    // file for a local session, the merged child sidecar for the spawn
    // driver.
    if let Some(metrics) = &session {
        if telemetry_stream {
            eprintln!("{}", telemetry_line(&metrics.snapshot()));
        }
        if let Some(path) = &telemetry_path {
            write_sidecar(path, &metrics.snapshot());
        }
    }
    if let (Some(path), Some(snapshot)) = (&telemetry_path, &spawned_snapshot) {
        write_sidecar(path, snapshot);
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
