//! `perfbench`: end-to-end benchmark of the `experiments` binary and the
//! sweep service, with a separate traced run that times each layer by
//! calling its public functions.
//!
//! ```text
//! perfbench --experiments PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads: `tables`, `tables-fabric`, `serve-mixed` (see README.md
//! beside this package). The last line of stdout is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

mod layers;
mod session;
mod stats;
mod sys;
mod tables;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How many times a run sets up; `setup_s` is the median.
const SETUPS: usize = 5;

pub struct Args {
    pub exe: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["tables", "tables-fabric", "serve-mixed"];

fn parse_args() -> Result<Args, String> {
    let mut exe = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--experiments" => exe = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; expected one of {WORKLOADS:?}"
        ));
    }
    let exe = exe.ok_or("--experiments is required")?;
    if !exe.is_file() {
        return Err(format!("no experiments binary at {}", exe.display()));
    }
    Ok(Args {
        exe,
        workload,
        seed: seed.ok_or("--seed needs a whole number")?,
        seconds: seconds.ok_or("--seconds needs a positive number")?,
        trace: trace.ok_or("--trace needs 0 or 1")?,
    })
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The end-to-end metrics of one run.
pub fn end_to_end(
    samples_ms: &[f64],
    attempted: usize,
    failed: usize,
    setups_s: &[f64],
    peak_rss_kb: f64,
) -> Metrics {
    let tail = stats::tail(samples_ms);
    eprintln!("perfbench: samples (ms): {samples_ms:.1?}");
    eprintln!(
        "perfbench: {} samples; tail_ms is p{:.1}; {failed} of {attempted} operations failed",
        tail.samples, tail.percentile
    );
    let mut m = Metrics::default();
    m.put("setup_s", stats::median(setups_s), "s");
    m.put("p50_ms", stats::median(samples_ms), "ms");
    m.put("tail_ms", tail.value, "ms");
    m.put("peak_rss_mb", peak_rss_kb / 1024.0, "MB");
    m.put(
        "ok_frac",
        1.0 - failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    m
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn tables_workload(args: &Args, fabric: bool) -> Result<Outcome, String> {
    // A one-thread table run stays on one CPU, as `serve-mixed` does; a
    // fabric run has two busy workers and keeps both CPUs.
    let _pin = if fabric {
        None
    } else {
        Some(sys::Pinned::to_one_cpu()?)
    };
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        tables::warm_up(&args.exe, fabric)?;
        setups.push(secs_since(t));
    }
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut samples = Vec::new();
    let mut failed = 0;
    let mut rss = 0;
    while samples.is_empty() || Instant::now() < deadline {
        let s = tables::sample(&args.exe, fabric)?;
        if !s.stdout.is_some_and(|out| tables::matches_reference(&out)) {
            failed += 1;
        }
        samples.push(s.ms);
        rss = rss.max(s.peak_rss_kb);
    }
    Ok(Outcome {
        attempted: samples.len(),
        failed,
        metrics: end_to_end(&samples, samples.len(), failed, &setups, rss as f64),
    })
}

/// Sets up `serve-mixed` `times` times (fresh seeded store, server
/// start, one verified warm-up session), keeping the last server.
pub fn serve_setup(
    args: &Args,
    catalog: &session::Catalog,
    times: usize,
) -> Result<(session::Fixture, Vec<f64>), String> {
    let mut fixture: Option<session::Fixture> = None;
    let mut setups = Vec::new();
    for _ in 0..times {
        if let Some(previous) = fixture.take() {
            previous.stop()?;
        }
        let t = Instant::now();
        let fx = session::Fixture::start(&args.exe, catalog)?;
        let warm = session::script(args.seed, 0, catalog);
        let s = fx.session(catalog, &warm, &session::expected_misses(&warm), None);
        if s.failed > 0 {
            return Err(format!("{} warm-up queries failed", s.failed));
        }
        setups.push(secs_since(t));
        fixture = Some(fx);
    }
    Ok((fixture.expect("at least one set-up"), setups))
}

fn serve_workload(args: &Args) -> Result<Outcome, String> {
    let _pin = sys::Pinned::to_one_cpu()?;
    let catalog = session::catalog(args.seed);
    let (fx, setups) = serve_setup(args, &catalog, SETUPS)?;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut samples = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut index = 1;
    while samples.is_empty() || Instant::now() < deadline {
        let steps = session::script(args.seed, index, &catalog);
        let misses = session::expected_misses(&steps);
        let s = fx.session(&catalog, &steps, &misses, None);
        attempted += steps.len();
        failed += s.failed;
        samples.push(s.ms);
        index += 1;
    }
    let rss = fx
        .server_peak_rss_kb()
        .ok_or("cannot read the server's peak RSS")?;
    fx.stop()?;
    Ok(Outcome {
        attempted,
        failed,
        metrics: end_to_end(&samples, attempted, failed, &setups, rss as f64),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "perfbench: {e}\nusage: perfbench --experiments PATH --workload NAME \
             --seed N --seconds S --trace 0|1"
        );
        std::process::exit(2);
    });
    let result = match (args.workload.as_str(), args.trace) {
        (workload, true) => layers::traced(&args, workload),
        ("tables", false) => tables_workload(&args, false),
        ("tables-fabric", false) => tables_workload(&args, true),
        _ => serve_workload(&args),
    };
    match result {
        Ok(outcome) => println!("{}", outcome.json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
