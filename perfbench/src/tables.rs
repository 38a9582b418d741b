//! The `tables` and `tables-fabric` workloads: fresh `experiments`
//! processes regenerating every table at the paper's parameters, each
//! sample's stdout checked against the reference digest, plus the
//! in-process pass that times each experiment for the traced run.

use crate::sys::{Reaped, TreeWatch};
use crate::trace::Tracer;
use rendezvous_bench::{
    x10_topologies, x11_gathering_topo, x1_cheap, x2_fast, x3_relabel, x4_tradeoff, x5_lb_time,
    x6_lb_cost, x7_families, x8_iterated, x9_gathering,
};
use rendezvous_runner::Runner;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The selection both table workloads run: every table, one thread.
pub const SELECTION: [&str; 4] = ["all", "x10", "x11", "--sequential"];

/// Added for `tables-fabric`.
pub const FABRIC: [&str; 2] = ["--fabric", "workers=2"];

/// Digest and length of the selection's stdout, kept with the benchmark.
const REFERENCE: &str = include_str!("../reference.json");

pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[derive(serde::Deserialize)]
struct Reference {
    bytes: usize,
    fnv1a64: String,
}

/// True when `stdout` is the reference output.
pub fn matches_reference(stdout: &[u8]) -> bool {
    let reference: Reference =
        serde_json::from_str(REFERENCE).expect("reference.json holds bytes and fnv1a64");
    let digest = format!("{:016x}", fnv1a64(stdout));
    let ok = reference.bytes == stdout.len() && reference.fnv1a64 == digest;
    if !ok {
        eprintln!(
            "perfbench: stdout differs from the reference: {} bytes, fnv1a64 {digest}",
            stdout.len()
        );
    }
    ok
}

fn command(exe: &Path, fabric: bool, quick: bool) -> Command {
    let mut cmd = Command::new(exe);
    cmd.args(SELECTION);
    if fabric {
        cmd.args(FABRIC);
    }
    if quick {
        cmd.arg("--quick");
    }
    cmd.stdin(Stdio::null()).stderr(Stdio::null());
    cmd
}

/// One timed sample of a table workload.
pub struct Sample {
    /// Wall time from spawn to exit.
    pub ms: f64,
    /// Peak RSS of the process and its workers, in KiB.
    pub peak_rss_kb: u64,
    /// Stdout, when the process exited cleanly.
    pub stdout: Option<Vec<u8>>,
}

pub fn sample(exe: &Path, fabric: bool) -> Result<Sample, String> {
    let mut cmd = command(exe, fabric, false);
    cmd.stdout(Stdio::piped());
    let start = Instant::now();
    let child = Reaped::spawn(&mut cmd)?;
    let watch = TreeWatch::start(child.id());
    let out = child.wait_with_output();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let peak_rss_kb = watch.finish();
    let out = out?;
    if !out.status.success() {
        eprintln!("perfbench: experiments exited with {}", out.status);
    }
    Ok(Sample {
        ms,
        peak_rss_kb,
        stdout: out.status.success().then_some(out.stdout),
    })
}

/// Set-up before the first sample: a `--quick` run of the same
/// selection and mode, which pages in the binary and every code path.
pub fn warm_up(exe: &Path, fabric: bool) -> Result<(), String> {
    let mut cmd = command(exe, fabric, true);
    cmd.stdout(Stdio::null());
    let status = Reaped::spawn(&mut cmd)?.wait()?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("warm-up run exited with {status}"))
    }
}

/// What the in-process pass produced.
pub struct Pass {
    /// The concatenated renders, in the binary's order.
    pub renders: String,
    /// X10's report, whose sweeps the traced runner sweep is checked
    /// against.
    pub x10: x10_topologies::Report,
}

fn render(t: &mut Tracer, out: &mut String, f: impl FnOnce() -> String) {
    out.push_str(&t.span("bench.render", |_| f()));
}

/// Runs every experiment of [`SELECTION`] in process, at the binary's
/// own parameters and in its order, with one span per experiment run
/// (`bench.xN`) and per render (`bench.render`).
pub fn traced_pass(t: &mut Tracer) -> Pass {
    let r = Runner::sequential();
    let mut out = String::new();
    let rows = t.span("bench.x1", |_| {
        x1_cheap::run(12, &[2, 4, 8, 16, 32], false, &r)
    });
    render(t, &mut out, || x1_cheap::render(&rows));
    let rows = t.span("bench.x2", |_| {
        x2_fast::run(12, &[2, 4, 8, 16, 64, 256], false, &r)
    });
    render(t, &mut out, || x2_fast::render(&rows));
    let (bounds, exec) = t.span("bench.x3", |_| {
        (
            x3_relabel::run_bounds(&[16, 64, 256, 1024, 4096], &[1, 2, 3, 4]),
            x3_relabel::run_exec(10, 16, &[1, 2, 3, 4], &r),
        )
    });
    render(t, &mut out, || x3_relabel::render_bounds(&bounds));
    render(t, &mut out, || x3_relabel::render_exec(&exec));
    let points = t.span("bench.x4", |_| {
        x4_tradeoff::run(12, 64, &[1, 2, 3, 4, 5], &r)
    });
    render(t, &mut out, || x4_tradeoff::render(&points));
    out.push_str(&audits(t));
    let rows = t.span("bench.x7", |_| x7_families::run(8, 0xBEEF, &r));
    render(t, &mut out, || x7_families::render(&rows));
    let rows = t.span("bench.x8", |_| x8_iterated::run(&[6, 12, 24], 4, &r));
    render(t, &mut out, || x8_iterated::render(&rows));
    let rows = t.span("bench.x9", |_| {
        x9_gathering::run(12, 32, &[2, 3, 4, 5, 6], &r)
    });
    render(t, &mut out, || x9_gathering::render(&rows));
    let report = t.span("bench.x11", |_| {
        x11_gathering_topo::run(
            x10_topologies::standard_topo_specs(false),
            6,
            &x11_gathering_topo::standard_fleet_sizes(false),
            &x11_gathering_topo::standard_phases(false),
            8,
            &r,
        )
    });
    render(t, &mut out, || x11_gathering_topo::render(&report.rows));
    let x10 = t.span("bench.x10", |_| {
        x10_topologies::run(x10_topologies::standard_topo_specs(false), 6, 24, &r)
    });
    render(t, &mut out, || x10_topologies::render(&x10.rows));
    Pass { renders: out, x10 }
}

/// X5 and X6, the §3 audits, with their renders. They are not sweeps,
/// so a `--fabric` driver computes them itself.
pub fn audits(t: &mut Tracer) -> String {
    let r = Runner::sequential();
    let mut out = String::new();
    let rows = t.span("bench.x5", |_| {
        x5_lb_time::run(12, &[4, 6, 8, 10, 12, 16], &r)
    });
    render(t, &mut out, || x5_lb_time::render(&rows));
    let rows = t.span("bench.x6", |_| x6_lb_cost::run(12, &[4, 8, 16, 32], &r));
    render(t, &mut out, || x6_lb_cost::render(&rows));
    out
}

/// The parameter-parity check: the in-process renders equal the
/// binary's stdout once section headings and blank lines are dropped.
pub fn parity(stdout: &[u8], renders: &str) -> bool {
    let body = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(str::to_string)
            .collect()
    };
    body(&String::from_utf8_lossy(stdout)) == body(renders)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn parity_ignores_headings_and_blank_lines() {
        let stdout = b"\n## X1 - heading\n\n| a |\n|---|\n\n### sub\n\n| b |\n";
        assert!(parity(stdout, "| a |\n|---|\n| b |\n"));
        assert!(!parity(stdout, "| a |\n|---|\n| c |\n"));
    }
}
