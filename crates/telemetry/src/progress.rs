//! Live progress: shared counters, the stderr reporter, and the
//! worker progress protocol.
//!
//! Everything here is display-only — progress never feeds a fold or a
//! report, which is why the sampler thread and the worker pipe drains
//! below are sanctioned (and annotated) departures from the Runner's
//! order-deterministic parallelism.
//!
//! The worker protocol is line-oriented over stderr: a fabric worker
//! periodically emits `@progress {json}`; every other stderr line is
//! buffered verbatim as diagnostics. A worker's telemetry snapshot
//! does not travel here — it rides the fabric socket in the worker's
//! final frame.

use crate::metrics::{Metrics, Stopwatch};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Read};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Monotonic progress state, updated by the sweep and sampled by the
/// reporter.
#[derive(Debug, Default)]
pub struct Progress {
    scenarios_total: AtomicU64,
    scenarios_done: AtomicU64,
    pieces_total: AtomicU64,
    pieces_done: AtomicU64,
}

impl Progress {
    /// Announces work: a sweep range adds its scenario and piece totals
    /// before executing (totals accumulate across sweeps in a session).
    pub fn add_planned(&self, scenarios: usize, pieces: usize) {
        self.scenarios_total
            .fetch_add(to_u64(scenarios), Ordering::Relaxed);
        self.pieces_total
            .fetch_add(to_u64(pieces), Ordering::Relaxed);
    }

    /// Marks one piece (of `scenarios` units) complete.
    pub fn piece_done(&self, scenarios: usize) {
        self.scenarios_done
            .fetch_add(to_u64(scenarios), Ordering::Relaxed);
        self.pieces_done.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time reading.
    #[must_use]
    pub fn counts(&self) -> ProgressCounts {
        ProgressCounts {
            scenarios_done: self.scenarios_done.load(Ordering::Relaxed),
            scenarios_total: self.scenarios_total.load(Ordering::Relaxed),
            pieces_done: self.pieces_done.load(Ordering::Relaxed),
            pieces_total: self.pieces_total.load(Ordering::Relaxed),
        }
    }
}

fn to_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// A point-in-time progress reading — the payload of `@progress`
/// protocol lines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgressCounts {
    /// Scenarios executed so far.
    pub scenarios_done: u64,
    /// Scenarios planned.
    pub scenarios_total: u64,
    /// Work pieces completed so far.
    pub pieces_done: u64,
    /// Work pieces planned.
    pub pieces_total: u64,
}

impl ProgressCounts {
    /// Field-wise saturating sum — how the hub totals child slots.
    #[must_use]
    pub fn plus(&self, other: &ProgressCounts) -> ProgressCounts {
        ProgressCounts {
            scenarios_done: self.scenarios_done.saturating_add(other.scenarios_done),
            scenarios_total: self.scenarios_total.saturating_add(other.scenarios_total),
            pieces_done: self.pieces_done.saturating_add(other.pieces_done),
            pieces_total: self.pieces_total.saturating_add(other.pieces_total),
        }
    }
}

/// Prefix of a worker's periodic progress line.
pub const PROGRESS_PREFIX: &str = "@progress ";

/// Renders a `@progress` protocol line (no trailing newline).
#[must_use]
pub fn progress_line(counts: &ProgressCounts) -> String {
    let payload = serde_json::to_string(counts).expect("progress counts serialize");
    format!("{PROGRESS_PREFIX}{payload}")
}

/// Parses one stderr line as a `@progress` reading; `None` means "not
/// protocol" (including a malformed payload) — the caller keeps such
/// lines as diagnostics.
#[must_use]
pub fn parse_protocol_line(line: &str) -> Option<ProgressCounts> {
    serde_json::from_str(line.strip_prefix(PROGRESS_PREFIX)?).ok()
}

/// Aggregates per-worker progress for the fabric driver: each worker's
/// pump stores its latest reading in its slot; the driver's reporter
/// samples the sum.
#[derive(Debug)]
pub struct ProgressHub {
    slots: Vec<Progress>,
}

impl ProgressHub {
    /// A hub with one slot per worker.
    #[must_use]
    pub fn new(children: usize) -> Arc<ProgressHub> {
        Arc::new(ProgressHub {
            slots: (0..children).map(|_| Progress::default()).collect(),
        })
    }

    /// Overwrites worker `child`'s slot with its latest reading.
    pub fn update(&self, child: usize, counts: &ProgressCounts) {
        if let Some(slot) = self.slots.get(child) {
            slot.scenarios_done
                .store(counts.scenarios_done, Ordering::Relaxed);
            slot.scenarios_total
                .store(counts.scenarios_total, Ordering::Relaxed);
            slot.pieces_done
                .store(counts.pieces_done, Ordering::Relaxed);
            slot.pieces_total
                .store(counts.pieces_total, Ordering::Relaxed);
        }
    }

    /// The sum over all worker slots.
    #[must_use]
    pub fn total(&self) -> ProgressCounts {
        self.slots
            .iter()
            .map(Progress::counts)
            .fold(ProgressCounts::default(), |acc, c| acc.plus(&c))
    }
}

/// How the reporter writes to stderr.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// `\r`-refreshed human line with rate and ETA.
    Human,
    /// Machine-readable `@progress` lines for the fabric driver.
    Stream,
}

/// The sampling interval — coarse enough to be invisible in cost,
/// fine enough to feel live.
const SAMPLE_EVERY: Duration = Duration::from_millis(200);

/// A stderr progress reporter on a sampling thread. Dropping it (or
/// calling [`ProgressReporter::finish`]) emits one final reading and
/// joins the thread.
pub struct ProgressReporter {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ProgressReporter {
    /// Human-readable reporter sampling a [`Metrics`] sink.
    #[must_use]
    pub fn human(metrics: &Arc<Metrics>) -> ProgressReporter {
        let m = Arc::clone(metrics);
        ProgressReporter::spawn(Mode::Human, move || m.progress().counts())
    }

    /// Protocol-line reporter sampling a [`Metrics`] sink — what a
    /// fabric worker runs so its driver can aggregate.
    #[must_use]
    pub fn stream(metrics: &Arc<Metrics>) -> ProgressReporter {
        let m = Arc::clone(metrics);
        ProgressReporter::spawn(Mode::Stream, move || m.progress().counts())
    }

    /// Human-readable reporter sampling a [`ProgressHub`] — what the
    /// fabric driver runs over its workers' aggregated slots.
    #[must_use]
    pub fn aggregate(hub: &Arc<ProgressHub>) -> ProgressReporter {
        let h = Arc::clone(hub);
        ProgressReporter::spawn(Mode::Human, move || h.total())
    }

    fn spawn(mode: Mode, source: impl Fn() -> ProgressCounts + Send + 'static) -> ProgressReporter {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let watch = Stopwatch::start();
        // analyze: allow(d5) — display-only stderr sampler: reads atomics,
        // writes no fold, joins before the process emits exact output
        let thread = std::thread::spawn(move || loop {
            let finished = flag.load(Ordering::Relaxed);
            emit(mode, &watch, &source(), finished);
            if finished {
                break;
            }
            std::thread::sleep(SAMPLE_EVERY);
        });
        ProgressReporter {
            stop,
            thread: Some(thread),
        }
    }

    /// Emits one final reading and joins the sampler.
    pub fn finish(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ProgressReporter {
    fn drop(&mut self) {
        self.halt();
    }
}

/// One reporter tick. All arithmetic is exact integer math — rate in
/// scenarios/second, ETA in deciseconds — so the display layer obeys
/// the same no-float rule as the folds it watches.
fn emit(mode: Mode, watch: &Stopwatch, counts: &ProgressCounts, finished: bool) {
    match mode {
        Mode::Stream => eprintln!("{}", progress_line(counts)),
        Mode::Human => {
            let ms = u128::from(watch.elapsed_ms().max(1));
            let rate = u128::from(counts.scenarios_done) * 1000 / ms;
            let remaining = counts.scenarios_total.saturating_sub(counts.scenarios_done);
            let eta_ds = if counts.scenarios_done > 0 && remaining > 0 {
                u128::from(remaining) * ms / u128::from(counts.scenarios_done) / 100
            } else {
                0
            };
            eprint!(
                "\r[sweep] pieces {}/{} · scenarios {}/{} · {rate}/s · ETA {}.{}s   ",
                counts.pieces_done,
                counts.pieces_total,
                counts.scenarios_done,
                counts.scenarios_total,
                eta_ds / 10,
                eta_ds % 10
            );
            if finished {
                eprintln!();
            }
        }
    }
}

/// Drains one worker's stderr on a reader thread: protocol lines
/// update the hub, everything else is buffered as diagnostics and
/// returned at [`StderrPump::finish`].
pub struct StderrPump {
    thread: JoinHandle<String>,
}

impl StderrPump {
    /// Starts draining `reader` (worker `child`'s stderr) into `hub`.
    #[must_use]
    pub fn pump<R: Read + Send + 'static>(
        reader: R,
        hub: &Arc<ProgressHub>,
        child: usize,
    ) -> StderrPump {
        let hub = Arc::clone(hub);
        // analyze: allow(d5) — pipe drain, not a fold: one reader per child
        // keeps the child from blocking on a full stderr; its buffered
        // diagnostics are joined back in child-index order by the caller
        let thread = std::thread::spawn(move || {
            let mut diagnostics = String::new();
            for line in BufReader::new(reader).lines() {
                let Ok(line) = line else { break };
                match parse_protocol_line(&line) {
                    Some(counts) => hub.update(child, &counts),
                    None => {
                        diagnostics.push_str(&line);
                        diagnostics.push('\n');
                    }
                }
            }
            diagnostics
        });
        StderrPump { thread }
    }

    /// Joins the drain: the worker's non-protocol stderr.
    #[must_use]
    pub fn finish(self) -> String {
        self.thread.join().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::TelemetrySnapshot;

    #[test]
    fn progress_accumulates_and_reads_back() {
        let p = Progress::default();
        p.add_planned(100, 4);
        p.add_planned(50, 2);
        p.piece_done(30);
        p.piece_done(20);
        let c = p.counts();
        assert_eq!(c.scenarios_total, 150);
        assert_eq!(c.pieces_total, 6);
        assert_eq!(c.scenarios_done, 50);
        assert_eq!(c.pieces_done, 2);
    }

    #[test]
    fn protocol_lines_round_trip() {
        let counts = ProgressCounts {
            scenarios_done: 3,
            scenarios_total: 9,
            pieces_done: 1,
            pieces_total: 2,
        };
        assert_eq!(parse_protocol_line(&progress_line(&counts)), Some(counts));
        // Snapshots travel in the fabric's `Finished` frame, not on
        // stderr, so a `@telemetry` line is an ordinary diagnostic.
        let snapshot = serde_json::to_string(&TelemetrySnapshot::empty()).unwrap();
        assert!(parse_protocol_line(&format!("@telemetry {snapshot}")).is_none());
        assert!(parse_protocol_line("plain diagnostic output").is_none());
        assert!(parse_protocol_line("@progress not-json").is_none());
    }

    #[test]
    fn hub_overwrites_slots_and_totals() {
        let hub = ProgressHub::new(2);
        hub.update(
            0,
            &ProgressCounts {
                scenarios_done: 5,
                scenarios_total: 10,
                pieces_done: 1,
                pieces_total: 2,
            },
        );
        hub.update(
            1,
            &ProgressCounts {
                scenarios_done: 7,
                scenarios_total: 10,
                pieces_done: 2,
                pieces_total: 2,
            },
        );
        // A later reading overwrites, not accumulates.
        hub.update(
            1,
            &ProgressCounts {
                scenarios_done: 8,
                scenarios_total: 10,
                pieces_done: 2,
                pieces_total: 2,
            },
        );
        let total = hub.total();
        assert_eq!(total.scenarios_done, 13);
        assert_eq!(total.scenarios_total, 20);
        assert_eq!(total.pieces_done, 3);
        // Out-of-range slots are ignored, not a panic.
        hub.update(9, &ProgressCounts::default());
    }

    #[test]
    fn pump_splits_protocol_from_diagnostics() {
        let hub = ProgressHub::new(1);
        let counts = ProgressCounts {
            scenarios_done: 4,
            scenarios_total: 8,
            pieces_done: 1,
            pieces_total: 2,
        };
        let telemetry = format!(
            "@telemetry {}",
            serde_json::to_string(&TelemetrySnapshot::empty()).unwrap()
        );
        let mut child_stderr = String::new();
        child_stderr.push_str("warming up\n");
        child_stderr.push_str(&progress_line(&counts));
        child_stderr.push('\n');
        child_stderr.push_str(&telemetry);
        child_stderr.push('\n');
        child_stderr.push_str("done\n");
        let pump = StderrPump::pump(std::io::Cursor::new(child_stderr.into_bytes()), &hub, 0);
        assert_eq!(pump.finish(), format!("warming up\n{telemetry}\ndone\n"));
        assert_eq!(hub.total().scenarios_done, 4);
    }

    #[test]
    fn reporter_finishes_cleanly() {
        let metrics = Arc::new(Metrics::new());
        metrics.progress().add_planned(10, 1);
        let reporter = ProgressReporter::stream(&metrics);
        metrics.progress().piece_done(10);
        reporter.finish();
    }
}
