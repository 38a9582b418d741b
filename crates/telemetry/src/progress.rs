//! Live progress: shared counters and the stderr reporter.
//!
//! Everything here is display-only — progress never feeds a fold or a
//! report, which is why the sampler thread below is a sanctioned (and
//! annotated) exception to the one-thread sweep. The reporter takes any counts source: a sink's
//! [`Progress`] in a direct run, the coordinator's chunk table in a
//! fabric driver.

use crate::metrics::{Metrics, Stopwatch};
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

/// A point-in-time progress reading.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    /// Reporter sampling a [`Metrics`] sink — what a direct run
    /// renders.
    #[must_use]
    pub fn human(metrics: &Arc<Metrics>) -> ProgressReporter {
        let m = Arc::clone(metrics);
        ProgressReporter::new(move || m.progress().counts())
    }

    /// Reporter sampling any counts `source` — the fabric driver passes
    /// its coordinator's view of the run.
    #[must_use]
    pub fn new(source: impl Fn() -> ProgressCounts + Send + 'static) -> ProgressReporter {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let watch = Stopwatch::start();
        // analyze: allow(d5) — display-only stderr sampler: reads counts,
        // writes no fold, joins before the process emits exact output
        let thread = std::thread::spawn(move || loop {
            let finished = flag.load(Ordering::Relaxed);
            emit(&watch, &source(), finished);
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

/// One reporter tick: a `\r`-refreshed line with rate and ETA. All
/// arithmetic is exact integer math — rate in scenarios/second, ETA in
/// deciseconds — so the display layer obeys the same no-float rule as
/// the folds it watches.
fn emit(watch: &Stopwatch, counts: &ProgressCounts, finished: bool) {
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn reporter_finishes_cleanly() {
        let metrics = Arc::new(Metrics::new());
        metrics.progress().add_planned(10, 1);
        let reporter = ProgressReporter::human(&metrics);
        metrics.progress().piece_done(10);
        reporter.finish();
    }
}
