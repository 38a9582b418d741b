//! Checkpoint/resume: one JSONL line per completed lease range.
//!
//! The coordinator appends a [`CheckpointRecord`] the moment it accepts
//! a range's fold, so a killed coordinator can be relaunched against the
//! same file and carve every already-done range out of its dispatch
//! plan — zero completed units re-run, verified end to end via the
//! `scenarios_executed` telemetry counter staying at zero on a resume of
//! a finished run.
//!
//! Each record carries a `(meta, report)` pair of the same shape as the
//! per-sweep [`FabricOutcome::sweeps`](crate::FabricOutcome::sweeps)
//! the driver replays, at the finer grain of one range: same
//! fingerprint discipline, same fold payloads. Only the final line of
//! the file may be damaged (the append that was in flight when the
//! coordinator died); damage anywhere earlier is refused as corruption
//! rather than silently skipped.

use crate::error::FabricError;
use rendezvous_runner::{SweepReport, WorkloadMeta};
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};

/// One completed lease range: which sweep, which global range, the
/// sweep's fingerprint, and the range's fold.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointRecord {
    /// Position in the run's sweep sequence.
    pub sweep: usize,
    /// Inclusive global start index of the completed range.
    pub lo: usize,
    /// Exclusive global end index.
    pub hi: usize,
    /// Fingerprint of the sweep's workload — resume refuses a checkpoint
    /// whose fingerprints disagree with the run it is resuming.
    pub meta: WorkloadMeta,
    /// The fold of `[lo, hi)`, at global indices.
    pub report: SweepReport,
}

/// Parses a checkpoint file's text into records.
///
/// A malformed or half-written **final** line is tolerated (it is the
/// append interrupted by the coordinator's death — its range simply
/// re-runs); malformed content anywhere else is corruption and is
/// refused.
///
/// # Errors
///
/// [`FabricError::Checkpoint`] on non-trailing damage.
pub fn parse(text: &str) -> Result<Vec<CheckpointRecord>, FabricError> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut records = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match serde_json::from_str::<CheckpointRecord>(line) {
            Ok(rec) => records.push(rec),
            Err(e) if i + 1 == lines.len() => {
                // The interrupted trailing append: drop it, its range
                // was never acknowledged as done.
                let _ = e;
                break;
            }
            Err(e) => {
                return Err(FabricError::Checkpoint(format!(
                    "line {} is damaged mid-file: {e}",
                    i + 1
                )))
            }
        }
    }
    Ok(records)
}

/// Loads a checkpoint file; a missing file is an empty checkpoint (the
/// first run).
///
/// # Errors
///
/// [`FabricError::Checkpoint`] for unreadable or mid-file-damaged
/// content.
pub fn load(path: &Path) -> Result<Vec<CheckpointRecord>, FabricError> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(FabricError::Checkpoint(format!(
            "cannot read {}: {e}",
            path.display()
        ))),
    }
}

/// Appends records to a checkpoint file as they complete, one JSONL line
/// per record, flushed per line so a kill loses at most the line in
/// flight.
#[derive(Debug)]
pub struct CheckpointWriter {
    path: PathBuf,
    file: std::fs::File,
}

impl CheckpointWriter {
    /// Opens `path` for appending (creating it if absent).
    ///
    /// # Errors
    ///
    /// [`FabricError::Checkpoint`] if the file cannot be opened.
    pub fn append_to(path: &Path) -> Result<CheckpointWriter, FabricError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| FabricError::Checkpoint(format!("cannot open {}: {e}", path.display())))?;
        Ok(CheckpointWriter {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Writes one record as a line and flushes it.
    ///
    /// # Errors
    ///
    /// [`FabricError::Checkpoint`] if the write fails — the run aborts
    /// rather than continue with a checkpoint that silently stopped
    /// recording.
    pub fn append(&mut self, record: &CheckpointRecord) -> Result<(), FabricError> {
        let mut line = serde_json::to_string(record).expect("checkpoint records always serialize");
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| {
                FabricError::Checkpoint(format!("append to {} failed: {e}", self.path.display()))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendezvous_runner::WorkloadKind;

    fn record(sweep: usize, lo: usize, hi: usize) -> CheckpointRecord {
        CheckpointRecord {
            sweep,
            lo,
            hi,
            meta: WorkloadMeta {
                kind: WorkloadKind::Grid,
                digest: 0xfeed,
                full_size: 100,
                size: 100,
            },
            report: SweepReport::default(),
        }
    }

    fn lines(records: &[CheckpointRecord]) -> String {
        records
            .iter()
            .map(|r| serde_json::to_string(r).unwrap() + "\n")
            .collect()
    }

    #[test]
    fn round_trips_records_in_order() {
        let written = vec![record(0, 0, 10), record(0, 10, 20), record(1, 0, 5)];
        let parsed = parse(&lines(&written)).unwrap();
        assert_eq!(parsed.len(), 3);
        for (got, want) in parsed.iter().zip(&written) {
            assert_eq!((got.sweep, got.lo, got.hi), (want.sweep, want.lo, want.hi));
        }
    }

    #[test]
    fn a_damaged_trailing_line_is_the_interrupted_append() {
        let mut text = lines(&[record(0, 0, 10), record(0, 10, 20)]);
        text.push_str(r#"{"sweep":0,"lo":20,"hi":3"#); // kill -9 mid-append
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.len(), 2, "only the in-flight range is dropped");
        assert_eq!(parsed[1].hi, 20);
    }

    #[test]
    fn damage_mid_file_is_corruption_not_a_skip() {
        let good = lines(&[record(0, 0, 10)]);
        let text = format!("{good}garbage line\n{}", lines(&[record(0, 10, 20)]));
        assert!(matches!(
            parse(&text),
            Err(FabricError::Checkpoint(msg)) if msg.contains("line 2")
        ));
    }

    #[test]
    fn blank_lines_are_ignored_and_a_missing_file_is_empty() {
        assert!(parse("\n\n  \n").unwrap().is_empty());
        let path = std::env::temp_dir().join(format!(
            "rendezvous-fabric-no-such-checkpoint-{}",
            std::process::id()
        ));
        assert!(load(&path).unwrap().is_empty());
    }

    #[test]
    fn writer_appends_flushed_lines_that_parse_back() {
        let path = std::env::temp_dir().join(format!(
            "rendezvous-fabric-ckpt-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut writer = CheckpointWriter::append_to(&path).unwrap();
        writer.append(&record(0, 0, 10)).unwrap();
        writer.append(&record(0, 10, 20)).unwrap();
        drop(writer);
        // A second writer appends to the same file, as a resumed
        // coordinator does.
        let mut writer = CheckpointWriter::append_to(&path).unwrap();
        writer.append(&record(1, 0, 5)).unwrap();
        drop(writer);
        let parsed = load(&path).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!((parsed[2].sweep, parsed[2].hi), (1, 5));
        let _ = std::fs::remove_file(&path);
    }
}
