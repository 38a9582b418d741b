//! Checkpoint text is read back after crashes and by hand-edited
//! resumes, so parsing it must never panic: any text yields the records
//! or a typed [`FabricError::Checkpoint`].

use proptest::collection::vec;
use proptest::prelude::*;
use rendezvous_fabric::checkpoint::{parse, CheckpointRecord};
use rendezvous_fabric::FabricError;
use rendezvous_runner::{GroupStats, SweepReport, WorkloadKind, WorkloadMeta};

/// Two well-formed records, one JSONL line each.
fn checkpoint_text() -> String {
    let meta = WorkloadMeta {
        kind: WorkloadKind::Grid,
        digest: 0xfeed,
        full_size: 20,
        size: 20,
    };
    let mut report = SweepReport::default();
    report.groups.push(GroupStats {
        executed: 10,
        meetings: 10,
        max_time: 4,
        ..GroupStats::default()
    });
    [(0, 10), (10, 20)]
        .into_iter()
        .map(|(lo, hi)| {
            let record = CheckpointRecord {
                sweep: 0,
                lo,
                hi,
                meta,
                report: report.clone(),
            };
            serde_json::to_string(&record).unwrap() + "\n"
        })
        .collect()
}

/// Characters the mangler inserts: JSON syntax, digits, a newline (so
/// damage can land mid-file) and a non-ASCII character.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '0', '7', '-', '\n', ' ', 'é',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Never-panic: a checkpoint with characters inserted or removed,
    /// then possibly cut short, parses or is refused as damaged.
    #[test]
    fn arbitrary_checkpoint_text_parses_or_is_refused(
        from_records in 0u8..4,
        edits in vec((0usize..2048, 0usize..ALPHABET.len() + 1), 0..6),
        cut in 0usize..2048,
    ) {
        let original = checkpoint_text();
        let mut text: Vec<char> = if from_records > 0 {
            original.chars().collect()
        } else {
            Vec::new()
        };
        for (at, c) in edits {
            let at = at % (text.len() + 1);
            match ALPHABET.get(c) {
                Some(&c) => text.insert(at, c),
                None if at < text.len() => {
                    text.remove(at);
                }
                None => {}
            }
        }
        text.truncate(cut);
        let text: String = text.into_iter().collect();
        match parse(&text) {
            Ok(records) => prop_assert!(records.len() <= text.lines().count()),
            Err(e) => prop_assert!(matches!(e, FabricError::Checkpoint(_)), "{e}"),
        }
        if text == original {
            prop_assert_eq!(parse(&text).unwrap().len(), 2);
        }
    }
}
