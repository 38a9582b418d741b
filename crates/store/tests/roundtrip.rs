//! The store's one inviolable property: a report that goes in comes
//! back **byte for byte** — over arbitrary group shapes, keys and
//! workload digests — and the on-disk entry's provenance header always
//! re-derives the exact file it lives in.

use proptest::collection::vec;
use proptest::prelude::*;
use rendezvous_runner::{GroupStats, SweepReport, WorkloadKind, WorkloadMeta};
use rendezvous_store::{Store, StoreKey};
use std::path::PathBuf;

fn scratch(tag: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rendezvous-store-prop-{}-{tag}",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn report_bytes_in_equal_bytes_out(
        groups in vec((0usize..4, 0usize..500, 0u64..10_000, 0u64..64), 0..4),
        digest in 0u64..u64::MAX,
        full_size in 1usize..100_000,
        tag in 0u64..1_000_000,
    ) {
        let keys = ["", "ring", "tree", "torus"];
        let mut report = SweepReport::default();
        let mut sorted = groups.clone();
        sorted.sort_by_key(|&(k, ..)| k);
        sorted.dedup_by_key(|&mut (k, ..)| k);
        for (k, executed, max_time, merges) in sorted {
            report.groups.push(GroupStats {
                key: keys[k].to_string(),
                executed,
                meetings: executed / 2,
                max_time,
                total_time: u128::from(max_time) * executed as u128,
                merges,
                ..GroupStats::default()
            });
        }
        let meta = WorkloadMeta {
            kind: if digest % 2 == 0 { WorkloadKind::Grid } else { WorkloadKind::Topo },
            digest,
            full_size,
            size: full_size.min(500),
        };
        let context = format!("prop sweep {}", digest % 7);
        let dir = scratch(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let key = StoreKey::new(&context, &meta, "stepped");

        let before = serde_json::to_string(&report).unwrap();
        store.save(&key, &context, "stepped", &meta, &report).unwrap();
        let after = serde_json::to_string(&store.load(&key).unwrap()).unwrap();
        prop_assert_eq!(&before, &after);

        // The entry is self-describing: token lookup returns the same
        // bytes, and the fsck walk finds nothing to complain about.
        let entry = store.load_token(key.token()).unwrap();
        prop_assert_eq!(&before, &serde_json::to_string(&entry.report).unwrap());
        let fsck = store.verify().unwrap();
        prop_assert!(fsck.clean());
        prop_assert_eq!(fsck.ok, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Bytes the mangler inserts: JSON syntax, digits, a field name's
/// first letter, and bytes that are not UTF-8 on their own.
const ALPHABET: &[u8] = b"{}[]\":,019-e \xff\xc3";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Never-panic: whatever an entry file holds — a real entry with
    /// bytes inserted or removed and possibly cut short, or noise —
    /// `load` and `load_token` return the report or a typed `Miss`,
    /// and an untouched entry is a hit.
    #[test]
    fn arbitrary_entry_bytes_load_or_miss(
        from_entry in 0u8..4,
        edits in vec((0usize..4096, 0usize..ALPHABET.len() + 1), 0..8),
        cut in 0usize..8192,
        tag in 0u64..1_000_000,
    ) {
        let dir = scratch(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let meta = WorkloadMeta {
            kind: WorkloadKind::Grid,
            digest: tag,
            full_size: 48,
            size: 48,
        };
        let mut report = SweepReport::default();
        report.groups.push(GroupStats {
            executed: 48,
            meetings: 48,
            max_time: 7,
            ..GroupStats::default()
        });
        let key = StoreKey::new("mangled", &meta, "batched");
        store.save(&key, "mangled", "batched", &meta, &report).unwrap();
        let path = store.path_of(&key);
        let entry = std::fs::read(&path).unwrap();
        let mut bytes = if from_entry > 0 { entry.clone() } else { Vec::new() };
        for (at, b) in edits {
            let at = at % (bytes.len() + 1);
            match ALPHABET.get(b) {
                Some(&b) => bytes.insert(at, b),
                None if at < bytes.len() => {
                    bytes.remove(at);
                }
                None => {}
            }
        }
        bytes.truncate(cut);
        std::fs::write(&path, &bytes).unwrap();
        let loaded = store.load(&key);
        let by_token = store.load_token(key.token());
        if bytes == entry {
            prop_assert!(loaded.is_ok() && by_token.is_ok());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
