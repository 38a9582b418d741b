//! Property tests for [`TelemetrySnapshot::merge`]: the counter
//! sections must fold associatively and commutatively (like
//! `GroupStats::merge`), or the fabric driver's worker-order-independent
//! sidecar guarantee is a lie.

use proptest::collection::vec;
use proptest::prelude::*;
use rendezvous_telemetry::TelemetrySnapshot;

/// A small closed key universe so generated sections collide often —
/// merges that never share a key exercise nothing.
const KEYS: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

type Entries = Vec<(usize, u64)>;

fn snapshot(
    counters: &[(usize, u64)],
    process: &[(usize, u64)],
    hist: &[(usize, u64)],
    wall: u64,
) -> TelemetrySnapshot {
    let mut snap = TelemetrySnapshot::empty();
    for (key, value) in counters {
        let slot = snap
            .counters
            .entry(KEYS[key % KEYS.len()].to_string())
            .or_insert(0);
        *slot = slot.saturating_add(*value);
    }
    for (key, value) in process {
        let slot = snap
            .process
            .entry(KEYS[key % KEYS.len()].to_string())
            .or_insert(0);
        *slot = slot.saturating_add(*value);
    }
    for (key, value) in hist {
        let buckets = snap
            .timing
            .histograms
            .entry(KEYS[key % KEYS.len()].to_string())
            .or_default();
        let idx = key % 7;
        if buckets.len() <= idx {
            buckets.resize(idx + 1, 0);
        }
        buckets[idx] = buckets[idx].saturating_add((*value).max(1));
    }
    snap.timing.wall_ns = u128::from(wall);
    snap
}

fn entries() -> impl Strategy<Value = Entries> {
    vec((0usize..32, 0u64..1_000_000), 0..8)
}

fn sections() -> impl Strategy<Value = (Entries, Entries, Entries, u64)> {
    (entries(), entries(), entries(), 0u64..1_000_000)
}

proptest! {
    #[test]
    fn merge_is_commutative(
        (a_c, a_p, a_h, a_w) in sections(),
        (b_c, b_p, b_h, b_w) in sections(),
    ) {
        let a = snapshot(&a_c, &a_p, &a_h, a_w);
        let b = snapshot(&b_c, &b_p, &b_h, b_w);
        prop_assert_eq!(a.merge(&b), b.merge(&a));
    }

    #[test]
    fn merge_is_associative(
        (a_c, a_p, a_h, a_w) in sections(),
        (b_c, b_p, b_h, b_w) in sections(),
        (c_c, c_p, c_h, c_w) in sections(),
    ) {
        let a = snapshot(&a_c, &a_p, &a_h, a_w);
        let b = snapshot(&b_c, &b_p, &b_h, b_w);
        let c = snapshot(&c_c, &c_p, &c_h, c_w);
        prop_assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
    }

    #[test]
    fn empty_is_the_merge_identity((c, p, h, w) in sections()) {
        let snap = snapshot(&c, &p, &h, w);
        prop_assert_eq!(snap.merge(&TelemetrySnapshot::empty()), snap.clone());
        prop_assert_eq!(TelemetrySnapshot::empty().merge(&snap), snap);
    }

    #[test]
    fn merged_render_is_order_independent_bytes(
        a_c in entries(), b_c in entries(), c_c in entries(),
    ) {
        // The sidecar guarantee in its final form: fold three "shards"
        // in two different orders, the rendered counter bytes match.
        let a = snapshot(&a_c, &[], &[], 0);
        let b = snapshot(&b_c, &[], &[], 0);
        let c = snapshot(&c_c, &[], &[], 0);
        let forward = c.merge(&b).merge(&a).render();
        let backward = a.merge(&b).merge(&c).render();
        prop_assert_eq!(forward, backward);
    }
}
