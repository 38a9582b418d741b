//! The bench harness's telemetry wiring, end to end: a sink on the
//! runner makes `sweep_worst` observable — sweeps counted, plan-cache
//! hit rate visible, batch classification recorded — on either engine
//! the installed session selects, while the measured statistics stay
//! exactly what an unobserved sweep produces (the runner-level
//! byte-identity tests pin that; here we pin the wiring the experiments
//! binary relies on).
//!
//! Lives in its own integration-test binary on purpose: it installs the
//! process's session, which must not leak into the crate's other test
//! processes.

use rendezvous_bench::engine::Engine;
use rendezvous_bench::session::{self, Mode, Session};
use rendezvous_bench::{common, engine};
use rendezvous_core::{Cheap, LabelSpace, RendezvousAlgorithm};
use rendezvous_runner::Runner;
use rendezvous_telemetry::Metrics;
use std::sync::Arc;

#[test]
fn installed_session_observes_sweep_worst() {
    let metrics = Arc::new(Metrics::new());
    let (g, ex) = common::ring_setup(6);
    let alg = Cheap::new(g, ex, LabelSpace::new(4).unwrap());
    let runner = Runner::sequential().with_metrics(Arc::clone(&metrics));

    // One stepped sweep, then the same grid batched: both engines feed
    // the same sink, and the stats they return must agree.
    session::install(Session::new(Engine::Stepped, None, Mode::Direct));
    assert_eq!(engine::current(), Engine::Stepped);
    let stepped = common::sweep_worst(
        &alg,
        &common::all_label_pairs(4),
        &common::standard_delays(5),
        4 * alg.time_bound(),
        &runner,
    );
    session::install(Session::new(Engine::Batched, None, Mode::Direct));
    let batched = common::sweep_worst(
        &alg,
        &common::all_label_pairs(4),
        &common::standard_delays(5),
        4 * alg.time_bound(),
        &runner,
    );
    assert_eq!(stepped.max_time, batched.max_time);
    assert_eq!(stepped.max_cost, batched.max_cost);

    let snap = metrics.snapshot();
    // Both sweeps executed here (no fabric replay): counted.
    assert_eq!(snap.process.get("sweeps"), Some(&2));
    let executed = snap.counters["scenarios_executed"];
    assert_eq!(executed, u64::try_from(2 * stepped.executed).unwrap());
    // The acceptance counters: a nonzero plan-cache hit rate (labels
    // repeat across start pairs and delays) and a nonzero batched
    // classification from the second sweep.
    assert!(snap.process["plan_cache_hits"] > 0, "{snap:?}");
    assert!(snap.process["plan_cache_misses"] > 0, "{snap:?}");
    assert!(snap.counters["scenarios_batched"] > 0, "{snap:?}");
    assert!(snap.process["batch_groups"] > 0, "{snap:?}");
    // Live progress advanced in lockstep with execution.
    let counts = metrics.progress().counts();
    assert_eq!(counts.scenarios_done, executed);
    assert_eq!(counts.scenarios_done, counts.scenarios_total);
}
