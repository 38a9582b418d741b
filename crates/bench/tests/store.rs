//! The result store, end to end through the real binary: a warm
//! `--store` rerun must serve every sweep from the cache —
//! byte-identical output, **zero** scenarios executed — and the
//! fingerprint a store entry is addressed by must be the same one the
//! `--plan` preview prints and the fabric checkpoint records (one
//! derivation, [`WorkloadMeta::fingerprint`], used by all three).

use rendezvous_runner::WorkloadMeta;
use rendezvous_store::Store;
use rendezvous_telemetry::TelemetrySnapshot;
use std::path::PathBuf;
use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

fn stdout_of(args: &[&str]) -> Vec<u8> {
    let out = experiments(args);
    assert!(
        out.status.success(),
        "experiments {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rendezvous-store-e2e-{name}-{}",
        std::process::id()
    ))
}

fn executed(path: &PathBuf) -> u64 {
    let snap = TelemetrySnapshot::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    snap.counters
        .get("scenarios_executed")
        .copied()
        .unwrap_or(0)
}

#[test]
fn warm_store_rerun_is_byte_identical_and_executes_nothing() {
    let dir = scratch("warm");
    let tel_cold = scratch("warm-tel-cold");
    let tel_warm = scratch("warm-tel-warm");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();

    let baseline = stdout_of(&["x1", "--quick"]);
    let cold = stdout_of(&[
        "x1",
        "--quick",
        "--store",
        dir_s,
        "--telemetry",
        tel_cold.to_str().unwrap(),
    ]);
    let warm = stdout_of(&[
        "x1",
        "--quick",
        "--store",
        dir_s,
        "--telemetry",
        tel_warm.to_str().unwrap(),
    ]);
    assert_eq!(baseline, cold, "the store must not change the output");
    assert_eq!(cold, warm, "a warm rerun must render the same bytes");
    assert!(executed(&tel_cold) > 0, "the cold run does the work");
    assert_eq!(executed(&tel_warm), 0, "the warm run executes nothing");

    let warm_snap = TelemetrySnapshot::parse(&std::fs::read_to_string(&tel_warm).unwrap()).unwrap();
    let hits = warm_snap.process.get("store_hits").copied().unwrap_or(0);
    let misses = warm_snap.process.get("store_misses").copied().unwrap_or(0);
    assert!(hits > 0, "warm sweeps must be store hits");
    assert_eq!(misses, 0, "a warm rerun must miss nothing");

    // The store itself passes its own fsck.
    let verify = Store::open(&dir).unwrap().verify().unwrap();
    assert!(
        verify.clean() && verify.ok > 0,
        "fsck: {:?}",
        verify.problems
    );

    let _ = std::fs::remove_dir_all(&dir);
    for p in [&tel_cold, &tel_warm] {
        let _ = std::fs::remove_file(p);
    }
}

/// The §3 audits read through the store like every sweep: a warm rerun
/// serves each `L`'s trim (x5 and x6 at `--quick`: four sweeps) and
/// executes no sweep scenario.
#[test]
fn warm_store_serves_the_audit_trims() {
    let dir = scratch("audits");
    let tel = scratch("audits-tel");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();

    let direct = stdout_of(&["x5", "x6", "--quick"]);
    let cold = stdout_of(&["x5", "x6", "--quick", "--store", dir_s]);
    let warm = stdout_of(&[
        "x5",
        "x6",
        "--quick",
        "--store",
        dir_s,
        "--telemetry",
        tel.to_str().unwrap(),
    ]);
    assert_eq!(direct, cold, "the store must not change the output");
    assert_eq!(direct, warm, "a warm rerun must render the same bytes");
    let snap = TelemetrySnapshot::parse(&std::fs::read_to_string(&tel).unwrap()).unwrap();
    assert_eq!(snap.process.get("store_hits").copied(), Some(4));
    assert!(
        !snap.counters.contains_key("scenarios_executed"),
        "the warm run executes no sweep: {:?}",
        snap.counters
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&tel);
}

#[test]
fn a_corrupted_entry_recomputes_and_heals_instead_of_serving_garbage() {
    let dir = scratch("corrupt");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();

    let cold = stdout_of(&["x1", "--quick", "--store", dir_s]);

    // Truncate one entry mid-JSON: the store must diagnose, recompute,
    // and re-record — never serve the damaged bytes.
    let victim = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("the cold run populated at least one entry");
    let text = std::fs::read_to_string(&victim).unwrap();
    std::fs::write(&victim, &text[..text.len() / 2]).unwrap();
    let fsck = Store::open(&dir).unwrap().verify().unwrap();
    assert!(!fsck.clean(), "fsck must flag the truncated entry");

    let out = experiments(&["x1", "--quick", "--store", dir_s]);
    assert!(out.status.success());
    assert_eq!(out.stdout, cold, "recomputed bytes must match");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("store: recomputing"),
        "the demotion must be visible on stderr"
    );

    // The recompute wrote the entry back; the store is whole again.
    let healed = Store::open(&dir).unwrap().verify().unwrap();
    assert!(healed.clean(), "fsck after heal: {:?}", healed.problems);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn plan_store_column_predicts_cached_versus_miss() {
    let dir = scratch("plan");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();

    let cold_plan =
        String::from_utf8(stdout_of(&["x1", "--quick", "--plan", "--store", dir_s])).unwrap();
    assert!(!cold_plan.is_empty());
    for line in cold_plan.lines() {
        assert!(line.ends_with("store=miss"), "cold plan: {line:?}");
    }

    stdout_of(&["x1", "--quick", "--store", dir_s]);
    let warm_plan =
        String::from_utf8(stdout_of(&["x1", "--quick", "--plan", "--store", dir_s])).unwrap();
    for line in warm_plan.lines() {
        assert!(line.ends_with("store=cached"), "warm plan: {line:?}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite regression for the unified fingerprint: the `--plan`
/// line, the store entry's address, and the fabric checkpoint record
/// must all speak the same `WorkloadMeta::fingerprint` for the same
/// sweep — three consumers, one derivation.
#[test]
fn plan_store_and_checkpoint_agree_on_every_fingerprint() {
    let dir = scratch("unify");
    let ckpt = scratch("unify-ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&ckpt);
    let dir_s = dir.to_str().unwrap();

    let plan = String::from_utf8(stdout_of(&["x1", "--quick", "--plan"])).unwrap();
    let planned: Vec<String> = plan
        .lines()
        .map(|line| {
            line.split_whitespace()
                .find_map(|w| w.strip_prefix("fingerprint="))
                .unwrap_or_else(|| panic!("no fingerprint in {line:?}"))
                .to_string()
        })
        .collect();
    assert!(!planned.is_empty());

    // Store addresses: every planned fingerprint appears in some entry
    // file name, and every entry's header agrees with its address.
    stdout_of(&["x1", "--quick", "--store", dir_s]);
    let store = Store::open(&dir).unwrap();
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    for fp in &planned {
        assert!(
            names.iter().any(|n| n.contains(fp.as_str())),
            "planned fingerprint {fp} missing from store entries {names:?}"
        );
    }
    for name in &names {
        let token = name.strip_suffix(".json").unwrap_or(name);
        let entry = store.load_token(token).unwrap();
        assert_eq!(entry.fingerprint, entry.meta.fingerprint());
    }

    // Checkpoint records: the fabric persists the same fingerprints.
    stdout_of(&[
        "x1",
        "--quick",
        "--fabric",
        "workers=2",
        "--fabric-checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    let records = rendezvous_fabric::checkpoint::load(&ckpt).unwrap();
    assert!(!records.is_empty());
    for record in &records {
        assert!(
            planned.contains(&record.meta.fingerprint()),
            "checkpoint fingerprint {} never planned",
            record.meta.fingerprint()
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&ckpt);
}

/// The in-process side of the same satellite: the store key's
/// fingerprint component is `WorkloadMeta::fingerprint` verbatim.
#[test]
fn store_key_embeds_the_canonical_fingerprint() {
    let meta = WorkloadMeta {
        kind: rendezvous_runner::WorkloadKind::Grid,
        digest: 0x1bad_b002,
        full_size: 64,
        size: 32,
    };
    let key = rendezvous_store::StoreKey::new("x1 cheap", &meta, "stepped");
    assert_eq!(key.fingerprint(), meta.fingerprint());
    assert!(key.token().ends_with(&meta.fingerprint()));
}

/// Regression: a pair sweep's store key used to be its algorithm's name
/// plus the grid fingerprint, which sees neither the graph nor the
/// algorithm's parameters. FastWithRelabeling weights of equal `t`
/// shared one entry (x3 served w=2's report for w=4), and so did Cheap
/// on `oriented_ring(8)` and on `hypercube(3)` (both E = 7). Each sweep
/// below must get its own entry and a stored run must print what a
/// direct one does.
#[test]
fn pair_sweeps_with_equal_grids_get_their_own_entries() {
    use rendezvous_bench::common::{
        ring_setup, standard_delays, standard_label_pairs, sweep_worst,
    };
    use rendezvous_bench::session::{self, Mode, Session};
    use rendezvous_bench::x3_relabel;
    use rendezvous_core::{Cheap, LabelSpace, RendezvousAlgorithm};
    use rendezvous_explore::{Explorer, HamiltonianExplorer};
    use rendezvous_graph::{generators, HamiltonianCycle};
    use rendezvous_runner::Runner;
    use std::sync::Arc;

    let dir = scratch("pair-keys");
    let _ = std::fs::remove_dir_all(&dir);
    let runner = Runner::sequential();
    let (ring, ring_explorer) = ring_setup(8);
    let cube = Arc::new(generators::hypercube(3).unwrap());
    let cycle = HamiltonianCycle::known_hypercube(&cube).unwrap();
    let cube_explorer: Arc<dyn Explorer> =
        Arc::new(HamiltonianExplorer::new(cube.clone(), cycle).unwrap());
    let space = LabelSpace::new(8).unwrap();
    let cheaps = [
        Cheap::new(ring, ring_explorer, space),
        Cheap::new(cube, cube_explorer, space),
    ];
    let pairs = standard_label_pairs(8);
    let delays = standard_delays(7);
    let sweep_all = || {
        let exec = serde_json::to_string(&x3_relabel::run_exec(6, 8, &[1, 2, 3, 4], &runner));
        let cheap: Vec<String> = cheaps
            .iter()
            .map(|alg| {
                let horizon = 4 * alg.time_bound();
                format!("{:?}", sweep_worst(alg, &pairs, &delays, horizon, &runner))
            })
            .collect();
        (exec.unwrap(), cheap)
    };

    let direct = sweep_all();
    session::install(Session::new(
        Default::default(),
        Some(Store::open(&dir).unwrap()),
        Mode::Direct,
    ));
    let cold = sweep_all();
    let warm = sweep_all();
    session::finish(&runner);
    assert_eq!(cold, direct, "a cold store run must print the direct bytes");
    assert_eq!(warm, direct, "a warm store run must print the direct bytes");
    let entries = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(entries, 4 + 2, "one entry per weight and one per graph");
    let _ = std::fs::remove_dir_all(&dir);
}
