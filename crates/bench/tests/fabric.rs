//! The distributed fabric, end to end through the real binary: the
//! driver re-execs `experiments` as coordinator + workers over loopback
//! TCP, and the merged output must be **byte-identical** to the direct
//! single-process run — including with a worker SIGKILL'd mid-piece and
//! across a checkpoint resume that re-executes zero ranges.
//!
//! These spawn real processes (via `CARGO_BIN_EXE_experiments`), so they
//! stick to `x1 --quick`; CI's fabric matrix covers x10/x11.

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
        "rendezvous-fabric-e2e-{name}-{}",
        std::process::id()
    ))
}

#[test]
fn fabric_run_is_byte_identical_to_the_direct_run() {
    let direct = stdout_of(&["x1", "--quick"]);
    let fabric = stdout_of(&["x1", "--quick", "--fabric", "workers=3"]);
    assert!(!direct.is_empty());
    assert_eq!(
        direct, fabric,
        "markdown output must not depend on the fabric"
    );

    let direct_json = stdout_of(&["x1", "--quick", "--json"]);
    let fabric_json = stdout_of(&["x1", "--quick", "--json", "--fabric", "workers=2"]);
    assert_eq!(
        direct_json, fabric_json,
        "JSON output must not depend on the fabric"
    );
}

#[test]
fn a_sigkilled_worker_changes_nothing_but_the_stderr_diagnostics() {
    let direct = stdout_of(&["x1", "--quick"]);
    let out = experiments(&[
        "x1",
        "--quick",
        "--fabric",
        "workers=3",
        "--fabric-kill-one",
    ]);
    assert!(
        out.status.success(),
        "kill-one run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        out.stdout, direct,
        "reassigned ranges must fold to the same bytes"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("leases were reassigned"),
        "the kill must actually have been seen: {stderr}"
    );
}

/// The `(done, total)` scenario counts of the last `[sweep]` line a
/// `--progress` run of `args` draws on stderr.
fn final_scenarios(args: &[&str]) -> (u64, u64) {
    let mut argv = args.to_vec();
    argv.push("--progress");
    let out = experiments(&argv);
    assert!(out.status.success(), "experiments {argv:?} failed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .split(['\r', '\n'])
        .rfind(|l| l.starts_with("[sweep]"))
        .unwrap_or_else(|| panic!("experiments {argv:?} drew no progress line: {stderr}"));
    let counts = line
        .split(" · ")
        .find_map(|field| field.strip_prefix("scenarios "))
        .and_then(|c| c.split_once('/'))
        .unwrap_or_else(|| panic!("no scenario counts in {line:?}"));
    (counts.0.parse().unwrap(), counts.1.parse().unwrap())
}

/// The fabric driver's live display samples the coordinator, so its
/// final reading matches the direct run's — even when a killed worker's
/// range ran twice.
#[test]
fn fabric_progress_ends_at_the_direct_totals() {
    let (done, total) = final_scenarios(&["x1", "--quick"]);
    assert_eq!(done, total, "the direct run finishes every scenario");
    assert!(total > 0);
    assert_eq!(
        final_scenarios(&["x1", "--quick", "--fabric", "workers=2"]),
        (total, total)
    );
    assert_eq!(
        final_scenarios(&[
            "x1",
            "--quick",
            "--fabric",
            "workers=3",
            "--fabric-kill-one"
        ]),
        (total, total)
    );
}

#[test]
fn checkpoint_resume_re_executes_zero_ranges() {
    let ckpt = scratch("ckpt");
    let t_first = scratch("telemetry-first");
    let t_resume = scratch("telemetry-resume");
    let _ = std::fs::remove_file(&ckpt);
    let ckpt_s = ckpt.to_str().unwrap();

    let args = |telemetry: &str| {
        vec![
            "x1".to_string(),
            "--quick".to_string(),
            "--fabric".to_string(),
            "workers=2".to_string(),
            "--fabric-checkpoint".to_string(),
            ckpt_s.to_string(),
            "--telemetry".to_string(),
            telemetry.to_string(),
        ]
    };
    let run = |telemetry: &PathBuf| {
        let argv = args(telemetry.to_str().unwrap());
        let refs: Vec<&str> = argv.iter().map(String::as_str).collect();
        stdout_of(&refs)
    };

    let first = run(&t_first);
    let resumed = run(&t_resume);
    assert_eq!(first, resumed, "resume must render the same bytes");

    let executed = |path: &PathBuf| {
        let snap = TelemetrySnapshot::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        snap.counters
            .get("scenarios_executed")
            .copied()
            .unwrap_or(0)
    };
    assert!(executed(&t_first) > 0, "the first run does the work");
    assert_eq!(
        executed(&t_resume),
        0,
        "the resume must re-execute zero completed ranges"
    );

    for p in [&ckpt, &t_first, &t_resume] {
        let _ = std::fs::remove_file(p);
    }
}

/// Regression: a checkpoint record whose fingerprint disagrees with the
/// run used to be swallowed. The coordinator refused the first worker,
/// but it had already consumed the records, so the next worker's
/// registration succeeded and the run exited 0. A refusal now fails the
/// run, and the error names the checkpoint.
#[test]
fn a_checkpoint_with_a_foreign_fingerprint_fails_the_run() {
    let good = scratch("ckpt-good");
    let bad = scratch("ckpt-foreign");
    let _ = std::fs::remove_file(&good);
    stdout_of(&[
        "x1",
        "--quick",
        "--fabric",
        "workers=2",
        "--fabric-checkpoint",
        good.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&good).unwrap();
    let record = text
        .lines()
        .find(|l| l.starts_with(r#"{"sweep":0,"#))
        .expect("a sweep-0 record");
    let digest = record
        .split(r#""digest":"#)
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .expect("the record carries a digest");
    let foreign = record.replacen(digest, "1", 1);
    std::fs::write(&bad, format!("{foreign}\n")).unwrap();

    let out = experiments(&[
        "x1",
        "--quick",
        "--fabric",
        "workers=2",
        "--fabric-checkpoint",
        bad.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "must fail:\n{stderr}");
    assert!(out.stdout.is_empty(), "a refused run prints no tables");
    assert!(
        stderr.contains("fabric run failed: checkpoint unusable"),
        "the error must name the checkpoint: {stderr}"
    );
    // The refused workers end with one line each, not a panic, and do
    // not mistake the refusal for a lost coordinator.
    assert!(!stderr.contains("panicked"), "no worker panics: {stderr}");
    assert!(
        !stderr.contains("lost its coordinator"),
        "a refusal is not a lost coordinator: {stderr}"
    );
    for p in [&good, &bad] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn plan_previews_every_sweep_without_executing_any() {
    let out = stdout_of(&["x1", "--quick", "--plan"]);
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "x1 must plan at least one sweep");
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.starts_with(&format!("plan: sweep #{i}: ")),
            "plan lines are dense and ordered: {line:?}"
        );
        for field in ["fingerprint=", "pieces="] {
            assert!(line.contains(field), "missing {field}: {line:?}");
        }
        assert!(
            !line.contains("store="),
            "no store column without --store: {line:?}"
        );
    }
    // The preview is the fabric's dispatch view: same sweep count as a
    // worker's walk, no tables, no scenario execution (it returns before
    // any runner is touched, which is why it is instant even un-quick).
    assert!(!text.contains('|'), "no tables in plan mode");
}

/// The §3 audits are sweeps too: `--plan` lists one trim sweep per `L`
/// (x5 and x6 at `--quick` sweep L = 4 and 8 each) and prints no table.
#[test]
fn plan_lists_one_trim_sweep_per_audit_l() {
    let out = experiments(&["x5", "x6", "--quick", "--plan"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "one plan line per L and no table: {text}");
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.starts_with(&format!("plan: sweep #{i}: trim ")),
            "plan lines are dense, ordered trims: {line:?}"
        );
    }
}

#[test]
fn fabric_flag_misuse_is_refused_up_front() {
    for bad in [
        vec!["x1", "--quick", "--fabric", "workers=0"],
        vec!["x1", "--quick", "--fabric", "three"],
        vec!["x1", "--quick", "--fabric-checkpoint", "/tmp/nope"],
        vec![
            "x1",
            "--quick",
            "--fabric",
            "workers=1",
            "--fabric-kill-one",
        ],
        vec!["x1", "--quick", "--plan", "--fabric", "workers=2"],
        // The default is parallel and x10 is selected by its id: the
        // old `--parallel` and `--topo` aliases are unknown flags.
        vec!["x1", "--quick", "--parallel"],
        vec!["--topo", "--quick"],
        vec!["x1", "--quick", "--plan", "--telemetry", "/tmp/nope.json"],
        vec!["x1", "--quick", "--fabric-self-kill"],
        vec![
            "x1",
            "--quick",
            "--fabric",
            "workers=2",
            "--fabric-worker",
            "127.0.0.1:1",
        ],
        // Unknown ids are refused before anything runs or spawns.
        vec!["x99", "--quick"],
        vec!["x1", "x99", "--quick"],
        vec!["all", "x99", "--quick"],
        vec!["x99", "--quick", "--fabric", "workers=2"],
    ] {
        let out = experiments(&bad);
        assert_eq!(
            out.status.code(),
            Some(2),
            "experiments {bad:?} must be refused as a usage error:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(out.stdout.is_empty(), "experiments {bad:?} printed output");
    }
    // `none` is the one id that selects nothing: a bare process start.
    let out = experiments(&["none"]);
    assert!(out.status.success() && out.stdout.is_empty());
}

/// `--fabric` is the only way to split a run, and the socket is a
/// worker's only channel: the static-shard flags and the stderr
/// telemetry and progress streams are refused as unknown flags (usage
/// error, exit 2) before anything executes.
#[test]
fn removed_shard_and_telemetry_stream_flags_are_unknown() {
    for (flag, value) in [
        ("--shard", Some("0/2")),
        ("--emit-shard", None),
        ("--merge-shards", Some("s0.json")),
        ("--spawn-shards", Some("2")),
        ("--telemetry-stream", None),
        ("--progress-stream", None),
    ] {
        let mut args = vec!["x1", "--quick", flag];
        args.extend(value);
        let out = experiments(&args);
        assert_eq!(out.status.code(), Some(2), "experiments {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag: {flag}")),
            "experiments {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "experiments {args:?} printed output");
    }
}
