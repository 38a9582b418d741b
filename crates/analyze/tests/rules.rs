//! Fixture-corpus tests: every rule flags its violating fixture and
//! passes its clean twin, the allow machinery behaves, and — the gate
//! the whole crate exists for — the workspace itself analyzes clean
//! under its one constant scope, which no flag can replace.

use rendezvous_analyze::analyze_source;
use rendezvous_analyze::config::Config;
use rendezvous_analyze::report::{AnalysisReport, Finding};
use std::path::Path;
use std::process::Command;

fn fixture(name: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    analyze_source(name, &source, &Config::everywhere())
}

fn rules_hit(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

#[test]
fn d1_unsorted_delay_fold_flags_and_btreeset_passes() {
    let bad = fixture("d1_violation.rs");
    assert!(
        bad.iter().any(|f| f.rule == "D1" && !f.allowed),
        "pre-PR-6 HashSet delay dedup must flag: {bad:?}"
    );
    assert!(fixture("d1_clean.rs").is_empty());
}

#[test]
fn d2_grid_stride_wrap_flags_and_widened_passes() {
    let bad = fixture("d2_violation.rs");
    assert_eq!(rules_hit(&bad), ["D2"], "{bad:?}");
    assert!(
        bad[0].message.contains("PR-2"),
        "the message names the bug class: {}",
        bad[0].message
    );
    assert!(fixture("d2_clean.rs").is_empty());
}

#[test]
fn d3_float_tiebreak_flags_and_cross_multiplication_passes() {
    let bad = fixture("d3_violation.rs");
    assert!(
        !bad.is_empty() && bad.iter().all(|f| f.rule == "D3"),
        "{bad:?}"
    );
    assert!(fixture("d3_clean.rs").is_empty());
}

#[test]
fn d4_clock_entropy_env_flag_and_seeded_passes() {
    let bad = fixture("d4_violation.rs");
    assert!(bad.iter().all(|f| f.rule == "D4"), "{bad:?}");
    assert!(
        bad.len() >= 3,
        "SystemTime, thread_rng and std::env::var each flag: {bad:?}"
    );
    assert!(fixture("d4_clean.rs").is_empty());
}

#[test]
fn d5_thread_fold_flags_and_sequential_passes() {
    let bad = fixture("d5_violation.rs");
    assert!(
        !bad.is_empty() && bad.iter().all(|f| f.rule == "D5"),
        "{bad:?}"
    );
    assert!(fixture("d5_clean.rs").is_empty());
}

#[test]
fn justified_allow_suppresses_but_stays_in_the_report() {
    let findings = fixture("allowed.rs");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "D1");
    assert!(findings[0].allowed);
    assert_eq!(
        findings[0].justification.as_deref(),
        Some("point lookups only; never iterated")
    );
    let report = AnalysisReport::from_findings(findings, 1);
    assert_eq!(
        (report.total, report.allowed, report.unsuppressed),
        (1, 1, 0)
    );
}

#[test]
fn bare_allow_fails_and_unused_allow_fails() {
    let bare = fixture("bare_allow.rs");
    assert!(
        bare.iter().any(|f| f.rule == "D1" && !f.allowed),
        "a bare allow must not suppress: {bare:?}"
    );
    assert!(
        bare.iter()
            .any(|f| f.rule == "allow" && f.message.contains("bare")),
        "{bare:?}"
    );

    let unused = fixture("unused_allow.rs");
    assert_eq!(rules_hit(&unused), ["allow"], "{unused:?}");
    assert!(
        unused[0].message.contains("unused"),
        "{}",
        unused[0].message
    );
    assert!(!unused[0].allowed);
}

/// The telemetry crate's wall-clock sanction is a *scope*, not a
/// loophole: with `timing_exempt` covering the telemetry source tree,
/// the same bare `Instant` reads that pass at a telemetry path still
/// flag — unallowed — at any other path.
#[test]
fn d4_timing_exemption_is_scoped_to_configured_paths() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/d4_scoped_timing.rs");
    let source = std::fs::read_to_string(&path).expect("fixture");
    let mut cfg = Config::everywhere();
    cfg.d4_timing_exempt = &["crates/telemetry/src"];
    let exempt = analyze_source("crates/telemetry/src/metrics.rs", &source, &cfg);
    assert!(
        exempt.is_empty(),
        "timing-exempt path must not flag the stopwatch: {exempt:?}"
    );
    let flagged = analyze_source("crates/runner/src/runner.rs", &source, &cfg);
    assert!(
        flagged.iter().any(|f| f.rule == "D4" && !f.allowed),
        "the same source outside the scope must flag: {flagged:?}"
    );
}

/// The acceptance gate, inside the suite: the workspace's own source
/// analyzes clean under [`Config::workspace`] — every finding either
/// fixed or carrying a written justification.
#[test]
fn workspace_is_clean_under_checked_in_config() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let report = rendezvous_analyze::analyze_workspace(&root, &Config::workspace()).expect("scan");
    assert!(report.files_scanned > 50, "sanity: the walk found the tree");
    let stragglers: Vec<String> = report
        .unsuppressed_findings()
        .map(Finding::render)
        .collect();
    assert!(
        stragglers.is_empty(),
        "unsuppressed determinism findings:\n{}",
        stragglers.join("\n")
    );
}

/// The scope is a constant: there is no config file, so no flag names
/// one.
#[test]
fn config_flag_is_refused_as_an_unknown_argument() {
    let out = Command::new(env!("CARGO_BIN_EXE_rendezvous-analyze"))
        .args(["--config", "x"])
        .output()
        .expect("the linter runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown argument `--config`"),
        "stderr: {stderr}"
    );
}
