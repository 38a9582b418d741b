//! `rendezvous-analyze` — a workspace determinism linter.
//!
//! The sweep fabric's contract is byte-identity: shard and merge any
//! way you like, the ledger bytes match. That discipline lives in code
//! conventions — sorted iteration, exact u128 ratio comparison, widened
//! index math, order-deterministic folds — and conventions rot. This
//! crate mechanizes them as five static rules over the workspace's own
//! source:
//!
//! - **D1** hash-order leakage (`HashMap`/`HashSet` in fold/merge/
//!   report/ledger paths),
//! - **D2** truncating `as` casts of computed values (the PR-2
//!   grid-stride wrap class),
//! - **D3** float types/math where the exact cross-multiplication
//!   convention applies,
//! - **D4** nondeterminism sources (wall clocks outside bench, unseeded
//!   RNG, `std::env` outside the CLI layer),
//! - **D5** unordered parallel reductions (rayon `par_*`, raw
//!   `std::thread` spawns): sweeps fold on one thread, and in parallel
//!   only as fabric lease ranges merged at global indices.
//!
//! Findings print as `file:line [rule] message` and serialize to a JSON
//! report (the committed audit baseline). A finding is suppressed by a
//! justified annotation on or directly above the offending line:
//!
//! ```text
//! // analyze: allow(d1) — point lookups only; never iterated
//! ```
//!
//! A bare allow (no justification), a malformed allow, or an allow that
//! matches nothing is itself a finding — suppressions are part of the
//! audit surface, not an escape hatch.

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;

use config::{path_in, Config};
use report::{AnalysisReport, Finding};
use rules::FileContext;
use std::path::Path;

/// One parsed `// analyze: allow(rule) — justification` annotation.
#[derive(Debug)]
struct Allow {
    /// Lowercased rule id (`d1`…`d5`).
    rule: String,
    /// Line the comment sits on.
    line: usize,
    /// Justification text after the rule (may be empty — that's a
    /// finding in its own right).
    justification: String,
    /// Set when some finding was suppressed by this allow.
    used: bool,
}

/// Analyzes one file's source; `rel` is its `/`-separated path relative
/// to the workspace root (rule scoping matches on it).
#[must_use]
pub fn analyze_source(rel: &str, source: &str, cfg: &Config) -> Vec<Finding> {
    let lexed = lexer::lex(source);
    let cx = FileContext::new(rel, &lexed);
    let raw = rules::run_rules(&cx, cfg);

    let mut findings = Vec::new();
    let mut allows: Vec<Allow> = Vec::new();
    let mut i = 0;
    while i < lexed.comments.len() {
        let comment = &lexed.comments[i];
        let Some(rest) = comment.text.strip_prefix("analyze:") else {
            i += 1;
            continue;
        };
        match parse_allow(rest) {
            Ok((rule, mut justification)) => {
                // A justification may wrap onto directly-following
                // comment lines; fold them in so the audit baseline
                // records the whole reason.
                let mut last_line = comment.line;
                while let Some(next) = lexed.comments.get(i + 1) {
                    if justification.is_empty()
                        || next.line != last_line + 1
                        || next.text.starts_with("analyze:")
                    {
                        break;
                    }
                    justification.push(' ');
                    justification.push_str(&next.text);
                    last_line = next.line;
                    i += 1;
                }
                allows.push(Allow {
                    rule,
                    line: comment.line,
                    justification,
                    used: false,
                });
            }
            Err(msg) => findings.push(Finding {
                file: rel.to_string(),
                line: comment.line,
                rule: "allow".into(),
                message: msg,
                allowed: false,
                justification: None,
            }),
        }
        i += 1;
    }

    for f in raw {
        let covered = allows
            .iter_mut()
            .find(|a| {
                a.rule.eq_ignore_ascii_case(f.rule)
                    && !a.justification.is_empty()
                    && covers(a.line, f.line, &lexed)
            })
            .map(|a| {
                a.used = true;
                a.justification.clone()
            });
        findings.push(Finding {
            file: rel.to_string(),
            line: f.line,
            rule: f.rule.to_string(),
            allowed: covered.is_some(),
            justification: covered,
            message: f.message,
        });
    }

    for a in &allows {
        if a.justification.is_empty() {
            findings.push(Finding {
                file: rel.to_string(),
                line: a.line,
                rule: "allow".into(),
                message: format!(
                    "bare `allow({})` with no justification — every suppression must \
                     say *why* the site is order-safe: \
                     `// analyze: allow({}) — <reason>`",
                    a.rule, a.rule
                ),
                allowed: false,
                justification: None,
            });
        } else if !a.used {
            findings.push(Finding {
                file: rel.to_string(),
                line: a.line,
                rule: "allow".into(),
                message: format!(
                    "unused `allow({})`: no {} finding on this or the next code line — \
                     the hazard was fixed or the annotation drifted; delete it",
                    a.rule,
                    a.rule.to_uppercase()
                ),
                allowed: false,
                justification: None,
            });
        }
    }
    findings
}

/// An allow at comment line `al` covers a finding at `fl` when they
/// share a line (trailing comment) or `fl` is the first code line after
/// the comment (annotation above the statement).
fn covers(al: usize, fl: usize, lexed: &lexer::Lexed) -> bool {
    if fl == al {
        return true;
    }
    lexed
        .tokens
        .iter()
        .map(|t| t.line)
        .filter(|&l| l > al)
        .min()
        == Some(fl)
}

/// Parses the text after `analyze:` — expects `allow(<rule>)` then an
/// optional `—`/`-`/`:`-separated justification.
fn parse_allow(rest: &str) -> Result<(String, String), String> {
    let rest = rest.trim_start();
    let Some(args) = rest.strip_prefix("allow(") else {
        return Err(format!(
            "malformed analyze annotation `analyze:{rest}` — expected \
             `analyze: allow(<rule>) — <justification>`"
        ));
    };
    let Some((rule, after)) = args.split_once(')') else {
        return Err("malformed analyze annotation: missing `)` after allow(".into());
    };
    let rule = rule.trim().to_ascii_lowercase();
    if !matches!(rule.as_str(), "d1" | "d2" | "d3" | "d4" | "d5") {
        return Err(format!(
            "unknown rule `{rule}` in allow() — rules are d1..d5"
        ));
    }
    let justification = after
        .trim_start_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':'))
        .trim()
        .to_string();
    Ok((rule, justification))
}

/// Scans the workspace under `root` per `cfg` and builds the report.
///
/// The file walk is itself order-deterministic (directory entries
/// sorted by name at every level) so the committed JSON baseline is
/// byte-stable — the linter holds itself to the rule it enforces.
///
/// # Errors
///
/// I/O failures reading the tree, with the offending path.
pub fn analyze_workspace(root: &Path, cfg: &Config) -> Result<AnalysisReport, String> {
    let mut files = Vec::new();
    for scan_root in cfg.roots {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            collect_rs_files(root, &dir, cfg.exclude, &mut files)?;
        }
    }
    files.sort();
    files.dedup();

    let mut findings = Vec::new();
    let files_scanned = files.len();
    for rel in &files {
        let source =
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("read {rel}: {e}"))?;
        findings.extend(analyze_source(rel, &source, cfg));
    }
    Ok(AnalysisReport::from_findings(findings, files_scanned))
}

/// Recursively collects `.rs` files under `dir`, as `/`-separated paths
/// relative to `root`, honoring `exclude` prefixes. Entries are sorted
/// so traversal order never depends on the filesystem.
fn collect_rs_files(
    root: &Path,
    dir: &Path,
    exclude: &[&str],
    out: &mut Vec<String>,
) -> Result<(), String> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("read_dir {}: {e}", dir.display()))?
        .collect::<Result<_, _>>()
        .map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .map_err(|e| format!("strip_prefix {}: {e}", path.display()))?
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if path_in(&rel, exclude) {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(root, &path, exclude, out)?;
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        analyze_source("x.rs", src, &Config::everywhere())
    }

    #[test]
    fn allow_above_the_line_suppresses_and_keeps_justification() {
        let out = run(
            "// analyze: allow(d1) — point lookups only; never iterated\n\
             fn f() { let m: HashMap<u8, u8> = HashMap::new(); }",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].allowed);
        assert_eq!(
            out[0].justification.as_deref(),
            Some("point lookups only; never iterated")
        );
    }

    #[test]
    fn trailing_allow_on_the_same_line_suppresses() {
        let out = run(
            "fn f() { let t = Instant::now(); } // analyze: allow(d4) — latency probe, not folded",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].allowed);
    }

    #[test]
    fn multi_line_justification_is_folded_into_the_record() {
        let out = run("// analyze: allow(d1) — first half of the reason\n\
             // and the rest of it on the next line\n\
             fn f() { let m: HashMap<u8, u8> = HashMap::new(); }");
        assert_eq!(out.len(), 1);
        assert!(out[0].allowed);
        assert_eq!(
            out[0].justification.as_deref(),
            Some("first half of the reason and the rest of it on the next line")
        );
    }

    #[test]
    fn allow_for_a_different_rule_does_not_suppress() {
        let out = run("// analyze: allow(d3) — wrong rule\n\
             fn f() { let m: HashMap<u8, u8> = HashMap::new(); }");
        // The D1 finding survives and the d3 allow is flagged unused.
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|f| f.rule == "D1" && !f.allowed));
        assert!(out.iter().any(|f| f.rule == "allow"));
    }

    #[test]
    fn bare_allow_is_a_finding_and_does_not_suppress() {
        let out = run("// analyze: allow(d1)\n\
             fn f() { let m: HashMap<u8, u8> = HashMap::new(); }");
        assert!(out.iter().any(|f| f.rule == "D1" && !f.allowed));
        assert!(out
            .iter()
            .any(|f| f.rule == "allow" && f.message.contains("bare")));
    }

    #[test]
    fn unused_and_malformed_allows_are_findings() {
        let out = run("// analyze: allow(d2) — nothing here overflows\nfn f() {}");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("unused"));

        let out = run("// analyze: allowd2\nfn f() {}");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("malformed"));

        let out = run("// analyze: allow(d9) — no such rule\nfn f() {}");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("unknown rule"));
    }

    #[test]
    fn allow_does_not_leak_past_the_next_code_line() {
        let out = run("// analyze: allow(d1) — only covers the next line\n\
             fn g() {}\n\
             fn f() { let m: HashMap<u8, u8> = HashMap::new(); }");
        // Finding on line 3 is NOT covered (next code line after the
        // comment is 2), and the allow is unused.
        assert!(out.iter().any(|f| f.rule == "D1" && !f.allowed));
        assert!(out
            .iter()
            .any(|f| f.rule == "allow" && f.message.contains("unused")));
    }
}
