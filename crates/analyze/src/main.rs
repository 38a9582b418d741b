//! CLI for the workspace determinism linter.
//!
//! ```text
//! rendezvous-analyze [--root <dir>] [--json <file>] [--deny] [--all]
//! ```
//!
//! Prints unsuppressed findings as `file:line [rule] message` (add
//! `--all` to also show allowed findings with their justifications),
//! optionally writes the full JSON report, and with `--deny` exits
//! nonzero when any unsuppressed finding remains — that's the CI gate.
//! The scope is the constant [`Config::workspace`].

use rendezvous_analyze::analyze_workspace;
use rendezvous_analyze::config::Config;
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    root: PathBuf,
    json: Option<PathBuf>,
    deny: bool,
    all: bool,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        root: PathBuf::from("."),
        json: None,
        deny: false,
        all: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => cli.root = next_value(&mut args, "--root")?.into(),
            "--json" => cli.json = Some(next_value(&mut args, "--json")?.into()),
            "--deny" => cli.deny = true,
            "--all" => cli.all = true,
            "--help" | "-h" => {
                println!(
                    "rendezvous-analyze: workspace determinism linter (rules D1-D5)\n\n\
                     usage: rendezvous-analyze [--root <dir>] [--json <file>] [--deny] [--all]\n\n\
                     --root    workspace root to scan (default: .)\n\
                     --json    write the full machine-readable report here\n\
                     --deny    exit 1 if any unsuppressed finding remains\n\
                     --all     also print allowed findings with justifications"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(cli)
}

fn next_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn run() -> Result<bool, String> {
    let cli = parse_args()?;
    let report = analyze_workspace(&cli.root, &Config::workspace())?;
    for f in &report.findings {
        if !f.allowed {
            println!("{}", f.render());
        } else if cli.all {
            println!(
                "{}  [allowed: {}]",
                f.render(),
                f.justification.as_deref().unwrap_or("")
            );
        }
    }
    println!(
        "rendezvous-analyze: {} files scanned, {} findings ({} allowed, {} unsuppressed)",
        report.files_scanned, report.total, report.allowed, report.unsuppressed
    );
    if let Some(json_path) = &cli.json {
        let body =
            serde_json::to_string_pretty(&report).map_err(|e| format!("serialize report: {e}"))?;
        std::fs::write(json_path, body + "\n")
            .map_err(|e| format!("write {}: {e}", json_path.display()))?;
    }
    Ok(!(cli.deny && report.unsuppressed > 0))
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("rendezvous-analyze: error: {msg}");
            ExitCode::FAILURE
        }
    }
}
