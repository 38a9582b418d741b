//! Which paths are determinism-critical, and where the sanctioned
//! exemptions live.
//!
//! The workspace's scope is one constant, [`Config::workspace`]: every
//! file under the scan roots is scanned, and a crate's `src` tree joins
//! the determinism-critical paths — D1, D2, D3 and D5 at once — by one
//! entry in its `critical` list.

/// Scoping configuration for one analysis run.
///
/// All paths are `/`-separated prefixes relative to the workspace root:
/// a file is "in" a list when its relative path starts with any entry.
/// An empty list means "nowhere"; use `""` to match every scanned file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Directories to scan for `.rs` files.
    pub roots: &'static [&'static str],
    /// Path prefixes never scanned (vendored deps, build output,
    /// the analyzer's own violation fixtures).
    pub exclude: &'static [&'static str],
    /// The determinism-critical paths: D1 (hash-order leakage), D2
    /// (truncating casts of computed values), D3 (float arithmetic /
    /// comparison) and D5 (unordered parallel reduction) apply here.
    pub critical: &'static [&'static str],
    /// D4 timing exemptions: `SystemTime`/`Instant` are expected here.
    pub d4_timing_exempt: &'static [&'static str],
    /// D4 environment exemptions: the CLI layer may read `std::env`.
    pub d4_env_exempt: &'static [&'static str],
}

impl Config {
    /// The workspace's own scope — what `rendezvous-analyze` and its
    /// CI gate check. D4 applies to every scanned file outside its
    /// exemptions.
    #[must_use]
    pub const fn workspace() -> Config {
        Config {
            roots: &["crates", "src", "examples", "tests"],
            exclude: &[
                // vendored dependency stand-ins
                "vendor",
                "target",
                // deliberate violations for the rule tests
                "crates/analyze/tests/fixtures",
            ],
            // Everything that folds, merges, reports or writes ledgers.
            critical: &[
                "crates/core/src",
                "crates/graph/src",
                "crates/sim/src",
                "crates/explore/src",
                "crates/lower-bounds/src",
                "crates/runner/src",
                "crates/fabric/src",
                "crates/store/src",
                "crates/bench/src",
                "crates/analyze/src",
                "crates/telemetry/src",
                "src",
            ],
            d4_timing_exempt: &[
                // the bench harness measures wall time by design
                "crates/bench/benches",
                // the sanctioned `Stopwatch` home: wall time is
                // quarantined in the sidecar's timing section, never
                // folded — scoped here so `Instant` stays flagged
                // everywhere else
                "crates/telemetry/src",
            ],
            d4_env_exempt: &[
                // the experiments CLI parses env/args
                "crates/bench/src/bin",
                // the store CLI parses its args
                "crates/store/src/bin",
                // the linter's own CLI layer
                "crates/analyze/src/main.rs",
            ],
        }
    }

    /// A config whose every rule applies to every path — what the
    /// fixture tests use so a fixture's findings don't depend on the
    /// workspace's own scoping.
    #[must_use]
    pub const fn everywhere() -> Config {
        Config {
            roots: &[""],
            exclude: &[],
            critical: &[""],
            d4_timing_exempt: &[],
            d4_env_exempt: &[],
        }
    }
}

/// Returns `true` when `rel` (a `/`-separated relative path) falls
/// under any prefix in `prefixes`.
#[must_use]
pub fn path_in(rel: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_in_matches_prefixes() {
        let prefixes = ["crates/runner/src"];
        assert!(path_in("crates/runner/src/grid.rs", &prefixes));
        assert!(!path_in("crates/runner/tests/grid.rs", &prefixes));
        assert!(path_in("anything.rs", &[""]));
        assert!(!path_in("anything.rs", &[]));
    }
}
