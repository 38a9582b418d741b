//! `analyze.toml` — which paths are determinism-critical, and where
//! each rule's exemptions live.
//!
//! The parser is a deliberate TOML subset (the workspace vendors its
//! dependencies, so there is no `toml` crate): `[section.sub]` headers
//! and `key = value` assignments where a value is a quoted string,
//! `true`/`false`, or a (possibly multi-line) array of quoted strings.
//! `#` comments are stripped outside quotes. That is exactly the shape
//! the checked-in `analyze.toml` uses, and the parser rejects anything
//! else loudly rather than guessing.

use std::collections::BTreeMap;

/// Scoping configuration for one analysis run.
///
/// All paths are `/`-separated prefixes relative to the workspace root:
/// a file is "in" a list when its relative path starts with any entry.
/// An empty list means "nowhere" for rule paths; use `""` to match
/// every scanned file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Directories to scan for `.rs` files.
    pub roots: Vec<String>,
    /// Path prefixes never scanned (vendored deps, build output,
    /// the analyzer's own violation fixtures).
    pub exclude: Vec<String>,
    /// D1 (hash-order leakage) applies under these prefixes.
    pub d1_paths: Vec<String>,
    /// D2 (truncating casts of computed values) applies here.
    pub d2_paths: Vec<String>,
    /// D3 (float arithmetic / comparison) applies here.
    pub d3_paths: Vec<String>,
    /// D4 timing exemptions: `SystemTime`/`Instant` are expected here
    /// (benchmark harnesses measure wall time by design).
    pub d4_timing_exempt: Vec<String>,
    /// D4 environment exemptions: the CLI layer may read `std::env`.
    pub d4_env_exempt: Vec<String>,
    /// D5 (unordered parallel reduction) applies under these prefixes.
    pub d5_paths: Vec<String>,
}

impl Config {
    /// A config whose every rule applies to every path — what the
    /// fixture tests use so a fixture's findings don't depend on the
    /// workspace's own scoping.
    #[must_use]
    pub fn everywhere() -> Config {
        let all = vec![String::new()];
        Config {
            roots: all.clone(),
            exclude: Vec::new(),
            d1_paths: all.clone(),
            d2_paths: all.clone(),
            d3_paths: all.clone(),
            d4_timing_exempt: Vec::new(),
            d4_env_exempt: Vec::new(),
            d5_paths: all,
        }
    }

    /// Parses an `analyze.toml` document.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed line.
    pub fn parse(text: &str) -> Result<Config, String> {
        let raw = parse_subset(text)?;
        let list = |section: &str, key: &str| -> Vec<String> {
            raw.get(&(section.to_string(), key.to_string()))
                .cloned()
                .unwrap_or_default()
        };
        Ok(Config {
            roots: list("scan", "roots"),
            exclude: list("scan", "exclude"),
            d1_paths: list("rules.d1", "paths"),
            d2_paths: list("rules.d2", "paths"),
            d3_paths: list("rules.d3", "paths"),
            d4_timing_exempt: list("rules.d4", "timing_exempt"),
            d4_env_exempt: list("rules.d4", "env_exempt"),
            d5_paths: list("rules.d5", "paths"),
        })
    }
}

/// Returns `true` when `rel` (a `/`-separated relative path) falls
/// under any prefix in `prefixes`.
#[must_use]
pub fn path_in(rel: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p.as_str()))
}

/// Parses the TOML subset into `(section, key) → list of strings`
/// (scalar strings become one-element lists; booleans/ints rejected —
/// the config schema is all string lists today).
fn parse_subset(text: &str) -> Result<BTreeMap<(String, String), Vec<String>>, String> {
    let mut out = BTreeMap::new();
    let mut section = String::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((n, raw_line)) = lines.next() {
        let line = strip_comment(raw_line).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(format!("line {}: unterminated section header", n + 1));
            };
            section = name.trim().to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {}: expected `key = value`", n + 1));
        };
        let key = key.trim().to_string();
        let mut value = value.trim().to_string();
        // Multi-line array: keep consuming lines until the `]` closes.
        while value.starts_with('[') && !value.ends_with(']') {
            let Some((_, cont)) = lines.next() else {
                return Err(format!("line {}: unterminated array", n + 1));
            };
            value.push(' ');
            value.push_str(strip_comment(cont).trim());
        }
        let items = parse_value(&value).map_err(|e| format!("line {}: {e}", n + 1))?;
        out.insert((section.clone(), key), items);
    }
    Ok(out)
}

/// Strips a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `"string"` or `["a", "b", …]` into a list of strings.
fn parse_value(value: &str) -> Result<Vec<String>, String> {
    if let Some(inner) = value.strip_prefix('[') {
        let Some(inner) = inner.strip_suffix(']') else {
            return Err("unterminated array".into());
        };
        let mut items = Vec::new();
        for part in split_array_items(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            items.push(parse_string(part)?);
        }
        return Ok(items);
    }
    Ok(vec![parse_string(value)?])
}

/// Splits array items on commas outside quotes.
fn split_array_items(inner: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut current = String::new();
    let mut in_str = false;
    for c in inner.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                current.push(c);
            }
            ',' if !in_str => {
                items.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        items.push(current);
    }
    items
}

/// Parses one quoted string.
fn parse_string(part: &str) -> Result<String, String> {
    let part = part.trim();
    let stripped = part
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("expected a quoted string, got `{part}`"))?;
    Ok(stripped.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_scalars_and_multiline_arrays() {
        let cfg = Config::parse(
            r#"
# top comment
[scan]
roots = ["crates", "src"]  # trailing comment
exclude = [
    "vendor",   # vendored deps
    "target",
]

[rules.d1]
paths = ["crates/runner/src"]

[rules.d4]
env_exempt = "crates/bench/src/bin"
"#,
        )
        .unwrap();
        assert_eq!(cfg.roots, ["crates", "src"]);
        assert_eq!(cfg.exclude, ["vendor", "target"]);
        assert_eq!(cfg.d1_paths, ["crates/runner/src"]);
        assert_eq!(cfg.d4_env_exempt, ["crates/bench/src/bin"]);
        assert!(cfg.d5_paths.is_empty());
    }

    #[test]
    fn path_in_matches_prefixes() {
        let prefixes = vec!["crates/runner/src".to_string()];
        assert!(path_in("crates/runner/src/grid.rs", &prefixes));
        assert!(!path_in("crates/runner/tests/grid.rs", &prefixes));
        assert!(path_in("anything.rs", &[String::new()]));
        assert!(!path_in("anything.rs", &[]));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Config::parse("[scan\nroots = []").is_err());
        assert!(Config::parse("[scan]\nroots").is_err());
        assert!(Config::parse("[scan]\nroots = [unquoted]").is_err());
        let err = Config::parse("[scan]\nroots = \"ok\"\nbad line").unwrap_err();
        assert!(err.contains("line 3"), "{err}");
    }

    #[test]
    fn comment_stripping_respects_quotes() {
        let cfg = Config::parse("[scan]\nroots = [\"a#b\"] # real comment").unwrap();
        assert_eq!(cfg.roots, ["a#b"]);
    }
}
