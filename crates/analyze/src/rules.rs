//! The determinism rules, D1–D5, as token-stream matchers.
//!
//! Every rule is deliberately *syntactic*: it cannot do type inference,
//! so it draws the line where a reviewer would — in determinism-critical
//! paths a hash-ordered container, a truncating cast of a computed
//! value, a float, a wall clock, or a raw parallel fold is guilty until
//! an `// analyze: allow(<rule>) — <why>` annotation (or a fix) proves
//! it order-safe. Test modules (`#[cfg(test)]`, `#[test]`) are exempt:
//! tests may use hash sets for membership checks freely, and the
//! determinism guarantees cover shipped sweep output, not assertions.

use crate::config::{path_in, Config};
use crate::lexer::{Lexed, Token, TokenKind};
use std::collections::BTreeSet;

/// A raw rule hit, before allow-annotation matching.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RawFinding {
    /// 1-based line.
    pub line: usize,
    /// `D1`–`D5`.
    pub rule: &'static str,
    /// What the rule saw.
    pub message: String,
}

/// One file's tokens plus the derived per-token context flags.
pub struct FileContext<'a> {
    /// `/`-separated path relative to the workspace root.
    pub rel: &'a str,
    /// The lexed file.
    pub lexed: &'a Lexed,
    /// `in_test[i]`: token `i` is inside a `#[cfg(test)]` / `#[test]`
    /// item (rules skip it).
    in_test: Vec<bool>,
    /// `in_use[i]`: token `i` is inside a `use …;` declaration (D1/D3
    /// flag use *sites*, not imports).
    in_use: Vec<bool>,
}

impl<'a> FileContext<'a> {
    /// Builds the context: marks test regions and use declarations.
    #[must_use]
    pub fn new(rel: &'a str, lexed: &'a Lexed) -> FileContext<'a> {
        let tokens = &lexed.tokens;
        let mut in_test = vec![false; tokens.len()];
        let mut i = 0;
        while i < tokens.len() {
            if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
                let attr_end = match matching_close(tokens, i + 1, '[', ']') {
                    Some(e) => e,
                    None => break,
                };
                if attr_is_test(&tokens[i + 2..attr_end]) {
                    let item_end = item_end_after(tokens, attr_end + 1);
                    for flag in in_test.iter_mut().take(item_end).skip(i) {
                        *flag = true;
                    }
                    i = item_end;
                    continue;
                }
                i = attr_end + 1;
                continue;
            }
            i += 1;
        }
        let mut in_use = vec![false; tokens.len()];
        let mut i = 0;
        while i < tokens.len() {
            if tokens[i].ident() == Some("use") {
                let mut j = i;
                while j < tokens.len() && !tokens[j].is_punct(';') {
                    in_use[j] = true;
                    j += 1;
                }
                i = j + 1;
                continue;
            }
            i += 1;
        }
        FileContext {
            rel,
            lexed,
            in_test,
            in_use,
        }
    }

    fn skip(&self, i: usize) -> bool {
        self.in_test[i] || self.in_use[i]
    }
}

/// `true` when the attribute tokens mark a test item: `#[test]`,
/// `#[cfg(test)]`, `#[cfg(all(test, …))]` — but not `#[cfg(not(test))]`.
fn attr_is_test(tokens: &[Token]) -> bool {
    let has = |name: &str| tokens.iter().any(|t| t.ident() == Some(name));
    has("test") && !has("not")
}

/// Index of the close delimiter matching the open one at `open`.
fn matching_close(tokens: &[Token], open: usize, oc: char, cc: char) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(oc) {
            depth += 1;
        } else if t.is_punct(cc) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// One past the end of the item starting at `start`: the matching `}`
/// of its first top-level brace, or its terminating `;`, whichever the
/// item has (further attributes on the item are stepped over).
fn item_end_after(tokens: &[Token], start: usize) -> usize {
    let mut i = start;
    // Step over stacked attributes.
    while i < tokens.len()
        && tokens[i].is_punct('#')
        && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
    {
        match matching_close(tokens, i + 1, '[', ']') {
            Some(e) => i = e + 1,
            None => return tokens.len(),
        }
    }
    let mut depth = 0i64;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokenKind::Punct('{' | '(' | '[') => depth += 1,
            TokenKind::Punct('}' | ')' | ']') => {
                depth -= 1;
                if depth == 0 && tokens[i].is_punct('}') {
                    return i + 1;
                }
            }
            TokenKind::Punct(';') if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    tokens.len()
}

/// Runs every rule whose configured paths cover `cx.rel`; findings are
/// deduplicated to one per (rule, line).
#[must_use]
pub fn run_rules(cx: &FileContext<'_>, cfg: &Config) -> Vec<RawFinding> {
    let mut out = Vec::new();
    if path_in(cx.rel, &cfg.d1_paths) {
        d1_hash_order(cx, &mut out);
    }
    if path_in(cx.rel, &cfg.d2_paths) {
        d2_truncating_casts(cx, &mut out);
    }
    if path_in(cx.rel, &cfg.d3_paths) {
        d3_float_arithmetic(cx, &mut out);
    }
    d4_nondeterminism_sources(cx, cfg, &mut out);
    if path_in(cx.rel, &cfg.d5_paths) {
        d5_unordered_parallel(cx, &mut out);
    }
    let mut seen = BTreeSet::new();
    out.retain(|f| seen.insert((f.rule, f.line)));
    out.sort();
    out
}

/// D1 — hash-order leakage. In determinism-critical paths any
/// `HashMap`/`HashSet` is flagged: iteration order over them
/// (`for … in`, `.iter()`, `.keys()`, `.values()`, `.drain()`) is
/// nondeterministic and leaks straight into folds, merges, reports and
/// ledgers. Sites that only ever do point lookups carry an allow saying
/// exactly that; everything else converts to `BTreeMap`/`BTreeSet` or a
/// sorted collect.
fn d1_hash_order(cx: &FileContext<'_>, out: &mut Vec<RawFinding>) {
    for (i, t) in cx.lexed.tokens.iter().enumerate() {
        if cx.skip(i) {
            continue;
        }
        if let Some(name @ ("HashMap" | "HashSet")) = t.ident() {
            out.push(RawFinding {
                line: t.line,
                rule: "D1",
                message: format!(
                    "{name} in a determinism-critical path: its iteration order \
                     (for-in/iter/keys/values/drain) is nondeterministic and can leak \
                     into folds, reports or ledgers — use BTreeMap/BTreeSet or collect \
                     and sort, or annotate `// analyze: allow(d1) — <why order-safe>`"
                ),
            });
        }
    }
}

const NARROW_INT_TARGETS: [&str; 10] = [
    "u8", "u16", "u32", "u64", "usize", "i8", "i16", "i32", "i64", "isize",
];

/// D2 — truncating `as` casts of computed values: `(a * b + c) as u64`
/// style, the PR-2 grid-stride wrap class. The value inside the
/// parenthesized group grows through `*`, `+` or `<<` and the cast then
/// silently truncates; the fix is widening *before* the arithmetic
/// (u128 cross-products) or `try_from` with an explicit failure. Bare
/// widening casts (`i as u64 * …`) are not flagged — they move the
/// arithmetic into the wider type, which is the sanctioned pattern.
fn d2_truncating_casts(cx: &FileContext<'_>, out: &mut Vec<RawFinding>) {
    let tokens = &cx.lexed.tokens;
    for i in 1..tokens.len() {
        if cx.skip(i) || tokens[i].ident() != Some("as") {
            continue;
        }
        let Some(target) = tokens.get(i + 1).and_then(|t| t.ident()) else {
            continue;
        };
        if !NARROW_INT_TARGETS.contains(&target) {
            continue;
        }
        if !tokens[i - 1].is_punct(')') {
            continue;
        }
        let Some(open) = matching_open(tokens, i - 1) else {
            continue;
        };
        if let Some(op) = top_level_growing_op(&tokens[open + 1..i - 1]) {
            out.push(RawFinding {
                line: tokens[i].line,
                rule: "D2",
                message: format!(
                    "`as {target}` truncates a value computed with `{op}` inside the \
                     group — on large index spaces this wraps silently (the PR-2 \
                     grid-stride bug class); widen before the arithmetic \
                     (`a as u128 * b as u128`) or use `{target}::try_from`, or annotate \
                     `// analyze: allow(d2) — <why it cannot overflow>`"
                ),
            });
        }
    }
}

/// Index of the `(` matching the `)` at `close`, scanning backwards.
fn matching_open(tokens: &[Token], close: usize) -> Option<usize> {
    let mut depth = 0i64;
    for i in (0..=close).rev() {
        if tokens[i].is_punct(')') {
            depth += 1;
        } else if tokens[i].is_punct('(') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// The first top-level *binary* value-growing operator (`*`, `+`, `<<`)
/// in a token slice, if any. Unary `*`/`+` (deref, nothing) don't
/// count: the operator must follow an operand. Shrinking operators
/// (`-`, `/`, `%`) are deliberately ignored — they cannot overflow the
/// group past its inputs.
fn top_level_growing_op(group: &[Token]) -> Option<&'static str> {
    let mut depth = 0i64;
    for (i, t) in group.iter().enumerate() {
        match &t.kind {
            TokenKind::Punct('(' | '[' | '{') => depth += 1,
            TokenKind::Punct(')' | ']' | '}') => depth -= 1,
            TokenKind::Punct(op @ ('*' | '+'))
                if depth == 0 && i > 0 && is_operand_end(&group[i - 1]) =>
            {
                return Some(if *op == '*' { "*" } else { "+" });
            }
            TokenKind::Punct('<')
                if depth == 0
                    && group.get(i + 1).is_some_and(|n| n.is_punct('<'))
                    && i > 0
                    && is_operand_end(&group[i - 1]) =>
            {
                return Some("<<");
            }
            _ => {}
        }
    }
    None
}

/// `true` when a token can end an operand — so the operator after it is
/// binary arithmetic, not a unary prefix or a pointer sigil.
fn is_operand_end(t: &Token) -> bool {
    matches!(
        t.kind,
        TokenKind::Ident(_) | TokenKind::Number | TokenKind::Punct(')') | TokenKind::Punct(']')
    )
}

const FLOAT_IDENTS: [&str; 7] = ["f32", "f64", "powf", "powi", "sqrt", "log2", "log10"];

/// D3 — float types or float math in determinism-critical paths. The
/// witness tie-break and merge convention is exact u128
/// cross-multiplication (`ratio_cmp`); floats round, and libm
/// functions (`powf`, `log2`) may differ across platforms, so a float
/// anywhere near a fold needs an exact-integer replacement or an allow
/// explaining why it is display-only.
fn d3_float_arithmetic(cx: &FileContext<'_>, out: &mut Vec<RawFinding>) {
    for (i, t) in cx.lexed.tokens.iter().enumerate() {
        if cx.skip(i) {
            continue;
        }
        if let Some(name) = t.ident() {
            if FLOAT_IDENTS.contains(&name) {
                out.push(RawFinding {
                    line: t.line,
                    rule: "D3",
                    message: format!(
                        "float (`{name}`) in a determinism-critical path: rounding and \
                         platform-dependent libm results can flip comparisons the exact \
                         u128 cross-multiplication convention exists to prevent — \
                         compute exactly in integers, or annotate \
                         `// analyze: allow(d3) — <why display-only / exactness-safe>`"
                    ),
                });
            }
        }
    }
}

const RNG_IDENTS: [&str; 3] = ["thread_rng", "from_entropy", "OsRng"];
const ENV_READS: [&str; 5] = ["var", "vars", "var_os", "args", "current_exe"];

/// D4 — nondeterminism sources: wall clocks (`SystemTime`, `Instant`)
/// outside the benchmark harness, unseeded RNG, and `std::env` reads
/// outside the CLI layer. Applies to every scanned file — a
/// nondeterminism source is hazardous wherever it lives.
fn d4_nondeterminism_sources(cx: &FileContext<'_>, cfg: &Config, out: &mut Vec<RawFinding>) {
    let tokens = &cx.lexed.tokens;
    let timing_exempt = path_in(cx.rel, &cfg.d4_timing_exempt);
    let env_exempt = path_in(cx.rel, &cfg.d4_env_exempt);
    for (i, t) in tokens.iter().enumerate() {
        if cx.in_test[i] {
            continue;
        }
        let Some(name) = t.ident() else { continue };
        if !timing_exempt && (name == "SystemTime" || name == "Instant") {
            out.push(RawFinding {
                line: t.line,
                rule: "D4",
                message: format!(
                    "`{name}` outside the benchmark harness: wall-clock values are \
                     nondeterministic; thread timing through the bench layer, or \
                     annotate `// analyze: allow(d4) — <why>`"
                ),
            });
        }
        if RNG_IDENTS.contains(&name) {
            out.push(RawFinding {
                line: t.line,
                rule: "D4",
                message: format!(
                    "`{name}` is an unseeded entropy source: every generator in this \
                     workspace must be seeded so sweeps replay byte-identically — \
                     take a seed, or annotate `// analyze: allow(d4) — <why>`"
                ),
            });
        }
        if !env_exempt
            && name == "env"
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && tokens
                .get(i + 3)
                .and_then(|t| t.ident())
                .is_some_and(|m| ENV_READS.contains(&m))
        {
            out.push(RawFinding {
                line: t.line,
                rule: "D4",
                message: "`std::env` read outside the CLI layer: process environment is \
                          per-invocation state; parse it once at the binary boundary and \
                          pass values down, or annotate `// analyze: allow(d4) — <why>`"
                    .into(),
            });
        }
    }
}

/// D5 — unordered parallel reduction: rayon-style `par_*` iterators and
/// raw `std::thread` spawns, scoped or not. Sweeps fold on one thread in
/// the `Runner`, and run in parallel only as fabric lease ranges merged
/// at global indices; any other parallel reduction folds in completion
/// order, which varies run to run. A thread that folds nothing (a
/// connection pump, a heartbeat) carries an allow saying so.
fn d5_unordered_parallel(cx: &FileContext<'_>, out: &mut Vec<RawFinding>) {
    let tokens = &cx.lexed.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if cx.in_test[i] {
            continue;
        }
        let Some(name) = t.ident() else { continue };
        let hit = if name.starts_with("par_") || name == "into_par_iter" || name == "rayon" {
            Some(format!(
                "`{name}` is an unordered parallel iterator: its reduction folds in \
                 completion order"
            ))
        } else if name == "thread"
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && tokens
                .get(i + 3)
                .and_then(|t| t.ident())
                .is_some_and(|m| m == "spawn" || m == "scope")
        {
            Some("raw `std::thread` parallelism".to_string())
        } else if name == "scope"
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && tokens
                .get(i + 2)
                .and_then(|t| t.ident())
                .is_some_and(|m| m == "spawn")
        {
            Some("raw scoped-thread spawn".to_string())
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(RawFinding {
                line: t.line,
                rule: "D5",
                message: format!(
                    "{what}: its results fold in completion order — sweep on one \
                     thread through `Runner`, parallelize only as fabric lease ranges \
                     (merged at global indices), or annotate \
                     `// analyze: allow(d5) — <why>`"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn findings(src: &str) -> Vec<RawFinding> {
        let lexed = lex(src);
        let cx = FileContext::new("any.rs", &lexed);
        run_rules(&cx, &Config::everywhere())
    }

    fn rules_of(src: &str) -> Vec<&'static str> {
        findings(src).iter().map(|f| f.rule).collect()
    }

    #[test]
    fn d1_flags_hash_containers_outside_use_and_tests() {
        assert_eq!(
            rules_of("fn f() { let m: HashMap<u64, u64> = HashMap::new(); }"),
            ["D1"]
        );
        assert!(rules_of("use std::collections::HashMap;").is_empty());
        assert!(
            rules_of("#[cfg(test)]\nmod tests { fn f() { let s = HashSet::new(); } }").is_empty()
        );
        assert!(rules_of(
            "#[cfg(not(test))]\nmod m { fn f() { let s: HashSet<u8> = HashSet::new(); } }"
        )
        .iter()
        .all(|r| *r == "D1"));
    }

    #[test]
    fn d2_flags_grouped_arithmetic_casts_only() {
        // The PR-2 wrap class: computed value, then truncation.
        assert_eq!(
            rules_of("fn f(i: usize, t: usize, c: usize) -> u64 { (i * t / c) as u64 }"),
            ["D2"]
        );
        assert_eq!(
            rules_of("fn f(a: u64, b: u64) -> usize { (a + b) as usize }"),
            ["D2"]
        );
        assert_eq!(rules_of("fn f(a: u32) -> u8 { (a << 2) as u8 }"), ["D2"]);
        // Widening before arithmetic is the sanctioned fix.
        assert!(rules_of("fn f(i: usize, t: usize) -> u128 { i as u128 * t as u128 }").is_empty());
        // Bool-to-int and plain narrowing of a single value: not this rule.
        assert!(rules_of("fn f(a: u64, b: u64) -> usize { (a < b) as usize }").is_empty());
        assert!(rules_of("fn f(x: u64) -> u32 { x as u32 }").is_empty());
        // Unary deref / shrinking operators don't count as growth.
        assert!(rules_of("fn f(x: &u64) -> u32 { (*x) as u32 }").is_empty());
        assert!(rules_of("fn f(a: u64) -> u32 { (a / 2) as u32 }").is_empty());
        // A call's argument parens are not the cast group.
        assert!(rules_of("fn f(n: i64, a: i64) -> usize { a.rem_euclid(n) as usize }").is_empty());
    }

    #[test]
    fn d3_flags_float_idents_once_per_line() {
        let hits = findings("fn mean(t: u128, n: usize) -> f64 { t as f64 / n as f64 }");
        assert_eq!(hits.len(), 1, "one finding per line: {hits:?}");
        assert_eq!(hits[0].rule, "D3");
        assert_eq!(
            rules_of("fn f(l: u64, c: f64) -> u64 { (l as f64).powf(1.0 / c) as u64 }"),
            ["D3"]
        );
        assert!(rules_of("fn f(a: u64, b: u64, c: u64, d: u64) -> bool { a as u128 * d as u128 > c as u128 * b as u128 }").is_empty());
    }

    #[test]
    fn d4_flags_clocks_entropy_and_env_reads() {
        assert_eq!(
            rules_of("fn f() -> u64 { SystemTime::now().elapsed().as_nanos() as u64 }"),
            ["D4"]
        );
        assert_eq!(rules_of("fn f() { let t = Instant::now(); }"), ["D4"]);
        assert_eq!(rules_of("fn f() { let mut rng = thread_rng(); }"), ["D4"]);
        assert_eq!(
            rules_of("fn f() { let s = std::env::var(\"SEED\"); }"),
            ["D4"]
        );
        // Methods *named* env without a :: read don't fire.
        assert!(rules_of("fn f(e: Env) { e.env.check(); }").is_empty());
        // Seeded RNG is the sanctioned pattern.
        assert!(
            rules_of("fn f(seed: u64) { let mut rng = StdRng::seed_from_u64(seed); }").is_empty()
        );
    }

    #[test]
    fn d5_flags_unordered_parallelism() {
        assert_eq!(
            rules_of("fn f(v: &[u64]) -> u64 { v.par_iter().sum() }"),
            ["D5"]
        );
        assert_eq!(rules_of("fn f() { std::thread::spawn(|| {}); }"), ["D5"]);
        assert_eq!(
            rules_of(
                "fn f() {\n    thread::scope(|scope| {\n        scope.spawn(|| {});\n    });\n}"
            )
            .len(),
            2
        );
        // A process Command::spawn is not a parallel fold.
        assert!(rules_of("fn f(c: &mut Command) { c.spawn().unwrap(); }").is_empty());
    }

    #[test]
    fn findings_dedupe_per_rule_and_line() {
        let hits = findings("fn f() { let a: HashMap<u8, HashMap<u8, u8>> = HashMap::new(); }");
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn test_attribute_skips_the_following_item_only() {
        let src = "#[test]\nfn t() { let s: HashSet<u8> = HashSet::new(); }\n\
                   fn real() { let s: HashSet<u8> = HashSet::new(); }";
        let hits = findings(src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 3);
    }
}
