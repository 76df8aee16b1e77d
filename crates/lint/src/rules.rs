//! The lint registry: every rule the workspace enforces, with the path
//! scoping and token checks that implement it.
//!
//! | Rule | Contract it protects |
//! |------|----------------------|
//! | `D1` | No `HashMap`/`HashSet` in crates whose output feeds digests or reports — hash iteration order is nondeterministic, so a single stray map silently breaks byte-identity. Use `BTreeMap`/`BTreeSet`. |
//! | `D2` | No wall-clock or entropy sources (`Instant::now`, `SystemTime`, `thread_rng`, `from_entropy`) outside the bench-timing bins — results must be a function of the seed alone. |
//! | `D3` | Every `std::env::var` read names a variable in the committed registry (`env-registry.txt`), keeping the config surface enumerable. |
//! | `D4` | No libm `tanh` (`.tanh(`, `f32::tanh`) in the `D1` crates' non-test source outside `crates/nn/src/math.rs` — `f32::tanh` returns whatever the host's libm returns, so the activation goes through the bit-exact `autocat_nn::math::tanh` port. |
//! | `R1` | No `unwrap`/`expect`/`panic!`/`unreachable!` in the daemon request path (`crates/serve/src/{server,proto,client}.rs`) — daemon errors flow through `ErrorKind`, they never kill a connection thread. |
//! | `U1` | Every `unsafe` block or `unsafe fn` is preceded by a `// SAFETY:` comment documenting the invariant it relies on. |
//! | `A0` | Suppression hygiene: every `// lint: allow(...)` carries a reason and actually suppresses something. |

use crate::lexer::LexedLine;
use std::collections::BTreeSet;

/// The committed env-var registry backing rule `D3`: one variable per
/// line, `#` comments and blanks ignored.
pub const ENV_REGISTRY: &str = include_str!("../env-registry.txt");

/// Crates whose output feeds digests or reports; rule `D1` bans
/// hash-ordered collections in their non-test source.
pub const D1_CRATES: &[&str] = &[
    "nn", "ppo", "gym", "scenario", "bench", "store", "detect", "attacks",
];

/// The one file in the `D1` crates rule `D4` exempts: the `tanh` port,
/// the place that may name libm's `tanh` when it documents or checks
/// the bits it reproduces.
pub const D4_ALLOWED_FILE: &str = "crates/nn/src/math.rs";

/// Path prefixes where wall-clock timing is the point (rule `D2` exempt).
pub const D2_ALLOWED_PREFIXES: &[&str] = &["crates/bench/src/bin/"];

/// Files forming the daemon request path (rule `R1` scope).
pub const R1_FILES: &[&str] = &[
    "crates/serve/src/server.rs",
    "crates/serve/src/proto.rs",
    "crates/serve/src/client.rs",
];

/// A named lint rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Hash-ordered collections in digest/report-path crates.
    D1,
    /// Wall-clock / entropy sources outside bench-timing modules.
    D2,
    /// Env reads outside the committed registry.
    D3,
    /// libm `tanh` in digest-path crates outside `autocat_nn::math`.
    D4,
    /// Panic paths in the daemon request path.
    R1,
    /// `unsafe` without a `// SAFETY:` audit comment.
    U1,
    /// Suppression hygiene (malformed or unused `lint: allow`).
    A0,
}

/// Every rule, in report order.
pub const ALL_RULES: &[Rule] = &[
    Rule::D1,
    Rule::D2,
    Rule::D3,
    Rule::D4,
    Rule::R1,
    Rule::U1,
    Rule::A0,
];

impl Rule {
    /// The rule's short id as it appears in findings and suppressions.
    pub fn id(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
            Rule::R1 => "R1",
            Rule::U1 => "U1",
            Rule::A0 => "A0",
        }
    }

    /// One-line description (the `--rules` listing).
    pub fn describe(self) -> &'static str {
        match self {
            Rule::D1 => "no HashMap/HashSet in digest/report-path crates (use BTreeMap/BTreeSet)",
            Rule::D2 => "no Instant::now/SystemTime/thread_rng/from_entropy outside bench bins",
            Rule::D3 => "every std::env::var read must name a variable in env-registry.txt",
            Rule::D4 => {
                "no .tanh(/f32::tanh in digest/report-path crates outside nn/src/math.rs \
                 (use autocat_nn::math::tanh)"
            }
            Rule::R1 => "no unwrap/expect/panic!/unreachable! in the daemon request path",
            Rule::U1 => "every unsafe block/fn needs a preceding // SAFETY: comment",
            Rule::A0 => "every `lint: allow` suppression needs a reason and a matching finding",
        }
    }

    /// Parses a rule id (as written in a suppression).
    pub fn parse(id: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.id() == id)
    }
}

/// Parses [`ENV_REGISTRY`] into the set of registered variable names.
pub fn env_registry() -> BTreeSet<&'static str> {
    ENV_REGISTRY
        .lines()
        .map(|line| line.split('#').next().unwrap_or("").trim())
        .filter(|name| !name.is_empty())
        .collect()
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `code` contains `token` with identifier boundaries on both
/// sides (so `HashMap` does not match `MyHashMapper`). Tokens may contain
/// non-identifier punctuation (`Instant::now`, `.unwrap()`); boundaries
/// are only enforced where the token itself starts/ends with an
/// identifier character.
pub fn has_token(code: &str, token: &str) -> bool {
    find_token(code, token, 0).is_some()
}

/// Position of the first boundary-respecting occurrence of `token` at or
/// after byte `from`.
pub fn find_token(code: &str, token: &str, from: usize) -> Option<usize> {
    let mut start = from;
    while let Some(pos) = code.get(start..).and_then(|s| s.find(token)) {
        let at = start + pos;
        let before_ok = !token.starts_with(is_ident)
            || code[..at].chars().next_back().is_none_or(|c| !is_ident(c));
        let end = at + token.len();
        let after_ok =
            !token.ends_with(is_ident) || code[end..].chars().next().is_none_or(|c| !is_ident(c));
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + 1;
    }
    None
}

/// Whether rule `D1` covers `path` (relative, `/`-separated).
pub fn d1_applies(path: &str) -> bool {
    D1_CRATES
        .iter()
        .any(|krate| path.starts_with(&format!("crates/{krate}/src/")))
}

/// Whether rule `D4` covers `path`: the `D1` crates, minus the port.
pub fn d4_applies(path: &str) -> bool {
    d1_applies(path) && path != D4_ALLOWED_FILE
}

/// Whether `path` is exempt from rule `D2` (a bench-timing module).
pub fn d2_exempt(path: &str) -> bool {
    D2_ALLOWED_PREFIXES.iter().any(|p| path.starts_with(p))
}

/// Whether rule `R1` covers `path`.
pub fn r1_applies(path: &str) -> bool {
    R1_FILES.contains(&path)
}

/// Tokens banned by `D1`.
pub const D1_TOKENS: &[&str] = &["HashMap", "HashSet"];
/// Tokens banned by `D2`.
pub const D2_TOKENS: &[&str] = &["Instant::now", "SystemTime", "thread_rng", "from_entropy"];
/// Tokens banned by `D4`.
pub const D4_TOKENS: &[&str] = &[".tanh(", "f32::tanh"];
/// Tokens banned by `R1`.
pub const R1_TOKENS: &[&str] = &[".unwrap()", ".expect(", "panic!", "unreachable!"];

/// `D3`: every `env::var`/`env::var_os` read on this line, resolved to a
/// violation message when the name is not a registered literal.
pub fn check_env_reads(line: &LexedLine, registry: &BTreeSet<&'static str>, out: &mut Vec<String>) {
    let code = &line.code;
    let mut from = 0;
    // A plain `find_token` cannot match `env::var_os` (the `_` fails its
    // after-boundary), so scan with the before-boundary only and resolve
    // the suffix by hand.
    while let Some(pos) = code.get(from..).and_then(|s| s.find("env::var")) {
        let at = from + pos;
        let mut after = at + "env::var".len();
        from = after;
        if code[..at].chars().next_back().is_some_and(is_ident) {
            continue; // part of a longer identifier, e.g. `my_env::var`
        }
        if code[after..].starts_with("_os") {
            after += 3;
        }
        if code[after..].starts_with(is_ident) {
            continue; // `env::vars()`, `env::var_other`, ... — not an env read
        }
        let rest = &code[after..];
        if !rest.starts_with('(') {
            continue;
        }
        let arg = rest[1..].trim_start();
        if !arg.starts_with('"') {
            out.push(
                "env read with a non-literal name: the variable must be a string literal \
                 so the config surface stays enumerable"
                    .to_string(),
            );
            continue;
        }
        // The blanked code leaves `""` per literal: counting quotes before
        // the argument's opening quote indexes into the line's literals.
        let quote_at = after + 1 + (rest[1..].len() - arg.len());
        let index = code[..quote_at].matches('"').count() / 2;
        match line.strings.get(index) {
            Some(name) if registry.contains(name.as_str()) => {}
            Some(name) => out.push(format!(
                "env read of unregistered variable `{name}`: add it to \
                 crates/lint/env-registry.txt (with a comment) or rename"
            )),
            None => out.push("env read whose literal spans lines; hoist it".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn token_boundaries() {
        assert!(has_token("use std::collections::HashMap;", "HashMap"));
        assert!(!has_token("struct MyHashMapper;", "HashMap"));
        assert!(!has_token("let hashmap = 1;", "HashMap"));
        assert!(has_token("let t = Instant::now();", "Instant::now"));
        assert!(!has_token("let t = MyInstant::nowhere();", "Instant::now"));
        assert!(has_token("x.unwrap()", ".unwrap()"));
        assert!(!has_token("x.unwrap_or(0)", ".unwrap()"));
        assert!(has_token("std::panic!(\"\")", "panic!"));
        assert!(!has_token("fn explicit_panic() {}", "panic!"));
        assert!(has_token("let y = x.tanh();", ".tanh("));
        assert!(!has_token("math::tanh_in_place(&mut y);", ".tanh("));
        assert!(has_token("xs.map(f32::tanh)", "f32::tanh"));
        assert!(!has_token("let t = my_f32::tanh_of(x);", "f32::tanh"));
    }

    #[test]
    fn env_read_extraction() {
        let registry = env_registry();
        assert!(registry.contains("SIMD_TIER"), "registry must self-load");
        let mut out = Vec::new();
        let line = &lex("let a = std::env::var(\"SIMD_TIER\");\n")[0];
        check_env_reads(line, &registry, &mut out);
        assert!(out.is_empty(), "{out:?}");

        let line = &lex("let a = std::env::var_os(\"NOT_REGISTERED_EVER\");\n")[0];
        check_env_reads(line, &registry, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("NOT_REGISTERED_EVER"));

        out.clear();
        let line = &lex("let a = std::env::var(name);\n")[0];
        check_env_reads(line, &registry, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("non-literal"));

        // `env::vars()` iteration is not an env read.
        out.clear();
        let line = &lex("for (k, v) in std::env::vars() {}\n")[0];
        check_env_reads(line, &registry, &mut out);
        assert!(out.is_empty());

        // The second literal on a line is resolved correctly.
        out.clear();
        let line = &lex("let a = (\"x\", std::env::var(\"SIMD_TIER\"));\n")[0];
        check_env_reads(line, &registry, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn path_scoping() {
        assert!(d1_applies("crates/detect/src/cyclone.rs"));
        assert!(!d1_applies("crates/serve/src/server.rs"));
        assert!(!d1_applies("crates/detect/tests/golden.rs"));
        assert!(d4_applies("crates/nn/src/layers/activation.rs"));
        assert!(!d4_applies("crates/nn/src/math.rs"));
        assert!(!d4_applies("crates/serve/src/server.rs"));
        assert!(d2_exempt("crates/bench/src/bin/train_bench.rs"));
        assert!(!d2_exempt("crates/bench/src/sweep.rs"));
        assert!(r1_applies("crates/serve/src/proto.rs"));
        assert!(!r1_applies("crates/serve/src/cmd.rs"));
    }
}
