//! The rule registry and the six token-pattern passes.
//!
//! Every rule is grounded in a bug class this workspace has actually hit
//! (see ARCHITECTURE.md § "Determinism invariants" for the full rationale):
//!
//! * **D001** — unordered `HashMap`/`HashSet` in report-producing crates.
//!   PR 3 class: iteration order leaked into sort tie-breaks and error
//!   messages. Use `BTreeMap`/sorted vecs.
//! * **D002** — wall-clock reads outside the bench crate. Stdout reports
//!   are byte-compared in CI; `Instant::now` on a report path breaks them.
//! * **D003** — float accumulation (`sum`/`fold`/`reduce`) in a parallel
//!   iterator chain. Only the vendored rayon's fixed-chunk in-order
//!   combine keeps these byte-identical across thread counts; every such
//!   site must carry a waiver citing that guarantee.
//! * **P001** — `unwrap`/`expect`/`panic!`/literal indexing in the routing
//!   hot paths. PR 3 converted release-mode panics to structured `PrError`s;
//!   this rule keeps new ones out (or documented via waiver).
//! * **U001** — `unsafe` anywhere in first-party code (all first-party
//!   crates `#![forbid(unsafe_code)]`; the rule also catches
//!   `#[allow(unsafe_code)]` attempts to regress that).
//! * **V001** — vendor hygiene: vendored stand-ins must not reach
//!   `std::process`, `std::net` or wall-clock APIs except where waived.
//!
//! Scoping is path-based (workspace-relative, forward slashes). Unit-test
//! modules (`#[cfg(test)] mod`) are skipped by every rule.

use crate::config::Config;
use crate::lexer::{in_regions, test_regions, Token};
use crate::report::{Diagnostic, Severity};
use crate::waivers;

/// Registry metadata for one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable id (`D001` …).
    pub id: &'static str,
    /// One-line summary for `pamr-lint rules`.
    pub summary: &'static str,
}

/// Every rule the pass knows, waiver-hygiene pseudo-rules included.
pub const REGISTRY: &[RuleInfo] = &[
    RuleInfo {
        id: "D001",
        summary: "unordered HashMap/HashSet in report-producing code (use BTreeMap/sorted vecs)",
    },
    RuleInfo {
        id: "D002",
        summary: "Instant::now/SystemTime::now outside the bench allowlist (reports are time-free)",
    },
    RuleInfo {
        id: "D003",
        summary: "float sum/fold/reduce in a parallel chain (waive citing fixed-chunk combine)",
    },
    RuleInfo {
        id: "P001",
        summary: "unwrap/expect/panic!/literal indexing in routing hot paths (structured errors)",
    },
    RuleInfo {
        id: "U001",
        summary: "unsafe code outside vendor/",
    },
    RuleInfo {
        id: "V001",
        summary: "vendored code reaching std::process/std::net/wall-clock APIs",
    },
    RuleInfo {
        id: "W000",
        summary: "waiver without a reason",
    },
    RuleInfo {
        id: "W001",
        summary: "waiver naming an unknown rule",
    },
];

/// The registry's rule ids.
pub fn rule_ids() -> Vec<&'static str> {
    REGISTRY.iter().map(|r| r.id).collect()
}

/// First-party source: the facade plus every `crates/*/src` tree.
fn first_party(path: &str) -> bool {
    path.starts_with("src/") || path.starts_with("crates/")
}

/// D001 scope: the crates whose output feeds campaign reports or load maps.
fn d001_scope(path: &str) -> bool {
    path.starts_with("crates/sim/src/")
        || path.starts_with("crates/routing/src/")
        || path.starts_with("crates/mesh/src/")
}

/// D002 scope: all first-party code except the bench crate (whose entire
/// point is timing) — bench output is gated by ratio, never byte-compared.
fn d002_scope(path: &str) -> bool {
    first_party(path) && !path.starts_with("crates/bench/")
}

/// P001 scope: the routing hot paths (PR 3/4/5/6/7 engine files).
fn p001_scope(path: &str) -> bool {
    const FILES: &[&str] = &[
        "crates/routing/src/pr.rs",
        "crates/routing/src/xyi.rs",
        "crates/routing/src/ig.rs",
        "crates/routing/src/loadq.rs",
        "crates/routing/src/session.rs",
        "crates/routing/src/precompute.rs",
        "crates/routing/src/comm.rs",
        // PR 9: the flat CSR crossing index sits under every optimized
        // engine's candidate scan, so it is held to the same panic-safety
        // bar as the engines themselves.
        "crates/routing/src/csr.rs",
    ];
    FILES.contains(&path)
        || path.starts_with("crates/routing/src/pr/")
        || path.starts_with("crates/routing/src/xyi/")
        || path.starts_with("crates/routing/src/ig/")
}

/// V001 scope: the vendored stand-ins.
fn v001_scope(path: &str) -> bool {
    path.starts_with("vendor/")
}

/// Runs every applicable rule over one lexed file, applies waivers, and
/// appends the surviving diagnostics (plus waiver-hygiene diagnostics).
pub fn check_file(path: &str, tokens: &[Token], config: &Config, out: &mut Vec<Diagnostic>) {
    let regions = test_regions(tokens);
    let code: Vec<&Token> = tokens.iter().filter(|t| t.is_code()).collect();
    let mut diags: Vec<Diagnostic> = Vec::new();

    let push = |rule: &'static str, t: &Token, message: String, diags: &mut Vec<Diagnostic>| {
        let severity = config.severity(rule);
        if severity == Severity::Off || in_regions(&regions, t.line) {
            return;
        }
        diags.push(Diagnostic {
            rule,
            severity,
            file: path.to_string(),
            line: t.line,
            col: t.col,
            message,
        });
    };

    if d001_scope(path) {
        for t in &code {
            if t.text == "HashMap" || t.text == "HashSet" {
                push(
                    "D001",
                    t,
                    format!(
                        "{} iteration order is unspecified and can leak into reports; \
                         use BTreeMap/BTreeSet or a sorted vec (or waive a lookup-only use)",
                        t.text
                    ),
                    &mut diags,
                );
            }
        }
    }

    if d002_scope(path) || v001_scope(path) {
        let rule: &'static str = if v001_scope(path) { "V001" } else { "D002" };
        for i in 0..code.len() {
            let t = code[i];
            if (t.text == "Instant" || t.text == "SystemTime")
                && matches!(code.get(i + 1), Some(n) if n.kind == crate::lexer::TokKind::Punct(':'))
                && matches!(code.get(i + 2), Some(n) if n.kind == crate::lexer::TokKind::Punct(':'))
                && matches!(code.get(i + 3), Some(n) if n.text == "now")
            {
                push(
                    rule,
                    t,
                    format!(
                        "{}::now() reads the wall clock; deterministic output paths must be \
                         time-free (timings go to stderr or the bench crate)",
                        t.text
                    ),
                    &mut diags,
                );
            }
        }
    }

    if first_party(path) {
        // D003: float accumulation inside a parallel chain. A chain starts
        // at `.par_iter()`-family calls and ends when the bracket depth
        // drops below the depth at which it started, or at a `;` at that
        // depth — tracked over code tokens only, so strings/comments never
        // confuse the bracket count.
        const PAR: &[&str] = &[
            "par_iter",
            "into_par_iter",
            "par_iter_mut",
            "par_bridge",
            "par_chunks",
        ];
        const ACC: &[&str] = &["sum", "fold", "reduce", "reduce_with"];
        let mut depth: i64 = 0;
        let mut chain_depth: Option<i64> = None;
        for i in 0..code.len() {
            let t = code[i];
            match t.kind {
                crate::lexer::TokKind::Punct('(' | '[' | '{') => depth += 1,
                crate::lexer::TokKind::Punct(')' | ']' | '}') => {
                    depth -= 1;
                    if chain_depth.is_some_and(|d| depth < d) {
                        chain_depth = None;
                    }
                }
                crate::lexer::TokKind::Punct(';') if chain_depth.is_some_and(|d| depth <= d) => {
                    chain_depth = None;
                }
                crate::lexer::TokKind::Ident => {
                    let after_dot = i > 0 && code[i - 1].kind == crate::lexer::TokKind::Punct('.');
                    if after_dot && PAR.contains(&t.text.as_str()) {
                        chain_depth = Some(depth);
                    } else if after_dot && chain_depth.is_some() && ACC.contains(&t.text.as_str()) {
                        push(
                            "D003",
                            t,
                            format!(
                                ".{}() accumulates floats across a parallel chain; only the \
                                 vendored rayon's fixed-chunk in-order combine keeps this \
                                 byte-identical across thread counts — waive citing that \
                                 guarantee, or restructure",
                                t.text
                            ),
                            &mut diags,
                        );
                    }
                }
                _ => {}
            }
        }
    }

    if p001_scope(path) {
        for i in 0..code.len() {
            let t = code[i];
            let after_dot = i > 0 && code[i - 1].kind == crate::lexer::TokKind::Punct('.');
            let before_bang =
                matches!(code.get(i + 1), Some(n) if n.kind == crate::lexer::TokKind::Punct('!'));
            if after_dot && matches!(t.text.as_str(), "unwrap" | "expect" | "expect_err") {
                push(
                    "P001",
                    t,
                    format!(
                        ".{}() panics on the failure path; return a structured error \
                         (PrError precedent) or waive with the invariant that rules the \
                         failure out",
                        t.text
                    ),
                    &mut diags,
                );
            } else if before_bang
                && matches!(t.text.as_str(), "panic" | "todo" | "unimplemented")
                && !after_dot
            {
                push(
                    "P001",
                    t,
                    format!(
                        "{}! in a routing hot path; prefer a structured error, or waive \
                         with the documented escalation policy",
                        t.text
                    ),
                    &mut diags,
                );
            } else if t.kind == crate::lexer::TokKind::Punct('[')
                && i > 0
                && matches!(
                    code[i - 1].kind,
                    crate::lexer::TokKind::Ident
                        | crate::lexer::TokKind::Punct(')')
                        | crate::lexer::TokKind::Punct(']')
                )
                && matches!(code.get(i + 1), Some(n) if n.kind == crate::lexer::TokKind::Number)
                && matches!(code.get(i + 2), Some(n) if n.kind == crate::lexer::TokKind::Punct(']'))
            {
                push(
                    "P001",
                    t,
                    "indexing with a literal panics when the container is shorter; use \
                     .get(..) or waive with the length invariant"
                        .to_string(),
                    &mut diags,
                );
            }
        }
    }

    if first_party(path) {
        for i in 0..code.len() {
            let t = code[i];
            if t.text == "unsafe" {
                push(
                    "U001",
                    t,
                    "unsafe code in a first-party crate (all are #![forbid(unsafe_code)])"
                        .to_string(),
                    &mut diags,
                );
            } else if t.text == "unsafe_code"
                && i >= 2
                && code[i - 1].kind == crate::lexer::TokKind::Punct('(')
                && code[i - 2].text == "allow"
            {
                push(
                    "U001",
                    t,
                    "#[allow(unsafe_code)] would regress the workspace-wide forbid".to_string(),
                    &mut diags,
                );
            }
        }
    }

    if v001_scope(path) {
        for i in 0..code.len() {
            let t = code[i];
            if t.text == "std"
                && matches!(code.get(i + 1), Some(n) if n.kind == crate::lexer::TokKind::Punct(':'))
                && matches!(code.get(i + 2), Some(n) if n.kind == crate::lexer::TokKind::Punct(':'))
                && matches!(code.get(i + 3), Some(n) if n.text == "process" || n.text == "net")
            {
                let what = &code[i + 3].text;
                push(
                    "V001",
                    t,
                    format!(
                        "vendored stand-in reaches std::{what}; vendor code must stay \
                         hermetic (waive only with an explicit reason)"
                    ),
                    &mut diags,
                );
            }
        }
    }

    // Waivers: suppress covered diagnostics, then report waiver hygiene.
    let ws = waivers::scan(tokens);
    let mut kept = waivers::apply(diags, &ws);
    for d in waivers::check(&ws, path, &rule_ids()) {
        if config.severity(d.rule) != Severity::Off {
            let severity = config.severity(d.rule);
            kept.push(Diagnostic { severity, ..d });
        }
    }
    out.append(&mut kept);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_file(path, &lex(src), &Config::default(), &mut out);
        out
    }

    #[test]
    fn d001_fires_in_scope_only() {
        let src = "use std::collections::HashMap;";
        assert_eq!(run("crates/sim/src/x.rs", src).len(), 1);
        assert_eq!(run("crates/theory/src/x.rs", src).len(), 0);
    }

    #[test]
    fn d001_skips_test_modules_and_strings() {
        let src = "#[cfg(test)]\nmod tests {\n use std::collections::HashSet;\n}\n";
        assert!(run("crates/sim/src/x.rs", src).is_empty());
        let src = "const S: &str = \"HashMap\";";
        assert!(run("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn d002_allows_bench_flags_sim() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(run("crates/sim/src/x.rs", src).len(), 1);
        assert!(run("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn d003_flags_par_chain_accumulation_only() {
        let par = "fn f(v: &[f64]) -> f64 { v.par_iter().map(|x| x * 2.0).sum::<f64>() }";
        let seq = "fn f(v: &[f64]) -> f64 { v.iter().map(|x| x * 2.0).sum::<f64>() }";
        assert_eq!(run("crates/sim/src/x.rs", par).len(), 1);
        assert!(run("crates/sim/src/x.rs", seq).is_empty());
    }

    #[test]
    fn d003_chain_ends_at_statement_boundary() {
        let src = "fn f(v: &[f64]) -> f64 { let w: Vec<f64> = v.par_iter().collect(); \
                   w.iter().sum::<f64>() }";
        assert!(run("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn p001_patterns() {
        let path = "crates/routing/src/pr.rs";
        assert_eq!(run(path, "fn f(x: Option<u8>) { x.unwrap(); }").len(), 1);
        assert_eq!(
            run(path, "fn f(x: Option<u8>) { x.expect(\"m\"); }").len(),
            1
        );
        assert_eq!(run(path, "fn f() { panic!(\"boom\"); }").len(), 1);
        assert_eq!(run(path, "fn f(v: &[u8]) -> u8 { v[0] }").len(), 1);
        // Not flagged: unwrap_or_else, variable indexing, out-of-scope file.
        assert!(run(path, "fn f(x: Option<u8>) { x.unwrap_or_else(|| 0); }").is_empty());
        assert!(run(path, "fn f(v: &[u8], i: usize) -> u8 { v[i] }").is_empty());
        assert!(run(
            "crates/routing/src/fw.rs",
            "fn f(x: Option<u8>) { x.unwrap(); }"
        )
        .is_empty());
    }

    #[test]
    fn p001_waiver_suppresses_and_requires_reason() {
        let path = "crates/routing/src/pr.rs";
        let good = "fn f(x: Option<u8>) {\n\
                    // pamr-lint: allow(P001, reason = \"index invariant\")\n\
                    x.unwrap();\n}";
        assert!(run(path, good).is_empty());
        let bare = "fn f(x: Option<u8>) {\n// pamr-lint: allow(P001)\nx.unwrap();\n}";
        let ds = run(path, bare);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rule, "W000");
    }

    #[test]
    fn u001_and_v001() {
        let ds = run(
            "crates/mesh/src/x.rs",
            "fn f(p: *const u8) { unsafe { p.read(); } }",
        );
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rule, "U001");
        let ds = run("crates/mesh/src/x.rs", "#![allow(unsafe_code)]");
        assert_eq!(ds.len(), 1);
        let ds = run(
            "vendor/fake/src/lib.rs",
            "fn f() { std::process::exit(1); }",
        );
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rule, "V001");
        let ds = run(
            "vendor/fake/src/lib.rs",
            "fn f() { let t = std::time::Instant::now(); }",
        );
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rule, "V001");
    }
}
