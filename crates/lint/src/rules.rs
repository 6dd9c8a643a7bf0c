//! The shipped rules.
//!
//! Each rule is a pure function over a [`FileCtx`]: it scans the token
//! stream (never comments or string contents — the lexer already removed
//! those) and appends [`Diagnostic`]s. Kind- and path-based exemptions
//! live here and in `lint.toml`; line-level escape hatches are
//! `// lint:allow(rule): justification` comments handled by the engine.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crate::callgraph::{resolve_site, CallSite, Qualifier};
use crate::diagnostics::Diagnostic;
use crate::engine::{FileAnalysis, FileCtx, FileKind, WsCtx};
use crate::lexer::{Token, TokenKind};
use crate::parser::{parse_int_literal, FnItem, ParsedFile};
use crate::symbols::crate_of;

/// A rule: id, what it protects, and its checker.
pub struct Rule {
    /// Stable kebab-case id used in diagnostics and allow comments.
    pub id: &'static str,
    /// One-line description of the protected invariant.
    pub description: &'static str,
    /// The checker.
    pub check: fn(&FileCtx<'_>, &mut Vec<Diagnostic>),
}

/// Rule id for malformed `lint:allow` directives (engine-emitted).
pub const INVALID_ALLOW: &str = "invalid-allow";
/// Rule id for `lint:allow` directives that suppress nothing
/// (engine-emitted).
pub const UNUSED_ALLOW: &str = "unused-allow";
/// Rule id for `lint.toml` `allow_paths` entries that match no findings
/// (engine-emitted).
pub const UNUSED_PATH_ALLOW: &str = "unused-path-allow";
/// Rule id for `pub fn`s that nothing outside their own file's tests
/// and the bench crate names.
pub const DEAD_PUB: &str = "dead-pub";
/// Rule id for workspace-wide seeded-substream label collisions.
pub const SEED_SUBSTREAM: &str = "seed-substream";
/// Rule id for wall-clock/fs/panic sites reachable from a hot path.
pub const HOT_PATH_PURITY: &str = "hot-path-purity";
/// Rule id for `Result`s discarded on verdict-path functions.
pub const ERROR_SWALLOWING: &str = "error-swallowing";
/// Rule id for early exits that escape an obs span.
pub const SPAN_EARLY_EXIT: &str = "span-early-exit";

/// All scanning rules, in diagnostic-id order.
pub const ALL: &[Rule] = &[
    Rule {
        id: "no-panic",
        description: "library code is total: no unwrap/expect/panic!/todo!/unimplemented!",
        check: no_panic,
    },
    Rule {
        id: "no-wall-clock",
        description:
            "wall-clock time (Instant::now/SystemTime) only in lumen-obs and the sim clock",
        check: no_wall_clock,
    },
    Rule {
        id: "seeded-rng-only",
        description: "all randomness flows from seeded RNGs: no thread_rng/from_entropy/OsRng",
        check: seeded_rng,
    },
    Rule {
        id: "crate-root-hygiene",
        description: "crate roots keep #![forbid(unsafe_code)] and #![deny(missing_docs)]",
        check: crate_root_hygiene,
    },
    Rule {
        id: "float-eq",
        description: "no ==/!= against float literals outside tests",
        check: float_eq,
    },
    Rule {
        id: "span-balance",
        description: "every recorder.span(...) guard is bound to a named binding",
        check: span_balance,
    },
    Rule {
        id: "no-fs",
        description: "filesystem access (std::fs) only in sanctioned storage and sink backends",
        check: no_fs,
    },
    Rule {
        id: "no-net",
        description: "network access (std::net) only in the sanctioned daemon transport boundary",
        check: no_net,
    },
];

/// Whether `id` names a shipped rule (including engine-emitted ids and
/// workspace rules).
pub fn is_known(id: &str) -> bool {
    id == INVALID_ALLOW
        || id == UNUSED_ALLOW
        || id == UNUSED_PATH_ALLOW
        || ALL.iter().any(|r| r.id == id)
        || WORKSPACE.iter().any(|r| r.id == id)
}

/// Every rule id with its one-line description — scanning rules,
/// workspace rules and the engine-emitted meta rules — sorted by id. Used
/// for SARIF tool metadata and the DESIGN.md catalogue.
pub fn catalogue() -> Vec<(&'static str, &'static str)> {
    let mut out: Vec<(&'static str, &'static str)> =
        ALL.iter().map(|r| (r.id, r.description)).collect();
    out.extend(WORKSPACE.iter().map(|r| (r.id, r.description)));
    out.push((
        INVALID_ALLOW,
        "a lint:allow or lint:hot-path directive is malformed or misplaced",
    ));
    out.push((UNUSED_ALLOW, "a lint:allow directive suppresses nothing"));
    out.push((
        UNUSED_PATH_ALLOW,
        "a lint.toml allow_paths entry matches no findings",
    ));
    out.sort_unstable();
    out
}

fn is_punct(tok: Option<&Token>, text: &str) -> bool {
    tok.is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

fn is_ident(tok: Option<&Token>, text: &str) -> bool {
    tok.is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

/// `no-panic`: forbids panicking calls and macros in library and binary
/// targets (tests, benches, examples and `#[cfg(test)]` items are exempt;
/// the experiments binary is excused via `lint.toml`). `assert!` stays
/// legal: a documented precondition assert is an invariant, not a latent
/// crash in a verdict path.
fn no_panic(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.meta.kind.is_test_like() {
        return;
    }
    const METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
    const MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];
    for (i, tok) in ctx.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident || ctx.in_cfg_test(tok.line) {
            continue;
        }
        let name = tok.text.as_str();
        let prev = i.checked_sub(1).and_then(|p| ctx.tokens.get(p));
        let next = ctx.tokens.get(i + 1);
        if METHODS.contains(&name) && is_punct(prev, ".") && is_punct(next, "(") {
            out.push(ctx.diag(
                "no-panic",
                tok,
                format!("`.{name}()` can panic in a library verdict path"),
                "return a typed error, or add `// lint:allow(no-panic): <invariant>`",
            ));
        } else if MACROS.contains(&name)
            && is_punct(next, "!")
            && matches!(ctx.tokens.get(i + 2), Some(t) if matches!(t.text.as_str(), "(" | "[" | "{"))
        {
            out.push(ctx.diag(
                "no-panic",
                tok,
                format!("`{name}!` aborts a library verdict path"),
                "return a typed error, or add `// lint:allow(no-panic): <invariant>`",
            ));
        }
    }
}

/// `no-wall-clock`: `Instant::now` / `SystemTime` leak wall-clock
/// nondeterminism into simulated clips; only `lumen-obs` (whose job is
/// measuring real time) and the discrete sim clock may touch them.
/// Benches are exempt — timing harnesses measure real time by design.
fn no_wall_clock(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.meta.kind == FileKind::Bench {
        return;
    }
    for (i, tok) in ctx.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        if tok.text == "Instant"
            && is_punct(ctx.tokens.get(i + 1), "::")
            && is_ident(ctx.tokens.get(i + 2), "now")
        {
            out.push(ctx.diag(
                "no-wall-clock",
                tok,
                "`Instant::now()` leaks wall-clock time into deterministic code".to_string(),
                "inject a clock (SimClock) or take timestamps as parameters",
            ));
        } else if tok.text == "SystemTime" {
            out.push(ctx.diag(
                "no-wall-clock",
                tok,
                "`SystemTime` leaks wall-clock time into deterministic code".to_string(),
                "inject a clock (SimClock) or take timestamps as parameters",
            ));
        }
    }
}

/// `seeded-rng-only`: every random draw must reproduce across runs, so RNGs
/// are constructed from explicit seeds (`ChaCha*::seed_from_u64`) or
/// injected; entropy taps are forbidden everywhere, tests included.
fn seeded_rng(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    const FORBIDDEN: &[(&str, &str)] = &[
        ("thread_rng", "`thread_rng()` draws from process entropy"),
        ("from_entropy", "`from_entropy()` seeds from the OS"),
        ("OsRng", "`OsRng` draws from the OS"),
    ];
    for (i, tok) in ctx.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        if let Some((_, why)) = FORBIDDEN.iter().find(|(name, _)| *name == tok.text) {
            out.push(ctx.diag(
                "seeded-rng-only",
                tok,
                format!("{why}; runs would not reproduce"),
                "use ChaCha8Rng/ChaCha20Rng::seed_from_u64 with a documented seed",
            ));
        } else if tok.text == "random"
            && is_punct(i.checked_sub(1).and_then(|p| ctx.tokens.get(p)), "::")
            && is_ident(i.checked_sub(2).and_then(|p| ctx.tokens.get(p)), "rand")
        {
            out.push(
                ctx.diag(
                    "seeded-rng-only",
                    tok,
                    "`rand::random()` draws from thread-local entropy; runs would not reproduce"
                        .to_string(),
                    "use ChaCha8Rng/ChaCha20Rng::seed_from_u64 with a documented seed",
                ),
            );
        }
    }
}

/// `crate-root-hygiene`: every crate root must carry
/// `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]` (or stronger),
/// so no crate silently drops the workspace-wide guarantees.
fn crate_root_hygiene(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.meta.is_crate_root {
        return;
    }
    let wants: &[(&str, &[&str])] = &[
        ("unsafe_code", &["forbid"]),
        ("missing_docs", &["deny", "forbid"]),
    ];
    for (lint, levels) in wants {
        let found = ctx.tokens.windows(7).any(|w| {
            w[0].text == "#"
                && w[1].text == "!"
                && w[2].text == "["
                && levels.contains(&w[3].text.as_str())
                && w[4].text == "("
                && w[5].text == *lint
                && w[6].text == ")"
        });
        if !found {
            let anchor = ctx.tokens.first().cloned().unwrap_or(Token {
                kind: TokenKind::Punct,
                text: String::new(),
                line: 1,
                col: 1,
            });
            out.push(ctx.diag(
                "crate-root-hygiene",
                &anchor,
                format!(
                    "crate root lacks `#![{}({lint})]`",
                    levels.first().copied().unwrap_or("deny")
                ),
                "add the missing inner attribute at the top of the crate root",
            ));
        }
    }
}

/// `float-eq`: exact `==`/`!=` against a float literal (or float
/// constants like `f64::NAN`) is almost always a rounding bug in DSP
/// code; tests may still assert exact values deliberately.
fn float_eq(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.meta.kind.is_test_like() {
        return;
    }
    let float_consts = ["NAN", "INFINITY", "NEG_INFINITY", "EPSILON"];
    let is_floaty = |idx: Option<usize>| -> bool {
        let Some(idx) = idx else { return false };
        let Some(tok) = ctx.tokens.get(idx) else {
            return false;
        };
        match tok.kind {
            TokenKind::Float => true,
            TokenKind::Ident => float_consts.contains(&tok.text.as_str()),
            _ => false,
        }
    };
    for (i, tok) in ctx.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Punct || (tok.text != "==" && tok.text != "!=") {
            continue;
        }
        if ctx.in_cfg_test(tok.line) {
            continue;
        }
        // Operand token on each side; a unary minus hides the literal one
        // step further to the right, and a path like `f64::NAN` ends at
        // its final segment.
        let left = i.checked_sub(1);
        let mut r = if is_punct(ctx.tokens.get(i + 1), "-") {
            i + 2
        } else {
            i + 1
        };
        while ctx
            .tokens
            .get(r)
            .is_some_and(|t| t.kind == TokenKind::Ident)
            && is_punct(ctx.tokens.get(r + 1), "::")
        {
            r += 2;
        }
        let right = Some(r);
        if is_floaty(left) || is_floaty(right) {
            out.push(ctx.diag(
                "float-eq",
                tok,
                format!("exact `{}` against a float", tok.text),
                "compare with a tolerance, e.g. `(a - b).abs() < 1e-12`",
            ));
        }
    }
}

/// `span-balance`: a `recorder.span(...)` guard dropped immediately (bare
/// statement or `let _ =`) measures nothing — the span closes before the
/// work it was meant to time. Guards must be held in a named binding.
fn span_balance(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for (i, tok) in ctx.tokens.iter().enumerate() {
        let is_span_call = tok.kind == TokenKind::Ident
            && tok.text == "span"
            && is_punct(i.checked_sub(1).and_then(|p| ctx.tokens.get(p)), ".")
            && is_punct(ctx.tokens.get(i + 1), "(");
        if !is_span_call {
            continue;
        }
        // Walk back to the statement start (after `;`, `{` or `}`).
        let mut start = 0usize;
        for j in (0..i.saturating_sub(1)).rev() {
            if matches!(ctx.tokens[j].text.as_str(), ";" | "{" | "}")
                && ctx.tokens[j].kind == TokenKind::Punct
            {
                start = j + 1;
                break;
            }
        }
        let bound = is_ident(ctx.tokens.get(start), "let")
            && ctx
                .tokens
                .get(start + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident && t.text != "_");
        if !bound {
            out.push(ctx.diag(
                "span-balance",
                tok,
                "span guard is dropped immediately; the span measures nothing".to_string(),
                "bind the guard: `let _span = recorder.span(...);` (named, not `_`)",
            ));
        }
    }
}

/// `no-fs`: ad-hoc `std::fs` calls scatter durability decisions and make
/// crash-recovery untestable; all filesystem I/O flows through the
/// injectable storage/sink backends listed in `lint.toml`. Tests and
/// benches may touch disk freely (scratch dirs, fixtures).
fn no_fs(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.meta.kind.is_test_like() {
        return;
    }
    for (i, tok) in ctx.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident || tok.text != "fs" || ctx.in_cfg_test(tok.line) {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|p| ctx.tokens.get(p));
        let next = ctx.tokens.get(i + 1);
        if is_punct(prev, "::") || is_punct(next, "::") {
            out.push(ctx.diag(
                "no-fs",
                tok,
                "`std::fs` outside a sanctioned storage backend".to_string(),
                "route bytes through a `Storage`/sink implementation, or add the \
                 module to `lint.toml` `[rules.no-fs]` with a justification",
            ));
        }
    }
}

/// `no-net`: sockets scattered through the codebase make every behaviour
/// they touch non-deterministic and untestable without a kernel in the
/// loop; all network I/O flows through the daemon's transport boundary
/// (and its loopback client), listed in `lint.toml`. Everything above
/// that layer speaks byte buffers and typed frames. Tests and benches may
/// open loopback sockets freely.
fn no_net(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.meta.kind.is_test_like() {
        return;
    }
    for (i, tok) in ctx.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident || tok.text != "net" || ctx.in_cfg_test(tok.line) {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|p| ctx.tokens.get(p));
        let next = ctx.tokens.get(i + 1);
        if is_punct(prev, "::") || is_punct(next, "::") {
            out.push(ctx.diag(
                "no-net",
                tok,
                "`std::net` outside the sanctioned transport boundary".to_string(),
                "speak typed frames through `lumen_daemon::transport`, or add the \
                 module to `lint.toml` `[rules.no-net]` with a justification",
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Workspace rules: symbol-resolved, call-graph-aware.
// ---------------------------------------------------------------------------

/// A workspace rule: checked once over the whole analysed workspace with
/// the symbol table and call graph in scope.
pub struct WsRule {
    /// Stable kebab-case id used in diagnostics and allow comments.
    pub id: &'static str,
    /// One-line description of the protected invariant.
    pub description: &'static str,
    /// The checker.
    pub check: fn(&WsCtx<'_>, &mut Vec<Diagnostic>),
}

/// All workspace rules, in diagnostic-id order.
pub const WORKSPACE: &[WsRule] = &[
    WsRule {
        id: DEAD_PUB,
        description:
            "every `pub fn` is named outside its own definition, its file's tests and crates/bench",
        check: dead_pub,
    },
    WsRule {
        id: ERROR_SWALLOWING,
        description: "verdict-path functions may not discard Results (`let _ =`, dangling `.ok()`)",
        check: error_swallowing,
    },
    WsRule {
        id: HOT_PATH_PURITY,
        description: "no wall-clock, filesystem or panic site reachable from a `lint:hot-path` fn",
        check: hot_path_purity,
    },
    WsRule {
        id: SEED_SUBSTREAM,
        description: "every substream(seed, label) label belongs to exactly one subsystem",
        check: seed_substream,
    },
    WsRule {
        id: SPAN_EARLY_EXIT,
        description: "a fn that opens an obs span must not `?`/`return` before the span opens",
        check: span_early_exit,
    },
];

/// One `substream(seed, label)` derivation site in the workspace.
#[derive(Debug, Clone)]
pub struct SubstreamSite {
    /// The resolved label, when the argument is a literal or a resolvable
    /// named constant.
    pub label: Option<u64>,
    /// The label argument as written in the source.
    pub label_text: String,
    /// Workspace-relative path of the file.
    pub path: String,
    /// Subsystem key: the file path plus any inline-module path — two
    /// sites collide only when their subsystems differ.
    pub subsystem: String,
    /// `Type::name` of the enclosing function (or `<module scope>`).
    pub func: String,
    /// Trimmed source line, for diagnostics.
    pub snippet: String,
    /// 1-based line of the call.
    pub line: u32,
    /// 1-based column of the call.
    pub col: u32,
}

/// Top-level argument token ranges of a call whose `(` sits at `open`.
fn split_args(toks: &[Token], open: usize) -> Vec<(usize, usize)> {
    let mut args = Vec::new();
    let mut depth = 0i32;
    let mut start = open + 1;
    let mut i = open;
    while i < toks.len() {
        if toks[i].kind == TokenKind::Punct {
            match toks[i].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth <= 0 {
                        if i > start {
                            args.push((start, i - 1));
                        }
                        return args;
                    }
                }
                "," if depth == 1 => {
                    if i > start {
                        args.push((start, i - 1));
                    }
                    start = i + 1;
                }
                _ => {}
            }
        }
        i += 1;
    }
    args
}

/// The innermost function whose body contains token index `i`.
fn enclosing_fn(parsed: &ParsedFile, i: usize) -> Option<&FnItem> {
    parsed
        .fns
        .iter()
        .filter(|f| f.body.is_some_and(|(s, e)| s <= i && i <= e))
        .min_by_key(|f| match f.body {
            Some((s, e)) => e - s,
            None => usize::MAX,
        })
}

/// Collects every `substream(seed, label)` call site in non-test files,
/// resolving labels through integer literals and named constants. This is
/// both the input of the `seed-substream` rule and the source of the
/// generated `SUBSTREAMS.md` allocation table.
pub fn collect_substreams(ws: &WsCtx<'_>) -> Vec<SubstreamSite> {
    let mut out = Vec::new();
    for (fi, a) in ws.files.iter().enumerate() {
        if a.meta.kind.is_test_like() {
            continue;
        }
        let toks = &a.lexed.tokens;
        for (i, tok) in toks.iter().enumerate() {
            if tok.kind != TokenKind::Ident || tok.text != "substream" {
                continue;
            }
            if !is_punct(toks.get(i + 1), "(") {
                continue;
            }
            let prev = i.checked_sub(1).and_then(|p| toks.get(p));
            // `fn substream(` is the definition, not a derivation.
            if is_ident(prev, "fn") {
                continue;
            }
            if a.in_cfg_test(tok.line) {
                continue;
            }
            let args = split_args(toks, i + 1);
            if args.len() != 2 {
                continue;
            }
            let (ls, le) = args[1];
            let label_text: String = toks[ls..=le.min(toks.len() - 1)]
                .iter()
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>()
                .join("");
            let label = resolve_label(ws, fi, toks, ls, le);
            let (subsystem, func) = match enclosing_fn(&a.parsed, i) {
                Some(f) if !f.module.is_empty() => (
                    format!("{}::{}", a.rel_path, f.module.join("::")),
                    f.display(),
                ),
                Some(f) => (a.rel_path.clone(), f.display()),
                None => (a.rel_path.clone(), "<module scope>".to_string()),
            };
            out.push(SubstreamSite {
                label,
                label_text,
                path: a.rel_path.clone(),
                subsystem,
                func,
                snippet: a.snippet(tok.line),
                line: tok.line,
                col: tok.col,
            });
        }
    }
    out
}

/// Resolves a label argument: a lone integer literal, a named constant
/// (same file first, workspace-unanimous otherwise), or a path-qualified
/// constant resolved by its final segment.
fn resolve_label(ws: &WsCtx<'_>, file: usize, toks: &[Token], ls: usize, le: usize) -> Option<u64> {
    if ls == le {
        return match toks[ls].kind {
            TokenKind::Int => parse_int_literal(&toks[ls].text),
            TokenKind::Ident => ws.symbols.const_value(file, &toks[ls].text),
            _ => None,
        };
    }
    // `path::CONST` — resolve the final segment when it follows `::`.
    let last = toks.get(le)?;
    if last.kind == TokenKind::Ident && is_punct(le.checked_sub(1).and_then(|p| toks.get(p)), "::")
    {
        return ws.symbols.const_value(file, &last.text);
    }
    None
}

/// Renders the `SUBSTREAMS.md` allocation table from collected sites.
pub fn render_substreams_md(sites: &[SubstreamSite]) -> String {
    let mut sorted: Vec<&SubstreamSite> = sites.iter().collect();
    sorted.sort_by(|a, b| {
        (a.label.is_none(), a.label, &a.path, a.line).cmp(&(
            b.label.is_none(),
            b.label,
            &b.path,
            b.line,
        ))
    });
    let mut out = String::from(
        "# SUBSTREAMS — seeded substream allocation\n\n\
         Generated by `lumen-lint --emit-substreams`; do not edit by hand.\n\
         Every `substream(seed, label)` call derives an independent ChaCha8\n\
         stream from the session seed. The `seed-substream` rule fails CI\n\
         when two subsystems share a label, because shared labels give a\n\
         probe-aware attacker correlated challenge randomness (see\n\
         THREAT_MODEL.md). This table is the audit record of who owns\n\
         which label.\n\n\
         | label | crate | function | site |\n\
         |------:|:------|:---------|:-----|\n",
    );
    for s in &sorted {
        let label = match s.label {
            Some(l) => l.to_string(),
            None => format!("? (`{}`)", s.label_text),
        };
        out.push_str(&format!(
            "| {} | {} | `{}` | {}:{} |\n",
            label,
            crate_of(&s.path),
            s.func,
            s.path,
            s.line
        ));
    }
    out
}

/// `seed-substream`: two subsystems deriving the same `substream` label
/// share a random stream — a probe-aware forger who observes one can
/// predict the other. Labels must be integer-resolvable so the allocation
/// is auditable.
fn seed_substream(ws: &WsCtx<'_>, out: &mut Vec<Diagnostic>) {
    let sites = collect_substreams(ws);
    let mut by_label: BTreeMap<u64, Vec<&SubstreamSite>> = BTreeMap::new();
    for s in &sites {
        match s.label {
            Some(l) => by_label.entry(l).or_default().push(s),
            None => out.push(Diagnostic {
                rule: SEED_SUBSTREAM,
                path: s.path.clone(),
                line: s.line,
                col: s.col,
                snippet: s.snippet.clone(),
                message: format!(
                    "substream label `{}` does not resolve to an integer; the allocation \
                     cannot be audited",
                    s.label_text
                ),
                hint: "use an integer literal or a `const NAME: u64 = <int>;`",
            }),
        }
    }
    for (label, group) in &by_label {
        let subsystems: BTreeSet<&str> = group.iter().map(|s| s.subsystem.as_str()).collect();
        if subsystems.len() < 2 {
            continue;
        }
        for s in group {
            let Some(other) = group.iter().find(|o| o.subsystem != s.subsystem) else {
                continue;
            };
            out.push(Diagnostic {
                rule: SEED_SUBSTREAM,
                path: s.path.clone(),
                line: s.line,
                col: s.col,
                snippet: s.snippet.clone(),
                message: format!(
                    "substream label {label} in `{}` collides with {}:{} (`{}`); the two \
                     subsystems draw correlated randomness",
                    s.func, other.path, other.line, other.func
                ),
                hint: "allocate a fresh label and regenerate SUBSTREAMS.md \
                       (`lumen-lint --emit-substreams SUBSTREAMS.md`)",
            });
        }
    }
}

/// One impure site inside a function body.
struct Impurity {
    what: String,
    line: u32,
    col: u32,
}

/// Scans a body token range for wall-clock, filesystem and panic sites.
fn impurities(toks: &[Token], start: usize, end: usize) -> Vec<Impurity> {
    const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
    const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];
    let mut out = Vec::new();
    let end = end.min(toks.len().saturating_sub(1));
    for i in start..=end {
        let tok = &toks[i];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|p| toks.get(p));
        let next = toks.get(i + 1);
        let name = tok.text.as_str();
        let what = if name == "Instant" && is_punct(next, "::") && is_ident(toks.get(i + 2), "now")
        {
            Some("wall-clock `Instant::now()`".to_string())
        } else if name == "SystemTime" {
            Some("wall-clock `SystemTime`".to_string())
        } else if name == "fs" && (is_punct(prev, "::") || is_punct(next, "::")) {
            Some("filesystem access via `fs`".to_string())
        } else if PANIC_METHODS.contains(&name) && is_punct(prev, ".") && is_punct(next, "(") {
            Some(format!("panicking `.{name}()`"))
        } else if PANIC_MACROS.contains(&name)
            && is_punct(next, "!")
            && matches!(toks.get(i + 2), Some(t) if matches!(t.text.as_str(), "(" | "[" | "{"))
        {
            Some(format!("panicking `{name}!`"))
        } else {
            None
        };
        if let Some(what) = what {
            out.push(Impurity {
                what,
                line: tok.line,
                col: tok.col,
            });
        }
    }
    out
}

/// `hot-path-purity`: the per-clip verdict path (every fn annotated
/// `// lint:hot-path`, plus everything reachable from one through the
/// conservative call graph) must stay free of wall-clock reads,
/// filesystem access and panic sites — a hidden `Instant::now()` two
/// calls down breaks determinism just as surely as one in `detect()`
/// itself. The diagnostic reports the discovered call chain.
fn hot_path_purity(ws: &WsCtx<'_>, out: &mut Vec<Diagnostic>) {
    let entries = ws.symbols.hot_entries();
    if entries.is_empty() {
        return;
    }
    let chains = ws.graph.reachable_chains(&entries);
    let mut seen: BTreeSet<(String, u32, u32)> = BTreeSet::new();
    for (&id, chain) in &chains {
        let sym = &ws.symbols.fns[id];
        let Some(a) = ws.files.get(sym.file) else {
            continue;
        };
        let Some((s, e)) = sym.item.body else {
            continue;
        };
        let chain_str = chain_display(ws, chain);
        for imp in impurities(&a.lexed.tokens, s, e) {
            if a.in_cfg_test(imp.line) {
                continue;
            }
            if !seen.insert((a.rel_path.clone(), imp.line, imp.col)) {
                continue;
            }
            out.push(a.diag_at(
                HOT_PATH_PURITY,
                imp.line,
                imp.col,
                format!("{} is reachable from a hot path: {}", imp.what, chain_str),
                "keep verdict paths pure: lift the effect out of the call chain, or add \
                 a justified allow",
            ));
        }
    }
}

/// A call chain as diagnostics print it: `a → b → c`, hot entry first.
fn chain_display(ws: &WsCtx<'_>, chain: &[usize]) -> String {
    chain
        .iter()
        .map(|&c| ws.symbols.fns[c].display())
        .collect::<Vec<_>>()
        .join(" → ")
}

/// `error-swallowing`: on verdict-path functions (reachable from a hot
/// path), `let _ = fallible();` and a discarded `.ok()` silently eat
/// errors that should surface as counters or anomalies. Whether a call is
/// fallible is resolved through the workspace symbol table. Like
/// `hot-path-purity`, the diagnostic reports the discovered call chain.
fn error_swallowing(ws: &WsCtx<'_>, out: &mut Vec<Diagnostic>) {
    let entries = ws.symbols.hot_entries();
    if entries.is_empty() {
        return;
    }
    let chains = ws.graph.reachable_chains(&entries);
    let mut seen: BTreeSet<(String, u32, u32)> = BTreeSet::new();
    for (&id, chain) in &chains {
        let sym = &ws.symbols.fns[id];
        let Some(a) = ws.files.get(sym.file) else {
            continue;
        };
        let Some((s, e)) = sym.item.body else {
            continue;
        };
        let self_ty = sym.item.self_ty.as_deref();
        let chain = chain_display(ws, chain);
        check_let_underscore(ws, a, self_ty, (s, e), &chain, &mut seen, out);
        check_dangling_ok(a, (s, e), &chain, &mut seen, out);
    }
}

/// Flags `let _ = <call>;` statements whose final top-level call resolves
/// to a `Result`-returning workspace fn (or is `.ok()` itself).
/// `let _ = fallible()?;` propagates and is fine.
fn check_let_underscore(
    ws: &WsCtx<'_>,
    a: &FileAnalysis,
    self_ty: Option<&str>,
    (s, e): (usize, usize),
    chain: &str,
    seen: &mut BTreeSet<(String, u32, u32)>,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &a.lexed.tokens;
    let end = e.min(toks.len().saturating_sub(1));
    for i in s..=end {
        let is_let_underscore = is_ident(toks.get(i), "let")
            && is_ident(toks.get(i + 1), "_")
            && is_punct(toks.get(i + 2), "=");
        if !is_let_underscore || a.in_cfg_test(toks[i].line) {
            continue;
        }
        // Find the terminating `;` and the last top-level call on the way.
        let mut depth = 0i32;
        let mut last_call = None;
        let mut semi = None;
        let mut j = i + 3;
        while j <= end {
            let t = &toks[j];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth == 0 => {
                        semi = Some(j);
                        break;
                    }
                    _ => {}
                }
            } else if t.kind == TokenKind::Ident && depth == 0 && is_punct(toks.get(j + 1), "(") {
                last_call = Some(j);
            }
            j += 1;
        }
        let Some(semi) = semi else { continue };
        if is_punct(semi.checked_sub(1).and_then(|p| toks.get(p)), "?") {
            continue;
        }
        let Some(c) = last_call else { continue };
        let name = &toks[c].text;
        let prev = c.checked_sub(1).and_then(|p| toks.get(p));
        let discarded: Option<String> = if name == "ok" && is_punct(prev, ".") {
            Some("`.ok()`".to_string())
        } else {
            let qualifier = if is_punct(prev, ".") {
                Qualifier::Method
            } else if is_punct(prev, "::") {
                match c.checked_sub(2).and_then(|p| toks.get(p)) {
                    Some(t) if t.kind == TokenKind::Ident => Qualifier::Path(t.text.clone()),
                    _ => Qualifier::Bare,
                }
            } else {
                Qualifier::Bare
            };
            let site = CallSite {
                name: name.clone(),
                qualifier,
                line: toks[c].line,
                col: toks[c].col,
                index: c,
            };
            resolve_site(ws.symbols, &site, self_ty)
                .iter()
                .find(|&&cid| ws.symbols.fns[cid].item.returns_result)
                .map(|&cid| format!("`{}`", ws.symbols.fns[cid].display()))
        };
        let Some(what) = discarded else { continue };
        let tok = &toks[i];
        if !seen.insert((a.rel_path.clone(), tok.line, tok.col)) {
            continue;
        }
        out.push(a.diag_at(
            ERROR_SWALLOWING,
            tok.line,
            tok.col,
            format!("`let _ =` discards the fallible result of {what} on a verdict path: {chain}"),
            "surface the failure (counter + anomaly) or propagate it; a deliberate \
             best-effort drop needs a justified allow",
        ));
    }
}

/// Flags `recv.ok();` bare statements: the `Result` is converted and the
/// error silently dropped. Bound (`let x = …`), propagated (`…?`) and
/// nested (`f(x.ok())`) uses do not match.
fn check_dangling_ok(
    a: &FileAnalysis,
    (s, e): (usize, usize),
    chain: &str,
    seen: &mut BTreeSet<(String, u32, u32)>,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &a.lexed.tokens;
    let end = e.min(toks.len().saturating_sub(1));
    for i in s..=end {
        let is_ok_call = is_ident(toks.get(i), "ok")
            && is_punct(i.checked_sub(1).and_then(|p| toks.get(p)), ".")
            && is_punct(toks.get(i + 1), "(");
        if !is_ok_call || a.in_cfg_test(toks[i].line) {
            continue;
        }
        // Match the `)` of the `.ok(` call.
        let mut depth = 0i32;
        let mut close = None;
        let mut j = i + 1;
        while j <= end {
            if toks[j].kind == TokenKind::Punct {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            close = Some(j);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        let Some(close) = close else { continue };
        if !is_punct(toks.get(close + 1), ";") {
            continue;
        }
        // Statement start: right after the previous `;`/`{`/`}`.
        let mut st = s + 1;
        for k in (s..i).rev() {
            if toks[k].kind == TokenKind::Punct && matches!(toks[k].text.as_str(), ";" | "{" | "}")
            {
                st = k + 1;
                break;
            }
        }
        if is_ident(toks.get(st), "let") || is_ident(toks.get(st), "return") {
            continue;
        }
        // An `=` before the call means the value is assigned somewhere.
        if (st..i).any(|k| toks[k].kind == TokenKind::Punct && toks[k].text == "=") {
            continue;
        }
        let tok = &toks[i];
        if !seen.insert((a.rel_path.clone(), tok.line, tok.col)) {
            continue;
        }
        out.push(a.diag_at(
            ERROR_SWALLOWING,
            tok.line,
            tok.col,
            format!("`.ok()` as a bare statement silences a `Result` on a verdict path: {chain}"),
            "surface the failure (counter + anomaly) or propagate it; a deliberate \
             best-effort drop needs a justified allow",
        ));
    }
}

/// `span-early-exit`: a function that opens an obs span (`.span(…)`) must
/// open it before any `?` or `return` — otherwise the early path exits
/// without ever entering the span and the stage goes unmeasured exactly
/// when it fails. Interprocedural in spirit: the parser gives the rule
/// whole-function extent, so `?` hidden mid-expression is caught too.
fn span_early_exit(ws: &WsCtx<'_>, out: &mut Vec<Diagnostic>) {
    for a in ws.files {
        if a.meta.kind.is_test_like() {
            continue;
        }
        let toks = &a.lexed.tokens;
        for f in &a.parsed.fns {
            let Some((s, e)) = f.body else { continue };
            if a.in_cfg_test(f.line) {
                continue;
            }
            let end = e.min(toks.len().saturating_sub(1));
            let span_idx = (s..=end).find(|&i| {
                is_ident(toks.get(i), "span")
                    && is_punct(i.checked_sub(1).and_then(|p| toks.get(p)), ".")
                    && is_punct(toks.get(i + 1), "(")
            });
            let Some(span_idx) = span_idx else { continue };
            for j in (s + 1)..span_idx {
                let t = &toks[j];
                let early = (t.kind == TokenKind::Punct && t.text == "?")
                    || (t.kind == TokenKind::Ident && t.text == "return");
                if early {
                    out.push(a.diag_at(
                        SPAN_EARLY_EXIT,
                        t.line,
                        t.col,
                        format!(
                            "fn `{}` opens an obs span on line {} but can exit here first; \
                             the early path escapes the span",
                            f.display(),
                            toks[span_idx].line
                        ),
                        "open the span as the first statement of the fn, or add a \
                         justified allow",
                    ));
                    break;
                }
            }
        }
    }
}

/// `dead-pub`: a plain-`pub fn` (free or inherent) in a library file
/// that nothing runs is code to maintain for no caller. It is a finding
/// when its name occurs as an identifier nowhere but in its own
/// definition, in its own file's `#[cfg(test)]` code and in
/// `crates/bench`; any other analysed file (code, bins, tests, examples,
/// `lumenbench/`) counts as a use. The match is by name, so a dead fn
/// that shares its name with a live one goes unflagged. Trait-impl
/// methods, private and `pub(crate)` fns are never checked: rustc's
/// `dead_code` covers the last two.
fn dead_pub(ws: &WsCtx<'_>, out: &mut Vec<Diagnostic>) {
    let is_bench = |a: &FileAnalysis| a.rel_path.starts_with("crates/bench/");
    let candidates: Vec<(usize, &FnItem)> = ws
        .files
        .iter()
        .enumerate()
        .filter(|(_, a)| {
            a.meta.kind == FileKind::Library
                && !is_bench(a)
                && !a.rel_path.starts_with("lumenbench/")
        })
        .flat_map(|(i, a)| {
            a.parsed
                .fns
                .iter()
                .filter(move |f| f.is_pub && !a.in_cfg_test(f.line))
                .map(move |f| (i, f))
        })
        .collect();
    let names: HashSet<&str> = candidates.iter().map(|(_, f)| f.name.as_str()).collect();
    // Every occurrence that can count as a use: (file, token index).
    let mut uses: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (i, a) in ws.files.iter().enumerate().filter(|(_, a)| !is_bench(a)) {
        for (t, tok) in a.lexed.tokens.iter().enumerate() {
            if tok.kind == TokenKind::Ident {
                if let Some(name) = names.get(tok.text.as_str()) {
                    uses.entry(name).or_default().push((i, t));
                }
            }
        }
    }
    for (i, f) in candidates {
        let a = &ws.files[i];
        let in_own_def = |t: usize| {
            let tok = &a.lexed.tokens[t];
            (tok.line, tok.col) == (f.line, f.col)
                || f.body.is_some_and(|(s, e)| (s..=e).contains(&t))
        };
        let used = uses.get(f.name.as_str()).is_some_and(|sites| {
            sites.iter().any(|&(file, t)| {
                file != i || !(in_own_def(t) || a.in_cfg_test(a.lexed.tokens[t].line))
            })
        });
        if !used {
            out.push(a.diag_at(
                DEAD_PUB,
                f.line,
                f.col,
                format!(
                    "pub fn `{}` is named nowhere outside its own definition, its file's \
                     #[cfg(test)] code and crates/bench",
                    f.display()
                ),
                "delete it with its unit tests, or add `// lint:allow(dead-pub): <who needs it>`",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::engine::{lint_source, FileMeta};

    fn findings(src: &str, kind: FileKind) -> Vec<Diagnostic> {
        lint_source(
            "crates/x/src/a.rs",
            src,
            FileMeta {
                kind,
                is_crate_root: false,
            },
            &Config::default(),
        )
    }

    #[test]
    fn no_panic_catches_methods_and_macros() {
        let src = "fn f() { a.unwrap(); b.expect(\"x\"); panic!(\"y\"); todo!(); }\n";
        let rules: Vec<&str> = findings(src, FileKind::Library)
            .iter()
            .map(|d| d.rule)
            .collect();
        assert_eq!(rules, vec!["no-panic"; 4]);
    }

    #[test]
    fn no_panic_ignores_nonpanicking_lookalikes() {
        let src = "fn f() { a.unwrap_or(0); b.unwrap_or_else(|| 1); c.unwrap_or_default(); }\n";
        assert!(findings(src, FileKind::Library).is_empty());
    }

    #[test]
    fn no_panic_exempts_tests_and_benches() {
        let src = "fn f() { a.unwrap(); }\n";
        assert!(findings(src, FileKind::Test).is_empty());
        assert!(findings(src, FileKind::Bench).is_empty());
        assert!(findings(src, FileKind::Example).is_empty());
        assert_eq!(findings(src, FileKind::Bin).len(), 1);
    }

    #[test]
    fn no_panic_ignores_strings_and_comments() {
        let src = "// a.unwrap()\nfn f() { let s = \"x.unwrap()\"; }\n";
        assert!(findings(src, FileKind::Library).is_empty());
    }

    #[test]
    fn wall_clock_catches_instant_and_system_time() {
        let src = "fn f() { let t = Instant::now(); let s = SystemTime::now(); }\n";
        let rules: Vec<&str> = findings(src, FileKind::Library)
            .iter()
            .map(|d| d.rule)
            .collect();
        assert_eq!(rules, vec!["no-wall-clock"; 2]);
        // Duration is not wall clock.
        assert!(findings("fn f(d: Duration) {}", FileKind::Library).is_empty());
    }

    #[test]
    fn seeded_rng_catches_entropy_taps() {
        let src = "fn f() { let mut r = thread_rng(); let s = SmallRng::from_entropy(); let x: u8 = rand::random(); }\n";
        assert_eq!(findings(src, FileKind::Library).len(), 3);
        let ok = "fn f() { let mut r = ChaCha8Rng::seed_from_u64(7); }\n";
        assert!(findings(ok, FileKind::Library).is_empty());
        // A local named `random` is fine.
        assert!(findings("fn f(random: f64) {}", FileKind::Library).is_empty());
    }

    #[test]
    fn crate_root_hygiene_requires_both_attributes() {
        let root = |src: &str| {
            lint_source(
                "crates/x/src/lib.rs",
                src,
                FileMeta {
                    kind: FileKind::Library,
                    is_crate_root: true,
                },
                &Config::default(),
            )
        };
        let good = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\nfn f() {}\n";
        assert!(root(good).is_empty());
        let weak = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\nfn f() {}\n";
        assert_eq!(root(weak).len(), 1);
        let none = "fn f() {}\n";
        assert_eq!(root(none).len(), 2);
        // forbid is stronger than deny for missing_docs.
        let forbid = "#![forbid(unsafe_code)]\n#![forbid(missing_docs)]\nfn f() {}\n";
        assert!(root(forbid).is_empty());
    }

    #[test]
    fn float_eq_catches_literal_comparisons() {
        let src = "fn f(x: f64) { if x == 0.0 { } if -1.5 != x { } if x == -2.0 { } }\n";
        assert_eq!(findings(src, FileKind::Library).len(), 3);
        let ok = "fn f(x: f64) { if (x - 0.5).abs() < 1e-9 { } if n == 0 { } }\n";
        assert!(findings(ok, FileKind::Library).is_empty());
    }

    #[test]
    fn float_eq_catches_float_constants() {
        let src = "fn f(x: f64) { if x == f64::NAN { } }\n";
        assert_eq!(findings(src, FileKind::Library).len(), 1);
    }

    #[test]
    fn span_balance_requires_named_binding() {
        let good = "fn f() { let _g = rec.span(\"x\"); work(); }\n";
        assert!(findings(good, FileKind::Library).is_empty());
        let bare = "fn f() { rec.span(\"x\"); work(); }\n";
        assert_eq!(findings(bare, FileKind::Library).len(), 1);
        let wild = "fn f() { let _ = rec.span(\"x\"); work(); }\n";
        assert_eq!(findings(wild, FileKind::Library).len(), 1);
    }

    #[test]
    fn no_fs_catches_use_and_calls() {
        let src = "use std::fs;\nfn f() { let b = fs::read(\"x\"); }\n";
        let rules: Vec<&str> = findings(src, FileKind::Library)
            .iter()
            .map(|d| d.rule)
            .collect();
        assert_eq!(rules, vec!["no-fs"; 2]);
    }

    #[test]
    fn no_fs_exempts_tests_and_unrelated_idents() {
        let src = "use std::fs;\nfn f() { fs::write(\"x\", b\"y\"); }\n";
        assert!(findings(src, FileKind::Test).is_empty());
        assert!(findings(src, FileKind::Bench).is_empty());
        // A plain binding named `fs` is not filesystem access.
        assert!(findings("fn f(fs: u32) -> u32 { fs + 1 }\n", FileKind::Library).is_empty());
    }

    #[test]
    fn no_net_catches_use_and_binds() {
        let src =
            "use std::net::TcpListener;\nfn f() { let l = net::TcpStream::connect(\"x\"); }\n";
        let rules: Vec<&str> = findings(src, FileKind::Library)
            .iter()
            .map(|d| d.rule)
            .collect();
        assert_eq!(rules, vec!["no-net"; 2]);
    }

    #[test]
    fn no_net_exempts_tests_and_unrelated_idents() {
        let src = "use std::net::UdpSocket;\nfn f() { net::TcpListener::bind(\"x\"); }\n";
        assert!(findings(src, FileKind::Test).is_empty());
        assert!(findings(src, FileKind::Bench).is_empty());
        // A plain binding named `net` is not network access.
        assert!(findings("fn f(net: u32) -> u32 { net + 1 }\n", FileKind::Library).is_empty());
    }

    #[test]
    fn rule_ids_are_known() {
        assert!(is_known("no-panic"));
        assert!(is_known("no-net"));
        assert!(is_known("invalid-allow"));
        assert!(!is_known("no-such-rule"));
    }
}
