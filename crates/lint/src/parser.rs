//! A lightweight recursive-descent item parser on top of [`crate::lexer`].
//!
//! The token-stream rules of the v1 engine are file-local: a violation
//! hidden one call away is invisible to them. The interprocedural rules
//! (`seed-substream`, `hot-path-purity`, `error-swallowing`,
//! `span-early-exit`) need to know *which function* a token belongs to and
//! *what that function calls*, so this module turns the flat token stream
//! into a small item tree:
//!
//! * functions — name, enclosing `impl` type, inline-module path, whether
//!   the item is plain `pub`, whether the signature returns a `Result`,
//!   and the token range of the body;
//! * `const` items with integer values (so `substream(seed, LABEL)` can be
//!   resolved through a named constant);
//! * `use` declarations (leaf-name → full path, for the audit table);
//! * `// lint:hot-path` annotations attached to the function they precede.
//!
//! The parser is total and single-pass: it walks the token stream once
//! with an explicit scope stack (inline modules, `impl` blocks, function
//! bodies), never recurses on input structure, and treats anything it does
//! not recognize as opaque tokens. Malformed input can only make it *miss*
//! items, never panic — the fuzz test in `tests/parser_fuzz.rs` pins that.

use crate::lexer::{Lexed, Token, TokenKind};

/// One parsed function (or method).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The implemented type when the fn sits directly in an `impl` block.
    pub self_ty: Option<String>,
    /// Inline-module path from the file root (e.g. `["noise", "tests"]`).
    pub module: Vec<String>,
    /// Whether the return type mentions `Result`.
    pub returns_result: bool,
    /// Whether the item is plain `pub` (not `pub(crate)` or private).
    pub is_pub: bool,
    /// Whether a `// lint:hot-path` comment annotates this function.
    pub is_hot: bool,
    /// 1-based line of the function name.
    pub line: u32,
    /// 1-based column of the function name.
    pub col: u32,
    /// 1-based line of the first token of the item (visibility/attributes).
    pub item_line: u32,
    /// Token-index range of the body, inclusive of both braces; `None` for
    /// bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
}

impl FnItem {
    /// `Type::name` for methods, plain `name` for free functions.
    pub fn display(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One parsed `const` item with an integer literal value.
#[derive(Debug, Clone)]
pub struct ConstItem {
    /// The constant's name.
    pub name: String,
    /// The value when the initializer is a single integer literal.
    pub value: Option<u64>,
    /// 1-based line of the constant's name.
    pub line: u32,
}

/// One leaf binding introduced by a `use` declaration.
#[derive(Debug, Clone)]
pub struct UseItem {
    /// Full path segments, e.g. `["lumen_video", "noise", "substream"]`.
    pub path: Vec<String>,
    /// The name the path is bound to locally (last segment or `as` alias).
    pub alias: String,
    /// 1-based line of the declaration.
    pub line: u32,
}

/// The item tree of one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// All functions in lexical order.
    pub fns: Vec<FnItem>,
    /// All integer constants.
    pub consts: Vec<ConstItem>,
    /// All `use` leaf bindings.
    pub uses: Vec<UseItem>,
    /// Lines of `// lint:hot-path` comments that did not attach to any
    /// function (each is a diagnostic in the engine).
    pub unattached_hot_paths: Vec<u32>,
}

/// Scope kinds tracked while walking the token stream.
#[derive(Debug)]
enum Scope {
    /// An inline `mod name { … }`.
    Mod(String),
    /// An `impl … { … }` block with its resolved self type.
    Impl(Option<String>),
    /// A function body; the index points into `ParsedFile::fns`.
    Fn(usize),
    /// Any other brace pair (expression block, match, struct literal…).
    Block,
}

/// Keywords that can precede `(` without being a call or a function name.
const NON_ITEM_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "let", "else", "in", "as", "move", "unsafe",
    "where", "impl", "dyn", "mut", "ref", "pub", "crate", "self", "super", "static", "type",
];

/// Whether a `// lint:hot-path` annotation lives in this comment text.
fn is_hot_path_comment(text: &str) -> bool {
    text.trim_start_matches('/')
        .trim_start_matches('*')
        .trim()
        .starts_with("lint:hot-path")
}

/// Parses one lexed file into its item tree.
///
/// The parser is best-effort and total: unparseable stretches are skipped
/// token by token, so arbitrary input never panics or loops.
pub fn parse(lexed: &Lexed) -> ParsedFile {
    let toks = &lexed.tokens;
    let mut out = ParsedFile::default();
    let text = |i: usize| toks.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let kind = |i: usize| toks.get(i).map(|t| t.kind);
    let is_ident = |i: usize| kind(i) == Some(TokenKind::Ident);

    // Scopes with the brace depth their body opened at (depth *after* the
    // opening brace), so `}` knows which scope it closes.
    let mut scopes: Vec<(Scope, usize)> = Vec::new();
    let mut depth: usize = 0;
    // A pending scope claims the next `{`.
    let mut pending: Option<Scope> = None;
    let mut i = 0usize;
    while i < toks.len() {
        match (kind(i), text(i)) {
            (Some(TokenKind::Punct), "{") => {
                depth += 1;
                scopes.push((pending.take().unwrap_or(Scope::Block), depth));
                i += 1;
            }
            (Some(TokenKind::Punct), "}") => {
                depth = depth.saturating_sub(1);
                while let Some((scope, d)) = scopes.last() {
                    if *d <= depth {
                        break;
                    }
                    if let Scope::Fn(idx) = scope {
                        if let Some(f) = out.fns.get_mut(*idx) {
                            if let Some((start, _)) = f.body {
                                f.body = Some((start, i));
                            }
                        }
                    }
                    scopes.pop();
                }
                i += 1;
            }
            (Some(TokenKind::Ident), "mod") if is_ident(i + 1) && text(i + 2) == "{" => {
                pending = Some(Scope::Mod(text(i + 1).to_string()));
                i += 2; // the `{` arm claims the brace
            }
            (Some(TokenKind::Ident), "impl") => {
                let (self_ty, next) = parse_impl_header(toks, i + 1);
                pending = Some(Scope::Impl(self_ty));
                i = next; // the `{` arm (or EOF) takes over
            }
            (Some(TokenKind::Ident), "fn") if is_ident(i + 1) => {
                let name_tok = &toks[i + 1];
                let item_line = item_start_line(toks, i);
                let (returns_result, body_open) = parse_fn_signature(toks, i + 2);
                let module: Vec<String> = scopes
                    .iter()
                    .filter_map(|(s, _)| match s {
                        Scope::Mod(name) => Some(name.clone()),
                        _ => None,
                    })
                    .collect();
                let self_ty = scopes.iter().rev().find_map(|(s, _)| match s {
                    Scope::Impl(ty) => Some(ty.clone()),
                    Scope::Fn(_) | Scope::Block => None,
                    Scope::Mod(_) => None,
                });
                let idx = out.fns.len();
                out.fns.push(FnItem {
                    name: name_tok.text.clone(),
                    self_ty: self_ty.flatten(),
                    module,
                    returns_result,
                    is_pub: is_plain_pub(toks, i),
                    is_hot: false,
                    line: name_tok.line,
                    col: name_tok.col,
                    item_line,
                    body: body_open.map(|b| (b, b)),
                });
                match body_open {
                    Some(b) => {
                        pending = Some(Scope::Fn(idx));
                        i = b; // the `{` arm claims the brace
                    }
                    None => i += 2,
                }
            }
            (Some(TokenKind::Ident), "const") if is_ident(i + 1) && text(i + 1) != "fn" => {
                let (item, next) = parse_const(toks, i);
                if let Some(item) = item {
                    out.consts.push(item);
                }
                i = next;
            }
            (Some(TokenKind::Ident), "use") => {
                let next = parse_use(toks, i + 1, &mut out.uses);
                i = next;
            }
            _ => i += 1,
        }
    }

    attach_hot_annotations(lexed, &mut out);
    out
}

/// Line of the first token of the item containing token `i`: walks back
/// over visibility modifiers and attributes to the previous statement
/// boundary (`;`, `{`, `}`) or file start.
fn item_start_line(toks: &[Token], i: usize) -> u32 {
    let mut start = i;
    for j in (0..i).rev() {
        let t = &toks[j];
        if t.kind == TokenKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            break;
        }
        start = j;
    }
    toks.get(start).map(|t| t.line).unwrap_or(1)
}

/// Whether the `fn` keyword at `i` is declared plain `pub`: walks back
/// over the `const`/`async`/`unsafe`/`extern "abi"` qualifiers to the
/// visibility. `pub(crate)` and friends end in `)`, so they are not.
fn is_plain_pub(toks: &[Token], i: usize) -> bool {
    let mut j = i;
    while let Some(prev) = j.checked_sub(1).and_then(|p| toks.get(p)) {
        let qualifier = prev.kind == TokenKind::Str
            || (prev.kind == TokenKind::Ident
                && matches!(prev.text.as_str(), "const" | "async" | "unsafe" | "extern"));
        if !qualifier {
            return prev.kind == TokenKind::Ident && prev.text == "pub";
        }
        j -= 1;
    }
    false
}

/// Parses an `impl` header starting after the `impl` keyword. Returns the
/// resolved self-type name (last path ident at angle-depth 0, after `for`
/// when present) and the index of the body's `{` (or EOF).
fn parse_impl_header(toks: &[Token], mut i: usize) -> (Option<String>, usize) {
    let mut angle = 0i32;
    let mut ty: Option<String> = None;
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "<") => angle += 1,
            (TokenKind::Punct, ">") => angle -= 1,
            (TokenKind::Punct, "<<") => angle += 2,
            (TokenKind::Punct, ">>") => angle -= 2,
            (TokenKind::Punct, "->") => {}
            (TokenKind::Punct, "{") if angle <= 0 => return (ty, i),
            (TokenKind::Punct, ";") if angle <= 0 => return (ty, i + 1),
            (TokenKind::Ident, "for") if angle <= 0 => ty = None,
            (TokenKind::Ident, "where") if angle <= 0 => {
                // The self type is fully read; skip to the body brace.
                while i < toks.len() && !(toks[i].kind == TokenKind::Punct && toks[i].text == "{") {
                    i += 1;
                }
                return (ty, i);
            }
            (TokenKind::Ident, name) if angle <= 0 && !NON_ITEM_KEYWORDS.contains(&name) => {
                ty = Some(name.to_string());
            }
            _ => {}
        }
        i += 1;
    }
    (ty, i)
}

/// Parses a fn signature starting after the name token. Returns whether
/// the return type mentions `Result` and the index of the body `{` (`None`
/// for a bodyless declaration).
fn parse_fn_signature(toks: &[Token], mut i: usize) -> (bool, Option<usize>) {
    let mut angle = 0i32;
    let mut paren = 0i32;
    let mut returns_result = false;
    let mut past_arrow = false;
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "<") => angle += 1,
            (TokenKind::Punct, ">") => angle -= 1,
            (TokenKind::Punct, "<<") => angle += 2,
            (TokenKind::Punct, ">>") => angle -= 2,
            (TokenKind::Punct, "(") => paren += 1,
            (TokenKind::Punct, ")") => paren -= 1,
            (TokenKind::Punct, "->") if paren == 0 => past_arrow = true,
            (TokenKind::Punct, "{") if angle <= 0 && paren == 0 => {
                return (returns_result, Some(i))
            }
            (TokenKind::Punct, ";") if angle <= 0 && paren == 0 => return (returns_result, None),
            (TokenKind::Ident, "Result") if past_arrow => returns_result = true,
            _ => {}
        }
        i += 1;
    }
    (returns_result, None)
}

/// Parses `const NAME: Ty = <int literal>;` starting at the `const`
/// keyword. Returns the item (when the shape matches) and the index to
/// resume at.
fn parse_const(toks: &[Token], i: usize) -> (Option<ConstItem>, usize) {
    let name_tok = &toks[i + 1];
    // Find the terminating `;` at brace/paren depth 0 so a malformed
    // const cannot eat the rest of the file.
    let mut j = i + 2;
    let mut depth = 0i32;
    let mut eq_at = None;
    while j < toks.len() {
        let t = &toks[j];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => {
                    if depth == 0 {
                        // A closing brace before `;` means this was not a
                        // const item after all (e.g. inside a signature).
                        return (None, i + 1);
                    }
                    depth -= 1;
                }
                "=" if depth == 0 => eq_at = Some(j),
                ";" if depth == 0 => break,
                _ => {}
            }
        }
        j += 1;
    }
    let value = eq_at.and_then(|eq| {
        // A single integer literal directly before the `;`.
        if j == eq + 2 && toks.get(eq + 1).map(|t| t.kind) == Some(TokenKind::Int) {
            parse_int_literal(&toks[eq + 1].text)
        } else {
            None
        }
    });
    (
        Some(ConstItem {
            name: name_tok.text.clone(),
            value,
            line: name_tok.line,
        }),
        j.saturating_add(1).max(i + 2),
    )
}

/// Parses an integer literal (decimal, hex/octal/binary, `_` separators,
/// type suffix) into a `u64`.
pub fn parse_int_literal(text: &str) -> Option<u64> {
    let cleaned: String = text.chars().filter(|c| *c != '_').collect();
    let (radix, digits) = if let Some(rest) = cleaned.strip_prefix("0x") {
        (16, rest)
    } else if let Some(rest) = cleaned.strip_prefix("0o") {
        (8, rest)
    } else if let Some(rest) = cleaned.strip_prefix("0b") {
        (2, rest)
    } else {
        (10, cleaned.as_str())
    };
    // Strip a type suffix (`u64`, `usize`, …).
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    if end == 0 {
        return None;
    }
    u64::from_str_radix(&digits[..end], radix).ok()
}

/// Parses one `use` declaration starting after the `use` keyword,
/// expanding `{…}` groups and honoring `as` aliases. Returns the index
/// after the terminating `;`.
fn parse_use(toks: &[Token], mut i: usize, out: &mut Vec<UseItem>) -> usize {
    let line = toks.get(i).map(|t| t.line).unwrap_or(1);
    // Prefix path segments shared by everything up to a `{` group.
    let mut stack: Vec<Vec<String>> = vec![Vec::new()];
    let mut current: Vec<String> = Vec::new();
    let mut alias: Option<String> = None;
    let mut awaiting_alias = false;
    let flush = |current: &mut Vec<String>,
                 alias: &mut Option<String>,
                 stack: &[Vec<String>],
                 out: &mut Vec<UseItem>| {
        if current.is_empty() {
            return;
        }
        let mut path: Vec<String> = stack.iter().flatten().cloned().collect();
        path.append(current);
        let leaf = alias
            .take()
            .or_else(|| path.last().cloned())
            .unwrap_or_default();
        if leaf != "*" && !leaf.is_empty() {
            out.push(UseItem {
                path,
                alias: leaf,
                line,
            });
        }
    };
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, ";") => {
                flush(&mut current, &mut alias, &stack, out);
                return i + 1;
            }
            (TokenKind::Punct, "::") => {}
            (TokenKind::Punct, "{") => {
                stack.push(std::mem::take(&mut current));
            }
            (TokenKind::Punct, "}") => {
                flush(&mut current, &mut alias, &stack, out);
                if stack.len() > 1 {
                    stack.pop();
                }
            }
            (TokenKind::Punct, ",") => {
                flush(&mut current, &mut alias, &stack, out);
            }
            (TokenKind::Ident, "as") => awaiting_alias = true,
            (TokenKind::Ident, seg) | (TokenKind::Punct, seg @ "*") => {
                if awaiting_alias {
                    alias = Some(seg.to_string());
                    awaiting_alias = false;
                } else {
                    current.push(seg.to_string());
                }
            }
            _ => {}
        }
        i += 1;
    }
    flush(&mut current, &mut alias, &stack, out);
    i
}

/// Attaches `// lint:hot-path` comments to the function they precede
/// (chaining through intervening comment lines, as allow directives do) or
/// to the function whose signature line they share.
fn attach_hot_annotations(lexed: &Lexed, out: &mut ParsedFile) {
    for comment in &lexed.comments {
        if !is_hot_path_comment(&comment.text) {
            continue;
        }
        // Chain through a following run of comments.
        let mut target = comment.end_line + 1;
        loop {
            let continued = lexed
                .comments
                .iter()
                .find(|c| c.line == target && !is_hot_path_comment(&c.text))
                .map(|c| c.end_line + 1);
            match continued {
                Some(next) if next > target => target = next,
                _ => break,
            }
        }
        let attached = out.fns.iter_mut().find(|f| {
            f.item_line == target
                || f.line == target
                || comment.line == f.line
                || comment.line == f.item_line
        });
        match attached {
            Some(f) => f.is_hot = true,
            None => out.unattached_hot_paths.push(comment.line),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn finds_free_fns_and_methods() {
        let src =
            "fn free() {}\nimpl Detector { pub fn detect(&self) -> Result<u8, E> { inner() } }\n";
        let p = parsed(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "free");
        assert_eq!(p.fns[0].self_ty, None);
        assert!(!p.fns[0].returns_result);
        assert_eq!(p.fns[1].display(), "Detector::detect");
        assert!(p.fns[1].returns_result);
    }

    #[test]
    fn plain_pub_is_told_from_restricted_and_private() {
        let src = "pub fn a() {}\npub(crate) fn b() {}\nfn c() {}\npub const fn d() {}\n\
                   pub unsafe extern \"C\" fn e() {}\npub(super) async fn f() {}\n";
        let p = parsed(src);
        let public: Vec<bool> = p.fns.iter().map(|f| f.is_pub).collect();
        assert_eq!(public, [true, false, false, true, true, false]);
    }

    #[test]
    fn trait_impls_resolve_the_for_type() {
        let src = "impl fmt::Display for ConfigError { fn fmt(&self) {} }\nimpl<W: Write + Send> Sink for JsonlSink<W> { fn record(&self) {} }\n";
        let p = parsed(src);
        assert_eq!(p.fns[0].self_ty.as_deref(), Some("ConfigError"));
        assert_eq!(p.fns[1].self_ty.as_deref(), Some("JsonlSink"));
    }

    #[test]
    fn inline_module_paths_are_tracked() {
        let src = "mod outer { mod inner { fn deep() {} } fn shallow() {} } fn top() {}\n";
        let p = parsed(src);
        let by_name = |n: &str| p.fns.iter().find(|f| f.name == n).expect("fn");
        assert_eq!(by_name("deep").module, vec!["outer", "inner"]);
        assert_eq!(by_name("shallow").module, vec!["outer"]);
        assert!(by_name("top").module.is_empty());
    }

    #[test]
    fn fn_bodies_cover_their_braces() {
        let src = "fn a() { if x { y(); } }\nfn b() {}\n";
        let p = parsed(src);
        let (s, e) = p.fns[0].body.expect("body");
        let toks = lex(src).tokens;
        assert_eq!(toks[s].text, "{");
        assert_eq!(toks[e].text, "}");
        // Body of `a` ends before `fn b` starts.
        assert!(toks[e].line < p.fns[1].line);
    }

    #[test]
    fn bodyless_trait_decls_have_no_body() {
        let p = parsed("trait T { fn required(&self) -> Result<u8, E>; }\n");
        assert_eq!(p.fns.len(), 1);
        assert!(p.fns[0].body.is_none());
        assert!(p.fns[0].returns_result);
    }

    #[test]
    fn consts_resolve_integer_literals() {
        let src = "const A: u64 = 60;\npub const B: usize = 0x10;\nconst C: &str = \"x\";\nconst D: u64 = 1_000u64;\n";
        let p = parsed(src);
        let get = |n: &str| p.consts.iter().find(|c| c.name == n).expect("const");
        assert_eq!(get("A").value, Some(60));
        assert_eq!(get("B").value, Some(16));
        assert_eq!(get("C").value, None);
        assert_eq!(get("D").value, Some(1000));
    }

    #[test]
    fn const_fn_is_a_fn_not_a_const() {
        let p = parsed("const fn f() -> u8 { 1 }\n");
        assert_eq!(p.fns.len(), 1);
        assert!(p.consts.is_empty());
    }

    #[test]
    fn use_decls_expand_groups_and_aliases() {
        let src = "use a::b::{c, d as e, f::g};\nuse h::i;\n";
        let p = parsed(src);
        let aliases: Vec<&str> = p.uses.iter().map(|u| u.alias.as_str()).collect();
        assert_eq!(aliases, vec!["c", "e", "g", "i"]);
        let c = &p.uses[0];
        assert_eq!(c.path, vec!["a", "b", "c"]);
        let e = &p.uses[1];
        assert_eq!(e.path, vec!["a", "b", "d"]);
    }

    #[test]
    fn hot_path_annotation_attaches_to_next_fn() {
        let src = "// lint:hot-path\npub fn detect() {}\nfn other() {}\n";
        let p = parsed(src);
        assert!(p.fns[0].is_hot);
        assert!(!p.fns[1].is_hot);
        assert!(p.unattached_hot_paths.is_empty());
    }

    #[test]
    fn hot_path_annotation_chains_through_docs_and_attrs() {
        let src = "// lint:hot-path\n// more prose\n#[inline]\npub fn detect() {}\n";
        let p = parsed(src);
        assert!(p.fns[0].is_hot);
    }

    #[test]
    fn unattached_hot_path_is_reported() {
        let src = "// lint:hot-path\nconst X: u64 = 1;\nfn f() {}\n";
        let p = parsed(src);
        assert!(p.fns.iter().all(|f| !f.is_hot));
        assert_eq!(p.unattached_hot_paths, vec![1]);
    }

    #[test]
    fn nested_fns_close_in_order() {
        let src = "fn outer() { fn inner() { a(); } inner(); }\n";
        let p = parsed(src);
        assert_eq!(p.fns.len(), 2);
        let outer = p.fns.iter().find(|f| f.name == "outer").expect("outer");
        let inner = p.fns.iter().find(|f| f.name == "inner").expect("inner");
        let (os, oe) = outer.body.expect("outer body");
        let (is_, ie) = inner.body.expect("inner body");
        assert!(os < is_ && ie < oe);
    }

    #[test]
    fn malformed_input_is_total() {
        for src in [
            "fn",
            "fn (",
            "impl {",
            "mod {}{}{}",
            "const = ;",
            "use ::{{{",
            "fn f( -> {", // unbalanced everything
            "} } } fn g() {}",
        ] {
            let _ = parsed(src); // must not panic
        }
    }

    #[test]
    fn int_literals_parse_all_radixes() {
        assert_eq!(parse_int_literal("60"), Some(60));
        assert_eq!(parse_int_literal("0xff"), Some(255));
        assert_eq!(parse_int_literal("0b101"), Some(5));
        assert_eq!(parse_int_literal("0o17"), Some(15));
        assert_eq!(parse_int_literal("1_000_000u64"), Some(1_000_000));
        assert_eq!(parse_int_literal("abc"), None);
    }
}
