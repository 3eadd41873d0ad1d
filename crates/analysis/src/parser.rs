//! Item extraction: walks a file's token stream and records every `fn`
//! (free, inherent, or trait-impl), every `macro_rules!` definition, and
//! the scopes they live in — enough structure to build a workspace call
//! graph without a real AST.

use crate::lexer::{Token, TokenKind};

/// One function (or `macro_rules!` macro, treated as a callable) found
/// in a file.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare name (`decide`, `optimize_batched`, `counter!` for macros).
    pub name: String,
    /// Self type of the enclosing `impl` block, when there is one.
    pub impl_type: Option<String>,
    /// Index of the owning file in the workspace file list.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the body, including both braces. Empty for
    /// bodyless trait-method declarations.
    pub body: (usize, usize),
    /// Token ranges of nested `fn` bodies inside this body; call
    /// extraction skips them (they are separate [`FnDef`]s).
    pub nested: Vec<(usize, usize)>,
    /// True inside `#[cfg(test)]` scopes or under a `#[test]` attribute.
    pub is_test: bool,
    /// Signature text between `fn` and the body brace (return-type guard
    /// detection for lock-order analysis).
    pub signature: String,
}

impl FnDef {
    /// `Type::name` when inside an impl, else the bare name.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// True when the return type names a lock guard (`MutexGuard`,
    /// `RwLockReadGuard`, …) — callers of this fn acquire the lock.
    pub fn returns_guard(&self) -> bool {
        self.signature.contains("Guard")
    }

    /// True when the fn has a `self` receiver — only these can be the
    /// target of a `.name(…)` method call.
    pub fn takes_self(&self) -> bool {
        self.signature.split(' ').any(|w| w == "self")
    }
}

/// What kind of scope a `{` opened.
#[derive(Debug, Clone)]
enum Scope {
    /// `impl Type { … }` — holds the self-type name.
    Impl(String),
    /// Any other block (`mod`, fn body, expression block, …).
    Block,
}

/// Token ranges `[start, end)` of test-only items: each runs from a
/// `#[cfg(test)]` or `#[test]` attribute to the closing `}` or `;` of
/// the item it marks, so a `#[cfg(test)] use …;` covers only itself.
pub fn test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let Some(after) = test_attribute(tokens, i) else {
            i += 1;
            continue;
        };
        let mut depth = 0i32;
        let mut j = after;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "}" => {
                        depth -= 1;
                        if depth <= 0 {
                            break;
                        }
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        let end = (j + 1).min(tokens.len());
        spans.push((i, end));
        i = end;
    }
    spans
}

/// When `tokens[i]` opens a `#[test]` or `#[cfg(test)]` attribute,
/// returns the index just past its closing `]`.
fn test_attribute(tokens: &[Token], i: usize) -> Option<usize> {
    if !tokens[i].is_punct('#') {
        return None;
    }
    let mut open = i + 1;
    if tokens.get(open).is_some_and(|t| t.is_punct('!')) {
        open += 1;
    }
    if !tokens.get(open).is_some_and(|t| t.is_punct('[')) {
        return None;
    }
    let is_test = match tokens.get(open + 1..)? {
        [t, close, ..] if t.is_ident("test") && close.is_punct(']') => true,
        [cfg, paren, t, ..] => cfg.is_ident("cfg") && paren.is_punct('(') && t.is_ident("test"),
        _ => false,
    };
    if !is_test {
        return None;
    }
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        }
    }
    Some(tokens.len())
}

/// Parses the token stream of one file into its function definitions.
/// `file` is the caller's index for this file. A fn is a test fn when
/// its `fn` keyword lies inside one of the file's [`test_spans`].
pub fn parse_fns(tokens: &[Token], file: usize) -> Vec<FnDef> {
    let tests = test_spans(tokens);
    let in_test = |i: usize| tests.iter().any(|&(s, e)| s <= i && i < e);
    let mut out: Vec<FnDef> = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    // Pending item context, applied when its `{` arrives.
    let mut pending: Option<Scope> = None;
    // Open fn definitions waiting for their body to close:
    // (out-index, brace-depth-at-open).
    let mut open_fns: Vec<(usize, usize)> = Vec::new();

    let sig_tokens = |toks: &[Token]| -> String {
        let mut s = String::new();
        for t in toks {
            if t.kind != TokenKind::Comment {
                s.push_str(&t.text);
                s.push(' ');
            }
        }
        s
    };

    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        match t.kind {
            TokenKind::Ident => {
                match t.text.as_str() {
                    "impl" => {
                        // Capture the self type: tokens up to the `{`
                        // (or `;`), taking the path after `for` when
                        // present, else the first path after generics.
                        let mut j = i + 1;
                        let mut angle = 0i32;
                        let mut after_for: Option<usize> = None;
                        while j < tokens.len() {
                            let tj = &tokens[j];
                            if tj.is_punct('{') || tj.is_punct(';') {
                                break;
                            }
                            if tj.is_punct('<') {
                                angle += 1;
                            } else if tj.is_punct('>') {
                                angle -= 1;
                            } else if angle == 0 && tj.is_ident("for") {
                                after_for = Some(j + 1);
                            }
                            j += 1;
                        }
                        let ty_range = match after_for {
                            Some(s) => &tokens[s..j],
                            None => &tokens[i + 1..j],
                        };
                        pending = Some(Scope::Impl(self_type_name(ty_range)));
                        i = j; // land on `{` or `;`
                        continue;
                    }
                    "fn" => {
                        let name = match tokens.get(i + 1) {
                            Some(n) if n.kind == TokenKind::Ident => n.text.clone(),
                            _ => {
                                i += 1;
                                continue;
                            }
                        };
                        // Scan the signature to the body `{` or a `;`
                        // (trait declaration). Braces cannot appear in
                        // the signatures this workspace writes.
                        let mut j = i + 2;
                        let mut paren = 0i32;
                        while j < tokens.len() {
                            let tj = &tokens[j];
                            if tj.is_punct('(') {
                                paren += 1;
                            } else if tj.is_punct(')') {
                                paren -= 1;
                            } else if paren == 0 && (tj.is_punct('{') || tj.is_punct(';')) {
                                break;
                            }
                            j += 1;
                        }
                        let impl_type = scopes.iter().rev().find_map(|s| match s {
                            Scope::Impl(ty) => Some(ty.clone()),
                            Scope::Block => None,
                        });
                        out.push(FnDef {
                            name,
                            impl_type,
                            file,
                            line: t.line,
                            body: (j, j), // patched when the body closes
                            nested: Vec::new(),
                            is_test: in_test(i),
                            signature: sig_tokens(&tokens[i..j.min(tokens.len())]),
                        });
                        if j < tokens.len() && tokens[j].is_punct('{') {
                            open_fns.push((out.len() - 1, scopes.len()));
                            // The `{` at j is consumed as this fn's body
                            // opener.
                            scopes.push(Scope::Block);
                        }
                        // A bodyless declaration keeps an empty body
                        // (trait methods resolve to their impls anyway).
                        i = j + 1;
                        continue;
                    }
                    "macro_rules" => {
                        // `macro_rules! name { … }` — record as callable
                        // `name!` whose body is the rule block.
                        if let (Some(bang), Some(nm)) = (tokens.get(i + 1), tokens.get(i + 2)) {
                            if bang.is_punct('!') && nm.kind == TokenKind::Ident {
                                let mut j = i + 3;
                                while j < tokens.len() && !tokens[j].is_punct('{') {
                                    j += 1;
                                }
                                out.push(FnDef {
                                    name: format!("{}!", nm.text),
                                    impl_type: None,
                                    file,
                                    line: t.line,
                                    body: (j, j),
                                    nested: Vec::new(),
                                    is_test: in_test(i),
                                    signature: String::new(),
                                });
                                open_fns.push((out.len() - 1, scopes.len()));
                                scopes.push(Scope::Block);
                                i = j + 1;
                                continue;
                            }
                        }
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            TokenKind::Punct if t.text == "{" => {
                scopes.push(pending.take().unwrap_or(Scope::Block));
                i += 1;
            }
            TokenKind::Punct if t.text == "}" => {
                scopes.pop();
                // Close any fn whose body opened at this depth.
                if let Some(&(fx, depth)) = open_fns.last() {
                    if scopes.len() == depth {
                        open_fns.pop();
                        let (start, _) = out[fx].body;
                        out[fx].body = (start, i + 1);
                        // Record this span as nested inside the enclosing
                        // open fn, if any.
                        if let Some(&(outer, _)) = open_fns.last() {
                            out[outer].nested.push((start, i + 1));
                        }
                    }
                }
                i += 1;
            }
            TokenKind::Punct if t.text == ";" => {
                // `mod foo;` / `impl … ;` never materialize their scope.
                pending = None;
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }
    out
}

/// Last meaningful path segment of a type: `Foo`, `sim::Testbed` ->
/// `Testbed`, `Vec<f64>` -> `Vec`, `&mut Supervisor` -> `Supervisor`.
fn self_type_name(tokens: &[Token]) -> String {
    let mut last = String::new();
    let mut angle = 0i32;
    for t in tokens {
        match t.kind {
            TokenKind::Punct if t.text == "<" => angle += 1,
            TokenKind::Punct if t.text == ">" => angle -= 1,
            TokenKind::Ident if angle == 0 && t.text != "dyn" && t.text != "mut" => {
                last = t.text.clone();
            }
            _ => {}
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<FnDef> {
        parse_fns(&lex(src), 0)
    }

    #[test]
    fn free_fn_and_method() {
        let defs = parse(
            "fn free() { helper(); }\n\
             impl Foo { pub fn method(&self) -> u32 { 1 } }\n",
        );
        assert_eq!(defs.len(), 2);
        assert_eq!(defs[0].qualified(), "free");
        assert_eq!(defs[1].qualified(), "Foo::method");
        assert!(!defs[0].is_test);
    }

    #[test]
    fn trait_impl_binds_to_self_type() {
        let defs = parse("impl Controller for TeslaController { fn decide(&mut self) {} }");
        assert_eq!(defs[0].qualified(), "TeslaController::decide");
    }

    #[test]
    fn generic_impl_type() {
        let defs = parse("impl<T: Clone> Queue<T> { fn push(&self, t: T) {} }");
        assert_eq!(defs[0].qualified(), "Queue::push");
    }

    #[test]
    fn cfg_test_mod_marks_fns() {
        let defs = parse(
            "fn live() {}\n\
             #[cfg(test)]\nmod tests { fn helper() {} #[test] fn case() {} }\n",
        );
        assert_eq!(defs.len(), 3);
        assert!(!defs[0].is_test);
        assert!(defs[1].is_test);
        assert!(defs[2].is_test);
    }

    #[test]
    fn test_attr_marks_single_fn() {
        let defs = parse("#[test]\nfn case() {}\nfn live() {}");
        assert!(defs[0].is_test);
        assert!(!defs[1].is_test);
    }

    #[test]
    fn cfg_test_on_a_use_item_covers_only_that_item() {
        let defs = parse("#[cfg(test)]\nuse std::collections::HashMap;\nfn live() {}");
        assert!(!defs[0].is_test);
        let tokens =
            lex("fn a() {}\n#[cfg(test)] // { stray brace\nmod t { fn b() {} }\nfn c() {}");
        let spans = test_spans(&tokens);
        assert_eq!(spans.len(), 1);
        let covered: Vec<&str> = tokens[spans[0].0..spans[0].1]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(covered.first(), Some(&"#"));
        assert_eq!(covered.last(), Some(&"}"));
        assert!(!covered.contains(&"c"));
    }

    #[test]
    fn nested_fn_ranges_are_recorded() {
        let defs = parse("fn outer() { fn inner() { x(); } inner(); }");
        assert_eq!(defs.len(), 2);
        let outer = defs.iter().find(|d| d.name == "outer").unwrap();
        let inner = defs.iter().find(|d| d.name == "inner").unwrap();
        assert_eq!(outer.nested.len(), 1);
        assert_eq!(outer.nested[0], inner.body);
    }

    #[test]
    fn bodyless_trait_method() {
        let defs = parse("trait C { fn decide(&mut self) -> f64; }\nfn after() {}");
        assert_eq!(defs.len(), 2);
        assert_eq!(defs[0].body.0, defs[0].body.1);
        assert_eq!(defs[1].name, "after");
    }

    #[test]
    fn macro_rules_is_a_callable() {
        let defs = parse("macro_rules! counter { ($n:expr) => { reg().counter($n) }; }");
        assert_eq!(defs[0].name, "counter!");
        assert!(defs[0].body.1 > defs[0].body.0);
    }

    #[test]
    fn guard_returning_signature() {
        let defs =
            parse("impl S { fn lock_shard(&self) -> MutexGuard<'_, Shard> { self.m.lock() } }");
        assert!(defs[0].returns_guard());
    }

    #[test]
    fn where_clause_signature() {
        let defs = parse("fn go<F>(f: F) -> u32 where F: Fn(u32) -> u32 { f(1) }");
        assert_eq!(defs.len(), 1);
        assert_eq!(defs[0].name, "go");
        assert!(defs[0].body.1 > defs[0].body.0);
    }
}
