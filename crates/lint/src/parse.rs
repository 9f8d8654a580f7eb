//! Lightweight item parser over the token stream.
//!
//! Recovers just enough structure for the rules: the item tree (`mod` /
//! `fn` / `impl` / `trait` / type and value items), each item's line
//! extent, visibility, and `#[cfg(test)]` attribution.
//! It is *not* a Rust parser — expressions are never interpreted, and
//! anything that does not look like an item header is skipped as plain
//! code. The design constraint is the same as the lexer's: total on
//! arbitrary input, and conservative (an unrecognized construct degrades
//! to "no item here", never to a crash or a bogus extent).
//!
//! Item detection is anchored on *item position*: a header may only start
//! at the beginning of the file or after `;`, `{`, `}`, or a closed
//! attribute. That is what keeps `-> impl Iterator`, `let f: fn(u32)`,
//! and `Fn()` bounds from being mistaken for `impl`/`fn` items.

use crate::lexer::{Tok, TokKind};

/// What kind of item a header introduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ItemKind {
    Mod,
    Fn,
    Impl,
    Trait,
    Struct,
    Enum,
    Union,
    Const,
    Static,
    TypeAlias,
    Use,
    MacroDef,
}

impl ItemKind {
    /// Short label used by the API baseline file.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ItemKind::Mod => "mod",
            ItemKind::Fn => "fn",
            ItemKind::Impl => "impl",
            ItemKind::Trait => "trait",
            ItemKind::Struct => "struct",
            ItemKind::Enum => "enum",
            ItemKind::Union => "union",
            ItemKind::Const => "const",
            ItemKind::Static => "static",
            ItemKind::TypeAlias => "type",
            ItemKind::Use => "use",
            ItemKind::MacroDef => "macro",
        }
    }
}

/// One parsed item. Items form a tree via `parent` indices into the same
/// vector; the vector is ordered by header appearance.
#[derive(Debug, Clone)]
pub(crate) struct Item {
    pub kind: ItemKind,
    /// Item name. For `impl` blocks this is the self-type identifier
    /// (inherent) or `"<Trait> for <Type>"`; for `use` items it is the
    /// imported path text with whitespace collapsed.
    pub name: String,
    /// Unrestricted `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// Carries a `#[cfg(test)]`-style attribute directly (`not(test)` does
    /// not count).
    pub cfg_test: bool,
    /// Carries `#[macro_export]`.
    pub macro_export: bool,
    /// `impl Type { .. }` as opposed to `impl Trait for Type { .. }`.
    pub inherent_impl: bool,
    /// First line of the header including attributes.
    pub header_line: usize,
    /// Line of the introducing keyword.
    pub kw_line: usize,
    /// Last line of the item (closing brace or semicolon). For an item
    /// whose end was never seen (truncated input) this is the header line.
    pub end_line: usize,
    pub parent: Option<usize>,
}

impl Item {
    /// Does `line` fall inside this item (attributes included)?
    pub(crate) fn covers(&self, line: usize) -> bool {
        self.header_line <= line && line <= self.end_line
    }
}

/// An in-flight item header waiting for its body `{` or terminating `;`.
struct Pending {
    item: usize,
    paren: i32,
    bracket: i32,
    is_impl: bool,
    /// Significant token texts between `impl` and its body, for inherent /
    /// trait-impl classification.
    impl_hdr: Vec<String>,
}

impl Pending {
    fn new(item: usize, is_impl: bool) -> Pending {
        Pending {
            item,
            paren: 0,
            bracket: 0,
            is_impl,
            impl_hdr: Vec::new(),
        }
    }
}

/// Parse the token stream of `src` into an item tree.
pub(crate) fn parse(src: &str, toks: &[Tok]) -> Vec<Item> {
    let sig: Vec<usize> = (0..toks.len())
        .filter(|&i| !toks[i].kind.is_trivia())
        .collect();
    let text = |si: usize| -> &str {
        match sig.get(si) {
            Some(&ti) => &src[toks[ti].start..toks[ti].end],
            None => "",
        }
    };
    let kind_of = |si: usize| -> Option<TokKind> { sig.get(si).map(|&ti| toks[ti].kind) };
    let line_of = |si: usize| -> usize {
        match sig.get(si) {
            Some(&ti) => toks[ti].line,
            None => 0,
        }
    };

    let mut items: Vec<Item> = Vec::new();
    let mut open: Vec<(usize, i32)> = Vec::new(); // (item, depth at open)
    let mut depth: i32 = 0;
    let mut pending: Option<Pending> = None;
    let mut attrs: Vec<(usize, String)> = Vec::new();
    let mut item_pos = true;
    let mut k = 0usize;

    while k < sig.len() {
        let t_text = text(k);
        let t_kind = match kind_of(k) {
            Some(x) => x,
            None => break,
        };
        let t_line = line_of(k);

        if let Some(p) = pending.as_mut() {
            let mut resolved = false;
            let mut reprocess = false;
            match t_text {
                "(" => p.paren += 1,
                ")" => p.paren -= 1,
                "[" => p.bracket += 1,
                "]" => p.bracket -= 1,
                "{" if p.paren == 0 && p.bracket == 0 => {
                    if p.is_impl {
                        let (name, inherent) = impl_name(&p.impl_hdr);
                        items[p.item].name = name;
                        items[p.item].inherent_impl = inherent;
                    }
                    open.push((p.item, depth));
                    depth += 1;
                    resolved = true;
                }
                ";" if p.paren == 0 && p.bracket == 0 => {
                    items[p.item].end_line = t_line;
                    resolved = true;
                }
                "}" if p.paren == 0 && p.bracket == 0 => {
                    // Malformed header (macro fragment, truncated input):
                    // abandon the pending item and let the brace close
                    // whatever scope it belongs to. (A brace pair nested
                    // in the header's parentheses — a `match` among a
                    // macro's arguments — is part of the header.)
                    items[p.item].end_line = t_line;
                    resolved = true;
                    reprocess = true;
                }
                _ => {
                    if p.is_impl {
                        p.impl_hdr.push(t_text.to_string());
                    }
                }
            }
            if resolved {
                pending = None;
                item_pos = true;
                if !reprocess {
                    k += 1;
                    continue;
                }
            } else {
                k += 1;
                continue;
            }
        }

        match (t_kind, t_text) {
            (TokKind::Punct, "{") => {
                depth += 1;
                item_pos = true;
                attrs.clear();
                k += 1;
            }
            (TokKind::Punct, "}") => {
                depth -= 1;
                while let Some(&(idx, d)) = open.last() {
                    if d >= depth {
                        items[idx].end_line = t_line;
                        open.pop();
                    } else {
                        break;
                    }
                }
                item_pos = true;
                attrs.clear();
                k += 1;
            }
            (TokKind::Punct, ";") => {
                item_pos = true;
                attrs.clear();
                k += 1;
            }
            (TokKind::Punct, "#") if item_pos && matches!(text(k + 1), "[" | "!") => {
                // #[attr] or #![attr]: bracket-match and record.
                let open_at = if text(k + 1) == "!" { k + 2 } else { k + 1 };
                if text(open_at) != "[" {
                    item_pos = false;
                    k += 1;
                    continue;
                }
                let mut j = open_at + 1;
                let mut bd = 1i32;
                let mut inner = String::new();
                while j < sig.len() && bd > 0 {
                    match text(j) {
                        "[" => bd += 1,
                        "]" => bd -= 1,
                        _ => {}
                    }
                    if bd > 0 {
                        inner.push_str(text(j));
                    }
                    j += 1;
                }
                attrs.push((t_line, inner));
                k = j;
                // item_pos stays true: an attribute precedes an item.
            }
            (TokKind::Ident, _) if item_pos => {
                match try_item(&sig, toks, src, k, &attrs, &mut items, &open) {
                    Some((next_k, new_pending)) => {
                        attrs.clear();
                        pending = new_pending;
                        item_pos = pending.is_none();
                        k = next_k;
                    }
                    None => {
                        item_pos = false;
                        attrs.clear();
                        k += 1;
                    }
                }
            }
            _ => {
                item_pos = false;
                k += 1;
            }
        }
    }

    // Close anything still open at EOF.
    let last_line = toks.last().map(|t| t.line).unwrap_or(1);
    while let Some((idx, _)) = open.pop() {
        items[idx].end_line = last_line;
    }
    items
}

/// Try to parse an item header whose first significant token is at `k`.
/// On success returns the index to resume at and the pending state (None
/// for leaf items that were fully consumed).
#[allow(
    clippy::too_many_arguments,
    reason = "the parser's cursor state is threaded through by hand"
)]
fn try_item(
    sig: &[usize],
    toks: &[Tok],
    src: &str,
    k: usize,
    attrs: &[(usize, String)],
    items: &mut Vec<Item>,
    open: &[(usize, i32)],
) -> Option<(usize, Option<Pending>)> {
    let text = |si: usize| -> &str {
        match sig.get(si) {
            Some(&ti) => &src[toks[ti].start..toks[ti].end],
            None => "",
        }
    };
    let line_of = |si: usize| -> usize {
        match sig.get(si) {
            Some(&ti) => toks[ti].line,
            None => 0,
        }
    };

    let mut j = k;
    let mut is_pub = false;
    // Modifier run: pub[(..)], const/async/default/unsafe, extern "abi".
    loop {
        match text(j) {
            "pub" => {
                if text(j + 1) == "(" {
                    // Restricted visibility: skip to matching ')'.
                    let mut d = 1i32;
                    let mut m = j + 2;
                    while m < sig.len() && d > 0 {
                        match text(m) {
                            "(" => d += 1,
                            ")" => d -= 1,
                            _ => {}
                        }
                        m += 1;
                    }
                    j = m;
                } else {
                    is_pub = true;
                    j += 1;
                }
            }
            "const" => {
                // `const fn` / `const unsafe fn` are modifiers; `const X`
                // is an item keyword handled below.
                if matches!(text(j + 1), "fn" | "unsafe" | "extern" | "async") {
                    j += 1;
                } else {
                    break;
                }
            }
            "unsafe" => {
                if text(j + 1) == "{" {
                    // `unsafe { .. }` block expression, not an item.
                    return None;
                }
                j += 1;
            }
            "async" | "default" => j += 1,
            "extern" => {
                // `extern "C" fn` modifier or `extern crate x;` item.
                if text(j + 1) == "crate" {
                    let mut m = j + 2;
                    while m < sig.len() && text(m) != ";" {
                        m += 1;
                    }
                    return Some((m + 1, None));
                }
                j += 1;
                if sig.get(j).is_some_and(|&ti| toks[ti].kind == TokKind::Str) {
                    j += 1;
                }
            }
            _ => break,
        }
        if j >= sig.len() {
            return None;
        }
    }

    let kw = text(j);
    let header_line = attrs.first().map(|a| a.0).unwrap_or_else(|| line_of(k));
    let kw_line = line_of(j);
    let cfg_test = attrs.iter().any(|(_, a)| attr_is_cfg_test(a));
    let macro_export = attrs.iter().any(|(_, a)| a.starts_with("macro_export"));
    let parent = open.last().map(|&(idx, _)| idx);
    let mut mk = |kind: ItemKind, name: String| -> usize {
        items.push(Item {
            kind,
            name,
            is_pub,
            cfg_test,
            macro_export,
            inherent_impl: false,
            header_line,
            kw_line,
            end_line: kw_line,
            parent,
        });
        items.len() - 1
    };

    let name_after = |j: usize| -> String {
        if sig
            .get(j + 1)
            .is_some_and(|&ti| toks[ti].kind == TokKind::Ident)
        {
            text(j + 1).to_string()
        } else {
            "_".to_string()
        }
    };

    match kw {
        "fn" | "mod" | "trait" | "struct" | "enum" | "union" | "const" | "type" => {
            let kind = match kw {
                "fn" => ItemKind::Fn,
                "mod" => ItemKind::Mod,
                "trait" => ItemKind::Trait,
                "struct" => ItemKind::Struct,
                "enum" => ItemKind::Enum,
                "union" => ItemKind::Union,
                "const" => ItemKind::Const,
                _ => ItemKind::TypeAlias,
            };
            let idx = mk(kind, name_after(j));
            Some((j + 2, Some(Pending::new(idx, false))))
        }
        "impl" => {
            let idx = mk(ItemKind::Impl, String::new());
            Some((j + 1, Some(Pending::new(idx, true))))
        }
        "static" => {
            let at = if text(j + 1) == "mut" { j + 1 } else { j };
            let idx = mk(ItemKind::Static, name_after(at));
            Some((at + 2, Some(Pending::new(idx, false))))
        }
        "use" => {
            // Leaf: capture the path text up to the terminating `;`
            // (brace groups `use x::{a, b};` keep their braces balanced).
            let mut m = j + 1;
            let mut bd = 0i32;
            while m < sig.len() {
                match text(m) {
                    "{" => bd += 1,
                    "}" => bd -= 1,
                    ";" if bd <= 0 => break,
                    _ => {}
                }
                m += 1;
            }
            let parts: Vec<&str> = (j + 1..m).map(text).collect();
            let idx = mk(ItemKind::Use, normalize_path(&parts));
            items[idx].end_line = line_of(m.min(sig.len().saturating_sub(1)));
            Some((m + 1, None))
        }
        "macro_rules" => {
            // macro_rules ! name { .. }
            if text(j + 1) != "!" {
                return None;
            }
            let name = if sig
                .get(j + 2)
                .is_some_and(|&ti| toks[ti].kind == TokKind::Ident)
            {
                text(j + 2).to_string()
            } else {
                "_".to_string()
            };
            let idx = mk(ItemKind::MacroDef, name);
            Some((j + 3, Some(Pending::new(idx, false))))
        }
        _ => None,
    }
}

/// Classify an impl header (`impl_hdr` = significant token texts between
/// `impl` and `{`) and derive its display name.
fn impl_name(hdr: &[String]) -> (String, bool) {
    // A `for` not followed by `<` marks a trait impl (`for<'a>` is HRTB).
    let mut for_at = None;
    for (i, t) in hdr.iter().enumerate() {
        if t == "for" && hdr.get(i + 1).map(String::as_str) != Some("<") {
            for_at = Some(i);
            break;
        }
    }
    match for_at {
        Some(i) => {
            let trait_name = first_type_ident(&hdr[..i]);
            let type_name = first_type_ident(&hdr[i + 1..]);
            (format!("{trait_name} for {type_name}"), false)
        }
        None => (first_type_ident(hdr), true),
    }
}

/// First identifier of a type path, skipping a leading generic parameter
/// list (`<T: Bound>`) and references (`&`, `&'a mut`).
fn first_type_ident(toks: &[String]) -> String {
    let mut i = 0;
    if toks.first().map(String::as_str) == Some("<") {
        let mut d = 1i32;
        i = 1;
        while i < toks.len() && d > 0 {
            match toks[i].as_str() {
                "<" => d += 1,
                ">" => d -= 1,
                _ => {}
            }
            i += 1;
        }
    }
    // The self-type path's *last* leading segment is the interesting one
    // (`fmt::Display` -> `Display`): walk `seg :: seg` while it lasts.
    let mut name = String::from("_");
    while i < toks.len() {
        let t = &toks[i];
        if t == "&" || t == "mut" || t.starts_with('\'') {
            i += 1;
            continue;
        }
        if t.chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
        {
            name = t.clone();
            // Continue through `::` path segments.
            if toks.get(i + 1).map(String::as_str) == Some(":")
                && toks.get(i + 2).map(String::as_str) == Some(":")
            {
                i += 3;
                continue;
            }
        }
        break;
    }
    name
}

/// Rebuild a `use` path from its significant tokens: space only between
/// two word tokens (`x as y`), everything else packed tight, so
/// `voxel :: prelude :: *` renders as `voxel::prelude::*`.
fn normalize_path(parts: &[&str]) -> String {
    let word_edge = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    let mut out = String::new();
    for (i, t) in parts.iter().enumerate() {
        if i > 0 && word_edge(parts[i - 1].chars().last()) && word_edge(t.chars().next()) {
            out.push(' ');
        }
        out.push_str(t);
    }
    out
}

/// `cfg(test)`, `cfg(all(test, ..))`, `cfg(any(.., test))` — but not
/// `cfg(not(test))` and not substrings like `testkit`.
fn attr_is_cfg_test(attr: &str) -> bool {
    if !attr.starts_with("cfg") {
        return false;
    }
    if attr.contains("not(test)") {
        return false;
    }
    // Word-boundary search for `test`.
    let bytes: Vec<char> = attr.chars().collect();
    let pat: Vec<char> = "test".chars().collect();
    let isw = |c: char| c.is_alphanumeric() || c == '_';
    let mut i = 0;
    while i + pat.len() <= bytes.len() {
        if bytes[i..i + pat.len()] == pat[..] {
            let before = if i == 0 { None } else { Some(bytes[i - 1]) };
            let after = bytes.get(i + pat.len()).copied();
            if !before.is_some_and(isw) && !after.is_some_and(isw) {
                return true;
            }
        }
        i += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Vec<Item> {
        parse(src, &lex(src))
    }

    #[test]
    fn fn_mod_extents_and_nesting() {
        let src = "fn a() {\n    let x = 1;\n}\nmod m {\n    fn b() {}\n}\n";
        let items = parse_src(src);
        assert_eq!(items.len(), 3);
        assert_eq!((items[0].kind, items[0].name.as_str()), (ItemKind::Fn, "a"));
        assert_eq!(items[0].end_line, 3);
        assert_eq!(
            (items[1].kind, items[1].name.as_str()),
            (ItemKind::Mod, "m")
        );
        assert_eq!(items[2].parent, Some(1));
    }

    #[test]
    fn cfg_test_marks_items_not_not_test() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n#[cfg(not(test))]\nfn live() {}\n#[cfg(feature = \"testkit\")]\nfn feat() {}\n";
        let items = parse_src(src);
        assert!(items[0].cfg_test);
        assert_eq!(items[0].header_line, 1);
        assert!(!items[2].cfg_test, "not(test) must not count");
        assert!(!items[3].cfg_test, "testkit substring must not count");
    }

    #[test]
    fn impl_inherent_vs_trait() {
        let src = "impl Foo {\n    pub fn new() -> Foo { Foo }\n}\nimpl fmt::Display for Foo {\n    fn fmt(&self) {}\n}\nimpl<T: Clone> Wrap<T> {\n    fn g() {}\n}\n";
        let items = parse_src(src);
        let impls: Vec<&Item> = items.iter().filter(|i| i.kind == ItemKind::Impl).collect();
        assert_eq!(impls.len(), 3);
        assert!(impls[0].inherent_impl);
        assert_eq!(impls[0].name, "Foo");
        assert!(!impls[1].inherent_impl);
        assert_eq!(impls[1].name, "Display for Foo");
        assert!(impls[2].inherent_impl);
        assert_eq!(impls[2].name, "Wrap");
    }

    #[test]
    fn impl_in_return_position_is_not_an_item() {
        let src = "fn f() -> impl Iterator<Item = u8> {\n    std::iter::empty()\n}\n";
        let items = parse_src(src);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].kind, ItemKind::Fn);
    }

    #[test]
    fn fn_pointer_type_is_not_an_item() {
        let src = "fn g() {\n    let f: fn(u32) -> u32 = id;\n    f(1);\n}\n";
        let items = parse_src(src);
        assert_eq!(items.len(), 1);
    }

    /// Regression: a brace pair among a macro call's arguments used to
    /// abandon the call and close the enclosing fn early, so methods after
    /// it lost their impl (`connection::poll_transmit` in the baseline).
    #[test]
    fn braces_inside_macro_arguments_stay_in_the_call() {
        let src = "impl S {\n    fn a(&self) {\n        ev!(1, match x {\n            _ => 2,\n        });\n    }\n    pub fn b(&self) {}\n}\n";
        let items = parse_src(src);
        let b = items.iter().find(|i| i.name == "b").unwrap();
        assert_eq!(b.parent, Some(0));
        assert_eq!(items[0].end_line, 8);
    }

    #[test]
    fn pub_and_restricted_visibility() {
        let src = "pub fn a() {}\npub(crate) fn b() {}\npub struct S;\nstatic mut G: u32 = 0;\n";
        let items = parse_src(src);
        assert!(items[0].is_pub);
        assert!(!items[1].is_pub);
        assert!(items[2].is_pub);
        assert_eq!(items[3].kind, ItemKind::Static);
        assert_eq!(items[3].name, "G");
    }

    #[test]
    fn use_groups_and_macro_defs() {
        let src = "pub use crate::prelude::*;\nuse std::collections::{BTreeMap, BTreeSet};\n#[macro_export]\nmacro_rules! ev {\n    ($x:expr) => { $x };\n}\n";
        let items = parse_src(src);
        assert_eq!(items[0].kind, ItemKind::Use);
        assert!(items[0].is_pub);
        assert_eq!(items[0].name, "crate::prelude::*");
        assert_eq!(items[1].kind, ItemKind::Use);
        let mac = &items[2];
        assert_eq!(mac.kind, ItemKind::MacroDef);
        assert_eq!(mac.name, "ev");
        assert!(mac.macro_export);
        assert_eq!(mac.end_line, 6);
    }

    #[test]
    fn unsafe_fn_and_trait_methods() {
        let src = "pub unsafe fn danger() {}\npub trait T {\n    fn req(&self);\n    fn prov(&self) {}\n}\n";
        let items = parse_src(src);
        assert_eq!(
            (items[0].kind, items[0].name.as_str()),
            (ItemKind::Fn, "danger")
        );
        let t = items.iter().position(|i| i.kind == ItemKind::Trait);
        let methods: Vec<&Item> = items.iter().filter(|i| i.parent == t).collect();
        assert_eq!(methods.len(), 2);
        assert_eq!(methods[0].name, "req");
        assert_eq!(methods[0].end_line, 3);
    }

    #[test]
    fn survives_arbitrary_garbage() {
        for src in [
            "impl impl impl",
            "fn",
            "pub pub pub fn",
            "}}}{{{",
            "macro_rules!",
            "use ;;; fn f( {",
            "#[cfg(test) fn x",
        ] {
            let _ = parse_src(src);
        }
    }
}
