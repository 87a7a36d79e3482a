//! Every public function has a caller outside the tests.
//!
//! A `pub fn` that only tests call is surface to keep, document and
//! stay compatible with, for nothing. This census reads the source
//! text: it collects every `pub fn` and `pub const fn` name in the
//! library crates' non-test code (each file's text before its first
//! `#[cfg(test)]`, `//` comments stripped) and looks for a use of each
//! name in that text or in the root crate, the examples and perfbench.
//!
//! A use is an occurrence of the name, as a whole identifier, that is
//! followed by `(` or `::<` or preceded by `::`, and that is not the
//! name's own `fn NAME`. Two uses do not count:
//!
//! - a use inside a function of the same name, so that a delegating
//!   `fn f(&self) { self.inner.f() }` does not keep both alive;
//! - for an associated function with no `self` receiver, any use but a
//!   path through its own type (`Type::name`, or `Self::name` anywhere):
//!   a method call cannot reach it, nor can another type's path.
//!
//! Otherwise the census matches names, not paths, so a method name used
//! on any type counts for every method of that name: it can miss dead
//! code, but it never flags a function that is called by name. It reads
//! rustfmt's layout (CI checks it) to tell which `impl` or `fn` encloses
//! a line.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Names kept with no non-test caller, each with the reason.
const ALLOWED: &[(&str, &str)] = &[
    (
        "with_alloc_fail_rate",
        "the only way to drive the fault plan's allocation-failure site",
    ),
    (
        "with_alloc_fault_node",
        "scopes the allocation-failure site to one node; kept with it",
    ),
    (
        "tiny",
        "`StencilConfig::tiny` and `MatmulConfig::tiny` are the README's \
         smallest configurations",
    ),
    (
        "resume",
        "`MatmulDriver::resume` is matmul's half of the checkpoint \
         machinery, kept with `StencilDriver::resume`",
    ),
];

/// Every `.rs` file under `dir`, recursively, in a stable order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.unwrap().path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// `text` with every `//` comment removed, up to its line's end.
fn strip_comments(text: &str) -> String {
    text.lines()
        .map(|line| line.find("//").map_or(line, |at| &line[..at]))
        .collect::<Vec<_>>()
        .join("\n")
}

/// A library file's non-test text: before its first `#[cfg(test)]`,
/// comments stripped.
fn non_test_text(path: &Path) -> String {
    let text = fs::read_to_string(path).unwrap();
    let end = text.find("#[cfg(test)]").unwrap_or(text.len());
    strip_comments(&text[..end])
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// The identifier that starts at `at` in `bytes`.
fn ident_at(bytes: &[u8], at: usize) -> &str {
    let end = (at..bytes.len())
        .find(|&i| !is_ident(bytes[i]))
        .unwrap_or(bytes.len());
    std::str::from_utf8(&bytes[at..end]).unwrap()
}

/// Whether the word ending just before `at` is `fn`, with only
/// whitespace between.
fn after_fn_keyword(bytes: &[u8], at: usize) -> bool {
    let mut i = at;
    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    i != at && i >= 2 && &bytes[i - 2..i] == b"fn" && (i == 2 || !is_ident(bytes[i - 3]))
}

/// An item whose body encloses the lines after its own: an `impl` of
/// the named type, or the named `fn`.
#[derive(Clone, PartialEq)]
enum Item {
    Impl(String),
    Fn(String),
}

/// `text` past the generic parameters it starts with, if any.
fn skip_generics(text: &str) -> &str {
    if !text.starts_with('<') {
        return text;
    }
    let mut depth = 0;
    for (i, c) in text.char_indices() {
        match c {
            '<' => depth += 1,
            '>' if !text[..i].ends_with('-') => {
                depth -= 1;
                if depth == 0 {
                    return &text[i + 1..];
                }
            }
            _ => {}
        }
    }
    ""
}

/// The type an `impl` line names: `Foo` in `impl<T> Foo<T> {` and in
/// `impl Trait for Foo {`.
fn impl_type(body: &str) -> String {
    let rest = skip_generics(body["impl".len()..].trim_start());
    let rest = rest.split_once(" for ").map_or(rest, |(_, ty)| ty);
    ident_at(rest.trim_start().as_bytes(), 0).to_owned()
}

/// The name a line declares with `fn NAME`, if any.
fn declared_fn(line: &str) -> Option<&str> {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(off) = line[from..].find("fn ") {
        let at = from + off;
        from = at + 3;
        if at == 0 || !is_ident(bytes[at - 1]) {
            let rest = &line[from..];
            let name = ident_at(rest.as_bytes(), rest.len() - rest.trim_start().len());
            return (!name.is_empty()).then_some(name);
        }
    }
    None
}

/// Visit each line of `text` at its byte offset, with the items that
/// enclose it, innermost last. An item that opens on a line at indent
/// `k` closes at the next line at indent `k` that starts with `}`, or
/// at a line indented less; one whose line ends in `;` or `}` (a
/// body-less or one-line `fn`) encloses no other line.
fn for_each_line(text: &str, mut visit: impl FnMut(usize, &str, &[Item])) {
    let mut open: Vec<(usize, Item)> = Vec::new();
    let mut offset = 0;
    for line in text.split('\n') {
        let at = offset;
        offset += line.len() + 1;
        let body = line.trim_start();
        if body.is_empty() {
            continue;
        }
        let indent = line.len() - body.len();
        while open
            .last()
            .is_some_and(|&(k, _)| indent < k || (indent == k && body.starts_with('}')))
        {
            open.pop();
        }
        let items: Vec<Item> = open.iter().map(|(_, item)| item.clone()).collect();
        visit(at, line, &items);
        let item = if body.starts_with("impl ") || body.starts_with("impl<") {
            Some(Item::Impl(impl_type(body)))
        } else {
            declared_fn(body).map(|name| Item::Fn(name.to_owned()))
        };
        let one_line = body.trim_end().ends_with([';', '}']);
        if let Some(item) = item.filter(|_| !one_line) {
            open.push((indent, item));
        }
    }
}

/// Whether the parameter list that follows a function's name (after
/// any generics) starts with a `self` receiver.
fn has_receiver(rest: &str) -> bool {
    let Some(params) = skip_generics(rest).strip_prefix('(') else {
        return false;
    };
    let mut first = params.trim_start().trim_start_matches('&');
    if let Some(lifetime) = first.strip_prefix('\'') {
        first = lifetime.trim_start_matches(|c: char| c.is_alphanumeric() || c == '_');
    }
    let first = first.trim_start();
    let first = first.strip_prefix("mut ").unwrap_or(first).trim_start();
    first.starts_with("self") && !first[4..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
}

/// What the census has read: the public functions declared and the
/// names used.
#[derive(Default)]
struct Census {
    /// Each public function's name, and for an associated function
    /// with no `self` receiver, the type whose path alone can call it.
    declared: BTreeSet<(String, Option<String>)>,
    /// Names used as a call or a path segment.
    used: BTreeSet<String>,
    /// Names used after `Type::` (an upper-case segment), as (`Type`,
    /// name); `Self::` and `>::`, which may name any type, as `Self`.
    type_pathed: BTreeSet<(String, String)>,
}

impl Census {
    /// Record the functions declared `pub fn` or `pub const fn` in `text`.
    fn declare(&mut self, text: &str) {
        for_each_line(text, |at, line, items| {
            let bytes = line.as_bytes();
            for prefix in ["pub fn ", "pub const fn "] {
                let mut from = 0;
                while let Some(off) = line[from..].find(prefix) {
                    let start = from + off;
                    from = start + prefix.len();
                    if start == 0 || !is_ident(bytes[start - 1]) {
                        let name = ident_at(bytes, from);
                        let rest = &text[at + from + name.len()..];
                        let only_via = match items.last() {
                            Some(Item::Impl(ty)) if !has_receiver(rest) => Some(ty.clone()),
                            _ => None,
                        };
                        self.declared.insert((name.to_owned(), only_via));
                    }
                }
            }
        });
    }

    /// Record every identifier in `text` used as a call or a path
    /// segment, outside a function of its own name.
    fn read_uses(&mut self, text: &str) {
        for_each_line(text, |_, line, items| {
            let bytes = line.as_bytes();
            let mut i = 0;
            while i < bytes.len() {
                if !is_ident(bytes[i]) || (i > 0 && is_ident(bytes[i - 1])) {
                    i += 1;
                    continue;
                }
                let name = ident_at(bytes, i);
                let end = i + name.len();
                let rest = &bytes[end..];
                let called = rest.starts_with(b"(") || rest.starts_with(b"::<");
                let pathed = i >= 2 && &bytes[i - 2..i] == b"::";
                let inside_own = items.contains(&Item::Fn(name.to_owned()));
                if (called || pathed) && !after_fn_keyword(bytes, i) && !inside_own {
                    self.used.insert(name.to_owned());
                    let before = &line[..i - 2 * usize::from(pathed)];
                    let segment = before
                        .rsplit(|c: char| !(c.is_alphanumeric() || c == '_'))
                        .next()
                        .unwrap_or("");
                    let ty = if before.ends_with('>') {
                        "Self"
                    } else {
                        segment
                    };
                    if pathed && ty.starts_with(|c: char| c.is_ascii_uppercase()) {
                        self.type_pathed.insert((ty.to_owned(), name.to_owned()));
                    }
                }
                i = end;
            }
        });
    }

    /// Public function names with no use that can reach them.
    fn unused(&self) -> BTreeSet<String> {
        self.declared
            .iter()
            .filter(|(name, only_via)| match only_via {
                None => !self.used.contains(name),
                Some(ty) => [ty.as_str(), "Self"]
                    .iter()
                    .all(|&via| !self.type_pathed.contains(&(via.to_owned(), name.clone()))),
            })
            .map(|(name, _)| name.clone())
            .collect()
    }
}

/// Public function names with no use outside the tests.
fn unused_public_fns(root: &Path) -> BTreeSet<String> {
    let mut library = Vec::new();
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path().join("src"))
        .collect();
    crates.sort();
    for src in &crates {
        rust_files(src, &mut library);
    }
    let mut callers = Vec::new();
    for dir in ["src", "examples", "perfbench/src"] {
        rust_files(&root.join(dir), &mut callers);
    }

    let mut census = Census::default();
    for path in &library {
        let text = non_test_text(path);
        census.declare(&text);
        census.read_uses(&text);
    }
    for path in &callers {
        census.read_uses(&strip_comments(&fs::read_to_string(path).unwrap()));
    }
    census.unused()
}

#[test]
fn every_public_function_has_a_non_test_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let allowed: BTreeSet<String> = ALLOWED.iter().map(|(n, _)| (*n).to_owned()).collect();
    let unused = unused_public_fns(root);
    let flagged: Vec<&String> = unused.difference(&allowed).collect();
    assert!(
        flagged.is_empty(),
        "{} public functions have no caller outside the tests; delete them, \
         narrow them, or allowlist them with a reason: {flagged:?}",
        flagged.len()
    );
    // An allowlist entry that gained a caller (or lost its function) is
    // stale: drop it so that the list stays the set of exceptions.
    let stale: Vec<&String> = allowed.difference(&unused).collect();
    assert!(stale.is_empty(), "stale allowlist entries: {stale:?}");
}

/// The census of one library text and no other callers.
fn census_of(text: &str) -> Census {
    let mut census = Census::default();
    census.declare(text);
    census.read_uses(text);
    census
}

fn names(list: &[&str]) -> BTreeSet<String> {
    list.iter().map(|&n| n.to_owned()).collect()
}

#[test]
fn the_census_sees_calls_paths_and_turbofish_but_not_declarations() {
    let census = census_of(
        "pub fn a() {}\npub const fn b() {}\npub(crate) fn c() {}\nfn d() {}\nnopub fn e() {}",
    );
    let declared: BTreeSet<String> = census.declared.into_iter().map(|(n, _)| n).collect();
    assert_eq!(declared, names(&["a", "b"]));

    let census = census_of("fn a() {} x.b(); T::c; d::<u8>(); fn  e(); ef(); y.g");
    assert_eq!(census.used, names(&["b", "c", "d", "ef"]));
    assert_eq!(strip_comments("a(); // b()\n/// c()\nd"), "a(); \n\nd");
}

#[test]
fn an_associated_function_without_a_receiver_needs_a_type_path() {
    let census = census_of(
        "impl T {\n    pub fn make() -> T {\n        T\n    }\n\n    \
         pub fn build<U: Fn() -> u8>(\n        u: U,\n    ) -> T {\n        T\n    }\n\n    \
         pub fn get(&'a mut self) {}\n}\n\n\
         impl<X> V<X> {\n    pub fn make() -> Self {\n        Self::build(u)\n    }\n}\n\n\
         pub fn free() {}\n\n\
         fn caller() {\n    x.make();\n    V::make();\n    T::get(t);\n    m::free();\n}",
    );
    let via = |ty: &str| Some(ty.to_owned());
    let declared = BTreeSet::from([
        ("build".to_owned(), via("T")),
        ("free".to_owned(), None),
        ("get".to_owned(), None),
        ("make".to_owned(), via("T")),
        ("make".to_owned(), via("V")),
    ]);
    assert_eq!(census.declared, declared);
    // Neither a method call nor `V::make` reaches `T::make`; `Self::`
    // reaches `build`, and a module path reaches `free`.
    assert_eq!(census.unused(), names(&["make"]));
}

#[test]
fn a_use_inside_a_function_of_the_same_name_does_not_count() {
    let census = census_of(
        "impl A {\n    pub fn lengths(&self) -> u8 {\n        self.b.lengths()\n    }\n\n    pub fn size(&self) -> u8 {\n        self.b.size()\n    }\n}\n\nfn user(a: &A) -> u8 {\n    a.size()\n}",
    );
    assert_eq!(census.unused(), names(&["lengths"]));
}
