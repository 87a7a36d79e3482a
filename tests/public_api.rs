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
//! name's own `fn NAME`. The census matches names, not paths, so a name
//! used on any type counts for every function of that name: it can miss
//! dead code, but it never flags a function that is called.

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

/// Names declared `pub fn` or `pub const fn` in `text`.
fn public_fns(text: &str, names: &mut BTreeSet<String>) {
    let bytes = text.as_bytes();
    for prefix in ["pub fn ", "pub const fn "] {
        let mut from = 0;
        while let Some(off) = text[from..].find(prefix) {
            let at = from + off;
            from = at + prefix.len();
            if at == 0 || !is_ident(bytes[at - 1]) {
                names.insert(ident_at(bytes, from).to_owned());
            }
        }
    }
}

/// Every identifier in `text` used as a call or a path segment.
fn uses(text: &str, used: &mut BTreeSet<String>) {
    let bytes = text.as_bytes();
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
        if (called || pathed) && !after_fn_keyword(bytes, i) {
            used.insert(name.to_owned());
        }
        i = end;
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

    let mut declared = BTreeSet::new();
    let mut used = BTreeSet::new();
    for path in &library {
        let text = non_test_text(path);
        public_fns(&text, &mut declared);
        uses(&text, &mut used);
    }
    for path in &callers {
        uses(
            &strip_comments(&fs::read_to_string(path).unwrap()),
            &mut used,
        );
    }
    declared.difference(&used).cloned().collect()
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

#[test]
fn the_census_sees_calls_paths_and_turbofish_but_not_declarations() {
    let mut declared = BTreeSet::new();
    public_fns(
        "pub fn a() {}\npub const fn b() {}\npub(crate) fn c() {}\nfn d() {}\nnopub fn e() {}",
        &mut declared,
    );
    assert_eq!(declared, BTreeSet::from(["a".into(), "b".into()]));

    let mut used = BTreeSet::new();
    uses(
        "fn a() {} x.b(); T::c; d::<u8>(); fn  e(); ef(); y.g",
        &mut used,
    );
    assert_eq!(
        used,
        BTreeSet::from(["b".into(), "c".into(), "d".into(), "ef".into()])
    );
    assert_eq!(strip_comments("a(); // b()\n/// c()\nd"), "a(); \n\nd");
}
