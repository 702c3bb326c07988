//! Every `pub fn` in the library crates has a caller that ships, or a row
//! in [`ALLOWED`] that says why it stays without one.
//!
//! rustc's `dead_code` lint counts a test's call as a use, so a public
//! function that only tests call is invisible to it. This census reads the
//! sources instead. It collects each `pub fn` defined in `crates/*/src`
//! before the file's `#[cfg(test)]` tail, and looks for a call to it in the
//! code that ships: `crates/*/src`, `src/` and `examples/`, each file up to
//! its `#[cfg(test)]` tail, comment lines skipped. `tests/` and `benches/`
//! are not read. Functions defined in the benchmark's own sources
//! (`crates/bench/src/bin/benchmark/`) are not counted, but its calls are.
//!
//! A failure names the function. Delete it (rewriting its tests on API
//! that ships), give it a shipped caller, or add an [`ALLOWED`] row with
//! the reason. An [`ALLOWED`] row whose function gained a shipped caller,
//! or no longer exists, fails too, so the list cannot rot.
//!
//! The census reads names, not types. Its limits:
//! - a name defined as `pub fn` more than once (two types, two crates) is
//!   skipped, since its calls cannot be told apart by name;
//! - a call is the name followed by `(` or `::<`, or preceded by `.` or
//!   `::`; a call written inside a string literal is counted as one;
//! - a caller is not traced further up. A function whose only caller is
//!   itself test-only passes until that caller goes; the chains
//!   `Matrix::ones` → `filled`, `rollout_staged` → `rollout_one` and
//!   `distribute_encoder` → `EncoderColumns::*` were found by hand.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Public functions that stay without a shipped caller, each with its
/// reason.
const ALLOWED: &[(&str, &str)] = &[
    (
        "max_abs_diff",
        "the shared test comparison (`a.max_abs_diff(&b) <= tol`); CI's fold-miscompile \
         comment names it. Moves to a dev-only support crate with the benchmark's counting \
         allocator (ROADMAP 21(b)).",
    ),
    (
        "check_layer",
        "`orco_nn::gradcheck`: test support by design, the finite-difference check every \
         layer's tests call. Moves with `max_abs_diff` (ROADMAP 21(b)).",
    ),
    ("gate_check", "the shard gate's test hook; ROADMAP item 7 deletes it with the sweep and `ShardGate`."),
    ("advance_clock", "drives the gate sweep in tests; ROADMAP item 7 deletes it with `gate_check`."),
    ("check_invariants", "`AggregationTree`'s reference check, which the property tests run."),
    ("latest", "`CheckpointStore`'s recovery read: a store kept to recover from a fault is read on recovery."),
    ("rollout_one", "the quickstart of `orco_rollout`'s crate doc: one gateway, stage then activate."),
];

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// The benchmark's own sources: calls count, definitions do not.
const BENCHMARK: &str = "crates/bench/src/bin/benchmark";

/// Every `.rs` file under `dir`, skipping build output (`target/`).
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// A file's lines up to its `#[cfg(test)]` tail, numbered from 1, comment
/// lines dropped.
fn shipped_lines(path: &Path) -> Vec<(usize, String)> {
    let text = fs::read_to_string(path).expect("readable source");
    text.lines()
        .take_while(|l| l.trim() != "#[cfg(test)]")
        .enumerate()
        .filter(|(_, l)| !l.trim_start().starts_with("//"))
        .map(|(i, l)| (i + 1, l.to_owned()))
        .collect()
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Each identifier in `line` with the text before and after it.
fn identifiers(line: &str) -> impl Iterator<Item = (&str, &str, &str)> {
    let mut rest = line.char_indices().peekable();
    std::iter::from_fn(move || loop {
        let (start, c) = rest.next()?;
        if !(c.is_ascii_alphabetic() || c == '_') || line[..start].ends_with(is_ident) {
            continue;
        }
        let mut end = start + c.len_utf8();
        while let Some(&(i, c)) = rest.peek() {
            if !is_ident(c) {
                break;
            }
            end = i + c.len_utf8();
            rest.next();
        }
        return Some((&line[..start], &line[start..end], &line[end..]));
    })
}

/// The name a `pub fn` definition on `line` introduces, if any.
fn defined_pub_fn(line: &str) -> Option<&str> {
    let mut words = line.split_whitespace();
    words.by_ref().find(|w| *w == "pub")?;
    let next = words.find(|w| !matches!(*w, "const" | "unsafe"))?;
    if next != "fn" {
        return None;
    }
    let name = words.next()?.split(|c: char| !is_ident(c)).next()?;
    name.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_').then_some(name)
}

/// Names called in `line`: followed by `(` or `::<`, or preceded by `.` or
/// `::`, and not the name a `fn` item defines.
fn called_names(line: &str, out: &mut BTreeSet<String>) {
    for (before, name, after) in identifiers(line) {
        let after = after.trim_start();
        let defines = before.trim_end().strip_suffix("fn").is_some_and(|b| !b.ends_with(is_ident));
        let call = before.ends_with('.')
            || before.ends_with("::")
            || after.starts_with('(')
            || after.starts_with("::<");
        if call && !defines {
            out.insert(name.to_owned());
        }
    }
}

struct Census {
    /// Each `pub fn` name defined exactly once, with where.
    unique: BTreeMap<String, String>,
    /// Every name called from shipped code.
    called: BTreeSet<String>,
}

fn census() -> Census {
    let root = Path::new(ROOT);
    let mut crate_files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        rust_files(&krate.expect("readable crate entry").path().join("src"), &mut crate_files);
    }
    let mut shipped = crate_files.clone();
    rust_files(&root.join("src"), &mut shipped);
    rust_files(&root.join("examples"), &mut shipped);

    let mut defined: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for path in &crate_files {
        let rel = path.strip_prefix(root).expect("under the root");
        if rel.starts_with(BENCHMARK) {
            continue;
        }
        for (number, line) in shipped_lines(path) {
            if let Some(name) = defined_pub_fn(&line) {
                let at = format!("{}:{number}", rel.display());
                defined.entry(name.to_owned()).or_default().push(at);
            }
        }
    }
    let unique = defined
        .into_iter()
        .filter_map(|(name, mut at)| (at.len() == 1).then(|| (name, at.remove(0))))
        .collect();

    let mut called = BTreeSet::new();
    for path in &shipped {
        for (_, line) in shipped_lines(path) {
            called_names(&line, &mut called);
        }
    }
    Census { unique, called }
}

#[test]
fn every_pub_fn_has_a_shipped_caller_or_an_allowlisted_reason() {
    let Census { unique, called } = census();
    assert!(
        unique.len() > 300,
        "the census found only {} pub fns: is it reading the sources?",
        unique.len()
    );
    let allowed: BTreeSet<&str> = ALLOWED.iter().map(|(name, _)| *name).collect();
    let test_only: Vec<&String> = unique
        .iter()
        .filter(|(name, _)| !called.contains(*name) && !allowed.contains(name.as_str()))
        .map(|(_, at)| at)
        .collect();
    let stale: Vec<&str> = allowed
        .iter()
        .copied()
        .filter(|name| !unique.contains_key(*name) || called.contains(*name))
        .collect();
    assert!(
        test_only.is_empty() && stale.is_empty(),
        "pub fns only tests call (delete, ship a caller, or allowlist with a reason): \
         {test_only:?}; allowlist rows with a shipped caller or no such fn: {stale:?}"
    );
}

#[test]
fn the_census_tells_calls_from_definitions_and_text() {
    let mut called = BTreeSet::new();
    called_names("let a = m.max_abs_diff(&b); x.as_view(); Matrix::zeros::<>", &mut called);
    called_names("pub fn defined(x: f32) -> f32 { assert!(x > 0.0, \"ones\"); x }", &mut called);
    called_names("    fn also_defined() {} map(Matrix::from_fn)", &mut called);
    let want = ["as_view", "from_fn", "map", "max_abs_diff", "zeros"];
    assert_eq!(called, want.iter().map(|s| (*s).to_owned()).collect());
    assert_eq!(defined_pub_fn("    pub fn split(weight: &Matrix) -> Self {"), Some("split"));
    assert_eq!(defined_pub_fn("    pub const fn len(&self) -> usize {"), Some("len"));
    assert_eq!(defined_pub_fn("    pub(crate) fn hidden() {"), None);
    assert_eq!(defined_pub_fn("    pub fn $name(&self) {"), None);
}
