//! Every atomic memory ordering in library code carries a written reason:
//! a comment naming the variant (`Relaxed`, `Acquire`, …) on the line of
//! the `Ordering::` use or within the three lines above it. A bare
//! `Ordering::Relaxed` cannot be reviewed: a deliberate choice and a
//! latent data race read the same. Consecutive `//` lines are one comment,
//! so a reason anywhere in a block covers the code right below it.
//! `std::cmp::Ordering`'s `Less` / `Equal` / `Greater` share the type name,
//! not the hazard, and are not checked.

use std::path::{Path, PathBuf};

const VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// How many lines above a use its comment may start.
const LOOKBACK: usize = 3;

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `Ordering::<variant>` use in `text`: its line number, the
/// variant, and whether a comment naming the variant is on its line or
/// within `LOOKBACK` lines above.
fn orderings(text: &str) -> Vec<(usize, &'static str, bool)> {
    let lines: Vec<&str> = text.lines().collect();
    // Each line's comment, widened to the whole run of commented lines
    // it belongs to.
    let mut comment: Vec<String> =
        lines.iter().map(|l| l.find("//").map_or(String::new(), |i| l[i..].to_owned())).collect();
    let mut start = 0;
    while start < lines.len() {
        let end = (start..lines.len()).find(|&i| comment[i].is_empty()).unwrap_or(lines.len());
        let run = comment[start..end].concat();
        comment[start..end].fill(run);
        start = end + 1;
    }
    let mut found = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        for variant in VARIANTS.into_iter().filter(|v| line.contains(&format!("Ordering::{v}"))) {
            let justified =
                comment[i.saturating_sub(LOOKBACK)..=i].iter().any(|c| c.contains(variant));
            found.push((i + 1, variant, justified));
        }
    }
    found
}

#[test]
fn every_atomic_ordering_names_its_reason() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let src = krate.expect("readable dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let (mut uses, mut bare) = (0, Vec::new());
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable source file");
        for (line, variant, justified) in orderings(&text) {
            uses += 1;
            if !justified {
                let rel = path.strip_prefix(root).unwrap_or(path);
                bare.push(format!("{}:{line}: Ordering::{variant}", rel.display()));
            }
        }
    }
    assert!(uses >= 26, "the scan should see the workspace's atomics, saw {uses} uses");
    assert!(
        bare.is_empty(),
        "atomic orderings without a comment naming them:\n{}",
        bare.join("\n")
    );
}
