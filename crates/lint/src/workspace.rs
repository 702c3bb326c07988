//! Workspace discovery: every `.rs` file the rules should see.
//!
//! The walker starts at the workspace root and recurses, skipping:
//!
//! * `target/` and dot-directories — build products, VCS metadata;
//! * `shims/` — the vendored stand-in for a crates.io package
//!   (`proptest`); it emulates *external* code and carries external
//!   idioms. The clippy `disallowed-methods` backstop still covers it.
//! * any `tests/fixtures/` directory — the lint crate's own fixture
//!   files are known-bad on purpose.
//!
//! Files come back sorted by relative path so every run reports
//! violations in the same order.

use std::io;
use std::path::{Path, PathBuf};

use crate::source::SourceFile;

/// Collects and lexes every workspace source file under `root`.
///
/// # Errors
///
/// Returns any I/O error from walking or reading the tree.
pub fn collect_sources(root: &Path, known_rules: &[&str]) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for rel in paths {
        let text = std::fs::read_to_string(root.join(&rel))?;
        let rel = rel.to_string_lossy().replace('\\', "/");
        files.push(SourceFile::parse(&rel, &text, known_rules));
    }
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name == "target" || name == "shims" || name.starts_with('.') {
                continue;
            }
            if name == "fixtures" && dir.file_name().is_some_and(|d| d == "tests") {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lint crate lives two levels below the workspace root.
    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root")
    }

    #[test]
    fn walker_finds_the_workspace_and_skips_noise() {
        let files = collect_sources(&repo_root(), &[]).expect("walk workspace");
        assert!(files.len() > 50, "expected a large workspace, got {}", files.len());
        assert!(files.iter().any(|f| f.rel == "crates/serve/src/protocol.rs"));
        assert!(files.iter().all(|f| !f.rel.starts_with("target/")));
        assert!(files.iter().all(|f| !f.rel.starts_with("shims/")));
        assert!(files.iter().all(|f| !f.rel.contains("tests/fixtures/")));
        let mut rels: Vec<_> = files.iter().map(|f| f.rel.clone()).collect();
        let sorted = {
            let mut s = rels.clone();
            s.sort();
            s
        };
        assert_eq!(rels, sorted, "files must come back in sorted order");
        rels.dedup();
        assert_eq!(rels.len(), files.len());
    }
}
