//! Rule `no-alloc`: inside `// orco-lint: region(no-alloc)` markers,
//! nothing may allocate.
//!
//! The marked regions are the serving hot paths — shard flush and the
//! batch-encode kernels — whose throughput numbers assume buffers are
//! reused, not reallocated per call. Inside a `no-alloc` region this
//! rule forbids the common allocating constructs:
//!
//! * `Vec::new` / `Vec::with_capacity` / `String::new` / `String::from`
//!   / `Box::new`;
//! * `.to_vec()` / `.to_owned()` / `.to_string()` / `.collect()` /
//!   `.clone()`;
//! * `format!` / `vec!`.
//!
//! The fix is almost always "take an `&mut` scratch buffer from the
//! caller" — the pattern `encode_batch_into`/`Layer::forward_into` already use.
//! The `require-region` config key pins the markers to the named files
//! so deleting them is itself a violation.

use super::{seq_at, Rule, Violation};
use crate::config::RuleCfg;
use crate::lexer::TokKind;
use crate::source::SourceFile;

/// Region name this rule inspects.
pub const REGION: &str = "no-alloc";

/// `Type::method` constructors that allocate.
const PATH_CALLS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("String", "new"),
    ("String", "from"),
    ("Box", "new"),
];

/// `.method()` calls that allocate.
const METHOD_CALLS: &[&str] = &["to_vec", "to_owned", "to_string", "collect", "clone"];

/// Macros that allocate.
const MACROS: &[&str] = &["format", "vec"];

/// See the module docs.
pub struct NoAlloc;

impl Rule for NoAlloc {
    fn name(&self) -> &'static str {
        "no-alloc"
    }

    fn describe(&self) -> &'static str {
        "no allocating constructs inside region(no-alloc) markers (hot paths reuse buffers)"
    }

    fn check_file(&self, file: &SourceFile, cfg: &RuleCfg, out: &mut Vec<Violation>) {
        if !cfg.applies_to(&file.rel) {
            return;
        }
        let regions: Vec<_> = file.regions_named(REGION).collect();
        if regions.is_empty() {
            return;
        }
        for (i, t) in file.toks.iter().enumerate() {
            if t.kind != TokKind::Ident || !regions.iter().any(|r| r.contains(t.line)) {
                continue;
            }
            let offense = if let Some((ty, method)) =
                PATH_CALLS.iter().find(|(ty, m)| seq_at(&file.toks, i, &[ty, "::", m]))
            {
                Some(format!("`{ty}::{method}` allocates"))
            } else if METHOD_CALLS.contains(&t.text.as_str())
                && i > 0
                && file.toks[i - 1].is_punct(".")
            {
                Some(format!("`.{}()` allocates", t.text))
            } else if MACROS.contains(&t.text.as_str())
                && file.toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            {
                Some(format!("`{}!` allocates", t.text))
            } else {
                None
            };
            if let Some(what) = offense {
                out.push(Violation {
                    rule: self.name(),
                    rel: file.rel.clone(),
                    line: t.line,
                    msg: format!(
                        "{what} inside a `no-alloc` region; this hot path must reuse \
                         caller-provided buffers (see the `*_into` kernels for the pattern)"
                    ),
                });
            }
        }
    }

    fn check_workspace(&self, files: &[SourceFile], cfg: &RuleCfg, out: &mut Vec<Violation>) {
        for required in &cfg.require_region {
            let present = files
                .iter()
                .find(|f| &f.rel == required)
                .is_some_and(|f| f.regions_named(REGION).next().is_some());
            if !present {
                out.push(Violation {
                    rule: self.name(),
                    rel: required.clone(),
                    line: 1,
                    msg: format!(
                        "config requires a `region({REGION})` marker in this file and none is \
                         present; the hot path has lost its allocation-free coverage"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::known_rule_names;

    fn check(src: &str) -> Vec<Violation> {
        let names = known_rule_names();
        let f = SourceFile::parse("p.rs", src, &names);
        let mut out = Vec::new();
        NoAlloc.check_file(&f, &RuleCfg::default(), &mut out);
        out
    }

    fn in_region(body: &str) -> String {
        format!("// orco-lint: region(no-alloc)\n{body}\n// orco-lint: endregion\n")
    }

    #[test]
    fn flags_constructors_methods_and_macros() {
        let v = check(&in_region(
            "let a = Vec::new();\nlet b = s.to_vec();\nlet c: Vec<_> = it.collect();\nlet d = format!(\"x\");\nlet e = vec![0; 4];\nlet f = x.clone();",
        ));
        assert_eq!(v.len(), 6, "{v:?}");
        assert!(v[0].msg.contains("Vec::new"));
        assert!(v[3].msg.contains("format!"));
    }

    #[test]
    fn silent_outside_region_and_on_reuse() {
        assert!(check("let a = Vec::new();\n").is_empty());
        let v = check(&in_region(
            "out.clear();\nout.extend_from_slice(&bytes);\nbuf.copy_from_slice(src);\nlet n = xs.iter().sum::<f32>();",
        ));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn clone_as_field_name_is_not_flagged() {
        // `cfg.clone` without a call is field access syntax here; only
        // `.clone` preceded by a dot counts, which this still is — but a
        // bare `clone` ident (e.g. a local named clone) must not fire.
        assert!(check(&in_region("let clone = 3; let y = clone + 1;")).is_empty());
    }
}
