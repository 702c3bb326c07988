//! The rule set. Each rule is a struct implementing [`Rule`]; the
//! engine runs every rule over every file (per-file rules) or over the
//! whole file set at once (workspace checks like `require-region`).
//!
//! The catalog — what each rule enforces and why — lives in
//! `crates/lint/RULES.md`; the module docs here cover mechanics only.

use crate::config::RuleCfg;
use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;

mod atomics;
mod no_alloc;
mod panic_free_decode;
mod unordered_map;
mod wall_clock;

pub use atomics::AtomicsJustified;
pub use no_alloc::NoAlloc;
pub use panic_free_decode::PanicFreeDecode;
pub use unordered_map::UnorderedMap;
pub use wall_clock::WallClock;

/// Rule name for malformed directives (reported by the engine itself).
pub const DIRECTIVE_RULE: &str = "lint-directive";

/// One finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule that fired.
    pub rule: &'static str,
    /// `/`-separated path relative to the workspace root.
    pub rel: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the defect.
    pub msg: String,
}

/// A lint rule.
pub trait Rule {
    /// Stable kebab-case rule name (waivers and config refer to it).
    fn name(&self) -> &'static str;

    /// One-line description for `--list-rules`.
    fn describe(&self) -> &'static str;

    /// Per-file check. Scope/allow filtering is the rule's own job (via
    /// [`RuleCfg::applies_to`]) so rules with built-in path exemptions
    /// can compose them.
    fn check_file(&self, _file: &SourceFile, _cfg: &RuleCfg, _out: &mut Vec<Violation>) {}

    /// Whole-workspace check, for rules that correlate multiple files.
    fn check_workspace(&self, _files: &[SourceFile], _cfg: &RuleCfg, _out: &mut Vec<Violation>) {}
}

/// Every shipped rule, in reporting order.
#[must_use]
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(WallClock),
        Box::new(UnorderedMap),
        Box::new(PanicFreeDecode),
        Box::new(NoAlloc),
        Box::new(AtomicsJustified),
    ]
}

/// The names of every shipped rule plus the engine's directive rule —
/// the set waivers and config sections are validated against.
#[must_use]
pub fn known_rule_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = all_rules().iter().map(|r| r.name()).collect();
    names.push(DIRECTIVE_RULE);
    names
}

/// Whether `toks[i..]` starts with the identifier/punct sequence `pat`
/// (identifiers matched by text, `::`/`=>`/single chars by punct text).
pub(crate) fn seq_at(toks: &[Tok], i: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(k, want)| {
        toks.get(i + k).is_some_and(|t| match t.kind {
            TokKind::Ident | TokKind::Num => t.text == *want,
            TokKind::Punct => t.text == *want,
            _ => false,
        })
    })
}
