//! The workspace's invariant checker (`orco-lint`).
//!
//! The repo's correctness story rests on a handful of contracts that
//! rustc cannot see — determinism (no wall-clock reads outside `Clock`,
//! no hash-ordered iteration feeding observable bytes), wire safety (no
//! panics on hostile input), and hot-path discipline (no allocation in
//! flush/encode kernels, no unjustified atomic orderings). Each of those
//! contracts has already been the site of a real bug or a real review
//! argument; this crate turns them into machine-enforced rules.
//!
//! Mechanically, the checker lexes every workspace `.rs` file into a
//! token stream ([`lexer`]), so rules match code — never strings or
//! comments. Rules ([`rules`]) are scoped by a root config
//! (`orco-lint.toml`, [`config`]) and can be waived inline with a
//! written reason:
//!
//! ```text
//! // orco-lint: allow(unordered-map, reason = "test-local set, never iterated")
//! ```
//!
//! Region-scoped rules read named markers:
//!
//! ```text
//! // orco-lint: region(no-alloc)
//! ...hot path...
//! // orco-lint: endregion
//! ```
//!
//! Run it with `cargo run -p orco-lint` (CI adds `--deny-all`). The rule
//! catalog, with the reasoning behind each rule, is in
//! `crates/lint/RULES.md`.

pub mod config;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod workspace;

pub use config::{Config, ConfigError, RuleCfg, Severity};
pub use engine::{Engine, Finding, Report, UnusedWaiver};
pub use rules::{all_rules, known_rule_names, Rule, Violation};
pub use source::SourceFile;
pub use workspace::collect_sources;
