//! The scoped allowlist config (`orco-lint.toml` at the workspace root).
//!
//! The format is a deliberately tiny TOML subset — `[rule-name]` sections
//! holding `key = [ "value", ... ]` entries — parsed by hand so the lint
//! crate stays std-only. Recognized keys:
//!
//! * `scope` — path prefixes the rule applies to (empty = everywhere);
//! * `allow` — path prefixes the rule skips (the scoped allowlist);
//! * `require-region` — files that must contain at least one of the
//!   rule's regions, so deleting the markers is itself a violation;
//! * `severity` — `deny` (default) or `warn`.
//!
//! Unknown sections and keys are **hard errors**: a typo'd allowlist
//! entry must fail the build, not silently allow nothing.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// How a rule's findings count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the lint run.
    Deny,
    /// Reported, but only fails under `--deny-all`.
    Warn,
}

/// Per-rule configuration.
#[derive(Debug, Clone, Default)]
pub struct RuleCfg {
    /// Path prefixes the rule applies to; empty means the whole tree.
    pub scope: Vec<String>,
    /// Path prefixes the rule skips.
    pub allow: Vec<String>,
    /// Files that must contain at least one of the rule's regions.
    pub require_region: Vec<String>,
    /// Severity override (None = the rule's default, Deny).
    pub severity: Option<Severity>,
}

impl RuleCfg {
    /// Whether `rel` is inside the rule's scope and not allowlisted.
    #[must_use]
    pub fn applies_to(&self, rel: &str) -> bool {
        let scoped = self.scope.is_empty() || self.scope.iter().any(|p| rel.starts_with(p));
        scoped && !self.allow.iter().any(|p| rel.starts_with(p))
    }
}

/// The whole config: one [`RuleCfg`] per rule name.
#[derive(Debug, Clone, Default)]
pub struct Config {
    rules: BTreeMap<String, RuleCfg>,
}

/// A config parse failure with its 1-based line.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line of the offending entry.
    pub line: usize,
    /// What is wrong.
    pub msg: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "orco-lint.toml:{}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// The configuration for `rule` (default-empty if absent).
    #[must_use]
    pub fn rule(&self, rule: &str) -> RuleCfg {
        self.rules.get(rule).cloned().unwrap_or_default()
    }

    /// Loads the config file at `path`; a missing file is an empty
    /// config (every rule at its defaults, no allowlists).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on malformed entries, unknown sections, or
    /// unknown keys; I/O failures are folded in as line-0 errors.
    pub fn load(path: &Path, known_rules: &[&str]) -> Result<Self, ConfigError> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::parse(&text, known_rules),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::default()),
            Err(e) => Err(ConfigError { line: 0, msg: format!("cannot read config: {e}") }),
        }
    }

    /// Parses config text.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on malformed entries, unknown sections, or
    /// unknown keys.
    pub fn parse(text: &str, known_rules: &[&str]) -> Result<Self, ConfigError> {
        let mut rules: BTreeMap<String, RuleCfg> = BTreeMap::new();
        let mut current: Option<String> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let l = raw.trim();
            if l.is_empty() || l.starts_with('#') {
                continue;
            }
            if let Some(section) = l.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                let section = section.trim();
                if !known_rules.contains(&section) {
                    return Err(ConfigError {
                        line,
                        msg: format!("unknown rule section `[{section}]`"),
                    });
                }
                rules.entry(section.to_string()).or_default();
                current = Some(section.to_string());
                continue;
            }
            let Some((key, value)) = l.split_once('=') else {
                return Err(ConfigError { line, msg: format!("expected `key = ...`, got `{l}`") });
            };
            let Some(rule) = &current else {
                return Err(ConfigError {
                    line,
                    msg: "entry outside any [rule] section".to_string(),
                });
            };
            let key = key.trim();
            let values = parse_values(value);
            let cfg = rules.get_mut(rule).expect("section inserted on entry");
            match key {
                "scope" => cfg.scope = values,
                "allow" => cfg.allow = values,
                "require-region" => cfg.require_region = values,
                "severity" => {
                    cfg.severity = Some(match values.first().map(String::as_str) {
                        Some("deny") => Severity::Deny,
                        Some("warn") => Severity::Warn,
                        other => {
                            return Err(ConfigError {
                                line,
                                msg: format!("severity must be deny or warn, got {other:?}"),
                            })
                        }
                    });
                }
                other => {
                    return Err(ConfigError {
                        line,
                        msg: format!("unknown key `{other}` in [{rule}]"),
                    })
                }
            }
        }
        Ok(Self { rules })
    }
}

/// Parses `[ "a", "b" ]` or a bare comma-separated list into values.
fn parse_values(raw: &str) -> Vec<String> {
    raw.trim()
        .trim_start_matches('[')
        .trim_end_matches(']')
        .split(',')
        .map(|v| v.trim().trim_matches('"').trim().to_string())
        .filter(|v| !v.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULES: &[&str] = &["wall-clock", "unordered-map", "no-alloc"];

    #[test]
    fn parses_sections_scopes_and_allowlists() {
        let cfg = Config::parse(
            "# comment\n[wall-clock]\nallow = [\"crates/serve/src/clock.rs\"]\n\n\
             [unordered-map]\nscope = [\"crates/wsn/\", \"crates/sim/\"]\nseverity = warn\n",
            RULES,
        )
        .expect("valid config");
        let wc = cfg.rule("wall-clock");
        assert!(wc.applies_to("crates/wsn/src/network.rs"));
        assert!(!wc.applies_to("crates/serve/src/clock.rs"));
        let um = cfg.rule("unordered-map");
        assert!(um.applies_to("crates/wsn/src/tree.rs"));
        assert!(!um.applies_to("crates/fleet/src/client.rs"));
        assert_eq!(um.severity, Some(Severity::Warn));
        // Absent rule: default-empty, applies everywhere.
        assert!(cfg.rule("no-alloc").applies_to("anything.rs"));
    }

    #[test]
    fn unknown_section_and_key_are_errors() {
        assert!(Config::parse("[wall-cluck]\n", RULES).is_err());
        assert!(Config::parse("[wall-clock]\nallwo = [\"x\"]\n", RULES).is_err());
        assert!(Config::parse("allow = [\"x\"]\n", RULES).is_err());
        assert!(Config::parse("[wall-clock]\nseverity = loud\n", RULES).is_err());
    }
}
