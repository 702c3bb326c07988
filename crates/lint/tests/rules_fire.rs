//! Every rule fires on its bad fixture and stays silent on the fixed
//! twin. Fixtures live in `tests/fixtures/`, a directory the workspace
//! walker deliberately skips, so the real lint run never sees them —
//! they exist purely to pin each rule's firing behavior end to end
//! (lexer → source model → rule → engine → report).

use orco_lint::config::Config;
use orco_lint::engine::{Engine, Report};
use orco_lint::rules::known_rule_names;
use orco_lint::source::SourceFile;

/// Runs the full engine (all rules) over in-memory files under `config`.
fn run(files: &[(&str, &str)], config: &str) -> Report {
    let names = known_rule_names();
    let config = Config::parse(config, &names).expect("fixture config parses");
    let files: Vec<SourceFile> =
        files.iter().map(|(rel, src)| SourceFile::parse(rel, src, &names)).collect();
    Engine::new(config).run(&files)
}

fn rules_hit(report: &Report) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.violation.rule).collect()
}

/// Asserts the bad fixture trips `rule` and the ok twin trips nothing.
fn assert_twin(rule: &str, rel: &str, bad: &str, ok: &str, config: &str) {
    let bad = run(&[(rel, bad)], config);
    assert!(
        rules_hit(&bad).contains(&rule),
        "`{rule}` should fire on its bad fixture; findings: {:?}",
        bad.findings
    );
    let ok = run(&[(rel, ok)], config);
    assert!(
        ok.findings.is_empty(),
        "the fixed twin for `{rule}` should be clean; findings: {:?}",
        ok.findings
    );
}

#[test]
fn wall_clock_twin() {
    assert_twin(
        "wall-clock",
        "crates/serve/src/latency.rs",
        include_str!("fixtures/wall_clock_bad.rs"),
        include_str!("fixtures/wall_clock_ok.rs"),
        "",
    );
}

#[test]
fn wall_clock_is_silent_in_bin_targets() {
    // Binaries and benches talk to the real world; the rule's built-in
    // skip must keep them out of scope without any config.
    let report =
        run(&[("crates/fleet/src/bin/loadgen.rs", include_str!("fixtures/wall_clock_bad.rs"))], "");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn unordered_map_twin() {
    assert_twin(
        "unordered-map",
        "crates/wsn/src/accounting.rs",
        include_str!("fixtures/unordered_map_bad.rs"),
        include_str!("fixtures/unordered_map_ok.rs"),
        "[unordered-map]\nscope = [\"crates/wsn/\"]\n",
    );
}

#[test]
fn unordered_map_is_silent_outside_scope() {
    // The same hash map in a crate that never feeds accounting or wire
    // output is fine — determinism scope is a config decision.
    let report = run(
        &[("crates/datasets/src/cache.rs", include_str!("fixtures/unordered_map_bad.rs"))],
        "[unordered-map]\nscope = [\"crates/wsn/\"]\n",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn panic_free_decode_twin() {
    assert_twin(
        "panic-free-decode",
        "crates/serve/src/frame_decode.rs",
        include_str!("fixtures/panic_free_bad.rs"),
        include_str!("fixtures/panic_free_ok.rs"),
        "",
    );
}

#[test]
fn no_alloc_twin() {
    assert_twin(
        "no-alloc",
        "crates/nn/src/dense.rs",
        include_str!("fixtures/no_alloc_bad.rs"),
        include_str!("fixtures/no_alloc_ok.rs"),
        "",
    );
}

#[test]
fn atomics_justified_twin() {
    assert_twin(
        "atomics-justified",
        "crates/obs/src/metrics.rs",
        include_str!("fixtures/atomics_bad.rs"),
        include_str!("fixtures/atomics_ok.rs"),
        "",
    );
}

#[test]
fn waiver_with_reason_silences_a_bad_fixture() {
    // The waiver workflow end to end: the same violation that fires
    // above goes quiet under a reasoned allow directive, and the waiver
    // itself is counted as used.
    let src = "// orco-lint: allow(wall-clock, reason = \"fixture exercises the waiver path\")\n\
               let t = Instant::now();\n";
    let report = run(&[("crates/serve/src/latency.rs", src)], "");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(report.unused_waivers.is_empty(), "{:?}", report.unused_waivers);
}

#[test]
fn require_region_makes_marker_deletion_a_violation() {
    // Deleting the region markers from a pinned file must not silently
    // drop coverage: the config demands the marker itself.
    let stripped: String = include_str!("fixtures/panic_free_bad.rs")
        .lines()
        .filter(|l| !l.contains("orco-lint:"))
        .collect::<Vec<_>>()
        .join("\n");
    let report = run(
        &[("crates/serve/src/frame_decode.rs", &stripped)],
        "[panic-free-decode]\nrequire-region = [\"crates/serve/src/frame_decode.rs\"]\n",
    );
    let hits = rules_hit(&report);
    assert!(hits.contains(&"panic-free-decode"), "{:?}", report.findings);
}
