//! Regression suite for the chaos gauntlet: every scenario upholds the
//! exactly-once and liveness contracts under its scripted impairments,
//! runs are deterministic (same seed → bit-identical stats frame and
//! decoded digest), and a recorded run replays bit-identically from its
//! [`RunLog`] tape — the workflow a failing CI run hands you.

use orco_serve::{replay_scenario, run_scenario, RunLog, GAUNTLET};

const SEED: u64 = 0xC4A05;

#[test]
fn every_scenario_upholds_its_contracts() {
    for &name in &GAUNTLET {
        let out = run_scenario(name, SEED, true)
            .unwrap_or_else(|e| panic!("{name}: gauntlet scenario failed: {e}"));
        assert_eq!(out.name, name);
        let expected = out.clients * out.frames_per_client;
        assert_eq!(out.acked_rows, expected, "{name}: not every frame was acked");
        assert_eq!(
            out.delivered_rows, out.acked_rows,
            "{name}: exactly-once violated (delivered != acked)"
        );
        assert!(!out.trace.is_empty(), "{name}: impairment layer saw no sends");
    }
}

#[test]
fn flash_crowd_exercises_backpressure() {
    let out = run_scenario("flash_crowd", SEED, true).expect("runs");
    assert!(out.busy_retries > 0, "flash_crowd never tripped Busy backpressure");
}

#[test]
fn mass_reconnect_exercises_session_resumption() {
    let out = run_scenario("mass_reconnect", SEED, true).expect("runs");
    assert!(out.gave_ups >= 1, "mass_reconnect: no request ever exhausted its ARQ");
    assert!(out.reconnects >= 1, "mass_reconnect: no session was ever resumed");
    assert_eq!(out.delivered_rows, out.acked_rows, "resumption broke exactly-once");
}

/// Same name + seed + sizing twice → the wire-level stats frame, the
/// decoded-output digest, and the impairment tape are all bit-identical.
#[test]
fn runs_are_deterministic() {
    for &name in &GAUNTLET {
        let a = run_scenario(name, SEED, true).expect("first run");
        let b = run_scenario(name, SEED, true).expect("second run");
        assert_eq!(a.stats_frames, b.stats_frames, "{name}: stats frames diverged across runs");
        assert_eq!(a.decoded_fnv, b.decoded_fnv, "{name}: decoded bytes diverged across runs");
        assert_eq!(a.trace, b.trace, "{name}: impairment tapes diverged across runs");
        assert!(
            a.trace_export.starts_with("orco-trace v1"),
            "{name}: trace export missing its header"
        );
        assert_eq!(a.trace_export, b.trace_export, "{name}: trace exports diverged across runs");
    }
}

/// A recorded run replays bit-identically through the text round-trip —
/// the exact artifact-to-repro path CI failures use.
#[test]
fn recorded_runs_replay_bit_identically() {
    for &name in &GAUNTLET {
        let live = run_scenario(name, SEED, true).expect("live run");
        let log = live.tape(true);

        let text = log.to_text();
        let parsed = RunLog::from_text(&text)
            .unwrap_or_else(|e| panic!("{name}: runlog text did not parse: {e}"));
        assert_eq!(parsed, log, "{name}: runlog text round-trip lost information");

        let replayed = replay_scenario(&parsed)
            .unwrap_or_else(|e| panic!("{name}: replay violated a contract: {e}"));
        // Stats frame, decoded digest, trace export, tape, every counter.
        assert_eq!(replayed, live, "{name}: replay did not reproduce the live run bit-for-bit");
    }
}

/// A different seed draws a different impairment schedule (the scenarios
/// are genuinely randomized, not fixed scripts wearing a seed).
#[test]
fn seeds_matter() {
    let a = run_scenario("lossy_links", SEED, true).expect("seed A");
    let b = run_scenario("lossy_links", SEED ^ 0x5A5A_5A5A, true).expect("seed B");
    assert_ne!(a.trace, b.trace, "lossy_links ignored its seed");
}

#[test]
fn unknown_scenarios_are_rejected() {
    let err = run_scenario("no_such_storm", SEED, true).expect_err("must reject");
    assert!(err.to_string().contains("no_such_storm"), "error should name the scenario: {err}");
}
