//! The fleet gauntlet as a test: the `fleet_kill` DES scenario (mid-run
//! gateway kill + late join over impaired links) must deliver every row
//! exactly once, be deterministic in its seed, and replay bit-identically
//! from its recorded log.

use orco_fleet::{replay_scenario, run_scenario, FLEET_GAUNTLET};
use orco_serve::RunLog;

const SEED: u64 = 0xF1EE7;

#[test]
fn fleet_kill_delivers_exactly_once_through_kill_and_join() {
    let o = run_scenario("fleet_kill", SEED, true).expect("contracts hold");
    // Success already pins: the kill fired, the join fired, no client
    // ever observed two owners at one epoch, every surviving gateway
    // drained, and per-client output is bit-identical to direct
    // encode_batch + decode_batch. Re-assert the headline numbers.
    assert_eq!(o.delivered_rows, o.clients * o.frames_per_client, "exactly once");
    assert!(o.redirects > 0, "the rebalance must be observed via Redirect, not misrouting");
    assert!(o.reconnects > 0, "orphans of the dead owner must resume elsewhere");
    // Epoch history: 3 joins at t=0, the kill's eviction, the late join.
    assert_eq!(o.final_epoch, 5);
    assert!(!o.stats_frames.is_empty(), "surviving gateways must report stats");
    assert!(
        o.trace_export.contains("orco-trace v1"),
        "surviving gateways must export their span rings"
    );
}

#[test]
fn fleet_kill_is_deterministic_in_its_seed() {
    let a = run_scenario("fleet_kill", SEED, true).expect("contracts hold");
    let b = run_scenario("fleet_kill", SEED, true).expect("contracts hold");
    assert_eq!(a, b, "same seed must be bit-identical, trace included");

    let c = run_scenario("fleet_kill", SEED + 1, true).expect("contracts hold");
    assert_ne!(a.trace, c.trace, "a different seed must draw a different schedule");
}

#[test]
fn fleet_kill_replays_bit_identically_from_its_log() {
    let live = run_scenario("fleet_kill", SEED, true).expect("contracts hold");
    let log = live.tape(true);

    // The log must survive its own text serialization...
    let reparsed = RunLog::from_text(&log.to_text()).expect("log reparses");
    assert_eq!(reparsed, log, "text round trip must be lossless");

    // ...and replaying it must reproduce the run bit for bit: same
    // decoded bytes, same per-gateway stats wire images, same epochs.
    let replayed = replay_scenario(&reparsed).expect("replay holds the same contracts");
    assert_eq!(replayed, live);
}

/// The one entry point runs this layer's names, hands the serve layer's
/// down, and rejects a name no layer knows — immediately, with an empty
/// tape.
#[test]
fn names_resolve_across_layers_and_unknown_names_do_not() {
    assert_eq!(FLEET_GAUNTLET, ["fleet_kill"]);
    let serve = run_scenario("lossy_links", SEED, true).expect("delegated to orco-serve");
    assert_eq!(serve, orco_serve::run_scenario("lossy_links", SEED, true).expect("runs"));
    let err = run_scenario("no_such_scenario", SEED, true).expect_err("unknown name");
    assert!(err.detail.contains("unknown scenario"), "got: {err}");
    assert!(err.log.trace.is_empty());
}
