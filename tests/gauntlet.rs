//! The chaos gauntlet, table-driven: every registry row runs through the
//! one verify routine (live run → tape → text round trip → replay →
//! `replayed == live` on the whole `Outcome`) at two seeds, is
//! deterministic in its seed, and exercised what its scenario exists to
//! exercise. The literal values of one seed are `gauntlet_golden.rs`'s.

use orcodcs_repro::rollout::{run_scenario, verify, SCENARIOS};
use orcodcs_repro::serve::Outcome;

const SEEDS: [u64; 2] = [0xC4A05, 0xF1EE7];

/// What a run of `o.name` shows beyond the contracts its body enforces.
fn check(o: &Outcome) {
    let name = o.name.as_str();
    assert_eq!(o.delivered_rows, o.clients * o.frames_per_client, "{name}: exactly once");
    assert!(o.trace_export.contains("orco-trace v1"), "{name}: no trace export");
    match name {
        "flash_crowd" => assert!(o.busy_retries > 0, "no Busy backpressure"),
        "mass_reconnect" => assert!(o.gave_ups >= 1 && o.reconnects >= 1, "no resumption"),
        "fleet_kill" => assert!(o.redirects > 0 && o.reconnects > 0 && o.final_epoch == 5),
        "rollout_storm" => assert!(o.v1_rows > 0, "the rolled-out version served nothing"),
        _ => {}
    }
}

#[test]
fn every_scenario_verifies_at_both_seeds_and_unknown_names_do_not() {
    for scenario in SCENARIOS {
        let name = scenario.name;
        let [a, b] = SEEDS.map(|seed| {
            verify(name, seed, true).unwrap_or_else(|e| panic!("{name} (seed {seed:#x}): {e}"))
        });
        check(&a);
        check(&b);
        assert_eq!(run_scenario(name, SEEDS[0], true).expect("rerun"), a, "{name}: not repeatable");
        // The seed draws every run's frames, and every send schedule but the
        // three whose impairments are scripted windows over fixed delays.
        assert_ne!(a.decoded_fnv, b.decoded_fnv, "{name}: the frames ignored the seed");
        let scripted = ["rolling_partition", "straggler_shard", "mass_reconnect"].contains(&name);
        assert!(scripted || a.trace != b.trace, "{name}: the tape ignored the seed");
    }
    let unknown = run_scenario("nope", SEEDS[0], true).expect_err("unknown name");
    assert!(unknown.log.trace.is_empty() && unknown.detail.contains("unknown scenario"));
}
