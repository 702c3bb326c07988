//! Golden values of the seven-scenario chaos gauntlet at seed `0xC4A05`,
//! quick sizing: the replay tape, the gateways' `StatsReply` frames, the
//! trace exports, the decoded-row digest, and every counter, as literals.
//!
//! Every other gauntlet test compares a run with itself or with its
//! replay, so a refactor that moved every tape would stay green; this one
//! fails. The constants were measured before the three scenario drivers
//! were folded into one harness (two separate processes agreed on all of
//! them) — a change to the harness may edit this file's imports and field
//! accesses, never its constants. A counter a scenario does not report is
//! pinned at 0.
//!
//! The `stats` column was re-pinned once, when the sorted-insert latency
//! ledger was deleted: `batch_latency_p50_s`/`_p99_s` became the upper
//! bound of their flush-latency histogram bucket (e.g. 5.0 ms reads
//! 8.388607 ms), and a byte diff of every stats frame against the old
//! ones showed those 16 bytes, and no others, changed. The `decoded_fnv`
//! column was re-pinned once, when the GEMM micro-kernel's step became one
//! fused multiply-add: every other column of every row held, and
//! `shadow_ledger.rs` holds the decoded rows' distance from an `f64`
//! shadow. Those digests are the `x86-64-v3` build's, so a build without
//! FMA ignores the test.

use orcodcs_repro::rollout::{run_scenario, SCENARIOS};
use orcodcs_repro::tensor::fnv1a64;

const SEED: u64 = 0xC4A05;

#[derive(Debug, PartialEq)]
struct Pins {
    name: &'static str,
    /// `fnv1a64(RunLog::to_text())` of the recorded tape.
    tape: u64,
    /// `fnv1a64` of the surviving gateways' `StatsReply` frames, concatenated.
    stats: u64,
    /// `fnv1a64` of the trace export.
    trace_export: u64,
    decoded_fnv: u64,
    sends: usize,
    stats_frames: usize,
    clients: usize,
    frames_per_client: usize,
    acked_rows: usize,
    delivered_rows: usize,
    busy_retries: usize,
    gave_ups: usize,
    reconnects: usize,
    redirects: usize,
    final_epoch: u64,
    v0_rows: usize,
    v1_rows: usize,
    drift_trips: u64,
}

const GOLDEN: [Pins; 7] = [
    Pins {
        name: "flash_crowd",
        tape: 0xc07d_87a2_7595_b530,
        stats: 0x04b9_ef70_80f9_3324,
        trace_export: 0x5855_6d29_f20b_c330,
        decoded_fnv: 0x32f2_4885_2517_33dd,
        sends: 168,
        stats_frames: 1,
        clients: 6,
        frames_per_client: 18,
        acked_rows: 108,
        delivered_rows: 108,
        busy_retries: 18,
        gave_ups: 0,
        reconnects: 0,
        redirects: 0,
        final_epoch: 0,
        v0_rows: 0,
        v1_rows: 0,
        drift_trips: 0,
    },
    Pins {
        name: "rolling_partition",
        tape: 0x61b0_7ff9_ca8e_8084,
        stats: 0x20cd_50cd_dd1a_f527,
        trace_export: 0x2c9a_807c_f788_7858,
        decoded_fnv: 0x42a4_a04a_bac2_fc3d,
        sends: 69,
        stats_frames: 1,
        clients: 4,
        frames_per_client: 12,
        acked_rows: 48,
        delivered_rows: 48,
        busy_retries: 0,
        gave_ups: 0,
        reconnects: 0,
        redirects: 0,
        final_epoch: 0,
        v0_rows: 0,
        v1_rows: 0,
        drift_trips: 0,
    },
    Pins {
        name: "lossy_links",
        tape: 0x6e9a_8fd4_b5e9_efe1,
        stats: 0x3696_c9e6_8e49_3f8e,
        trace_export: 0x6f04_e298_c4b9_1072,
        decoded_fnv: 0x42a4_a04a_bac2_fc3d,
        sends: 82,
        stats_frames: 1,
        clients: 4,
        frames_per_client: 12,
        acked_rows: 48,
        delivered_rows: 48,
        busy_retries: 0,
        gave_ups: 0,
        reconnects: 0,
        redirects: 0,
        final_epoch: 0,
        v0_rows: 0,
        v1_rows: 0,
        drift_trips: 0,
    },
    Pins {
        name: "straggler_shard",
        tape: 0xcc55_f4fb_cbc3_abfa,
        stats: 0xd170_0fab_debd_fc74,
        trace_export: 0xb450_650c_3f8e_545b,
        decoded_fnv: 0x42a4_a04a_bac2_fc3d,
        sends: 92,
        stats_frames: 1,
        clients: 4,
        frames_per_client: 12,
        acked_rows: 48,
        delivered_rows: 48,
        busy_retries: 0,
        gave_ups: 0,
        reconnects: 0,
        redirects: 0,
        final_epoch: 0,
        v0_rows: 0,
        v1_rows: 0,
        drift_trips: 0,
    },
    Pins {
        name: "mass_reconnect",
        tape: 0x325e_3e10_7612_976c,
        stats: 0x04a6_3777_e9a1_d1e8,
        trace_export: 0x2f49_cccb_1cb7_51fc,
        decoded_fnv: 0x54cb_7b7e_186c_917a,
        sends: 72,
        stats_frames: 1,
        clients: 4,
        frames_per_client: 10,
        acked_rows: 40,
        delivered_rows: 40,
        busy_retries: 0,
        gave_ups: 4,
        reconnects: 4,
        redirects: 0,
        final_epoch: 0,
        v0_rows: 0,
        v1_rows: 0,
        drift_trips: 0,
    },
    Pins {
        name: "fleet_kill",
        tape: 0x11fc_3d32_8abf_2727,
        stats: 0x58d7_7c2f_7072_4e84,
        trace_export: 0xe60c_e0c2_e824_a290,
        decoded_fnv: 0xcbf9_c1ec_4723_2dc2,
        sends: 196,
        stats_frames: 3,
        clients: 6,
        frames_per_client: 9,
        acked_rows: 0,
        delivered_rows: 54,
        busy_retries: 0,
        gave_ups: 2,
        reconnects: 3,
        redirects: 1,
        final_epoch: 5,
        v0_rows: 0,
        v1_rows: 0,
        drift_trips: 0,
    },
    Pins {
        name: "rollout_storm",
        tape: 0xffac_ac0f_d829_99e9,
        stats: 0x4ead_80b9_11cb_da8a,
        trace_export: 0x0c1b_7ed6_5849_7ae0,
        decoded_fnv: 0xde91_ae93_1a91_8f8e,
        sends: 388,
        stats_frames: 2,
        clients: 6,
        frames_per_client: 24,
        acked_rows: 0,
        delivered_rows: 144,
        busy_retries: 0,
        gave_ups: 2,
        reconnects: 2,
        redirects: 0,
        final_epoch: 4,
        v0_rows: 108,
        v1_rows: 36,
        drift_trips: 6,
    },
];

/// Runs `golden.name` live and reads back everything [`Pins`] pins.
fn measure(golden: &Pins) -> Pins {
    let name = golden.name;
    let o =
        run_scenario(name, SEED, true).unwrap_or_else(|e| panic!("{name}: scenario failed: {e}"));
    Pins {
        name,
        tape: fnv1a64(o.tape().to_text().as_bytes()),
        stats: fnv1a64(&o.stats_frames.concat()),
        trace_export: fnv1a64(o.trace_export.as_bytes()),
        decoded_fnv: o.decoded_fnv,
        sends: o.trace.len(),
        stats_frames: o.stats_frames.len(),
        clients: o.clients,
        frames_per_client: o.frames_per_client,
        acked_rows: o.acked_rows,
        delivered_rows: o.delivered_rows,
        busy_retries: o.busy_retries,
        gave_ups: o.gave_ups,
        reconnects: o.reconnects,
        redirects: o.redirects,
        final_epoch: o.final_epoch,
        v0_rows: o.v0_rows,
        v1_rows: o.v1_rows,
        drift_trips: o.drift_trips,
    }
}

#[test]
#[cfg_attr(
    not(target_feature = "fma"),
    ignore = "absolute values of the x86-64-v3 build, whose GEMM step is one fused multiply-add"
)]
fn every_scenario_matches_its_golden_values() {
    for golden in &GOLDEN {
        assert_eq!(&measure(golden), golden, "{}: the gauntlet moved", golden.name);
    }
}

/// A scenario added to the registry without golden values fails here.
#[test]
fn every_registry_row_has_golden_values_in_order() {
    assert_eq!(GOLDEN.map(|p| p.name), SCENARIOS.map(|s| s.name));
}
