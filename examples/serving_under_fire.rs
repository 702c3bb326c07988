//! Serving under fire: run one chaos-gauntlet scenario against the
//! gateway over DES-impaired links, then replay it bit-identically from
//! its recorded impairment tape.
//!
//! The scenario drives real `Client` traffic (hello → push → pull →
//! stats) through the stop-and-wait ARQ transport while the simulated
//! network drops, delays, and reorders frames under virtual time. Every
//! impairment verdict is recorded; feeding the tape back through
//! `replay_scenario` reproduces the run exactly — the whole `Outcome`:
//! wire-level stats frames, decoded bytes, trace export, every counter —
//! which is how a failing CI run is debugged locally.
//!
//! ```sh
//! cargo run --release --example serving_under_fire
//! ```
//!
//! `orcodcs_repro::rollout::run_scenario` is the same entry point one
//! layer up and reaches all seven scenarios (`fleet_kill` and
//! `rollout_storm` included); for the whole gauntlet and `--replay FILE`,
//! use the CLI: `cargo run --release -p orco-rollout --bin chaos -- --quick`.

use orcodcs_repro::serve::{replay_scenario, run_scenario, GAUNTLET};

fn main() {
    let name = "lossy_links";
    let seed = 0xF12E_5EED;
    println!("serve-layer gauntlet scenarios: {GAUNTLET:?}");
    println!("running `{name}` with seed {seed:#x} (15% loss, jittered delays)...\n");

    let live = run_scenario(name, seed, true).unwrap_or_else(|e| {
        eprintln!("scenario failed: {e}");
        eprintln!("replay tape:\n{}", e.log.to_text());
        std::process::exit(1);
    });
    println!(
        "live run: {} clients x {} frames -> acked {} / delivered {} rows \
         (busy retries {}, ARQ give-ups {}, reconnects {})",
        live.clients,
        live.frames_per_client,
        live.acked_rows,
        live.delivered_rows,
        live.busy_retries,
        live.gave_ups,
        live.reconnects,
    );
    println!(
        "  impairment tape: {} sends recorded; decoded digest {:#018x}",
        live.trace.len(),
        live.decoded_fnv
    );

    // Replay from the tape: no randomness is drawn; every send consumes
    // its recorded verdict instead.
    let log = live.tape(true);
    let replayed = replay_scenario(&log).expect("replay upholds the same contracts");

    assert_eq!(replayed, live, "the replayed Outcome must be bit-identical");
    println!(
        "\nreplay: bit-identical (stats frame, decoded digest, trace export and tape all match)"
    );
}
