//! Chaos-gauntlet CLI: run the DES impairment scenarios — the
//! single-gateway serving gauntlet, the fleet gauntlet, *and* the
//! rollout gauntlet — verify the liveness/exactly-once contracts, and
//! prove every run replays bit-identically from its recorded log.
//!
//! ```sh
//! # CI quick mode: all scenarios + replay verification
//! cargo run --release -p orco-rollout --bin chaos -- --quick --record-dir chaos-logs
//!
//! # One scenario, full size, chosen seed
//! cargo run --release -p orco-rollout --bin chaos -- --scenario lossy_links --seed 7
//!
//! # The fleet scenario: directory + 4 gateways, mid-run kill + join
//! cargo run --release -p orco-rollout --bin chaos -- --scenario fleet_kill
//!
//! # The rollout scenario: drift mid-run, staged rollout, mid-swap kill
//! cargo run --release -p orco-rollout --bin chaos -- --scenario rollout_storm
//!
//! # Resurrect a failing run from its uploaded log
//! cargo run --release -p orco-rollout --bin chaos -- --replay chaos-logs/lossy_links.runlog
//! ```
//!
//! On any contract violation the run's log is written to `--record-dir`
//! (default `.`) and the process exits nonzero — the log is everything a
//! debugging session needs to step through the identical event sequence.

use std::path::PathBuf;
use std::process::ExitCode;

use orco_fleet::FLEET_GAUNTLET;
use orco_rollout::{replay_scenario, run_scenario, ROLLOUT_GAUNTLET};
use orco_serve::{Outcome, RunLog, GAUNTLET};

struct Args {
    quick: bool,
    seed: u64,
    scenario: Option<String>,
    record_dir: PathBuf,
    replay: Option<PathBuf>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            quick: false,
            seed: 0xC4A05,
            scenario: None,
            record_dir: PathBuf::from("."),
            replay: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().unwrap_or_else(|| panic!("{name} requires a value"));
            match flag.as_str() {
                "--quick" => args.quick = true,
                "--full" => args.quick = false,
                "--seed" => args.seed = value("--seed").parse().expect("u64"),
                "--scenario" => args.scenario = Some(value("--scenario")),
                "--record-dir" => args.record_dir = PathBuf::from(value("--record-dir")),
                "--replay" => args.replay = Some(PathBuf::from(value("--replay"))),
                other => {
                    eprintln!(
                        "unknown flag {other}\nusage: chaos [--quick|--full] [--seed N] \
                         [--scenario NAME] [--record-dir DIR] [--replay FILE]"
                    );
                    std::process::exit(2);
                }
            }
        }
        args
    }
}

/// One line per run. A counter at 0 is omitted: either nothing of the
/// kind happened, or the scenario's cast has no notion of it.
fn summarize(tag: &str, o: &Outcome) {
    let counters = [
        ("acked", o.acked_rows as u64),
        ("delivered", o.delivered_rows as u64),
        ("v0", o.v0_rows as u64),
        ("v1", o.v1_rows as u64),
        ("busy_retries", o.busy_retries as u64),
        ("gave_ups", o.gave_ups as u64),
        ("reconnects", o.reconnects as u64),
        ("redirects", o.redirects as u64),
        ("drift_trips", o.drift_trips),
        ("final_epoch", o.final_epoch),
    ];
    let counters: Vec<String> =
        counters.iter().filter(|(_, n)| *n != 0).map(|(what, n)| format!("{what} {n}")).collect();
    println!(
        "  {tag} {}: {} clients x {} frames | {} | digest {:016x}",
        o.name,
        o.clients,
        o.frames_per_client,
        counters.join(" "),
        o.decoded_fnv
    );
}

fn persist_log(dir: &PathBuf, log: &RunLog) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("chaos: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{}-seed{}.runlog", log.name, log.seed));
    match std::fs::write(&path, log.to_text()) {
        Ok(()) => eprintln!("chaos: run log written to {}", path.display()),
        Err(e) => eprintln!("chaos: cannot write {}: {e}", path.display()),
    }
}

/// The text round trip must be exact, or an uploaded log is useless.
fn roundtrip_log(name: &str, args: &Args, log: &RunLog) -> Option<RunLog> {
    match RunLog::from_text(&log.to_text()) {
        Ok(l) if l == *log => Some(l),
        Ok(_) => {
            eprintln!("chaos: FAILED {name}: run log text round trip is lossy");
            persist_log(&args.record_dir, log);
            None
        }
        Err(e) => {
            eprintln!("chaos: FAILED {name}: run log does not reparse: {e}");
            persist_log(&args.record_dir, log);
            None
        }
    }
}

/// Runs one scenario live, then replays it from its own log and demands
/// a bit-identical [`Outcome`] — stats frames, decoded digest, trace
/// export, tape, and every counter (so a replay that, say, swaps at a
/// different flush boundary fails on the v0/v1 split). Returns false (and
/// persists the log) on any violation.
fn run_and_verify(name: &str, args: &Args) -> bool {
    let outcome = match run_scenario(name, args.seed, args.quick) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("chaos: FAILED {e}");
            persist_log(&args.record_dir, &e.log);
            return false;
        }
    };
    summarize("live ", &outcome);

    let log = outcome.tape(args.quick);
    let Some(reparsed) = roundtrip_log(name, args, &log) else {
        return false;
    };
    match replay_scenario(&reparsed) {
        Ok(replayed) if replayed == outcome => {
            summarize("replay", &replayed);
            true
        }
        Ok(_) => {
            eprintln!("chaos: FAILED {name}: replay diverged from the live run");
            persist_log(&args.record_dir, &log);
            false
        }
        Err(e) => {
            eprintln!("chaos: FAILED replay of {name}: {e}");
            persist_log(&args.record_dir, &e.log);
            false
        }
    }
}

fn main() -> ExitCode {
    let args = Args::parse();

    if let Some(path) = &args.replay {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("chaos: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let log = match RunLog::from_text(&text) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("chaos: malformed run log {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        println!("chaos: replaying {} (seed {}, quick {})", log.name, log.seed, log.quick);
        return match replay_scenario(&log) {
            Ok(o) => {
                summarize("replay", &o);
                println!("chaos: replay completed cleanly");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("chaos: replay reproduced the failure: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let names: Vec<&str> = match &args.scenario {
        Some(s) => vec![s.as_str()],
        None => GAUNTLET
            .iter()
            .chain(FLEET_GAUNTLET.iter())
            .chain(ROLLOUT_GAUNTLET.iter())
            .copied()
            .collect(),
    };
    println!(
        "chaos: gauntlet of {} scenario(s), seed {}, {} mode",
        names.len(),
        args.seed,
        if args.quick { "quick" } else { "full" }
    );
    let mut ok = true;
    for name in names {
        println!("chaos: == {name} ==");
        ok &= run_and_verify(name, &args);
    }
    if ok {
        println!(
            "chaos: gauntlet clean — every run delivered exactly once and replayed bit-identically"
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
