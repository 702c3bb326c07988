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
//! A malformed flag, an unknown scenario name (given, or read off a tape)
//! and an unreadable tape exit 2 before anything runs or is written.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use orco_rollout::{replay_scenario, verify, SCENARIOS};
use orco_serve::{Outcome, RunLog};

const USAGE: &str =
    "usage: chaos [--quick|--full] [--seed N] [--scenario NAME] [--record-dir DIR] [--replay FILE]";

struct Args {
    quick: bool,
    seed: u64,
    scenario: Option<String>,
    record_dir: PathBuf,
    replay: Option<PathBuf>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            quick: false,
            seed: 0xC4A05,
            scenario: None,
            record_dir: PathBuf::from("."),
            replay: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
            match flag.as_str() {
                "--quick" => args.quick = true,
                "--full" => args.quick = false,
                "--seed" => {
                    let seed = value()?;
                    args.seed =
                        seed.parse().map_err(|_| format!("--seed {seed:?} is not a u64"))?;
                }
                "--scenario" => args.scenario = Some(known(value()?)?),
                "--record-dir" => args.record_dir = PathBuf::from(value()?),
                "--replay" => args.replay = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(args)
    }
}

/// `name`, if a row of the gauntlet has it.
fn known(name: String) -> Result<String, String> {
    if SCENARIOS.iter().any(|s| s.name == name) {
        Ok(name)
    } else {
        Err(format!("unknown scenario {name:?}"))
    }
}

/// Reads and parses the tape at `path`, refusing one whose scenario the
/// gauntlet does not know.
fn read_tape(path: &Path) -> Result<RunLog, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let log = RunLog::from_text(&text)
        .map_err(|e| format!("malformed run log {}: {e}", path.display()))?;
    known(log.name.clone())?;
    Ok(log)
}

/// The input error, the usage line and the known names; exit code 2.
fn refuse(error: &str) -> ExitCode {
    let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
    eprintln!("chaos: {error}\n{USAGE}\nscenarios: {}", names.join(" "));
    ExitCode::from(2)
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

fn persist_log(dir: &Path, log: &RunLog) {
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

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => return refuse(&e),
    };

    if let Some(path) = &args.replay {
        let log = match read_tape(path) {
            Ok(log) => log,
            Err(e) => return refuse(&e),
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
        None => SCENARIOS.iter().map(|s| s.name).collect(),
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
        match verify(name, args.seed, args.quick) {
            Ok(o) => summarize("live = replay", &o),
            Err(e) => {
                eprintln!("chaos: FAILED {e}");
                persist_log(&args.record_dir, &e.log);
                ok = false;
            }
        }
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
