//! The repo's benchmark: five workloads, four end-to-end metrics with
//! regression bounds, and a per-layer budget timed from outside. See
//! `README.md` beside this file for what each number means and
//! `BENCHMARK.json` at the repo root for the contract a driver holds the
//! output to.
//!
//! ```text
//! benchmark [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace [0|1]]
//!           [--smoke] [--repeat-check] [--emit-benchmark-json]
//! ```
//!
//! With `--workload`, runs that workload once — untraced for the
//! end-to-end metrics, or traced for the per-layer ones — and ends its
//! output with the driver's one-line JSON result. Without it, runs every
//! workload both ways. Exits non-zero on any correctness-gate failure.

// The benchmark times real work; wall-clock reads are the point (bin/
// targets are likewise exempt from orco-lint's wall-clock rule).
#![allow(clippy::disallowed_methods)]

mod calibrate;
mod codec_offline;
mod report;
mod serve;
mod serve_loopback;
mod serve_parallel;
mod serve_tcp;
mod stats;
mod trace;
mod train_online;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::{Better, Ctx, END_TO_END, RUN_SECONDS, WORKLOADS};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    repeat_check: bool,
    emit_json: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 0,
        seconds: RUN_SECONDS as f64,
        traced: false,
        smoke: false,
        repeat_check: false,
        emit_json: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|(n, _)| *n == name) {
                    let known: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
                    return Err(format!("unknown workload {name}; one of {}", known.join(", ")));
                }
                out.workload = Some(name);
            }
            "--seed" => out.seed = value("a u64")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
            }
            // `--trace 0|1` for the driver, bare `--trace` for people.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    out.traced = false;
                }
                Some("1") => {
                    it.next();
                    out.traced = true;
                }
                _ => out.traced = true,
            },
            "--smoke" => out.smoke = true,
            "--repeat-check" => out.repeat_check = true,
            "--emit-benchmark-json" => out.emit_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.smoke {
        out.seconds = out.seconds.min(1.5);
    }
    Ok(out)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program).args(args).output().ok().filter(|o| o.status.success()).map_or_else(
        || "unknown".to_owned(),
        |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
    )
}

/// The line every run prints first: what the numbers were measured on.
fn host_line(seed: u64) -> String {
    format!(
        "host: nproc {} | kernel threads {} | commit {} | {} | seed {seed}",
        std::thread::available_parallelism().map_or(1, usize::from),
        orco_tensor::parallel::threads(),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["--version"]),
    )
}

/// Where span files go: beside the build, inside the checkout.
fn trace_path(workload: &str) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("benchmark").join(format!("trace-{workload}.jsonl"))
}

/// Runs one workload once and prints its metrics and its result line.
/// `Ok` carries the report; `Err` means a gate failed (already printed).
fn run_one(workload: &str, args: &Args, seed: u64, traced: bool) -> Result<report::Report, ()> {
    println!(
        "== {workload} ({}, {} s{}) ==",
        if traced { "traced: per-layer metrics" } else { "untraced: end-to-end metrics" },
        args.seconds,
        if args.smoke { ", smoke scale" } else { "" }
    );
    let mut ctx = Ctx::new(seed, args.seconds, args.smoke, traced);
    let outcome = match workload {
        "serve_loopback" => serve_loopback::run(&mut ctx),
        "serve_parallel" => serve_parallel::run(&mut ctx),
        "serve_tcp" => serve_tcp::run(&mut ctx),
        "codec_offline" => codec_offline::run(&mut ctx),
        "train_online" => train_online::run(&mut ctx),
        other => Err(format!("unknown workload {other}")),
    };
    let outcome = outcome.and_then(|()| {
        if traced {
            let path = trace_path(workload);
            ctx.tracer
                .write_jsonl(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("  wrote {} spans to {}", ctx.tracer.len(), path.display());
        }
        if !traced {
            println!(
                "  host.factor {:.4} (median; reference loop time / nominal)",
                ctx.cal.median_factor()
            );
        }
        let share = ctx.report.failed as f64 / ctx.report.attempted.max(1) as f64;
        println!(
            "  failed_share {share} (ops_attempted {}, ops_failed {})",
            ctx.report.attempted, ctx.report.failed
        );
        ctx.report.result_line(traced, ctx.report.failed == 0)
    });
    match outcome {
        Ok(line) if ctx.report.failed == 0 => {
            println!("{line}");
            Ok(ctx.report)
        }
        Ok(line) => {
            println!("GATE FAILED: {} operations failed", ctx.report.failed);
            println!("{line}");
            Err(())
        }
        Err(why) => {
            println!("GATE FAILED: {why}");
            let (attempted, failed) = (ctx.report.attempted.max(1), ctx.report.failed.max(1));
            println!("{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}");
            Err(())
        }
    }
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Higher => (first - second) / first,
        Better::Lower => (second - first) / first,
    }
}

/// Runs every workload untraced on `seed` and on `seed + 1`, `sets` runs
/// each, and fails if any end-to-end metric's second median is worse
/// than its first by more than its bound — the driver's acceptance test,
/// runnable by hand.
fn repeat_check(args: &Args, workloads: &[&str]) -> ExitCode {
    const SETS: usize = 3;
    let mut ok = true;
    for workload in workloads {
        let mut medians: [Vec<Vec<f64>>; 2] =
            [vec![Vec::new(); END_TO_END.len()], vec![Vec::new(); END_TO_END.len()]];
        for (set, values) in medians.iter_mut().enumerate() {
            for _ in 0..SETS {
                let Ok(report) = run_one(workload, args, args.seed + set as u64, false) else {
                    return ExitCode::FAILURE;
                };
                for (i, (m, _)) in END_TO_END.iter().enumerate() {
                    values[i].push(report.get(m.name).expect("result_line checked presence"));
                }
            }
        }
        for (i, (m, bound)) in END_TO_END.iter().enumerate() {
            let (first, second) = (stats::median(&medians[0][i]), stats::median(&medians[1][i]));
            let worse = worsening(m.better, first, second);
            let verdict = if worse > *bound { "FAIL" } else { "ok" };
            println!(
                "repeat-check {workload} {}: first {first:.4} second {second:.4} {} worse by {:.2}% (bound {:.0}%) {verdict}",
                m.name,
                m.unit,
                worse * 100.0,
                bound * 100.0
            );
            ok &= worse <= *bound;
        }
    }
    if ok {
        println!("repeat-check: every end-to-end metric agrees within its bound");
        ExitCode::SUCCESS
    } else {
        println!("repeat-check: FAILED");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_json {
        print!("{}", report::benchmark_json());
        return ExitCode::SUCCESS;
    }
    // Every number is per core: pin the kernels to one thread, so a
    // workload's threads are the ones it starts itself.
    orco_tensor::parallel::set_threads(1);
    println!("{}", host_line(args.seed));

    let all: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    let workloads: Vec<&str> = args.workload.as_deref().map_or(all, |w| vec![w]);
    if args.repeat_check {
        return repeat_check(&args, &workloads);
    }
    // One workload: the mode `--trace` names. All of them: both modes.
    let modes: &[bool] = if args.workload.is_some() { &[args.traced] } else { &[false, true] };
    let mut ok = true;
    for workload in &workloads {
        for &traced in modes {
            ok &= run_one(workload, &args, args.seed, traced).is_ok();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Result<Args, String> {
        parse_args(&s.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_command_line_and_the_short_forms() {
        let a =
            args(&["--workload", "serve_tcp", "--seed", "7", "--seconds", "16", "--trace", "1"])
                .expect("valid");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.traced),
            (Some("serve_tcp"), 7, 16.0, true)
        );
        assert!(!args(&["--trace", "0"]).expect("valid").traced);
        assert!(args(&["--trace"]).expect("valid").traced);
        assert!(args(&["--trace", "--smoke"]).expect("valid").smoke);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        assert!(args(&["--smoke"]).expect("valid").seconds <= 1.5);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
    }

    /// Every workload, both modes, at smoke scale: same code paths,
    /// correctness gates on, bounds off.
    #[test]
    fn smoke_runs_every_workload_both_ways() {
        orco_tensor::parallel::set_threads(1);
        let a = args(&["--smoke"]).expect("valid");
        for (workload, _) in WORKLOADS {
            for traced in [false, true] {
                assert!(run_one(workload, &a, 3, traced).is_ok(), "{workload} traced={traced}");
            }
        }
    }
}
