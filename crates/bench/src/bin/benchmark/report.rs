//! The benchmark's contract — workloads, metric names, units, bounds —
//! and the per-run report that is checked against it.
//!
//! `BENCHMARK.json` at the repo root is generated from the tables here
//! (`benchmark --emit-benchmark-json`); a test holds the two together.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::calibrate::Calibrator;
use crate::stats::{median, quartiles};
use crate::trace::Tracer;

/// Seconds one run measures for unless `--seconds` says otherwise; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 16;

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Largest `|budget.residual_share|` a traced `serve_loopback` or
/// `train_online` run accepts: a layer table that does not sum to the
/// end-to-end time is not evidence.
pub const RESIDUAL_LIMIT: f64 = 0.15;

/// The five workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "serve_loopback",
        "closed loop over in-process loopback: codec kernels do ~95% of a served frame, wire and dispatch ~5%, so kernel work must show here and wire-copy work must not",
    ),
    (
        "serve_parallel",
        "two connections on two distinct shards beside a same-trial one-thread reference: the only workload where cross-shard locking or shard-owned workers can show",
    ),
    (
        "serve_tcp",
        "real sockets and clock, open loop at a fixed rate then closed loop: transport, writer thread, deadline flusher and batch wait dominate and the codec does little",
    ),
    (
        "codec_offline",
        "no serve layer: batch-256 encode+decode on dense 784, dense 3072 and the DCSNet conv stack, so a kernel repack that helps one shape and hurts another shows",
    ),
    (
        "train_online",
        "the paper's orchestrated training round for OrcoDCS and DCSNet: forward, backward, optimizer and WSN accounting, the write side of the kernels serving only reads",
    ),
];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One named metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as keyed in the result line.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Higher }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower }
}

/// End-to-end metrics with the share of the parent's median each may
/// worsen by. Every workload reports every one of them (the driver's
/// result line carries one flat set), so each is a role a workload fills
/// with its own quantity; the README's table says which. Times and rates
/// of compute-bound work are in host-normalised seconds (see
/// [`crate::calibrate`]); the raw figure is printed beside each.
///
/// One bound serves a role on all five workloads, so it is set by the
/// noisiest: the two-thread ones, whose run-to-run spread on the shared
/// two-core host is 9–10 % against 2–4 % for the one-thread ones. A
/// bound must clear the spread with room to spare or the benchmark
/// rejects identical code, hence the contract's ceiling for all four.
pub const END_TO_END: [(Metric, f64); 4] = [
    (hi("primary_per_s", "1/s"), 0.25),
    (hi("contrast_per_s", "1/s"), 0.25),
    (lo("latency_p50_ms", "ms"), 0.25),
    (lo("setup_s", "s"), 0.25),
];

/// Per-layer metrics, reported by the traced run. A workload that does
/// not exercise a layer reports 0 for it.
pub const PER_LAYER: [Metric; 79] = [
    // serve wire protocol, on the exact messages the workload sends
    lo("protocol.push_encode_us", "us"),
    lo("protocol.push_decode_us", "us"),
    lo("protocol.decoded_encode_us", "us"),
    lo("protocol.decoded_decode_us", "us"),
    lo("protocol.bytes_per_frame", "B"),
    // gateway dispatch, no wire
    lo("gateway.push_p50_us", "us"),
    lo("gateway.push_flush_ms", "ms"),
    lo("gateway.pull_ms", "ms"),
    lo("gateway.self_us_per_frame", "us"),
    // gateway counters over the traced phase
    hi("gateway.batches", "count"),
    hi("gateway.mean_batch_rows", "rows"),
    hi("gateway.flush_size_share", "share"),
    lo("gateway.flush_deadline_share", "share"),
    lo("gateway.busy", "count"),
    // client and transport
    lo("client.push_us", "us"),
    lo("client.pull_us", "us"),
    lo("transport.loopback_overhead_us", "us"),
    lo("transport.tcp_rtt_us", "us"),
    // streaming and the open-loop generator
    hi("stream.rows_per_delivery", "rows"),
    lo("stream.deliveries", "count"),
    lo("stream.reordered_rows", "count"),
    lo("gen.late_p99_ms", "ms"),
    lo("gen.late_max_ms", "ms"),
    lo("lat_tail_ms.r1000", "ms"),
    lo("lat_p50_ms.r4000", "ms"),
    lo("lat_tail_ms.r4000", "ms"),
    // two threads against one
    hi("parallel.scaling_x", "x"),
    hi("parallel.ref_frames_per_s", "1/s"),
    hi("parallel.per_thread_frames_per_s", "1/s"),
    hi("parallel.raw_codec_scaling_x", "x"),
    // codecs, per frame, at batch 64 and 256
    lo("codec.ae_mnist.encode_us_per_frame.b64", "us"),
    lo("codec.ae_mnist.encode_us_per_frame.b256", "us"),
    lo("codec.ae_mnist.decode_us_per_frame.b64", "us"),
    lo("codec.ae_mnist.decode_us_per_frame.b256", "us"),
    lo("codec.ae_mnist.bytes_moved_per_frame", "B"),
    lo("codec.ae_gtsrb.encode_us_per_frame.b64", "us"),
    lo("codec.ae_gtsrb.encode_us_per_frame.b256", "us"),
    lo("codec.ae_gtsrb.decode_us_per_frame.b64", "us"),
    lo("codec.ae_gtsrb.decode_us_per_frame.b256", "us"),
    lo("codec.ae_gtsrb.bytes_moved_per_frame", "B"),
    lo("codec.dcsnet.encode_us_per_frame.b64", "us"),
    lo("codec.dcsnet.encode_us_per_frame.b256", "us"),
    lo("codec.dcsnet.decode_us_per_frame.b64", "us"),
    lo("codec.dcsnet.decode_us_per_frame.b256", "us"),
    lo("codec.dcsnet.bytes_moved_per_frame", "B"),
    // tensor kernels at the models' dominant shapes
    hi("tensor.matmul_gflops.enc_b64", "GFLOP/s"),
    hi("tensor.matmul_gflops.dec_b64", "GFLOP/s"),
    hi("tensor.matmul_t_gflops.bwd_b32", "GFLOP/s"),
    lo("tensor.im2col_us", "us"),
    // nn layers at the models' shapes
    lo("nn.dense_fwd_us", "us"),
    lo("nn.dense_bwd_us", "us"),
    lo("nn.conv_fwd_us", "us"),
    lo("nn.conv_bwd_us", "us"),
    // the six steps of a training round, replayed from outside
    lo("split.orcodcs.encode_train_ms", "ms"),
    lo("split.orcodcs.decode_train_ms", "ms"),
    lo("split.orcodcs.decoder_update_ms", "ms"),
    lo("split.orcodcs.encoder_update_ms", "ms"),
    lo("loss.orcodcs.value_grad_ms", "ms"),
    lo("orchestrator.orcodcs.self_ms", "ms"),
    lo("split.dcsnet.encode_train_ms", "ms"),
    lo("split.dcsnet.decode_train_ms", "ms"),
    lo("split.dcsnet.decoder_update_ms", "ms"),
    lo("split.dcsnet.encoder_update_ms", "ms"),
    lo("loss.dcsnet.value_grad_ms", "ms"),
    lo("orchestrator.dcsnet.self_ms", "ms"),
    lo("wsn.transmit_us", "us"),
    lo("wsn.compute_us", "us"),
    // where a unit of work's time went, as shares of the untraced time
    lo("budget.client_share", "share"),
    lo("budget.protocol_share", "share"),
    lo("budget.gateway_share", "share"),
    lo("budget.encode_share", "share"),
    lo("budget.decode_share", "share"),
    lo("budget.loss_share", "share"),
    lo("budget.wsn_share", "share"),
    lo("budget.residual_share", "share"),
    // the tracing itself
    lo("trace.overhead_share", "share"),
    lo("trace.spans", "count"),
    hi("trace.untraced_per_s", "1/s"),
    lo("host.factor", "x"),
];

/// `BENCHMARK.json`, generated from the tables above.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"crates/bench/src/bin/benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"crates/bench/src/bin/benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (m, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{comma}",
            m.name,
            m.unit,
            better_str(m.better)
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            better_str(m.better)
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn better_str(b: Better) -> &'static str {
    match b {
        Better::Higher => "higher",
        Better::Lower => "lower",
    }
}

fn lookup(name: &str) -> Option<Metric> {
    END_TO_END.iter().map(|(m, _)| *m).chain(PER_LAYER).find(|m| m.name == name)
}

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted, all phases.
    pub attempted: u64,
    /// Operations failed, refused or undelivered, all phases.
    pub failed: u64,
}

impl Report {
    /// Records a metric and prints it by name with its unit. `what` says
    /// which quantity of this workload fills the name.
    ///
    /// # Panics
    ///
    /// Panics on a name the contract does not list: the tables above are
    /// the single place a metric is defined.
    pub fn set(&mut self, name: &str, value: f64, what: &str) {
        let m = lookup(name).unwrap_or_else(|| panic!("metric {name} is not in the contract"));
        println!("  {:<42} {:>14.4} {:<8} {what}", m.name, value, m.unit);
        self.values.insert(m.name, value);
    }

    /// Records the median of `trials` under `name`, printing quartiles
    /// and the trial count beside it.
    pub fn set_trials(&mut self, name: &str, trials: &[f64], what: &str) {
        let (q1, q2, q3) = quartiles(trials);
        self.set(name, q2, &format!("{what} [q1 {q1:.4}, q3 {q3:.4}, n {}]", trials.len()));
    }

    /// Records a rate from timed trials, each `(raw seconds per unit of
    /// work, host factor)`: the median of the host-normalised rates, with
    /// the raw median printed beside it.
    pub fn set_rate(&mut self, name: &str, samples: &[(f64, f64)], what: &str) {
        let rates: Vec<f64> = samples.iter().map(|(unit_s, host)| host / unit_s).collect();
        let raw: Vec<f64> = samples.iter().map(|(unit_s, _)| 1.0 / unit_s).collect();
        self.set_trials(name, &rates, &format!("{what}; raw median {:.4}", median(&raw)));
    }

    /// Records a time from timed trials, as [`Report::set_rate`] does a
    /// rate, in units of `1 / per_s` seconds (1e3 for ms).
    pub fn set_time(&mut self, name: &str, per_s: f64, samples: &[(f64, f64)], what: &str) {
        let times: Vec<f64> = samples.iter().map(|(unit_s, host)| unit_s / host * per_s).collect();
        let raw: Vec<f64> = samples.iter().map(|(unit_s, _)| unit_s * per_s).collect();
        self.set_trials(name, &times, &format!("{what}; raw median {:.4}", median(&raw)));
    }

    /// Records the set-up time: the median of the set-ups, raw. Set-up
    /// is allocation, rendering and thread start-up as much as arithmetic,
    /// and on this host dividing it by the host factor doubled its
    /// spread instead of halving it.
    pub fn set_setup(&mut self, setups: &[(f64, f64)], what: &str) {
        let raw: Vec<f64> = setups.iter().map(|(s, _)| *s).collect();
        self.set_trials("setup_s", &raw, what);
    }

    /// Counts a phase's operations and prints them.
    pub fn ops(&mut self, phase: &str, attempted: u64, failed: u64) {
        println!("  {phase}: ops_attempted {attempted} ops_failed {failed}");
        self.attempted += attempted;
        self.failed += failed;
    }

    /// A recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The driver's result line: every end-to-end metric for an untraced
    /// run, every per-layer metric (0 where the workload has none) for a
    /// traced one.
    ///
    /// # Errors
    ///
    /// Names an end-to-end metric the workload failed to report, or any
    /// value that is not a finite number.
    pub fn result_line(&self, traced: bool, correct: bool) -> Result<String, String> {
        let wanted: Vec<Metric> =
            if traced { PER_LAYER.to_vec() } else { END_TO_END.iter().map(|(m, _)| *m).collect() };
        let mut metrics = String::new();
        for (i, m) in wanted.iter().enumerate() {
            let value = match self.values.get(m.name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {} was not measured", m.name)),
            };
            if !value.is_finite() {
                return Err(format!("metric {} is not a finite number: {value}", m.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        ))
    }
}

/// Everything a workload run is given and fills in.
#[derive(Debug)]
pub struct Ctx {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds of measurement to spend, all phases together.
    pub seconds: f64,
    /// Smoke scale: same code paths, a fraction of the work.
    pub smoke: bool,
    /// Whether this is the traced run.
    pub traced: bool,
    /// The span log of a traced run.
    pub tracer: Tracer,
    /// The host-speed reference.
    pub cal: Calibrator,
    /// Metrics and op counts.
    pub report: Report,
}

impl Ctx {
    /// A fresh context.
    pub fn new(seed: u64, seconds: f64, smoke: bool, traced: bool) -> Self {
        Self {
            seed,
            seconds,
            smoke,
            traced,
            tracer: Tracer::new(Instant::now()),
            cal: Calibrator::default(),
            report: Report::default(),
        }
    }

    /// How many times to set up: several for the untraced run, whose
    /// `setup_s` is their median; once where set-up is not the subject.
    pub fn setups(&self) -> usize {
        if self.traced || self.smoke {
            1
        } else {
            SETUPS
        }
    }

    /// `full` at benchmark scale, `smoke` at smoke scale.
    pub fn scale(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Runs `setup` `times` times, timing each, and returns the last state
/// with every set-up as `(seconds, host factor)`. Set-up is input
/// generation, construction of the program under test, the correctness
/// gate's references and the warm-up — everything before the first timed
/// op.
///
/// # Errors
///
/// The first set-up failure.
pub fn timed_setups<S>(
    times: usize,
    cal: &mut Calibrator,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<(f64, f64)>), String> {
    let mut took = Vec::with_capacity(times);
    let mut state = None;
    for _ in 0..times.max(1) {
        // Drop the previous state first: two live copies would make the
        // later set-ups allocate fresh pages the first did not.
        drop(state.take());
        let (timed, host) = cal.around(|| {
            let start = Instant::now();
            setup().map(|s| (s, start.elapsed().as_secs_f64()))
        });
        let (s, seconds) = timed?;
        state = Some(s);
        took.push((seconds, host));
    }
    Ok((state.expect("at least one set-up ran"), took))
}

/// Runs `trial` — one fixed piece of work — until `budget_s` is spent,
/// and at least `min` times, sampling the host factor around each. The
/// work per trial is the same on every commit; a faster commit runs more
/// trials. Returns each trial's result with its host factor.
///
/// # Errors
///
/// The first trial failure.
pub fn trials<T>(
    budget_s: f64,
    min: usize,
    cal: &mut Calibrator,
    mut trial: impl FnMut() -> Result<T, String>,
) -> Result<Vec<(T, f64)>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let (result, host) = cal.around(&mut trial);
        out.push((result?, host));
        let spent = start.elapsed().as_secs_f64();
        // Stop when the next trial would overshoot by more than half.
        if out.len() >= min && spent + 0.5 * spent / out.len() as f64 >= budget_s {
            return Ok(out);
        }
    }
}

/// Runs `variants` in turn, round after round, until `budget_s` is spent
/// and at least `min` rounds ran, sampling the host factor around each
/// call. The traced runs compare variants of one loop (plain, spanned,
/// replayed); run back to back within a round, they see the same host.
/// Returns, per variant, each round's `(result, host factor)`.
///
/// # Errors
///
/// The first failure.
pub fn rounds(
    budget_s: f64,
    min: usize,
    cal: &mut Calibrator,
    variants: &mut [&mut dyn FnMut() -> Result<f64, String>],
) -> Result<Vec<Vec<(f64, f64)>>, String> {
    let start = Instant::now();
    let mut out = vec![Vec::new(); variants.len()];
    loop {
        for (variant, results) in variants.iter_mut().zip(&mut out) {
            let (result, host) = cal.around(variant);
            results.push((result?, host));
        }
        let (done, spent) = (out[0].len(), start.elapsed().as_secs_f64());
        if done >= min && spent + 0.5 * spent / done as f64 >= budget_s {
            return Ok(out);
        }
    }
}

/// Median of the raw results of timed trials, host factor aside.
pub fn raw_median(trials: &[(f64, f64)]) -> f64 {
    median(&trials.iter().map(|(v, _)| *v).collect::<Vec<_>>())
}

/// Median over rounds of `f(normalised a, normalised b)`, where a and b
/// are two variants' times from [`rounds`], each divided by its own host
/// factor.
pub fn paired(a: &[(f64, f64)], b: &[(f64, f64)], f: impl Fn(f64, f64) -> f64) -> f64 {
    let v: Vec<f64> = a.iter().zip(b).map(|((a, ha), (b, hb))| f(a / ha, b / hb)).collect();
    median(&v)
}

/// Median seconds per call of `f` over `calls` calls, after one warm-up
/// call — for the micro-probes.
pub fn median_call_s(calls: usize, mut f: impl FnMut()) -> f64 {
    f();
    let took: Vec<f64> = (0..calls.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&took)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let on_disk = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(on_disk, benchmark_json(), "regenerate with --emit-benchmark-json");
    }

    #[test]
    fn contract_limits_hold() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .chain(END_TO_END.iter().map(|(m, _)| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        for m in END_TO_END.iter().map(|(m, _)| m).chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert!(END_TO_END.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
        assert!(PER_LAYER.len() <= 128);
        assert!(benchmark_json().len() <= 64 << 10);
    }

    #[test]
    fn result_line_carries_exactly_the_contracted_metrics() {
        let mut r = Report::default();
        assert!(r.result_line(false, true).is_err(), "a missing end-to-end metric is an error");
        for (m, _) in END_TO_END {
            r.set(m.name, 1.5, "test");
        }
        r.ops("phase", 10, 0);
        let line = r.result_line(false, true).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        let traced = r.result_line(true, true).expect("per-layer defaults to 0");
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
        r.set("setup_s", f64::NAN, "test");
        assert!(r.result_line(false, true).is_err(), "NaN is not a measurement");
    }

    #[test]
    fn trials_run_at_least_min_and_stop_on_budget() {
        let (mut n, mut cal) = (0, Calibrator::default());
        let v = trials(0.0, 3, &mut cal, || {
            n += 1;
            Ok(n)
        })
        .expect("no failure");
        assert_eq!(v.iter().map(|(n, _)| *n).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(v.iter().all(|(_, host)| *host > 0.0));
        assert!(trials(0.0, 1, &mut cal, || Err::<(), _>("boom".to_owned())).is_err());
    }
}
