//! `serve_tcp`: `TcpServer` + `Tcp` on 127.0.0.1 under the real clock
//! and the default 5 ms batch deadline.
//!
//! Open loop: one generator thread pushes one frame per push on a seeded
//! Poisson schedule over four clusters, while a second
//! connection, subscribed to the four clusters, receives the streamed
//! deliveries on its own thread. Latency runs from the instant a push was
//! *due* to the receipt of the delivery that carries its row, so a stalled
//! generator or server is charged to every push it delays. A delivered row
//! is matched to its push by its digest, not by its place: the gateway's
//! stream pump takes rows under the shard lock and fans them out after
//! releasing it, so the pumps of the connection thread and of the deadline
//! flusher can overtake one another, and on a busy host they do. The gate
//! is that every row comes back once and bit-identical to the direct
//! codec's; rows that arrive after a later push of their cluster are
//! counted (`stream.reordered_rows`), not failed. Closed loop: push + pull as in `serve_loopback`,
//! from two threads with a connection and two clusters each. (One
//! connection alone spends its time in thread wake-ups between a
//! half-idle pair of cores, and on a shared host that cost flips between
//! ~20 and ~90 µs a push for minutes at a time; two keep both cores busy
//! and the rate unimodal.)

use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use orco_serve::{
    Client, Clock, Gateway, GatewayConfig, PushOutcome, Tcp, TcpConnection, TcpServer,
};
use orco_tensor::OrcoRng;
use orcodcs::OrcoConfig;

use crate::report::{paired, raw_median, rounds, timed_setups, trials, Ctx};
use crate::serve::{
    ae_config, bare_codec_s, build_gateway, build_pool, closed_loop_parallel, err, pick_clusters,
    report_gateway_counters, Endpoint, Lane, Pool, Spanned, CHUNK,
};
use crate::stats::{percentile, row_digest, tail};
use crate::trace::Tracer;

/// How long the receiver waits for stragglers once the generator is done
/// before the missing rows count as undelivered.
const STRAGGLER_WAIT: Duration = Duration::from_secs(2);

/// A gateway behind a TCP server, shut down when dropped.
struct Server {
    gateway: Arc<Gateway>,
    addr: SocketAddr,
    server: Option<TcpServer>,
}

impl Server {
    fn connect(&self, client_id: u64) -> Result<Client<TcpConnection>, String> {
        let mut client = Client::connect(&Tcp::new(self.addr.to_string())).map_err(err)?;
        client.hello(client_id).map_err(err)?;
        Ok(client)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Tear down over a fresh control connection, as the fleet bench
        // does: a `Shutdown` sent on a connection that holds a
        // subscription can see EOF before its `ShutdownAck`.
        let Some(server) = self.server.take() else { return };
        match self.connect(u64::MAX).and_then(|mut c| c.shutdown().map_err(err)) {
            Ok(()) => server.join(),
            // Without the ack the acceptor may never wake; leave its
            // threads to process exit rather than hang the benchmark.
            Err(e) => eprintln!("serve_tcp: shutdown failed, not joining the server: {e}"),
        }
    }
}

struct State {
    cfg: OrcoConfig,
    pool: Pool,
    // Declared before `server` so the connections close first. The first
    // client is also the open loop's generator.
    clients: Vec<Client<TcpConnection>>,
    /// Four clusters, shard-interleaved: two (one per shard) per client.
    lanes: Vec<Lane>,
    server: Server,
}

/// One lane's pushes in order: when each was due, and the digest of the
/// direct codec's reconstruction of its frame.
type Pushes = Vec<(Instant, u64)>;

/// What one open-loop phase measured.
#[derive(Default)]
struct OpenLoop {
    /// Due → delivered, ms, ascending; one per pushed frame.
    latency_ms: Vec<f64>,
    /// Due → actually sent, ms, ascending.
    late_ms: Vec<f64>,
    deliveries: usize,
    /// Rows delivered after a row their cluster was pushed later.
    reordered_rows: usize,
}

impl OpenLoop {
    /// Pools another phase's samples with this one's.
    fn absorb(&mut self, other: OpenLoop) {
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.latency_ms.sort_by(f64::total_cmp);
        self.late_ms.sort_by(f64::total_cmp);
        self.deliveries += other.deliveries;
        self.reordered_rows += other.reordered_rows;
    }
}

fn setup(seed: u64, warm_frames: usize) -> Result<State, String> {
    let cfg = ae_config(seed);
    let pool = build_pool(seed, &cfg)?;
    let gateway = build_gateway(GatewayConfig::default(), Clock::real(), &cfg)?;
    let tcp = TcpServer::spawn(Arc::clone(&gateway), "127.0.0.1:0").map_err(err)?;
    let server = Server { gateway, addr: tcp.local_addr(), server: Some(tcp) };
    let clients = vec![server.connect(1)?, server.connect(3)?];
    let mut rng = OrcoRng::from_label("serve-tcp-clusters", seed);
    let lanes = pick_clusters(&server.gateway, &mut rng, 2)
        .into_iter()
        .map(|c| Lane::new(c, &mut rng))
        .collect();
    let mut state = State { cfg, pool, clients, lanes, server };
    for rows_per_push in [1, CHUNK] {
        state.closed_trial(rows_per_push, warm_frames, None)?;
    }
    open_loop(&mut state, 1000.0, 0.2, seed, None)?;
    Ok(state)
}

impl State {
    /// One closed-loop trial: `frames_each` frames from each client at
    /// once. Returns seconds per frame.
    fn closed_trial(
        &mut self,
        rows_per_push: usize,
        frames_each: usize,
        spans: Option<&mut Tracer>,
    ) -> Result<f64, String> {
        let State { pool, clients, lanes, .. } = self;
        let took = closed_loop_parallel(
            clients,
            pool,
            lanes,
            rows_per_push,
            frames_each,
            &mut Vec::new(),
            spans,
        )?;
        Ok(took / (clients.len() * frames_each) as f64)
    }
}

/// Sleeps, then spins, until `due`.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(800) {
            std::thread::sleep(left - Duration::from_micros(500));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One open-loop phase: `rate` pushes a second for `seconds` seconds.
fn open_loop(
    state: &mut State,
    rate: f64,
    seconds: f64,
    seed: u64,
    mut spans: Option<&mut Tracer>,
) -> Result<OpenLoop, String> {
    let State { pool, clients, lanes, server, .. } = state;
    let (pool, client) = (&*pool, &mut clients[0]);
    let mut subscriber = server.connect(2)?;
    for lane in lanes.iter() {
        let backlog = subscriber.subscribe(lane.cluster).map_err(err)?;
        if backlog != 0 {
            return Err(format!(
                "cluster {} had {backlog} rows stored before the phase",
                lane.cluster
            ));
        }
    }

    // Poisson arrivals — independent senders — each for a seeded cluster.
    // A periodic schedule would beat against the batch deadline, and the
    // median wait would then hang on the phases the seed happened to draw.
    let mut rng = OrcoRng::from_label("serve-tcp-arrivals", seed ^ rate.to_bits());
    let mut schedule: Vec<(f64, usize)> = Vec::new();
    let mut at_s = 0.0;
    while at_s < seconds {
        schedule.push((at_s, rng.below(lanes.len())));
        at_s -= (1.0 - rng.next_f64()).ln() / rate;
    }

    let clusters: Vec<u64> = lanes.iter().map(|l| l.cluster).collect();
    let (done_tx, done_rx) = mpsc::channel::<usize>();
    let (deliveries, due, late_ms) = std::thread::scope(|scope| {
        // The receiver: timestamps each delivery as it arrives.
        let receiver = scope.spawn(move || -> Result<Vec<(usize, Instant, Vec<u64>)>, String> {
            let mut deliveries = Vec::new();
            let (mut rows, mut expected, mut done_at) = (0, None, None);
            loop {
                if let Some((cluster, frames)) =
                    subscriber.recv_streamed(Duration::from_millis(50)).map_err(err)?
                {
                    let at = Instant::now();
                    let lane = clusters.iter().position(|&c| c == cluster);
                    let lane =
                        lane.ok_or_else(|| format!("delivery for unknown cluster {cluster}"))?;
                    rows += frames.rows();
                    deliveries.push((lane, at, frames.iter_rows().map(row_digest).collect()));
                }
                if expected.is_none() {
                    expected = done_rx.try_recv().ok();
                    done_at = expected.map(|_| Instant::now());
                }
                let waited_out = done_at.is_some_and(|t: Instant| t.elapsed() > STRAGGLER_WAIT);
                if expected.is_some_and(|n| rows >= n) || waited_out {
                    for &cluster in &clusters {
                        subscriber.unsubscribe(cluster).map_err(err)?;
                    }
                    return Ok(deliveries);
                }
            }
        });

        // The generator: this thread.
        let mut generate = || -> Result<(Vec<Pushes>, Vec<f64>), String> {
            let mut due: Vec<Pushes> = vec![Vec::new(); lanes.len()];
            let mut late_ms = Vec::with_capacity(schedule.len());
            let start = Instant::now() + Duration::from_millis(20);
            for (request, &(at_s, lane)) in schedule.iter().enumerate() {
                let due_at = start + Duration::from_secs_f64(at_s);
                wait_until(due_at);
                late_ms.push(due_at.elapsed().as_secs_f64() * 1e3);
                let l = &mut lanes[lane];
                let row = l.advance(1);
                let expect = pool.expect[row.start];
                let frame = pool.frames.view_rows(row);
                let outcome = match spans.as_deref_mut() {
                    Some(tracer) => {
                        Spanned { inner: &mut *client, tracer, request: request as u64 }
                            .push(l.cluster, frame)
                    }
                    None => client.push(l.cluster, frame),
                };
                match outcome.map_err(err)? {
                    PushOutcome::Accepted(1) => due[lane].push((due_at, expect)),
                    refused => return Err(format!("push refused: {refused:?}")),
                }
            }
            Ok((due, late_ms))
        };
        let generated = generate();
        // Always tell the receiver how much to expect, or it never ends.
        // (A receiver that has already failed says so through `join`.)
        let pushed = generated.as_ref().map_or(0, |(due, _)| due.iter().map(Vec::len).sum());
        let _ = done_tx.send(pushed);
        let deliveries = receiver.join().expect("receiver thread panicked")?;
        let (due, late_ms) = generated?;
        Ok::<_, String>((deliveries, due, late_ms))
    })?;

    // A delivered row answers the oldest unanswered push of its cluster
    // whose frame the direct codec reconstructs to the same bits.
    let mut latency_ms = Vec::new();
    let mut reordered_rows = 0;
    for (lane, pushes) in due.iter().enumerate() {
        let cluster = lanes[lane].cluster;
        let mut unanswered: BTreeMap<u64, VecDeque<usize>> = BTreeMap::new();
        for (k, (_, digest)) in pushes.iter().enumerate() {
            unanswered.entry(*digest).or_default().push_back(k);
        }
        let mut newest = None;
        for (_, at, digests) in deliveries.iter().filter(|(l, ..)| *l == lane) {
            for digest in digests {
                let Some(k) = unanswered.get_mut(digest).and_then(VecDeque::pop_front) else {
                    return Err(format!(
                        "cluster {cluster}: a delivered row ({digest:016x}) is not the direct \
                         codec's output for any unanswered push"
                    ));
                };
                latency_ms.push(at.saturating_duration_since(pushes[k].0).as_secs_f64() * 1e3);
                reordered_rows += usize::from(newest.is_some_and(|n| k < n));
                newest = newest.max(Some(k));
            }
        }
        let missing: usize = unanswered.values().map(VecDeque::len).sum();
        if missing != 0 {
            return Err(format!("cluster {cluster}: {missing} pushed frames never came back"));
        }
    }
    latency_ms.sort_by(f64::total_cmp);
    let mut late_ms = late_ms;
    late_ms.sort_by(f64::total_cmp);
    Ok(OpenLoop { latency_ms, late_ms, deliveries: deliveries.len(), reordered_rows })
}

/// Runs the workload.
///
/// # Errors
///
/// Any correctness-gate failure or error from the program under test.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let seed = ctx.seed;
    // Per client and trial: one drain cycle, so a run fits many trials.
    let trial_frames = ctx.scale(1024, 256);
    let session = |cal: &mut _| timed_setups(1, cal, || setup(seed, trial_frames.min(1024)));
    if ctx.traced {
        let (state, _) = session(&mut ctx.cal)?;
        return traced(ctx, state, trial_frames);
    }

    // A session is a fresh server with fresh connections. Where the
    // scheduler settles a session's six threads on the two cores is drawn
    // once a session and moves its closed-loop rate by several per cent,
    // so the run measures every phase in each of its sessions — the ones
    // `setup_s` needs anyway — and pools the trials: run-to-run spread of
    // the one-frame rate fell from 9-16 % of the median to under 5 %.
    let sessions = ctx.setups();
    let share = ctx.seconds / sessions as f64;
    let mut open = OpenLoop::default();
    let (mut setup_s, mut primary, mut contrast) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_trial = 0;
    for _ in 0..sessions {
        let (mut state, took) = session(&mut ctx.cal)?;
        setup_s.extend(took);
        open.absorb(open_loop(&mut state, 1000.0, 0.2 * share, seed, None)?);
        per_trial = (state.clients.len() * trial_frames) as u64;
        primary.extend(trials(0.45 * share, 3, &mut ctx.cal, || {
            state.closed_trial(1, trial_frames, None)
        })?);
        contrast.extend(trials(0.3 * share, 3, &mut ctx.cal, || {
            state.closed_trial(CHUNK, trial_frames, None)
        })?);
    }
    ctx.report.ops("open loop, 1000 pushes/s", open.latency_ms.len() as u64, 0);
    warn_if_late(&open);
    println!(
        "  open loop: {} rows arrived after a later push of their cluster",
        open.reordered_rows
    );
    ctx.report.ops("closed loop, 1 frame per push", primary.len() as u64 * per_trial, 0);
    ctx.report.ops("closed loop, 64 frames per push", contrast.len() as u64 * per_trial, 0);

    let r = &mut ctx.report;
    r.set_rate("primary_per_s", &primary, "closed-loop frames/s, 2 connections, 1 frame per push");
    r.set_rate(
        "contrast_per_s",
        &contrast,
        "closed-loop frames/s, 2 connections, 64 frames per push",
    );
    r.set(
        "latency_p50_ms",
        percentile(&open.latency_ms, 50.0),
        &format!("open loop 1000/s, due -> delivered p50, n {}", open.latency_ms.len()),
    );
    r.set_setup(&setup_s, "inputs + server + connection + references + warm-up");
    Ok(())
}

/// The latency already charges lateness to the pushes it delays, so a
/// late generator does not void the run; it does mean the host, not the
/// gateway, set part of the number.
fn warn_if_late(open: &OpenLoop) {
    let p99 = percentile(&open.late_ms, 99.0);
    if p99 > 1.0 {
        println!("  WARNING: generator ran late (p99 {p99:.3} ms > 1 ms); read this phase's latency with care");
    }
}

fn traced(ctx: &mut Ctx, mut state: State, trial_frames: usize) -> Result<(), String> {
    let seed = ctx.seed;
    let before = state.server.gateway.stats();
    let r1000 = open_loop(&mut state, 1000.0, 0.3 * ctx.seconds, seed, Some(&mut ctx.tracer))?;
    let after = state.server.gateway.stats();
    warn_if_late(&r1000);
    let r4000 = open_loop(&mut state, 4000.0, 0.3 * ctx.seconds, seed, None)?;
    warn_if_late(&r4000);
    ctx.report.ops(
        "open loop, 1000 then 4000 pushes/s",
        (r1000.latency_ms.len() + r4000.latency_ms.len()) as u64,
        0,
    );

    // Each round: a plain closed-loop trial, then one with a span around
    // each client call.
    let mut closed_spans = Tracer::new(ctx.tracer.epoch());
    let shared = std::cell::RefCell::new(&mut state);
    let mut plain = || shared.borrow_mut().closed_trial(1, trial_frames, None);
    let mut spanned = || shared.borrow_mut().closed_trial(1, trial_frames, Some(&mut closed_spans));
    let timed = rounds(0.3 * ctx.seconds, 2, &mut ctx.cal, &mut [&mut plain, &mut spanned])?;
    let untraced_fps = 1.0 / raw_median(&timed[0]);
    ctx.report.ops(
        "closed loop, plain and spanned",
        (2 * timed[0].len() * state.clients.len() * trial_frames) as u64,
        0,
    );
    let State { cfg, pool, clients, .. } = &mut state;
    let n_clients = clients.len() as f64;
    let client = &mut clients[0];
    let mut rtt_spans = Tracer::new(ctx.tracer.epoch());
    for request in 0..ctx.scale(400, 40) as u64 {
        rtt_spans.span("client.version_info", request, || client.version_info()).map_err(err)?;
    }

    let r = &mut ctx.report;
    r.set("trace.untraced_per_s", untraced_fps, "closed-loop frames/s, no spans (raw)");
    r.set(
        "trace.overhead_share",
        paired(&timed[0], &timed[1], |plain, spanned| 1.0 - plain / spanned),
        "throughput lost to client spans, median over rounds",
    );
    r.set(
        "client.push_us",
        closed_spans.median_s("client.push") * 1e6,
        "median closed-loop Client::push, 1 frame, 2 connections",
    );
    r.set(
        "client.pull_us",
        closed_spans.median_s("client.pull") * 1e6,
        "median closed-loop Client::pull, 64 rows, 2 connections",
    );
    r.set(
        "transport.tcp_rtt_us",
        rtt_spans.median_s("client.version_info") * 1e6,
        "median Client::version_info round trip",
    );
    report_gateway_counters(r, &before, &after);
    let rows = r1000.latency_ms.len() as f64;
    r.set("stream.deliveries", r1000.deliveries as f64, "StreamFrames received at 1000/s");
    r.set("stream.rows_per_delivery", rows / r1000.deliveries as f64, "at 1000/s");
    r.set(
        "stream.reordered_rows",
        (r1000.reordered_rows + r4000.reordered_rows) as f64,
        "rows that arrived after a later push of their cluster, 1000/s and 4000/s",
    );
    r.set("gen.late_p99_ms", percentile(&r1000.late_ms, 99.0), "due -> sent at 1000/s");
    r.set("gen.late_max_ms", percentile(&r1000.late_ms, 100.0), "due -> sent at 1000/s");
    for (name, phase) in [("lat_tail_ms.r1000", &r1000), ("lat_tail_ms.r4000", &r4000)] {
        let (p, value) = tail(&phase.latency_ms);
        r.set(name, value, &format!("due -> delivered p{p}, n {}", phase.latency_ms.len()));
    }
    r.set(
        "lat_p50_ms.r4000",
        percentile(&r4000.latency_ms, 50.0),
        &format!(
            "due -> delivered p50, n {} (r1000 p50 {:.4} ms)",
            r4000.latency_ms.len(),
            percentile(&r1000.latency_ms, 50.0)
        ),
    );
    // A coarse budget of a closed-loop frame's core time, reported and
    // not asserted: one push round trip and 1/64 of a pull round trip on
    // the wire, the codec replayed bare, and the rest (dispatch, writer
    // thread, batch wait) as the residual. The clients keep a core busy
    // each, so a frame has that many core-seconds of wall time to
    // account for.
    let rtt_s = rtt_spans.median_s("client.version_info");
    let (enc_s, dec_s) = bare_codec_s(pool, cfg, CHUNK)?;
    let frame_s = n_clients / untraced_fps;
    let shares = [rtt_s * (1.0 + 1.0 / CHUNK as f64), enc_s / CHUNK as f64, dec_s / CHUNK as f64]
        .map(|s| s / frame_s);
    r.set("budget.client_share", shares[0], "socket round trips at the idle RTT");
    r.set("budget.encode_share", shares[1], "encode_batch at 64 rows");
    r.set("budget.decode_share", shares[2], "decode_batch at 64 rows");
    r.set(
        "budget.residual_share",
        1.0 - shares.iter().sum::<f64>(),
        "dispatch, threads, batch wait (not asserted)",
    );
    ctx.tracer.absorb(closed_spans);
    ctx.tracer.absorb(rtt_spans);
    r.set("trace.spans", ctx.tracer.len() as f64, "spans recorded");
    r.set("host.factor", ctx.cal.median_factor(), "median host factor over the run's trials");
    Ok(())
}
