//! The serving layer's liveness contract, property-tested: **every
//! `PushAck`'d frame becomes pullable within `batch_deadline`** of
//! virtual (or real) time passing — under arbitrary interleavings of
//! pushes and pulls, on all three transports (in-process loopback,
//! DES-impaired links, real TCP).
//!
//! This is the contract the deadline-starvation bug violated: a batch
//! parked on a shard no later request touched was stuck forever. The
//! sweep-on-dispatch/advance fix makes the bound hold regardless of
//! which shard subsequent traffic lands on.
//!
//! The sweep decides from a lock-free mirror of each shard's pending
//! batch, which the gateway's one door writes before it releases a
//! shard's lock; the same schedules assert, after every step, that each
//! mirror equals the locked state it mirrors ([`Gateway::gate_check`]).
//! With no `debug_assert` behind it, that check is the mirror's only
//! guard, so CI also runs this file in release, the profile the
//! benchmark measures.
//!
//! Under a real clock the deadline timer also flushes a batch a
//! subscriber is waiting on *early*. The schedules take turns of that
//! timer ([`Gateway::timer_step`]) between their other steps — under a
//! virtual clock a flush costs no time, so every turn flushes every
//! wanted batch at once, the most eager the timer can be — and the same
//! assertions must hold wherever an early flush lands. Subscribes and
//! unsubscribes are steps too: a batch made wanted by a subscriber who
//! then leaves must still be flushed by the deadline.

use std::sync::Arc;
use std::time::Duration;

use orco_serve::scenarios::codec_config;
use orco_serve::{
    Client, Clock, Connection, DesConfig, DesNet, DesTransport, Gateway, GatewayConfig, Loopback,
    PushOutcome, Tcp, TcpServer,
};
use orco_sim::LinkParams;
use orco_tensor::{Matrix, OrcoRng};
use orcodcs::{AsymmetricAutoencoder, Codec};
use proptest::prelude::*;
use proptest::BoxedStrategy;

/// The loopback clock's quantum per dispatched message.
const TICK: Duration = Duration::from_micros(100);
const DEADLINE: Duration = Duration::from_millis(5);
/// Deadlines the schedules draw from, in ticks: every pending batch is
/// always overdue, overdue one message later, or (= [`DEADLINE`]) rarely.
const DEADLINE_TICKS: [u32; 3] = [0, 1, 50];
const CLUSTERS: [u64; 4] = [3, 19, 42, 1001];
/// Frame width of the gauntlet codec ([`codec_config`]).
const DIM: usize = 32;

fn gateway(clock: Clock, batch_deadline: Duration) -> Arc<Gateway> {
    let cfg = codec_config(11);
    Arc::new(
        Gateway::new(
            GatewayConfig {
                shards: 2,
                batch_max_frames: 8,
                batch_deadline,
                queue_capacity: 4096,
                auth_secret: None,
                trace_capacity: 4096,
                ..GatewayConfig::default()
            },
            clock,
            move |_| {
                Box::new(AsymmetricAutoencoder::new(&cfg).expect("valid config")) as Box<dyn Codec>
            },
        )
        .expect("valid gateway"),
    )
}

/// One step of a schedule: push `rows` frames to a cluster, pull a
/// chunk from it, subscribe the connection to it or unsubscribe it, let
/// virtual time pass with no traffic, or give the deadline timer a turn.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push { cluster: usize, rows: usize },
    Pull { cluster: usize },
    Subscribe { cluster: usize },
    Unsubscribe { cluster: usize },
    Advance { ticks: u32 },
    TimerStep,
}

fn any_schedule() -> BoxedStrategy<Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..CLUSTERS.len(), 1usize..5)
                .prop_map(|(cluster, rows)| Op::Push { cluster, rows }),
            (0usize..CLUSTERS.len()).prop_map(|cluster| Op::Pull { cluster }),
            (0usize..CLUSTERS.len()).prop_map(|cluster| Op::Subscribe { cluster }),
            (0usize..CLUSTERS.len()).prop_map(|cluster| Op::Unsubscribe { cluster }),
            (0u32..60).prop_map(|ticks| Op::Advance { ticks }),
            Just(Op::TimerStep),
        ],
        1..40,
    )
    .boxed()
}

/// Each shard's lock-free gate must say what its locked core holds.
fn assert_gates_mirror_the_cores(gw: &Gateway, after: &dyn std::fmt::Debug) {
    for (shard, [mirror, truth]) in gw.gate_check().into_iter().enumerate() {
        prop_assert_eq!(mirror, truth, "shard {}: gate != core after {:?}", shard, after);
    }
}

/// Counts the rows streamed to `client` so far into `delivered`.
fn drain_streamed<C: Connection>(client: &mut Client<C>, delivered: &mut [usize]) {
    while let Some((cluster, rows)) = client.recv_streamed(Duration::ZERO).expect("stream") {
        let i = CLUSTERS.iter().position(|&c| c == cluster).expect("a scheduled cluster");
        delivered[i] += rows.rows();
    }
}

/// Runs `schedule` through a client, then advances virtual time past the
/// deadline and asserts every acked frame is delivered: pullable, or
/// already streamed where the schedule subscribed.
fn assert_liveness<C: Connection>(
    gw: &Gateway,
    client: &mut Client<C>,
    schedule: &[Op],
    seed: u64,
) {
    let mut rng = OrcoRng::from_seed_u64(seed);
    let mut acked = [0usize; CLUSTERS.len()];
    let mut pulled = [0usize; CLUSTERS.len()];
    // The timer's state: no flush costs virtual time, so it stays 0.
    let mut hold_s = vec![0.0; gw.config().shards];
    for op in schedule {
        match *op {
            Op::Push { cluster, rows } => {
                let frames = Matrix::from_fn(rows, DIM, |_, _| rng.uniform(0.0, 1.0));
                match client.push(CLUSTERS[cluster], frames.as_view()).expect("push") {
                    PushOutcome::Accepted(n) => acked[cluster] += n as usize,
                    PushOutcome::Busy { .. } => {} // nothing admitted, nothing owed
                    PushOutcome::Redirected { .. } => unreachable!("no fleet view installed"),
                }
            }
            Op::Pull { cluster } => {
                pulled[cluster] += client.pull(CLUSTERS[cluster], 3).expect("pull").rows();
            }
            Op::Subscribe { cluster } => {
                // Refused on transports with no server-push channel (the
                // DES): a request like any other, and nothing changes.
                let _ = client.subscribe(CLUSTERS[cluster]);
            }
            Op::Unsubscribe { cluster } => {
                // Rows streamed before it stay counted; later flushes of
                // the cluster's rows are stored for the closing pulls.
                client.unsubscribe(CLUSTERS[cluster]).expect("unsubscribe");
            }
            Op::Advance { ticks } => gw.advance_clock(TICK * ticks),
            Op::TimerStep => {
                let sleep = gw.timer_step(&mut hold_s);
                prop_assert!(sleep <= Duration::from_millis(50), "timer sleeps {sleep:?}");
                for (shard, [[_, wanted], _]) in gw.gate_check().into_iter().enumerate() {
                    prop_assert_eq!(
                        wanted,
                        None,
                        "shard {}: a wanted batch outlived a turn",
                        shard
                    );
                }
            }
        }
        assert_gates_mirror_the_cores(gw, op);
    }

    // Let the deadline pass with NO further traffic, then sweep: every
    // acked-but-undelivered frame must now be stored and pullable.
    gw.advance_clock(gw.config().batch_deadline + Duration::from_millis(1));
    assert_gates_mirror_the_cores(gw, &"the closing advance");
    drain_streamed(client, &mut pulled);
    for (i, &cluster) in CLUSTERS.iter().enumerate() {
        while pulled[i] < acked[i] {
            let got = client.pull(cluster, 64).expect("pull").rows();
            prop_assert!(
                got > 0,
                "cluster {cluster}: {} acked frames never became pullable (deadline \
                 starvation); schedule = {schedule:?}",
                acked[i] - pulled[i]
            );
            pulled[i] += got;
        }
        prop_assert_eq!(
            pulled[i],
            acked[i],
            "cluster {} delivered more rows than were acked (duplication)",
            cluster
        );
    }
    assert_gates_mirror_the_cores(gw, &"the closing pulls");
    let snap = gw.stats();
    prop_assert_eq!(snap.queue_depth, 0);
    prop_assert_eq!(snap.stored_codes, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Liveness on the in-process loopback transport (virtual clock).
    #[test]
    fn acked_frames_pullable_within_deadline_loopback(
        schedule in any_schedule(),
        deadline in 0usize..DEADLINE_TICKS.len(),
        seed in any::<u64>(),
    ) {
        let gw = gateway(Clock::manual(TICK), TICK * DEADLINE_TICKS[deadline]);
        let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("connects");
        assert_liveness(&gw, &mut client, &schedule, seed);
    }

    /// Liveness over DES-impaired links: 10% loss, jittered delays. The
    /// ARQ masks the impairments; the deadline bound must survive them.
    #[test]
    fn acked_frames_pullable_within_deadline_des(
        schedule in any_schedule(),
        deadline in 0usize..DEADLINE_TICKS.len(),
        seed in any::<u64>(),
    ) {
        let gw = gateway(Clock::manual(Duration::ZERO), TICK * DEADLINE_TICKS[deadline]);
        let net = DesNet::new(
            Arc::clone(&gw),
            DesConfig {
                link: LinkParams { delay_s: 0.001, jitter_s: 0.002, loss_prob: 0.1 },
                ..DesConfig::default()
            },
            seed,
        );
        let mut client = Client::connect(&DesTransport::new(net)).expect("connects");
        assert_liveness(&gw, &mut client, &schedule, seed);
    }
}

/// The same bound over real TCP with a real clock: frames parked below
/// the size threshold are flushed by the deadline timer, so a pull after
/// `deadline` (plus scheduling slack) sees them with no further pushes
/// anywhere.
#[test]
fn acked_frames_pullable_within_deadline_tcp() {
    let gw = gateway(Clock::real(), DEADLINE);
    let server = TcpServer::spawn(Arc::clone(&gw), "127.0.0.1:0").expect("binds");
    let transport = Tcp::new(server.local_addr().to_string());
    let mut client = Client::connect(&transport).expect("connects");
    client.hello(1).expect("hello");

    let mut rng = OrcoRng::from_seed_u64(7);
    for &cluster in &CLUSTERS {
        let frames = Matrix::from_fn(3, DIM, |_, _| rng.uniform(0.0, 1.0));
        assert_eq!(client.push(cluster, frames.as_view()).expect("push"), PushOutcome::Accepted(3));
    }

    // 3 rows < batch_max_frames = 8: only the deadline can flush these.
    // Generous slack over the 5 ms deadline for CI scheduling noise.
    #[allow(clippy::disallowed_methods)]
    // orco-lint: allow(wall-clock, reason = "patience timer bounding a real TCP server; this test runs outside the DES by design")
    let patience = std::time::Instant::now();
    for &cluster in &CLUSTERS {
        let mut got = 0;
        while got < 3 {
            got += client.pull(cluster, 8).expect("pull").rows();
            if got < 3 {
                assert!(
                    patience.elapsed() < Duration::from_secs(10),
                    "cluster {cluster}: frames not flushed within 10s of a 5ms deadline"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        assert_eq!(got, 3);
    }
    let mut control = Client::connect(&transport).expect("control");
    control.shutdown().expect("shutdown acked");
    server.join();
}
