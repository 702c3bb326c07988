//! Streaming-pull integration tests: a subscribed connection receives
//! decoded batches pushed through its outbox (no polling), the backlog
//! stored at subscribe time is streamed immediately, streamed bytes are
//! bit-identical to what a pull would have returned, and unsubscribing
//! stops the flow.

use std::sync::Arc;
use std::time::Duration;

use orco_serve::{Client, Clock, Gateway, GatewayConfig, Loopback, PushOutcome};
use orco_tensor::{Matrix, OrcoRng};
use orcodcs::{AsymmetricAutoencoder, Codec, OrcoConfig};

const CLUSTER: u64 = 42;
const DIM: usize = 784;

fn gateway() -> Arc<Gateway> {
    let cfg = OrcoConfig::for_dataset(orco_datasets::DatasetKind::MnistLike)
        .with_latent_dim(16)
        .with_seed(11);
    Arc::new(
        Gateway::new(
            GatewayConfig { batch_max_frames: 4, ..GatewayConfig::default() },
            Clock::manual(Duration::from_micros(100)),
            move |_| {
                Box::new(AsymmetricAutoencoder::new(&cfg).expect("valid config")) as Box<dyn Codec>
            },
        )
        .expect("valid gateway"),
    )
}

fn frames(rows: usize, seed: u64) -> Matrix {
    let mut rng = OrcoRng::from_seed_u64(seed);
    Matrix::from_fn(rows, DIM, |_, _| rng.uniform(0.0, 1.0))
}

fn recv_rows(client: &mut Client<impl orco_serve::Connection>, want: usize) -> Matrix {
    let mut got = Matrix::zeros(0, DIM);
    while got.rows() < want {
        let (cluster, chunk) = client
            .recv_streamed(Duration::from_secs(5))
            .expect("stream healthy")
            .expect("a delivery arrives in time");
        assert_eq!(cluster, CLUSTER);
        let mut stacked = Matrix::zeros(got.rows() + chunk.rows(), DIM);
        for r in 0..got.rows() {
            stacked.row_mut(r).copy_from_slice(got.row(r));
        }
        for r in 0..chunk.rows() {
            stacked.row_mut(got.rows() + r).copy_from_slice(chunk.row(r));
        }
        got = stacked;
    }
    got
}

/// Pushes after `Subscribe` are streamed to the subscriber without any
/// poll, in push order, and the streamed bytes match what the same
/// gateway run would have served via pulls.
#[test]
fn subscribed_connection_receives_decoded_rows_without_polling() {
    let input = frames(10, 0xBEEF);

    // Reference run: same gateway config, plain pulls.
    let reference = {
        let gw = gateway();
        let mut c = Client::connect(&Loopback::new(gw)).expect("connects");
        c.hello(0).expect("hello");
        assert_eq!(c.push(CLUSTER, input.as_view()).expect("push"), PushOutcome::Accepted(10));
        let mut got = Matrix::zeros(0, DIM);
        while got.rows() < 10 {
            let chunk = c.pull(CLUSTER, 4).expect("pull");
            if chunk.rows() == 0 {
                continue;
            }
            let mut stacked = Matrix::zeros(got.rows() + chunk.rows(), DIM);
            for r in 0..got.rows() {
                stacked.row_mut(r).copy_from_slice(got.row(r));
            }
            for r in 0..chunk.rows() {
                stacked.row_mut(got.rows() + r).copy_from_slice(chunk.row(r));
            }
            got = stacked;
        }
        got
    };

    // Streaming run: subscribe first, then push; rows arrive unasked.
    let gw = gateway();
    let mut c = Client::connect(&Loopback::new(gw)).expect("connects");
    c.hello(0).expect("hello");
    assert_eq!(c.subscribe(CLUSTER).expect("subscribe"), 0, "nothing stored yet");
    assert_eq!(c.push(CLUSTER, input.as_view()).expect("push"), PushOutcome::Accepted(10));
    let streamed = recv_rows(&mut c, 10);

    assert_eq!(streamed.rows(), 10);
    for r in 0..10 {
        assert_eq!(
            streamed.row(r),
            reference.row(r),
            "streamed row {r} must be bit-identical to the pulled row"
        );
    }
}

/// Rows already decoded and stored at subscribe time are announced as
/// backlog and streamed immediately after the ack.
#[test]
fn subscribe_streams_the_stored_backlog_first() {
    let gw = gateway();
    let mut c = Client::connect(&Loopback::new(gw)).expect("connects");
    c.hello(0).expect("hello");
    // 8 rows = two full micro-batches: decoded and stored before the
    // subscription exists.
    assert_eq!(c.push(CLUSTER, frames(8, 3).as_view()).expect("push"), PushOutcome::Accepted(8));
    let backlog = c.subscribe(CLUSTER).expect("subscribe");
    assert_eq!(backlog, 8, "stored rows must be announced as backlog");
    assert_eq!(recv_rows(&mut c, 8).rows(), 8);
}

/// After `Unsubscribe`, new pushes stay stored for pulls instead of
/// being streamed — and nothing is lost or duplicated across the switch.
#[test]
fn unsubscribe_stops_the_stream_and_rows_fall_back_to_pulls() {
    let gw = gateway();
    let mut c = Client::connect(&Loopback::new(gw)).expect("connects");
    c.hello(0).expect("hello");

    c.subscribe(CLUSTER).expect("subscribe");
    c.push(CLUSTER, frames(4, 5).as_view()).expect("push");
    assert_eq!(recv_rows(&mut c, 4).rows(), 4);

    c.unsubscribe(CLUSTER).expect("unsubscribe");
    c.push(CLUSTER, frames(4, 6).as_view()).expect("push");
    assert_eq!(
        c.recv_streamed(Duration::from_millis(50)).expect("stream healthy"),
        None,
        "no deliveries after unsubscribe"
    );
    let mut pulled = 0;
    while pulled < 4 {
        pulled += c.pull(CLUSTER, 4).expect("pull").rows();
    }
    assert_eq!(pulled, 4, "exactly the post-unsubscribe rows are stored");

    // A subscriber whose connection is dropped, with no `Unsubscribe`,
    // ends its subscription the same way: later rows stay stored ...
    let transport = Loopback::new(gateway());
    let mut pusher = Client::connect(&transport).expect("connects");
    let mut gone = Client::connect(&transport).expect("connects");
    gone.subscribe(CLUSTER).expect("subscribe");
    pusher.push(CLUSTER, frames(4, 7).as_view()).expect("push");
    assert_eq!(recv_rows(&mut gone, 4).rows(), 4);
    drop(gone);
    pusher.push(CLUSTER, frames(8, 8).as_view()).expect("push");
    // ... are pullable ...
    assert_eq!(pusher.pull(CLUSTER, 3).expect("pull").rows(), 3);
    // ... and the rest reach a second subscriber as its backlog.
    let mut second = Client::connect(&transport).expect("connects");
    assert_eq!(second.subscribe(CLUSTER).expect("subscribe"), 5);
    assert_eq!(recv_rows(&mut second, 5).rows(), 5);
    assert_eq!(pusher.pull(CLUSTER, 8).expect("pull").rows(), 0, "delivered rows are not stored");
    // Two live subscribers each get every row.
    let mut third = Client::connect(&transport).expect("connects");
    assert_eq!(third.subscribe(CLUSTER).expect("subscribe"), 0);
    pusher.push(CLUSTER, frames(4, 9).as_view()).expect("push");
    assert_eq!(recv_rows(&mut second, 4), recv_rows(&mut third, 4));
}

/// The written guarantee that a virtual-clock schedule — loopback, the
/// DES, every golden tape — cannot see the deadline timer's early flush:
/// under `Clock::manual` nothing runs that timer, so a subscribed
/// cluster's row parked below the size threshold waits out the whole
/// `batch_deadline` of virtual time, to the tick, and the sweep delivers
/// it.
#[test]
fn under_a_virtual_clock_a_subscribed_row_waits_out_the_whole_deadline() {
    const TICK: Duration = Duration::from_micros(100);
    let gw = gateway();
    let deadline = gw.config().batch_deadline;
    let mut c = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("connects");
    assert_eq!(c.subscribe(CLUSTER).expect("subscribe"), 0);
    assert_eq!(c.push(CLUSTER, frames(1, 21).as_view()).expect("push"), PushOutcome::Accepted(1));

    gw.advance_clock(deadline - TICK);
    assert_eq!(c.recv_streamed(Duration::ZERO).expect("stream healthy"), None, "a tick early");
    assert_eq!(gw.stats().queue_depth, 1);
    gw.advance_clock(TICK);
    assert_eq!(recv_rows(&mut c, 1).rows(), 1);
    assert_eq!(gw.stats().deadline_flushes, 1);
}

/// A subscriber whose connection vanished with no `Unsubscribe` is still
/// listed until a delivery finds it dead, so it makes one more batch of
/// its cluster wanted — and no batch after that one's flush: the timer
/// leaves those to the configured deadline, as for any pull-only cluster.
#[test]
fn a_vanished_subscriber_makes_at_most_one_more_batch_wanted() {
    let gw = gateway();
    let shard = gw.shard_of(CLUSTER);
    let wanted = |gw: &Gateway| gw.gate_check()[shard][1][1];
    let transport = Loopback::new(Arc::clone(&gw));
    let mut pusher = Client::connect(&transport).expect("connects");
    let mut gone = Client::connect(&transport).expect("connects");
    assert_eq!(gone.subscribe(CLUSTER).expect("subscribe"), 0);
    drop(gone);
    // One timer, as the TCP server would run it; no flush costs virtual
    // time, so its hold stays 0 and a wanted batch is flushed on sight.
    let mut hold_s = vec![0.0; gw.config().shards];

    pusher.push(CLUSTER, frames(1, 31).as_view()).expect("push");
    assert!(wanted(&gw).is_some(), "the dead subscription is still listed");
    gw.timer_step(&mut hold_s);
    assert_eq!((gw.stats().queue_depth, gw.stats().deadline_flushes), (0, 1));

    pusher.push(CLUSTER, frames(1, 32).as_view()).expect("push");
    assert_eq!(wanted(&gw), None, "the flush forgot the dead subscription");
    gw.timer_step(&mut hold_s);
    assert_eq!((gw.stats().queue_depth, gw.stats().deadline_flushes), (1, 1));
    gw.advance_clock(gw.config().batch_deadline);
    assert_eq!(pusher.pull(CLUSTER, 8).expect("pull").rows(), 2, "both rows stayed stored");
}

/// Per-cluster FIFO on the streamed path with a second thread in the
/// gateway. One thread pushes single-row batches (every push is a size
/// flush, delivered by the flush itself) while a second hammers
/// `advance_clock(Duration::ZERO)` — a bare deadline sweep. When delivery
/// was a pump that ran after the flush had released the shard, the hammer
/// could take a row out of the store in between, and the pusher's *next*
/// row then reached the outbox first. A flush now delivers under the
/// shard lock it stored under, so there is no in-between. The streamed
/// rows must be the direct codec's output, row for row, in push order.
#[test]
fn streamed_rows_keep_push_order_under_concurrent_pumps() {
    use orco_serve::scenarios::codec_config;
    use std::sync::mpsc::{channel, TryRecvError};

    const ROWS: usize = 2_000;
    const ROUNDS: u64 = 20;
    let cfg = codec_config(11);
    let dim = cfg.input_dim;
    let gw = Arc::new(
        Gateway::new(
            GatewayConfig { batch_max_frames: 1, ..GatewayConfig::default() },
            Clock::manual(Duration::from_micros(100)),
            |_| Box::new(AsymmetricAutoencoder::new(&cfg).expect("valid config")) as Box<dyn Codec>,
        )
        .expect("valid gateway"),
    );
    let mut direct = AsymmetricAutoencoder::new(&cfg).expect("valid config");
    let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("connects");
    client.subscribe(CLUSTER).expect("subscribe");

    for round in 0..ROUNDS {
        // Row r carries its push counter, so neighbouring rows differ.
        let pushes = Matrix::from_fn(ROWS, dim, |r, c| {
            ((round as usize * ROWS + r) % 977) as f32 / 977.0 + c as f32 / 64.0
        });
        let (stop, stopped) = channel::<()>();
        std::thread::scope(|scope| {
            let gw = &gw;
            scope.spawn(move || {
                while stopped.try_recv() == Err(TryRecvError::Empty) {
                    gw.advance_clock(Duration::ZERO);
                }
            });
            for r in 0..ROWS {
                let outcome = client.push(CLUSTER, pushes.view_rows(r..r + 1)).expect("push");
                assert_eq!(outcome, PushOutcome::Accepted(1));
            }
            drop(stop);
        });

        let mut streamed = Vec::with_capacity(ROWS * dim);
        while let Some((cluster, rows)) =
            client.recv_streamed(Duration::ZERO).expect("stream healthy")
        {
            assert_eq!(cluster, CLUSTER);
            streamed.extend_from_slice(rows.as_slice());
        }
        let (mut codes, mut expected) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        direct.encode_batch(pushes.as_view(), &mut codes).expect("frames fit the codec");
        direct.decode_batch(codes.as_view(), &mut expected).expect("codes fit the codec");
        assert_eq!(streamed.len(), ROWS * dim, "round {round}: every pushed row is streamed once");
        for r in 0..ROWS {
            assert_eq!(
                streamed[r * dim..(r + 1) * dim].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                expected.row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "round {round}: streamed row {r} is not push {r}'s reconstruction"
            );
        }
    }
}

/// What one cluster's subscriber received over the pinned schedule.
#[derive(Debug, Default, PartialEq)]
struct Streamed {
    rows: usize,
    /// `fnv1a64` of the rows' bit patterns (little-endian), in arrival
    /// order.
    bits: u64,
    /// The version tag of every row as `(version, consecutive rows)`
    /// runs, so the pin does not depend on where one delivery ends and
    /// the next begins.
    versions: Vec<(u64, usize)>,
}

fn le_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect()
}

/// Golden values of the streamed path: one thread, a manual clock, and a
/// fixed schedule over three subscribed clusters on two shards (and one
/// unsubscribed neighbour) that takes a flush for every reason — size, a
/// deadline sweep through `advance_clock`, a sweep inside the dispatch
/// whose push then size-flushes the same shard, a pull-triggered flush,
/// the swap flush of a mid-stream rollout, a backlog that spans the two
/// model versions, `unsubscribe`, and the drain of `shutdown`.
///
/// Pinned per cluster, and the trace export as *sorted* lines: a
/// cluster's rows in push order and their version tags are the streamed
/// path's contract (clients key on `cluster_id`); how the deliveries of
/// different clusters — or of different shards under one sweep —
/// interleave on a connection is not, and neither is how many
/// `StreamFrames` carry a run of rows. The constants were measured when
/// delivery was a pump over a gateway-wide subscriber registry, before it
/// moved into the shard's flush; a change to the gateway may edit this
/// test's imports and comments, never its constants.
#[test]
fn a_fixed_streamed_schedule_matches_its_golden_values() {
    use orco_serve::scenarios::codec_config;
    use orco_serve::{Message, ModelVersion};
    use orco_tensor::fnv1a64;

    const WIDTH: usize = 32;
    // A, B and C subscribe; NEIGHBOUR shares A's shard and never does.
    const A: u64 = 3;
    const B: u64 = 19;
    const C: u64 = 42;
    const NEIGHBOUR: u64 = 7;

    let cfg = codec_config(11);
    let gw = Arc::new(
        Gateway::new(
            GatewayConfig { shards: 2, batch_max_frames: 6, ..GatewayConfig::default() },
            Clock::manual(Duration::from_micros(100)),
            |_| Box::new(AsymmetricAutoencoder::new(&cfg).expect("valid config")) as Box<dyn Codec>,
        )
        .expect("valid gateway"),
    );
    assert_eq!([A, B, C, NEIGHBOUR].map(|c| gw.shard_of(c)), [0, 0, 1, 0]);
    let mut c = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("connects");
    c.hello(1).expect("hello");
    let mut rng = OrcoRng::from_seed_u64(0x57EA);
    let mut push = |c: &mut Client<_>, cluster: u64, rows: usize| {
        let frames = Matrix::from_fn(rows, WIDTH, |_, _| rng.uniform(0.0, 1.0));
        let outcome = c.push(cluster, frames.as_view()).expect("push");
        assert_eq!(outcome, PushOutcome::Accepted(rows as u32));
    };
    let past_the_deadline = Duration::from_millis(6);

    assert_eq!(c.subscribe(A).expect("subscribe"), 0);
    assert_eq!(c.subscribe(C).expect("subscribe"), 0);
    // B subscribes late; until then its rows wait in the store.
    push(&mut c, B, 6); // a size flush
    push(&mut c, B, 1);
    push(&mut c, A, 3);
    push(&mut c, C, 2);
    // One sweep flushes both shards: A and C stream, B's row is stored.
    gw.advance_clock(past_the_deadline);
    push(&mut c, C, 7);
    // Time passes unswept, so the next dispatch flushes shard 0 twice:
    // the sweep takes A's overdue rows, then the push fills a batch.
    push(&mut c, A, 2);
    gw.clock().advance(past_the_deadline);
    push(&mut c, A, 6);
    // A pull for the neighbour flushes the batch it shares with A.
    push(&mut c, A, 1);
    push(&mut c, NEIGHBOUR, 2);
    let pulled_neighbour = c.pull(NEIGHBOUR, 8).expect("pull");
    // A rollout mid-stream: what is pending flushes under version 0.
    push(&mut c, A, 2);
    push(&mut c, B, 1);
    push(&mut c, C, 3);
    let donor = AsymmetricAutoencoder::new(&codec_config(99))
        .expect("valid config")
        .checkpoint()
        .expect("autoencoder codecs checkpoint");
    let v1 = ModelVersion { id: 1, label: "retrain-99".into(), frame_dim: 32, code_dim: 8 };
    c.propose_rollout(v1, &donor).expect("propose");
    c.activate_version(1).expect("activate");
    push(&mut c, A, 6);
    push(&mut c, B, 6);
    // B's backlog spans the swap: 8 rows of version 0, then 6 of version 1.
    assert_eq!(c.subscribe(B).expect("subscribe"), 14);
    push(&mut c, C, 1);
    push(&mut c, B, 2);
    gw.advance_clock(past_the_deadline);
    // Unsubscribed, A's rows wait for a pull again.
    c.unsubscribe(A).expect("unsubscribe");
    push(&mut c, A, 6);
    let (pulled_a_version, pulled_a) = c.pull_versioned(A, 8).expect("pull");
    // Shutdown drains what is pending to the subscribers that remain.
    push(&mut c, B, 1);
    push(&mut c, C, 2);
    c.shutdown().expect("shutdown");

    let mut streamed = [A, B, C].map(|cluster| (cluster, Streamed::default(), Vec::new()));
    while let Some((cluster, version, frames)) =
        c.recv_streamed_versioned(Duration::ZERO).expect("stream healthy")
    {
        let (_, got, bytes) =
            streamed.iter_mut().find(|(c, ..)| *c == cluster).expect("a subscribed cluster");
        got.rows += frames.rows();
        bytes.extend(le_bytes(frames.as_slice()));
        match got.versions.last_mut() {
            Some((v, n)) if *v == version => *n += frames.rows(),
            _ => got.versions.push((version, frames.rows())),
        }
    }
    let streamed =
        streamed.map(|(cluster, got, bytes)| (cluster, Streamed { bits: fnv1a64(&bytes), ..got }));
    let golden = |rows, bits, versions: &[_]| Streamed { rows, bits, versions: versions.to_vec() };
    assert_eq!(
        streamed,
        [
            (A, golden(20, 0xa148_8953_1573_fb99, &[(0, 14), (1, 6)])),
            (B, golden(17, 0xaa6f_c5ac_ec1f_4395, &[(0, 8), (1, 9)])),
            (C, golden(15, 0x8124_7ad0_f44f_48a6, &[(0, 12), (1, 3)])),
        ]
    );
    assert_eq!(
        (pulled_neighbour.rows(), fnv1a64(&le_bytes(pulled_neighbour.as_slice()))),
        (2, 0xc12b_5557_f30c_cc67)
    );
    assert_eq!(
        (pulled_a_version, pulled_a.rows(), fnv1a64(&le_bytes(pulled_a.as_slice()))),
        (1, 6, 0xd9c8_1633_f9c3_1a95)
    );

    let snap = gw.stats();
    assert_eq!((snap.frames_in, snap.frames_out, snap.streamed_rows), (60, 60, 52));
    assert_eq!(
        [
            snap.size_flushes,
            snap.deadline_flushes,
            snap.pull_flushes,
            snap.swap_flushes,
            snap.drain_flushes
        ],
        [6, 5, 1, 2, 2]
    );
    let stats = gw.handle(Message::StatsRequest).encode();
    assert_eq!((stats.len(), fnv1a64(&stats)), (255, 0x67ed_947a_a7fd_a3cc));

    let export = gw.trace_export();
    let mut trace: Vec<&str> = export.lines().collect();
    trace.sort_unstable();
    assert_eq!((trace.len(), fnv1a64(trace.join("\n").as_bytes())), (99, 0x6b58_a46b_500e_6503));
}
