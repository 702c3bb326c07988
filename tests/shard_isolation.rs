//! A request locks only the shard it serves, and a shard that panics fails
//! the gateway whole.
//!
//! Shard 1's codec parks inside `encode_batch` until the test releases
//! it, so the thread that filled shard 1's batch sits there *holding
//! shard 1's codec lock*. Everything a client can ask of a cluster on
//! shard 0 — hello, pushes, a pull, stats, a streamed delivery — must
//! complete while it does: a dispatch that took shard 1's lock to ask "is
//! a batch overdue?", or to deliver to a subscriber, would hang here until
//! the 10 s patience ran out.
//!
//! Nor may a push to shard 1 itself wait for that encode, unless it
//! fills the next batch: the encode runs under the shard's codec lock
//! alone, and a push takes only its core's. The parked batch also pins
//! what a shard owes the rows it is encoding: a pull sent meanwhile
//! returns all of them, once; they still count against the shard's
//! in-flight budget; and an encode that returns an error leaves every
//! acked row to the next flush, in push order.
//!
//! The same codec can panic there instead. The panic unwinds through
//! the gateway's door on whatever thread flushed — a pushing thread over
//! loopback, the deadline timer over TCP — and the gateway must fail
//! whole, at once and without a hang: it reports shutting down, refuses
//! pushes, still serves shard 0's stored rows, answers shard 1's cluster
//! `ErrorReply { code: Internal }`, and its timer and acceptor stop. A
//! TCP connection whose reader thread panicked must end with EOF, not
//! leave its client waiting on a socket its writer thread holds open.

use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::Scope;
use std::time::Duration;

use orcodcs_repro::core::{
    AsymmetricAutoencoder, Codec, OrcoError, SplitModel, TrainSpec, TrainingHistory,
};
use orcodcs_repro::serve::scenarios::codec_config;
use orcodcs_repro::serve::{
    Client, Clock, Connection, ErrorCode, Gateway, GatewayConfig, Loopback, Message, PushOutcome,
    Tcp, TcpServer, Transport,
};
use orcodcs_repro::tensor::{MatView, Matrix, OrcoRng};

const BATCH: usize = 64;
const PATIENCE: Duration = Duration::from_secs(10);
/// How long a pull sent to a shard whose encode is parked is watched for
/// an answer before the encode is released: it must have none.
const SETTLE: Duration = Duration::from_millis(50);

/// An autoencoder whose `encode_batch` reports the name of the thread that
/// entered it, then waits to be released (a send, or the sender dropping)
/// before encoding — or, when it `fails`, panics instead, and while it has
/// `refusals` left, returns an error instead.
#[derive(Debug)]
struct Parked {
    inner: AsymmetricAutoencoder,
    entered: Sender<String>,
    release: Receiver<()>,
    fails: bool,
    refusals: usize,
}

impl Codec for Parked {
    fn name(&self) -> &'static str {
        Codec::name(&self.inner)
    }
    fn input_dim(&self) -> usize {
        Codec::input_dim(&self.inner)
    }
    fn bytes_per_frame(&self) -> u64 {
        Codec::bytes_per_frame(&self.inner)
    }
    fn train(&mut self, x: &Matrix, spec: &TrainSpec) -> Result<TrainingHistory, OrcoError> {
        self.inner.train(x, spec)
    }
    fn encode_batch(&mut self, frames: MatView<'_>, out: &mut Matrix) -> Result<(), OrcoError> {
        let _ = self.entered.send(std::thread::current().name().unwrap_or_default().into());
        let _ = self.release.recv();
        assert!(!self.fails, "shard 1's codec fails inside encode_batch");
        if self.refusals > 0 {
            self.refusals -= 1;
            return Err(OrcoError::Config { detail: "shard 1's codec refuses a batch".into() });
        }
        self.inner.encode_batch(frames, out)
    }
    fn decode_batch(&mut self, codes: MatView<'_>, out: &mut Matrix) -> Result<(), OrcoError> {
        self.inner.decode_batch(codes, out)
    }
    fn split_model(&mut self) -> Option<&mut dyn SplitModel> {
        self.inner.split_model()
    }
}

fn plain_codec() -> AsymmetricAutoencoder {
    AsymmetricAutoencoder::new(&codec_config(11)).expect("valid config")
}

/// A [`Parked`] codec that panics as soon as a batch reaches it, and the
/// receiver of the names of the threads it panics on.
fn failing_codec() -> (Parked, Receiver<String>) {
    let (entered, names) = channel();
    let (_, release) = channel();
    (Parked { inner: plain_codec(), entered, release, fails: true, refusals: 0 }, names)
}

/// Two shards, shard 1 on `shard_1`'s codec.
fn gateway(shard_1: Parked, clock: Clock, batch_deadline: Duration) -> Arc<Gateway> {
    let cfg = GatewayConfig { batch_deadline, ..GatewayConfig::default() };
    gateway_with(shard_1, clock, cfg)
}

/// [`gateway`] with the rest of `cfg`.
fn gateway_with(shard_1: Parked, clock: Clock, cfg: GatewayConfig) -> Arc<Gateway> {
    let mut shard_1 = Some(shard_1);
    let gw =
        Gateway::new(GatewayConfig { shards: 2, batch_max_frames: BATCH, ..cfg }, clock, |shard| {
            match shard {
                1 => Box::new(shard_1.take().expect("one codec per shard")) as Box<dyn Codec>,
                _ => Box::new(plain_codec()),
            }
        })
        .expect("valid gateway");
    Arc::new(gw)
}

/// The first cluster id the gateway pins to `shard`.
fn cluster_on(gw: &Gateway, shard: usize) -> u64 {
    (1..).find(|&c| gw.shard_of(c) == shard).expect("two shards, both reachable")
}

/// The first two cluster ids the gateway pins to `shard`.
fn two_clusters_on(gw: &Gateway, shard: usize) -> [u64; 2] {
    let mut on = (1..).filter(|&c| gw.shard_of(c) == shard);
    [0; 2].map(|_| on.next().expect("two shards, both reachable"))
}

/// A gateway whose shard 1 parks every batch that reaches its codec until
/// `release` sends or drops, and refuses the first `refusals` of them
/// once released; `entered` names each thread that reaches the codec.
struct Parking {
    gw: Arc<Gateway>,
    entered: Receiver<String>,
    release: Sender<()>,
}

fn parking(refusals: usize, queue_capacity: usize) -> Parking {
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    let parked = Parked {
        inner: plain_codec(),
        entered: entered_tx,
        release: release_rx,
        fails: false,
        refusals,
    };
    // A 1 µs tick: the ~70 dispatches of a test must not carry virtual
    // time past shard 1's 5 ms deadline, or sweeping its overdue batch
    // would be right — and would wait for the parked encode.
    let cfg = GatewayConfig { queue_capacity, ..GatewayConfig::default() };
    let gw = gateway_with(parked, Clock::manual(Duration::from_micros(1)), cfg);
    Parking { gw, entered, release }
}

/// Runs `f` on a thread of `scope`; its value arrives on the receiver.
fn asked<'scope, T: Send + 'scope>(
    scope: &'scope Scope<'scope, '_>,
    f: impl FnOnce() -> T + Send + 'scope,
) -> Receiver<T> {
    let (answer, answered) = channel();
    scope.spawn(move || answer.send(f()));
    answered
}

/// Runs `f` on its own thread: its value, or the test fails if `f`
/// panics or outlasts [`PATIENCE`].
fn within_patience<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = channel();
    let worker = std::thread::spawn(move || done.send(f()));
    match result.recv_timeout(PATIENCE) {
        Ok(value) => value,
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("the sender is gone"))
        }
        Err(RecvTimeoutError::Timeout) => panic!("no answer within {PATIENCE:?}"),
    }
}

/// What the shard-0 client got back.
struct Served {
    pulled: Matrix,
    /// Streamed rows, flat, in arrival order.
    streamed: Vec<f32>,
    frames_in: u64,
}

/// Parks a thread inside shard 1's flush, then serves `frames` to a
/// cluster on shard 0 — with `subscribed`, through a subscription (and
/// with a second subscription on the parked shard's cluster, which no
/// dispatch for shard 0 may touch: it lives under shard 1's lock).
fn serve_beside_a_parked_shard(frames: &Matrix, subscribed: bool) -> Served {
    let Parking { gw, entered, release } = parking(0, GatewayConfig::default().queue_capacity);
    let (near, far) = (cluster_on(&gw, 0), cluster_on(&gw, 1));

    let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("loopback connects");
    if subscribed {
        // Before the park: subscribing reads the cluster's backlog under
        // its shard's lock.
        assert_eq!(client.subscribe(near).expect("subscribe"), 0);
        assert_eq!(client.subscribe(far).expect("subscribe"), 0);
    }

    std::thread::scope(|scope| {
        let filler = scope.spawn(|| {
            let fill = Matrix::from_fn(BATCH, frames.cols(), |r, c| (r + c) as f32 / 128.0);
            gw.handle(Message::PushFrames { cluster_id: far, trace: 0, frames: fill })
        });
        entered.recv_timeout(PATIENCE).expect("shard 1's size flush reaches the codec");

        let (done_tx, done) = channel();
        scope.spawn(move || {
            client.hello(1).expect("hello");
            for r in 0..frames.rows() {
                let outcome = client.push(near, frames.view_rows(r..r + 1)).expect("push");
                assert_eq!(outcome, PushOutcome::Accepted(1));
            }
            let mut streamed = Vec::new();
            while let Some((cluster, rows)) =
                client.recv_streamed(Duration::ZERO).expect("streamed frame decodes")
            {
                assert_eq!(cluster, near);
                streamed.extend_from_slice(rows.as_slice());
            }
            let pulled = client.pull(near, BATCH as u32).expect("pull");
            let frames_in = client.stats().expect("stats").frames_in;
            let _ = done_tx.send(Served { pulled, streamed, frames_in });
        });
        let served = done.recv_timeout(PATIENCE);

        // Release before judging, so a failure reports instead of hanging
        // the scope's joins.
        drop(release);
        let reply = filler.join().expect("filler thread");
        assert_eq!(reply, Message::PushAck { accepted: BATCH as u32 });
        served.expect("shard 0 must be served while shard 1's lock is held")
    })
}

fn frames() -> Matrix {
    let mut rng = OrcoRng::from_seed_u64(0x15_01A7E);
    Matrix::from_fn(BATCH, codec_config(11).input_dim, |_, _| rng.uniform(0.0, 1.0))
}

/// `frames` through a codec of the gateway's config, directly.
fn direct(frames: &Matrix) -> Matrix {
    let mut codec = plain_codec();
    let (mut codes, mut out) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    codec.encode_batch(frames.as_view(), &mut codes).expect("frames fit the codec");
    codec.decode_batch(codes.as_view(), &mut out).expect("codes fit the codec");
    out
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn push(cluster_id: u64, frames: &Matrix) -> Message {
    Message::PushFrames { cluster_id, trace: 0, frames: frames.clone() }
}

fn pull(cluster_id: u64) -> Message {
    Message::PullDecoded { cluster_id, max_frames: BATCH as u32, trace: 0 }
}

fn error_code(reply: &Message) -> Option<ErrorCode> {
    match reply {
        Message::ErrorReply { code, .. } => Some(*code),
        _ => None,
    }
}

#[test]
fn shard_0_is_served_while_shard_1_is_locked() {
    let frames = frames();
    let served = serve_beside_a_parked_shard(&frames, false);
    assert_eq!(served.frames_in, 2 * BATCH as u64, "both shards' pushes were admitted");
    assert!(served.streamed.is_empty());
    assert_eq!(served.pulled.shape(), (BATCH, frames.cols()));
    assert_eq!(bits(served.pulled.as_slice()), bits(direct(&frames).as_slice()));
}

#[test]
fn a_subscription_is_served_while_shard_1_is_locked() {
    let frames = frames();
    let served = serve_beside_a_parked_shard(&frames, true);
    assert_eq!(served.frames_in, 2 * BATCH as u64);
    // The size flush's rows went to the subscriber; nothing is left to pull.
    assert_eq!(served.pulled.rows(), 0);
    assert_eq!(bits(&served.streamed), bits(direct(&frames).as_slice()));
}

#[test]
fn a_panicking_flush_fails_a_loopback_gateway_whole() {
    let frames = frames();
    let (codec, entered) = failing_codec();
    let gw = gateway(codec, Clock::manual(Duration::from_micros(1)), Duration::from_millis(5));
    let (near, far) = (cluster_on(&gw, 0), cluster_on(&gw, 1));
    // Shard 0 stores a batch (a size flush) before anything fails.
    assert_eq!(gw.handle(push(near, &frames)), Message::PushAck { accepted: BATCH as u32 });

    // Shard 1's size flush panics on the pushing thread.
    let flusher = Arc::clone(&gw);
    let fill = frames.clone();
    let died = std::thread::spawn(move || flusher.handle(push(far, &fill))).join();
    assert!(died.is_err(), "the flush panics on its thread");
    assert!(entered.try_recv().is_ok(), "the batch reached the codec");

    let one_row = frames.view_rows(0..1).to_matrix();
    within_patience(move || {
        assert!(gw.is_shutting_down(), "a panic under a shard lock fails the gateway");
        assert_eq!(error_code(&gw.handle(push(near, &one_row))), Some(ErrorCode::ShuttingDown));
        let Message::Decoded { frames: pulled, .. } = gw.handle(pull(near)) else {
            panic!("shard 0's stored rows stay pullable")
        };
        assert_eq!(bits(pulled.as_slice()), bits(direct(&frames).as_slice()));
        for request in [push(far, &one_row), pull(far)] {
            assert_eq!(error_code(&gw.handle(request)), Some(ErrorCode::Internal));
        }
        assert_eq!(gw.stats().frames_out, BATCH as u64);
        gw.timer_step(&mut [0.0; 2]);
        gw.advance_clock(Duration::from_secs(1));
    });
}

#[test]
fn a_panic_on_a_tcp_reader_thread_ends_its_connection_with_eof() {
    let (codec, entered) = failing_codec();
    // A deadline the test never reaches: only the size flush can fail.
    let gw = gateway(codec, Clock::real(), Duration::from_secs(60));
    let far = cluster_on(&gw, 1);
    let server = TcpServer::spawn(Arc::clone(&gw), "127.0.0.1:0").expect("binds");
    let addr = server.local_addr();
    let frames = frames();
    within_patience(move || {
        let mut conn = Tcp::new(addr.to_string()).connect().expect("connects");
        let hello = Message::Hello { client_id: 1, nonce: 0, mac: 0 };
        assert!(matches!(conn.request(&hello), Ok(Message::HelloAck { .. })));
        // A full batch: the connection's reader flushes it, and panics.
        let reply = conn.request(&push(far, &frames));
        assert_eq!(entered.recv().expect("the reader flushes"), "orco-serve-conn");
        match reply {
            Err(OrcoError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("expected EOF, got {other:?}"),
        }
        assert!(gw.is_shutting_down());
        drop(TcpStream::connect(addr));
        server.join();
    });
}

#[test]
fn a_panic_on_the_timer_thread_fails_a_tcp_gateway_whole() {
    let (codec, entered) = failing_codec();
    let gw = gateway(codec, Clock::real(), Duration::from_millis(2));
    let (near, far) = (cluster_on(&gw, 0), cluster_on(&gw, 1));
    let server = TcpServer::spawn(Arc::clone(&gw), "127.0.0.1:0").expect("binds");
    let addr = server.local_addr();
    let one_row = frames().view_rows(0..1).to_matrix();
    within_patience(move || {
        let transport = Tcp::new(addr.to_string());
        // Both connections are served before anything fails.
        let [mut a, mut b] = [1, 2].map(|client_id| {
            let mut conn = transport.connect().expect("connects");
            let hello = Message::Hello { client_id, nonce: 0, mac: 0 };
            assert!(matches!(conn.request(&hello), Ok(Message::HelloAck { .. })));
            conn
        });
        // One row under a 2 ms deadline: only the timer can flush it.
        assert_eq!(a.request(&push(far, &one_row)).ok(), Some(Message::PushAck { accepted: 1 }));
        assert_eq!(entered.recv().expect("the timer flushes"), "orco-serve-worker-0");
        while !gw.is_shutting_down() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let reply = b.request(&push(near, &one_row)).expect("b's connection is served");
        assert_eq!(error_code(&reply), Some(ErrorCode::ShuttingDown));
        let reply = a.request(&pull(far)).expect("a's connection is served");
        assert_eq!(error_code(&reply), Some(ErrorCode::Internal));
        // The acceptor sees the closed door at its next connection.
        drop(TcpStream::connect(addr));
        server.join();
    });
}

#[test]
fn a_push_beside_an_encode_on_its_shard_is_acked_at_once() {
    let frames = frames();
    let Parking { gw, entered, release } = parking(0, GatewayConfig::default().queue_capacity);
    let [far, other] = two_clusters_on(&gw, 1);
    let rows = 8;
    std::thread::scope(|scope| {
        let filler = asked(scope, || gw.handle(push(far, &frames)));
        entered.recv_timeout(PATIENCE).expect("shard 1's size flush reaches the codec");
        // A second connection, pushing rows that do not fill a batch.
        let acked = asked(scope, || {
            let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("connects");
            client.hello(2).expect("hello");
            (0..rows)
                .map(|r| client.push(other, frames.view_rows(r..r + 1)).expect("push"))
                .collect::<Vec<_>>()
        });
        let acked = acked.recv_timeout(PATIENCE);
        // Release before judging, so a failure reports instead of hanging
        // the scope's joins.
        drop(release);
        let filled = filler.recv_timeout(PATIENCE);
        assert_eq!(filled, Ok(Message::PushAck { accepted: BATCH as u32 }));
        let acked = acked.expect("a push that does not fill its batch waits for no encode");
        assert_eq!(acked, vec![PushOutcome::Accepted(1); rows]);
    });
    let Message::Decoded { frames: pulled, .. } = gw.handle(pull(other)) else {
        panic!("the pull is answered with rows")
    };
    let expected = direct(&frames.view_rows(0..rows).to_matrix());
    assert_eq!(bits(pulled.as_slice()), bits(expected.as_slice()));
}

#[test]
fn a_pull_sent_mid_encode_returns_that_batch_once() {
    let frames = frames();
    let Parking { gw, entered, release } = parking(0, GatewayConfig::default().queue_capacity);
    let far = cluster_on(&gw, 1);
    std::thread::scope(|scope| {
        let filler = asked(scope, || gw.handle(push(far, &frames)));
        entered.recv_timeout(PATIENCE).expect("shard 1's size flush reaches the codec");
        let pulled = asked(scope, || gw.handle(pull(far)));
        let early = pulled.recv_timeout(SETTLE);
        drop(release);
        assert_eq!(early, Err(RecvTimeoutError::Timeout), "the pull waits for the batch");
        let filled = filler.recv_timeout(PATIENCE);
        assert_eq!(filled, Ok(Message::PushAck { accepted: BATCH as u32 }));
        let Ok(Message::Decoded { frames: pulled, .. }) = pulled.recv_timeout(PATIENCE) else {
            panic!("the pull is answered with rows")
        };
        assert_eq!(bits(pulled.as_slice()), bits(direct(&frames).as_slice()));
    });
    let Message::Decoded { frames: again, .. } = gw.handle(pull(far)) else {
        panic!("a second pull is answered with rows")
    };
    assert_eq!(again.rows(), 0, "each row is delivered once");
}

#[test]
fn rows_mid_encode_count_against_the_queue_capacity() {
    let frames = frames();
    let Parking { gw, entered, release } = parking(0, BATCH + 1);
    let [far, other] = two_clusters_on(&gw, 1);
    let rows = |n: usize| frames.view_rows(0..n).to_matrix();
    std::thread::scope(|scope| {
        let filler = asked(scope, || gw.handle(push(far, &frames)));
        entered.recv_timeout(PATIENCE).expect("shard 1's size flush reaches the codec");
        let over = asked(scope, || gw.handle(push(other, &rows(2))));
        let over = over.recv_timeout(PATIENCE);
        drop(release);
        let filled = filler.recv_timeout(PATIENCE);
        assert_eq!(filled, Ok(Message::PushAck { accepted: BATCH as u32 }));
        let busy = Message::Busy { queued: BATCH as u32, capacity: BATCH as u32 + 1 };
        assert_eq!(over, Ok(busy), "the batch mid-encode is in flight");
    });
    assert_eq!(gw.handle(push(other, &rows(1))), Message::PushAck { accepted: 1 });
    assert_eq!(gw.stats().busy_rejections, 1);
}

#[test]
fn an_encode_error_strands_no_acked_row() {
    let mut rng = OrcoRng::from_seed_u64(0xE_4404);
    let all = Matrix::from_fn(BATCH + 2, codec_config(11).input_dim, |_, _| rng.uniform(0.0, 1.0));
    let part = |rows: std::ops::Range<usize>| all.view_rows(rows).to_matrix();
    let Parking { gw, entered, release } = parking(1, GatewayConfig::default().queue_capacity);
    let far = cluster_on(&gw, 1);
    assert_eq!(gw.handle(push(far, &part(0..1))), Message::PushAck { accepted: 1 });
    std::thread::scope(|scope| {
        // The push that fills the batch meets the refusal; the row acked
        // above is in that batch, and two more rows arrive meanwhile.
        let filler = asked(scope, || gw.handle(push(far, &part(1..BATCH))));
        entered.recv_timeout(PATIENCE).expect("shard 1's size flush reaches the codec");
        let late = asked(scope, || gw.handle(push(far, &part(BATCH..BATCH + 2))));
        let late = late.recv_timeout(PATIENCE);
        drop(release);
        let refused = filler.recv_timeout(PATIENCE).expect("the filling push is answered");
        assert_eq!(error_code(&refused), Some(ErrorCode::Internal));
        assert_eq!(late, Ok(Message::PushAck { accepted: 2 }), "acked while the batch encodes");
    });
    assert!(!gw.is_shutting_down(), "an encode error is not a panic");
    let everything =
        Message::PullDecoded { cluster_id: far, max_frames: 2 * BATCH as u32, trace: 0 };
    let Message::Decoded { frames: pulled, .. } = gw.handle(everything) else {
        panic!("the pull is answered with rows")
    };
    assert_eq!(bits(pulled.as_slice()), bits(direct(&all).as_slice()), "every row, in push order");
    assert_eq!(gw.stats().frames_out, (BATCH + 2) as u64);
}
