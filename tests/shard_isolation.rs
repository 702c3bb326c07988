//! A request locks only the shard it serves.
//!
//! Shard 1's codec parks inside `encode_batch` until the test releases
//! it, so the thread that filled shard 1's batch sits there *holding
//! shard 1's lock*. Everything a client can ask of a cluster on shard 0 —
//! hello, pushes, a pull, stats, a streamed delivery — must complete
//! while it does: a dispatch that took shard 1's lock to ask "is a batch
//! overdue?", or to deliver to a subscriber, would hang here until the
//! 10 s patience ran out.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use orcodcs_repro::core::{
    AsymmetricAutoencoder, Codec, OrcoError, SplitModel, TrainSpec, TrainingHistory,
};
use orcodcs_repro::serve::scenarios::codec_config;
use orcodcs_repro::serve::{Client, Clock, Gateway, GatewayConfig, Loopback, Message, PushOutcome};
use orcodcs_repro::tensor::{MatView, Matrix, OrcoRng};

const BATCH: usize = 64;
const PATIENCE: Duration = Duration::from_secs(10);

/// An autoencoder whose `encode_batch` reports that it was entered, then
/// waits to be released (a send, or the sender dropping) before encoding.
#[derive(Debug)]
struct Parked {
    inner: AsymmetricAutoencoder,
    entered: Sender<()>,
    release: Receiver<()>,
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
    fn encode_frame(&mut self, frame: &[f32]) -> Result<Vec<f32>, OrcoError> {
        self.inner.encode_frame(frame)
    }
    fn decode_frame(&mut self, code: &[f32]) -> Result<Vec<f32>, OrcoError> {
        self.inner.decode_frame(code)
    }
    fn encode_batch(&mut self, frames: MatView<'_>, out: &mut Matrix) -> Result<(), OrcoError> {
        let _ = self.entered.send(());
        let _ = self.release.recv();
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

/// The first cluster id the gateway pins to `shard`.
fn cluster_on(gw: &Gateway, shard: usize) -> u64 {
    (1..).find(|&c| gw.shard_of(c) == shard).expect("two shards, both reachable")
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
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    let mut parked =
        Some(Parked { inner: plain_codec(), entered: entered_tx, release: release_rx });
    // A 1 µs tick: the ~70 dispatches below must not carry virtual time
    // past shard 1's deadline, or sweeping its overdue batch would be
    // right — and would wait for the lock.
    let gw = Gateway::new(
        GatewayConfig { shards: 2, batch_max_frames: BATCH, ..GatewayConfig::default() },
        Clock::manual(Duration::from_micros(1)),
        |shard| match shard {
            1 => Box::new(parked.take().expect("one codec per shard")) as Box<dyn Codec>,
            _ => Box::new(plain_codec()),
        },
    )
    .expect("valid gateway");
    let gw = Arc::new(gw);
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
