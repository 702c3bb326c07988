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
}

/// Per-cluster FIFO on the streamed path under concurrent pumps. One
/// thread pushes single-row batches (every push is a size flush, pumped
/// on the pushing thread) while a second hammers
/// `advance_clock(Duration::ZERO)` (a pump with no flush of its own). The
/// hammer can take a row out of the store between the pusher's flush and
/// the pusher's pump; without one-pump-at-a-time per shard, the pusher's
/// *next* row can then reach the outbox before the hammer delivers the
/// one it holds. The streamed rows must be the direct codec's output,
/// row for row, in push order.
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
