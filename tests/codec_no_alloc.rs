//! The batched codec paths allocate nothing in steady state (ROADMAP item
//! 2(a)'s bar, pulled forward for the codec, and item 1's for the conv
//! stack): after one warm-up batch has grown the caller's buffers, the
//! decoder's ping-pong scratch and — for DCSNet — each convolution's
//! one-sample workspace, `encode_batch` + `decode_batch` make **zero**
//! calls into the allocator, at batch 64 on the autoencoder and batch 16
//! on DCSNet — counted, not inferred. The training round (ROADMAP item 1)
//! is held to the same count: after one warm-up round at batch 32, the
//! four `SplitModel` steps allocate only the matrices they hand across the
//! simulated wire, and a training step of the classifier's layer stack
//! (conv → max-pool → dense), or of a dense layer whose forward packs its
//! batch rather than its weight, allocates nothing.
//!
//! The serving layer is held to it from client to shard: after a warm-up,
//! a push over `Loopback` — encoded from the caller's rows, parsed in
//! place by the gateway, its rows appended to the shard's batch (and the
//! batch encoded, when the push fills it), the ack encoded and decoded —
//! makes zero allocator calls.
//!
//! The file is its own test binary because `#[global_allocator]` is
//! process-wide. Only the test's own thread is counted, and the kernels
//! run on a thread budget of 1: spawning a scoped worker allocates, and
//! the serving layer runs each shard's codec on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use orcodcs_repro::baselines::Dcsnet;
use orcodcs_repro::core::{AsymmetricAutoencoder, Codec, OrcoConfig, SplitModel};
use orcodcs_repro::datasets::{gtsrb_like, mnist_like, DatasetKind};
use orcodcs_repro::nn::{Activation, Conv2d, Dense, Loss, MaxPool2d, Optimizer, Sequential};
use orcodcs_repro::serve::{
    Client, Clock, Gateway, GatewayConfig, Loopback, LoopbackConnection, Message, PushOutcome,
};
use orcodcs_repro::tensor::{parallel, Matrix, OrcoRng};

thread_local! {
    /// `Some(n)` while this thread is counting its allocator calls.
    static ALLOCATIONS: Cell<Option<usize>> = const { Cell::new(None) };
}

struct CountingAllocator;

fn count_one() {
    ALLOCATIONS.with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` with no destructor, so touching it neither allocates nor re-enters.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocator calls this thread makes while running `f`, and what `f` made.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    ALLOCATIONS.with(|c| c.set(Some(0)));
    let made = f();
    (ALLOCATIONS.with(|c| c.take()).expect("counting was on"), made)
}

/// Allocator calls of one warm-up `encode_batch` + `decode_batch` of
/// `frames` and of the one after it, on a thread budget of 1.
fn warm_up_and_steady_allocations(codec: &mut dyn Codec, frames: &Matrix) -> (usize, usize) {
    let (mut codes, mut decoded) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let mut round_trip = || {
        codec.encode_batch(frames.as_view(), &mut codes).expect("frames fit");
        codec.decode_batch(codes.as_view(), &mut decoded).expect("codes fit");
    };
    let counts = parallel::with_thread_budget(1, || {
        (allocations_during(&mut round_trip).0, allocations_during(&mut round_trip).0)
    });
    assert_eq!(decoded.shape(), frames.shape());
    counts
}

#[test]
fn steady_state_autoencoder_codec_allocates_nothing() {
    const BATCH: usize = 64;
    let cases = [
        (DatasetKind::MnistLike, mnist_like::generate(BATCH, 3)),
        (DatasetKind::GtsrbLike, gtsrb_like::generate(BATCH, 3)),
    ];
    for (kind, dataset) in cases {
        for decoder_layers in [1, 3] {
            let config = OrcoConfig::for_dataset(kind).with_decoder_layers(decoder_layers);
            let mut codec = AsymmetricAutoencoder::new(&config).expect("valid config");
            let (warm_up, steady) = warm_up_and_steady_allocations(&mut codec, dataset.x());
            // The counter counts: the warm-up grows every buffer.
            assert!(warm_up > 0);
            assert_eq!(
                steady, 0,
                "{kind:?}, {decoder_layers} decoder layer(s): a steady-state batch-{BATCH} \
                 encode + decode made {steady} allocator calls"
            );
        }
    }
}

/// The conv stack: four `Conv2d` layers and a crop behind a 1024-wide
/// dense encoder. Before the layer owned its workspace this made 128
/// allocator calls a batch (a patch matrix and a product per sample per
/// layer).
#[test]
fn steady_state_dcsnet_codec_allocates_nothing() {
    const BATCH: usize = 16;
    let cases = [
        (DatasetKind::MnistLike, mnist_like::generate(BATCH, 3)),
        (DatasetKind::GtsrbLike, gtsrb_like::generate(BATCH, 3)),
    ];
    for (kind, dataset) in cases {
        let mut codec = Dcsnet::new(kind, 3);
        let (warm_up, steady) = warm_up_and_steady_allocations(&mut codec, dataset.x());
        assert!(warm_up > 0);
        assert_eq!(
            steady, 0,
            "{kind:?}: a steady-state batch-{BATCH} DCSNet encode + decode made {steady} \
             allocator calls"
        );
    }
}

/// Allocator calls of each step of one split training round — encode,
/// decode, decoder update, encoder update — on a thread budget of 1. The
/// loss gradient between them is the orchestrator's, not counted here.
fn split_round_allocations(model: &mut dyn SplitModel, x: &Matrix) -> [usize; 4] {
    parallel::with_thread_budget(1, || {
        let (encode, latent) = allocations_during(|| model.aggregator_encode_train(x));
        let (decode, recon) = allocations_during(|| model.edge_decode_train(&latent));
        let grad = Loss::L2.grad(&recon, x);
        let (decoder_update, grad_latent) = allocations_during(|| model.edge_decoder_update(&grad));
        let (encoder_update, ()) =
            allocations_during(|| model.aggregator_encoder_update(&grad_latent));
        [encode, decode, decoder_update, encoder_update]
    })
}

/// The write side: once a warm-up round has grown every layer's cache and
/// workspaces, the decoder's ping-pong buffers and the optimizers' moments,
/// a round's steps allocate the matrix each returns and nothing else — the
/// encoder update, which returns nothing, allocates nothing. Before the
/// layers had one `backward_into` body this read 2 / 1 / 10 / 9 on the
/// one-layer autoencoder, 2 / 3 / 29 / 9 on the three-layer one and
/// 1 / 5 / 19 / 9 on DCSNet, in either profile.
#[test]
fn steady_state_split_round_allocates_only_what_crosses_the_wire() {
    const BATCH: usize = 32;
    let x = mnist_like::generate(BATCH, 3);
    let autoencoder = |decoder_layers| {
        let config =
            OrcoConfig::for_dataset(DatasetKind::MnistLike).with_decoder_layers(decoder_layers);
        Box::new(AsymmetricAutoencoder::new(&config).expect("valid config")) as Box<dyn SplitModel>
    };
    let models = [
        ("OrcoDCS, 1 decoder layer", autoencoder(1)),
        ("OrcoDCS, 3 decoder layers", autoencoder(3)),
        ("DCSNet", Box::new(Dcsnet::new(DatasetKind::MnistLike, 3))),
    ];
    for (name, mut model) in models {
        let warm_up = split_round_allocations(model.as_mut(), x.x());
        assert!(warm_up.iter().sum::<usize>() > 4, "{name}: the counter counts");
        let steady = split_round_allocations(model.as_mut(), x.x());
        assert_eq!(
            steady,
            [1, 1, 1, 0],
            "{name}: allocator calls of a steady-state batch-{BATCH} encode / decode / \
             decoder update / encoder update"
        );
    }
}

/// The classifier's layer stack, the one model with a `MaxPool2d`: conv →
/// max-pool → dense on MNIST-sized frames at batch 16; a dense `784 → 128`
/// at batch 32, whose training forward packs the batch's rows of `x·Wᵀ`
/// rather than `Wᵀ` (the classifier's 10-output dense does not, nor does
/// its 8-channel conv's `∂K`); DCSNet's dense `784 → 1024` encoder at
/// batch 32, whose forward packs its 32 rows as one group of panels and
/// whose 3.2 MB `∂W` is written in row slabs; and DCSNet's `Conv2d(16 →
/// 16)` on 32×32 at batch 32, whose direct forward copies each sample
/// into the front of the workspace its backward lowers into. Each on a
/// thread budget of 1: once
/// a warm-up step has grown the layers' caches and workspaces, the model's
/// ping-pong buffers and Adam's moments, a step's forward, backward (the
/// pool routing its gradient to the conv) and clipped update each make
/// zero allocator calls.
#[test]
fn steady_state_conv_pool_dense_step_allocates_nothing() {
    let mut rng = OrcoRng::from_label("no-alloc-cnn", 0);
    let mut classifier = Sequential::new();
    classifier.push(Conv2d::new(1, 28, 28, 8, 3, 1, 1, Activation::Relu, &mut rng));
    classifier.push(MaxPool2d::new(8, 28, 28, 2));
    classifier.push(Dense::new(8 * 14 * 14, 10, Activation::Identity, &mut rng));
    let mut dense = Sequential::new();
    dense.push(Dense::new(784, 128, Activation::Sigmoid, &mut rng));
    let mut encoder = Sequential::new();
    encoder.push(Dense::new(784, 1024, Activation::Sigmoid, &mut rng));
    let mut conv = Sequential::new();
    conv.push(Conv2d::new(16, 32, 32, 16, 3, 1, 1, Activation::Relu, &mut rng));
    let models = [
        ("classifier", classifier, 16),
        ("dense", dense, 32),
        ("encoder", encoder, 32),
        ("dcsnet conv", conv, 32),
    ];
    for (name, mut model, batch) in models {
        let inputs = model.input_dim().expect("a non-empty model");
        let dataset = match inputs {
            784 => mnist_like::generate(batch, 3).x().clone(),
            _ => Matrix::from_fn(batch, inputs, |r, c| ((r * 31 + c) as f32 * 0.01).sin()),
        };
        let outputs = model.output_dim().expect("a non-empty model");
        let grad = Matrix::from_fn(batch, outputs, |r, c| (r * 10 + c) as f32 * 1e-3 - 0.05);
        let mut opt = Optimizer::adam(1e-3).with_grad_clip(5.0);
        let mut out = Matrix::zeros(0, 0);
        let mut step = || {
            let (forward, ()) =
                allocations_during(|| model.forward_into(dataset.as_view(), &mut out, true));
            let (backward, ()) = allocations_during(|| model.backward_into(grad.as_view(), None));
            let (update, ()) = allocations_during(|| opt.step(|f| model.for_each_param(f)));
            [forward, backward, update]
        };
        let (warm_up, steady) = parallel::with_thread_budget(1, || (step(), step()));
        assert!(warm_up.iter().all(|&n| n > 0), "{name}: the counter counts: {warm_up:?}");
        assert_eq!(
            steady,
            [0, 0, 0],
            "{name}: allocator calls of a steady-state batch-{batch} forward / backward / update"
        );
    }
}

/// Client → shard at batch 64 over `Loopback`, on a thread budget of 1:
/// a 1-row push that only enqueues, the 1-row push that fills the batch
/// and so flushes it (one `encode_batch`), and a 64-row push, which
/// flushes too. Each makes zero allocator calls once a warm-up has grown
/// the connection's frame buffers, the shard's batch, the cluster's
/// stored rows (left non-empty, so its record stays), the codec's
/// workspaces and the trace ring. Before a push was encoded from the
/// caller's view and parsed into the batch in place, each made two: the
/// client's `Matrix` and the gateway's.
#[test]
fn steady_state_push_allocates_nothing_from_client_to_shard() {
    const BATCH: usize = 64;
    const CLUSTER: u64 = 7;
    let config = OrcoConfig::for_dataset(DatasetKind::MnistLike);
    let gateway = Gateway::new(
        GatewayConfig {
            shards: 1,
            batch_max_frames: BATCH,
            // Long enough that only a full batch flushes.
            batch_deadline: Duration::from_secs(1),
            trace_capacity: 64,
            ..GatewayConfig::default()
        },
        Clock::manual(Duration::from_micros(100)),
        |_| Box::new(AsymmetricAutoencoder::new(&config).expect("valid config")) as Box<dyn Codec>,
    )
    .expect("valid gateway");
    let gateway = Arc::new(gateway);
    let mut client = Client::connect(&Loopback::new(Arc::clone(&gateway))).expect("connects");
    client.hello(1).expect("hello");
    let dataset = mnist_like::generate(BATCH, 3);
    let frames = dataset.x();
    let batches = || gateway.stats().batches;

    parallel::with_thread_budget(1, || {
        let push = |client: &mut Client<LoopbackConnection>, rows: std::ops::Range<usize>| {
            let n = rows.len();
            let (calls, outcome) =
                allocations_during(|| client.push(CLUSTER, frames.view_rows(rows)));
            assert_eq!(outcome.expect("push"), PushOutcome::Accepted(n as u32));
            calls
        };
        for _ in 0..4 {
            for r in 0..BATCH {
                push(&mut client, r..r + 1);
            }
            push(&mut client, 0..BATCH);
        }
        // 8 batches stored; keep 2 of them.
        client.pull(CLUSTER, 6 * BATCH as u32).expect("pull");

        let before = batches();
        let enqueue = push(&mut client, 0..1);
        assert_eq!(batches(), before, "the first row of a batch only enqueues");
        for r in 1..BATCH - 1 {
            push(&mut client, r..r + 1);
        }
        let size_flush = push(&mut client, BATCH - 1..BATCH);
        assert_eq!(batches(), before + 1, "the 64th row flushes the batch");
        let batch_push = push(&mut client, 0..BATCH);
        assert_eq!(batches(), before + 2, "a 64-row push flushes at once");
        assert_eq!(
            [enqueue, size_flush, batch_push],
            [0, 0, 0],
            "allocator calls of a steady-state 1-row push that enqueues, the 1-row push that \
             flushes, and a 64-row push, client to shard and back"
        );
    });
}

/// A pull at the gateway, on a thread budget of 1: each steady-state
/// 64-row `PullDecoded` of traced rows makes one allocator call — the
/// decoded rows, which the reply owns. Before the delivery spans were
/// recorded straight from the stored rows, each made two: the rows' trace
/// ids were collected into a list first.
#[test]
fn steady_state_pull_allocates_only_the_reply() {
    const BATCH: usize = 64;
    const CLUSTER: u64 = 7;
    let config = OrcoConfig::for_dataset(DatasetKind::MnistLike);
    let gateway = Gateway::new(
        GatewayConfig { shards: 1, batch_max_frames: BATCH, ..GatewayConfig::default() },
        Clock::manual(Duration::from_micros(100)),
        |_| Box::new(AsymmetricAutoencoder::new(&config).expect("valid config")) as Box<dyn Codec>,
    )
    .expect("valid gateway");
    let dataset = mnist_like::generate(BATCH, 3);
    let pull = Message::PullDecoded { cluster_id: CLUSTER, max_frames: BATCH as u32, trace: 0 };

    let counts: Vec<usize> = parallel::with_thread_budget(1, || {
        (0..5)
            .map(|round| {
                // Two pushes, two traces: the pull records two spans.
                for (trace, rows) in
                    [(round * 2 + 1, 0..BATCH / 2), (round * 2 + 2, BATCH / 2..BATCH)]
                {
                    let frames = dataset.x().view_rows(rows).to_matrix();
                    gateway.handle(Message::PushFrames { cluster_id: CLUSTER, trace, frames });
                }
                let (calls, reply) = allocations_during(|| gateway.handle(pull.clone()));
                let Message::Decoded { frames, .. } = reply else { panic!("{reply:?}") };
                assert_eq!(frames.rows(), BATCH);
                calls
            })
            .collect()
    });
    assert_eq!(gateway.stats().batches, 5, "each round's second push flushes the batch");
    assert_eq!(
        counts[1..],
        [1, 1, 1, 1],
        "allocator calls of a steady-state 64-row pull (the first is the warm-up)"
    );
}
