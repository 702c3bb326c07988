//! What the three `serve_*` workloads share: the seeded frame pool with
//! its direct-codec reference, gateway construction, the closed-loop
//! driver with its delivery-digest gate, and the three ways of reaching a
//! gateway (a plain client, a client with spans around its calls, and a
//! layer-by-layer replay of what the loopback transport does).

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use orco_datasets::{mnist_like, DatasetKind};
use orco_serve::{
    Client, Clock, Connection, Gateway, GatewayConfig, Message, PushOutcome, StatsSnapshot,
};
use orco_tensor::{MatView, Matrix, OrcoRng};
use orcodcs::{AsymmetricAutoencoder, Codec, OrcoConfig, OrcoError};

use crate::report::{median_call_s, Report};
use crate::stats::{row_digest, StreamDigest};
use crate::trace::Tracer;

/// Distinct frames generated per run; a multiple of [`CHUNK`] so a
/// batched push never wraps.
pub const POOL: usize = 1024;
/// The gateway's `batch_max_frames`, the rows of a pull, and the rows of
/// a batched push.
pub const CHUNK: usize = 64;
/// Pushed frames between drains; keeps the in-flight budget (4096 rows
/// per shard) clear of `Busy`.
pub const DRAIN_EVERY: usize = 1024;

/// The seeded input frames and, for each, the digest of what a direct
/// `encode_batch` → `decode_batch` makes of it — the gateway ≡
/// direct-codec contract the delivery gate checks.
#[derive(Debug)]
pub struct Pool {
    /// One MNIST-like frame per row.
    pub frames: Matrix,
    /// `row_digest` of the reference reconstruction of each row.
    pub expect: Vec<u64>,
}

/// The served model: the paper's MNIST-like autoencoder, 784 → 128.
pub fn ae_config(seed: u64) -> OrcoConfig {
    let kind = DatasetKind::MnistLike;
    OrcoConfig::for_dataset(kind).with_latent_dim(kind.paper_latent_dim()).with_seed(seed)
}

/// Text of any error, for the gate's messages.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Generates the pool from `seed` and computes its reference digests.
///
/// # Errors
///
/// Codec construction or shape errors.
pub fn build_pool(seed: u64, cfg: &OrcoConfig) -> Result<Pool, String> {
    let frames = mnist_like::generate(POOL, seed).x().clone();
    let mut codec = AsymmetricAutoencoder::new(cfg).map_err(err)?;
    let (mut codes, mut out) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let mut expect = Vec::with_capacity(POOL);
    for lo in (0..POOL).step_by(CHUNK) {
        codec.encode_batch(frames.view_rows(lo..lo + CHUNK), &mut codes).map_err(err)?;
        codec.decode_batch(codes.as_view(), &mut out).map_err(err)?;
        expect.extend(out.iter_rows().map(row_digest));
    }
    Ok(Pool { frames, expect })
}

/// Builds a gateway whose every shard serves the model of `cfg`.
///
/// # Errors
///
/// An invalid gateway or model configuration.
pub fn build_gateway(
    gateway: GatewayConfig,
    clock: Clock,
    cfg: &OrcoConfig,
) -> Result<Arc<Gateway>, String> {
    AsymmetricAutoencoder::new(cfg).map_err(err)?;
    let gw = Gateway::new(gateway, clock, |_| {
        Box::new(AsymmetricAutoencoder::new(cfg).expect("validated above")) as Box<dyn Codec>
    })
    .map_err(err)?;
    Ok(Arc::new(gw))
}

/// Draws cluster ids from `rng` until every shard owns `per_shard` of
/// them, and returns them shard-interleaved (shard 0, 1, …, 0, 1, …).
/// The ids differ by seed; the balance does not, so batch fill — and
/// with it throughput — is the same on every seed.
pub fn pick_clusters(gw: &Gateway, rng: &mut OrcoRng, per_shard: usize) -> Vec<u64> {
    let shards = gw.config().shards;
    let mut by_shard = vec![Vec::new(); shards];
    while by_shard.iter().any(|ids| ids.len() < per_shard) {
        let id = rng.next_u64();
        let ids: &mut Vec<u64> = &mut by_shard[gw.shard_of(id)];
        if ids.len() < per_shard && !ids.contains(&id) {
            ids.push(id);
        }
    }
    (0..per_shard).flat_map(|k| by_shard.iter().map(move |ids| ids[k])).collect()
}

/// A way to push to and pull from a gateway.
pub trait Endpoint {
    /// Pushes `frames` for `cluster`.
    fn push(&mut self, cluster: u64, frames: MatView<'_>) -> Result<PushOutcome, OrcoError>;
    /// Pulls up to `max` decoded rows of `cluster`.
    fn pull(&mut self, cluster: u64, max: u32) -> Result<Matrix, OrcoError>;
}

impl<C: Connection> Endpoint for Client<C> {
    fn push(&mut self, cluster: u64, frames: MatView<'_>) -> Result<PushOutcome, OrcoError> {
        Client::push(self, cluster, frames)
    }

    fn pull(&mut self, cluster: u64, max: u32) -> Result<Matrix, OrcoError> {
        Client::pull(self, cluster, max)
    }
}

/// An endpoint with a `client.push` / `client.pull` span around each
/// call of the inner one.
#[derive(Debug)]
pub struct Spanned<'a, E> {
    /// The endpoint the calls go to.
    pub inner: &'a mut E,
    /// Where the spans go.
    pub tracer: &'a mut Tracer,
    /// Request id of the next call.
    pub request: u64,
}

impl<E: Endpoint> Endpoint for Spanned<'_, E> {
    fn push(&mut self, cluster: u64, frames: MatView<'_>) -> Result<PushOutcome, OrcoError> {
        self.request += 1;
        let inner = &mut *self.inner;
        self.tracer.span("client.push", self.request, || inner.push(cluster, frames))
    }

    fn pull(&mut self, cluster: u64, max: u32) -> Result<Matrix, OrcoError> {
        self.request += 1;
        let inner = &mut *self.inner;
        self.tracer.span("client.pull", self.request, || inner.pull(cluster, max))
    }
}

/// What `Client` over `Loopback` does for a push or a pull, replayed one
/// layer at a time through the layers' public functions, with a span
/// around each: build the message, `encode_into`, `decode` (the server
/// side's), `Gateway::handle`, encode the reply, decode it.
#[derive(Debug)]
pub struct Layered<'a> {
    gateway: &'a Gateway,
    tracer: &'a mut Tracer,
    frame: Vec<u8>,
    reply: Vec<u8>,
    request: u64,
    batches_seen: u64,
    /// Wire bytes moved, requests and replies.
    pub wire_bytes: u64,
    /// Non-empty pulls by the number of rows each returned.
    pub pulls_by_rows: BTreeMap<usize, u64>,
}

impl<'a> Layered<'a> {
    /// A replay endpoint on `gateway` recording into `tracer`.
    pub fn new(gateway: &'a Gateway, tracer: &'a mut Tracer) -> Self {
        Self {
            batches_seen: gateway.stats().batches,
            gateway,
            tracer,
            frame: Vec::new(),
            reply: Vec::new(),
            request: 0,
            wire_bytes: 0,
            pulls_by_rows: BTreeMap::new(),
        }
    }

    /// Request → wire → `handle` → wire → reply, with `names` the span
    /// names of request encode, request decode, the dispatch, reply
    /// encode and reply decode. `rename` may rename the dispatch span
    /// and the reply spans once the reply is known.
    fn exchange(
        &mut self,
        request: &Message,
        names: [&'static str; 5],
        rename: impl FnOnce(&Message, &mut Self) -> [&'static str; 3],
    ) -> Result<Message, OrcoError> {
        let id = self.request;
        let frame = &mut self.frame;
        self.tracer.span(names[0], id, || request.encode_into(frame));
        self.wire_bytes += self.frame.len() as u64;
        let frame = &self.frame;
        let decoded = self.tracer.span(names[1], id, || Message::decode(frame))?;
        let dispatch = self.tracer.enter(names[2], id);
        let answer = self.gateway.handle(decoded);
        self.tracer.exit(dispatch);
        let [dispatch_name, enc_name, dec_name] = rename(&answer, self);
        self.tracer.rename(dispatch, dispatch_name);
        let reply = &mut self.reply;
        self.tracer.span(enc_name, id, || answer.encode_into(reply));
        self.wire_bytes += self.reply.len() as u64;
        let reply = &self.reply;
        Ok(self.tracer.span(dec_name, id, || Message::decode(reply))?)
    }
}

impl Endpoint for Layered<'_> {
    fn push(&mut self, cluster: u64, frames: MatView<'_>) -> Result<PushOutcome, OrcoError> {
        self.request += 1;
        let root = self.tracer.enter("client.push", self.request);
        let msg = Message::PushFrames {
            cluster_id: cluster,
            trace: self.request,
            frames: frames.to_matrix(),
        };
        let names = [
            "protocol.push_encode",
            "protocol.push_decode",
            "gateway.push",
            "protocol.ack_encode",
            "protocol.ack_decode",
        ];
        let reply = self.exchange(&msg, names, |_, me| {
            // A push during which the batch count advanced paid for a
            // flush (one `encode_batch`); the others only enqueued.
            let batches =
                me.tracer.span("bench.stats_probe", me.request, || me.gateway.stats().batches);
            let flushed = batches != me.batches_seen;
            me.batches_seen = batches;
            [if flushed { "gateway.push_flush" } else { names[2] }, names[3], names[4]]
        })?;
        self.tracer.exit(root);
        match reply {
            Message::PushAck { accepted } => Ok(PushOutcome::Accepted(accepted)),
            Message::Busy { queued, capacity } => Ok(PushOutcome::Busy { queued, capacity }),
            other => Err(OrcoError::Config { detail: format!("push drew {}", other.kind()) }),
        }
    }

    fn pull(&mut self, cluster: u64, max: u32) -> Result<Matrix, OrcoError> {
        self.request += 1;
        let root = self.tracer.enter("client.pull", self.request);
        let msg =
            Message::PullDecoded { cluster_id: cluster, max_frames: max, trace: self.request };
        let names = [
            "protocol.pull_encode",
            "protocol.pull_decode",
            "gateway.pull",
            "protocol.decoded_encode",
            "protocol.decoded_decode",
        ];
        let reply = self.exchange(&msg, names, |answer, me| match answer {
            Message::Decoded { frames, .. } if frames.rows() > 0 => {
                *me.pulls_by_rows.entry(frames.rows()).or_default() += 1;
                // A pull flushes what is pending on the shard first.
                me.batches_seen = me.gateway.stats().batches;
                [names[2], names[3], names[4]]
            }
            _ => ["gateway.pull_empty", "protocol.empty_encode", "protocol.empty_decode"],
        })?;
        self.tracer.exit(root);
        match reply {
            Message::Decoded { frames, .. } => Ok(frames),
            other => Err(OrcoError::Config { detail: format!("pull drew {}", other.kind()) }),
        }
    }
}

/// One cluster's side of a closed loop: where its next frame comes from
/// in the pool, and the digests of what it pushed and what came back.
#[derive(Debug)]
pub struct Lane {
    /// The cluster this lane pushes for.
    pub cluster: u64,
    cursor: usize,
    want: StreamDigest,
    got: StreamDigest,
    owed: usize,
}

impl Lane {
    /// A lane starting at a seeded, chunk-aligned place in the pool.
    pub fn new(cluster: u64, rng: &mut OrcoRng) -> Self {
        Self {
            cluster,
            cursor: CHUNK * rng.below(POOL / CHUNK),
            want: StreamDigest::default(),
            got: StreamDigest::default(),
            owed: 0,
        }
    }

    /// The pool rows of this lane's next push of `rows` frames; the
    /// lane's expectation moves on as if they were accepted.
    pub fn next_rows(&mut self, pool: &Pool, rows: usize) -> std::ops::Range<usize> {
        let range = self.advance(rows);
        for r in range.clone() {
            self.want.fold(pool.expect[r]);
        }
        self.owed += rows;
        range
    }

    /// The pool rows of this lane's next push of `rows` frames, with no
    /// expectation kept: for a caller that checks the deliveries itself.
    pub fn advance(&mut self, rows: usize) -> std::ops::Range<usize> {
        // A batched push never straddles the pool's end.
        let lo = if self.cursor + rows > POOL { 0 } else { self.cursor };
        self.cursor = (lo + rows) % POOL;
        lo..lo + rows
    }

    /// Folds a delivery into what came back.
    pub fn receive(&mut self, delivered: &Matrix) {
        self.receive_digests(delivered.iter_rows().map(row_digest));
    }

    /// Folds a delivery, given as the `row_digest` of each of its rows.
    pub fn receive_digests(&mut self, rows: impl Iterator<Item = u64>) {
        for row in rows {
            self.got.fold(row);
            self.owed = self.owed.saturating_sub(1);
        }
    }

    /// The gate: everything pushed came back, bit-identical to the
    /// direct codec's output and in push order. Resets the digests.
    ///
    /// # Errors
    ///
    /// Says what is missing or that the digests differ.
    pub fn settle(&mut self) -> Result<(), String> {
        let (want, got, owed) = (self.want, self.got, self.owed);
        (self.want, self.got, self.owed) = (StreamDigest::default(), StreamDigest::default(), 0);
        if owed != 0 {
            return Err(format!("cluster {}: {owed} pushed frames never came back", self.cluster));
        }
        if want != got {
            return Err(format!(
                "cluster {}: delivered digest {:016x} differs from the direct codec's {:016x}",
                self.cluster, got.0, want.0
            ));
        }
        Ok(())
    }
}

/// Pulls every lane dry in `CHUNK`-row pulls, appending the seconds each
/// full pull took to `pull_s`.
fn drain(ep: &mut impl Endpoint, lanes: &mut [Lane], pull_s: &mut Vec<f64>) -> Result<(), String> {
    for lane in lanes {
        loop {
            let start = Instant::now();
            let got = ep.pull(lane.cluster, CHUNK as u32).map_err(err)?;
            let took = start.elapsed().as_secs_f64();
            if got.rows() == 0 {
                break;
            }
            if got.rows() == CHUNK {
                pull_s.push(took);
            }
            lane.receive(&got);
        }
    }
    Ok(())
}

/// One closed-loop trial: `frames` frames pushed `rows_per_push` at a
/// time round-robin over `lanes`, drained every [`DRAIN_EVERY`] and at
/// the end, then the delivery gate. Returns the seconds from the first
/// push to the last pulled row.
///
/// # Errors
///
/// A refused push (`Busy`, `Redirect`, short accept), a transport or
/// gateway error, or a failed delivery gate.
pub fn closed_loop(
    ep: &mut impl Endpoint,
    pool: &Pool,
    lanes: &mut [Lane],
    rows_per_push: usize,
    frames: usize,
    pull_s: &mut Vec<f64>,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut since_drain = 0;
    for push in 0..frames / rows_per_push {
        let lane = &mut lanes[push % lanes.len()];
        let rows = lane.next_rows(pool, rows_per_push);
        match ep.push(lane.cluster, pool.frames.view_rows(rows)).map_err(err)? {
            PushOutcome::Accepted(n) if n as usize == rows_per_push => {}
            refused => return Err(format!("push refused: {refused:?}")),
        }
        since_drain += rows_per_push;
        if since_drain >= DRAIN_EVERY {
            drain(ep, lanes, pull_s)?;
            since_drain = 0;
        }
    }
    drain(ep, lanes, pull_s)?;
    let elapsed = start.elapsed().as_secs_f64();
    lanes.iter_mut().try_for_each(Lane::settle)?;
    Ok(elapsed)
}

/// [`closed_loop`] on every client at once, one thread each, `lanes`
/// split evenly among them; all start together. Returns the seconds until
/// the last one finished. With `spans`, every client call is recorded
/// (one tracer per thread, merged afterwards).
///
/// # Errors
///
/// The first failing client's error.
pub fn closed_loop_parallel<C: Connection + Send>(
    clients: &mut [Client<C>],
    pool: &Pool,
    lanes: &mut [Lane],
    rows_per_push: usize,
    frames_each: usize,
    pull_s: &mut Vec<f64>,
    mut spans: Option<&mut Tracer>,
) -> Result<f64, String> {
    let epoch = spans.as_ref().map(|t| t.epoch());
    let start_line = Barrier::new(clients.len() + 1);
    let lanes_each = lanes.len() / clients.len();
    let (took, results) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(lanes.chunks_mut(lanes_each))
            .map(|(client, lanes)| {
                let start_line = &start_line;
                scope.spawn(move || {
                    let mut pulls = Vec::new();
                    let mut tracer = epoch.map(Tracer::new);
                    start_line.wait();
                    let out = match tracer.as_mut() {
                        Some(tracer) => {
                            let mut ep = Spanned { inner: client, tracer, request: 0 };
                            closed_loop(
                                &mut ep,
                                pool,
                                lanes,
                                rows_per_push,
                                frames_each,
                                &mut pulls,
                            )
                        }
                        None => {
                            closed_loop(client, pool, lanes, rows_per_push, frames_each, &mut pulls)
                        }
                    };
                    out.map(|_| (pulls, tracer))
                })
            })
            .collect();
        start_line.wait();
        let start = Instant::now();
        let results: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("driver thread panicked")).collect();
        (start.elapsed().as_secs_f64(), results)
    });
    for result in results {
        let (pulls, tracer) = result?;
        pull_s.extend(pulls);
        if let (Some(all), Some(tracer)) = (spans.as_deref_mut(), tracer) {
            all.absorb(tracer);
        }
    }
    Ok(took)
}

/// `Gateway::stats()` deltas over a phase, as the five gateway counters
/// of the contract.
pub fn report_gateway_counters(report: &mut Report, before: &StatsSnapshot, after: &StatsSnapshot) {
    let batches = after.batches - before.batches;
    let rows = after.frames_in - before.frames_in;
    let share = |n: u64| if batches == 0 { 0.0 } else { n as f64 / batches as f64 };
    report.set("gateway.batches", batches as f64, "flushes, one encode_batch each");
    report.set("gateway.mean_batch_rows", share(rows), "rows per flush");
    report.set(
        "gateway.flush_size_share",
        share(after.size_flushes - before.size_flushes),
        "flushes because the batch filled",
    );
    report.set(
        "gateway.flush_deadline_share",
        share(after.deadline_flushes - before.deadline_flushes),
        "flushes because the batch aged out",
    );
    report.set(
        "gateway.busy",
        (after.busy_rejections - before.busy_rejections) as f64,
        "pushes refused for backpressure",
    );
}

/// Median seconds of one bare `encode_batch` and one bare `decode_batch`
/// of the served model on `rows` pool rows.
///
/// # Errors
///
/// Codec construction or shape errors.
pub fn bare_codec_s(pool: &Pool, cfg: &OrcoConfig, rows: usize) -> Result<(f64, f64), String> {
    let mut codec = AsymmetricAutoencoder::new(cfg).map_err(err)?;
    let view = pool.frames.view_rows(0..rows);
    let (mut codes, mut out) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let enc = median_call_s(50, || codec.encode_batch(view, &mut codes).expect("pool fits codec"));
    let dec = median_call_s(50, || {
        codec.decode_batch(codes.as_view(), &mut out).expect("codes fit codec")
    });
    Ok((enc, dec))
}

/// The loopback gateway of `serve_loopback` and `serve_parallel`: two
/// shards, batch 64, a 50 ms deadline on a manual clock ticking 100 µs a
/// message — so every flush is a size flush and the run is a pure
/// function of the message schedule.
pub fn loopback_gateway(cfg: &OrcoConfig) -> Result<Arc<Gateway>, String> {
    build_gateway(
        GatewayConfig {
            shards: 2,
            batch_max_frames: CHUNK,
            batch_deadline: Duration::from_millis(50),
            queue_capacity: 4096,
            trace_capacity: 0,
            ..GatewayConfig::default()
        },
        Clock::manual(Duration::from_micros(100)),
        cfg,
    )
}
