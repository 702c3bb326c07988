//! The cutover contract, pinned over the in-process loopback transport
//! (the DES twin rides `rollout_storm`): flushes before the swap are
//! bit-identical to the old codec, flushes after it to the new one, no
//! delivery ever mixes versions, and not a single row is dropped or
//! duplicated across the boundary — including through a rollback-guard
//! revert. A version is one codec, shared by every shard.

use std::collections::BTreeSet;
use std::num::{NonZeroU64, NonZeroUsize};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use orco_rollout::rollout_one;
use orco_serve::scenarios::codec_config;
use orco_serve::{Client, Clock, DriftGuard, Gateway, GatewayConfig, Loopback, ModelVersion};
use orco_tensor::{MatView, Matrix, OrcoRng};
use orcodcs::{
    AsymmetricAutoencoder, Codec, EncoderCheckpoint, OrcoError, TrainSpec, TrainingHistory,
    Workspace,
};

/// The gauntlet codec's geometry ([`codec_config`]).
const DIM: usize = 32;
const CODE: usize = 8;
const CLUSTER: u64 = 7;

/// A guard whose monitor stays quiet and whose rollback rail trips on one
/// full window of an untrained donor's reconstructions.
fn guard() -> Option<DriftGuard> {
    Some(DriftGuard {
        sample_every: NonZeroU64::MIN,
        threshold: 1.0, // the monitor itself stays quiet
        window: NonZeroUsize::new(4).unwrap(),
        rollback_above: Some(0.05), // an untrained donor reconstructs far worse
    })
}

fn gateway(cfg: GatewayConfig) -> Arc<Gateway> {
    let codec_cfg = codec_config(11);
    Arc::new(
        Gateway::new(cfg, Clock::manual(Duration::from_micros(100)), move |_| {
            Box::new(AsymmetricAutoencoder::new(&codec_cfg).expect("valid config"))
                as Box<dyn Codec>
        })
        .expect("valid gateway config"),
    )
}

/// The retrain stand-in every test rolls out: a differently-seeded
/// encoder grafted onto the served decoder.
fn donor_checkpoint(seed: u64) -> EncoderCheckpoint {
    AsymmetricAutoencoder::new(&codec_config(seed))
        .expect("valid config")
        .checkpoint()
        .expect("autoencoder codecs checkpoint")
}

fn version_one() -> ModelVersion {
    ModelVersion { id: 1, label: "retrain-99".into(), frame_dim: DIM as u32, code_dim: CODE as u32 }
}

fn stream(rows: usize) -> Matrix {
    let mut rng = OrcoRng::from_seed_u64(0xC07E);
    Matrix::from_fn(rows, DIM, |_, _| rng.uniform(0.0, 1.0))
}

/// Direct encode → decode of `frames` under the boot codec (`ckpt`
/// `None`) or the rolled-out one (`Some`): what a version-pure delivery
/// must be bit-identical to.
fn reference(ckpt: Option<&EncoderCheckpoint>, frames: &Matrix) -> Matrix {
    let codec = AsymmetricAutoencoder::new(&codec_config(11)).expect("valid config");
    let mut codec = match ckpt {
        Some(c) => codec.with_encoder(c).expect("same geometry"),
        None => Box::new(codec) as Box<dyn Codec>,
    };
    let mut codes = Matrix::zeros(0, 0);
    let mut recon = Matrix::zeros(0, 0);
    codec.encode_batch(frames.as_view(), &mut codes).expect("geometry fits");
    codec.decode_batch(codes.as_view(), &mut recon).expect("geometry fits");
    recon
}

fn rows_eq(got: &Matrix, want: &Matrix, lo: usize) {
    assert_eq!(got.cols(), want.cols());
    for r in 0..got.rows() {
        assert_eq!(
            got.row(r),
            want.row(lo + r),
            "row {} diverges from the reference codec path",
            lo + r
        );
    }
}

/// The tentpole contract: rows in flight across the swap flush under
/// the codec that accepted them, drain version-pure, and both sides are
/// bit-identical to their version's direct codec path.
#[test]
fn cutover_is_version_pure_and_bit_identical() {
    let gw = gateway(GatewayConfig {
        shards: 2,
        batch_max_frames: 64, // no size flushes: every flush below is explicit
        ..GatewayConfig::default()
    });
    let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("loopback connects");
    let info = client.hello(1).expect("hello");
    assert_eq!(info.active_version, 0);

    let frames = stream(12);
    let ckpt = donor_checkpoint(99);
    let recon_v0 = reference(None, &frames);
    let recon_v1 = reference(Some(&ckpt), &frames);

    // Pre-swap: rows 0..4 flush (read-your-writes) and drain under v0.
    client.push(CLUSTER, frames.view_rows(0..4)).expect("push");
    let (v, got) = client.pull_versioned(CLUSTER, 64).expect("pull");
    assert_eq!((v, got.rows()), (0, 4));
    rows_eq(&got, &recon_v0, 0);

    // Rows 4..8 are pending when the rollout lands: the swap boundary
    // must flush them under the OLD codec (zero drops, no re-encode) ...
    client.push(CLUSTER, frames.view_rows(4..8)).expect("push");
    let state = rollout_one(&mut client, version_one(), &ckpt).expect("rollout");
    assert_eq!(state.active.id, 1);
    assert_eq!(state.prior.as_ref().map(|p| p.id), Some(0));

    // ... and rows 8..12, pushed after the swap, encode under v1.
    client.push(CLUSTER, frames.view_rows(8..12)).expect("push");

    // The store now holds both generations. Deliveries stay version-pure:
    // the v0 run drains first, capped at the version boundary ...
    let (v, got) = client.pull_versioned(CLUSTER, 64).expect("pull");
    assert_eq!((v, got.rows()), (0, 4), "swap-flushed rows must drain as v0 first");
    rows_eq(&got, &recon_v0, 4);

    // ... then the v1 rows, bit-identical to the new codec's direct path.
    let (v, got) = client.pull_versioned(CLUSTER, 64).expect("pull");
    assert_eq!((v, got.rows()), (1, 4));
    rows_eq(&got, &recon_v1, 8);

    // Drained: nothing left, nothing duplicated, and the empty delivery
    // reports the now-active version.
    let (v, got) = client.pull_versioned(CLUSTER, 64).expect("pull");
    assert_eq!((v, got.rows()), (1, 0));

    let stats = gw.stats();
    assert_eq!(stats.frames_in, 12);
    assert_eq!(stats.frames_out, 12);
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.swap_flushes, 1, "exactly the pending shard flushed at the boundary");
    assert_eq!(stats.active_version, 1);
    assert_eq!((stats.queue_depth, stats.stored_codes), (0, 0));
}

/// The rollback guard: a regressing post-swap window reverts to the
/// prior codec, and even the revert drops nothing — rows encoded by the
/// bad version drain as that version.
#[test]
fn rollback_guard_reverts_without_dropping_rows() {
    let gw = gateway(GatewayConfig {
        shards: 1,
        batch_max_frames: 4,
        drift: guard(),
        ..GatewayConfig::default()
    });
    let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("loopback connects");
    client.hello(1).expect("hello");

    let frames = stream(8);
    let ckpt = donor_checkpoint(99);
    let recon_v0 = reference(None, &frames);
    let recon_v1 = reference(Some(&ckpt), &frames);

    let state = rollout_one(&mut client, version_one(), &ckpt).expect("rollout");
    assert_eq!(state.active.id, 1);

    // One full window of bad reconstructions trips the guard on the
    // size flush inside this push.
    client.push(CLUSTER, frames.view_rows(0..4)).expect("push");
    let info = client.version_info().expect("version query");
    assert_eq!(info.active.id, 0, "guard must revert to the prior version");
    assert_eq!(info.rollbacks, 1);
    assert!(info.prior.is_none(), "the demoted version is not a rollback target");

    // Zero-drop through the revert: the bad version's rows still drain,
    // tagged and bit-identical as v1 ...
    let (v, got) = client.pull_versioned(CLUSTER, 64).expect("pull");
    assert_eq!((v, got.rows()), (1, 4));
    rows_eq(&got, &recon_v1, 0);

    // ... and post-revert rows encode under the restored v0.
    client.push(CLUSTER, frames.view_rows(4..8)).expect("push");
    let (v, got) = client.pull_versioned(CLUSTER, 64).expect("pull");
    assert_eq!((v, got.rows()), (0, 4));
    rows_eq(&got, &recon_v0, 4);

    let stats = gw.stats();
    assert_eq!(stats.rollbacks, 1);
    assert_eq!(stats.active_version, 0);
    assert_eq!(stats.frames_out, 8);
    assert!(!stats.drift, "a revert clears the drift latch");
}

/// Gateway refusals surface as typed errors on the client, and a staged
/// fleet walk halts at the first refusing gateway.
#[test]
fn refusals_surface_with_their_reason() {
    let gw = gateway(GatewayConfig { shards: 1, ..GatewayConfig::default() });
    let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("loopback connects");
    client.hello(1).expect("hello");
    let ckpt = donor_checkpoint(99);

    // Wrong geometry.
    let bad = ModelVersion { id: 1, label: "bad".into(), frame_dim: 999, code_dim: CODE as u32 };
    let err = client.propose_rollout(bad, &ckpt).expect_err("geometry mismatch must refuse");
    assert!(err.to_string().contains("geometry"), "unexpected error: {err}");

    // A real rollout, then a stale re-propose of the same id.
    rollout_one(&mut client, version_one(), &ckpt).expect("rollout");
    let err =
        client.propose_rollout(version_one(), &ckpt).expect_err("replayed version id must refuse");
    assert!(err.to_string().contains("not newer"), "unexpected error: {err}");

    // Activation refusals, on a gateway still at v0: nothing staged, then
    // the wrong id.
    let staging = gateway(GatewayConfig { shards: 1, ..GatewayConfig::default() });
    let mut client =
        Client::connect(&Loopback::new(Arc::clone(&staging))).expect("loopback connects");
    client.hello(3).expect("hello");
    let err = client.activate_version(1).expect_err("nothing is staged");
    assert!(err.to_string().contains("no version is staged"), "unexpected error: {err}");
    let version_two = ModelVersion { id: 2, label: "retrain-99b".into(), ..version_one() };
    client.propose_rollout(version_two, &ckpt).expect("stage v2");
    let err = client.activate_version(1).expect_err("v1 is not staged");
    assert!(err.to_string().contains("staged version is 2, not 1"), "unexpected error: {err}");

    // Last writer wins: re-proposing v1 replaces the staged v2, so the
    // first proposal's id is refused and the second's activates.
    client.propose_rollout(version_one(), &ckpt).expect("restage v1");
    let err = client.activate_version(2).expect_err("v2 was replaced");
    assert!(err.to_string().contains("staged version is 1, not 2"), "unexpected error: {err}");
    client.activate_version(1).expect("the second proposal activates");
    assert_eq!(staging.stats().active_version, 1);
}

/// Rows outlive two rollouts: the version that encoded them is replaced
/// twice over and is no longer the rollback target, yet its last stored
/// rows still drain tagged with it, bit-identical — through the decoder
/// every version shares.
#[test]
fn rows_of_a_twice_retired_version_still_drain() {
    let gw = gateway(GatewayConfig { shards: 1, batch_max_frames: 4, ..GatewayConfig::default() });
    let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("loopback connects");
    client.hello(1).expect("hello");
    let frames = stream(4);
    let ckpt = donor_checkpoint(99);

    // A size flush stores the rows under v0; two rollouts retire it.
    client.push(CLUSTER, frames.view_rows(0..4)).expect("push");
    rollout_one(&mut client, version_one(), &ckpt).expect("rollout to v1");
    let version_two = ModelVersion { id: 2, label: "retrain-99b".into(), ..version_one() };
    let state = rollout_one(&mut client, version_two, &ckpt).expect("rollout to v2");
    assert_eq!(state.prior.as_ref().map(|p| p.id), Some(1));

    let (v, got) = client.pull_versioned(CLUSTER, 64).expect("pull");
    assert_eq!((v, got.rows()), (0, 4));
    rows_eq(&got, &reference(None, &frames), 0);
    assert_eq!(gw.stats().frames_out, 4);
}

/// A rollback after two rollouts: the target is the version the last
/// cut-over replaced (v1, not the boot v0), on every shard. The bad
/// version's rows — a size flush on one shard, and the batch the revert
/// flushed on the other — drain tagged with it, and rows pushed after the
/// revert encode under v1 on both shards.
#[test]
fn a_rollback_reverts_every_shard_to_the_version_the_last_cut_over_replaced() {
    let gw = gateway(GatewayConfig {
        shards: 2,
        batch_max_frames: 4,
        drift: guard(),
        ..GatewayConfig::default()
    });
    let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("loopback connects");
    client.hello(1).expect("hello");
    let here = CLUSTER;
    let there = (0..).find(|&c| gw.shard_of(c) != gw.shard_of(here)).expect("two shards");

    let frames = stream(12);
    let (v1, v2) = (donor_checkpoint(99), donor_checkpoint(98));
    let recon_v1 = reference(Some(&v1), &frames);
    let recon_v2 = reference(Some(&v2), &frames);

    // Nothing flushes under v1, so its window never fills: v0 stays the
    // prior until v2 replaces v1.
    rollout_one(&mut client, version_one(), &v1).expect("rollout to v1");
    let version_two = ModelVersion { id: 2, label: "retrain-98".into(), ..version_one() };
    let state = rollout_one(&mut client, version_two, &v2).expect("rollout to v2");
    assert_eq!(state.prior.as_ref().map(|p| p.id), Some(1));

    // Two rows wait on the other shard; one full bad window on this one
    // trips the guard on the size flush inside the second push.
    client.push(there, frames.view_rows(0..2)).expect("push");
    client.push(here, frames.view_rows(2..6)).expect("push");
    let info = client.version_info().expect("version query");
    assert_eq!(info.active.id, 1, "the target is the version v2 replaced, not the boot v0");
    assert_eq!(info.rollbacks, 1);
    assert!(info.prior.is_none(), "the demoted version is not a rollback target");

    // v2's rows drain tagged v2 on both shards ...
    for (cluster, lo, rows) in [(here, 2, 4), (there, 0, 2)] {
        let (v, got) = client.pull_versioned(cluster, 64).expect("pull");
        assert_eq!((v, got.rows()), (2, rows));
        rows_eq(&got, &recon_v2, lo);
    }

    // ... and post-revert rows encode under v1 on both shards.
    client.push(here, frames.view_rows(6..9)).expect("push");
    client.push(there, frames.view_rows(9..12)).expect("push");
    for (cluster, lo) in [(here, 6), (there, 9)] {
        let (v, got) = client.pull_versioned(cluster, 64).expect("pull");
        assert_eq!((v, got.rows()), (1, 3));
        rows_eq(&got, &recon_v1, lo);
    }

    let stats = gw.stats();
    assert_eq!((stats.swaps, stats.rollbacks, stats.active_version), (2, 1, 1));
    assert_eq!(stats.frames_out, 12);
}

/// What every [`Counted`] codec of one gateway shares: the number of
/// `with_encoder` calls, the ids of the live instances, and the ids of the
/// instances that encoded a batch.
#[derive(Debug, Default)]
struct Tally {
    with_encoder: usize,
    next_id: usize,
    live: BTreeSet<usize>,
    encoded_by: BTreeSet<usize>,
}

/// The gauntlet's autoencoder, counted: each instance takes the next id,
/// is live until it drops, and records its id on every encode.
#[derive(Debug)]
struct Counted {
    id: usize,
    inner: Box<dyn Codec>,
    tally: Arc<Mutex<Tally>>,
}

/// The tally, as a panicking test thread left it: a drop must not panic.
fn tally(t: &Mutex<Tally>) -> MutexGuard<'_, Tally> {
    t.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Counted {
    fn new(inner: Box<dyn Codec>, shared: &Arc<Mutex<Tally>>) -> Self {
        let mut t = tally(shared);
        let id = t.next_id;
        t.next_id += 1;
        t.live.insert(id);
        Self { id, inner, tally: Arc::clone(shared) }
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        tally(&self.tally).live.remove(&self.id);
    }
}

impl Codec for Counted {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }
    fn bytes_per_frame(&self) -> u64 {
        self.inner.bytes_per_frame()
    }
    fn train(&mut self, x: &Matrix, spec: &TrainSpec) -> Result<TrainingHistory, OrcoError> {
        self.inner.train(x, spec)
    }
    fn encode_batch_with(
        &self,
        ws: &mut Workspace,
        frames: MatView<'_>,
        out: &mut Matrix,
    ) -> Result<(), OrcoError> {
        tally(&self.tally).encoded_by.insert(self.id);
        self.inner.encode_batch_with(ws, frames, out)
    }
    fn decode_batch_with(
        &self,
        ws: &mut Workspace,
        codes: MatView<'_>,
        out: &mut Matrix,
    ) -> Result<(), OrcoError> {
        self.inner.decode_batch_with(ws, codes, out)
    }
    fn encode_batch(&mut self, frames: MatView<'_>, out: &mut Matrix) -> Result<(), OrcoError> {
        self.encode_batch_with(&mut Workspace::default(), frames, out)
    }
    fn decode_batch(&mut self, codes: MatView<'_>, out: &mut Matrix) -> Result<(), OrcoError> {
        self.decode_batch_with(&mut Workspace::default(), codes, out)
    }
    fn checkpoint(&self) -> Option<EncoderCheckpoint> {
        self.inner.checkpoint()
    }
    fn with_encoder(&self, checkpoint: &EncoderCheckpoint) -> Result<Box<dyn Codec>, OrcoError> {
        tally(&self.tally).with_encoder += 1;
        Ok(Box::new(Counted::new(self.inner.with_encoder(checkpoint)?, &self.tally)))
    }
}

/// A model version is one codec: the proposal derives it once, the
/// activation installs that one instance on every shard, and the guard's
/// rollback reinstalls version 0's — shard 0's boot codec — on all four,
/// deriving nothing.
#[test]
fn a_version_is_one_codec_that_every_shard_serves_and_a_rollback_restores() {
    let shared = Arc::new(Mutex::new(Tally::default()));
    let factory = Arc::clone(&shared);
    let codec_cfg = codec_config(11);
    let cfg = GatewayConfig {
        shards: 4,
        batch_max_frames: 4,
        drift: guard(),
        ..GatewayConfig::default()
    };
    let gw = Arc::new(
        Gateway::new(cfg, Clock::manual(Duration::from_micros(100)), move |_| {
            let ae = AsymmetricAutoencoder::new(&codec_cfg).expect("valid config");
            Box::new(Counted::new(Box::new(ae), &factory)) as Box<dyn Codec>
        })
        .expect("valid gateway config"),
    );
    let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("loopback connects");
    client.hello(1).expect("hello");
    let clusters: Vec<u64> =
        (0..4).map(|s| (0..).find(|&c| gw.shard_of(c) == s).expect("every shard")).collect();
    let frames = stream(8);
    let seen = || {
        let t = tally(&shared);
        (t.with_encoder, t.live.iter().copied().collect::<Vec<_>>())
    };
    // Boot: one codec a shard (ids 0..4, in shard order).
    assert_eq!(seen(), (0, vec![0, 1, 2, 3]));

    client.propose_rollout(version_one(), &donor_checkpoint(99)).expect("stage v1");
    assert_eq!(seen(), (1, vec![0, 1, 2, 3, 4]), "the proposal derives v1's one codec");
    client.activate_version(1).expect("activate v1");
    assert_eq!(
        seen(),
        (1, vec![0, 4]),
        "every shard serves v1's one codec; v0's (shard 0's) is the rollback target"
    );

    // One row waits on shards 1..4; one full bad window on shard 0 trips
    // the guard, and the revert flushes the waiting rows under v1 first.
    for &cluster in &clusters[1..] {
        client.push(cluster, frames.view_rows(0..1)).expect("push");
    }
    client.push(clusters[0], frames.view_rows(0..4)).expect("push");
    let info = client.version_info().expect("version query");
    assert_eq!((info.active.id, info.rollbacks), (0, 1), "the guard reverts to v0");
    assert_eq!(tally(&shared).encoded_by, BTreeSet::from([4]), "all four encoded with v1's codec");
    assert_eq!(seen(), (1, vec![0]), "one codec, v0's, serves all four shards after the revert");

    // Post-revert rows encode with that one codec on every shard.
    tally(&shared).encoded_by.clear();
    for &cluster in &clusters {
        client.push(cluster, frames.view_rows(4..5)).expect("push");
        client.pull_versioned(cluster, 64).expect("pull");
    }
    assert_eq!(tally(&shared).encoded_by, BTreeSet::from([0]));
    assert_eq!(seen(), (1, vec![0]));
}

/// A proposal whose encoder holds a NaN — what a diverged training run
/// yields — is refused, and nothing is staged.
#[test]
fn a_non_finite_proposal_is_refused() {
    let gw = gateway(GatewayConfig { shards: 1, ..GatewayConfig::default() });
    let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("loopback connects");
    client.hello(1).expect("hello");
    let mut diverged = donor_checkpoint(99);
    diverged.weight[(2, 5)] = f32::NAN;
    let err = client.propose_rollout(version_one(), &diverged).expect_err("a NaN must refuse");
    assert!(err.to_string().contains("non-finite"), "unexpected error: {err}");
    let err = client.activate_version(1).expect_err("nothing was staged");
    assert!(err.to_string().contains("no version is staged"), "unexpected error: {err}");
    assert_eq!(gw.stats().active_version, 0);
}

/// The gauntlet's autoencoder, whose grafted versions decode every row
/// to NaN: a cut-over that serves garbage the drift probe cannot score.
#[derive(Debug)]
struct NanAfterSwap {
    inner: Box<dyn Codec>,
    nan: bool,
}

impl Codec for NanAfterSwap {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }
    fn bytes_per_frame(&self) -> u64 {
        self.inner.bytes_per_frame()
    }
    fn train(&mut self, x: &Matrix, spec: &TrainSpec) -> Result<TrainingHistory, OrcoError> {
        self.inner.train(x, spec)
    }
    fn encode_batch_with(
        &self,
        ws: &mut Workspace,
        frames: MatView<'_>,
        out: &mut Matrix,
    ) -> Result<(), OrcoError> {
        self.inner.encode_batch_with(ws, frames, out)
    }
    fn decode_batch_with(
        &self,
        ws: &mut Workspace,
        codes: MatView<'_>,
        out: &mut Matrix,
    ) -> Result<(), OrcoError> {
        self.inner.decode_batch_with(ws, codes, out)?;
        if self.nan {
            out.as_mut_slice().fill(f32::NAN);
        }
        Ok(())
    }
    fn encode_batch(&mut self, frames: MatView<'_>, out: &mut Matrix) -> Result<(), OrcoError> {
        self.encode_batch_with(&mut Workspace::default(), frames, out)
    }
    fn decode_batch(&mut self, codes: MatView<'_>, out: &mut Matrix) -> Result<(), OrcoError> {
        self.decode_batch_with(&mut Workspace::default(), codes, out)
    }
    fn checkpoint(&self) -> Option<EncoderCheckpoint> {
        self.inner.checkpoint()
    }
    fn with_encoder(&self, checkpoint: &EncoderCheckpoint) -> Result<Box<dyn Codec>, OrcoError> {
        Ok(Box::new(NanAfterSwap { inner: self.inner.with_encoder(checkpoint)?, nan: true }))
    }
}

/// A cut-over to a codec that decodes NaN is rolled back: the drift
/// probe's windowed error is NaN, and the guard reads that as over its
/// bound, not as a clean window that commits the swap. The bound is the
/// largest finite one, so only a NaN can trip it.
#[test]
fn a_cut_over_that_decodes_nan_is_rolled_back() {
    let codec_cfg = codec_config(11);
    let cfg = GatewayConfig {
        shards: 1,
        batch_max_frames: 4,
        drift: Some(DriftGuard {
            sample_every: NonZeroU64::MIN,
            threshold: f32::MAX,
            window: NonZeroUsize::new(4).unwrap(),
            rollback_above: Some(f32::MAX),
        }),
        ..GatewayConfig::default()
    };
    let gw = Arc::new(
        Gateway::new(cfg, Clock::manual(Duration::from_micros(100)), move |_| {
            let ae = AsymmetricAutoencoder::new(&codec_cfg).expect("valid config");
            Box::new(NanAfterSwap { inner: Box::new(ae), nan: false }) as Box<dyn Codec>
        })
        .expect("valid gateway config"),
    );
    let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("loopback connects");
    client.hello(1).expect("hello");
    let frames = stream(8);

    let state = rollout_one(&mut client, version_one(), &donor_checkpoint(99)).expect("rollout");
    assert_eq!(state.active.id, 1);
    // One full window of NaN reconstructions, on the size flush inside
    // this push.
    client.push(CLUSTER, frames.view_rows(0..4)).expect("push");
    let info = client.version_info().expect("version query");
    assert_eq!(info.active.id, 0, "a NaN window must revert to the prior version");
    assert_eq!(info.rollbacks, 1);

    // Post-revert rows decode under v0, finite again.
    client.pull_versioned(CLUSTER, 64).expect("pull the NaN version's rows");
    client.push(CLUSTER, frames.view_rows(4..8)).expect("push");
    let (v, got) = client.pull_versioned(CLUSTER, 64).expect("pull");
    assert_eq!((v, got.rows()), (0, 4));
    rows_eq(&got, &reference(None, &frames), 4);
}
