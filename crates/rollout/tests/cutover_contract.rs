//! The cutover contract, pinned over the in-process loopback transport
//! (the DES twin rides `rollout_storm`): flushes before the swap are
//! bit-identical to the old codec, flushes after it to the new one, no
//! delivery ever mixes versions, and not a single row is dropped or
//! duplicated across the boundary — including through a rollback-guard
//! revert.

use std::sync::Arc;
use std::time::Duration;

use orco_rollout::{rollout_one, rollout_staged};
use orco_serve::scenarios::codec_config;
use orco_serve::{Client, Clock, DriftGuard, Gateway, GatewayConfig, Loopback, ModelVersion};
use orco_tensor::{Matrix, OrcoRng};
use orcodcs::{AsymmetricAutoencoder, Codec, EncoderCheckpoint};

/// The gauntlet codec's geometry ([`codec_config`]).
const DIM: usize = 32;
const CODE: usize = 8;
const CLUSTER: u64 = 7;

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
fn donor_checkpoint() -> EncoderCheckpoint {
    AsymmetricAutoencoder::new(&codec_config(99))
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
    let ckpt = donor_checkpoint();
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
        drift: Some(DriftGuard {
            sample_every: 1,
            threshold: 1.0, // the monitor itself stays quiet
            window: 4,
            rollback_above: Some(0.05), // the untrained donor reconstructs far worse
        }),
        ..GatewayConfig::default()
    });
    let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("loopback connects");
    client.hello(1).expect("hello");

    let frames = stream(8);
    let ckpt = donor_checkpoint();
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
fn refusals_surface_and_halt_staged_walks() {
    let gw = gateway(GatewayConfig { shards: 1, ..GatewayConfig::default() });
    let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("loopback connects");
    client.hello(1).expect("hello");
    let ckpt = donor_checkpoint();

    // Wrong geometry.
    let bad = ModelVersion { id: 1, label: "bad".into(), frame_dim: 999, code_dim: CODE as u32 };
    let err = client.propose_rollout(bad, &ckpt).expect_err("geometry mismatch must refuse");
    assert!(err.to_string().contains("geometry"), "unexpected error: {err}");

    // A real rollout, then a stale re-propose of the same id.
    rollout_one(&mut client, version_one(), &ckpt).expect("rollout");
    let err =
        client.propose_rollout(version_one(), &ckpt).expect_err("replayed version id must refuse");
    assert!(err.to_string().contains("not newer"), "unexpected error: {err}");

    // Staged walk: the fresh gateway accepts, the already-rolled one
    // refuses the stale id, and the walk halts naming where.
    let fresh = gateway(GatewayConfig { shards: 1, ..GatewayConfig::default() });
    let mut fresh_client =
        Client::connect(&Loopback::new(Arc::clone(&fresh))).expect("loopback connects");
    fresh_client.hello(2).expect("hello");
    let mut fleet = [fresh_client, client];
    let err = rollout_staged(&mut fleet, &version_one(), &ckpt)
        .expect_err("the walk must halt at the stale gateway");
    assert!(err.to_string().contains("halted at gateway 1"), "unexpected error: {err}");
    assert_eq!(fresh.stats().active_version, 1, "the canary before the halt stays rolled");
}

/// Rows outlive two rollouts: the version that encoded them is retired
/// twice over, is no longer the rollback target, and still decodes its
/// last stored rows, bit-identical, before it is dropped.
#[test]
fn rows_of_a_twice_retired_version_still_drain() {
    let gw = gateway(GatewayConfig { shards: 1, batch_max_frames: 4, ..GatewayConfig::default() });
    let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("loopback connects");
    client.hello(1).expect("hello");
    let frames = stream(4);
    let ckpt = donor_checkpoint();

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
