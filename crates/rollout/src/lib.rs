//! # orco-rollout
//!
//! Drift-aware **live model rollout** for the OrcoDCS serving layer: the
//! control plane that notices a drifting field distribution, ships a
//! retrained encoder to a running gateway fleet, and cuts it over
//! **without dropping or reordering a single frame**.
//!
//! The paper motivates online adaptation (§I, §III-D): sensing
//! distributions drift, and an offline-trained codec quietly degrades.
//! The serving layer already detects this — gateways sample decoded
//! reconstructions through a [`orcodcs::FineTuneMonitor`]
//! ([`orco_serve::GatewayConfig::drift`]) and surface trips
//! as the `drift` flag on [`orco_serve::StatsSnapshot`] and on
//! [`orco_serve::Message::VersionReply`]. This crate closes the loop:
//!
//! * **Staging** — [`rollout_one`] ships an [`orcodcs::EncoderCheckpoint`]
//!   as a [`orco_serve::ModelVersion`] via the MAC'd
//!   `RolloutPropose`/`ActivateVersion` wire lifecycle. Version ids are
//!   monotonic, so replayed or reordered proposals can never regress a
//!   gateway.
//! * **Zero-drop cutover** — the gateway swaps codecs only at a flush
//!   boundary: pending rows flush under the old codec first, stored rows
//!   drain through the codec that encoded them, and every delivery is
//!   tagged with its producing version. No flush ever mixes versions.
//! * **Rollback guard** — a gateway configured with
//!   [`orco_serve::DriftGuard::rollback_above`] watches the post-swap
//!   windowed reconstruction error and reverts to the prior codec on
//!   regression; [`rollout_one`] surfaces the final state in the
//!   returned [`orco_serve::VersionInfo`].
//! * **Staged fleets** — [`rollout_staged`] walks a fleet one gateway at
//!   a time, aborting on the first refusal so a bad version never
//!   reaches the whole fleet.
//!
//! The `scenarios` module adds `rollout_storm` to the chaos gauntlet:
//! the shared fleet cast of `orco_fleet::scenarios` (3 gateways over
//! impaired DES links) plus a controller role, drift injected mid-run, a
//! staged rollout racing it, one gateway killed mid-swap — and the whole
//! run replayable bit-identically from its tape (`cargo run -p
//! orco-rollout --bin chaos -- --scenario rollout_storm`). This crate
//! sits on top of the gauntlet's layers, so it owns the registry:
//! [`SCENARIOS`] is the seven-row table (each layer contributes its
//! [`orco_serve::Scenario`] rows), [`run_scenario`] / [`replay_scenario`]
//! are the one entry point that looks a name up in it, [`verify`] is the
//! one live → tape → text → replay check the `chaos` binary and the tests
//! both call, and every scenario returns the one [`orco_serve::Outcome`].
//!
//! ## Quickstart (in-process loopback)
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use orco_rollout::rollout_one;
//! use orco_serve::{Clock, Client, Gateway, GatewayConfig, Loopback, ModelVersion, PushOutcome};
//! use orcodcs::{AsymmetricAutoencoder, Codec, OrcoConfig};
//! use orco_tensor::Matrix;
//!
//! let config = OrcoConfig::for_dataset(orco_datasets::DatasetKind::MnistLike)
//!     .with_latent_dim(16);
//! let gateway = Arc::new(Gateway::new(
//!     GatewayConfig { shards: 2, batch_max_frames: 8, ..GatewayConfig::default() },
//!     Clock::manual(Duration::from_micros(100)),
//!     |_| Box::new(AsymmetricAutoencoder::new(&config).expect("valid config")) as Box<dyn Codec>,
//! )?);
//! let mut client = Client::connect(&Loopback::new(Arc::clone(&gateway)))?;
//! let info = client.hello(1)?;
//! assert_eq!(info.active_version, 0); // the boot model
//!
//! // Rows pushed before the swap are served by the boot model ...
//! client.push(7, Matrix::zeros(4, 784).as_view())?;
//!
//! // ... even when a new encoder (here: a freshly seeded one standing in
//! // for a retrain) is rolled out while they are still in flight.
//! let donor = AsymmetricAutoencoder::new(&config.clone().with_seed(99))?;
//! let ckpt = donor.checkpoint().expect("autoencoder codecs checkpoint");
//! let version = ModelVersion { id: 1, label: "retrain".into(), frame_dim: 784, code_dim: 16 };
//! let state = rollout_one(&mut client, version, &ckpt)?;
//! assert_eq!(state.active.id, 1);
//!
//! let (served_by, frames) = client.pull_versioned(7, 64)?;
//! assert_eq!((served_by, frames.rows()), (0, 4)); // zero-drop: old rows, old codec
//! # Ok::<(), orcodcs::OrcoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod scenarios;

use orco_serve::{Client, Connection, ModelVersion, VersionInfo};
use orcodcs::{EncoderCheckpoint, OrcoError};

pub use scenarios::{replay_scenario, run_scenario, verify, SCENARIOS};

/// Stages `checkpoint` as `version` on the gateway behind `client` and
/// activates it, returning the gateway's post-swap version state.
///
/// The two-step wire lifecycle (`RolloutPropose` → `ActivateVersion`) is
/// driven back to back; the gateway still cuts over only at a flush
/// boundary, so in-flight rows are never dropped or re-encoded. The
/// client must carry the gateway's auth secret
/// ([`Client::set_auth_secret`]) when the gateway is authenticated.
///
/// # Errors
///
/// Propagates transport errors; surfaces a gateway refusal (geometry
/// mismatch, stale version id, bad MAC) as [`OrcoError::Config`]. Also
/// errors when the gateway reports a different active version after the
/// swap — the rollback guard may already have reverted it.
pub fn rollout_one<C: Connection>(
    client: &mut Client<C>,
    version: ModelVersion,
    checkpoint: &EncoderCheckpoint,
) -> Result<VersionInfo, OrcoError> {
    let id = version.id;
    client.propose_rollout(version, checkpoint)?;
    client.activate_version(id)?;
    let info = client.version_info()?;
    if info.active.id != id {
        return Err(OrcoError::Config {
            detail: format!(
                "gateway activated version {id} but now serves {} (rollbacks: {})",
                info.active.id, info.rollbacks
            ),
        });
    }
    Ok(info)
}

/// Rolls `version` out across a fleet **one gateway at a time**, in
/// slice order, aborting on the first gateway that refuses or rolls
/// back — a bad version stops at the first canary instead of reaching
/// the whole fleet.
///
/// Returns the per-gateway [`VersionInfo`] in rollout order on success.
///
/// # Errors
///
/// As [`rollout_one`]; the error names the gateway index it stopped at,
/// and earlier gateways are left serving the new version (roll forward
/// or rely on their rollback guards — this helper never auto-reverts).
pub fn rollout_staged<C: Connection>(
    clients: &mut [Client<C>],
    version: &ModelVersion,
    checkpoint: &EncoderCheckpoint,
) -> Result<Vec<VersionInfo>, OrcoError> {
    let mut states = Vec::with_capacity(clients.len());
    for (i, client) in clients.iter_mut().enumerate() {
        match rollout_one(client, version.clone(), checkpoint) {
            Ok(info) => states.push(info),
            Err(e) => {
                return Err(OrcoError::Config {
                    detail: format!(
                        "staged rollout of version {} halted at gateway {i}/{}: {e}",
                        version.id,
                        clients.len()
                    ),
                });
            }
        }
    }
    Ok(states)
}
