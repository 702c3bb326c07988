//! # orco-serve
//!
//! The serving layer of the OrcoDCS reproduction: a **sharded
//! edge-ingestion gateway** that exposes the batched codec data plane
//! ([`orcodcs::Codec::encode_batch_with`] / `decode_batch_with`) as a
//! network service over a length-prefixed binary wire protocol.
//!
//! The paper's pipeline ends at the edge server; this crate is what a
//! production deployment puts in front of it. Sensor clusters push raw
//! frames ([`protocol::Message::PushFrames`]); the gateway routes each
//! cluster to a shard by deterministic hash, micro-batches frames across
//! pushes, and encodes every flush as **one** `encode_batch_with` call —
//! the 4–6× batched-over-per-frame win measured in
//! `BENCH_frame_throughput.json` becomes a serving-throughput win
//! (measured in `BENCH_serve_throughput.json`). Consumers drain decoded
//! reconstructions with [`protocol::Message::PullDecoded`]; operators
//! read [`StatsSnapshot`]s off the same wire.
//!
//! Design pillars:
//!
//! * **std-only.** `std::net::TcpListener` + `std::thread`; no async
//!   runtime. The protocol is request/reply and the work is CPU-bound —
//!   two threads per connection and one deadline timer are the honest
//!   model.
//! * **Sharded ownership.** Every shard serves the active model
//!   version's one codec, an `Arc` of immutable weights shared by all
//!   shards, and owns its reusable workspaces; the steady-state ingest
//!   path performs no allocation from the client's encode to the shard's
//!   batch (a push's rows go from the caller's view onto the wire and
//!   from the frame's bytes into the batch, with no `Matrix` in between),
//!   and nothing contends across shards.
//! * **Bounded memory, explicit backpressure.** A shard's in-flight rows
//!   (pending + mid-encode + stored) never exceed
//!   [`GatewayConfig::queue_capacity`]; beyond it clients get
//!   [`protocol::Message::Busy`], never an unbounded buffer.
//! * **Deterministic by construction.** The [`Loopback`] transport plus
//!   [`Clock::manual`] make a full gateway run — stats included — a pure
//!   function of the message schedule, bit-identical at any
//!   `ORCO_THREADS` setting (regression-tested). The TCP face is the
//!   same dispatch path behind a real clock and real sockets.
//!
//! ## Quickstart (in-process loopback)
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use orco_serve::{Clock, Client, Gateway, GatewayConfig, Loopback, PushOutcome};
//! use orcodcs::{AsymmetricAutoencoder, Codec, OrcoConfig};
//! use orco_datasets::DatasetKind;
//! use orco_tensor::Matrix;
//!
//! let config = OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(16);
//! let gateway = Arc::new(Gateway::new(
//!     GatewayConfig { shards: 2, batch_max_frames: 8, ..GatewayConfig::default() },
//!     Clock::manual(Duration::from_micros(100)),
//!     |_| Box::new(AsymmetricAutoencoder::new(&config).expect("valid config")) as Box<dyn Codec>,
//! )?);
//!
//! let mut client = Client::connect(&Loopback::new(Arc::clone(&gateway)))?;
//! let info = client.hello(1)?;
//! assert_eq!(info.frame_dim, 784);
//!
//! // Push a round of frames for cluster 7, then read back reconstructions.
//! let frames = Matrix::zeros(8, 784);
//! assert_eq!(client.push(7, frames.as_view())?, PushOutcome::Accepted(8));
//! let decoded = client.pull(7, 64)?;
//! assert_eq!(decoded.shape(), (8, 784));
//! assert_eq!(client.stats()?.batches, 1); // one flush, ONE encode_batch
//! # Ok::<(), orcodcs::OrcoError>(())
//! ```
//!
//! For the TCP face, see [`TcpServer`], the `edge_gateway` example
//! (workspace root), and the `loadgen` binary in the `orco-fleet` crate.
//!
//! ## Serving under fire (DES transport + chaos gauntlet)
//!
//! The third transport, [`DesNet`], runs the same wire path over
//! [`orco_sim`]'s deterministic impaired links: scripted loss, latency,
//! jitter, and partitions under virtual time, with a stop-and-wait ARQ
//! and server-side dedup providing exactly-once delivery, and a
//! record→replay trace that reproduces any run bit-identically from its
//! log. See `des_transport` for a quickstart, [`scenarios`] for the
//! chaos-gauntlet harness — the event loop, connection routing and
//! contract checks every layer's scenarios run on, the one [`Outcome`]
//! they all return, the [`Scenario`] row type, and this layer's five rows
//! ([`scenarios::SCENARIOS`]) — and the `orco-rollout` crate for the
//! seven-row gauntlet, its one `run_scenario` / `replay_scenario` /
//! `verify`, and the `chaos` CLI
//! (`cargo run -p orco-rollout --bin chaos -- --quick`).
//!
//! ## Fleets
//!
//! Everything above scales past one gateway: [`Service`] abstracts the
//! server side of the wire (the gateway implements it; so does the
//! `orco-fleet` directory), [`FleetView`] is the epoch'd cluster→gateway
//! assignment every party computes locally by rendezvous hashing, and a
//! gateway handed a view ([`Gateway::set_fleet_view`]) answers pushes for
//! clusters it does not own with [`Message::Redirect`] instead of silently
//! misrouting. [`auth`] adds a shared-secret MAC on `Hello`/`Register`.
//! The directory, fleet client, and the gauntlet's fleet cast (directory,
//! agent and client actors, with the `fleet_kill` scenario) live in the
//! `orco-fleet` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod backoff;
mod client;
mod clock;
mod des_transport;
mod gateway;
mod outbox;
mod service;
mod shard;
mod tcp;
mod transport;

pub mod auth;
pub mod fleet_view;
pub mod protocol;
pub mod scenarios;
pub mod stats;

pub use backoff::Backoff;
pub use client::{Client, GatewayInfo, PushOutcome, VersionInfo};
pub use clock::Clock;
pub use des_transport::{DesConfig, DesNet, DesTransport};
pub use fleet_view::FleetView;
pub use gateway::{DriftGuard, Gateway, GatewayConfig};
pub use outbox::Outbox;
pub use protocol::{
    ErrorCode, GatewayEntry, GatewayStats, Message, ModelVersion, ShardRow, WireError, MAX_LABEL,
};
pub use scenarios::{Outcome, RunLog, Scenario, ScenarioError};
pub use service::Service;
pub use stats::StatsSnapshot;
pub use tcp::TcpServer;
pub use transport::{Connection, Loopback, LoopbackConnection, Tcp, TcpConnection, Transport};
