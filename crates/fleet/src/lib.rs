//! # orco-fleet
//!
//! The fleet layer of the OrcoDCS reproduction: a **cluster directory
//! service** that scales the `orco-serve` gateway from one process to a
//! fleet, with client redirects, epoch'd rebalancing, and deterministic
//! chaos scenarios for the whole ensemble.
//!
//! The division of labor:
//!
//! * [`Directory`] — the membership authority. Gateways register
//!   (MAC-gated, [`orco_serve::auth`]) and heartbeat; silence past the
//!   timeout evicts them. Every membership change bumps an **epoch**.
//!   The directory never computes assignments: rendezvous hashing
//!   ([`orco_serve::fleet_view`]) lets every party derive the owner of
//!   any cluster locally from `(epoch, members)`.
//! * [`GatewayAgent`] — the gateway-side thread that registers,
//!   heartbeats, and feeds every epoch change into the gateway's
//!   [`orco_serve::FleetView`], so a push for a cluster the gateway no
//!   longer owns draws [`orco_serve::Message::Redirect`] instead of a
//!   silent misroute.
//! * [`FleetClient`] — the client side: bootstraps the table from the
//!   directory, routes pushes to locally-computed owners, and chases
//!   redirects. A stale epoch costs one extra round trip, never a
//!   misdelivered frame.
//! * [`scenarios`] — the fleet **cast** of the chaos-gauntlet harness
//!   ([`orco_serve::scenarios`]): the directory, the gateway agents and
//!   the window-streaming, redirect-chasing clients as simulation actors
//!   over the [`orco_serve::DesNet`] impaired links, shared with
//!   `orco-rollout`. On it, `fleet_kill`: four gateways + six clients
//!   with a scripted mid-run gateway kill and join, pinned to
//!   exactly-once delivery and bit-identical decode. It is this crate's
//!   one row of the gauntlet ([`scenarios::SCENARIOS`]); `orco-rollout`
//!   holds the seven-row table and the one entry point that runs it
//!   (`cargo run -p orco-rollout --bin chaos`).
//!
//! ## Quickstart (in-process directory)
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use orco_fleet::{Directory, DirectoryConfig, DirectoryClient};
//! use orco_serve::{Clock, Loopback};
//!
//! let directory = Arc::new(Directory::new(
//!     DirectoryConfig::default(),
//!     Clock::manual(Duration::ZERO),
//! )?);
//!
//! // Loopback serves any Service — the directory included.
//! let mut admin = DirectoryClient::connect(&Loopback::new(Arc::clone(&directory)))?;
//! let (epoch, members) = admin.register(1, "10.0.0.1:7200", None)?;
//! assert_eq!((epoch, members.len()), (1, 1));
//!
//! let (epoch, members) = admin.query()?;
//! assert_eq!((epoch, members[0].addr.as_str()), (1, "10.0.0.1:7200"));
//! # Ok::<(), orcodcs::OrcoError>(())
//! ```
//!
//! For a full TCP fleet (directory + gateways + agents in one process),
//! see the `fleet_gateway` example at the workspace root and
//! `loadgen --fleet`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod agent;
mod client;
mod directory;

pub mod scenarios;

pub use agent::{AgentConfig, GatewayAgent};
pub use client::{DirectoryClient, FleetClient};
pub use directory::{Directory, DirectoryConfig};
