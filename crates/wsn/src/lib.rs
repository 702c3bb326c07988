//! # orco-wsn
//!
//! A deterministic wireless-sensor-network simulator: the substrate on which
//! the OrcoDCS protocol runs and against which the paper's transmission-cost
//! and time-to-loss figures are measured.
//!
//! The paper evaluates OrcoDCS on a cluster of IoT devices reporting to a
//! data aggregator that collaborates with an edge server. This crate
//! provides that world:
//!
//! * `geometry` — 2-D field, node placement;
//! * `node` — devices with a [`node::DeviceClass`] (IoT device, data
//!   aggregator, edge server), battery budget, and compute rate;
//! * `radio` — the first-order radio energy model
//!   (`E_tx = E_elec·k + ε_amp·k·d²`, `E_rx = E_elec·k`) standard in the WSN
//!   literature the paper builds on;
//! * `link` — bandwidth/latency/loss link models for intra-cluster radio,
//!   aggregator→edge uplink, and edge→aggregator downlink;
//! * [`clock`] — the simulated clock: every byte moved and FLOP executed
//!   advances simulated time, which is the x-axis of the paper's Figures 4
//!   and 6–8;
//! * `compute` — FLOPS rates per device class, turning the per-layer FLOP
//!   counts reported by `orco-nn` into simulated seconds;
//! * `tree` — multi-hop data-aggregation trees (ref \[1\] of the paper) for
//!   intra-cluster **raw** aggregation, with failure injection and
//!   re-parenting;
//! * `chain` — the latent-element chain aggregation of §III-C for
//!   **compressed** aggregation;
//! * [`accounting`] — per-node byte and energy accounting, packet
//!   outcomes, and delivery-latency statistics;
//! * `network` — the façade tying all of it together;
//! * `backend` — the [`DeploymentBackend`] trait making the deployment
//!   pluggable: this crate's analytic [`Network`] and the `orco-sim`
//!   discrete-event simulator both implement it, and the three protocol
//!   rounds, written once over it.
//!
//! Everything is deterministic given a [`NetworkConfig`] seed: re-running an
//! experiment reproduces identical byte counts, energies and simulated
//! times.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod backend;
mod chain;
mod compute;
mod error;
mod geometry;
mod link;
mod network;
mod node;
mod radio;
mod tree;

pub mod accounting;
pub mod clock;
pub mod packet;

pub use accounting::{LinkStats, TrafficAccounting};
pub use backend::{broadcast_round, chain_round, raw_round, DeploymentBackend};
pub use chain::ChainSchedule;
pub use compute::ComputeModel;
pub use error::WsnError;
pub use geometry::Point;
pub use link::LinkModel;
pub use network::{Network, NetworkConfig, MAX_RETRIES};
pub use node::{DeviceClass, Node, NodeId};
pub use packet::{Packet, PacketKind, HEADER_BYTES};
pub use radio::RadioModel;
pub use tree::AggregationTree;
