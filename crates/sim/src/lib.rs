//! # orco-sim
//!
//! A deterministic **discrete-event** WSN simulator, pluggable wherever the
//! analytic [`orco_wsn::Network`] runs today via the
//! [`orco_wsn::DeploymentBackend`] trait.
//!
//! Where the analytic model accumulates costs on one global clock, this
//! backend schedules them: a total-ordered [`EventQueue`] (simulated time +
//! deterministic tie-break), per-node clocks, a TDMA-slotted intra-cluster
//! radio with a CSMA-style contention fallback, ARQ retransmissions and
//! packet fragmentation as first-class events, duty-cycled radios, and a
//! [`Scenario`] scripting API for node death/recovery, link-degradation
//! windows, straggler compute multipliers, and traffic bursts.
//!
//! ## Quick start
//!
//! Build a [`DesNetwork`] from the same [`orco_wsn::NetworkConfig`] the
//! analytic backend uses, plus a [`SimSpec`] (parameters + scenario), and
//! drive it through the [`orco_wsn::DeploymentBackend`] primitives — or let
//! `orcodcs::ExperimentBuilder::deployment` do that for you:
//!
//! ```
//! use orco_sim::{DesNetwork, MacMode, Scenario, SimParams, SimSpec};
//! use orco_wsn::{DeploymentBackend, NetworkConfig};
//!
//! // A TDMA-slotted cluster where device 3 dies at t = 2 s and the sensor
//! // link degrades to 20% loss for a window.
//! let spec = SimSpec {
//!     params: SimParams { mac: MacMode::Tdma { slot_s: 0.02 }, ..SimParams::ideal() },
//!     scenario: Scenario::new().kill_at(2.0, 3).degrade_sensor_link(4.0..8.0, 0.2),
//! };
//! let mut des = DesNetwork::new(NetworkConfig { num_devices: 8, ..Default::default() }, spec);
//! for _ in 0..600 {
//!     des.raw_aggregation_round(4)?; // every device reports 4 raw bytes
//! }
//! let stats = des.accounting().link_stats();
//! assert!(stats.delivered_packets > 0);
//! assert!(stats.retransmitted_frames > 0, "the lossy window forces ARQ retries");
//! assert!(stats.latency_p99_s >= stats.latency_p50_s);
//! # Ok::<(), orco_wsn::WsnError>(())
//! ```
//!
//! ## The event queue
//!
//! Every transmission burst, ARQ retry, computation, and scenario action is
//! an entry in one [`EventQueue`] ordered by `(time, tie-key, sequence)` —
//! a **total** order, so the simulation is a pure function of its inputs:
//! replaying the same config, [`SimParams`], [`Scenario`], and seed
//! reproduces every byte count, energy total, and latency percentile bit
//! for bit (property-tested).
//!
//! ## Scenario scripting
//!
//! [`Scenario`] is a time-ordered script applied as simulated time crosses
//! each action's timestamp — see its docs for the builder API.
//!
//! ## Impaired links for arbitrary protocols
//!
//! [`NetSim`] exposes the same deterministic event machinery as a generic
//! point-to-point link layer: callers add links, send opaque payloads, and
//! script per-link loss/latency/partition windows with [`NetScenario`].
//! Every impairment decision is recorded as a [`SendRecord`], and
//! [`NetSim::begin_replay`] re-applies a recorded trace so a failing run
//! reproduces bit-identically from its log. The `orco-serve` gateway's
//! DES transport and chaos gauntlet are built on it.
//!
//! ## Analytic-vs-DES equivalence contract
//!
//! With [`SimParams::ideal`] (contention-free [`MacMode::Sequential`]
//! schedule, zero loss, always-on radios, no scenario) the event-driven
//! backend reproduces the analytic backend's traffic-ledger
//! byte counts, per-node energy totals, and simulated-clock totals
//! **exactly** — same formulas, same floating-point operation order. The
//! workspace test `tests/des_equivalence.rs` pins this contract. Any other
//! parameterization trades that equivalence for expressiveness the
//! analytic model cannot offer: overlapping computation, MAC contention,
//! partial-packet ARQ, duty-cycle stalls, and scripted faults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod des;
mod event;
mod netsim;
mod params;
mod scenario;

pub use des::{DesNetwork, SimSpec};
pub use event::EventQueue;
pub use netsim::{LinkParams, NetScenario, NetSim, SendRecord, SendVerdict};
pub use params::{DutyCycle, MacMode, SimParams};
pub use scenario::Scenario;
