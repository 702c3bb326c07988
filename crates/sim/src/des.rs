//! The event-driven deployment backend.
//!
//! [`DesNetwork`] implements [`DeploymentBackend`] over a totally ordered
//! event queue: transmissions become bursts of radio frames granted by a
//! MAC ([`MacMode`]), losses trigger per-frame ARQ retransmissions,
//! computations finish on per-node clocks, and a [`Scenario`] perturbs the
//! deployment as simulated time crosses its scripted timestamps.
//!
//! It reuses the analytic [`Network`] as its *world state* — topology,
//! batteries, traffic ledger, cost formulas — while scheduling time itself.
//! That shared substrate is what makes the equivalence contract tight: in
//! [`MacMode::Sequential`] with zero loss, every energy and byte total
//! lands in the ledger through the very same arithmetic, in the very same
//! order, as the analytic backend.

use std::collections::BTreeMap;

use orco_tensor::OrcoRng;
use orco_wsn::packet::MAX_PAYLOAD_BYTES;
use orco_wsn::{
    DeploymentBackend, DeviceClass, Network, NetworkConfig, NodeId, Packet, PacketKind,
    TrafficAccounting, WsnError,
};

use crate::event::EventQueue;
use crate::params::{MacMode, SimParams};
use crate::scenario::{Scenario, ScenarioAction};

/// Everything that configures one event-driven deployment: simulator
/// parameters plus the scripted scenario.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimSpec {
    /// MAC and duty-cycle knobs.
    pub params: SimParams,
    /// Scripted perturbations (empty = healthy deployment).
    pub scenario: Scenario,
}

impl SimSpec {
    /// The equivalence configuration: [`SimParams::ideal`] and no scenario.
    #[must_use]
    pub fn ideal() -> Self {
        Self::default()
    }

    /// A spec with the given scenario on otherwise-ideal parameters.
    #[must_use]
    pub fn with_scenario(scenario: Scenario) -> Self {
        Self { params: SimParams::ideal(), scenario }
    }
}

/// Why a transfer finished.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    Delivered,
    /// Retry budget exhausted.
    Lost,
    /// The sender's battery died mid-send.
    Energy,
    /// An endpoint was dead when the transfer was granted or delivered.
    EndpointDead(NodeId),
}

/// What a transfer's completion should unblock.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tag {
    /// Nothing (background traffic / broadcast fan-out).
    Background,
    /// A direct [`DeploymentBackend::transmit`] call awaiting the outcome.
    Direct,
    /// A raw-aggregation hop into `parent`.
    RawHop { parent: NodeId },
    /// Chain hop at `index` in the chain order.
    ChainHop { index: usize },
}

/// One logical packet in flight (possibly across several ARQ bursts).
#[derive(Debug)]
struct Transfer {
    from: NodeId,
    to: NodeId,
    payload: u64,
    kind: PacketKind,
    last_frame_payload: u64,
    submitted_s: f64,
    retries_used: u32,
    attempt_collided: bool,
    tag: Tag,
    outcome: Option<Outcome>,
}

#[derive(Debug)]
enum Event {
    /// A burst of `full_frames` MTU-sized frames (+ the final partial frame
    /// if `last_frame`) wants the medium.
    Request { tid: usize, full_frames: u64, last_frame: bool, retry: bool },
    /// A granted burst reaches the receiver; `lost_*` were drawn at grant.
    Delivery {
        tid: usize,
        full_frames: u64,
        last_frame: bool,
        lost_full: u64,
        lost_last: bool,
        attempt_wire: u64,
    },
    /// A scheduled computation finished at chain position `index`.
    ComputeDone { index: usize },
}

/// Per-round dependency state for the concurrent MAC modes.
#[derive(Debug)]
enum RoundState {
    Raw {
        parent: BTreeMap<NodeId, NodeId>,
        expected: BTreeMap<NodeId, usize>,
        resolved: BTreeMap<NodeId, usize>,
        received: BTreeMap<NodeId, u64>,
        own: BTreeMap<NodeId, u64>,
    },
    Chain {
        latent_bytes: u64,
        order: Vec<NodeId>,
        computed: Vec<bool>,
        arrived: Vec<bool>,
        sent: Vec<bool>,
    },
}

/// The deterministic discrete-event deployment backend.
///
/// # Examples
///
/// ```
/// use orco_sim::{DesNetwork, Scenario, SimSpec};
/// use orco_wsn::{DeploymentBackend, NetworkConfig, PacketKind};
///
/// let spec = SimSpec::with_scenario(Scenario::new().kill_at(1_000.0, 0));
/// let mut des =
///     DesNetwork::new(NetworkConfig { num_devices: 8, ..Default::default() }, spec);
/// let d = des.devices()[1];
/// let agg = des.aggregator();
/// let t = des.transmit(d, agg, 96, PacketKind::RawData)?;
/// assert!(t > 0.0);
/// assert_eq!(des.accounting().link_stats().delivered_packets, 1);
/// # Ok::<(), orco_wsn::WsnError>(())
/// ```
#[derive(Debug)]
pub struct DesNetwork {
    world: Network,
    params: SimParams,
    actions: Vec<(f64, ScenarioAction)>,
    next_action: usize,
    queue: EventQueue<Event>,
    now_s: f64,
    node_free_s: Vec<f64>,
    medium_free_s: f64,
    last_csma_grant: Option<(usize, f64)>,
    sensor_loss_override: Option<f64>,
    straggle: Vec<f64>,
    transfers: Vec<Transfer>,
    round: Option<RoundState>,
    rng: OrcoRng,
}

impl DesNetwork {
    /// Builds an event-driven deployment over the same topology (and seed)
    /// the analytic backend would build from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the scenario references a device index outside
    /// `0..config.num_devices` (see
    /// `Scenario::validate_device_indices`).
    #[must_use]
    pub fn new(config: NetworkConfig, spec: SimSpec) -> Self {
        spec.scenario.validate_device_indices(config.num_devices);
        let seed = config.seed;
        let world = Network::new(config);
        let n = world.devices().len() + 2;
        Self {
            world,
            params: spec.params,
            actions: spec.scenario.sorted_actions(),
            next_action: 0,
            queue: EventQueue::new(),
            now_s: 0.0,
            node_free_s: vec![0.0; n],
            medium_free_s: 0.0,
            last_csma_grant: None,
            sensor_loss_override: None,
            straggle: vec![1.0; n],
            transfers: Vec::new(),
            round: None,
            rng: OrcoRng::from_label(
                "orco-sim",
                seed ^ spec.params.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
        }
    }

    // ------------------------------------------------------------------
    // Scenario application
    // ------------------------------------------------------------------

    fn device_id(&self, index: usize) -> Option<NodeId> {
        self.world.devices().get(index).copied()
    }

    fn apply_actions_upto(&mut self, t_s: f64) -> bool {
        let mut fired = false;
        while self.next_action < self.actions.len() && self.actions[self.next_action].0 <= t_s {
            let (at, action) = self.actions[self.next_action];
            self.next_action += 1;
            fired = true;
            match action {
                ScenarioAction::KillDevice { device } => {
                    if let Some(id) = self.device_id(device) {
                        let _ = self.world.kill_device(id);
                    }
                }
                ScenarioAction::ReviveDevice { device, energy_j } => {
                    if let Some(id) = self.device_id(device) {
                        let _ = self.world.revive_device(id, energy_j);
                    }
                }
                ScenarioAction::DegradeSensorLink { loss_prob } => {
                    self.sensor_loss_override = Some(loss_prob);
                }
                ScenarioAction::RestoreSensorLink => {
                    self.sensor_loss_override = None;
                }
                ScenarioAction::SetStraggler { device, multiplier } => {
                    if let Some(id) = self.device_id(device) {
                        assert!(multiplier > 0.0, "straggler multiplier must be positive");
                        self.straggle[id.0] = multiplier;
                    }
                }
                ScenarioAction::ClearStraggler { device } => {
                    if let Some(id) = self.device_id(device) {
                        self.straggle[id.0] = 1.0;
                    }
                }
                ScenarioAction::TrafficBurst { device, payload_bytes, packets } => {
                    if let Some(id) = self.device_id(device) {
                        let agg = self.world.aggregator();
                        let ready = at.max(self.now_s);
                        for _ in 0..packets {
                            self.submit_at(
                                ready,
                                id,
                                agg,
                                payload_bytes,
                                PacketKind::Control,
                                Tag::Background,
                            );
                        }
                    }
                }
            }
        }
        fired
    }

    // ------------------------------------------------------------------
    // Transfer plumbing
    // ------------------------------------------------------------------

    fn is_alive(&self, id: NodeId) -> bool {
        self.world.node(id).map(orco_wsn::Node::is_alive).unwrap_or(false)
    }

    fn is_intra(&self, from: NodeId, to: NodeId) -> bool {
        from != self.world.edge() && to != self.world.edge()
    }

    fn effective_loss(&self, from: NodeId, to: NodeId) -> f64 {
        let link = self.world.link_between(from, to);
        let over = if self.is_intra(from, to) { self.sensor_loss_override } else { None };
        over.unwrap_or(link.loss_prob)
    }

    fn submit_at(
        &mut self,
        ready_s: f64,
        from: NodeId,
        to: NodeId,
        payload: u64,
        kind: PacketKind,
        tag: Tag,
    ) -> usize {
        let packet = Packet::new(from, to, payload, kind);
        let frames = packet.frame_count();
        let last_frame_payload =
            if payload == 0 { 0 } else { payload - (frames - 1) * MAX_PAYLOAD_BYTES };
        let tid = self.transfers.len();
        self.transfers.push(Transfer {
            from,
            to,
            payload,
            kind,
            last_frame_payload,
            submitted_s: ready_s,
            retries_used: 0,
            attempt_collided: false,
            tag,
            outcome: None,
        });
        self.queue.schedule(
            ready_s,
            from.0 as u64,
            Event::Request { tid, full_frames: frames - 1, last_frame: true, retry: false },
        );
        tid
    }

    /// Wire bytes of a burst of `full_frames` MTU frames plus the final
    /// partial frame if `last_frame`.
    fn burst_wire(&self, tid: usize, full_frames: u64, last_frame: bool) -> u64 {
        let t = &self.transfers[tid];
        let header = orco_wsn::HEADER_BYTES;
        let mut wire = full_frames * (MAX_PAYLOAD_BYTES + header);
        if last_frame {
            wire += t.last_frame_payload + header;
        }
        wire
    }

    fn next_owned_slot(&self, from: NodeId, t_s: f64, slot_s: f64) -> f64 {
        let n_slots = (self.world.devices().len() + 1) as f64; // devices + aggregator
        let idx = from.0 as f64;
        let frame = n_slots * slot_s;
        let cycle = (t_s / frame).floor();
        let base = cycle * frame + idx * slot_s;
        if t_s >= base && t_s < base + slot_s {
            t_s // already inside an owned slot
        } else if base >= t_s {
            base
        } else {
            base + frame
        }
    }

    fn duty_aligned_start(&self, from: NodeId, to: NodeId, mut start: f64) -> f64 {
        let Some(duty) = self.params.duty_cycle else { return start };
        let duty_bound = |id: NodeId, t: f64, world: &Network| -> f64 {
            match world.node(id).map(orco_wsn::Node::class) {
                Ok(DeviceClass::IotDevice) => duty.next_active_s(t),
                _ => t, // aggregator/edge are always on
            }
        };
        for _ in 0..16 {
            let s = duty_bound(to, duty_bound(from, start, &self.world), &self.world);
            if s == start {
                break;
            }
            start = s;
        }
        start
    }

    fn on_request(
        &mut self,
        treq: f64,
        tid: usize,
        full_frames: u64,
        last_frame: bool,
        retry: bool,
    ) {
        if self.transfers[tid].outcome.is_some() {
            return;
        }
        let (from, to, kind) = {
            let t = &self.transfers[tid];
            (t.from, t.to, t.kind)
        };
        if !self.is_alive(from) {
            self.finish(tid, Outcome::EndpointDead(from), treq);
            return;
        }
        if !self.is_alive(to) {
            self.finish(tid, Outcome::EndpointDead(to), treq);
            return;
        }
        let link = self.world.link_between(from, to);
        let intra = self.is_intra(from, to);
        let wire = self.burst_wire(tid, full_frames, last_frame);

        // Earliest start: sender free, medium access, duty cycle.
        let mut start = treq.max(self.node_free_s[from.0]);
        let mut collided = false;
        if intra {
            match self.params.mac {
                MacMode::Sequential => {}
                MacMode::Fifo | MacMode::Tdma { .. } => {
                    start = start.max(self.medium_free_s);
                }
                MacMode::Csma { cca_s, max_backoff_s } => {
                    if self.medium_free_s > treq {
                        // Sensed busy: defer with a random backoff.
                        let backoff = self.rng.next_f64() * max_backoff_s;
                        self.queue.schedule(
                            self.medium_free_s + backoff,
                            from.0 as u64,
                            Event::Request { tid, full_frames, last_frame, retry },
                        );
                        return;
                    }
                    if let Some((prev_tid, prev_start)) = self.last_csma_grant {
                        if start - prev_start < cca_s && self.transfers[prev_tid].outcome.is_none()
                        {
                            // Two senders inside the CCA window: both bursts
                            // are corrupted and go through the ARQ path.
                            collided = true;
                            self.transfers[prev_tid].attempt_collided = true;
                        }
                    }
                }
            }
            if let MacMode::Tdma { slot_s } = self.params.mac {
                start = self.next_owned_slot(from, start, slot_s);
            }
        }
        let start = self.duty_aligned_start(from, to, start);
        if let MacMode::Csma { .. } = self.params.mac {
            if intra {
                self.last_csma_grant = Some((tid, start));
            }
        }

        // Charge the burst to the sender and the ledger.
        let dist = self.world.radio_distance_m(from, to).expect("validated endpoints");
        let survived = self.world.charge_tx(from, wire, dist, kind).expect("validated endpoints");
        self.world.accounting_mut().record_airtime(link.airtime_s(wire));
        if retry {
            self.world.accounting_mut().record_retransmits(full_frames + u64::from(last_frame));
        }

        // Occupy sender and medium.
        let airtime = link.airtime_s(wire);
        let duration = link.transmission_time_s(wire);
        self.node_free_s[from.0] = start + airtime;
        if intra {
            // Sequential mode holds the medium for the full transmission
            // time so round totals accumulate exactly like the analytic
            // global clock; concurrent modes pipeline the link latency.
            self.medium_free_s = start
                + match self.params.mac {
                    MacMode::Sequential => duration,
                    _ => airtime,
                };
        }
        if !survived {
            // Analytic parity: the fatal attempt still takes its full
            // transmission time before the death is observed.
            let t_fail = start + duration;
            if t_fail > self.now_s {
                self.now_s = t_fail;
            }
            self.finish(tid, Outcome::Energy, t_fail);
            return;
        }

        // Per-frame loss draws (deterministic stream).
        let loss = self.effective_loss(from, to);
        let mut lost_full = 0u64;
        let mut lost_last = false;
        if loss > 0.0 {
            for _ in 0..full_frames {
                if self.rng.bernoulli_f64(loss) {
                    lost_full += 1;
                }
            }
            if last_frame && self.rng.bernoulli_f64(loss) {
                lost_last = true;
            }
        }
        let delivery = start + duration;
        self.transfers[tid].attempt_collided = collided;
        self.queue.schedule(
            delivery,
            from.0 as u64,
            Event::Delivery {
                tid,
                full_frames,
                last_frame,
                lost_full,
                lost_last,
                attempt_wire: wire,
            },
        );
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "one delivery's fields, passed once from the event loop"
    )]
    fn on_delivery(
        &mut self,
        tdel: f64,
        tid: usize,
        full_frames: u64,
        last_frame: bool,
        lost_full: u64,
        lost_last: bool,
        attempt_wire: u64,
    ) {
        if self.transfers[tid].outcome.is_some() {
            return;
        }
        let (from, to, kind) = {
            let t = &self.transfers[tid];
            (t.from, t.to, t.kind)
        };
        if !self.is_alive(to) {
            self.finish(tid, Outcome::EndpointDead(to), tdel);
            return;
        }
        let collided = std::mem::take(&mut self.transfers[tid].attempt_collided);
        let (lost_full, lost_last) =
            if collided { (full_frames, last_frame) } else { (lost_full, lost_last) };

        // Receiver hears whatever arrived intact.
        let lost_wire = self.burst_wire(tid, lost_full, lost_last);
        let delivered_wire = attempt_wire - lost_wire;
        if delivered_wire > 0 {
            self.world.charge_rx(to, delivered_wire, kind).expect("validated endpoints");
        }
        self.node_free_s[to.0] = self.node_free_s[to.0].max(tdel);

        if lost_full == 0 && !lost_last {
            let latency = tdel - self.transfers[tid].submitted_s;
            self.world.accounting_mut().record_delivery(latency);
            self.finish(tid, Outcome::Delivered, tdel);
            return;
        }
        // ARQ: retry only the lost frames, within the packet's budget.
        let retries_used = {
            let t = &mut self.transfers[tid];
            t.retries_used += 1;
            t.retries_used
        };
        if retries_used > self.world.config().max_retries {
            self.finish(tid, Outcome::Lost, tdel);
            return;
        }
        self.queue.schedule(
            tdel,
            from.0 as u64,
            Event::Request { tid, full_frames: lost_full, last_frame: lost_last, retry: true },
        );
    }

    /// Marks a transfer finished and unblocks whatever waited on it.
    fn finish(&mut self, tid: usize, outcome: Outcome, t_s: f64) {
        self.transfers[tid].outcome = Some(outcome);
        if outcome != Outcome::Delivered {
            self.world.accounting_mut().record_drop();
        }
        let tag = self.transfers[tid].tag;
        let delivered = outcome == Outcome::Delivered;
        match tag {
            Tag::Background | Tag::Direct => {}
            Tag::RawHop { parent } => {
                let payload = self.transfers[tid].payload;
                self.resolve_raw_child(parent, if delivered { payload } else { 0 }, t_s);
            }
            Tag::ChainHop { index } => self.resolve_chain_hop(index, t_s),
        }
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    fn run_until_idle(&mut self) {
        while let Some(peek) = self.queue.peek_time_s() {
            // Scenario actions scheduled before the next event fire first
            // (they may enqueue earlier events, e.g. traffic bursts), so
            // re-peek whenever any fired.
            if self.apply_actions_upto(peek) {
                continue;
            }
            let (t, event) = self.queue.pop().expect("peeked");
            if t > self.now_s {
                self.now_s = t;
            }
            match event {
                Event::Request { tid, full_frames, last_frame, retry } => {
                    self.on_request(t, tid, full_frames, last_frame, retry);
                }
                Event::Delivery {
                    tid,
                    full_frames,
                    last_frame,
                    lost_full,
                    lost_last,
                    attempt_wire,
                } => {
                    self.on_delivery(
                        t,
                        tid,
                        full_frames,
                        last_frame,
                        lost_full,
                        lost_last,
                        attempt_wire,
                    );
                }
                Event::ComputeDone { index } => self.on_compute_done(index, t),
            }
        }
        self.world.advance_clock_to(self.now_s);
    }

    // ------------------------------------------------------------------
    // Sequential (analytic-order) primitives — the equivalence mode
    // ------------------------------------------------------------------

    /// Runs one transfer to completion on the event queue, sequentially.
    fn execute_transfer_now(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: u64,
        kind: PacketKind,
    ) -> Result<f64, WsnError> {
        let t0 = self.now_s;
        let tid = self.submit_at(self.now_s, from, to, payload, kind, Tag::Direct);
        self.run_until_idle();
        match self.transfers[tid].outcome.expect("idle queue resolves all transfers") {
            Outcome::Delivered => Ok(self.now_s - t0),
            Outcome::Lost => Err(WsnError::TransmissionFailed {
                from,
                to,
                attempts: self.transfers[tid].retries_used + 1,
            }),
            Outcome::Energy => Err(WsnError::EnergyExhausted { id: from }),
            Outcome::EndpointDead(id) => Err(WsnError::NodeDead { id }),
        }
    }

    /// Round-primitive wrapper around [`Self::execute_transfer_now`]:
    /// faults that only a richer-than-analytic schedule can produce — a
    /// scenario killing an endpoint while a packet is in flight, a lossy
    /// window running a packet's retries dry — are recorded as drops and
    /// the round goes on (a live deployment does not abort a whole
    /// aggregation round because one hop failed). Faults the analytic
    /// backend also produces and propagates (battery exhaustion, unknown
    /// nodes) propagate identically, preserving the ideal-mode error
    /// surface. Returns whether the hop was delivered.
    fn hop_transfer(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: u64,
        kind: PacketKind,
    ) -> Result<bool, WsnError> {
        match self.execute_transfer_now(from, to, payload, kind) {
            Ok(_) => Ok(true),
            Err(e @ (WsnError::UnknownNode { .. } | WsnError::EnergyExhausted { .. })) => Err(e),
            Err(_) => Ok(false), // drop already recorded by `finish`
        }
    }

    fn compute_inline(&mut self, at: NodeId, flops: u64) -> Result<f64, WsnError> {
        let dt = self.world.charge_compute(at, flops)? * self.straggle[at.0];
        self.now_s += dt;
        self.node_free_s[at.0] = self.node_free_s[at.0].max(self.now_s);
        self.world.advance_clock_to(self.now_s);
        Ok(dt)
    }

    fn raw_round_sequential(&mut self, bytes_per_device: u64) -> Result<f64, WsnError> {
        let start = self.now_s;
        let mut carried: BTreeMap<NodeId, u64> = BTreeMap::new();
        for id in self.world.alive_devices() {
            carried.insert(id, bytes_per_device);
        }
        let aggregator = self.world.aggregator();
        for id in self.world.tree().bottom_up_order() {
            if !self.is_alive(id) {
                continue;
            }
            let payload = carried.get(&id).copied().unwrap_or(0);
            if payload == 0 {
                continue;
            }
            // Mid-round scenario deaths repair the tree, so the parent is
            // looked up per hop, exactly like the analytic loop.
            let Some(parent) = self.world.tree().parent(id) else {
                continue; // reparented out of the tree mid-round
            };
            if self.hop_transfer(id, parent, payload, PacketKind::RawData)? && parent != aggregator
            {
                *carried.entry(parent).or_insert(0) += payload;
            }
        }
        Ok(self.now_s - start)
    }

    fn broadcast_sequential(&mut self, column_bytes: u64) -> Result<f64, WsnError> {
        let start = self.now_s;
        let aggregator = self.world.aggregator();
        for id in self.world.alive_devices() {
            self.hop_transfer(aggregator, id, column_bytes, PacketKind::EncoderColumn)?;
        }
        Ok(self.now_s - start)
    }

    fn chain_round_sequential(
        &mut self,
        latent_bytes: u64,
        flops_per_device: u64,
    ) -> Result<f64, WsnError> {
        let start = self.now_s;
        let order: Vec<NodeId> = self.world.chain().order().to_vec();
        for id in &order {
            if self.is_alive(*id) {
                self.compute_inline(*id, flops_per_device)?;
            }
        }
        for (from, to) in self.world.chain().device_hops() {
            if self.is_alive(from) && self.is_alive(to) {
                self.hop_transfer(from, to, latent_bytes, PacketKind::CompressedElement)?;
            }
        }
        let last = self.world.chain().last();
        let aggregator = self.world.aggregator();
        if self.is_alive(last) {
            self.hop_transfer(last, aggregator, latent_bytes, PacketKind::CompressedElement)?;
        }
        Ok(self.now_s - start)
    }

    // ------------------------------------------------------------------
    // Concurrent primitives — Fifo / Tdma / Csma
    // ------------------------------------------------------------------

    /// Submits a raw-round node's accumulated payload (or skips it) once
    /// all its children resolved.
    fn send_raw_node(&mut self, node: NodeId, t_s: f64) {
        let Some(RoundState::Raw { parent, received, own, .. }) = &self.round else {
            return;
        };
        let Some(&p) = parent.get(&node) else { return };
        let payload =
            own.get(&node).copied().unwrap_or(0) + received.get(&node).copied().unwrap_or(0);
        if payload == 0 || !self.is_alive(node) {
            self.resolve_raw_child(p, 0, t_s);
            return;
        }
        self.submit_at(
            t_s.max(self.now_s),
            node,
            p,
            payload,
            PacketKind::RawData,
            Tag::RawHop { parent: p },
        );
    }

    /// Accounts one resolved child transmission toward `parent` (payload 0
    /// for drops/skips) and fires the parent when all its children are in.
    fn resolve_raw_child(&mut self, parent: NodeId, payload: u64, t_s: f64) {
        let fire = {
            let Some(RoundState::Raw { expected, resolved, received, .. }) = &mut self.round else {
                return;
            };
            if payload > 0 {
                *received.entry(parent).or_insert(0) += payload;
            }
            let r = resolved.entry(parent).or_insert(0);
            *r += 1;
            match expected.get(&parent) {
                Some(e) => *r >= *e,
                None => false, // the aggregator: nothing to forward
            }
        };
        if fire {
            self.send_raw_node(parent, t_s);
        }
    }

    fn raw_round_concurrent(&mut self, bytes_per_device: u64) -> Result<f64, WsnError> {
        let start = self.now_s;
        let order = self.world.tree().bottom_up_order();
        let aggregator = self.world.aggregator();
        let mut parent = BTreeMap::new();
        let mut expected: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut own = BTreeMap::new();
        for id in &order {
            let p = self.world.tree().parent(*id).expect("non-root nodes have parents");
            parent.insert(*id, p);
            if p != aggregator {
                *expected.entry(p).or_insert(0) += 1;
            }
            if self.is_alive(*id) {
                own.insert(*id, bytes_per_device);
            }
        }
        self.round = Some(RoundState::Raw {
            parent,
            expected: expected.clone(),
            resolved: BTreeMap::new(),
            received: BTreeMap::new(),
            own,
        });
        // Leaves (no expected children) fire immediately, in bottom-up
        // order so the grant sequence is deterministic.
        for id in &order {
            if expected.get(id).copied().unwrap_or(0) == 0 {
                self.send_raw_node(*id, start);
            }
        }
        self.run_until_idle();
        self.round = None;
        Ok(self.now_s - start)
    }

    fn broadcast_concurrent(&mut self, column_bytes: u64) -> Result<f64, WsnError> {
        let start = self.now_s;
        let aggregator = self.world.aggregator();
        for id in self.world.alive_devices() {
            self.submit_at(
                start,
                aggregator,
                id,
                column_bytes,
                PacketKind::EncoderColumn,
                Tag::Background,
            );
        }
        self.run_until_idle();
        Ok(self.now_s - start)
    }

    /// Fires chain hop `index` if its node has computed and the upstream
    /// partial sum has resolved.
    fn try_chain_hop(&mut self, index: usize, t_s: f64) {
        let (from, to, latent_bytes) = {
            let Some(RoundState::Chain { latent_bytes, order, computed, arrived, sent }) =
                &mut self.round
            else {
                return;
            };
            if index >= order.len() || sent[index] || !computed[index] || !arrived[index] {
                return;
            }
            sent[index] = true;
            let from = order[index];
            let to = if index + 1 < order.len() { Some(order[index + 1]) } else { None };
            (from, to, *latent_bytes)
        };
        let to = to.unwrap_or_else(|| self.world.aggregator());
        if !self.is_alive(from) {
            // The node (and its partial sum) is gone; downstream devices
            // still forward their own contributions.
            self.resolve_chain_hop(index, t_s);
            return;
        }
        self.submit_at(
            t_s.max(self.now_s),
            from,
            to,
            latent_bytes,
            PacketKind::CompressedElement,
            Tag::ChainHop { index },
        );
    }

    fn resolve_chain_hop(&mut self, index: usize, t_s: f64) {
        let next = {
            let Some(RoundState::Chain { order, arrived, .. }) = &mut self.round else {
                return;
            };
            if index + 1 < order.len() {
                arrived[index + 1] = true;
                Some(index + 1)
            } else {
                None
            }
        };
        if let Some(next) = next {
            self.try_chain_hop(next, t_s);
        }
    }

    fn on_compute_done(&mut self, index: usize, t_s: f64) {
        {
            let Some(RoundState::Chain { computed, .. }) = &mut self.round else {
                return;
            };
            if index < computed.len() {
                computed[index] = true;
            }
        }
        self.try_chain_hop(index, t_s);
    }

    fn chain_round_concurrent(
        &mut self,
        latent_bytes: u64,
        flops_per_device: u64,
    ) -> Result<f64, WsnError> {
        let start = self.now_s;
        let order: Vec<NodeId> = self.world.chain().order().to_vec();
        let n = order.len();
        let mut computed = vec![false; n];
        let mut arrived = vec![false; n];
        if n > 0 {
            arrived[0] = true;
        }
        // Per-node clocks: every device computes concurrently; stragglers
        // finish later and stall only their own chain position.
        for (i, id) in order.iter().enumerate() {
            if self.is_alive(*id) && flops_per_device > 0 {
                let dt = self.world.charge_compute(*id, flops_per_device)? * self.straggle[id.0];
                let begin = start.max(self.node_free_s[id.0]);
                let done = begin + dt;
                self.node_free_s[id.0] = done;
                self.queue.schedule(done, id.0 as u64, Event::ComputeDone { index: i });
            } else {
                computed[i] = true;
            }
        }
        self.round = Some(RoundState::Chain {
            latent_bytes,
            order,
            computed,
            arrived,
            sent: vec![false; n],
        });
        // Kick positions that are already unblocked (dead or zero-flop
        // nodes at the chain head).
        for i in 0..n {
            self.try_chain_hop(i, start);
        }
        self.run_until_idle();
        self.round = None;
        Ok(self.now_s - start)
    }
}

impl DeploymentBackend for DesNetwork {
    fn backend_name(&self) -> &'static str {
        "event-driven"
    }

    fn now_s(&self) -> f64 {
        self.now_s
    }

    fn accounting(&self) -> &TrafficAccounting {
        self.world.accounting()
    }

    fn reset_accounting(&mut self) {
        self.world.reset_accounting();
    }

    fn wait(&mut self, dt_s: f64) {
        orco_wsn::clock::assert_monotone_dt(dt_s);
        let target = self.now_s + dt_s;
        // Interleave scripted actions with the events they spawn in strict
        // time order: fire the next in-window action only once the queue is
        // idle (the run loop itself applies actions due before each event),
        // so a traffic burst at t=1 sees the world as scripted at t=1 even
        // when a kill at t=3 is also inside the wait window.
        loop {
            self.run_until_idle();
            let next_action = (self.next_action < self.actions.len())
                .then(|| self.actions[self.next_action].0)
                .filter(|t| *t <= target);
            match next_action {
                Some(t) => {
                    self.apply_actions_upto(t);
                }
                None => break,
            }
        }
        if target > self.now_s {
            self.now_s = target;
        }
        self.world.advance_clock_to(self.now_s);
    }

    fn aggregator(&self) -> NodeId {
        self.world.aggregator()
    }

    fn edge(&self) -> NodeId {
        self.world.edge()
    }

    fn devices(&self) -> &[NodeId] {
        self.world.devices()
    }

    fn alive_devices(&self) -> Vec<NodeId> {
        self.world.alive_devices()
    }

    fn node_energy_j(&self, id: NodeId) -> Result<f64, WsnError> {
        Ok(self.world.node(id)?.energy_j())
    }

    fn kill_device(&mut self, id: NodeId) -> Result<(), WsnError> {
        self.world.kill_device(id)
    }

    fn transmit(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload_bytes: u64,
        kind: PacketKind,
    ) -> Result<f64, WsnError> {
        self.apply_actions_upto(self.now_s);
        // Analytic-parity endpoint validation.
        if !self.world.node(from)?.is_alive() {
            return Err(WsnError::NodeDead { id: from });
        }
        if !self.world.node(to)?.is_alive() {
            return Err(WsnError::NodeDead { id: to });
        }
        self.execute_transfer_now(from, to, payload_bytes, kind)
    }

    fn compute(&mut self, at: NodeId, flops: u64) -> Result<f64, WsnError> {
        self.apply_actions_upto(self.now_s);
        self.compute_inline(at, flops)
    }

    fn raw_aggregation_round(&mut self, bytes_per_device: u64) -> Result<f64, WsnError> {
        self.apply_actions_upto(self.now_s);
        match self.params.mac {
            MacMode::Sequential => self.raw_round_sequential(bytes_per_device),
            _ => self.raw_round_concurrent(bytes_per_device),
        }
    }

    fn broadcast_encoder_columns(&mut self, column_bytes: u64) -> Result<f64, WsnError> {
        self.apply_actions_upto(self.now_s);
        match self.params.mac {
            MacMode::Sequential => self.broadcast_sequential(column_bytes),
            _ => self.broadcast_concurrent(column_bytes),
        }
    }

    fn compressed_aggregation_round(
        &mut self,
        latent_bytes: u64,
        flops_per_device: u64,
    ) -> Result<f64, WsnError> {
        self.apply_actions_upto(self.now_s);
        match self.params.mac {
            MacMode::Sequential => self.chain_round_sequential(latent_bytes, flops_per_device),
            _ => self.chain_round_concurrent(latent_bytes, flops_per_device),
        }
    }
}
