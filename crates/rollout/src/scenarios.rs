//! The rollout gauntlet: `rollout_storm` — a scripted, deterministic,
//! replayable run of the shared fleet cast ([`orco_fleet::scenarios`]:
//! directory + 3 gateways + window-streaming clients) over impaired
//! [`DesNet`] links in which the field distribution **drifts mid-run**,
//! a `Controller` role notices (via the gateways' own drift monitors)
//! and performs a **staged codec rollout**, and one gateway is **killed
//! mid-swap** — after staging the new version, before activating it.
//! The run asserts the rollout design's contracts:
//!
//! * **Exactly-once across the kill.** Every client's stream is
//!   delivered back complete and unduplicated, including the clients
//!   whose owner died holding staged-but-never-activated weights.
//! * **Zero-drop, version-pure cutover.** Every delivered row is tagged
//!   with the model version that encoded it; per client the version
//!   sequence is non-decreasing (old rows drain before new rows appear,
//!   never interleaved), and each row is **bit-identical** to a direct
//!   `encode_batch` + `decode_batch` of the stream under a reference
//!   codec of that same version. The swap perturbs nothing it should
//!   not.
//! * **Drift before rollout.** The controller only ever sees the drift
//!   flag after some client pushed post-shift rows — the monitor reacts
//!   to the injected drift, not to the base distribution.
//! * **Mid-swap kill is safe.** The victim dies with version 1 staged
//!   but still serving version 0; survivors finish the rollout and end
//!   on version 1 with exactly one swap each, drained.
//!
//! The kill is triggered by rollout progress (the victim's stage ack),
//! and the drift is a deterministic function of each client's frame
//! index, so a run is a pure function of its seed; the recorded
//! [`RunLog`] replays it bit-identically ([`replay_scenario`]).

use std::num::{NonZeroU64, NonZeroUsize};
use std::time::Duration;

use orco_datasets::drift::{apply_matrix, Drift};
use orco_fleet::scenarios::{
    self as fleet, cluster_owned_by, lossy_des, Fleet, Role, GOLDEN, SECRET, TOKEN_RELEASE,
    TOKEN_SCRIPT,
};
use orco_serve::scenarios::{self as serve, codec_config, gateway_config, play, Cast, Run};
use orco_serve::{
    auth, DesNet, DriftGuard, GatewayConfig, GatewayEntry, Message, ModelVersion, Outcome, RunLog,
    Scenario, ScenarioError,
};
use orco_tensor::OrcoRng;
use orcodcs::{AsymmetricAutoencoder, Codec, EncoderCheckpoint};

/// The whole gauntlet, in order: the serve layer's five rows, the fleet
/// layer's one, and `rollout_storm`. `quick` shrinks the per-client
/// stream of `rollout_storm`; its topology, drift injection point and kill
/// schedule are the same either way.
pub const SCENARIOS: [Scenario; 7] = {
    let [flash, partition, lossy, straggler, reconnect] = serve::SCENARIOS;
    let [fleet_kill] = fleet::SCENARIOS;
    let storm = Scenario {
        name: "rollout_storm",
        run: |run| run.on(DesNet::new_multi(lossy_des(), run.seed), |net| rollout_storm(run, net)),
    };
    [flash, partition, lossy, straggler, reconnect, fleet_kill, storm]
};

/// Runs the scenario `run` names, or fails with an empty tape when no
/// row of [`SCENARIOS`] has that name.
fn dispatch(run: &Run) -> Result<Outcome, ScenarioError> {
    match SCENARIOS.iter().find(|s| s.name == run.name) {
        Some(scenario) => (scenario.run)(run),
        None => {
            let known: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
            Err(run.fail(format!("unknown scenario; the gauntlet knows {known:?}"), Vec::new()))
        }
    }
}

/// Runs one gauntlet scenario live, drawing impairments from `seed`.
/// `quick` shrinks the population for CI.
///
/// # Errors
///
/// Returns a [`ScenarioError`] (with its replay log) when a contract is
/// violated, and on an unknown scenario name (with an empty tape).
pub fn run_scenario(name: &str, seed: u64, quick: bool) -> Result<Outcome, ScenarioError> {
    dispatch(&Run::live(name, seed, quick))
}

/// Re-runs a recorded scenario, consuming the logged impairment schedule
/// instead of drawing randomness. A correct replay reproduces the
/// original [`Outcome`] bit for bit.
///
/// # Errors
///
/// As [`run_scenario`]; additionally, a replay whose send sequence
/// diverges from the tape panics with a `replay divergence` diagnostic.
pub fn replay_scenario(log: &RunLog) -> Result<Outcome, ScenarioError> {
    dispatch(&Run::replay(log))
}

/// Runs one scenario live, round-trips its tape through the text format,
/// replays the reparsed tape, and demands a replay equal to the live run
/// on the whole [`Outcome`] — stats frames, decoded digest, trace export,
/// tape and every counter.
///
/// # Errors
///
/// The first failure, carrying the tape to persist: the live run's
/// contract violation, a lossy text round trip, the replay's violation,
/// or a replay that diverged from the live run.
pub fn verify(name: &str, seed: u64, quick: bool) -> Result<Outcome, ScenarioError> {
    let live = run_scenario(name, seed, quick)?;
    let tape = live.tape();
    let fail = |detail: String| ScenarioError { detail, log: tape.clone() };
    let reparsed = match RunLog::from_text(&tape.to_text()) {
        Ok(log) if log == tape => log,
        Ok(_) => return Err(fail("run log text round trip is lossy".into())),
        Err(e) => return Err(fail(format!("run log does not reparse: {e}"))),
    };
    let replayed = replay_scenario(&reparsed)
        .map_err(|e| ScenarioError { detail: format!("replay: {}", e.detail), ..e })?;
    if replayed != live {
        return Err(fail("replay diverged from the live run".into()));
    }
    Ok(live)
}

/// Every gateway's drift monitor: each samples every flushed row's
/// decode-back error through an 8-sample window. The threshold separates
/// the base distribution from the drifted one for the gauntlet codec:
/// uniform frames reconstruct at a windowed MSE near 0.09,
/// [`Drift::Bias`]-shifted frames near 0.16 (measured; asserted by the
/// `drift_threshold_separates_bands` test below), so the monitor trips on
/// the shift and only the shift.
const DRIFT: DriftGuard = DriftGuard {
    sample_every: NonZeroU64::MIN,
    threshold: 0.125,
    window: NonZeroUsize::new(8).expect("a window of 8 samples"),
    rollback_above: None,
};

const GATEWAYS: [u64; 3] = [1, 2, 3];
/// Gateway id (== endpoint) killed mid-swap: after it acks the staged
/// version, before its activation lands.
const VICTIM: u64 = 2;

/// The controller's probe timer.
const TOKEN_CTRL: u64 = TOKEN_SCRIPT;

/// How often the controller polls `VersionQuery` while waiting for a
/// drift flag.
const PROBE_EVERY: Duration = Duration::from_millis(5);

/// Rollout-controller progress through the staged fleet walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RState {
    /// Polling `VersionQuery` round-robin until a gateway flags drift.
    WaitDrift,
    /// Walking the fleet: staging/activating on gateway index `gi`.
    Rolling {
        gi: usize,
    },
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtrlKind {
    Probe,
    Propose { gi: usize },
    Activate { gi: usize },
}

/// The role this scenario adds to the fleet cast: probes the gateways for
/// drift, then walks them staging and activating `version`.
struct Controller {
    /// One connection per gateway, index-aligned with [`GATEWAYS`].
    conns: Vec<usize>,
    state: RState,
    pending: Option<(u64, CtrlKind)>,
    probe_next: usize,
    /// Nonce schedule for the MAC'd rollout messages (deterministic).
    nonce_seq: u64,
    /// Gateway ids the walk skipped because they died mid-swap.
    skipped: Vec<u64>,
    /// The version being rolled out and its weights.
    version: ModelVersion,
    ckpt: EncoderCheckpoint,
}

impl Controller {
    fn next_nonce(&mut self) -> u64 {
        self.nonce_seq = self.nonce_seq.wrapping_add(1);
        self.nonce_seq.wrapping_mul(GOLDEN) ^ 0x726F_6C6C
    }

    fn submit_propose(&mut self, net: &DesNet, gi: usize) {
        let nonce = self.next_nonce();
        let mac = auth::rollout_mac(SECRET, self.version.id, nonce);
        let seq = net.submit(
            self.conns[gi],
            &Message::RolloutPropose {
                version: self.version.clone(),
                weight: self.ckpt.weight.clone(),
                bias: self.ckpt.bias.clone(),
                nonce,
                mac,
            },
        );
        self.pending = Some((seq, CtrlKind::Propose { gi }));
    }

    fn submit_activate(&mut self, net: &DesNet, gi: usize) {
        let (version_id, nonce) = (self.version.id, self.next_nonce());
        let mac = auth::rollout_mac(SECRET, version_id, nonce);
        let seq = net.submit(self.conns[gi], &Message::ActivateVersion { version_id, nonce, mac });
        self.pending = Some((seq, CtrlKind::Activate { gi }));
    }

    /// Advances the fleet walk past gateway index `gi`: proposes to the
    /// next gateway, or completes the rollout and schedules the clients'
    /// release.
    fn walk_past(&mut self, net: &DesNet, gi: usize) {
        let next = gi + 1;
        if next < GATEWAYS.len() {
            self.state = RState::Rolling { gi: next };
            self.submit_propose(net, next);
        } else {
            self.state = RState::Done;
            // Release the held clients: their tails now race the fresh swap
            // (and, for the victim's clients, the corpse).
            net.schedule_wakeup(Duration::from_millis(10), TOKEN_RELEASE);
        }
    }
}

/// The `rollout_storm` script: the fleet cast plus the [`Controller`].
struct Storm {
    fleet: Fleet,
    ctrl: Controller,
    killed: bool,
    /// How far the furthest client had pushed when the drift flag was
    /// first seen: the drift-before-rollout contract.
    drift_seen_at_offset: Option<usize>,
}

impl Storm {
    /// Handles a reply on one of the controller's gateway connections.
    fn on_ctrl_reply(&mut self, net: &DesNet, seq: u64, reply: Message) -> Result<(), String> {
        let ctrl = &mut self.ctrl;
        let Some((want, kind)) = ctrl.pending.take() else {
            return Ok(()); // a straggler reply from a connection we failed away from
        };
        if want != seq {
            return Err(format!("controller: expected reply seq {want}, got {seq}"));
        }
        let want_version = ctrl.version.id;
        let accepted_ack = |gi: usize, verb: &str, version_id: u64, accepted: bool, detail| {
            if version_id == want_version && accepted {
                return Ok(());
            }
            Err(format!(
                "gateway {} refused to {verb} version {version_id}: {detail}",
                GATEWAYS[gi]
            ))
        };
        match (kind, reply) {
            (CtrlKind::Probe, Message::VersionReply { drift, .. }) => {
                if drift && ctrl.state == RState::WaitDrift {
                    self.drift_seen_at_offset = self.fleet.clients.iter().map(|c| c.offset).max();
                    ctrl.state = RState::Rolling { gi: 0 };
                    ctrl.submit_propose(net, 0);
                } else {
                    ctrl.probe_next = (ctrl.probe_next + 1) % GATEWAYS.len();
                    net.schedule_wakeup(PROBE_EVERY, TOKEN_CTRL);
                }
                Ok(())
            }
            (CtrlKind::Propose { gi }, Message::RolloutAck { version_id, accepted, detail }) => {
                accepted_ack(gi, "stage", version_id, accepted, detail)?;
                if GATEWAYS[gi] == VICTIM {
                    // The mid-swap kill: the victim acked the stage; it dies
                    // before the activate can land.
                    self.killed = true;
                    self.fleet.kill(VICTIM);
                }
                ctrl.submit_activate(net, gi);
                Ok(())
            }
            (CtrlKind::Activate { gi }, Message::RolloutAck { version_id, accepted, detail }) => {
                accepted_ack(gi, "activate", version_id, accepted, detail)?;
                ctrl.walk_past(net, gi);
                Ok(())
            }
            (kind, Message::ErrorReply { code, detail }) => {
                Err(format!("controller: {kind:?} drew {code:?}: {detail}"))
            }
            (kind, other) => Err(format!("controller: {kind:?} drew unexpected {}", other.kind())),
        }
    }
}

impl Cast for Storm {
    fn done(&self) -> bool {
        self.fleet.done()
    }

    fn unfinished(&self) -> String {
        format!("ctrl {:?} and {}", self.ctrl.state, self.fleet.unfinished())
    }

    fn on_reply(
        &mut self,
        net: &DesNet,
        conn: usize,
        seq: u64,
        reply: Message,
    ) -> Result<(), String> {
        match self.fleet.roles.of(conn) {
            Role::Script(_) => self.on_ctrl_reply(net, seq, reply),
            _ => self.fleet.on_reply(conn, seq, reply).map(|_| ()),
        }
    }

    fn on_gave_up(&mut self, net: &DesNet, conn: usize) {
        let Role::Script(gi) = self.fleet.roles.of(conn) else {
            return self.fleet.on_gave_up(conn);
        };
        if net.endpoint_alive(GATEWAYS[gi] as usize) {
            // Loss streak on a live gateway: resume; the ARQ re-offers
            // the in-flight rollout message.
            self.ctrl.conns[gi] = self.fleet.roles.reconnect(net, conn);
        } else {
            // The gateway died under our in-flight activate — the
            // mid-swap kill. Skip it and keep walking.
            net.cancel_outstanding(conn);
            self.ctrl.pending = None;
            self.ctrl.skipped.push(GATEWAYS[gi]);
            self.ctrl.walk_past(net, gi);
        }
    }

    fn on_wakeup(&mut self, net: &DesNet, token: u64) {
        let ctrl = &mut self.ctrl;
        if self.fleet.on_wakeup(token) || ctrl.state != RState::WaitDrift {
            return;
        }
        if ctrl.pending.is_none() {
            let seq = net.submit(ctrl.conns[ctrl.probe_next], &Message::VersionQuery);
            ctrl.pending = Some((seq, CtrlKind::Probe));
        } else {
            net.schedule_wakeup(PROBE_EVERY, TOKEN_CTRL);
        }
    }
}

fn rollout_storm(run: &Run, net: &DesNet) -> Result<Outcome, String> {
    let frames_per_client = if run.quick { 24 } else { 48 };
    let shift_at = frames_per_client / 2;
    // Clients park here until the rollout walk completes, so every
    // stream's last quarter races the swap.
    let hold_at = frames_per_client * 3 / 4;

    // Three identical gateways, every one drift-monitored.
    let codec = codec_config(11);
    let gateway_cfg = GatewayConfig { drift: Some(DRIFT), ..gateway_config() };
    let mut fleet = Fleet::new(net, GATEWAYS.len() as u64, gateway_cfg, &codec);

    // Two clients per gateway under the initial membership; the victim's
    // pair exercises kill-failover mid-rollout.
    let initial: Vec<GatewayEntry> =
        GATEWAYS.iter().map(|&id| GatewayEntry { id, addr: format!("des:{id}") }).collect();
    let mut clusters = Vec::new();
    for &g in &GATEWAYS {
        let first = cluster_owned_by(&initial, g, 100);
        clusters.push(first);
        clusters.push(cluster_owned_by(&initial, g, first + 1));
    }
    fleet.cast_clients(run.seed, &clusters, frames_per_client, |_| Some(hold_at));

    // Each client's stream drifts at `shift_at`: the tail is the exact
    // Bias shift of `orco_datasets::drift`, applied row-deterministically
    // (the same transform `loadgen --drift` replays against live TCP
    // gateways).
    for c in &mut fleet.clients {
        let mut tail = c.frames.view_rows(shift_at..frames_per_client).to_matrix();
        let mut drift_rng = OrcoRng::from_seed_u64(run.seed ^ 0xD21F7);
        apply_matrix(&mut tail, Drift::Bias, 1.0, &mut drift_rng);
        c.frames.as_mut_slice()[shift_at * tail.cols()..].copy_from_slice(tail.as_slice());
    }

    // The version being rolled out: a differently-seeded encoder of the
    // same geometry, standing in for a drift-adapted retrain. The
    // reference codecs pin what every version's rows must decode to.
    let donor = AsymmetricAutoencoder::new(&codec_config(99)).expect("valid codec config");
    let ckpt = donor.checkpoint().expect("autoencoder codecs checkpoint");
    let version = ModelVersion {
        id: 1,
        label: "retrain-99".into(),
        frame_dim: codec.input_dim as u32,
        code_dim: codec.latent_dim as u32,
    };
    let ref_v0 = AsymmetricAutoencoder::new(&codec).expect("valid codec config");
    let ref_v1 = ref_v0.with_encoder(&ckpt).expect("same geometry");

    let conns: Vec<usize> = GATEWAYS.iter().map(|&g| net.connect_to(g as usize)).collect();
    for (gi, &conn) in conns.iter().enumerate() {
        fleet.roles.bind(conn, Role::Script(gi));
    }
    let ctrl = Controller {
        conns,
        state: RState::WaitDrift,
        pending: None,
        probe_next: 0,
        nonce_seq: run.seed,
        skipped: Vec::new(),
        version,
        ckpt,
    };

    // Kick off: gateways register at t=0, clients boot staggered, the
    // controller starts probing for drift.
    fleet.kick_off();
    net.schedule_wakeup(PROBE_EVERY, TOKEN_CTRL);
    let mut cast = Storm { fleet, ctrl, killed: false, drift_seen_at_offset: None };
    play(net, &mut cast)?;
    let Storm { fleet, ctrl, killed, drift_seen_at_offset } = cast;
    let version_id = ctrl.version.id;

    // ---- Contracts ----------------------------------------------------
    if !killed || ctrl.state != RState::Done {
        return Err(format!(
            "the run finished without its chaos: killed={killed} ctrl={:?} (the \
             stage-ack kill trigger never fired)",
            ctrl.state
        ));
    }
    if ctrl.skipped != [VICTIM] {
        return Err(format!(
            "expected exactly the victim skipped mid-swap, got {:?}",
            ctrl.skipped
        ));
    }
    let Some(drift_offset) = drift_seen_at_offset else {
        return Err("rollout ran without ever observing the drift flag".into());
    };
    if drift_offset < shift_at {
        return Err(format!(
            "drift flagged while the furthest client had pushed only {drift_offset} rows \
             (shift starts at {shift_at}) — the monitor tripped on the base distribution"
        ));
    }
    let rows = fleet.check_streams("the mid-swap kill", &mut [Box::new(ref_v0), ref_v1])?;
    if rows[1] == 0 {
        return Err(
            "no row was ever served by the rolled-out version — the swap went unexercised".into()
        );
    }

    // The mid-swap kill left the victim serving version 0 with the new
    // version staged-but-never-activated; survivors finished the walk.
    match fleet.agent(VICTIM).gateway.handle(Message::VersionQuery) {
        Message::VersionReply { active, staged, .. } => {
            if active.id != 0 || staged.as_ref().map(|v| v.id) != Some(version_id) {
                return Err(format!(
                    "victim died in the wrong phase: active {} staged {:?} (want active 0, \
                     staged Some({version_id}))",
                    active.id,
                    staged.map(|v| v.id),
                ));
            }
        }
        other => return Err(format!("victim version query drew {}", other.kind())),
    }
    let mut out = Outcome { v0_rows: rows[0], v1_rows: rows[1], ..fleet.outcome(true) };
    fleet.check_survivors(VICTIM, &mut out, |a, snap| {
        if snap.active_version == version_id && snap.swaps == 1 {
            return Ok(());
        }
        Err(format!(
            "gateway {}: active_version {} swaps {} after the rollout (want {version_id}, 1)",
            a.id, snap.active_version, snap.swaps
        ))
    })?;
    if out.drift_trips == 0 {
        return Err("no surviving gateway ever tripped its drift monitor".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orco_serve::scenarios::{reference_decode, uniform_frames};

    /// Pins the empirical basis for [`DRIFT`]'s threshold: the gauntlet
    /// codec reconstructs uniform frames strictly below it and
    /// Bias-shifted frames strictly above it, windowed-mean-wise.
    #[test]
    fn drift_threshold_separates_bands() {
        let mut codec = AsymmetricAutoencoder::new(&codec_config(11)).expect("valid config");
        let base = uniform_frames(0xFEE7, 64, 32);
        let mut shifted = base.clone();
        let mut drift_rng = OrcoRng::from_seed_u64(1);
        apply_matrix(&mut shifted, Drift::Bias, 1.0, &mut drift_rng);
        let mut mean = |x: &orco_tensor::Matrix| {
            let recon = reference_decode(&mut codec, x);
            let mut sum = 0.0f32;
            for (a, b) in x.as_slice().iter().zip(recon.as_slice()) {
                sum += (a - b) * (a - b);
            }
            sum / x.as_slice().len() as f32
        };
        let (base_mean, shifted_mean) = (mean(&base), mean(&shifted));
        let threshold = DRIFT.threshold;
        assert!(
            base_mean < threshold - 0.02,
            "base band {base_mean} too close to the threshold {threshold}"
        );
        assert!(
            shifted_mean > threshold + 0.02,
            "shifted band {shifted_mean} too close to the threshold {threshold}"
        );
    }
}
