//! The fleet cast of the chaos-gauntlet harness
//! ([`orco_serve::scenarios`]) and the scenario built on it here,
//! `fleet_kill`.
//!
//! ## The cast
//!
//! [`Fleet`] is a whole simulated fleet over a [`DesNet`]: the
//! [`Directory`] at endpoint 0, gateways at endpoints `1..=n`, one
//! [`Agent`] per gateway (register, heartbeat with piggybacked stats,
//! re-register on eviction — the DES twin of [`crate::GatewayAgent`]'s
//! thread), and [`ClientActor`]s that bootstrap from the directory, greet
//! their cluster's owner, and stream **window by window** (push three
//! rows, pull them back, repeat), chasing `Redirect`s and failing over
//! through the directory when their owner dies. Every owner a client
//! observes — from a directory view or a [`Message::Redirect`] — is
//! recorded under its epoch; two different owners under one
//! `(epoch, cluster)` key fail the run.
//!
//! A scenario script wraps a `Fleet` in its own [`Cast`]: it forwards
//! events to [`Fleet::on_reply`] / [`Fleet::on_gave_up`] /
//! [`Fleet::on_wakeup`] and triggers on the [`Step`] that comes back,
//! keeping for itself the connections it bound as [`Role::Script`] and
//! the timer tokens from [`TOKEN_SCRIPT`] up (the rollout controller's).
//! The scripts differ only in which clients hold their
//! tail back and where ([`Fleet::cast_clients`]), in whether the per-row
//! version tape enters the digest, and in their triggers.
//!
//! ## `fleet_kill`
//!
//! A **mid-run gateway kill** and a **mid-run join**, asserting:
//!
//! * **Exactly-once across failover.** Every client's stream is
//!   delivered back complete and unduplicated even though its owner was
//!   killed mid-push: the client gives up via ARQ, re-queries the
//!   directory, resumes its session on the new owner
//!   ([`DesNet::reconnect_to`]), and re-pushes from its *delivered
//!   watermark* — rows the dead gateway acked but never served are
//!   re-pushed (the dead gateway can no longer deliver them, so this
//!   cannot duplicate).
//! * **Bit-identity.** The delivered rows equal one direct
//!   `encode_batch` + `decode_batch` of the stream on a reference codec:
//!   failover must not perturb the data plane, because every gateway
//!   builds the same codec from the same config.
//! * **No two owners at one epoch** (above).
//! * **Liveness and cleanliness.** The run terminates, the kill and the
//!   join both actually happened, and every *surviving* gateway ends
//!   drained (zero queue depth, zero stored codes).
//!
//! The kill and the join are triggered by **delivery progress**, not
//! wall-clock hacks, so a run is a pure function of its seed; the
//! recorded [`RunLog`] replays it bit-identically ([`replay_scenario`]).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use orco_serve::fleet_view::owner_of;
use orco_serve::scenarios::{
    self as serve, check_drained, client_backoff, codec_config, exactly_once, gateway_config, play,
    pull_chunk, push_window, reference_decode, row_digest, stats_frame, uniform_frames, Cast,
    Outcome, Roles, Run, ROWS_PER_PUSH,
};
use orco_serve::{
    auth, Backoff, Clock, DesConfig, DesNet, FleetView, Gateway, GatewayConfig, GatewayEntry,
    Message, RunLog, ScenarioError, Service, StatsSnapshot,
};
use orco_sim::LinkParams;
use orco_tensor::Matrix;
use orcodcs::{AsymmetricAutoencoder, Codec, OrcoConfig};

use crate::directory::{Directory, DirectoryConfig};

/// The scenario names this layer adds to [`orco_serve::GAUNTLET`].
pub const FLEET_GAUNTLET: [&str; 1] = ["fleet_kill"];

/// Runs one gauntlet scenario live, drawing impairments from `seed`:
/// `fleet_kill` here, any of [`orco_serve::GAUNTLET`] in the layer below.
/// `quick` shrinks the per-client stream for CI; the topology and the
/// kill/join schedule are the same either way.
///
/// # Errors
///
/// Returns a [`ScenarioError`] (with its replay log) when a contract is
/// violated, and on an unknown scenario name.
pub fn run_scenario(name: &str, seed: u64, quick: bool) -> Result<Outcome, ScenarioError> {
    drive(&Run::live(name, seed, quick))
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
    drive(&Run::replay(log))
}

/// Runs `run` if this layer knows its name, else hands it down to
/// [`orco_serve::scenarios::drive`].
///
/// # Errors
///
/// As [`run_scenario`].
pub fn drive(run: &Run) -> Result<Outcome, ScenarioError> {
    if run.name != "fleet_kill" {
        return serve::drive(run);
    }
    let net = run.arm(DesNet::new_multi(lossy_des(), run.seed));
    run.conclude(&net, fleet_kill(run, &net))
}

// ---- The shared cast --------------------------------------------------

/// Shared secret every party in the simulated fleet is keyed with.
pub const SECRET: u64 = 0x0f1e_2d3c_4b5a_6978;

/// Golden-ratio multiplier shared with the TCP clients' nonce schedule.
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Endpoint layout: the directory is endpoint 0, gateway id `g` is
/// endpoint `g` (ids start at 1), advertised as `des:<endpoint>`.
pub(crate) const DIRECTORY_EP: usize = 0;

fn ep_of_addr(addr: &str) -> usize {
    addr.strip_prefix("des:")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("non-DES gateway address {addr:?} in a DES fleet"))
}

/// Heartbeat cadence; the timeout leaves room for a 3-retransmit beat.
const BEAT_EVERY: Duration = Duration::from_millis(20);
const BEAT_TIMEOUT: Duration = Duration::from_millis(120);

/// Wakeup-token namespaces: client tokens are the client index, agent
/// `i` beats on `TOKEN_AGENT + i`, [`TOKEN_RELEASE`] lets the held
/// clients go, and everything from [`TOKEN_SCRIPT`] up is the script's.
const TOKEN_AGENT: u64 = 1000;
/// Schedule this token to release every client parked at its hold point.
pub const TOKEN_RELEASE: u64 = 2000;
/// First wakeup token [`Fleet::on_wakeup`] leaves to the scenario script.
pub const TOKEN_SCRIPT: u64 = 3000;

/// The fleet scenarios' links: lossy and jittered enough that ARQ
/// retransmits, reordering and the odd give-up all occur.
#[must_use]
pub fn lossy_des() -> DesConfig {
    DesConfig {
        link: LinkParams { delay_s: 0.002, jitter_s: 0.001, loss_prob: 0.02 },
        rto: Duration::from_millis(10),
        rto_cap: Duration::from_millis(80),
        max_attempts: 5,
    }
}

/// Who a [`DesNet`] connection belongs to.
#[derive(Debug, Clone, Copy)]
pub enum Role {
    /// Gateway agent `i`'s directory connection.
    Agent(usize),
    /// Client `i`'s directory connection.
    ClientDir(usize),
    /// Client `i`'s data-plane connection.
    ClientData(usize),
    /// Connection `i` of the scenario script's own actor (the rollout
    /// controller): the script routes these itself and never hands their
    /// events to [`Fleet`].
    Script(usize),
}

/// What a reply did, for the script's triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Nothing a script triggers on.
    Quiet,
    /// Agent `i`'s directory connection answered.
    AgentReply(usize),
    /// A client pulled rows back: delivery progressed.
    Delivered,
}

/// A gateway-side fleet agent, scripted as a simulation actor (the DES
/// twin of [`crate::GatewayAgent`]'s thread).
#[derive(Debug)]
pub struct Agent {
    /// Gateway id (== endpoint).
    pub id: u64,
    /// The gateway this agent speaks for.
    pub gateway: Arc<Gateway>,
    conn: usize,
    /// Dead (or not yet joined) agents submit nothing and ignore stray
    /// replies.
    pub(crate) alive: bool,
    epoch: u64,
}

impl Agent {
    /// Submits this gateway's MAC'd `Register` to the directory.
    pub(crate) fn register(&self, net: &DesNet) {
        let addr = format!("des:{}", self.id);
        let nonce = self.id.wrapping_mul(GOLDEN) ^ 0x666C_6565;
        let mac = auth::register_mac(SECRET, self.id, &addr, nonce);
        net.submit(self.conn, &Message::Register { gateway_id: self.id, addr, nonce, mac });
    }

    /// Every beat piggybacks the gateway's live stats, feeding the
    /// directory's fleet view.
    fn heartbeat(&self) -> Message {
        Message::Heartbeat {
            gateway_id: self.id,
            epoch: self.epoch,
            stats: Some(self.gateway.stats()),
        }
    }
}

/// Where a [`ClientActor`] is in its script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CState {
    /// Waiting for the bootstrap `DirectoryReply`.
    Boot,
    /// Greeting the owner (`HelloAck` pending).
    Greet,
    /// The push-window / drain loop against the current owner.
    Stream,
    /// Owner died: waiting for a post-eviction `DirectoryReply`.
    AwaitDir,
    /// Parked at the hold point until [`TOKEN_RELEASE`] fires.
    Held,
    /// Whole stream delivered back.
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CKind {
    Query,
    Hello,
    Push { lo: usize, hi: usize },
    Pull,
}

/// A fleet client, scripted as a simulation actor.
#[derive(Debug)]
pub struct ClientActor {
    /// The cluster this client streams for.
    pub(crate) cluster: u64,
    /// The stream; the reference codec is run over exactly these rows.
    pub frames: Matrix,
    /// The client parks once this many rows are delivered, until released
    /// — so its tail runs against whatever the script changed meanwhile.
    hold_at: Option<usize>,
    /// Rows offered and acked (windows are drained before the next push,
    /// so outside an in-flight window `offset == acked`).
    pub offset: usize,
    acked: usize,
    pulled: Vec<f32>,
    /// Producing model version of each delivered row, in pull order.
    pulled_versions: Vec<u64>,
    pulled_rows: usize,
    /// Script position.
    pub(crate) state: CState,
    /// The in-flight request (one per client; dir and data sessions are
    /// never concurrently outstanding by construction).
    pending: Option<(u64, CKind)>,
    dir_conn: usize,
    data_conn: Option<usize>,
    data_ep: usize,
    released: bool,
    backoff: Backoff,
    redirects: usize,
    gave_ups: usize,
    reconnects: usize,
    /// Rows delivered to this client per gateway endpoint — the ground
    /// truth the directory's aggregated fleet view must converge to.
    delivered_by_ep: BTreeMap<usize, usize>,
}

impl ClientActor {
    fn query_directory(&mut self, net: &DesNet) {
        let seq = net.submit(self.dir_conn, &Message::DirectoryQuery);
        self.pending = Some((seq, CKind::Query));
    }

    /// Dials (or fails over the existing data session to) `owner_ep` and
    /// submits the MAC'd `Hello`.
    fn greet(&mut self, net: &DesNet, roles: &mut Roles<Role>, i: usize, owner_ep: usize) {
        let conn = match self.data_conn {
            // Failover keeps the session: sequence state rides to the new
            // owner, dedup memory resets there (DesNet::reconnect_to).
            Some(old) => {
                self.reconnects += 1;
                net.reconnect_to(old, owner_ep)
            }
            None => net.connect_to(owner_ep),
        };
        roles.bind(conn, Role::ClientData(i));
        self.data_conn = Some(conn);
        self.data_ep = owner_ep;
        self.state = CState::Greet;
        let client_id = self.cluster;
        let nonce = client_id.wrapping_mul(GOLDEN) ^ 0x6F72_636F;
        let mac = auth::hello_mac(SECRET, client_id, nonce);
        let seq = net.submit(conn, &Message::Hello { client_id, nonce, mac });
        self.pending = Some((seq, CKind::Hello));
    }

    /// Drives the window loop: drain the last window, push the next, park
    /// at the hold point, or finish. Only valid in `Stream` with nothing
    /// pending.
    fn advance(&mut self, net: &DesNet) {
        debug_assert_eq!(self.state, CState::Stream);
        debug_assert!(self.pending.is_none());
        let conn = self.data_conn.expect("streaming requires a data connection");
        if self.pulled_rows < self.offset {
            let seq = net.submit(conn, &pull_chunk(self.cluster));
            self.pending = Some((seq, CKind::Pull));
        } else if self.offset < self.frames.rows() {
            if !self.released && self.hold_at.is_some_and(|at| self.offset >= at) {
                self.state = CState::Held;
                return;
            }
            let (lo, hi) = (self.offset, (self.offset + ROWS_PER_PUSH).min(self.frames.rows()));
            let seq = net.submit(conn, &push_window(self.cluster, &self.frames, lo, hi));
            self.pending = Some((seq, CKind::Push { lo, hi }));
        } else {
            self.state = CState::Done;
        }
    }
}

/// A simulated fleet — directory, gateways with their agents, clients —
/// and the event handling every fleet scenario shares.
#[derive(Debug)]
pub struct Fleet {
    /// The network everything runs over.
    pub(crate) net: DesNet,
    /// The directory service at [`DIRECTORY_EP`].
    pub(crate) directory: Arc<Directory>,
    /// One agent per gateway, index `id - 1`.
    pub(crate) agents: Vec<Agent>,
    /// The clients, in casting order.
    pub clients: Vec<ClientActor>,
    /// Connection routing; scripts bind their own as [`Role::Script`].
    pub roles: Roles<Role>,
    /// Every owner observation, keyed by (epoch, cluster): a second,
    /// different owner under one key is the split-brain the epochs exist
    /// to prevent.
    owners_seen: BTreeMap<(u64, u64), String>,
}

impl Fleet {
    /// Stands up the directory and `gateways` identical gateways (ids
    /// `1..=gateways`, all keyed with [`SECRET`]) on `net`, each agent
    /// dialed into the directory.
    ///
    /// # Panics
    ///
    /// Panics if `net` already has endpoints or connections.
    #[must_use]
    pub fn new(net: &DesNet, gateways: u64, cfg: GatewayConfig, codec: &OrcoConfig) -> Fleet {
        let directory = Directory::new(
            DirectoryConfig {
                auth_secret: Some(SECRET),
                heartbeat_timeout: BEAT_TIMEOUT,
                sweep_interval: Duration::from_millis(100),
            },
            Clock::manual(Duration::ZERO),
        );
        let directory = Arc::new(directory.expect("valid directory config"));
        assert_eq!(net.add_service(Arc::clone(&directory) as Arc<dyn Service>), DIRECTORY_EP);
        let mut roles = Roles::new();
        let agents = (1..=gateways)
            .map(|id| {
                let cfg = GatewayConfig { auth_secret: Some(SECRET), ..cfg };
                let gateway = serve::gateway(cfg, codec);
                let ep = net.add_service(Arc::clone(&gateway) as Arc<dyn Service>);
                assert_eq!(ep, id as usize);
                let conn = net.connect_to(DIRECTORY_EP);
                roles.bind(conn, Role::Agent(id as usize - 1));
                Agent { id, gateway, conn, alive: true, epoch: 0 }
            })
            .collect();
        let (net, clients, owners_seen) = (net.clone(), Vec::new(), BTreeMap::new());
        Fleet { net, directory, agents, clients, roles, owners_seen }
    }

    /// The agent of gateway `id`.
    #[must_use]
    pub fn agent(&self, id: u64) -> &Agent {
        &self.agents[id as usize - 1]
    }

    /// The agent of gateway `id`, mutably.
    pub(crate) fn agent_mut(&mut self, id: u64) -> &mut Agent {
        &mut self.agents[id as usize - 1]
    }

    /// Casts one client per cluster, each with a `frames_per_client`-row
    /// uniform stream drawn from `seed` and a directory connection;
    /// client `i` parks after `hold_at(i)` delivered rows, if any.
    pub fn cast_clients(
        &mut self,
        seed: u64,
        clusters: &[u64],
        frames_per_client: usize,
        hold_at: impl Fn(usize) -> Option<usize>,
    ) {
        let input_dim = self.agents[0].gateway.frame_dims().input;
        for (i, &cluster) in clusters.iter().enumerate() {
            let dir_conn = self.net.connect_to(DIRECTORY_EP);
            self.roles.bind(dir_conn, Role::ClientDir(i));
            self.clients.push(ClientActor {
                cluster,
                frames: uniform_frames(seed ^ (0xFEE7 + i as u64), frames_per_client, input_dim),
                hold_at: hold_at(i),
                offset: 0,
                acked: 0,
                pulled: Vec::new(),
                pulled_versions: Vec::new(),
                pulled_rows: 0,
                state: CState::Boot,
                pending: None,
                dir_conn,
                data_conn: None,
                data_ep: 0,
                released: false,
                backoff: client_backoff(seed, i),
                redirects: 0,
                gave_ups: 0,
                reconnects: 0,
                delivered_by_ep: BTreeMap::new(),
            });
        }
    }

    /// Kick-off: every live agent registers at t=0; clients boot staggered
    /// so the directory has members by the time they query.
    pub fn kick_off(&self) {
        for a in self.agents.iter().filter(|a| a.alive) {
            a.register(&self.net);
        }
        for i in 0..self.clients.len() {
            self.net.schedule_wakeup(Duration::from_millis(10 + i as u64), i as u64);
        }
    }

    /// Crashes gateway `id`: its endpoint drops every request from now on
    /// and its agent falls silent.
    pub fn kill(&mut self, id: u64) {
        self.net.kill_endpoint(id as usize);
        self.agent_mut(id).alive = false;
    }

    /// Rows delivered back so far, all clients.
    #[must_use]
    pub(crate) fn delivered_rows(&self) -> usize {
        self.clients.iter().map(|c| c.pulled_rows).sum()
    }

    /// Whether every client has its whole stream back.
    #[must_use]
    pub fn done(&self) -> bool {
        self.clients.iter().all(|c| c.state == CState::Done)
    }

    /// The unfinished clients, for [`Cast::unfinished`].
    #[must_use]
    pub fn unfinished(&self) -> String {
        let stuck: Vec<usize> =
            (0..self.clients.len()).filter(|&i| self.clients[i].state != CState::Done).collect();
        format!("clients {stuck:?}")
    }

    /// Routes a reply to the agent or client it belongs to.
    ///
    /// # Errors
    ///
    /// A contract violation, as its description.
    pub fn on_reply(&mut self, conn: usize, seq: u64, reply: Message) -> Result<Step, String> {
        match self.roles.of(conn) {
            Role::Agent(i) => {
                self.on_agent_reply(i, reply)?;
                Ok(Step::AgentReply(i))
            }
            Role::ClientDir(i) => self.on_dir_reply(i, seq, reply).map(|()| Step::Quiet),
            Role::ClientData(i) => self.on_data_reply(i, seq, reply).map(|progressed| {
                if progressed {
                    Step::Delivered
                } else {
                    Step::Quiet
                }
            }),
            Role::Script(idx) => unreachable!("script connection {idx} routed to the fleet cast"),
        }
    }

    /// Handles a reply on agent `i`'s directory connection and schedules
    /// its next beat.
    fn on_agent_reply(&mut self, i: usize, reply: Message) -> Result<(), String> {
        let (net, a) = (&self.net, &mut self.agents[i]);
        if !a.alive {
            return Ok(()); // a straggler reply to a gateway that died meanwhile
        }
        match reply {
            Message::RegisterAck { epoch, members } | Message::HeartbeatAck { epoch, members } => {
                if epoch != a.epoch || a.gateway.fleet_view().is_none() {
                    a.epoch = epoch;
                    let view = FleetView::new(Some(a.id), epoch, members);
                    a.gateway.set_fleet_view(Some(view));
                }
            }
            Message::ErrorReply { .. } => {
                // Evicted (a heartbeat outlasted the timeout): re-register.
                a.register(net);
                return Ok(()); // the ack of that register schedules the next beat
            }
            other => return Err(format!("agent {}: unexpected {}", a.id, other.kind())),
        }
        net.schedule_wakeup(BEAT_EVERY, TOKEN_AGENT + i as u64);
        Ok(())
    }

    /// Records an owner observation, failing on a second owner under the
    /// same `(epoch, cluster)`.
    fn observe_owner(&mut self, epoch: u64, cluster: u64, addr: &str) -> Result<(), String> {
        match self.owners_seen.get(&(epoch, cluster)) {
            Some(prev) if prev != addr => Err(format!(
                "split brain: cluster {cluster} at epoch {epoch} claimed by both {prev} and {addr}"
            )),
            Some(_) => Ok(()),
            None => {
                self.owners_seen.insert((epoch, cluster), addr.to_string());
                Ok(())
            }
        }
    }

    /// Handles a reply on client `i`'s directory connection: adopt the
    /// view and (re)greet the owner.
    fn on_dir_reply(&mut self, i: usize, seq: u64, reply: Message) -> Result<(), String> {
        let Some((want, CKind::Query)) = self.clients[i].pending.take() else {
            return Err(format!("client {i}: directory reply with no query pending"));
        };
        if want != seq {
            return Err(format!("client {i}: expected dir reply seq {want}, got {seq}"));
        }
        let Message::DirectoryReply { epoch, members } = reply else {
            return Err(format!("client {i}: expected DirectoryReply, got {}", reply.kind()));
        };
        let Some(owner) = owner_of(&members, self.clients[i].cluster) else {
            // The fleet has no members yet (we queried before the first
            // register landed): back off and ask again.
            let c = &mut self.clients[i];
            self.net.schedule_wakeup(c.backoff.next_delay(), i as u64);
            return Ok(());
        };
        self.observe_owner(epoch, self.clients[i].cluster, &owner.addr)?;
        let owner_ep = ep_of_addr(&owner.addr);
        let c = &mut self.clients[i];
        if !self.net.endpoint_alive(owner_ep) {
            // The directory has not noticed the death yet (its epoch still
            // names the corpse): requery after a backoff.
            c.state = CState::AwaitDir;
            self.net.schedule_wakeup(c.backoff.next_delay(), i as u64);
            return Ok(());
        }
        c.greet(&self.net, &mut self.roles, i, owner_ep);
        Ok(())
    }

    /// Handles a reply on client `i`'s data connection. `Ok(true)` means
    /// delivery progressed.
    fn on_data_reply(&mut self, i: usize, seq: u64, reply: Message) -> Result<bool, String> {
        let Some((want, kind)) = self.clients[i].pending.take() else {
            // A straggler from a connection this client already failed away
            // from (e.g. the dead owner's cached reply raced the failover).
            return Ok(false);
        };
        if want != seq {
            return Err(format!("client {i}: expected data reply seq {want}, got {seq}"));
        }
        let net = &self.net;
        let c = &mut self.clients[i];
        match (kind, reply) {
            (CKind::Hello, Message::HelloAck { .. }) => {
                c.state = CState::Stream;
                c.advance(net);
                Ok(false)
            }
            (CKind::Push { lo, hi }, Message::PushAck { accepted }) => {
                if accepted as usize != hi - lo {
                    return Err(format!(
                        "client {i}: partial ack {accepted} for a {}-row push",
                        hi - lo
                    ));
                }
                c.offset = hi;
                c.acked += accepted as usize;
                c.backoff.reset();
                c.advance(net);
                Ok(false)
            }
            (CKind::Push { .. }, Message::Redirect { cluster_id, epoch, addr }) => {
                if cluster_id != c.cluster {
                    return Err(format!(
                        "client {i}: redirect for cluster {cluster_id}, pushed {}",
                        c.cluster
                    ));
                }
                // Every window is drained before the next push, so at
                // redirect time this client stores no rows on the old owner
                // — chase immediately. (A client with undrained rows would
                // drain first: pulls are never redirected.)
                debug_assert_eq!(c.pulled_rows, c.offset);
                c.redirects += 1;
                self.observe_owner(epoch, cluster_id, &addr)?;
                let owner_ep = ep_of_addr(&addr);
                if !self.net.endpoint_alive(owner_ep) {
                    return Err(format!(
                        "client {i}: redirected to {addr}, which is dead — the redirecting \
                         gateway's view names a corpse at epoch {epoch}"
                    ));
                }
                self.clients[i].greet(&self.net, &mut self.roles, i, owner_ep);
                Ok(false)
            }
            (CKind::Pull, Message::Decoded { cluster_id, version, frames }) => {
                if cluster_id != c.cluster {
                    return Err(format!(
                        "client {i}: pulled cluster {} got cluster {cluster_id}",
                        c.cluster
                    ));
                }
                if frames.rows() == 0 {
                    // Batch still pending its deadline flush: poll again
                    // after a backoff.
                    net.schedule_wakeup(c.backoff.next_delay(), i as u64);
                    return Ok(false);
                }
                c.pulled.extend_from_slice(frames.as_slice());
                c.pulled_versions.extend(std::iter::repeat_n(version, frames.rows()));
                c.pulled_rows += frames.rows();
                *c.delivered_by_ep.entry(c.data_ep).or_insert(0) += frames.rows();
                if c.pulled_rows > c.acked {
                    return Err(format!(
                        "client {i}: pulled {} rows with only {} acked (duplication)",
                        c.pulled_rows, c.acked
                    ));
                }
                c.backoff.reset();
                c.advance(net);
                Ok(true)
            }
            (kind, Message::Busy { .. }) => Err(format!(
                "client {i}: {kind:?} drew Busy — the gauntlet sizes queues to never backpressure"
            )),
            (kind, Message::ErrorReply { code, detail }) => {
                Err(format!("client {i}: {kind:?} drew {code:?}: {detail}"))
            }
            (kind, other) => Err(format!("client {i}: {kind:?} drew unexpected {}", other.kind())),
        }
    }

    /// Handles an ARQ give-up on an agent's or client's connection.
    pub fn on_gave_up(&mut self, conn: usize) {
        let net = &self.net;
        match self.roles.of(conn) {
            Role::Agent(i) => {
                // Directory unreachable this instant: resume the session
                // (the ARQ re-offers the beat) on fresh links.
                if self.agents[i].alive {
                    self.agents[i].conn = self.roles.reconnect(net, conn);
                }
            }
            Role::ClientDir(i) => self.clients[i].dir_conn = self.roles.reconnect(net, conn),
            Role::ClientData(i) => {
                let c = &mut self.clients[i];
                c.gave_ups += 1;
                if net.endpoint_alive(c.data_ep) {
                    // Transient loss streak: resume the session on the
                    // same gateway; dedup state survives, the re-offered
                    // request executes at most once.
                    c.reconnects += 1;
                    c.data_conn = Some(self.roles.reconnect(net, conn));
                } else {
                    // Owner crashed. Drop the doomed request, rewind to
                    // the delivered watermark (rows the dead owner held
                    // but never served must be re-pushed — it cannot
                    // deliver them, so this cannot duplicate), and go
                    // find the new owner.
                    net.cancel_outstanding(conn);
                    c.acked = c.pulled_rows;
                    c.offset = c.pulled_rows;
                    c.state = CState::AwaitDir;
                    c.query_directory(net);
                }
            }
            Role::Script(idx) => unreachable!("script connection {idx} routed to the fleet cast"),
        }
    }

    /// Handles a client, agent or release timer; returns `false` for a
    /// token from [`TOKEN_SCRIPT`] up, which is the script's.
    pub fn on_wakeup(&mut self, token: u64) -> bool {
        let net = &self.net;
        if token >= TOKEN_SCRIPT {
            return false;
        } else if token == TOKEN_RELEASE {
            for c in &mut self.clients {
                c.released = true;
                if c.state == CState::Held {
                    c.state = CState::Stream;
                    c.advance(net);
                }
            }
        } else if token >= TOKEN_AGENT {
            let a = &self.agents[(token - TOKEN_AGENT) as usize];
            if a.alive {
                net.submit(a.conn, &a.heartbeat());
            }
        } else {
            let c = &mut self.clients[token as usize];
            if c.pending.is_none() {
                match c.state {
                    CState::Boot | CState::AwaitDir => c.query_directory(net),
                    CState::Stream => c.advance(net),
                    CState::Greet | CState::Held | CState::Done => {}
                }
            }
        }
        true
    }

    // ---- Shared contracts ---------------------------------------------

    /// The delivery contracts: exactly once `across` the scenario's chaos;
    /// per client a non-decreasing version tape (old rows drain before new
    /// rows appear, never interleaved); every row bit-identical to
    /// [`reference_decode`] of the stream under `refs[version]`. Returns
    /// the rows each version produced.
    ///
    /// # Errors
    ///
    /// The first violated contract.
    pub fn check_streams(
        &self,
        across: &str,
        refs: &mut [Box<dyn Codec>],
    ) -> Result<Vec<usize>, String> {
        let total: usize = self.clients.iter().map(|c| c.frames.rows()).sum();
        exactly_once(self.delivered_rows(), total, &format!("pushed across {across}"))?;
        let mut rows_by_version = vec![0usize; refs.len()];
        for (i, c) in self.clients.iter().enumerate() {
            if c.pulled_versions.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("client {i}: version tape {:?} regressed", c.pulled_versions));
            }
            let recons: Vec<Matrix> =
                refs.iter_mut().map(|codec| reference_decode(codec.as_mut(), &c.frames)).collect();
            let rows = c.pulled.chunks(c.frames.cols());
            for (r, (row, &v)) in rows.zip(&c.pulled_versions).enumerate() {
                let Some(recon) = recons.get(v as usize) else {
                    return Err(format!("client {i}: row {r} claims unknown version {v}"));
                };
                if row != recon.row(r) {
                    return Err(format!(
                        "client {i}: row {r} (version {v}) diverges from the direct codec path \
                         of that version"
                    ));
                }
                rows_by_version[v as usize] += 1;
            }
        }
        Ok(rows_by_version)
    }

    /// The aftermath of killing `victim`: every other gateway (the
    /// victim's orphaned rows died with it) passes the script's own
    /// `check`, ends drained, and contributes its stats frame, trace
    /// export and drift trips to `out`; and the directory evicted someone.
    ///
    /// # Errors
    ///
    /// The first survivor to fail `check` or the drained contract, or the
    /// missing eviction.
    pub fn check_survivors(
        &self,
        victim: u64,
        out: &mut Outcome,
        check: impl Fn(&Agent, &StatsSnapshot) -> Result<(), String>,
    ) -> Result<(), String> {
        for a in self.agents.iter().filter(|a| a.id != victim) {
            let snap = a.gateway.stats();
            check(a, &snap)?;
            check_drained(&format!("gateway {}", a.id), &snap)?;
            out.drift_trips += snap.drift_trips;
            out.stats_frames.push(stats_frame(snap));
            out.trace_export.push_str(&format!("gateway {}\n", a.id));
            out.trace_export.push_str(&a.gateway.trace_export());
        }
        if self.directory.fleet_stats().1 == 0 {
            return Err("the directory never recorded an eviction despite the kill".into());
        }
        Ok(())
    }

    /// The counters, final epoch and decoded digest of a finished run;
    /// `versioned` folds each row's producing version into the digest.
    #[must_use]
    pub fn outcome(&self, versioned: bool) -> Outcome {
        let clients = &self.clients;
        let row_len = clients[0].frames.cols();
        Outcome {
            clients: clients.len(),
            frames_per_client: clients[0].frames.rows(),
            delivered_rows: self.delivered_rows(),
            redirects: clients.iter().map(|c| c.redirects).sum(),
            gave_ups: clients.iter().map(|c| c.gave_ups).sum(),
            reconnects: clients.iter().map(|c| c.reconnects).sum(),
            final_epoch: self.directory.epoch(),
            decoded_fnv: row_digest(
                clients.iter().map(|c| {
                    (c.pulled.as_slice(), versioned.then_some(c.pulled_versions.as_slice()))
                }),
                row_len,
            ),
            ..Outcome::default()
        }
    }
}

// ---- fleet_kill -------------------------------------------------------

/// Gateway id (== endpoint) killed mid-run.
const VICTIM: u64 = 2;
/// Gateway id (== endpoint) that joins mid-run.
const JOINER: u64 = 4;

/// Scans clusters deterministically from `from` for the first whose
/// rendezvous owners are the `wanted` ones.
fn find_cluster(from: u64, wanted: impl Fn(u64) -> bool) -> u64 {
    (from..from + 10_000).find(|&c| wanted(c)).expect(
        "rendezvous hashing starves no ownership pattern the casts ask for within 10k clusters",
    )
}

/// Picks a cluster id whose rendezvous owner under `members` is `want`,
/// scanning deterministically from `from`.
#[must_use]
pub fn cluster_owned_by(members: &[GatewayEntry], want: u64, from: u64) -> u64 {
    find_cluster(from, |c| owner_of(members, c).map(|g| g.id) == Some(want))
}

/// The `fleet_kill` script: a [`Fleet`] plus progress-triggered chaos.
struct FleetKill {
    fleet: Fleet,
    total: usize,
    /// The client whose stale-view tail guarantees a `Redirect` chase.
    late: usize,
    killed: bool,
    join_submitted: bool,
}

impl Cast for FleetKill {
    fn done(&self) -> bool {
        self.fleet.done()
    }

    fn unfinished(&self) -> String {
        self.fleet.unfinished()
    }

    fn on_reply(
        &mut self,
        net: &DesNet,
        conn: usize,
        seq: u64,
        reply: Message,
    ) -> Result<(), String> {
        let fleet = &mut self.fleet;
        match fleet.on_reply(conn, seq, reply)? {
            // The join is live once the joiner holds its first view:
            // release the late client soon after, so its stale-view push
            // draws a Redirect from an owner that has heartbeat-synced
            // meanwhile.
            Step::AgentReply(i)
                if fleet.agents[i].id == JOINER
                    && fleet.clients[self.late].state == CState::Held =>
            {
                net.schedule_wakeup(Duration::from_millis(100), TOKEN_RELEASE);
            }
            // At 1/3 delivered, kill the victim; at 2/3, admit the joiner.
            Step::Delivered => {
                let delivered = fleet.delivered_rows();
                if !self.killed && delivered * 3 >= self.total {
                    self.killed = true;
                    fleet.kill(VICTIM);
                }
                if self.killed && !self.join_submitted && delivered * 3 >= 2 * self.total {
                    self.join_submitted = true;
                    let joiner = fleet.agent_mut(JOINER);
                    joiner.alive = true;
                    joiner.register(net);
                }
            }
            _ => {}
        }
        Ok(())
    }

    fn on_gave_up(&mut self, _: &DesNet, conn: usize) {
        self.fleet.on_gave_up(conn);
    }

    fn on_wakeup(&mut self, _: &DesNet, token: u64) {
        self.fleet.on_wakeup(token);
    }
}

fn fleet_kill(run: &Run, net: &DesNet) -> Result<Outcome, String> {
    let frames_per_client = if run.quick { 9 } else { 24 };
    let codec = codec_config(11);

    // Four identical gateways; the joiner idles until admitted.
    let mut fleet = Fleet::new(net, 4, gateway_config(), &codec);
    fleet.agent_mut(JOINER).alive = false;

    // Cluster casting, computed from the same rendezvous function every
    // party uses. `initial` = gateways 1..3, `survivors` = after the
    // kill, `joined` = after the join.
    let entry = |id: u64| GatewayEntry { id, addr: format!("des:{id}") };
    let initial: Vec<GatewayEntry> = (1..=3).map(entry).collect();
    let survivors: Vec<GatewayEntry> = [1, 3].into_iter().map(entry).collect();
    let joined: Vec<GatewayEntry> = [1, 3, 4].into_iter().map(entry).collect();
    let owner = |members: &[GatewayEntry], c: u64| owner_of(members, c).map(|g| g.id);
    // Keeps its owner through the kill, and is not the victim's.
    let outlives_kill =
        |c: u64| owner(&initial, c) != Some(VICTIM) && owner(&initial, c) == owner(&survivors, c);
    let stable = |c: u64| outlives_kill(c) && owner(&initial, c) == owner(&joined, c);
    let mover = |c: u64| outlives_kill(c) && owner(&joined, c) == Some(JOINER);
    // Two clients on the victim (exercise kill-failover), ...
    let victim_a = cluster_owned_by(&initial, VICTIM, 100);
    let victim_b = cluster_owned_by(&initial, VICTIM, victim_a + 1);
    // ... two stable clients (never rebalanced), ...
    let stable_a = find_cluster(100, stable);
    let stable_b = find_cluster(stable_a + 1, stable);
    // ... one mover (rebalances onto the joiner mid-stream), and one
    // *late* client that parks after its first window and pushes its
    // remainder with a stale view after the join, guaranteeing a
    // Redirect chase.
    let mover_a = find_cluster(100, mover);
    let mover_late = find_cluster(mover_a + 1, mover);
    let clusters = [victim_a, victim_b, stable_a, stable_b, mover_a, mover_late];
    let late = clusters.len() - 1;
    fleet.cast_clients(run.seed, &clusters, frames_per_client, |i| {
        (i == late).then_some(ROWS_PER_PUSH.min(frames_per_client))
    });
    let total = clusters.len() * frames_per_client;

    fleet.kick_off();
    let mut cast = FleetKill { fleet, total, late, killed: false, join_submitted: false };
    play(net, &mut cast)?;
    let FleetKill { fleet, killed, join_submitted, .. } = cast;

    // ---- Contracts ----------------------------------------------------
    if !killed || !join_submitted {
        return Err(format!(
            "the run finished without its chaos: killed={killed} joined={join_submitted} \
             (progress triggers never fired)"
        ));
    }
    let reference = AsymmetricAutoencoder::new(&codec).expect("valid codec config");
    fleet.check_streams("the kill", &mut [Box::new(reference)])?;
    let mut out = fleet.outcome(false);
    fleet.check_survivors(VICTIM, &mut out, |_, _| Ok(()))?;

    // The directory's aggregated fleet view converges: feed one final
    // in-process beat per survivor (deterministic — no wire hop), then
    // the victim's entry must sit frozen while the survivors' live
    // counters account for every row they delivered.
    for a in fleet.agents.iter().filter(|a| a.id != VICTIM && a.alive) {
        match fleet.directory.handle(a.heartbeat()) {
            Message::HeartbeatAck { .. } => {}
            other => return Err(format!("settle beat for gateway {} drew {other:?}", a.id)),
        }
    }
    let victim_delivered: usize = fleet
        .clients
        .iter()
        .map(|c| c.delivered_by_ep.get(&(VICTIM as usize)).copied().unwrap_or(0))
        .sum();
    let (_, _, view) = fleet.directory.fleet_stats();
    let Some(victim_entry) = view.iter().find(|g| g.id == VICTIM) else {
        return Err("the victim never reported stats before dying — its entry is missing".into());
    };
    if victim_entry.alive {
        return Err("the victim's fleet-view entry is still marked alive after eviction".into());
    }
    let survivor_out: u64 = view.iter().filter(|g| g.alive).map(|g| g.snapshot.frames_out).sum();
    if survivor_out != (total - victim_delivered) as u64 {
        return Err(format!(
            "fleet view out of step: survivors report {survivor_out} rows out, clients \
             pulled {} rows from them ({total} total, {victim_delivered} via the victim)",
            total - victim_delivered
        ));
    }
    if out.redirects == 0 {
        return Err(
            "no client ever chased a Redirect — the stale-view path went unexercised".into()
        );
    }
    Ok(out)
}
