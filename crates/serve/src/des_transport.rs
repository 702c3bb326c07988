//! The DES transport: the serving layer's client↔gateway wire run over
//! [`orco_sim::NetSim`]'s deterministic impaired links.
//!
//! [`Loopback`](crate::Loopback) exercises the full codec-and-protocol
//! path, but its request/reply exchange is instantaneous and infallible —
//! precisely the property that hides liveness bugs. [`DesNet`] puts the
//! scheduler back in: every request and reply frame becomes a payload on
//! a simulated unidirectional link, subject to scripted loss, latency,
//! jitter (a reordering window), and partitions, all under virtual time.
//! `Busy` retries, deadline flushing, retransmission, and reconnects stop
//! being timing-dependent races and become reproducible discrete-event
//! experiments: a run is a pure function of its seed and script, and the
//! recorded [`SendRecord`] trace replays it **bit-identically** even
//! after the RNG or link parameters drift.
//!
//! ## Exactly-once under fire
//!
//! Frames are carried by a stop-and-wait ARQ with per-**session**
//! sequence numbers:
//!
//! * the client assigns each request a fresh sequence number and
//!   retransmits it on a capped-exponential RTO until the matching reply
//!   arrives or `max_attempts` is exhausted ([`NetEvent::GaveUp`]);
//! * the gateway side keeps, per session, the last sequence it executed
//!   and the reply it produced: a duplicate of that sequence re-sends the
//!   cached reply **without re-executing** the request, and anything
//!   staler is dropped. A retransmitted `PushFrames` therefore never
//!   double-enqueues, no matter how the links reorder or duplicate.
//! * sessions outlive connections: [`DesNet::reconnect`] abandons a
//!   connection's links (packets in flight on them die) but keeps the
//!   session's sequence state and re-offers the outstanding request on
//!   the new links — exactly-once holds across connection death. The
//!   fleet failover form, [`DesNet::reconnect_to`], resumes the session
//!   against a *different* endpoint.
//!
//! ## Endpoints
//!
//! A net hosts one or more server **endpoints** — any [`Service`]: the
//! gateway of [`DesNet::new`] is endpoint 0; fleet scenarios use
//! [`DesNet::new_multi`] + [`DesNet::add_service`] to stand up a
//! directory and several gateways behind one simulation, and
//! [`DesNet::kill_endpoint`] to crash one mid-run (requests to it vanish;
//! ARQ give-up and missed heartbeats are the only tells).
//!
//! ## Time
//!
//! Every service must run a virtual [`Clock`](crate::Clock) (quantum zero
//! is the natural choice); [`DesNet`] slaves each endpoint's clock to
//! simulated time with [`crate::Clock::advance_to`] before delivering
//! each event and then calls [`Service::on_time_advance`], so micro-batch
//! deadlines and heartbeat sweeps fire from the passage of *simulated*
//! time — including on shards no packet happens to touch.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use orco_serve::{Client, Clock, DesConfig, DesNet, DesTransport, Gateway, GatewayConfig};
//! use orco_sim::LinkParams;
//! use orco_tensor::Matrix;
//! use orcodcs::{AsymmetricAutoencoder, Codec, OrcoConfig};
//! use orco_datasets::DatasetKind;
//!
//! let config = OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(16);
//! let gateway = Arc::new(Gateway::new(
//!     GatewayConfig::default(),
//!     Clock::manual(Duration::ZERO), // DES time is the only time
//!     |_| Box::new(AsymmetricAutoencoder::new(&config).expect("valid")) as Box<dyn Codec>,
//! )?);
//!
//! // A 5%-lossy 2ms link; the ARQ hides the loss.
//! let net = DesNet::new(
//!     Arc::clone(&gateway),
//!     DesConfig {
//!         link: LinkParams { delay_s: 0.002, jitter_s: 0.001, loss_prob: 0.05 },
//!         ..DesConfig::default()
//!     },
//!     42,
//! );
//! let mut client = Client::connect(&DesTransport::new(net))?;
//! let outcome = client.push(7, Matrix::zeros(4, 784).as_view())?;
//! assert!(matches!(outcome, orco_serve::PushOutcome::Accepted(4)));
//! # Ok::<(), orcodcs::OrcoError>(())
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use orco_sim::{LinkParams, NetScenario, NetSim, SendRecord};
use orcodcs::OrcoError;

use crate::gateway::Gateway;
use crate::protocol::Message;
use crate::service::Service;
use crate::transport::{Connection, Transport};

/// Link and ARQ parameters of a [`DesNet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesConfig {
    /// Base parameters of every link (script windows override them).
    pub link: LinkParams,
    /// Initial retransmission timeout.
    pub rto: Duration,
    /// Ceiling of the per-retry doubled RTO.
    pub rto_cap: Duration,
    /// Transmission attempts (first send included) before
    /// `NetEvent::GaveUp`.
    pub max_attempts: u32,
}

impl Default for DesConfig {
    fn default() -> Self {
        Self {
            link: LinkParams::ideal(),
            rto: Duration::from_millis(10),
            rto_cap: Duration::from_millis(160),
            max_attempts: 8,
        }
    }
}

/// A client-visible event surfaced by [`DesNet::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NetEvent {
    /// The reply to request `seq` arrived on `conn`; collect it with
    /// [`DesNet::take_reply`].
    Reply {
        /// Connection the reply arrived on.
        conn: usize,
        /// Sequence number of the completed request.
        seq: u64,
    },
    /// Request `seq` exhausted its attempts; the connection is dead until
    /// [`DesNet::reconnect`], which re-offers the request.
    GaveUp {
        /// Connection the request was in flight on.
        conn: usize,
        /// Sequence number of the abandoned request.
        seq: u64,
    },
    /// A timer scheduled with [`DesNet::schedule_wakeup`] fired.
    Wakeup {
        /// The caller's token, returned verbatim.
        token: u64,
    },
    /// No events are pending: simulated time can go no further.
    Idle,
}

#[derive(Debug, Clone)]
enum Packet {
    /// Request frame traveling client → gateway.
    Up { conn: usize, seq: u64, bytes: Vec<u8> },
    /// Reply frame traveling gateway → client.
    Down { conn: usize, seq: u64, bytes: Vec<u8> },
    /// Client-side retransmission timer for `seq` on `session`.
    Rto { session: usize, seq: u64 },
    /// Caller-scheduled timer.
    Wakeup { token: u64 },
}

#[derive(Debug)]
struct Outstanding {
    seq: u64,
    bytes: Vec<u8>,
    /// Transmissions so far (first send included).
    attempts: u32,
    /// Next RTO to arm, seconds.
    rto_s: f64,
    gave_up: bool,
}

#[derive(Debug, Default)]
struct Session {
    /// Sequence number the next [`DesNet::submit`] will take.
    next_seq: u64,
    /// Highest sequence whose reply reached the client.
    completed: u64,
    outstanding: Option<Outstanding>,
    /// Connection currently carrying this session.
    conn: usize,
    /// Replies delivered but not yet taken, by sequence.
    ready: BTreeMap<u64, Vec<u8>>,
    /// Gateway side: last sequence executed, and its cached reply frame.
    srv_last_seq: u64,
    srv_last_reply: Vec<u8>,
}

#[derive(Debug)]
struct ConnState {
    session: usize,
    /// The server endpoint this connection dials.
    endpoint: usize,
    /// Client → server link index.
    up: usize,
    /// Server → client link index.
    down: usize,
    /// Dead connections drop every packet addressed to them.
    alive: bool,
}

/// One server behind the simulated network: a gateway or the fleet
/// directory.
struct EndpointState {
    svc: Arc<dyn Service>,
    /// Killed endpoints silently drop every request delivered to them —
    /// the DES model of a crashed process (clients only learn via ARQ
    /// give-up; the directory only learns via missed heartbeats).
    alive: bool,
}

struct Inner {
    cfg: DesConfig,
    sim: NetSim<Packet>,
    endpoints: Vec<EndpointState>,
    sessions: Vec<Session>,
    conns: Vec<ConnState>,
}

/// A deterministic impaired network binding DES clients to one gateway.
///
/// Cheaply cloneable (`Rc`-shared); deliberately single-threaded — the
/// whole point is that every run is one totally-ordered event sequence.
#[derive(Clone)]
pub struct DesNet {
    inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for DesNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("DesNet")
            .field("cfg", &inner.cfg)
            .field("sessions", &inner.sessions.len())
            .field("conns", &inner.conns.len())
            .field("now_s", &inner.sim.now_s())
            .finish_non_exhaustive()
    }
}

impl DesNet {
    /// Binds a DES network to `gateway`, drawing link impairments from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the gateway runs a real clock — simulated links need a
    /// virtual one ([`crate::Clock::manual`], quantum zero recommended so
    /// DES time is the only time that passes).
    #[must_use]
    pub fn new(gateway: Arc<Gateway>, cfg: DesConfig, seed: u64) -> Self {
        let net = Self::new_multi(cfg, seed);
        let ep = net.add_service(gateway);
        debug_assert_eq!(ep, 0);
        net
    }

    /// Builds a DES network with no endpoints yet — the multi-server form
    /// used by fleet scenarios. Register servers with
    /// [`DesNet::add_service`] and dial them with [`DesNet::connect_to`].
    #[must_use]
    pub fn new_multi(cfg: DesConfig, seed: u64) -> Self {
        Self {
            inner: Rc::new(RefCell::new(Inner {
                cfg,
                sim: NetSim::new(seed),
                endpoints: Vec::new(),
                sessions: Vec::new(),
                conns: Vec::new(),
            })),
        }
    }

    /// Registers another server endpoint (a gateway or the fleet
    /// directory) behind the simulated network; returns its endpoint id
    /// for [`DesNet::connect_to`].
    ///
    /// # Panics
    ///
    /// Panics if the service runs a real clock — simulated links need a
    /// virtual one ([`crate::Clock::manual`], quantum zero recommended so
    /// DES time is the only time that passes).
    pub fn add_service(&self, svc: Arc<dyn Service>) -> usize {
        assert!(
            !svc.clock().is_real(),
            "DesNet requires services on a virtual clock (Clock::manual); a real clock \
             would race simulated time"
        );
        let mut inner = self.inner.borrow_mut();
        inner.endpoints.push(EndpointState { svc, alive: true });
        inner.endpoints.len() - 1
    }

    /// Marks endpoint `ep` crashed: every request delivered to it from now
    /// on is silently dropped (sends still draw loss/latency verdicts, so
    /// recorded traces replay identically). Clients learn only through ARQ
    /// give-up; the directory through missed heartbeats.
    ///
    /// # Panics
    ///
    /// Panics on an unknown endpoint id.
    pub fn kill_endpoint(&self, ep: usize) {
        let mut inner = self.inner.borrow_mut();
        assert!(ep < inner.endpoints.len(), "kill_endpoint on unknown endpoint {ep}");
        inner.endpoints[ep].alive = false;
    }

    /// Whether endpoint `ep` is still alive.
    #[must_use]
    pub fn endpoint_alive(&self, ep: usize) -> bool {
        self.inner.borrow().endpoints[ep].alive
    }

    /// Opens a fresh session on a fresh connection to endpoint 0 (an
    /// uplink/downlink pair at the configured base [`LinkParams`]);
    /// returns the connection id.
    pub(crate) fn connect(&self) -> usize {
        self.connect_to(0)
    }

    /// Opens a fresh session on a fresh connection to endpoint `ep`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown endpoint id. (Connecting to a *dead* endpoint
    /// is allowed — real dialers cannot tell either; the ARQ will give
    /// up.)
    pub fn connect_to(&self, ep: usize) -> usize {
        let mut inner = self.inner.borrow_mut();
        assert!(ep < inner.endpoints.len(), "connect_to unknown endpoint {ep}");
        let link = inner.cfg.link;
        let up = inner.sim.add_link(link);
        let down = inner.sim.add_link(link);
        let session = inner.sessions.len();
        let conn = inner.conns.len();
        inner.sessions.push(Session { conn, ..Session::default() });
        inner.conns.push(ConnState { session, endpoint: ep, up, down, alive: true });
        inner.conns.len() - 1
    }

    /// Kills `conn` and opens a replacement carrying the **same session**:
    /// packets in flight on the old links die, but sequence state
    /// survives, and an outstanding request (gave-up or not) is re-offered
    /// on the new links with a fresh attempt budget. Returns the new
    /// connection id.
    ///
    /// # Panics
    ///
    /// Panics on an unknown connection id.
    pub(crate) fn reconnect(&self, conn: usize) -> usize {
        let ep = self.inner.borrow().conns[conn].endpoint;
        self.reconnect_to(conn, ep)
    }

    /// Like `DesNet::reconnect`, but the replacement connection dials
    /// endpoint `ep` — the failover primitive: the session (and its
    /// client-side sequence state) resumes against a **new server**. When
    /// the endpoint actually changes, the server-side dedup memory is
    /// reset — the new server has never seen this session, so whatever is
    /// re-offered or submitted next executes there (the scenario layer's
    /// delivered-watermark bookkeeping makes that exactly-once end to
    /// end).
    ///
    /// # Panics
    ///
    /// Panics on an unknown connection or endpoint id.
    pub fn reconnect_to(&self, conn: usize, ep: usize) -> usize {
        let mut inner = self.inner.borrow_mut();
        assert!(conn < inner.conns.len(), "reconnect on unknown connection {conn}");
        assert!(ep < inner.endpoints.len(), "reconnect_to unknown endpoint {ep}");
        inner.conns[conn].alive = false;
        let link = inner.cfg.link;
        let up = inner.sim.add_link(link);
        let down = inner.sim.add_link(link);
        let session = inner.conns[conn].session;
        let moved = inner.conns[conn].endpoint != ep;
        inner.conns.push(ConnState { session, endpoint: ep, up, down, alive: true });
        let new_conn = inner.conns.len() - 1;
        let s = &mut inner.sessions[session];
        s.conn = new_conn;
        if moved {
            // A different server answers now; it holds no cached reply
            // for this session.
            s.srv_last_seq = 0;
            s.srv_last_reply.clear();
        }
        if let Some(mut out) = inner.sessions[session].outstanding.take() {
            out.attempts = 0;
            out.rto_s = inner.cfg.rto.as_secs_f64();
            out.gave_up = false;
            inner.sessions[session].outstanding = Some(out);
            inner.transmit_outstanding(session);
        }
        new_conn
    }

    /// Drops `conn`'s outstanding request without a reply (stale timers
    /// become no-ops). Failover drivers use this before re-pushing from a
    /// delivered watermark on a new owner, where re-offering the old
    /// frame verbatim would be wrong.
    pub fn cancel_outstanding(&self, conn: usize) {
        let mut inner = self.inner.borrow_mut();
        let session = inner.conns[conn].session;
        inner.sessions[session].outstanding = None;
    }

    /// The uplink (client → gateway) link index of `conn`, for
    /// [`NetScenario`] scripting.
    #[must_use]
    pub(crate) fn uplink(&self, conn: usize) -> usize {
        self.inner.borrow().conns[conn].up
    }

    /// The downlink (gateway → client) link index of `conn`.
    #[must_use]
    pub(crate) fn downlink(&self, conn: usize) -> usize {
        self.inner.borrow().conns[conn].down
    }

    /// Merges an impairment script into the simulation. Link indices come
    /// from [`DesNet::uplink`]/[`DesNet::downlink`], so open connections
    /// first.
    pub(crate) fn script(&self, scenario: &NetScenario) {
        self.inner.borrow_mut().sim.script(scenario);
    }

    /// The impairment trace recorded so far — the run's event log.
    #[must_use]
    pub(crate) fn trace(&self) -> Vec<SendRecord> {
        self.inner.borrow().sim.trace().to_vec()
    }

    /// Switches the simulation into replay mode: subsequent sends consume
    /// `trace` instead of drawing randomness. Start replay before any
    /// traffic and drive the identical schedule.
    pub(crate) fn begin_replay(&self, trace: Vec<SendRecord>) {
        self.inner.borrow_mut().sim.begin_replay(trace);
    }

    /// Submits a request on `conn`, assigning it the session's next
    /// sequence number; the frame is transmitted immediately and the RTO
    /// armed. Returns the sequence to pass to `DesNet::take_reply`.
    ///
    /// # Panics
    ///
    /// Panics if the session already has a request outstanding (the ARQ
    /// is stop-and-wait: one request per session at a time) or the
    /// connection is dead.
    pub fn submit(&self, conn: usize, msg: &Message) -> u64 {
        self.submit_frame(conn, &mut |out| msg.encode_into(out))
    }

    /// [`DesNet::submit`] of the frame `encode` writes (see
    /// [`Connection::exchange`]).
    fn submit_frame(&self, conn: usize, encode: &mut dyn FnMut(&mut Vec<u8>)) -> u64 {
        let mut inner = self.inner.borrow_mut();
        assert!(inner.conns[conn].alive, "submit on dead connection {conn} (reconnect first)");
        let session = inner.conns[conn].session;
        assert!(
            inner.sessions[session].outstanding.is_none(),
            "submit while a request is outstanding: the DES ARQ is stop-and-wait"
        );
        let mut bytes = Vec::new();
        encode(&mut bytes);
        let rto_s = inner.cfg.rto.as_secs_f64();
        let s = &mut inner.sessions[session];
        s.next_seq += 1;
        let seq = s.next_seq;
        s.outstanding = Some(Outstanding { seq, bytes, attempts: 0, rto_s, gave_up: false });
        inner.transmit_outstanding(session);
        seq
    }

    /// Schedules a `NetEvent::Wakeup` `dt` from now — the hook backoff
    /// sleeps and scenario actors hang their timers on.
    pub fn schedule_wakeup(&self, dt: Duration, token: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.sim.schedule_in(dt.as_secs_f64(), 0, Packet::Wakeup { token });
    }

    /// Advances the simulation to the next client-visible event and
    /// returns it ([`NetEvent::Idle`] when the queue is empty). Internal
    /// events — frame arrivals, retransmissions — are processed silently.
    pub(crate) fn poll(&self) -> NetEvent {
        let mut inner = self.inner.borrow_mut();
        loop {
            let Some((t, packet)) = inner.sim.next() else {
                return NetEvent::Idle;
            };
            // Slave every live endpoint's clock to simulated time and let
            // overdue work (micro-batch deadlines, heartbeat-timeout
            // sweeps) run before the event acts.
            for ep in &inner.endpoints {
                if ep.alive {
                    ep.svc.clock().advance_to(Duration::from_secs_f64(t));
                    ep.svc.on_time_advance();
                }
            }
            match packet {
                Packet::Up { conn, seq, bytes } => inner.deliver_up(conn, seq, &bytes),
                Packet::Down { conn, seq, bytes } => {
                    if let Some(ev) = inner.deliver_down(conn, seq, bytes) {
                        return ev;
                    }
                }
                Packet::Rto { session, seq } => {
                    if let Some(ev) = inner.fire_rto(session, seq) {
                        return ev;
                    }
                }
                Packet::Wakeup { token } => return NetEvent::Wakeup { token },
            }
        }
    }

    /// Takes the decoded reply to request `seq` on `conn`, if delivered.
    #[must_use]
    pub(crate) fn take_reply(&self, conn: usize, seq: u64) -> Option<Message> {
        let mut inner = self.inner.borrow_mut();
        let session = inner.conns[conn].session;
        let bytes = inner.sessions[session].ready.remove(&seq)?;
        Some(Message::decode(&bytes).expect("gateway produced an undecodable frame"))
    }
}

impl Inner {
    /// (Re)transmits the session's outstanding request on its current
    /// connection and arms the next RTO.
    fn transmit_outstanding(&mut self, session: usize) {
        let conn = self.sessions[session].conn;
        let up = self.conns[conn].up;
        let out = self.sessions[session].outstanding.as_mut().expect("outstanding set");
        out.attempts += 1;
        let seq = out.seq;
        let bytes = out.bytes.clone();
        let rto_s = out.rto_s;
        self.sim.send(up, up as u64, Packet::Up { conn, seq, bytes });
        self.sim.schedule_in(rto_s, 0, Packet::Rto { session, seq });
    }

    /// A request frame reached its server endpoint: dedup, execute, reply.
    fn deliver_up(&mut self, conn: usize, seq: u64, bytes: &[u8]) {
        if !self.conns[conn].alive {
            return; // the connection died while the frame was in flight
        }
        if !self.endpoints[self.conns[conn].endpoint].alive {
            return; // crashed server: the request vanishes, no reply ever
        }
        let session = self.conns[conn].session;
        if seq == self.sessions[session].srv_last_seq {
            // Duplicate of the last executed request: re-send the cached
            // reply, do NOT re-execute (a retransmitted push must not
            // double-enqueue).
            let reply = self.sessions[session].srv_last_reply.clone();
            self.send_down(conn, seq, reply);
            return;
        }
        if seq < self.sessions[session].srv_last_seq {
            return; // stale straggler from a reordering window
        }
        let mut reply = Vec::new();
        self.endpoints[self.conns[conn].endpoint].svc.handle_frame(bytes, &mut reply, None);
        let s = &mut self.sessions[session];
        s.srv_last_seq = seq;
        s.srv_last_reply = reply.clone();
        self.send_down(conn, seq, reply);
    }

    fn send_down(&mut self, conn: usize, seq: u64, bytes: Vec<u8>) {
        let down = self.conns[conn].down;
        self.sim.send(down, down as u64, Packet::Down { conn, seq, bytes });
    }

    /// A reply frame reached the client: complete the outstanding request
    /// exactly once.
    fn deliver_down(&mut self, conn: usize, seq: u64, bytes: Vec<u8>) -> Option<NetEvent> {
        if !self.conns[conn].alive {
            return None;
        }
        let session = self.conns[conn].session;
        let s = &mut self.sessions[session];
        if seq <= s.completed {
            return None; // duplicate reply (the request was retransmitted)
        }
        s.completed = seq;
        if s.outstanding.as_ref().is_some_and(|o| o.seq == seq) {
            s.outstanding = None;
        }
        s.ready.insert(seq, bytes);
        Some(NetEvent::Reply { conn, seq })
    }

    /// The RTO for (`session`, `seq`) fired: retransmit with a doubled
    /// timeout, or give up at the attempt cap.
    fn fire_rto(&mut self, session: usize, seq: u64) -> Option<NetEvent> {
        let cfg = self.cfg;
        let out = self.sessions[session].outstanding.as_mut()?;
        if out.seq != seq || out.gave_up {
            return None; // completed or already abandoned; stale timer
        }
        if out.attempts >= cfg.max_attempts {
            out.gave_up = true;
            return Some(NetEvent::GaveUp { conn: self.sessions[session].conn, seq });
        }
        out.rto_s = (out.rto_s * 2.0).min(cfg.rto_cap.as_secs_f64());
        self.transmit_outstanding(session);
        None
    }
}

/// [`Transport`] adapter over a [`DesNet`]: each [`Transport::connect`]
/// opens a DES connection whose blocking [`Connection::request`] drives
/// the simulation until the reply lands (or the ARQ gives up, which
/// surfaces as [`OrcoError::Io`]).
///
/// Useful for running *existing* [`crate::Client`]-based code over
/// impaired links unchanged; scenario drivers that juggle many clients
/// should use the non-blocking [`DesNet`] API directly.
#[derive(Debug, Clone)]
pub struct DesTransport {
    net: DesNet,
}

impl DesTransport {
    /// Wraps `net` as a [`Transport`].
    #[must_use]
    pub fn new(net: DesNet) -> Self {
        Self { net }
    }
}

impl Transport for DesTransport {
    type Conn = DesConnection;

    fn connect(&self) -> Result<Self::Conn, OrcoError> {
        Ok(DesConnection { net: self.net.clone(), conn: self.net.connect() })
    }
}

/// A blocking DES connection: one request at a time, pumped to completion.
#[derive(Debug)]
pub struct DesConnection {
    net: DesNet,
    conn: usize,
}

impl Connection for DesConnection {
    fn exchange(&mut self, encode: &mut dyn FnMut(&mut Vec<u8>)) -> Result<Message, OrcoError> {
        let seq = self.net.submit_frame(self.conn, encode);
        loop {
            match self.net.poll() {
                NetEvent::Reply { conn, seq: got } if conn == self.conn && got == seq => {
                    return Ok(self
                        .net
                        .take_reply(conn, seq)
                        .expect("reply announced but not stored"));
                }
                NetEvent::GaveUp { conn, seq: got } if conn == self.conn && got == seq => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("DES ARQ gave up on request seq {seq} (link too impaired)"),
                    )
                    .into());
                }
                NetEvent::Idle => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "DES queue drained with the request still outstanding",
                    )
                    .into());
                }
                // Replies for other connections are stashed by poll();
                // wakeups belong to whoever scheduled them.
                _ => {}
            }
        }
    }
}
