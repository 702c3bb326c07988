//! Fleet-aware clients: the typed directory conversation
//! ([`DirectoryClient`]) and a TCP data-plane client that bootstraps from
//! the directory, caches the assignment table, and chases redirects
//! ([`FleetClient`]).

use std::collections::BTreeMap;

use orco_serve::fleet_view::owner_of;
use orco_serve::protocol::{GatewayStats, Message};
use orco_serve::stats::StatsSnapshot;
use orco_serve::{
    auth, Client, Connection, FleetView, GatewayEntry, GatewayInfo, PushOutcome, Tcp,
    TcpConnection, Transport,
};
use orco_tensor::{MatView, Matrix};
use orcodcs::OrcoError;

/// A typed client for the directory half of the protocol, over any
/// [`Connection`] (loopback, TCP, DES).
#[derive(Debug)]
pub struct DirectoryClient<C: Connection> {
    conn: C,
}

impl<C: Connection> DirectoryClient<C> {
    /// Opens a connection through `transport`.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Io`] when the directory is unreachable.
    pub fn connect<T: Transport<Conn = C>>(transport: &T) -> Result<Self, OrcoError> {
        Ok(Self { conn: transport.connect()? })
    }

    /// Fetches the current `(epoch, members)` assignment table.
    ///
    /// # Errors
    ///
    /// Transport failures and protocol violations.
    pub fn query(&mut self) -> Result<(u64, Vec<GatewayEntry>), OrcoError> {
        match self.conn.request(&Message::DirectoryQuery)? {
            Message::DirectoryReply { epoch, members } => Ok((epoch, members)),
            other => Err(unexpected("DirectoryReply", &other)),
        }
    }

    /// Registers gateway `gateway_id` at `addr`, MAC'd with `secret` when
    /// the directory is keyed. Returns the post-registration table.
    ///
    /// # Errors
    ///
    /// Transport failures, protocol violations, and authentication
    /// rejections.
    pub fn register(
        &mut self,
        gateway_id: u64,
        addr: &str,
        secret: Option<u64>,
    ) -> Result<(u64, Vec<GatewayEntry>), OrcoError> {
        let nonce = gateway_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x666C_6565;
        let mac = secret.map_or(0, |s| auth::register_mac(s, gateway_id, addr, nonce));
        let msg = Message::Register { gateway_id, addr: addr.to_string(), nonce, mac };
        match self.conn.request(&msg)? {
            Message::RegisterAck { epoch, members } => Ok((epoch, members)),
            other => Err(unexpected("RegisterAck", &other)),
        }
    }

    /// Sends one heartbeat for `gateway_id`, optionally piggybacking the
    /// gateway's stats snapshot into the directory's fleet view. `Ok`
    /// carries the current table; an eviction surfaces as an error
    /// telling the caller to re-register.
    ///
    /// # Errors
    ///
    /// Transport failures, protocol violations, and eviction.
    pub fn heartbeat(
        &mut self,
        gateway_id: u64,
        epoch: u64,
        stats: Option<StatsSnapshot>,
    ) -> Result<(u64, Vec<GatewayEntry>), OrcoError> {
        match self.conn.request(&Message::Heartbeat { gateway_id, epoch, stats })? {
            Message::HeartbeatAck { epoch, members } => Ok((epoch, members)),
            other => Err(unexpected("HeartbeatAck", &other)),
        }
    }

    /// Fetches the directory's aggregated fleet view: `(epoch,
    /// evictions, per-gateway stats)`, evicted gateways frozen with
    /// `alive = false`.
    ///
    /// # Errors
    ///
    /// Transport failures and protocol violations.
    pub(crate) fn fleet_stats(&mut self) -> Result<(u64, u64, Vec<GatewayStats>), OrcoError> {
        match self.conn.request(&Message::FleetStatsQuery)? {
            Message::FleetStatsReply { epoch, evictions, gateways } => {
                Ok((epoch, evictions, gateways))
            }
            other => Err(unexpected("FleetStatsReply", &other)),
        }
    }

    /// Asks the directory to stop admitting gateways and exit.
    ///
    /// # Errors
    ///
    /// Transport failures and protocol violations.
    pub(crate) fn shutdown(&mut self) -> Result<(), OrcoError> {
        match self.conn.request(&Message::Shutdown)? {
            Message::ShutdownAck => Ok(()),
            other => Err(unexpected("ShutdownAck", &other)),
        }
    }
}

fn unexpected(expected: &str, got: &Message) -> OrcoError {
    match got {
        Message::ErrorReply { code, detail } => OrcoError::Config {
            detail: format!("directory rejected the request ({code:?}): {detail}"),
        },
        other => OrcoError::Config {
            detail: format!("protocol violation: expected {expected}, got {}", other.kind()),
        },
    }
}

/// How many redirect/refresh rounds one push may burn before the client
/// declares the fleet unstable. Each round is either a redirect chase or
/// a directory refresh; a settled fleet resolves in one.
const MAX_CHASES: usize = 8;

/// A TCP data-plane client for a whole fleet: bootstraps the assignment
/// table from the directory, routes every push/pull to the owner it
/// computes locally, and on [`PushOutcome::Redirected`] refreshes or
/// chases to the named owner — a stale epoch costs one extra round trip,
/// never a misrouted frame.
#[derive(Debug)]
pub struct FleetClient {
    directory: DirectoryClient<TcpConnection>,
    client_id: u64,
    auth_secret: Option<u64>,
    view: FleetView,
    /// One data connection per gateway address, opened lazily.
    conns: BTreeMap<String, Client<TcpConnection>>,
    /// The geometry each greeted gateway announced.
    infos: BTreeMap<String, GatewayInfo>,
    /// Rows pushed per gateway address (the per-gateway throughput
    /// ledger `loadgen --fleet` reports).
    pushed_rows: BTreeMap<String, u64>,
    redirects_chased: u64,
}

impl FleetClient {
    /// Connects to the directory at `directory_addr` and bootstraps the
    /// assignment table. `auth_secret` MACs the `Hello` to each gateway.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Io`] when the directory is unreachable and
    /// [`OrcoError::Config`] when it answers with an empty fleet.
    pub fn connect(
        directory_addr: &str,
        client_id: u64,
        auth_secret: Option<u64>,
    ) -> Result<Self, OrcoError> {
        let mut directory = DirectoryClient::connect(&Tcp::new(directory_addr))?;
        let (epoch, members) = directory.query()?;
        if members.is_empty() {
            return Err(OrcoError::Config {
                detail: format!(
                    "directory at {directory_addr} has no registered gateways (epoch {epoch})"
                ),
            });
        }
        Ok(Self {
            directory,
            client_id,
            auth_secret,
            view: FleetView::new(None, epoch, members),
            conns: BTreeMap::new(),
            infos: BTreeMap::new(),
            pushed_rows: BTreeMap::new(),
            redirects_chased: 0,
        })
    }

    /// Redirects chased (or table refreshes forced) so far.
    #[must_use]
    pub fn redirects_chased(&self) -> u64 {
        self.redirects_chased
    }

    /// The cached membership table, ascending by gateway id.
    #[must_use]
    pub fn members(&self) -> &[GatewayEntry] {
        &self.view.members
    }

    /// Rows pushed per gateway address, ascending by address.
    #[must_use]
    pub fn pushed_rows_by_gateway(&self) -> Vec<(String, u64)> {
        self.pushed_rows.iter().map(|(a, &n)| (a.clone(), n)).collect()
    }

    /// The address of the gateway the cached table assigns `cluster_id`.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Config`] when the table is empty.
    pub fn owner_addr(&self, cluster_id: u64) -> Result<String, OrcoError> {
        match owner_of(&self.view.members, cluster_id) {
            Some(owner) => Ok(owner.addr.clone()),
            None => Err(OrcoError::Config {
                detail: format!("no owner for cluster {cluster_id}: the fleet is empty"),
            }),
        }
    }

    /// Re-fetches the assignment table from the directory.
    ///
    /// # Errors
    ///
    /// Transport failures and protocol violations.
    pub(crate) fn refresh(&mut self) -> Result<(), OrcoError> {
        let (epoch, members) = self.directory.query()?;
        self.view = FleetView::new(None, epoch, members);
        Ok(())
    }

    /// Pushes `frames` for `cluster_id` to its owner, chasing redirects:
    /// a `Redirect` at a newer epoch refreshes the table first, then the
    /// push retries against the named owner. Returns the terminal
    /// [`PushOutcome`] (`Accepted` or `Busy` — `Redirected` is consumed
    /// here) and the address that took the frames.
    ///
    /// # Errors
    ///
    /// Transport failures, gateway rejections, and fleets that keep
    /// redirecting past `MAX_CHASES` (8) rounds.
    pub fn push(
        &mut self,
        cluster_id: u64,
        frames: MatView<'_>,
    ) -> Result<(PushOutcome, String), OrcoError> {
        let mut addr = self.owner_addr(cluster_id)?;
        for _ in 0..MAX_CHASES {
            let outcome = self.data_client(&addr)?.push(cluster_id, frames)?;
            match outcome {
                PushOutcome::Redirected { epoch, addr: owner } => {
                    self.redirects_chased += 1;
                    if epoch > self.view.epoch {
                        self.refresh()?;
                    }
                    // Trust the redirecting gateway over a (possibly
                    // still-stale) directory answer: it named an owner.
                    addr = owner;
                }
                outcome @ (PushOutcome::Accepted(_) | PushOutcome::Busy { .. }) => {
                    if let PushOutcome::Accepted(n) = outcome {
                        *self.pushed_rows.entry(addr.clone()).or_insert(0) += u64::from(n);
                    }
                    return Ok((outcome, addr));
                }
            }
        }
        Err(OrcoError::Config {
            detail: format!(
                "cluster {cluster_id}: still redirected after {MAX_CHASES} rounds — the \
                 fleet is rebalancing faster than it settles"
            ),
        })
    }

    /// Pulls up to `max_frames` decoded rows for `cluster_id` from the
    /// gateway at `addr` (pulls are served where the rows are stored, so
    /// the caller names the gateway — typically the address
    /// [`FleetClient::push`] returned).
    ///
    /// # Errors
    ///
    /// Transport failures and gateway rejections.
    pub fn pull_from(
        &mut self,
        addr: &str,
        cluster_id: u64,
        max_frames: u32,
    ) -> Result<Matrix, OrcoError> {
        self.data_client(addr)?.pull(cluster_id, max_frames)
    }

    /// The geometry the gateway at `addr` announced in its `HelloAck`
    /// (dialing and greeting it first if needed).
    ///
    /// # Errors
    ///
    /// Transport failures, protocol violations, and authentication
    /// rejections.
    pub fn info_of(&mut self, addr: &str) -> Result<GatewayInfo, OrcoError> {
        self.data_client(addr)?;
        Ok(self.infos[addr])
    }

    /// Fetches the stats snapshot of the gateway at `addr`.
    ///
    /// # Errors
    ///
    /// Transport failures and protocol violations.
    pub fn stats_of(&mut self, addr: &str) -> Result<orco_serve::StatsSnapshot, OrcoError> {
        self.data_client(addr)?.stats()
    }

    /// Scrapes the metrics text exposition of the gateway at `addr`.
    ///
    /// # Errors
    ///
    /// Transport failures and protocol violations.
    pub fn metrics_of(&mut self, addr: &str) -> Result<String, OrcoError> {
        self.data_client(addr)?.metrics()
    }

    /// Fetches the directory's aggregated fleet view (see
    /// `DirectoryClient::fleet_stats`).
    ///
    /// # Errors
    ///
    /// Transport failures and protocol violations.
    pub fn fleet_stats(&mut self) -> Result<(u64, u64, Vec<GatewayStats>), OrcoError> {
        self.directory.fleet_stats()
    }

    /// Asks the gateway at `addr` to shut down.
    ///
    /// # Errors
    ///
    /// Transport failures and protocol violations.
    pub fn shutdown_gateway(&mut self, addr: &str) -> Result<(), OrcoError> {
        self.data_client(addr)?.shutdown()
    }

    /// Asks the directory to shut down.
    ///
    /// # Errors
    ///
    /// Transport failures and protocol violations.
    pub fn shutdown_directory(&mut self) -> Result<(), OrcoError> {
        self.directory.shutdown()
    }

    /// The cached (or freshly dialed and greeted) data connection to
    /// `addr`.
    fn data_client(&mut self, addr: &str) -> Result<&mut Client<TcpConnection>, OrcoError> {
        if !self.conns.contains_key(addr) {
            let mut client = Client::connect(&Tcp::new(addr))?;
            client.set_auth_secret(self.auth_secret);
            let info = client.hello(self.client_id)?;
            self.conns.insert(addr.to_string(), client);
            self.infos.insert(addr.to_string(), info);
        }
        Ok(self.conns.get_mut(addr).expect("just inserted"))
    }
}
