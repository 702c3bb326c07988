//! The fleet directory: the one authority on *which gateway owns which
//! cluster*, expressed as an epoch'd membership list.
//!
//! The directory does not compute assignments — rendezvous hashing
//! ([`orco_serve::fleet_view`]) lets every gateway and client derive the
//! owner of any cluster locally from `(epoch, members)`. The directory's
//! job is smaller and sharper: admit gateways ([`Message::Register`],
//! MAC-gated when a secret is configured), watch their heartbeats, evict
//! the silent ([`Directory::sweep`]), and bump the **epoch** on every
//! membership change so stale views are detectable. Gateways embed the
//! epoch in redirects; a client holding epoch `e` that draws a redirect
//! stamped `e' > e` knows to refresh before retrying.
//!
//! The directory is a [`Service`]: it runs behind the same three
//! transports as the gateway (loopback, TCP, DES), speaking the same
//! wire protocol.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use orco_serve::protocol::{ErrorCode, GatewayStats, Message};
use orco_serve::stats::StatsSnapshot;
use orco_serve::{auth, Clock, GatewayEntry, Outbox, Service};
use orcodcs::OrcoError;

/// Tunables of a [`Directory`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirectoryConfig {
    /// Shared secret gating [`Message::Register`]; `None` admits anyone.
    pub auth_secret: Option<u64>,
    /// A gateway silent for longer than this is declared dead on the
    /// next sweep (choose several heartbeat intervals).
    pub heartbeat_timeout: Duration,
    /// How often the TCP background worker sweeps; virtual-time hosts
    /// sweep on every event instead ([`Service::on_time_advance`]).
    pub sweep_interval: Duration,
}

impl Default for DirectoryConfig {
    fn default() -> Self {
        Self {
            auth_secret: None,
            heartbeat_timeout: Duration::from_millis(500),
            sweep_interval: Duration::from_millis(100),
        }
    }
}

#[derive(Debug)]
struct Member {
    addr: String,
    /// Clock time of the last register/heartbeat, seconds.
    last_beat_s: f64,
}

/// One gateway's stats as the directory last saw them. Survives
/// eviction (frozen, `alive = false`) so a fleet scrape still accounts
/// for a dead gateway's delivered rows.
#[derive(Debug)]
struct StatsEntry {
    alive: bool,
    snapshot: StatsSnapshot,
}

#[derive(Debug)]
struct DirState {
    epoch: u64,
    members: BTreeMap<u64, Member>,
    /// Latest heartbeat-piggybacked stats per gateway ever seen.
    stats: BTreeMap<u64, StatsEntry>,
    /// Gateways evicted by sweeps over the directory's lifetime.
    evictions: u64,
}

/// The directory service: epoch'd gateway membership over the ORCO wire
/// protocol.
#[derive(Debug)]
pub struct Directory {
    cfg: DirectoryConfig,
    clock: Clock,
    state: Mutex<DirState>,
    shutting_down: AtomicBool,
}

impl Directory {
    /// A directory with no members yet, at epoch 0.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Config`] on a non-positive heartbeat timeout.
    pub fn new(cfg: DirectoryConfig, clock: Clock) -> Result<Self, OrcoError> {
        if cfg.heartbeat_timeout.is_zero() {
            return Err(OrcoError::Config {
                detail: "DirectoryConfig: heartbeat_timeout must be positive".into(),
            });
        }
        Ok(Self {
            cfg,
            clock,
            state: Mutex::new(DirState {
                epoch: 0,
                members: BTreeMap::new(),
                stats: BTreeMap::new(),
                evictions: 0,
            }),
            shutting_down: AtomicBool::new(false),
        })
    }

    /// Current assignment epoch.
    #[must_use]
    pub(crate) fn epoch(&self) -> u64 {
        self.state.lock().expect("directory lock").epoch
    }

    /// Whether a `Shutdown` has been accepted.
    #[must_use]
    pub(crate) fn is_shutting_down(&self) -> bool {
        // Acquire: pairs with the Release store on Shutdown, so a
        // server loop that sees the flag also sees the ShutdownAck
        // already written to its outbox.
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Evicts every member whose last heartbeat is older than the
    /// configured timeout; one epoch bump covers the whole eviction
    /// (simultaneous deaths do not stutter the epoch). Returns the ids
    /// evicted.
    pub(crate) fn sweep(&self) -> Vec<u64> {
        let now_s = self.clock.now_s();
        let timeout_s = self.cfg.heartbeat_timeout.as_secs_f64();
        let mut s = self.state.lock().expect("directory lock");
        let dead: Vec<u64> = s
            .members
            .iter()
            .filter(|(_, m)| now_s - m.last_beat_s > timeout_s)
            .map(|(&id, _)| id)
            .collect();
        if !dead.is_empty() {
            for id in &dead {
                s.members.remove(id);
                // Freeze, don't forget: the dead gateway's last snapshot
                // keeps counting in the fleet rollup.
                if let Some(entry) = s.stats.get_mut(id) {
                    entry.alive = false;
                }
            }
            s.evictions += dead.len() as u64;
            s.epoch += 1;
        }
        dead
    }

    /// The aggregated fleet view: `(epoch, evictions, per-gateway
    /// stats)`, gateways ascending by id. Evicted gateways appear with
    /// `alive = false` and their last-seen snapshot frozen.
    #[must_use]
    pub(crate) fn fleet_stats(&self) -> (u64, u64, Vec<GatewayStats>) {
        let s = self.state.lock().expect("directory lock");
        let gateways = s
            .stats
            .iter()
            .map(|(&id, e)| GatewayStats { id, alive: e.alive, snapshot: e.snapshot.clone() })
            .collect();
        (s.epoch, s.evictions, gateways)
    }

    /// Handles one request; the typed core of [`Service::handle_frame`].
    pub(crate) fn handle(&self, msg: Message) -> Message {
        match msg {
            Message::DirectoryQuery => {
                let s = self.state.lock().expect("directory lock");
                Message::DirectoryReply { epoch: s.epoch, members: members_of(&s) }
            }
            Message::Register { gateway_id, addr, nonce, mac } => {
                if let Some(secret) = self.cfg.auth_secret {
                    if auth::register_mac(secret, gateway_id, &addr, nonce) != mac {
                        return Message::ErrorReply {
                            code: ErrorCode::Unauthorized,
                            detail: "Register MAC does not verify against the shared secret".into(),
                        };
                    }
                }
                if self.is_shutting_down() {
                    return Message::ErrorReply {
                        code: ErrorCode::ShuttingDown,
                        detail: "directory is shutting down; not admitting gateways".into(),
                    };
                }
                let now_s = self.clock.now_s();
                let mut s = self.state.lock().expect("directory lock");
                // Idempotent re-register (same id, same addr) refreshes
                // the heartbeat without disturbing the epoch; a new
                // member or a moved address is a real membership change.
                let changed = s.members.get(&gateway_id).is_none_or(|m| m.addr != addr);
                s.members.insert(gateway_id, Member { addr, last_beat_s: now_s });
                if changed {
                    s.epoch += 1;
                }
                Message::RegisterAck { epoch: s.epoch, members: members_of(&s) }
            }
            Message::Heartbeat { gateway_id, epoch: _, stats } => {
                let now_s = self.clock.now_s();
                let mut s = self.state.lock().expect("directory lock");
                match s.members.get_mut(&gateway_id) {
                    Some(m) => {
                        m.last_beat_s = now_s;
                        if let Some(snapshot) = stats {
                            s.stats.insert(gateway_id, StatsEntry { alive: true, snapshot });
                        }
                        Message::HeartbeatAck { epoch: s.epoch, members: members_of(&s) }
                    }
                    // Evicted (or never admitted): the ack would imply
                    // membership. Tell it to re-register instead.
                    None => Message::ErrorReply {
                        code: ErrorCode::BadRequest,
                        detail: format!(
                            "heartbeat from gateway {gateway_id}, which is not a member \
                             (evicted after missed heartbeats?); re-register"
                        ),
                    },
                }
            }
            Message::FleetStatsQuery => {
                let (epoch, evictions, gateways) = self.fleet_stats();
                Message::FleetStatsReply { epoch, evictions, gateways }
            }
            Message::Shutdown => {
                // Release: publishes everything done under the state
                // lock before the flag; pairs with the Acquire load in
                // is_shutting_down.
                self.shutting_down.store(true, Ordering::Release);
                Message::ShutdownAck
            }
            other => Message::ErrorReply {
                code: ErrorCode::BadRequest,
                detail: format!(
                    "the directory serves membership, not the data plane ({} is not a \
                     directory request)",
                    other.kind()
                ),
            },
        }
    }
}

fn members_of(s: &DirState) -> Vec<GatewayEntry> {
    s.members.iter().map(|(&id, m)| GatewayEntry { id, addr: m.addr.clone() }).collect()
}

impl Service for Directory {
    fn handle_frame(&self, frame: &[u8], reply: &mut Vec<u8>, _outbox: Option<&Arc<Outbox>>) {
        let msg = match Message::decode(frame) {
            Ok(msg) => msg,
            Err(e) => {
                let err = Message::ErrorReply {
                    code: ErrorCode::BadRequest,
                    detail: format!("malformed frame: {e}"),
                };
                err.encode_into(reply);
                return;
            }
        };
        self.handle(msg).encode_into(reply);
    }

    fn clock(&self) -> &Clock {
        &self.clock
    }

    fn is_shutting_down(&self) -> bool {
        Directory::is_shutting_down(self)
    }

    fn on_time_advance(&self) {
        self.sweep();
    }

    fn worker_count(&self) -> usize {
        1
    }

    /// The heartbeat sweeper: on a real clock, evictions must not wait
    /// for the next request to arrive.
    fn run_worker(&self, _idx: usize) {
        while !self.is_shutting_down() {
            std::thread::sleep(self.cfg.sweep_interval);
            self.sweep();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(timeout_ms: u64) -> Directory {
        Directory::new(
            DirectoryConfig {
                heartbeat_timeout: Duration::from_millis(timeout_ms),
                ..DirectoryConfig::default()
            },
            Clock::manual(Duration::ZERO),
        )
        .expect("valid config")
    }

    fn register(d: &Directory, id: u64, addr: &str) -> Message {
        d.handle(Message::Register { gateway_id: id, addr: addr.into(), nonce: 0, mac: 0 })
    }

    #[test]
    fn register_bumps_epoch_and_reregister_does_not() {
        let d = dir(100);
        assert!(matches!(register(&d, 1, "gw:1"), Message::RegisterAck { epoch: 1, .. }));
        assert!(matches!(register(&d, 2, "gw:2"), Message::RegisterAck { epoch: 2, .. }));
        // Same id, same addr: heartbeat-equivalent, no epoch bump.
        assert!(matches!(register(&d, 2, "gw:2"), Message::RegisterAck { epoch: 2, .. }));
        // Same id, moved addr: membership change.
        assert!(matches!(register(&d, 2, "gw:9"), Message::RegisterAck { epoch: 3, .. }));
        let Message::DirectoryReply { epoch, members } = d.handle(Message::DirectoryQuery) else {
            panic!("a query is answered with the membership");
        };
        assert_eq!(epoch, 3);
        assert_eq!(members.len(), 2);
        assert_eq!(members[1].addr, "gw:9");
    }

    #[test]
    fn missed_heartbeats_evict_with_one_epoch_bump() {
        let d = dir(50);
        register(&d, 1, "gw:1");
        register(&d, 2, "gw:2");
        register(&d, 3, "gw:3");
        assert_eq!(d.epoch(), 3);
        d.clock().advance(Duration::from_millis(40));
        // Only gateway 3 beats inside the window.
        assert!(matches!(
            d.handle(Message::Heartbeat { gateway_id: 3, epoch: 3, stats: None }),
            Message::HeartbeatAck { epoch: 3, .. }
        ));
        d.clock().advance(Duration::from_millis(20)); // 1 and 2 are now 60ms silent
        let mut dead = d.sweep();
        dead.sort_unstable();
        assert_eq!(dead, vec![1, 2]);
        assert_eq!(d.epoch(), 4, "simultaneous deaths cost one epoch, not two");
        // The evicted gateway's next heartbeat is refused.
        assert!(matches!(
            d.handle(Message::Heartbeat { gateway_id: 1, epoch: 4, stats: None }),
            Message::ErrorReply { code: ErrorCode::BadRequest, .. }
        ));
        // And its re-register re-admits it at a fresh epoch.
        assert!(matches!(register(&d, 1, "gw:1"), Message::RegisterAck { epoch: 5, .. }));
    }

    #[test]
    fn register_requires_mac_when_keyed() {
        let d = Directory::new(
            DirectoryConfig { auth_secret: Some(0xfeed), ..DirectoryConfig::default() },
            Clock::manual(Duration::ZERO),
        )
        .expect("valid config");
        assert!(matches!(
            register(&d, 1, "gw:1"),
            Message::ErrorReply { code: ErrorCode::Unauthorized, .. }
        ));
        let mac = auth::register_mac(0xfeed, 1, "gw:1", 77);
        assert!(matches!(
            d.handle(Message::Register { gateway_id: 1, addr: "gw:1".into(), nonce: 77, mac }),
            Message::RegisterAck { epoch: 1, .. }
        ));
    }

    #[test]
    fn data_plane_requests_are_refused() {
        let d = dir(100);
        assert!(matches!(
            d.handle(Message::PullDecoded { cluster_id: 1, max_frames: 4, trace: 0 }),
            Message::ErrorReply { code: ErrorCode::BadRequest, .. }
        ));
    }

    #[test]
    fn fleet_stats_freeze_on_eviction() {
        let d = dir(50);
        register(&d, 1, "gw:1");
        register(&d, 2, "gw:2");
        let snap = StatsSnapshot { frames_out: 7, ..StatsSnapshot::default() };
        assert!(matches!(
            d.handle(Message::Heartbeat { gateway_id: 1, epoch: 2, stats: Some(snap) }),
            Message::HeartbeatAck { .. }
        ));
        // A heartbeat without stats refreshes liveness but keeps the
        // last snapshot.
        assert!(matches!(
            d.handle(Message::Heartbeat { gateway_id: 1, epoch: 2, stats: None }),
            Message::HeartbeatAck { .. }
        ));
        let (_, evictions, gateways) = d.fleet_stats();
        assert_eq!(evictions, 0);
        assert_eq!(gateways.len(), 1, "gateway 2 never reported stats");
        assert!(gateways[0].alive);
        assert_eq!(gateways[0].snapshot.frames_out, 7);
        // Silence both past the timeout: gateway 1's entry freezes.
        d.clock().advance(Duration::from_millis(60));
        d.sweep();
        let (_, evictions, gateways) = d.fleet_stats();
        assert_eq!(evictions, 2);
        assert_eq!(gateways.len(), 1);
        assert!(!gateways[0].alive, "evicted gateway's stats freeze, not vanish");
        assert_eq!(gateways[0].snapshot.frames_out, 7);
        // The wire view matches the in-process accessor.
        match d.handle(Message::FleetStatsQuery) {
            Message::FleetStatsReply { evictions, gateways, .. } => {
                assert_eq!(evictions, 2);
                assert_eq!(gateways.len(), 1);
                assert!(!gateways[0].alive);
            }
            other => panic!("expected FleetStatsReply, got {}", other.kind()),
        }
    }
}
