//! The server-side dispatch abstraction shared by every ORCO endpoint.
//!
//! PR 5's transports were hard-wired to [`Gateway`]; the fleet adds a
//! second server that speaks the same wire protocol — the directory —
//! and both must run behind the TCP acceptor, the loopback transport,
//! and the DES simulator. [`Service`] is the seam: one frame-in /
//! frame-out dispatch method plus the small lifecycle surface the
//! transports need (clock, shutdown flag, background workers, virtual
//! time advancement).
//!
//! The gateway's impl is the one way raw frames reach it: decode,
//! [`Gateway::handle`]'s dispatch with the connection's outbox, encode.
//! A push is decoded in place — its rows go from the frame's bytes into
//! the shard's batch, with no `Matrix` in between — through the same
//! parse `Message::decode` makes, so a malformed push draws the same
//! `ErrorReply` either way.
//! Its background work is one deadline timer, whatever its shard count,
//! and its time-advance hook is the deadline sweep — a flush delivers to
//! subscribers itself, so there is nothing else to run. For the gateway,
//! [`Service::is_shutting_down`] also means "a shard failed": a panic
//! under any of its locks raises the same flag (without the drain), so
//! the transports wind down a failed gateway as they do a shut-down one.

use std::sync::Arc;

use crate::clock::Clock;
use crate::gateway::Gateway;
use crate::outbox::Outbox;
use crate::protocol::{ErrorCode, Message, Request};

/// A wire-protocol endpoint the transports can host: the gateway, the
/// fleet directory, or anything else that maps request frames to reply
/// frames.
pub trait Service: Send + Sync {
    /// Handles one raw request frame and encodes the reply into `reply`
    /// (cleared first). Malformed frames must produce an encoded
    /// `ErrorReply`, never silence. `outbox` is the connection's
    /// server-push channel when the transport has one (TCP, loopback);
    /// services that stream register it on `Subscribe`.
    fn handle_frame(&self, frame: &[u8], reply: &mut Vec<u8>, outbox: Option<&Arc<Outbox>>);

    /// The clock this service schedules against.
    fn clock(&self) -> &Clock;

    /// Whether a `Shutdown` has been accepted, or the service has failed
    /// (the gateway: a thread panicked holding one of its locks).
    fn is_shutting_down(&self) -> bool;

    /// Hook run by virtual-time schedulers (the DES transport) after
    /// advancing the clock: deadline sweeps, heartbeat-timeout checks.
    fn on_time_advance(&self) {}

    /// Number of background worker threads the TCP server should spawn.
    fn worker_count(&self) -> usize {
        0
    }

    /// Body of background worker `idx` (must return once
    /// [`Service::is_shutting_down`] turns true).
    fn run_worker(&self, _idx: usize) {}
}

impl Service for Gateway {
    fn handle_frame(&self, frame: &[u8], reply: &mut Vec<u8>, outbox: Option<&Arc<Outbox>>) {
        let resp = match Request::decode(frame) {
            Ok(request) => self.dispatch(request, outbox),
            Err(e) => Message::ErrorReply { code: ErrorCode::BadRequest, detail: e.to_string() },
        };
        resp.encode_into(reply);
    }

    fn clock(&self) -> &Clock {
        Gateway::clock(self)
    }

    fn is_shutting_down(&self) -> bool {
        Gateway::is_shutting_down(self)
    }

    fn on_time_advance(&self) {
        self.sweep_deadlines();
    }

    /// One deadline timer, whatever the shard count.
    fn worker_count(&self) -> usize {
        1
    }

    fn run_worker(&self, _idx: usize) {
        self.run_deadline_timer();
    }
}
