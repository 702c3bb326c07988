//! The TCP face of an ORCO [`Service`]: acceptor, per-connection
//! reader/writer threads, and the service's background workers — all on
//! `std::net` / `std::thread` (the build image has no async runtime, and
//! none is needed: the protocol is request/reply plus server-push, and
//! the work is CPU-bound).
//!
//! Thread model:
//!
//! * one **acceptor** blocks in `accept`; every connection gets its own
//!   **reader** thread, which reads frames through the connection's
//!   [`FrameReader`] until EOF or `Shutdown`, handles each, and **writes
//!   the reply to the socket itself** whenever the reply is next in
//!   outbox order — nothing queued, nobody mid-write — which
//!   [`Outbox::try_claim`] decides. A request/reply exchange then wakes
//!   two threads, the server's reader and the client, and no third. The
//!   reader does the codec work its requests cause: it encodes the batch
//!   its push fills under that shard's flush lock, and decodes what its
//!   pull takes with no lock held, in a workspace from the shard's pool,
//!   while a push that only enqueues takes the shard's core lock alone —
//!   so readers on one shard push past each other's encodes, and pull
//!   beside them, instead of queueing behind them;
//! * every connection also gets a **writer** thread, asleep on the
//!   connection's [`Outbox`] until something is queued there: a streamed
//!   delivery (pushed by whichever thread flushed the shard), or a reply
//!   the reader could not claim the socket for — a `Subscribe`'s ack
//!   behind its backlog, a reply that met a delivery in flight. It takes
//!   each frame together with the write claim, so the two threads' bytes
//!   never interleave and reach the socket in outbox order, with no lock
//!   held across a write;
//! * the service's **background workers** (the gateway's one deadline
//!   timer, whatever its shard count; the directory's heartbeat sweeper)
//!   run on their own threads via [`Service::run_worker`] — a gateway
//!   is acceptor + 1 timer + 2 threads a connection. The timer sleeps
//!   until a shard's batch falls due — the configured deadline after it
//!   was armed, or one flush-cost after a subscriber began waiting on it
//!   — and is woken by the push or `Subscribe` that moves a due-time; it
//!   is the thread that flushes, and so delivers, at low load;
//! * `Shutdown` sets the service flag; the handling connection drains its
//!   outbox, writes the ack to the socket itself, then pokes the acceptor
//!   awake with a throwaway connect so `accept` returns and the loop
//!   observes the flag (the standard `std::net` unblock idiom);
//! * a gateway that fails — a panic under one of its locks, on a reader
//!   or on the timer — raises the same flag: the timer exits, pushes draw
//!   `ShuttingDown` on the connections still open, and the acceptor exits
//!   at its next connection (nothing pokes it: no `Shutdown` was sent).
//!   A reader that panics closes its connection's outbox as it unwinds,
//!   so the writer exits too and that peer reads EOF.

use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;

use orcodcs::OrcoError;

use crate::gateway::Gateway;
use crate::outbox::Outbox;
use crate::protocol::{ErrorCode, FrameRead, FrameReader, Message};
use crate::service::Service;

/// A running TCP server around an `Arc` of any [`Service`].
#[derive(Debug)]
pub struct TcpServer {
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `bind` (use port 0 for an ephemeral port) and spawns the
    /// acceptor and the gateway's deadline timer. Equivalent to
    /// [`TcpServer::spawn_service`] with a [`Gateway`].
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Io`] when binding or spawning fails.
    ///
    /// # Panics
    ///
    /// Panics if the gateway was built with a [`crate::Clock::manual`]
    /// clock — the deadline timer sleeps in real time, so the TCP server
    /// requires [`crate::Clock::real`].
    pub fn spawn(gateway: Arc<Gateway>, bind: impl ToSocketAddrs) -> Result<Self, OrcoError> {
        Self::spawn_service(gateway, bind)
    }

    /// Binds `bind` and serves `svc` over TCP: one acceptor, one
    /// reader + writer thread pair per connection, and
    /// [`Service::worker_count`] background worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Io`] when binding or spawning fails.
    ///
    /// # Panics
    ///
    /// Panics if the service runs a [`crate::Clock::manual`] clock —
    /// background workers sleep in real time, so the TCP server requires
    /// [`crate::Clock::real`].
    pub fn spawn_service<S: Service + ?Sized + 'static>(
        svc: Arc<S>,
        bind: impl ToSocketAddrs,
    ) -> Result<Self, OrcoError> {
        assert!(
            svc.clock().is_real(),
            "TcpServer requires Clock::real(); Clock::manual() is for the loopback transport"
        );
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let workers = (0..svc.worker_count())
            .map(|i| {
                let s = Arc::clone(&svc);
                std::thread::Builder::new()
                    .name(format!("orco-serve-worker-{i}"))
                    .spawn(move || s.run_worker(i))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let acceptor = {
            let s = Arc::clone(&svc);
            std::thread::Builder::new()
                .name("orco-serve-accept".into())
                .spawn(move || accept_loop(&listener, &s, addr))?
        };
        Ok(Self { addr, acceptor: Some(acceptor), workers })
    }

    /// The address the server is listening on.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the service shuts down (a client sent `Shutdown`),
    /// then joins the acceptor and worker threads.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn accept_loop<S: Service + ?Sized + 'static>(
    listener: &TcpListener,
    svc: &Arc<S>,
    addr: SocketAddr,
) {
    for conn in listener.incoming() {
        if svc.is_shutting_down() {
            break;
        }
        let Ok(stream) = conn else {
            // Transient (EINTR) or resource (EMFILE) failure: back off
            // briefly instead of hot-spinning the acceptor at 100% CPU
            // while connection threads hold the fds we are waiting for.
            std::thread::sleep(std::time::Duration::from_millis(10));
            continue;
        };
        let s = Arc::clone(svc);
        let _ = std::thread::Builder::new().name("orco-serve-conn".into()).spawn(move || {
            if let Err(e) = serve_connection(stream, &s, addr) {
                eprintln!("orco-serve: connection ended with error: {e}");
            }
        });
    }
}

/// Writes what is queued in a connection's outbox to its socket until
/// the outbox closes and is empty, asleep in between: streamed deliveries,
/// and the replies the reader could not write itself. Each frame comes
/// with the write claim, so the reader's inline replies and these writes
/// take turns on the socket.
fn writer_loop(mut stream: TcpStream, outbox: &Outbox) {
    while let Some((frame, _claim)) = outbox.claim_next() {
        if stream.write_all(&frame).is_err() {
            // Peer is gone; stop draining. The reader side will
            // observe EOF and close the outbox.
            return;
        }
    }
}

/// How a connection's read loop ended.
struct ReadEnd {
    /// The reply that closes the conversation (a `ShutdownAck`, or the
    /// `ErrorReply` to a malformed frame); `None` after a clean EOF.
    last_reply: Option<Vec<u8>>,
    /// The last frame was a `Shutdown` request.
    shutdown: bool,
}

/// Reads frames off one connection until EOF or `Shutdown`, replying to
/// each through the same [`Service::handle_frame`] path the loopback
/// transport uses — a malformed frame draws an `ErrorReply` before the
/// connection closes, exactly as in-process callers see it. A reply is
/// written from this thread when the outbox grants it the socket's write
/// side and queued for the writer otherwise, so it never lands inside, or
/// ahead of, a streamed frame queued before it.
///
/// The reply that ends the connection is not queued but written to the
/// socket here, after the outbox has closed and the writer has drained
/// it: `Shutdown` ends every subscription by closing the subscriber's
/// outbox, the requester's own included, and a frame pushed to a closed
/// outbox is dropped — the peer would read EOF instead of its ack.
fn serve_connection<S: Service + ?Sized>(
    mut stream: TcpStream,
    svc: &Arc<S>,
    addr: SocketAddr,
) -> Result<(), OrcoError> {
    stream.set_nodelay(true)?;
    let outbox = Arc::new(Outbox::new());
    let writer = {
        let stream = stream.try_clone()?;
        let outbox = Arc::clone(&outbox);
        std::thread::Builder::new()
            .name("orco-serve-write".into())
            .spawn(move || writer_loop(stream, &outbox))?
    };
    let end = {
        let _on_unwind = CloseOnUnwind(&outbox);
        read_loop(&mut stream, svc, &outbox)
    };
    outbox.close();
    let _ = writer.join();
    let end = end?;
    if let Some(reply) = end.last_reply {
        // As in `writer_loop`: a failed write means the peer is gone.
        let _ = stream.write_all(&reply);
    }
    if end.shutdown {
        // Poke the acceptor out of `accept` so it observes the shutdown
        // flag — after the ack is on the socket, so a process that exits
        // once `TcpServer::join` returns cannot cut the ack off.
        drop(TcpStream::connect(poke_addr(addr)));
    }
    Ok(())
}

/// Closes a connection's outbox if dropped by a panic on its reader: the
/// writer then wakes from [`Outbox::claim_next`] and drops its clone of
/// the socket, so the peer reads EOF instead of waiting on a socket
/// nobody will write to or close.
struct CloseOnUnwind<'a>(&'a Outbox);

impl Drop for CloseOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
        }
    }
}

fn read_loop<S: Service + ?Sized>(
    stream: &mut TcpStream,
    svc: &Arc<S>,
    outbox: &Arc<Outbox>,
) -> Result<ReadEnd, OrcoError> {
    let mut reader = FrameReader::new();
    let mut reply = Vec::new();
    // Header bytes 6..8 carry a frame's type id; `Shutdown`'s comes from
    // the message table.
    let shutdown_id = Message::Shutdown.wire_type().0.to_le_bytes();
    loop {
        match reader.next_frame(stream)? {
            FrameRead::Eof => return Ok(ReadEnd { last_reply: None, shutdown: false }),
            FrameRead::Malformed(e) => {
                // Framing is lost: answer with the typed rejection, then
                // close — the wire never goes silent.
                Message::ErrorReply { code: ErrorCode::BadRequest, detail: e.to_string() }
                    .encode_into(&mut reply);
                return Ok(ReadEnd { last_reply: Some(reply), shutdown: false });
            }
            FrameRead::Frame(frame) => {
                svc.handle_frame(frame, &mut reply, Some(outbox));
                if frame[6..8] == shutdown_id {
                    return Ok(ReadEnd { last_reply: Some(reply), shutdown: true });
                }
                // Dispatch may have queued frames that go first (a
                // `Subscribe`'s backlog), and the writer may be mid-frame:
                // the claim is granted exactly when neither is so, and
                // `reply` is then written from here and kept for the next
                // request.
                match outbox.try_claim() {
                    Some(_claim) => {
                        if stream.write_all(&reply).is_err() {
                            // As in `writer_loop`: the peer is gone.
                            return Ok(ReadEnd { last_reply: None, shutdown: false });
                        }
                    }
                    None => outbox.push_frame(std::mem::take(&mut reply)),
                }
            }
        }
    }
}

/// Where the shutdown poke dials: a listener bound to an unspecified
/// address (`0.0.0.0` / `::`) is not connectable on every platform, so
/// the poke goes to loopback on the same port instead.
fn poke_addr(addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        let ip = if addr.is_ipv4() {
            IpAddr::V4(Ipv4Addr::LOCALHOST)
        } else {
            IpAddr::V6(Ipv6Addr::LOCALHOST)
        };
        SocketAddr::new(ip, addr.port())
    } else {
        addr
    }
}
