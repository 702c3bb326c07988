//! Client-side transports: how request frames reach a gateway.
//!
//! [`Transport`] produces [`Connection`]s; a connection exchanges one
//! request frame for one reply frame, and (on transports with a
//! server-push channel) surfaces streamed frames via
//! [`Connection::poll_stream`]. Two implementations ship here:
//!
//! * [`Tcp`] — a real socket. Frames are written and read with the
//!   length-prefixed protocol of [`crate::protocol`], read through the
//!   connection's [`FrameReader`] — a small frame costs one `read`, a
//!   `poll_stream` that times out halfway through one picks it up again on
//!   the next call, and one that finds a whole frame already buffered
//!   hands it out without touching the socket; streamed
//!   [`Message::StreamFrames`] arriving while a reply is awaited are
//!   stashed and handed out by `poll_stream`.
//! * [`Loopback`] — in-process and deterministic, generic over any
//!   [`Service`] (gateway or fleet directory). Requests are still
//!   encoded to bytes and decoded on the server side, so the full wire
//!   path — header validation, payload decode, reply encode — runs
//!   under test, minus only the socket. With a [`crate::Clock::manual`]
//!   clock the whole exchange is bit-deterministic on one thread or
//!   many.
//!
//! Both connections use `?` across socket and codec boundaries — the
//! `OrcoError::Io` conversion exists precisely so this layer needs no
//! ad-hoc error mapping.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use orcodcs::OrcoError;

use crate::gateway::Gateway;
use crate::outbox::Outbox;
use crate::protocol::{FrameReader, Message};
use crate::service::Service;

/// A factory of request/reply [`Connection`]s.
pub trait Transport {
    /// The connection type this transport produces.
    type Conn: Connection;

    /// Opens a new connection to the gateway.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Io`] when the endpoint is unreachable.
    fn connect(&self) -> Result<Self::Conn, OrcoError>;
}

/// One request/reply channel to a gateway.
pub trait Connection {
    /// Sends the request frame `encode` writes and waits for the
    /// gateway's reply. `encode` writes one whole frame into the
    /// connection's buffer, clearing it first, as
    /// [`Message::encode_into`] does; a client's push writes its frame
    /// from the caller's rows this way, with no [`Message`] built.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Io`] on transport failure or a malformed
    /// reply.
    fn exchange(&mut self, encode: &mut dyn FnMut(&mut Vec<u8>)) -> Result<Message, OrcoError>;

    /// Sends `msg` and waits for the gateway's reply.
    ///
    /// # Errors
    ///
    /// As [`Connection::exchange`].
    fn request(&mut self, msg: &Message) -> Result<Message, OrcoError> {
        self.exchange(&mut |out| msg.encode_into(out))
    }

    /// Returns the next server-pushed frame (a streaming delivery for a
    /// subscribed cluster), waiting up to `timeout` for one to arrive.
    /// `Ok(None)` means nothing was streamed in time; transports without
    /// a server-push channel always return `Ok(None)`.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Io`] on transport failure or a malformed
    /// streamed frame.
    fn poll_stream(&mut self, _timeout: Duration) -> Result<Option<Message>, OrcoError> {
        Ok(None)
    }
}

/// In-process transport bound to a [`Service`] instance (a [`Gateway`]
/// by default; the fleet directory works the same way).
pub struct Loopback<S: Service + ?Sized = Gateway> {
    svc: Arc<S>,
}

impl<S: Service + ?Sized> Clone for Loopback<S> {
    fn clone(&self) -> Self {
        Self { svc: Arc::clone(&self.svc) }
    }
}

impl<S: Service + ?Sized> std::fmt::Debug for Loopback<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Loopback").finish_non_exhaustive()
    }
}

impl<S: Service + ?Sized> Loopback<S> {
    /// Binds a loopback transport to a service.
    #[must_use]
    pub fn new(svc: Arc<S>) -> Self {
        Self { svc }
    }
}

impl<S: Service + ?Sized> Transport for Loopback<S> {
    type Conn = LoopbackConnection<S>;

    fn connect(&self) -> Result<Self::Conn, OrcoError> {
        Ok(LoopbackConnection {
            svc: Arc::clone(&self.svc),
            outbox: Arc::new(Outbox::new()),
            frame: Vec::new(),
            reply: Vec::new(),
        })
    }
}

/// A [`Loopback`] connection; reuses its encode buffers across requests.
pub struct LoopbackConnection<S: Service + ?Sized = Gateway> {
    svc: Arc<S>,
    /// Server-push channel: streamed frames land here synchronously
    /// during dispatch and are drained by [`Connection::poll_stream`].
    outbox: Arc<Outbox>,
    frame: Vec<u8>,
    reply: Vec<u8>,
}

impl<S: Service + ?Sized> Connection for LoopbackConnection<S> {
    fn exchange(&mut self, encode: &mut dyn FnMut(&mut Vec<u8>)) -> Result<Message, OrcoError> {
        encode(&mut self.frame);
        self.svc.handle_frame(&self.frame, &mut self.reply, Some(&self.outbox));
        Ok(Message::decode(&self.reply)?)
    }

    fn poll_stream(&mut self, _timeout: Duration) -> Result<Option<Message>, OrcoError> {
        // In-process delivery is synchronous: anything streamed is
        // already queued, so the timeout never needs to block.
        match self.outbox.try_next() {
            Some(frame) => Ok(Some(Message::decode(&frame)?)),
            None => Ok(None),
        }
    }
}

/// TCP transport to a remote gateway.
#[derive(Debug, Clone)]
pub struct Tcp {
    addr: String,
}

impl Tcp {
    /// A transport dialing `addr` (e.g. `"127.0.0.1:7117"`).
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Self {
        Self { addr: addr.into() }
    }
}

impl Transport for Tcp {
    type Conn = TcpConnection;

    fn connect(&self) -> Result<Self::Conn, OrcoError> {
        let addr = self.addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing")
        })?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpConnection(Framed::new(stream)))
    }
}

/// A [`Tcp`] connection; one in-flight request at a time.
#[derive(Debug)]
pub struct TcpConnection(Framed<TcpStream>);

impl Connection for TcpConnection {
    fn exchange(&mut self, encode: &mut dyn FnMut(&mut Vec<u8>)) -> Result<Message, OrcoError> {
        self.0.exchange(encode)
    }

    fn poll_stream(&mut self, timeout: Duration) -> Result<Option<Message>, OrcoError> {
        self.0.poll_stream(timeout)
    }
}

/// A stream whose reads can be bounded in time, as a socket's can.
trait TimedRead: Read {
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()>;
}

impl TimedRead for TcpStream {
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }
}

/// [`TcpConnection`]'s socket and what the connection keeps of it across
/// calls.
#[derive(Debug)]
struct Framed<S> {
    stream: S,
    /// The read timeout last set on `stream`. A poll sets one only when it
    /// differs, and a request clears it only when one is set, so a
    /// steady-state poll makes no `setsockopt`.
    read_timeout: Option<Duration>,
    scratch: Vec<u8>,
    /// Holds what has arrived of the next frame, across calls: a
    /// `poll_stream` that times out mid-frame resumes where it stopped.
    reader: FrameReader,
    /// Streamed frames that arrived interleaved with a reply; drained by
    /// [`Connection::poll_stream`].
    streamed: VecDeque<Message>,
}

impl<S: TimedRead + Write> Framed<S> {
    fn new(stream: S) -> Self {
        Self {
            stream,
            read_timeout: None,
            scratch: Vec::new(),
            reader: FrameReader::new(),
            streamed: VecDeque::new(),
        }
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        if self.read_timeout != timeout {
            self.stream.set_read_timeout(timeout)?;
            self.read_timeout = timeout;
        }
        Ok(())
    }

    /// Writes the request `encode` makes, then reads until its reply,
    /// with no read timeout.
    fn exchange(&mut self, encode: &mut dyn FnMut(&mut Vec<u8>)) -> Result<Message, OrcoError> {
        self.set_read_timeout(None)?;
        encode(&mut self.scratch);
        self.stream.write_all(&self.scratch)?;
        loop {
            match self.reader.read_message(&mut self.stream)? {
                // The server may interleave streamed deliveries with the
                // reply on the same socket; stash them for poll_stream.
                Some(streamed @ Message::StreamFrames { .. }) => self.streamed.push_back(streamed),
                Some(reply) => return Ok(reply),
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "gateway closed the connection before replying",
                    )
                    .into())
                }
            }
        }
    }

    /// A frame stashed by a request, else one the reader already holds
    /// whole — neither touches the socket — else one read off it within
    /// `timeout`.
    fn poll_stream(&mut self, timeout: Duration) -> Result<Option<Message>, OrcoError> {
        if let Some(msg) = self.streamed.pop_front() {
            return Ok(Some(msg));
        }
        if let Some(msg) = self.reader.buffered_message()? {
            return Ok(Some(msg));
        }
        // A zero timeout would mean "block forever" to set_read_timeout;
        // clamp it to the shortest real wait instead.
        self.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        match self.reader.read_message(&mut self.stream) {
            Ok(msg) => Ok(msg),
            Err(OrcoError::Io(e))
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use orco_tensor::Matrix;

    /// Serves each of its reads once, fails the test if read past them,
    /// swallows what is written to it, and records every read timeout set
    /// on it.
    struct Once {
        reads: VecDeque<Vec<u8>>,
        timeouts: Vec<Option<Duration>>,
    }

    impl Once {
        fn new(reads: impl IntoIterator<Item = Vec<u8>>) -> Framed<Self> {
            Framed::new(Self { reads: reads.into_iter().collect(), timeouts: Vec::new() })
        }
    }

    impl Read for Once {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let bytes = self.reads.pop_front().expect("each read is served once");
            buf[..bytes.len()].copy_from_slice(&bytes);
            Ok(bytes.len())
        }
    }

    impl Write for Once {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl TimedRead for Once {
        fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
            self.timeouts.push(timeout);
            Ok(())
        }
    }

    fn delivery(version: u64) -> Message {
        Message::StreamFrames {
            cluster_id: 4,
            version,
            frames: Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32),
        }
    }

    #[test]
    fn a_streamed_frame_already_buffered_is_polled_without_touching_the_socket() {
        let mut conn = Once::new([[delivery(1).encode(), delivery(2).encode()].concat()]);
        // One read brings both frames; the second is handed out from the
        // buffer, and `Once` panics if the socket is read for it.
        assert_eq!(conn.poll_stream(Duration::ZERO).unwrap(), Some(delivery(1)));
        assert_eq!(conn.poll_stream(Duration::ZERO).unwrap(), Some(delivery(2)));
        assert_eq!(
            conn.stream.timeouts,
            [Some(Duration::from_millis(1))],
            "only one read is timed"
        );
    }

    #[test]
    fn a_read_timeout_is_set_only_when_it_changes() {
        let ack = Message::PushAck { accepted: 1 };
        let reads = [delivery(1).encode(), delivery(2).encode(), ack.encode(), ack.encode()];
        let mut conn = Once::new(reads);
        let wait = Duration::from_millis(5);
        assert_eq!(conn.poll_stream(wait).unwrap(), Some(delivery(1)));
        assert_eq!(conn.poll_stream(wait).unwrap(), Some(delivery(2)));
        assert_eq!(conn.stream.timeouts, [Some(wait)], "two polls, one timeout set");
        let reply = conn.exchange(&mut |buf| *buf = Message::StatsRequest.encode());
        assert_eq!(reply.unwrap(), ack);
        assert_eq!(conn.stream.timeouts, [Some(wait), None], "the request clears it, once");
        let again = conn.exchange(&mut |buf| *buf = Message::StatsRequest.encode());
        assert_eq!(again.unwrap(), ack);
        assert_eq!(conn.stream.timeouts, [Some(wait), None], "a cleared timeout stays cleared");
    }
}
