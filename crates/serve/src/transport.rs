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
        Ok(TcpConnection {
            stream,
            scratch: Vec::new(),
            reader: FrameReader::new(),
            streamed: VecDeque::new(),
        })
    }
}

/// A [`Tcp`] connection; one in-flight request at a time.
#[derive(Debug)]
pub struct TcpConnection {
    stream: TcpStream,
    scratch: Vec<u8>,
    /// Holds what has arrived of the next frame, across calls: a
    /// `poll_stream` that times out mid-frame resumes where it stopped.
    reader: FrameReader,
    /// Streamed frames that arrived interleaved with a reply; drained by
    /// [`Connection::poll_stream`].
    streamed: VecDeque<Message>,
}

impl Connection for TcpConnection {
    fn exchange(&mut self, encode: &mut dyn FnMut(&mut Vec<u8>)) -> Result<Message, OrcoError> {
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

    fn poll_stream(&mut self, timeout: Duration) -> Result<Option<Message>, OrcoError> {
        poll_stream(&mut self.streamed, &mut self.reader, &mut self.stream, timeout)
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

/// [`TcpConnection`]'s `poll_stream`: a frame stashed by a request, else
/// one the reader already holds whole — neither touches the socket — else
/// one read off it within `timeout`.
fn poll_stream(
    streamed: &mut VecDeque<Message>,
    reader: &mut FrameReader,
    stream: &mut impl TimedRead,
    timeout: Duration,
) -> Result<Option<Message>, OrcoError> {
    if let Some(msg) = streamed.pop_front() {
        return Ok(Some(msg));
    }
    if let Some(msg) = reader.buffered_message()? {
        return Ok(Some(msg));
    }
    // A zero timeout would mean "block forever" to set_read_timeout;
    // clamp it to the shortest real wait instead.
    stream.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
    let read = reader.read_message(stream);
    stream.set_read_timeout(None)?;
    match read {
        Ok(msg) => Ok(msg),
        Err(OrcoError::Io(e))
            if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
        {
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use orco_tensor::Matrix;

    /// Serves its bytes on the first read, and fails the test if it is
    /// touched again — read or timed.
    struct Once(Option<Vec<u8>>);

    impl Read for Once {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let bytes = self.0.take().expect("the stream is read once");
            buf[..bytes.len()].copy_from_slice(&bytes);
            Ok(bytes.len())
        }
    }

    impl TimedRead for Once {
        fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
            assert!(timeout.is_none() || self.0.is_some(), "only the one read is timed");
            Ok(())
        }
    }

    #[test]
    fn a_streamed_frame_already_buffered_is_polled_without_touching_the_socket() {
        let delivery = |version| Message::StreamFrames {
            cluster_id: 4,
            version,
            frames: Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32),
        };
        let stream = [delivery(1).encode(), delivery(2).encode()].concat();
        let mut stream = Once(Some(stream));
        let (mut streamed, mut reader) = (VecDeque::new(), FrameReader::new());
        let mut poll = || poll_stream(&mut streamed, &mut reader, &mut stream, Duration::ZERO);
        // One read brings both frames; the second is handed out from the
        // buffer, and `Once` panics if the socket is read or timed for it.
        assert_eq!(poll().unwrap(), Some(delivery(1)));
        assert_eq!(poll().unwrap(), Some(delivery(2)));
    }
}
