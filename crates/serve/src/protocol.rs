//! The gateway's length-prefixed binary wire protocol.
//!
//! Every message on the wire is one *frame*: a fixed 12-byte header
//! followed by a payload. All integers and floats are **fixed
//! little-endian** — no varints, no alignment padding — so encoding is a
//! straight memcpy and a frame's length is known after reading 12 bytes:
//!
//! ```text
//! offset  size  field
//! 0       4     magic          "ORCO" as a little-endian u32
//! 4       2     version        PROTOCOL_VERSION
//! 6       2     message type   Message discriminant
//! 8       4     payload length bytes after the header
//! 12      n     payload        message-specific fields
//! ```
//!
//! Matrices travel as `rows: u32, cols: u32` followed by `rows × cols`
//! f32 values in row-major order; the bytes are the exact bit patterns of
//! the floats, so a round trip through the wire is **bit-identical**
//! (property-tested in `tests/protocol_roundtrip.rs`, NaNs included,
//! against a per-element reference encoder).
//!
//! # The matrix codec at memory speed
//!
//! A matrix has one encoder, from a [`MatView`](orco_tensor::MatView),
//! and one decoder, to a borrowed `WireRows` (shape + the frame's
//! bytes). The encoder sizes the frame's tail once and converts each row
//! over fixed 4-byte chunks of it, which LLVM vectorises; the decoder
//! reads 4-byte chunks back.
//! `PushFrames` is encoded and decoded through `Push`, a view of its
//! fields that borrows the rows, so a push moves between client and
//! shard with no `Matrix` made on either side:
//!
//! * a client writes the frame from the caller's `MatView`
//!   ([`crate::Connection::exchange`] takes the encoder);
//! * the gateway parses it in place (`Request::decode`) and the shard
//!   appends the rows to its pending batch straight from the bytes.
//!
//! [`Message::decode`] goes through the same `Push` parse and then copies
//! the rows into a `Matrix`, so a malformed push draws the same
//! [`WireError`] — and the same `ErrorReply` — on either path.
//!
//! Decoding is total: any byte sequence either parses into a [`Message`]
//! or yields a typed [`WireError`] (truncated, bad magic, unknown type,
//! length mismatch, …) — the gateway never panics on attacker-controlled
//! input and replies with [`Message::ErrorReply`] instead.
//!
//! # One schema
//!
//! Each field type has one codec (the crate-private `Wire` trait: a
//! worst-case size, an encoder, a decoder), and each message is one row
//! of the message table — wire id, variant, fields in wire order. Both
//! live in the `wire` submodule (`protocol/wire.rs`), with every other
//! reader of frame bytes, under lints that reject any construct that can
//! panic. The table generates the [`Message`] enum, [`Message::TYPES`], the
//! per-type payload bound (the **sum of the fields' worst cases**, so it
//! cannot disagree with the layout), the encoder and the decoder; a
//! message that encodes but has no bound or no decoder cannot be written.
//! Strings and lists are bounded by the codec named in the row
//! (`Text<MAX_ADDR>`, `List<MAX_MEMBERS>`, …), and because encode and
//! decode share that codec they enforce the *same* bound: an over-long
//! string panics at `encode` (a bug in this program) and is a
//! [`WireError::Corrupt`] at `decode` (hostile input).
//!
//! **Adding a message** is one table row in `protocol/wire.rs`. Two
//! tests then fail until the new type is exercised: `tests/wire_golden.rs`
//! wants one golden row pinning its bytes, and
//! `tests/protocol_roundtrip.rs` one arm in its message generator.
//! Nothing else needs to know.

use std::fmt;
use std::io::{self, Read};

use orcodcs::OrcoError;

mod wire;

use wire::{decode_frame, parse_header, Wire, WireRows};
pub(crate) use wire::{FrameRows, Push};
pub use wire::{GatewayEntry, GatewayStats, Message, ModelVersion, ShardRow};

/// Frame magic: "ORCO" read as a little-endian u32.
pub(crate) const MAGIC: u32 = u32::from_le_bytes(*b"ORCO");

/// Version of the wire protocol spoken by this build. Version 5 added
/// the rollout plane: [`ModelVersion`] rides the wire (`HelloAck`
/// advertises the active version; `Decoded`/`StreamFrames` carry the
/// version that produced each batch so clients stay correct mid-swap),
/// the `RolloutPropose`/`RolloutAck`/`ActivateVersion`/`VersionQuery`/
/// `VersionReply` lifecycle messages (MAC'd like `Register`), and
/// widened [`StatsSnapshot`] with drift/swap/rollback telemetry.
/// Version 4 added the observability plane: a client-minted 64-bit
/// trace id on `PushFrames`/`PullDecoded`/`Subscribe` (0 = untraced),
/// per-shard rows and a stats piggyback on `Heartbeat` in
/// [`StatsSnapshot`], the `MetricsRequest`/`MetricsReply` scrape pair,
/// and the directory's `FleetStatsQuery`/`FleetStatsReply` fleet view.
/// Version 3 added the fleet plane (directory queries, redirects,
/// gateway registration/heartbeats, streaming subscriptions),
/// authenticated `Hello` (nonce + MAC), and widened [`StatsSnapshot`]
/// with streaming/redirect counters; version 2 widened
/// [`StatsSnapshot`] with per-reason flush counters. Older frames are
/// rejected with [`WireError::UnsupportedVersion`].
///
/// [`StatsSnapshot`]: crate::stats::StatsSnapshot
pub(crate) const PROTOCOL_VERSION: u16 = 5;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 12;

/// Upper bound on any frame's declared payload length; only the
/// matrix-bearing types (`PushFrames`/`Decoded`/`StreamFrames`/
/// `RolloutPropose`) can approach it. Every other message type has a
/// much smaller per-type bound — the sum of its fields' worst cases,
/// computed by the message table — and all bounds are enforced
/// **before** any payload allocation, so a corrupt or hostile length
/// field cannot make the gateway reserve memory a real message of that
/// type could never use.
pub(crate) const MAX_PAYLOAD: usize = 64 << 20;

/// Upper bound on an [`Message::ErrorReply`] detail string.
const MAX_ERROR_DETAIL: usize = 1 << 16;

/// Upper bound on a gateway address string carried in directory
/// messages ([`Message::Redirect`], [`GatewayEntry`]).
pub(crate) const MAX_ADDR: usize = 256;

/// Upper bound on the number of [`GatewayEntry`] records in one
/// directory membership list.
pub(crate) const MAX_MEMBERS: usize = 1024;

/// Upper bound on a [`Message::MetricsReply`] exposition text.
pub(crate) const MAX_METRICS_TEXT: usize = 1 << 20;

/// Upper bound on a [`ModelVersion`] label string.
pub const MAX_LABEL: usize = 64;

/// Typed decoding failures. Every malformed input maps to exactly one of
/// these; tests assert on the variants, and the gateway turns them into
/// [`Message::ErrorReply`] frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a field's `needed` bytes were available.
    Truncated {
        /// Bytes the current field required.
        needed: usize,
        /// Bytes actually remaining.
        got: usize,
    },
    /// The frame does not start with `MAGIC`.
    BadMagic {
        /// The four bytes found instead.
        found: u32,
    },
    /// The speaker uses a protocol version this build does not know.
    UnsupportedVersion {
        /// The version field received.
        found: u16,
    },
    /// The message-type field names no known [`Message`].
    UnknownType {
        /// The type field received.
        found: u16,
    },
    /// The header's payload length disagrees with the bytes present.
    LengthMismatch {
        /// Payload length declared in the header.
        declared: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// The declared payload length exceeds the message type's bound.
    Oversized {
        /// Payload length declared in the header.
        declared: usize,
    },
    /// A structurally valid frame carried inconsistent content.
    Corrupt {
        /// What was inconsistent.
        detail: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: field needs {needed} bytes, {got} remain")
            }
            WireError::BadMagic { found } => {
                write!(f, "bad frame magic {found:#010x} (expected {MAGIC:#010x})")
            }
            WireError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported protocol version {found} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            WireError::UnknownType { found } => write!(f, "unknown message type {found}"),
            WireError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "payload length mismatch: header declares {declared} bytes, {actual} present"
                )
            }
            WireError::Oversized { declared } => {
                write!(f, "declared payload of {declared} bytes exceeds the message type's bound")
            }
            WireError::Corrupt { detail } => write!(f, "corrupt payload: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for OrcoError {
    fn from(e: WireError) -> Self {
        OrcoError::Io(io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Machine-readable category carried by [`Message::ErrorReply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was malformed or arrived where a reply belongs.
    BadRequest,
    /// Frame data did not match the codec's frame width.
    Shape,
    /// The gateway is shutting down and accepts no new work.
    ShuttingDown,
    /// The codec or gateway failed internally.
    Internal,
    /// The `Hello`/`Register` MAC did not verify against the shared
    /// secret; the connection is rejected before any stateful work.
    Unauthorized,
}

impl Message {
    /// Short human-readable name of the message kind.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        self.wire_type().1
    }

    /// Encodes the full frame (header + payload) into `out`, clearing it
    /// first. Reuse one buffer across calls for allocation-free encoding.
    ///
    /// # Panics
    ///
    /// Panics if a string or list field exceeds its wire bound, or if the
    /// payload overflows the u32 length field (neither can ever be legal
    /// on the wire; [`crate::Client`] rejects oversized pushes with a
    /// typed error before encoding).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_frame(self.wire_type().0, out, |out| self.put_payload(out));
    }

    /// Encodes the full frame into a fresh buffer.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes exactly one frame. The slice must contain the frame and
    /// nothing else; trailing bytes are a [`WireError::LengthMismatch`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] describing the first malformation found.
    pub fn decode(frame: &[u8]) -> Result<Message, WireError> {
        decode_frame(frame, Message::take_payload)
    }
}

/// Writes one frame into `out`, cleared first: the header of wire type
/// `id`, the payload `put_payload` appends, and its length in the header.
///
/// # Panics
///
/// Panics if the payload overflows the u32 length field.
fn encode_frame(id: u16, out: &mut Vec<u8>, put_payload: impl FnOnce(&mut Vec<u8>)) {
    out.clear();
    u32::put(&MAGIC, out);
    u16::put(&PROTOCOL_VERSION, out);
    u16::put(&id, out);
    u32::put(&0, out); // payload length, patched below
    put_payload(out);
    let len = out.len() - HEADER_LEN;
    assert!(u32::try_from(len).is_ok(), "payload of {len} bytes overflows the u32 length field");
    out[8..12].copy_from_slice(&(len as u32).to_le_bytes());
}

/// A request frame as the gateway dispatches it: a push with its rows
/// still in the frame, or any other message.
#[derive(Debug)]
pub(crate) enum Request<'a> {
    /// A `PushFrames`, parsed in place.
    Push(Push<WireRows<'a>>),
    /// Anything else, decoded.
    Other(Message),
}

impl<'a> Request<'a> {
    /// Decodes one frame as [`Message::decode`] does — the same checks,
    /// the same [`Push`] parse, the same [`WireError`] on a malformed
    /// frame — except that a push's rows are not copied out.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] describing the first malformation found.
    pub(crate) fn decode(frame: &'a [u8]) -> Result<Self, WireError> {
        decode_frame(frame, |id, cur| {
            if id == Push::<WireRows<'a>>::WIRE_ID {
                Push::take(cur).map(Request::Push)
            } else {
                Message::take_payload(id, cur).map(Request::Other)
            }
        })
    }
}

/// Outcome of [`FrameReader::next_frame`].
#[derive(Debug)]
pub(crate) enum FrameRead<'a> {
    /// Clean end-of-stream at a frame boundary.
    Eof,
    /// One complete frame (header + payload), borrowed from the reader's
    /// buffer until its next call.
    Frame(&'a [u8]),
    /// The header was malformed — framing is lost, so no payload was
    /// read. A server should reply with an `ErrorReply` and close the
    /// connection.
    Malformed(WireError),
}

/// Smallest buffer a [`FrameReader`] reads into: room for a one-frame
/// push or any control message beside the next request's header, so a
/// request/reply exchange costs one `read` a frame.
const MIN_READ_BUF: usize = 16 << 10;

/// Reads frames off a byte stream through one reusable buffer, owned by
/// the connection for its lifetime.
///
/// Each `read` takes as much as the stream has ready, so a whole small
/// frame — or several — arrives in one call, and a frame is handed out as
/// a slice of the buffer. What has been read of an incomplete frame stays
/// in the buffer across calls: a `read` that fails with a timeout
/// mid-frame loses nothing, and the next call carries on from there. The
/// buffer grows to the largest frame seen and only then; the header's
/// per-type payload bound is enforced **before** it grows, so a hostile
/// length field cannot reserve more memory than a legitimate message of
/// that type.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Initialised storage; `buf[start..end]` holds the bytes read and
    /// not yet handed out.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    /// A reader with nothing buffered.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The next frame off `r`, reading only when the buffer does not
    /// already hold a whole one.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Io`] for transport failures (including EOF
    /// mid-frame); header malformations are [`FrameRead::Malformed`], not
    /// errors, so servers can still answer them. After `Malformed` the
    /// stream has no frame boundary left to find and every further call
    /// reports the same header.
    pub(crate) fn next_frame(&mut self, r: &mut impl Read) -> Result<FrameRead<'_>, OrcoError> {
        loop {
            let have = self.end - self.start;
            let need = match self.front_len() {
                Err(e) => return Ok(FrameRead::Malformed(e)),
                Ok(need) if have >= need => return Ok(FrameRead::Frame(self.take_front(need))),
                Ok(need) => need,
            };
            // Move the partial frame (usually nothing) to the front, so
            // the read below has the rest of the buffer to fill.
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                (self.start, self.end) = (0, have);
            }
            let room = need.max(MIN_READ_BUF);
            if self.buf.len() < room {
                self.buf.resize(room, 0);
            }
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) if have == 0 => return Ok(FrameRead::Eof),
                Ok(0) => {
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof mid-frame").into())
                }
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Reads and decodes one message. Returns `Ok(None)` on a clean
    /// end-of-stream at a frame boundary (the peer closed between
    /// messages); EOF mid-frame is an error.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Io`] for transport failures and for wire-level
    /// malformations (wrapped [`WireError`]).
    pub fn read_message(&mut self, r: &mut impl Read) -> Result<Option<Message>, OrcoError> {
        match self.next_frame(r)? {
            FrameRead::Eof => Ok(None),
            FrameRead::Malformed(e) => Err(e.into()),
            FrameRead::Frame(frame) => Ok(Some(Message::decode(frame)?)),
        }
    }

    /// [`Self::read_message`] for a message the buffer already holds
    /// whole; `Ok(None)` when it does not. Reads nothing.
    ///
    /// # Errors
    ///
    /// As [`Self::read_message`], for a malformed buffered frame.
    pub(crate) fn buffered_message(&mut self) -> Result<Option<Message>, OrcoError> {
        match self.front_len() {
            Err(e) => Err(e.into()),
            Ok(need) if self.end - self.start >= need => {
                Ok(Some(Message::decode(self.take_front(need))?))
            }
            Ok(_) => Ok(None),
        }
    }

    /// Bytes the frame at the front of the buffer takes, header
    /// included, as far as the buffer tells: the header alone until it
    /// has arrived. A malformed header is its error.
    fn front_len(&self) -> Result<usize, WireError> {
        match self.buf.get(self.start..self.end).and_then(|b| b.get(..HEADER_LEN)) {
            Some(header) => parse_header(header).map(|(_, declared)| HEADER_LEN + declared),
            None => Ok(HEADER_LEN),
        }
    }

    /// Hands out the buffer's first `len` bytes, which hold a frame.
    fn take_front(&mut self, len: usize) -> &[u8] {
        let frame = self.start..self.start + len;
        self.start = frame.end;
        &self.buf[frame]
    }
}

#[cfg(test)]
mod tests {
    use orco_tensor::Matrix;

    use super::*;
    use crate::stats::{StatsSnapshot, MAX_SHARDS};

    /// The borrowed push paths against the typed message: a client's push
    /// encoded from a view of some rows is the frame `Message::PushFrames`
    /// of those rows encodes to, and the gateway's parse of it appends
    /// the same floats `Message::decode` makes a matrix of.
    #[test]
    fn a_push_from_a_view_and_its_parse_in_place_agree_with_the_typed_message() {
        let all = Matrix::from_fn(5, 7, |r, c| (r * 7 + c) as f32 * -0.75);
        for (lo, hi) in [(0, 0), (1, 2), (0, 5), (2, 5)] {
            let frames = all.view_rows(lo..hi);
            let push = Push { cluster_id: 11, trace: 12, frames };
            let typed =
                Message::PushFrames { cluster_id: 11, trace: 12, frames: frames.to_matrix() };
            let mut frame = vec![0xAA; 3]; // cleared first
            push.encode_into(&mut frame);
            assert_eq!(frame, typed.encode(), "rows {lo}..{hi}");
            let Ok(Request::Push(parsed)) = Request::decode(&frame) else {
                panic!("rows {lo}..{hi}: not parsed as a push");
            };
            assert_eq!((parsed.cluster_id, parsed.trace), (11, 12));
            assert_eq!((parsed.frames.rows(), parsed.frames.cols()), (hi - lo, 7));
            let mut appended = vec![-1.0];
            parsed.frames.append_to(&mut appended);
            assert_eq!(appended[1..], *frames.to_matrix().as_slice(), "rows {lo}..{hi}");
        }
        assert!(matches!(Request::decode(&Message::Shutdown.encode()), Ok(Request::Other(_))));
    }

    #[test]
    fn header_layout_is_stable() {
        let frame = Message::StatsRequest.encode();
        assert_eq!(frame.len(), HEADER_LEN);
        assert_eq!(&frame[0..4], b"ORCO");
        assert_eq!(u16::from_le_bytes([frame[4], frame[5]]), PROTOCOL_VERSION);
        assert_eq!(u16::from_le_bytes([frame[6], frame[7]]), 8);
        assert_eq!(u32::from_le_bytes([frame[8], frame[9], frame[10], frame[11]]), 0);
    }

    #[test]
    fn bad_magic_version_type_rejected() {
        let mut frame = Message::Shutdown.encode();
        frame[0] = b'X';
        assert!(matches!(Message::decode(&frame), Err(WireError::BadMagic { .. })));

        let mut frame = Message::Shutdown.encode();
        frame[4] = 99;
        assert_eq!(Message::decode(&frame), Err(WireError::UnsupportedVersion { found: 99 }));

        let mut frame = Message::Shutdown.encode();
        frame[6] = 200;
        assert_eq!(Message::decode(&frame), Err(WireError::UnknownType { found: 200 }));
    }

    #[test]
    fn oversized_declared_length_rejected_before_allocation() {
        let mut frame = Message::Shutdown.encode();
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Message::decode(&frame),
            Err(WireError::Oversized { declared: u32::MAX as usize })
        );
    }

    #[test]
    fn one_byte_past_each_types_bound_is_oversized_before_any_payload_is_read() {
        let header_declaring = |id: u16, declared: usize| {
            let mut header = Message::Shutdown.encode();
            header[6..8].copy_from_slice(&id.to_le_bytes());
            header[8..12].copy_from_slice(&(declared as u32).to_le_bytes());
            header
        };
        for &(id, kind) in Message::TYPES {
            let cap = Message::max_payload_of(id).expect("a declared type has a bound");
            let header = header_declaring(id, cap + 1);
            let oversized = WireError::Oversized { declared: cap + 1 };
            assert_eq!(Message::decode(&header), Err(oversized.clone()), "{kind}");
            // The stream reader refuses at the header, before its buffer
            // grows: the stream below holds no payload, so reaching for
            // one would be an I/O error.
            let mut reader = FrameReader::new();
            match reader.next_frame(&mut io::Cursor::new(header)).expect("no payload read") {
                FrameRead::Malformed(e) => assert_eq!(e, oversized, "{kind}"),
                other => panic!("{kind}: {other:?}"),
            }
            assert!(reader.buf.len() <= MIN_READ_BUF, "{kind}: grew for a refused length");
            // ... and the bound itself is accepted by the header check.
            assert_eq!(parse_header(&header_declaring(id, cap)), Ok((id, cap)), "{kind}");
        }
    }

    #[test]
    fn worst_case_legal_messages_fill_their_computed_bound_exactly() {
        let label = || "v".repeat(MAX_LABEL);
        let version = |id| ModelVersion { id, label: label(), frame_dim: 784, code_dim: 32 };
        let snapshot = StatsSnapshot {
            shards: MAX_SHARDS as u16,
            per_shard: vec![ShardRow::default(); MAX_SHARDS],
            ..StatsSnapshot::default()
        };
        for msg in [
            Message::DirectoryReply {
                epoch: 1,
                members: (0..MAX_MEMBERS as u64)
                    .map(|id| GatewayEntry { id, addr: "a".repeat(MAX_ADDR) })
                    .collect(),
            },
            Message::VersionReply {
                active: version(3),
                staged: Some(version(4)),
                prior: Some(version(2)),
                rollbacks: 1,
                drift: true,
            },
            Message::StatsReply(snapshot),
        ] {
            let frame = msg.encode();
            let cap = Message::max_payload_of(msg.wire_type().0).expect("declared type");
            assert_eq!(frame.len() - HEADER_LEN, cap, "{}", msg.kind());
            assert_eq!(Message::decode(&frame).as_ref(), Ok(&msg), "{}", msg.kind());
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut frame = Message::Hello { client_id: 7, nonce: 0, mac: 0 }.encode();
        frame.push(0);
        assert!(matches!(Message::decode(&frame), Err(WireError::LengthMismatch { .. })));
    }

    #[test]
    fn oversized_version_label_rejected() {
        let version =
            ModelVersion { id: 1, label: "v".repeat(MAX_LABEL), frame_dim: 4, code_dim: 2 };
        let mut frame = Message::VersionReply {
            active: version,
            staged: None,
            prior: None,
            rollbacks: 0,
            drift: false,
        }
        .encode();
        // Lie about the label length: the decoder must reject it before
        // interning an arbitrarily long string.
        let len_at = HEADER_LEN + 8;
        frame[len_at..len_at + 4].copy_from_slice(&(MAX_LABEL as u32 + 1).to_le_bytes());
        assert!(matches!(Message::decode(&frame), Err(WireError::Corrupt { .. })));
    }

    #[test]
    fn bad_boolean_flags_are_corrupt() {
        let mut frame = Message::Heartbeat { gateway_id: 1, epoch: 2, stats: None }.encode();
        frame[HEADER_LEN + 16] = 2; // stats flag must be 0 or 1
        assert!(matches!(Message::decode(&frame), Err(WireError::Corrupt { .. })));
    }

    #[test]
    fn oversized_fleet_stats_list_rejected() {
        let mut frame =
            Message::FleetStatsReply { epoch: 1, evictions: 0, gateways: Vec::new() }.encode();
        let count_at = HEADER_LEN + 16;
        frame[count_at..count_at + 4].copy_from_slice(&(MAX_MEMBERS as u32 + 1).to_le_bytes());
        assert!(matches!(Message::decode(&frame), Err(WireError::Corrupt { .. })));
    }

    #[test]
    fn oversized_membership_rejected() {
        let mut frame = Message::DirectoryReply { epoch: 1, members: Vec::new() }.encode();
        // Lie about the member count: decoding must reject it before
        // reserving MAX_MEMBERS entries.
        let count_at = HEADER_LEN + 8;
        frame[count_at..count_at + 4].copy_from_slice(&(MAX_MEMBERS as u32 + 1).to_le_bytes());
        assert!(matches!(Message::decode(&frame), Err(WireError::Corrupt { .. })));
    }

    #[test]
    fn stream_reader_roundtrips_and_detects_clean_eof() {
        let a = Message::Hello { client_id: 42, nonce: 1, mac: 2 };
        let b = Message::PushAck { accepted: 3 };
        let mut stream = a.encode();
        stream.extend_from_slice(&b.encode());
        let mut r = io::Cursor::new(stream);
        let mut reader = FrameReader::new();
        assert_eq!(reader.read_message(&mut r).unwrap(), Some(a));
        assert_eq!(reader.read_message(&mut r).unwrap(), Some(b));
        assert_eq!(reader.read_message(&mut r).unwrap(), None);
    }

    #[test]
    fn eof_mid_header_and_mid_payload_are_errors() {
        let frame = Message::Hello { client_id: 42, nonce: 0, mac: 0 }.encode();
        for cut in [HEADER_LEN - 1, frame.len() - 1] {
            let mut r = io::Cursor::new(frame[..cut].to_vec());
            let err = FrameReader::new().read_message(&mut r).unwrap_err();
            assert!(matches!(err, OrcoError::Io(_)), "cut at {cut}: unexpected: {err}");
        }
    }

    #[test]
    fn malformed_header_is_reported_with_no_payload_read() {
        let mut stream = Message::Hello { client_id: 42, nonce: 0, mac: 0 }.encode();
        stream[0] = b'X';
        stream.truncate(HEADER_LEN);
        let mut reader = FrameReader::new();
        let mut r = io::Cursor::new(stream);
        for _ in 0..2 {
            // Framing is lost for good: the answer does not change.
            match reader.next_frame(&mut r).expect("the header is all it needs") {
                FrameRead::Malformed(WireError::BadMagic { .. }) => {}
                other => panic!("{other:?}"),
            }
        }
        assert!(matches!(reader.read_message(&mut r), Err(OrcoError::Io(_))));
    }

    /// Hands out at most `chunk` bytes a `read`, whatever the room.
    struct Trickle<'a> {
        bytes: &'a [u8],
        chunk: usize,
        reads: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            self.reads += 1;
            Ok(n)
        }
    }

    fn three_messages() -> [Message; 3] {
        [
            Message::PushAck { accepted: 3 },
            Message::PushFrames {
                cluster_id: 9,
                trace: 0,
                frames: Matrix::from_fn(2, 5, |r, c| (r * 5 + c) as f32),
            },
            Message::Shutdown,
        ]
    }

    #[test]
    fn one_byte_per_read_assembles_every_frame() {
        let messages = three_messages();
        let stream: Vec<u8> = messages.iter().flat_map(Message::encode).collect();
        let mut r = Trickle { bytes: &stream, chunk: 1, reads: 0 };
        let mut reader = FrameReader::new();
        for msg in &messages {
            assert_eq!(reader.read_message(&mut r).unwrap().as_ref(), Some(msg));
        }
        assert_eq!(reader.read_message(&mut r).unwrap(), None);
        assert_eq!(r.reads, stream.len() + 1, "one read a byte, and the one that saw EOF");
    }

    #[test]
    fn three_frames_in_one_read_cost_one_read() {
        let messages = three_messages();
        let stream: Vec<u8> = messages.iter().flat_map(Message::encode).collect();
        let mut r = Trickle { bytes: &stream, chunk: usize::MAX, reads: 0 };
        let mut reader = FrameReader::new();
        for msg in &messages {
            assert_eq!(reader.read_message(&mut r).unwrap().as_ref(), Some(msg));
            assert_eq!(r.reads, 1, "{}: served from the buffer", msg.kind());
        }
        assert_eq!(reader.read_message(&mut r).unwrap(), None);
    }

    #[test]
    fn a_failed_read_mid_frame_loses_nothing() {
        /// The first half of a frame, an error, the second half.
        struct Stalls<'a>(Vec<io::Result<&'a [u8]>>);
        impl Read for Stalls<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let bytes = self.0.remove(0)?;
                buf[..bytes.len()].copy_from_slice(bytes);
                Ok(bytes.len())
            }
        }
        let msg = Message::Hello { client_id: 42, nonce: 1, mac: 2 };
        let frame = msg.encode();
        let (head, rest) = frame.split_at(HEADER_LEN + 3);
        let mut r =
            Stalls(vec![Ok(head), Err(io::ErrorKind::WouldBlock.into()), Ok(rest), Ok(&[])]);
        let mut reader = FrameReader::new();
        assert!(matches!(reader.read_message(&mut r), Err(OrcoError::Io(_))));
        assert_eq!(reader.read_message(&mut r).unwrap(), Some(msg));
        assert_eq!(reader.read_message(&mut r).unwrap(), None);
    }

    #[test]
    fn a_frame_larger_than_the_buffer_grows_it_once_and_is_then_reused() {
        let big = Message::PushFrames {
            cluster_id: 1,
            trace: 0,
            frames: Matrix::from_fn(8, 784, |r, c| (r + c) as f32),
        };
        let frame = big.encode();
        assert!(frame.len() > MIN_READ_BUF);
        let stream = [frame.clone(), frame.clone()].concat();
        // 1000 bytes a read: frames straddle reads and each other.
        let mut r = Trickle { bytes: &stream, chunk: 1000, reads: 0 };
        let mut reader = FrameReader::new();
        assert_eq!(reader.read_message(&mut r).unwrap().as_ref(), Some(&big));
        let grown = reader.buf.len();
        assert_eq!(grown, frame.len(), "exactly the frame, past the floor");
        assert_eq!(reader.read_message(&mut r).unwrap().as_ref(), Some(&big));
        assert_eq!(reader.buf.len(), grown);
        assert_eq!(reader.read_message(&mut r).unwrap(), None);
    }
}
