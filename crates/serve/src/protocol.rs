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
//! A matrix has one encoder, from a [`MatView`], and one decoder, to a
//! borrowed `WireRows` (shape + the frame's bytes). The encoder sizes
//! the frame's tail once and converts each row over fixed 4-byte chunks
//! of it, which LLVM vectorises; the decoder reads 4-byte chunks back.
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
//! of the message table below — wire id, variant, fields in wire order.
//! The table generates the [`Message`] enum, [`Message::TYPES`], the
//! per-type payload bound (the **sum of the fields' worst cases**, so it
//! cannot disagree with the layout), the encoder and the decoder; a
//! message that encodes but has no bound or no decoder cannot be written.
//! Strings and lists are bounded by the codec named in the row
//! (`Text<MAX_ADDR>`, `List<MAX_MEMBERS>`, …), and because encode and
//! decode share that codec they enforce the *same* bound: an over-long
//! string panics at `encode` (a bug in this program) and is a
//! [`WireError::Corrupt`] at `decode` (hostile input).
//!
//! **Adding a message** is one table row here. Two tests then fail
//! until the new type is exercised: `tests/wire_golden.rs` wants one
//! golden row pinning its bytes, and `tests/protocol_roundtrip.rs` one
//! arm in its message generator. Nothing else needs to know.

use std::fmt;
use std::io::{self, Read};

use orco_tensor::{MatView, Matrix};
use orcodcs::OrcoError;

use crate::stats::StatsSnapshot;

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

// ----------------------------------------------------------------------
// Field codecs: one per field type, each written once
// ----------------------------------------------------------------------

// Everything from here to the end of the message-table macro reads or
// sits beside attacker-controlled bytes: every `take` and the table's
// decode body are inside this region.
// orco-lint: region(wire-decode)

/// Copies a slice into a fixed-width array for `from_le_bytes`.
///
/// Every caller feeds it a slice whose length is already guaranteed by a
/// bounds-checked [`Cursor::take`] or `chunks_exact`; a length mismatch
/// here is therefore a bug in this module, not attacker-reachable, and
/// the `copy_from_slice` assert is the right failure mode for it.
fn le_bytes<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(bytes);
    out
}

/// Bounds-checked reader over a payload slice; every read either yields
/// the bytes or a [`WireError::Truncated`] naming what was missing.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated { needed: n, got: 0 })?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or(WireError::Truncated { needed: n, got: self.remaining() })?;
        self.pos = end;
        Ok(s)
    }
}

/// The wire codec of one field type `T`: its worst-case encoded size,
/// its encoder and its decoder, declared together so they cannot
/// disagree. A type that is its own codec implements `Wire` (`T = Self`);
/// `String` and `Vec` fields have no bound of their own, so their rows
/// name one ([`Text`], [`List`]).
pub(crate) trait Wire<T = Self> {
    /// Worst-case encoded size in bytes.
    const CAP: usize;

    /// Appends the encoding of `v`.
    fn put(v: &T, out: &mut Vec<u8>);

    /// Reads one `T`; hostile input yields a typed error, never a panic.
    fn take(cur: &mut Cursor<'_>) -> Result<T, WireError>;
}

/// Fixed-width little-endian scalars.
macro_rules! wire_le {
    ($($ty:ty),+) => {$(
        impl Wire for $ty {
            const CAP: usize = std::mem::size_of::<$ty>();

            fn put(v: &Self, out: &mut Vec<u8>) {
                out.extend_from_slice(&v.to_le_bytes());
            }

            fn take(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
                Ok(<$ty>::from_le_bytes(le_bytes(cur.take(Self::CAP)?)))
            }
        }
    )+};
}
wire_le!(u8, u16, u32, u64, f64);

/// A one-byte flag; any value other than 0/1 is corrupt.
impl Wire for bool {
    const CAP: usize = u8::CAP;

    fn put(v: &Self, out: &mut Vec<u8>) {
        out.push(u8::from(*v));
    }

    fn take(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        match u8::take(cur)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Corrupt { detail: "boolean flag is not 0 or 1" }),
        }
    }
}

/// A presence flag, then the value when present.
impl<T: Wire> Wire for Option<T> {
    const CAP: usize = bool::CAP + T::CAP;

    fn put(v: &Self, out: &mut Vec<u8>) {
        bool::put(&v.is_some(), out);
        if let Some(inner) = v {
            T::put(inner, out);
        }
    }

    fn take(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(if bool::take(cur)? { Some(T::take(cur)?) } else { None })
    }
}

/// A `u32` length prefix, then at most `MAX` bytes of UTF-8.
pub(crate) struct Text<const MAX: usize>;

impl<const MAX: usize> Wire<String> for Text<MAX> {
    const CAP: usize = u32::CAP + MAX;

    fn put(v: &String, out: &mut Vec<u8>) {
        assert!(v.len() <= MAX, "string of {} bytes exceeds its wire bound of {MAX}", v.len());
        u32::put(&(v.len() as u32), out);
        out.extend_from_slice(v.as_bytes());
    }

    fn take(cur: &mut Cursor<'_>) -> Result<String, WireError> {
        let len = u32::take(cur)? as usize;
        if len > MAX {
            return Err(WireError::Corrupt { detail: "string exceeds its wire bound" });
        }
        std::str::from_utf8(cur.take(len)?)
            .map_err(|_| WireError::Corrupt { detail: "string is not utf-8" })
            .map(str::to_owned)
    }
}

/// A `u32` count, then at most `MAX` elements.
pub(crate) struct List<const MAX: usize>;

impl<T: Wire, const MAX: usize> Wire<Vec<T>> for List<MAX> {
    const CAP: usize = u32::CAP + MAX * T::CAP;

    fn put(v: &Vec<T>, out: &mut Vec<u8>) {
        assert!(v.len() <= MAX, "list of {} entries exceeds its wire bound of {MAX}", v.len());
        u32::put(&(v.len() as u32), out);
        for item in v {
            T::put(item, out);
        }
    }

    fn take(cur: &mut Cursor<'_>) -> Result<Vec<T>, WireError> {
        let count = u32::take(cur)? as usize;
        if count > MAX {
            return Err(WireError::Corrupt { detail: "list exceeds its wire bound" });
        }
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(T::take(cur)?);
        }
        Ok(items)
    }
}

/// The one matrix encoder, from a view: `rows: u32, cols: u32`, then the
/// row-major f32 bit patterns, 4 little-endian bytes each. The tail is
/// sized once and each row converted over fixed 4-byte chunks of it, a
/// loop LLVM vectorises — no per-element `extend_from_slice`.
fn put_rows(v: MatView<'_>, out: &mut Vec<u8>) {
    u32::put(&(v.rows() as u32), out);
    u32::put(&(v.cols() as u32), out);
    let start = out.len();
    out.resize(start + v.len() * 4, 0);
    let (_, mut tail) = out.split_at_mut(start);
    for row in v.iter_rows() {
        let (bytes, rest) = tail.split_at_mut(row.len() * 4);
        for (le, x) in bytes.chunks_exact_mut(4).zip(row) {
            le.copy_from_slice(&x.to_le_bytes());
        }
        tail = rest;
    }
}

/// A matrix as it lies in a frame: its shape and its `rows × cols`
/// little-endian f32s, borrowed from the frame. The one matrix decoder
/// makes these; the rows are then read straight into a shard's batch
/// ([`FrameRows::append_to`]) or into an owned [`Matrix`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct WireRows<'a> {
    rows: usize,
    cols: usize,
    bytes: &'a [u8],
}

impl<'a> WireRows<'a> {
    fn take(cur: &mut Cursor<'a>) -> Result<Self, WireError> {
        let rows = u32::take(cur)? as usize;
        let cols = u32::take(cur)? as usize;
        let nbytes = rows
            .checked_mul(cols)
            .and_then(|elems| elems.checked_mul(4))
            .ok_or(WireError::Corrupt { detail: "matrix dimensions overflow" })?;
        Ok(Self { rows, cols, bytes: cur.take(nbytes)? })
    }

    fn to_matrix(self) -> Result<Matrix, WireError> {
        let mut data = Vec::with_capacity(self.rows * self.cols);
        self.append_to(&mut data);
        Matrix::from_vec(self.rows, self.cols, data)
            .map_err(|_| WireError::Corrupt { detail: "matrix length mismatch" })
    }
}

/// Where the rows of a push are: a caller's [`MatView`] (a typed
/// `PushFrames`), or the bytes of the frame that carried them
/// ([`WireRows`]). A shard takes either the same way.
pub(crate) trait FrameRows: Copy {
    /// Number of rows.
    fn rows(&self) -> usize;
    /// Floats per row.
    fn cols(&self) -> usize;
    /// Appends every row, row-major, to `out`.
    fn append_to(&self, out: &mut Vec<f32>);
}

impl FrameRows for WireRows<'_> {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn append_to(&self, out: &mut Vec<f32>) {
        out.extend(self.bytes.chunks_exact(4).map(|le| f32::from_le_bytes(le_bytes(le))));
    }
}

impl FrameRows for MatView<'_> {
    fn rows(&self) -> usize {
        MatView::rows(self)
    }

    fn cols(&self) -> usize {
        MatView::cols(self)
    }

    fn append_to(&self, out: &mut Vec<f32>) {
        for row in self.iter_rows() {
            out.extend_from_slice(row);
        }
    }
}

/// A matrix is bounded by the frame itself, not by a size of its own.
impl Wire for Matrix {
    const CAP: usize = MAX_PAYLOAD;

    fn put(v: &Self, out: &mut Vec<u8>) {
        put_rows(v.as_view(), out);
    }

    fn take(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        WireRows::take(cur)?.to_matrix()
    }
}

/// A `PushFrames` payload whose rows stay where they are: the caller's
/// [`MatView`] when a client encodes a push, the frame's [`WireRows`]
/// when the gateway decodes one. Its table row is encoded and decoded
/// through it (`via Push`), so a typed [`Message::PushFrames`], a
/// client's push and the gateway's borrowed parse have one layout, and a
/// malformed push draws one [`WireError`] whichever path reads it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Push<R> {
    /// Cluster the frames belong to.
    pub(crate) cluster_id: u64,
    /// Client-minted trace id; 0 means untraced.
    pub(crate) trace: u64,
    /// The frames, one per row.
    pub(crate) frames: R,
}

impl Push<MatView<'_>> {
    fn put(&self, out: &mut Vec<u8>) {
        u64::put(&self.cluster_id, out);
        u64::put(&self.trace, out);
        put_rows(self.frames, out);
    }

    /// Encodes the whole `PushFrames` frame into `out`, clearing it
    /// first: the bytes `Message::PushFrames` encodes to, with no
    /// [`Matrix`] made.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        encode_frame(Self::WIRE_ID, out, |out| self.put(out));
    }
}

impl<'a> Push<WireRows<'a>> {
    fn take(cur: &mut Cursor<'a>) -> Result<Self, WireError> {
        Ok(Self {
            cluster_id: u64::take(cur)?,
            trace: u64::take(cur)?,
            frames: WireRows::take(cur)?,
        })
    }
}

/// A field of a `via` row (see [`Push`]): lent to the row's borrowed
/// view to be encoded, and owned again from what the view decoded.
trait Carried<'a>: Sized {
    /// The field as the view holds it to encode.
    type Lent;
    /// The field as the view decodes it.
    type Taken;

    fn lend(&'a self) -> Self::Lent;

    fn own(taken: Self::Taken) -> Result<Self, WireError>;
}

impl Carried<'_> for u64 {
    type Lent = u64;
    type Taken = u64;

    fn lend(&self) -> u64 {
        *self
    }

    fn own(taken: u64) -> Result<u64, WireError> {
        Ok(taken)
    }
}

impl<'a> Carried<'a> for Matrix {
    type Lent = MatView<'a>;
    type Taken = WireRows<'a>;

    fn lend(&'a self) -> MatView<'a> {
        self.as_view()
    }

    fn own(taken: WireRows<'a>) -> Result<Matrix, WireError> {
        taken.to_matrix()
    }
}

impl Wire for ErrorCode {
    const CAP: usize = u16::CAP;

    fn put(v: &Self, out: &mut Vec<u8>) {
        let code: u16 = match v {
            ErrorCode::BadRequest => 1,
            ErrorCode::Shape => 2,
            ErrorCode::ShuttingDown => 3,
            ErrorCode::Internal => 4,
            ErrorCode::Unauthorized => 5,
        };
        u16::put(&code, out);
    }

    fn take(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        match u16::take(cur)? {
            1 => Ok(ErrorCode::BadRequest),
            2 => Ok(ErrorCode::Shape),
            3 => Ok(ErrorCode::ShuttingDown),
            4 => Ok(ErrorCode::Internal),
            5 => Ok(ErrorCode::Unauthorized),
            _ => Err(WireError::Corrupt { detail: "unknown error code" }),
        }
    }
}

/// Picks a field's codec: the one its row names, else the field type.
macro_rules! codec {
    ($ty:ty) => {
        $ty
    };
    ($ty:ty, $codec:ty) => {
        $codec
    };
}
pub(crate) use codec;

/// Declares a plain struct and its [`Wire`] codec from one field list,
/// in wire order: the encoding is the fields' encodings back to back.
/// (Names resolve where the macro is used: import `Wire`, `Cursor`,
/// `WireError` and `codec` beside it.)
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident : $ty:ty $(as $codec:ty)? ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )+
        }

        impl Wire for $name {
            const CAP: usize =
                0 $(+ <codec!($ty $(, $codec)?) as Wire<$ty>>::CAP)+;

            fn put(v: &Self, out: &mut Vec<u8>) {
                $( <codec!($ty $(, $codec)?) as Wire<$ty>>::put(&v.$field, out); )+
            }

            fn take(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
                Ok(Self {
                    $( $field: <codec!($ty $(, $codec)?) as Wire<$ty>>::take(cur)?, )+
                })
            }
        }
    };
}
pub(crate) use wire_struct;

wire_struct! {
    /// One gateway in the directory's membership list: its fleet-wide id and
    /// the address clients dial to reach it ("host:port" for TCP, an opaque
    /// token for loopback/DES fleets).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct GatewayEntry {
        /// Fleet-wide gateway identifier (stable across reconnects).
        pub id: u64,
        /// Dial address clients use to reach the gateway.
        pub addr: String as Text<MAX_ADDR>,
    }
}

wire_struct! {
    /// Identity and geometry of one codec model generation as it rides the
    /// wire. Version ids are monotonic per gateway lineage: a staged
    /// rollout must carry an id strictly greater than the active one, so
    /// replayed or reordered proposals can never regress a gateway.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ModelVersion {
        /// Monotonic version identifier (0 = the boot model).
        pub id: u64,
        /// Human-readable label ("seed", "retrain-2024-07", …); at most
        /// [`MAX_LABEL`] bytes.
        pub label: String as Text<MAX_LABEL>,
        /// Flattened sensing-frame width the model expects, in f32 elements.
        pub frame_dim: u32,
        /// Encoded code width the model produces, in f32 elements.
        pub code_dim: u32,
    }
}

wire_struct! {
    /// One gateway's entry in a [`Message::FleetStatsReply`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct GatewayStats {
        /// Fleet-wide gateway identifier.
        pub id: u64,
        /// Whether the gateway is currently a member (false = evicted; its
        /// snapshot is frozen at the last heartbeat before eviction).
        pub alive: bool,
        /// The gateway's last piggybacked [`StatsSnapshot`].
        pub snapshot: StatsSnapshot,
    }
}

// ----------------------------------------------------------------------
// The message table
// ----------------------------------------------------------------------

/// A message's payload bound: the sum of its fields' worst cases, and
/// never more than a frame may carry.
const fn payload_bound(field_caps: usize) -> usize {
    if field_caps < MAX_PAYLOAD {
        field_caps
    } else {
        MAX_PAYLOAD
    }
}

/// One table row's payload encoder: its fields' codecs back to back, or,
/// for a `via` row, its borrowed view's encoder over the lent fields.
macro_rules! put_row {
    ($out:ident; ; $($field:ident : $codec:ty as $ty:ty),* ; $($inner:ident : $ity:ty)?) => {{
        $( <$codec as Wire<$ty>>::put($field, $out); )*
        $( <$ity as Wire>::put($inner, $out); )?
    }};
    ($out:ident; $via:ident ; $($field:ident : $codec:ty as $ty:ty),* ; ) => {
        $via { $( $field: Carried::lend($field), )* }.put($out)
    };
}

/// One table row's payload decoder, the counterpart of [`put_row`].
macro_rules! take_row {
    ($cur:ident; $name:ident :: $variant:ident; ;
        $($field:ident : $codec:ty as $ty:ty),* ; $($inner:ident : $ity:ty)?) => {
        Ok($name::$variant {
            $( $field: <$codec as Wire<$ty>>::take($cur)?, )*
            $( 0: <$ity as Wire>::take($cur)? )?
        })
    };
    ($cur:ident; $name:ident :: $variant:ident; $via:ident ;
        $($field:ident : $codec:ty as $ty:ty),* ; ) => {{
        let view = $via::take($cur)?;
        Ok($name::$variant { $( $field: Carried::own(view.$field)?, )* })
    }};
}

/// A `via` row's view learns its row's wire id.
macro_rules! via_id {
    ($id:literal;) => {};
    ($id:literal; $via:ident) => {
        impl<R> $via<R> {
            /// The wire id of this view's message.
            const WIRE_ID: u16 = $id;
        }
    };
}

/// Generates the message enum and everything that must agree with it —
/// wire ids, kind names, per-type payload bounds, the encoder and the
/// decoder — from one row per message: `id => Variant { fields }`, fields
/// in wire order, each `name: Type` or `name: Type as Codec`. A row
/// ending `via View` is encoded and decoded through `View`, a struct of
/// the same fields that borrows what the typed message owns ([`Push`]);
/// its field order is the view's.
macro_rules! messages {
    (
        $(#[$emeta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $id:literal => $variant:ident
                    $({ $( $(#[$fmeta:meta])* $field:ident : $ty:ty $(as $codec:ty)? ),+ $(,)? })?
                    $(( $inner:ident : $ity:ty ))?
                    $(via $via:ident)?
            ),+ $(,)?
        }
    ) => {
        $( via_id!($id; $($via)?); )+

        $(#[$emeta])*
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant $({ $( $(#[$fmeta])* $field: $ty, )+ })? $(( $ity ))?,
            )+
        }

        impl $name {
            /// Every message type as `(wire id, kind)`, in table order.
            pub const TYPES: &'static [(u16, &'static str)] =
                &[$( ($id, stringify!($variant)), )+];

            /// This message's row of [`Self::TYPES`].
            pub(crate) fn wire_type(&self) -> (u16, &'static str) {
                match self {
                    $( $name::$variant { .. } => ($id, stringify!($variant)), )+
                }
            }

            /// The largest payload a frame of type `id` may declare.
            /// Unknown types are rejected here, before any payload is read.
            fn max_payload_of(id: u16) -> Result<usize, WireError> {
                match id {
                    $( $id => Ok(payload_bound(
                        0 $($( + <codec!($ty $(, $codec)?) as Wire<$ty>>::CAP )+)?
                          $( + <$ity as Wire>::CAP )?
                    )), )+
                    found => Err(WireError::UnknownType { found }),
                }
            }

            /// Appends the payload: the fields' encodings back to back.
            fn put_payload(&self, out: &mut Vec<u8>) {
                match self {
                    $( $name::$variant { $($( $field, )+)? $( 0: $inner )? } => put_row!(
                        out; $($via)?;
                        $($( $field: codec!($ty $(, $codec)?) as $ty ),+)?;
                        $( $inner: $ity )?
                    ), )+
                }
            }

            /// Reads the payload of a frame of type `id`.
            fn take_payload(id: u16, cur: &mut Cursor<'_>) -> Result<Self, WireError> {
                match id {
                    $( $id => take_row!(
                        cur; $name::$variant; $($via)?;
                        $($( $field: codec!($ty $(, $codec)?) as $ty ),+)?;
                        $( $inner: $ity )?
                    ), )+
                    found => Err(WireError::UnknownType { found }),
                }
            }
        }
    };
}
// orco-lint: endregion

messages! {
    /// One protocol message. Requests and replies share the enum; the
    /// request/reply pairing is fixed (`Hello`→`HelloAck`,
    /// `PushFrames`→`PushAck`/`Busy`, `PullDecoded`→`Decoded`,
    /// `StatsRequest`→`StatsReply`, `Shutdown`→`ShutdownAck`), and any
    /// request can instead draw an [`Message::ErrorReply`].
    #[derive(Debug, Clone, PartialEq)]
    pub enum Message {
        /// Client introduction, MAC'd when the server requires auth.
        ///
        /// `mac` must equal `auth::hello_mac(secret, client_id, nonce)` when
        /// the server was configured with a shared secret; servers without
        /// one ignore both fields. The nonce is caller-chosen (any value);
        /// it keys the MAC so two clients never present identical proof.
        1 => Hello {
            /// Caller-chosen identifier, echoed in logs/diagnostics only.
            client_id: u64,
            /// Caller-chosen MAC nonce.
            nonce: u64,
            /// `hello_mac(secret, client_id, nonce)`, or 0 when unauthenticated.
            mac: u64,
        },
        /// Gateway's answer to [`Message::Hello`], announcing the data-plane
        /// geometry a client needs to build valid pushes.
        2 => HelloAck {
            /// Protocol version the gateway speaks.
            version: u16,
            /// Number of worker shards.
            shards: u16,
            /// Flattened sensing-frame width in f32 elements.
            frame_dim: u32,
            /// Encoded code width in f32 elements.
            code_dim: u32,
            /// Id of the codec model version currently serving (see
            /// [`ModelVersion`]); clients compare it against the `version`
            /// field on [`Message::Decoded`] to detect a mid-session swap.
            active_version: u64,
        },
        /// A batch of raw sensing frames (one per row) for one cluster.
        3 => PushFrames {
            /// Cluster the frames belong to; selects the shard.
            cluster_id: u64,
            /// Client-minted 64-bit trace id; 0 means untraced. A traced
            /// push's journey (push → enqueue → flush → store → pull)
            /// emits one span per stage under this id.
            trace: u64,
            /// Frames, one per row, `frame_dim` wide.
            frames: Matrix,
        } via Push,
        /// The push was accepted into the shard's micro-batcher.
        4 => PushAck {
            /// Rows accepted (always the full push).
            accepted: u32,
        },
        /// Explicit backpressure: the shard's in-flight budget is exhausted.
        /// The client should drain with [`Message::PullDecoded`] or retry
        /// later — the gateway never buffers unboundedly.
        5 => Busy {
            /// Rows currently in flight on the shard (pending + stored).
            queued: u32,
            /// The shard's in-flight row budget.
            capacity: u32,
        },
        /// Request up to `max_frames` decoded reconstructions for a cluster.
        6 => PullDecoded {
            /// Cluster to drain.
            cluster_id: u64,
            /// Upper bound on returned rows.
            max_frames: u32,
            /// Client-minted trace id for this request; 0 means untraced.
            trace: u64,
        },
        /// Decoded reconstructions, oldest first, in push order. Every row
        /// in one reply was encoded *and* decoded by the same model
        /// version — a pull never mixes rows from both sides of a swap.
        7 => Decoded {
            /// Cluster the frames belong to.
            cluster_id: u64,
            /// Id of the [`ModelVersion`] that produced these rows.
            version: u64,
            /// Reconstructed frames, one per row, `frame_dim` wide.
            frames: Matrix,
        },
        /// Request a [`StatsSnapshot`].
        8 => StatsRequest,
        /// Gateway-wide serving statistics.
        9 => StatsReply(snapshot: StatsSnapshot),
        /// Ask the gateway to flush, stop accepting work, and exit.
        10 => Shutdown,
        /// The shutdown was initiated.
        11 => ShutdownAck,
        /// The request failed; `code` is machine-readable, `detail` is for
        /// humans.
        12 => ErrorReply {
            /// Machine-readable failure category.
            code: ErrorCode,
            /// Human-readable description.
            detail: String as Text<MAX_ERROR_DETAIL>,
        },
        /// The receiving gateway does not own `cluster_id` at `epoch`; the
        /// client should retry the push against `addr`. Sent instead of
        /// silently misrouting a stale-epoch push.
        13 => Redirect {
            /// Cluster the rejected push targeted.
            cluster_id: u64,
            /// Assignment epoch under which the owner was computed.
            epoch: u64,
            /// Dial address of the current owner.
            addr: String as Text<MAX_ADDR>,
        },
        /// Ask the directory for the current assignment epoch + membership.
        14 => DirectoryQuery,
        /// The directory's answer to [`Message::DirectoryQuery`].
        15 => DirectoryReply {
            /// Monotonic assignment epoch; bumped on every membership change.
            epoch: u64,
            /// Live gateways, ascending by id.
            members: Vec<GatewayEntry> as List<MAX_MEMBERS>,
        },
        /// Gateway→directory registration (join the fleet), MAC'd like
        /// [`Message::Hello`] but over `(gateway_id, addr, nonce)`.
        16 => Register {
            /// Fleet-wide gateway identifier.
            gateway_id: u64,
            /// Address clients should dial for this gateway.
            addr: String as Text<MAX_ADDR>,
            /// Caller-chosen MAC nonce.
            nonce: u64,
            /// `register_mac(secret, gateway_id, addr, nonce)`, or 0.
            mac: u64,
        },
        /// The directory accepted the registration.
        17 => RegisterAck {
            /// Epoch after the join (bumped if membership changed).
            epoch: u64,
            /// Post-join membership, ascending by id.
            members: Vec<GatewayEntry> as List<MAX_MEMBERS>,
        },
        /// Gateway→directory liveness beacon, optionally piggybacking the
        /// gateway's cumulative [`StatsSnapshot`] so the directory can
        /// aggregate a fleet-wide view without scraping every gateway.
        18 => Heartbeat {
            /// Fleet-wide gateway identifier.
            gateway_id: u64,
            /// Last epoch the gateway observed (for directory diagnostics).
            epoch: u64,
            /// Cumulative serving stats at beat time; cumulative (not a
            /// true delta) so a retransmitted beat is idempotent.
            stats: Option<StatsSnapshot>,
        },
        /// The directory's answer to [`Message::Heartbeat`]; carries the
        /// current membership so gateways converge without extra queries.
        19 => HeartbeatAck {
            /// Current assignment epoch.
            epoch: u64,
            /// Current membership, ascending by id.
            members: Vec<GatewayEntry> as List<MAX_MEMBERS>,
        },
        /// Subscribe this connection to streamed decoded batches for one
        /// cluster; decoded rows are pushed as [`Message::StreamFrames`]
        /// instead of waiting for polls.
        20 => Subscribe {
            /// Cluster to stream.
            cluster_id: u64,
            /// Client-minted trace id for this request; 0 means untraced.
            trace: u64,
        },
        /// The subscription is live.
        21 => SubscribeAck {
            /// Cluster the subscription covers.
            cluster_id: u64,
            /// Decoded rows already stored at subscribe time (they are
            /// streamed at once: on a socket, ahead of this ack).
            backlog: u32,
        },
        /// Remove this connection's subscription for one cluster.
        22 => Unsubscribe {
            /// Cluster to stop streaming.
            cluster_id: u64,
        },
        /// Server-pushed decoded reconstructions for a subscribed cluster,
        /// oldest first. Distinct from [`Message::Decoded`] so clients can
        /// tell streamed deliveries from pull replies on a shared stream.
        23 => StreamFrames {
            /// Cluster the frames belong to.
            cluster_id: u64,
            /// Id of the [`ModelVersion`] that produced these rows; like
            /// [`Message::Decoded`], one delivery never mixes versions.
            version: u64,
            /// Reconstructed frames, one per row, `frame_dim` wide.
            frames: Matrix,
        },
        /// Request the gateway's metrics exposition (a byte-stable text
        /// scrape of every counter, gauge, per-shard series, and latency
        /// histogram).
        24 => MetricsRequest,
        /// The gateway's answer to [`Message::MetricsRequest`].
        25 => MetricsReply {
            /// The text exposition, one `name value` line per series.
            text: String as Text<MAX_METRICS_TEXT>,
        },
        /// Ask the directory for its aggregated per-gateway fleet view.
        26 => FleetStatsQuery,
        /// The directory's answer to [`Message::FleetStatsQuery`]: the last
        /// stats snapshot each gateway piggybacked on a heartbeat, live
        /// members first-class and evicted members frozen at their final
        /// reading.
        27 => FleetStatsReply {
            /// Current assignment epoch.
            epoch: u64,
            /// Gateways evicted by sweeps since the directory started.
            evictions: u64,
            /// Per-gateway stats, ascending by gateway id.
            gateways: Vec<GatewayStats> as List<MAX_MEMBERS>,
        },
        /// Controller→gateway: stage a new encoder checkpoint as `version`.
        /// MAC'd like [`Message::Register`] but over `(version.id, nonce)`
        /// with the rollout domain tag — staging weights is a control-plane
        /// privilege. Staging does **not** change what serves; the codec
        /// cuts over only on [`Message::ActivateVersion`], and only at a
        /// flush boundary.
        28 => RolloutPropose {
            /// Identity and geometry of the proposed model.
            version: ModelVersion,
            /// Encoder weight matrix (`code_dim × frame_dim`).
            weight: Matrix,
            /// Encoder bias row (`1 × code_dim`).
            bias: Matrix,
            /// Caller-chosen MAC nonce.
            nonce: u64,
            /// `rollout_mac(secret, version.id, nonce)`, or 0.
            mac: u64,
        },
        /// Gateway's answer to [`Message::RolloutPropose`] /
        /// [`Message::ActivateVersion`].
        29 => RolloutAck {
            /// The version the ack refers to.
            version_id: u64,
            /// Whether the stage/activate was accepted.
            accepted: bool,
            /// Human-readable rejection reason (empty on success).
            detail: String as Text<MAX_ERROR_DETAIL>,
        },
        /// Controller→gateway: cut the staged version over to active. The
        /// swap happens at the next flush boundary on every shard — pending
        /// rows flush under the old codec first, so no flush ever mixes
        /// model versions and no frame is dropped. MAC'd like
        /// [`Message::RolloutPropose`].
        30 => ActivateVersion {
            /// The staged version to activate.
            version_id: u64,
            /// Caller-chosen MAC nonce.
            nonce: u64,
            /// `rollout_mac(secret, version_id, nonce)`, or 0.
            mac: u64,
        },
        /// Ask a gateway which model versions it is serving/staging.
        31 => VersionQuery,
        /// The gateway's answer to [`Message::VersionQuery`].
        32 => VersionReply {
            /// The version currently encoding new flushes.
            active: ModelVersion,
            /// A staged version waiting for [`Message::ActivateVersion`].
            staged: Option<ModelVersion>,
            /// The previous active version, retained until its in-flight
            /// rows drain (and as the rollback target).
            prior: Option<ModelVersion>,
            /// Number of guard-triggered rollbacks since boot.
            rollbacks: u64,
            /// Whether the drift monitor currently flags the active model.
            drift: bool,
        },
    }
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

/// Decodes exactly one frame: the header, the declared length against
/// the bytes present, the payload through `take_payload`, and no
/// trailing bytes.
// orco-lint: region(wire-decode)
fn decode_frame<'a, T>(
    frame: &'a [u8],
    take_payload: impl FnOnce(u16, &mut Cursor<'a>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let Some((header, payload)) = frame.split_at_checked(HEADER_LEN) else {
        return Err(WireError::Truncated { needed: HEADER_LEN, got: frame.len() });
    };
    let (msg_type, declared) = parse_header(header)?;
    if payload.len() != declared {
        return Err(WireError::LengthMismatch { declared, actual: payload.len() });
    }
    let mut cur = Cursor::new(payload);
    let decoded = take_payload(msg_type, &mut cur)?;
    if cur.remaining() != 0 {
        return Err(WireError::Corrupt { detail: "payload has trailing bytes" });
    }
    Ok(decoded)
}
// orco-lint: endregion

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

/// Validates a frame header and returns `(message type, payload length)`.
// orco-lint: region(wire-decode)
fn parse_header(header: &[u8]) -> Result<(u16, usize), WireError> {
    let mut cur = Cursor::new(header);
    let magic = u32::take(&mut cur)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let version = u16::take(&mut cur)?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::UnsupportedVersion { found: version });
    }
    let msg_type = u16::take(&mut cur)?;
    let declared = u32::take(&mut cur)? as usize;
    if declared > Message::max_payload_of(msg_type)? {
        return Err(WireError::Oversized { declared });
    }
    Ok((msg_type, declared))
}
// orco-lint: endregion

#[cfg(test)]
mod tests {
    use super::*;

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
            shards: crate::stats::MAX_SHARDS as u16,
            per_shard: vec![crate::stats::ShardRow::default(); crate::stats::MAX_SHARDS],
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
