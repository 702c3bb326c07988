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
//! (property-tested in `tests/protocol_roundtrip.rs`, NaNs included).
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

use orco_tensor::Matrix;
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

/// `rows: u32, cols: u32`, then the row-major f32 bit patterns. A matrix
/// is bounded by the frame itself, not by a size of its own.
impl Wire for Matrix {
    const CAP: usize = MAX_PAYLOAD;

    fn put(v: &Self, out: &mut Vec<u8>) {
        u32::put(&(v.rows() as u32), out);
        u32::put(&(v.cols() as u32), out);
        out.reserve(v.as_slice().len() * 4);
        for x in v.as_slice() {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }

    fn take(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        let rows = u32::take(cur)? as usize;
        let cols = u32::take(cur)? as usize;
        let nbytes = rows
            .checked_mul(cols)
            .and_then(|elems| elems.checked_mul(4))
            .ok_or(WireError::Corrupt { detail: "matrix dimensions overflow" })?;
        let bytes = cur.take(nbytes)?;
        let data: Vec<f32> =
            bytes.chunks_exact(4).map(|b| f32::from_le_bytes(le_bytes(b))).collect();
        Matrix::from_vec(rows, cols, data)
            .map_err(|_| WireError::Corrupt { detail: "matrix length mismatch" })
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

/// Generates the message enum and everything that must agree with it —
/// wire ids, kind names, per-type payload bounds, the encoder and the
/// decoder — from one row per message: `id => Variant { fields }`, fields
/// in wire order, each `name: Type` or `name: Type as Codec`.
macro_rules! messages {
    (
        $(#[$emeta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $id:literal => $variant:ident
                    $({ $( $(#[$fmeta:meta])* $field:ident : $ty:ty $(as $codec:ty)? ),+ $(,)? })?
                    $(( $inner:ident : $ity:ty ))?
            ),+ $(,)?
        }
    ) => {
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
                    $( $name::$variant { $($( $field, )+)? $( 0: $inner )? } => {
                        $($( <codec!($ty $(, $codec)?) as Wire<$ty>>::put($field, out); )+)?
                        $( <$ity as Wire>::put($inner, out); )?
                    } )+
                }
            }

            /// Reads the payload of a frame of type `id`.
            fn take_payload(id: u16, cur: &mut Cursor<'_>) -> Result<Self, WireError> {
                match id {
                    $( $id => Ok($name::$variant {
                        $($( $field: <codec!($ty $(, $codec)?) as Wire<$ty>>::take(cur)?, )+)?
                        $( 0: <$ity as Wire>::take(cur)? )?
                    }), )+
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
        },
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
        out.clear();
        u32::put(&MAGIC, out);
        u16::put(&PROTOCOL_VERSION, out);
        u16::put(&self.wire_type().0, out);
        u32::put(&0, out); // payload length, patched below
        self.put_payload(out);
        let len = out.len() - HEADER_LEN;
        assert!(
            u32::try_from(len).is_ok(),
            "payload of {len} bytes overflows the u32 length field"
        );
        out[8..12].copy_from_slice(&(len as u32).to_le_bytes());
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
        // orco-lint: region(wire-decode)
        let Some((header, payload)) = frame.split_at_checked(HEADER_LEN) else {
            return Err(WireError::Truncated { needed: HEADER_LEN, got: frame.len() });
        };
        let (msg_type, declared) = parse_header(header)?;
        if payload.len() != declared {
            return Err(WireError::LengthMismatch { declared, actual: payload.len() });
        }
        let mut cur = Cursor::new(payload);
        let msg = Message::take_payload(msg_type, &mut cur)?;
        if cur.remaining() != 0 {
            return Err(WireError::Corrupt { detail: "payload has trailing bytes" });
        }
        Ok(msg)
        // orco-lint: endregion
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
            let mut need = HEADER_LEN;
            if have >= HEADER_LEN {
                match parse_header(&self.buf[self.start..self.start + HEADER_LEN]) {
                    Ok((_, declared)) => need += declared,
                    Err(e) => return Ok(FrameRead::Malformed(e)),
                }
                if have >= need {
                    let frame = self.start..self.start + need;
                    self.start = frame.end;
                    return Ok(FrameRead::Frame(&self.buf[frame]));
                }
            }
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
