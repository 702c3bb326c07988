//! The wire schema and every reader of a frame's bytes: the field
//! codecs, the message table, the frame decoder and the header check.
//!
//! Decoding reads attacker-controlled bytes, so this module denies every
//! lint that marks a panic: indexing and slicing, `unwrap`, `expect`,
//! `panic!`, `unreachable!` and `todo!`. Every input either parses or
//! yields a typed [`WireError`]; [`Cursor`] is the checked reader, and
//! `le_bytes` copies slices whose length a `Cursor` or `chunks_exact`
//! already guarantees. A function that reads frame bytes belongs here, so
//! one outside this module stands out in review.
//!
//! The message table and the stats snapshot's codec (`snapshot_table!`,
//! `crates/serve/src/stats.rs`) are expanded in this module, because
//! clippy takes a lint's level from where a macro is invoked; their
//! decoders are held to the same lints. Inside a local macro's
//! expansion clippy does not lint `unwrap` or `expect`, though, nor an
//! index whose base is a macro argument (`$cur.buf[i]`): those bodies are
//! guarded by `tests/protocol_roundtrip.rs`'s truncation property.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo
)]

use orco_tensor::{MatView, Matrix};

use super::{
    encode_frame, ErrorCode, WireError, HEADER_LEN, MAGIC, MAX_ADDR, MAX_ERROR_DETAIL, MAX_LABEL,
    MAX_MEMBERS, MAX_METRICS_TEXT, MAX_PAYLOAD, PROTOCOL_VERSION,
};
use crate::stats::{snapshot_codec, StatsSnapshot, MAX_SHARDS};

// ----------------------------------------------------------------------
// Field codecs: one per field type, each written once
// ----------------------------------------------------------------------

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
    pub(super) fn take(cur: &mut Cursor<'a>) -> Result<Self, WireError> {
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

/// Declares a plain struct and its [`Wire`] codec from one field list,
/// in wire order: the encoding is the fields' encodings back to back.
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

wire_struct! {
    /// One shard's counters inside a [`StatsSnapshot`]: enough to see
    /// hot-shard skew from any scrape.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct ShardRow {
        /// Raw frames this shard accepted.
        pub frames_in: u64,
        /// Decoded frames this shard delivered (pulls + streams).
        pub frames_out: u64,
        /// Micro-batches this shard flushed.
        pub batches: u64,
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
            pub(super) const WIRE_ID: u16 = $id;
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
///
/// Invoked in this module, so the generated decoder is held to its
/// lints — except where clippy cannot see inside the expansion (`unwrap`,
/// `expect`, an index of a macro argument). What guards this body and
/// [`take_row`]'s is `tests/protocol_roundtrip.rs`'s
/// `every_payload_cut_is_truncated_under_a_restamped_header`, not clippy.
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
            pub(super) fn max_payload_of(id: u16) -> Result<usize, WireError> {
                match id {
                    $( $id => Ok(payload_bound(
                        0 $($( + <codec!($ty $(, $codec)?) as Wire<$ty>>::CAP )+)?
                          $( + <$ity as Wire>::CAP )?
                    )), )+
                    found => Err(WireError::UnknownType { found }),
                }
            }

            /// Appends the payload: the fields' encodings back to back.
            pub(super) fn put_payload(&self, out: &mut Vec<u8>) {
                match self {
                    $( $name::$variant { $($( $field, )+)? $( 0: $inner )? } => put_row!(
                        out; $($via)?;
                        $($( $field: codec!($ty $(, $codec)?) as $ty ),+)?;
                        $( $inner: $ity )?
                    ), )+
                }
            }

            /// Reads the payload of a frame of type `id`.
            pub(super) fn take_payload(id: u16, cur: &mut Cursor<'_>) -> Result<Self, WireError> {
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
            /// Rows currently in flight on the shard: pending, mid-encode
            /// and stored.
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
            /// The version the last activation replaced: the rollback
            /// target until the post-swap guard passes or trips.
            prior: Option<ModelVersion>,
            /// Number of guard-triggered rollbacks since boot.
            rollbacks: u64,
            /// Whether the drift monitor currently flags the active model.
            drift: bool,
        },
    }
}

snapshot_codec!();

// ----------------------------------------------------------------------
// Frames
// ----------------------------------------------------------------------

/// Decodes exactly one frame: the header, the declared length against
/// the bytes present, the payload through `take_payload`, and no
/// trailing bytes.
pub(super) fn decode_frame<'a, T>(
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

/// Validates a frame header and returns `(message type, payload length)`.
pub(super) fn parse_header(header: &[u8]) -> Result<(u16, usize), WireError> {
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
