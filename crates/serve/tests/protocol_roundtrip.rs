//! Property tests over the wire protocol: arbitrary messages round-trip
//! bit-identically, and every malformed frame is rejected with a typed
//! [`WireError`] — never a panic, never a silent misparse.

use std::collections::BTreeSet;

use orco_serve::protocol::{Message, HEADER_LEN};
use orco_serve::{
    ErrorCode, GatewayEntry, GatewayStats, ModelVersion, ShardRow, StatsSnapshot, WireError,
    MAX_LABEL,
};
use orco_tensor::Matrix;
use proptest::prelude::*;
use proptest::BoxedStrategy;

/// Matrices whose element *bit patterns* span the full u32 range —
/// including NaNs, infinities, and denormals — because the wire contract
/// is bit-identity, not numeric equality.
fn any_bits_matrix() -> BoxedStrategy<Matrix> {
    (0usize..4, 0usize..6)
        .prop_flat_map(|(r, c)| {
            prop::collection::vec(0u32..=u32::MAX, r * c).prop_map(move |bits| {
                Matrix::from_vec(r, c, bits.into_iter().map(f32::from_bits).collect())
                    .expect("length matches")
            })
        })
        .boxed()
}

/// Matrices of ordinary finite floats, for value-level equality checks.
fn finite_matrix() -> BoxedStrategy<Matrix> {
    (1usize..4, 1usize..6)
        .prop_flat_map(|(r, c)| {
            prop::collection::vec(-1.0e3f32..1.0e3, r * c)
                .prop_map(move |data| Matrix::from_vec(r, c, data).expect("length matches"))
        })
        .boxed()
}

/// Latency percentiles over the full u64 bit space — NaNs, infinities,
/// and denormals included — because the wire contract is bit-identity.
fn any_f64_bits() -> BoxedStrategy<f64> {
    any::<u64>().prop_map(f64::from_bits).boxed()
}

fn any_shard_rows() -> BoxedStrategy<Vec<ShardRow>> {
    prop::collection::vec(
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(frames_in, frames_out, batches)| {
            ShardRow { frames_in, frames_out, batches }
        }),
        0..8,
    )
    .boxed()
}

fn any_snapshot() -> BoxedStrategy<StatsSnapshot> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>()),
        (any_f64_bits(), any_f64_bits(), any_shard_rows()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()),
    )
        .prop_map(|(a, b, c, d, e, f)| StatsSnapshot {
            shards: d.2.len() as u16,
            frames_in: a.0,
            frames_out: a.1,
            bytes_in: a.2,
            bytes_out: a.3,
            pushes: a.4,
            pulls: b.0,
            busy_rejections: b.1,
            batches: b.2,
            size_flushes: e.0,
            deadline_flushes: b.3,
            pull_flushes: e.1,
            drain_flushes: e.2,
            swap_flushes: f.0,
            max_batch_rows: b.4,
            queue_depth: c.0,
            stored_codes: c.1,
            batch_latency_p50_s: d.0,
            batch_latency_p99_s: d.1,
            streamed_rows: e.3,
            redirects: e.4,
            active_version: f.1,
            drift_trips: f.2,
            swaps: f.3,
            rollbacks: f.4,
            drift: f.5,
            per_shard: d.2,
        })
        .boxed()
}

fn any_gateway_stats() -> BoxedStrategy<Vec<GatewayStats>> {
    prop::collection::vec(
        (any::<u64>(), 0u8..2, any_snapshot()).prop_map(|(id, alive, snapshot)| GatewayStats {
            id,
            alive: alive == 1,
            snapshot,
        }),
        0..4,
    )
    .boxed()
}

/// Gateway addresses: short printable ASCII, within `MAX_ADDR`.
fn any_addr() -> BoxedStrategy<String> {
    prop::collection::vec(0x20u8..=0x7e, 0..32)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii is utf-8"))
        .boxed()
}

fn any_members() -> BoxedStrategy<Vec<GatewayEntry>> {
    prop::collection::vec(
        (any::<u64>(), any_addr()).prop_map(|(id, addr)| GatewayEntry { id, addr }),
        0..6,
    )
    .boxed()
}

/// Model versions: any id/dims, labels up to the wire's `MAX_LABEL`.
fn any_model_version() -> BoxedStrategy<ModelVersion> {
    (
        any::<u64>(),
        prop::collection::vec(0x20u8..=0x7e, 0..MAX_LABEL),
        0u32..=u32::MAX,
        0u32..=u32::MAX,
    )
        .prop_map(|(id, bytes, frame_dim, code_dim)| ModelVersion {
            id,
            label: String::from_utf8(bytes).expect("printable ascii is utf-8"),
            frame_dim,
            code_dim,
        })
        .boxed()
}

/// `Option<ModelVersion>` via a presence flag (the proptest shim has no
/// `prop::option` module).
fn maybe_model_version() -> BoxedStrategy<Option<ModelVersion>> {
    (any::<bool>(), any_model_version()).prop_map(|(some, v)| some.then_some(v)).boxed()
}

fn any_message() -> BoxedStrategy<Message> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(client_id, nonce, mac)| Message::Hello { client_id, nonce, mac }),
        (0u16..=u16::MAX, 0u16..=u16::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX, any::<u64>())
            .prop_map(|(version, shards, frame_dim, code_dim, active_version)| {
                Message::HelloAck { version, shards, frame_dim, code_dim, active_version }
            }),
        (any::<u64>(), any::<u64>(), any_bits_matrix()).prop_map(|(cluster_id, trace, frames)| {
            Message::PushFrames { cluster_id, trace, frames }
        }),
        (0u32..=u32::MAX).prop_map(|accepted| Message::PushAck { accepted }),
        (0u32..=u32::MAX, 0u32..=u32::MAX)
            .prop_map(|(queued, capacity)| Message::Busy { queued, capacity }),
        (any::<u64>(), 0u32..=u32::MAX, any::<u64>()).prop_map(
            |(cluster_id, max_frames, trace)| Message::PullDecoded {
                cluster_id,
                max_frames,
                trace
            }
        ),
        (any::<u64>(), any::<u64>(), any_bits_matrix()).prop_map(
            |(cluster_id, version, frames)| Message::Decoded { cluster_id, version, frames }
        ),
        Just(Message::StatsRequest),
        any_snapshot().prop_map(Message::StatsReply),
        Just(Message::Shutdown),
        Just(Message::ShutdownAck),
        (0usize..5, prop::collection::vec(0u8..=127, 0..24)).prop_map(|(code, bytes)| {
            let code = [
                ErrorCode::BadRequest,
                ErrorCode::Shape,
                ErrorCode::ShuttingDown,
                ErrorCode::Internal,
                ErrorCode::Unauthorized,
            ][code];
            let detail = String::from_utf8(bytes).expect("ascii is utf-8");
            Message::ErrorReply { code, detail }
        }),
        (any::<u64>(), any::<u64>(), any_addr())
            .prop_map(|(cluster_id, epoch, addr)| Message::Redirect { cluster_id, epoch, addr }),
        Just(Message::DirectoryQuery),
        (any::<u64>(), any_members())
            .prop_map(|(epoch, members)| Message::DirectoryReply { epoch, members }),
        (any::<u64>(), any_addr(), any::<u64>(), any::<u64>()).prop_map(
            |(gateway_id, addr, nonce, mac)| Message::Register { gateway_id, addr, nonce, mac }
        ),
        (any::<u64>(), any_members())
            .prop_map(|(epoch, members)| Message::RegisterAck { epoch, members }),
        (any::<u64>(), any::<u64>()).prop_map(|(gateway_id, epoch)| Message::Heartbeat {
            gateway_id,
            epoch,
            stats: None
        }),
        (any::<u64>(), any::<u64>(), any_snapshot()).prop_map(|(gateway_id, epoch, snap)| {
            Message::Heartbeat { gateway_id, epoch, stats: Some(snap) }
        }),
        (any::<u64>(), any_members())
            .prop_map(|(epoch, members)| Message::HeartbeatAck { epoch, members }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(cluster_id, trace)| Message::Subscribe { cluster_id, trace }),
        (any::<u64>(), 0u32..=u32::MAX)
            .prop_map(|(cluster_id, backlog)| Message::SubscribeAck { cluster_id, backlog }),
        any::<u64>().prop_map(|cluster_id| Message::Unsubscribe { cluster_id }),
        (any::<u64>(), any::<u64>(), any_bits_matrix()).prop_map(
            |(cluster_id, version, frames)| Message::StreamFrames { cluster_id, version, frames }
        ),
        Just(Message::MetricsRequest),
        any_addr().prop_map(|text| Message::MetricsReply { text }),
        Just(Message::FleetStatsQuery),
        (any::<u64>(), any::<u64>(), any_gateway_stats()).prop_map(
            |(epoch, evictions, gateways)| Message::FleetStatsReply { epoch, evictions, gateways }
        ),
        (any_model_version(), any_bits_matrix(), any_bits_matrix(), any::<u64>(), any::<u64>())
            .prop_map(|(version, weight, bias, nonce, mac)| Message::RolloutPropose {
                version,
                weight,
                bias,
                nonce,
                mac
            }),
        (any::<u64>(), any::<bool>(), any_addr()).prop_map(|(version_id, accepted, detail)| {
            Message::RolloutAck { version_id, accepted, detail }
        }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(version_id, nonce, mac)| {
            Message::ActivateVersion { version_id, nonce, mac }
        }),
        Just(Message::VersionQuery),
        (
            any_model_version(),
            maybe_model_version(),
            maybe_model_version(),
            any::<u64>(),
            any::<bool>()
        )
            .prop_map(|(active, staged, prior, rollbacks, drift)| Message::VersionReply {
                active,
                staged,
                prior,
                rollbacks,
                drift
            }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode → encode is the identity on bytes, for every
    /// message kind and any f32 bit pattern (NaNs included).
    #[test]
    fn roundtrip_is_bit_identical(msg in any_message()) {
        let frame = msg.encode();
        let decoded = Message::decode(&frame).expect("own encoding decodes");
        prop_assert_eq!(decoded.kind(), msg.kind());
        prop_assert_eq!(decoded.encode(), frame, "re-encoding changed bytes");
    }

    /// For finite payloads the decoded *value* equals the original too.
    #[test]
    fn roundtrip_preserves_values(cluster_id in any::<u64>(), trace in any::<u64>(), frames in finite_matrix()) {
        let msg = Message::PushFrames { cluster_id, trace, frames: frames.clone() };
        let decoded = Message::decode(&msg.encode()).expect("own encoding decodes");
        prop_assert_eq!(decoded, msg);
    }

    /// A `StatsSnapshot` survives the wire over *any* f64 bit pattern in
    /// its latency percentiles — NaNs and infinities included — compared
    /// at the bit level, with the per-shard rows intact.
    #[test]
    fn stats_snapshot_roundtrips_any_f64_bits(snap in any_snapshot()) {
        let frame = Message::StatsReply(snap.clone()).encode();
        let decoded = Message::decode(&frame).expect("own encoding decodes");
        match decoded {
            Message::StatsReply(got) => {
                prop_assert_eq!(
                    got.batch_latency_p50_s.to_bits(),
                    snap.batch_latency_p50_s.to_bits(),
                    "p50 bits changed on the wire"
                );
                prop_assert_eq!(
                    got.batch_latency_p99_s.to_bits(),
                    snap.batch_latency_p99_s.to_bits(),
                    "p99 bits changed on the wire"
                );
                prop_assert_eq!(got.per_shard, snap.per_shard);
                prop_assert_eq!(got.shards, snap.shards);
            }
            other => prop_assert!(false, "decoded to {:?}", other.kind()),
        }
    }

    /// Every strict prefix of a valid frame is rejected with a typed
    /// error — truncation can never misparse.
    #[test]
    fn every_truncation_rejected(msg in any_message(), frac in 0.0f64..1.0) {
        let frame = msg.encode();
        let cut = ((frame.len() as f64) * frac) as usize;
        prop_assume!(cut < frame.len());
        let err = Message::decode(&frame[..cut]).expect_err("truncated frame must not decode");
        prop_assert!(
            matches!(
                err,
                WireError::Truncated { .. } | WireError::LengthMismatch { .. }
            ),
            "unexpected error for cut at {}: {:?}", cut, err
        );
    }

    /// Every strict prefix of a valid payload, under a header re-stamped
    /// to its length, is `Truncated`: the header check passes, so the
    /// message's own decoder meets the cut (`every_truncation_rejected`
    /// stops at the header's length check). This is what guards the
    /// decoders the message table and `snapshot_table!` generate: clippy
    /// does not lint `unwrap` or `expect` inside a local macro's expansion.
    #[test]
    fn every_payload_cut_is_truncated_under_a_restamped_header(msg in any_message()) {
        let frame = msg.encode();
        let payload = frame.len() - HEADER_LEN;
        for cut in 0..payload {
            let mut cut_frame = frame[..HEADER_LEN + cut].to_vec();
            cut_frame[8..12].copy_from_slice(&(cut as u32).to_le_bytes());
            let err = Message::decode(&cut_frame).expect_err("a cut payload must not decode");
            prop_assert!(
                matches!(err, WireError::Truncated { .. }),
                "{} cut to {} of {} payload bytes: {:?}", msg.kind(), cut, payload, err
            );
        }
    }

    /// Flipping any single header byte is caught by a typed error or, at
    /// worst (a corrupted length that still fits), a clean parse of the
    /// same kind — never a panic.
    #[test]
    fn corrupt_headers_never_panic(msg in any_message(), byte in 0usize..HEADER_LEN, bit in 0u8..8) {
        let mut frame = msg.encode();
        frame[byte] ^= 1 << bit;
        let _ = Message::decode(&frame); // must return, not panic
    }

    /// Appending garbage after a frame is a length mismatch.
    #[test]
    fn trailing_garbage_rejected(msg in any_message(), extra in prop::collection::vec(any::<u8>(), 1..16)) {
        let mut frame = msg.encode();
        frame.extend_from_slice(&extra);
        let err = Message::decode(&frame).expect_err("trailing bytes must not decode");
        prop_assert!(matches!(err, WireError::LengthMismatch { .. }), "got {:?}", err);
    }
}

/// f32 bit patterns a vectorised conversion could mishandle: signed
/// zeros, the subnormal extremes, infinities, and quiet and signalling
/// NaNs of either sign with payloads.
const EDGE_BITS: [u32; 12] = [
    0x0000_0000, // +0.0
    0x8000_0000, // -0.0
    0x0000_0001, // smallest subnormal
    0x007f_ffff, // largest subnormal
    0x8040_0001, // a negative subnormal
    0x7f80_0000, // +inf
    0xff80_0000, // -inf
    0x7fc0_0000, // the canonical quiet NaN
    0x7fc1_2345, // a quiet NaN with a payload
    0xffe5_4321, // a negative quiet NaN with a payload
    0x7f80_0001, // a signalling NaN
    0xffbf_ffff, // a negative signalling NaN, every payload bit set
];

/// Matrix shapes around the codec's chunking: empty both ways, 1 × 1,
/// single rows of 1..=33 floats, and small blocks.
fn codec_shape() -> BoxedStrategy<(usize, usize)> {
    prop_oneof![
        (0usize..=33).prop_map(|cols| (0usize, cols)),
        (0usize..=33).prop_map(|rows| (rows, 0usize)),
        Just((1usize, 1usize)),
        (1usize..=33).prop_map(|cols| (1usize, cols)),
        (1usize..=5, 1usize..=9),
    ]
    .boxed()
}

/// Element bits: one in three an edge pattern, the rest anything.
fn codec_bits() -> BoxedStrategy<u32> {
    prop_oneof![(0..EDGE_BITS.len()).prop_map(|i| EDGE_BITS[i]), 0u32..=u32::MAX, 0u32..=u32::MAX,]
        .boxed()
}

fn codec_matrix() -> BoxedStrategy<Matrix> {
    codec_shape()
        .prop_flat_map(|(rows, cols)| {
            prop::collection::vec(codec_bits(), rows * cols).prop_map(move |bits| {
                Matrix::from_vec(rows, cols, bits.into_iter().map(f32::from_bits).collect())
                    .expect("length matches")
            })
        })
        .boxed()
}

/// The reference matrix encoder, one element at a time: what the wire
/// format says a matrix is.
fn reference_matrix_bytes(m: &Matrix) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(m.rows() as u32).to_le_bytes());
    out.extend_from_slice(&(m.cols() as u32).to_le_bytes());
    for x in m.as_slice() {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The matrix codec against the per-element reference: a push and a
    /// pull reply encode their matrix to exactly the reference's bytes
    /// after their two `u64` fields, and decode back to the same bit
    /// patterns, NaN payloads and signed zeros included.
    #[test]
    fn the_matrix_codec_matches_the_per_element_reference(
        m in codec_matrix(), a in any::<u64>(), b in any::<u64>()
    ) {
        let want = reference_matrix_bytes(&m);
        for msg in [
            Message::PushFrames { cluster_id: a, trace: b, frames: m.clone() },
            Message::Decoded { cluster_id: a, version: b, frames: m.clone() },
        ] {
            let frame = msg.encode();
            prop_assert_eq!(frame.len(), HEADER_LEN + 16 + want.len());
            prop_assert_eq!(&frame[HEADER_LEN..HEADER_LEN + 8], &a.to_le_bytes()[..]);
            prop_assert_eq!(&frame[HEADER_LEN + 8..HEADER_LEN + 16], &b.to_le_bytes()[..]);
            prop_assert_eq!(&frame[HEADER_LEN + 16..], &want[..], "{} bytes", msg.kind());
            match Message::decode(&frame).expect("own encoding decodes") {
                Message::PushFrames { frames, .. } | Message::Decoded { frames, .. } => {
                    prop_assert_eq!(frames.shape(), m.shape());
                    prop_assert_eq!(bits(&frames), bits(&m), "{} bits", msg.kind());
                }
                other => prop_assert!(false, "decoded to {}", other.kind()),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// The generator above is what gives the other properties their
    /// reach, so it must produce every message the protocol declares: a
    /// row added to the message table fails here until `any_message()`
    /// learns to build it.
    #[test]
    fn the_generator_covers_every_message_type(msgs in prop::collection::vec(any_message(), 2048)) {
        let produced: BTreeSet<&str> = msgs.iter().map(Message::kind).collect();
        for &(id, kind) in Message::TYPES {
            prop_assert!(produced.contains(kind), "any_message() never produced {} (type {})", kind, id);
        }
    }
}
