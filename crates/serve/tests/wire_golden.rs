//! Golden byte images of the wire protocol: one fixed instance of every
//! message type — plus the shapes whose layout branches (`Heartbeat`
//! with a stats piggyback, `VersionReply` with `staged` present and
//! absent, an empty and a 2-member membership list) — pinned as literal
//! `(wire type id, frame length, fnv1a64(encode()))` rows.
//!
//! `protocol_roundtrip.rs` is symmetric (encode∘decode), and the gauntlet
//! tapes record link verdicts, not frame bytes, so without this file a
//! change that swapped two `u64` fields of a message would pass every
//! test in the repo. Every field of every instance holds a distinct
//! value for that reason. The rows were measured on the hand-written
//! codec, before the message table replaced it — a change to the codec
//! may edit this file's imports, never its constants.

use orco_serve::protocol::{Message, HEADER_LEN};
use orco_serve::{
    ErrorCode, GatewayEntry, GatewayStats, ModelVersion, ShardRow, StatsSnapshot, WireError,
};
use orco_tensor::{fnv1a64, Matrix};

/// A matrix whose every element differs (and is not an integer, so its
/// f32 bit pattern exercises every byte lane).
fn matrix(rows: usize, cols: usize, salt: f32) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| salt + (r * cols + c) as f32 * 0.37 - 1.25)
}

/// A snapshot whose every field differs, with `shards` per-shard rows.
fn snapshot(shards: u16, salt: u64) -> StatsSnapshot {
    StatsSnapshot {
        shards,
        frames_in: salt + 1,
        frames_out: salt + 2,
        bytes_in: salt + 3,
        bytes_out: salt + 4,
        pushes: salt + 5,
        pulls: salt + 6,
        busy_rejections: salt + 7,
        batches: salt + 8,
        size_flushes: salt + 9,
        deadline_flushes: salt + 10,
        pull_flushes: salt + 11,
        drain_flushes: salt + 12,
        swap_flushes: salt + 13,
        max_batch_rows: salt + 14,
        queue_depth: salt + 15,
        stored_codes: salt + 16,
        streamed_rows: salt + 17,
        redirects: salt + 18,
        active_version: salt + 19,
        drift_trips: salt + 20,
        swaps: salt + 21,
        rollbacks: salt + 22,
        drift: salt % 2 == 1,
        batch_latency_p50_s: 0.0025 + salt as f64,
        batch_latency_p99_s: 0.0175 + salt as f64,
        per_shard: (0..u64::from(shards))
            .map(|s| ShardRow {
                frames_in: salt + 100 + 3 * s,
                frames_out: salt + 101 + 3 * s,
                batches: salt + 102 + 3 * s,
            })
            .collect(),
    }
}

fn version(id: u64, label: &str) -> ModelVersion {
    ModelVersion { id, label: label.into(), frame_dim: 784 + id as u32, code_dim: 32 + id as u32 }
}

fn members() -> Vec<GatewayEntry> {
    vec![
        GatewayEntry { id: 3, addr: "127.0.0.1:7201".into() },
        GatewayEntry { id: 9, addr: "des:1".into() },
    ]
}

/// The pinned instances, in [`GOLDEN`] order.
fn instances() -> Vec<Message> {
    vec![
        Message::Hello { client_id: 0x0101, nonce: 0x0202, mac: 0x0303 },
        Message::HelloAck {
            version: 5,
            shards: 4,
            frame_dim: 784,
            code_dim: 32,
            active_version: 0x0404,
        },
        Message::PushFrames { cluster_id: 0x0505, trace: 0x0606, frames: matrix(3, 5, 0.5) },
        Message::PushAck { accepted: 0x0707 },
        Message::Busy { queued: 0x0808, capacity: 0x0909 },
        Message::PullDecoded { cluster_id: 0x0A0A, max_frames: 0x0B0B, trace: 0x0C0C },
        Message::Decoded { cluster_id: 0x0D0D, version: 0x0E0E, frames: matrix(2, 7, 1.5) },
        Message::StatsRequest,
        Message::StatsReply(snapshot(2, 1000)),
        Message::Shutdown,
        Message::ShutdownAck,
        Message::ErrorReply { code: ErrorCode::Shape, detail: "frame width 3 != 784".into() },
        Message::Redirect { cluster_id: 0x0F0F, epoch: 0x1010, addr: "gw:2".into() },
        Message::DirectoryQuery,
        Message::DirectoryReply { epoch: 0x1111, members: members() },
        Message::Register { gateway_id: 0x1212, addr: "gw:3".into(), nonce: 0x1313, mac: 0x1414 },
        Message::RegisterAck { epoch: 0x1515, members: Vec::new() },
        Message::Heartbeat { gateway_id: 0x1616, epoch: 0x1717, stats: None },
        Message::HeartbeatAck { epoch: 0x1818, members: members() },
        Message::Subscribe { cluster_id: 0x1919, trace: 0x1A1A },
        Message::SubscribeAck { cluster_id: 0x1B1B, backlog: 0x1C1C },
        Message::Unsubscribe { cluster_id: 0x1D1D },
        Message::StreamFrames { cluster_id: 0x1E1E, version: 0x1F1F, frames: matrix(4, 3, 2.5) },
        Message::MetricsRequest,
        Message::MetricsReply { text: "orco_pushes_total 1\norco_pulls_total 2\n".into() },
        Message::FleetStatsQuery,
        Message::FleetStatsReply {
            epoch: 0x2020,
            evictions: 0x2121,
            gateways: vec![
                GatewayStats { id: 2, alive: false, snapshot: snapshot(1, 2001) },
                GatewayStats { id: 7, alive: true, snapshot: snapshot(3, 3000) },
            ],
        },
        Message::RolloutPropose {
            version: version(3, "retrain-a"),
            weight: matrix(2, 8, 3.5),
            bias: matrix(1, 2, 4.5),
            nonce: 0x2222,
            mac: 0x2323,
        },
        Message::RolloutAck { version_id: 0x2424, accepted: false, detail: "stale id".into() },
        Message::ActivateVersion { version_id: 0x2525, nonce: 0x2626, mac: 0x2727 },
        Message::VersionQuery,
        Message::VersionReply {
            active: version(4, "retrain-b"),
            staged: Some(version(5, "retrain-c")),
            prior: None,
            rollbacks: 0x2828,
            drift: true,
        },
        // The shapes whose layout branches.
        Message::Heartbeat { gateway_id: 0x2929, epoch: 0x2A2A, stats: Some(snapshot(2, 4001)) },
        Message::VersionReply {
            active: version(6, "seed"),
            staged: None,
            prior: Some(version(2, "")),
            rollbacks: 0x2B2B,
            drift: false,
        },
        Message::DirectoryReply { epoch: 0x2C2C, members: Vec::new() },
        Message::RegisterAck { epoch: 0x2D2D, members: members() },
        Message::RolloutAck { version_id: 0x2E2E, accepted: true, detail: String::new() },
    ]
}

/// `(wire type id, frame length, fnv1a64(encode()))`, one row per
/// [`instances`] entry.
#[rustfmt::skip]
const GOLDEN: [(u16, usize, u64); 37] = [
    (1, 36, 0x803d_dad9_ceac_f34a), // Hello
    (2, 32, 0xac45_5be9_5dd9_d765), // HelloAck
    (3, 96, 0x7e42_b9c2_72c3_5082), // PushFrames
    (4, 16, 0xb4be_9a32_8914_79d1), // PushAck
    (5, 20, 0x42e1_9c01_ca38_b994), // Busy
    (6, 32, 0x2602_baa6_44ec_b8bf), // PullDecoded
    (7, 92, 0xf539_f015_82b9_afd1), // Decoded
    (8, 12, 0xe78d_3849_46bb_29e3), // StatsRequest
    (9, 255, 0x9afd_b77c_dc7d_56c3), // StatsReply
    (10, 12, 0x2e60_6fe3_6ad7_9d71), // Shutdown
    (11, 12, 0x51ca_0bb0_7ce5_d738), // ShutdownAck
    (12, 38, 0x14f7_aa3f_52d1_3a34), // ErrorReply
    (13, 36, 0x655f_9981_e457_1baa), // Redirect
    (14, 12, 0xa0ba_00af_229e_b655), // DirectoryQuery
    (15, 67, 0xdd9c_e31d_de07_e8ee), // DirectoryReply
    (16, 44, 0xd859_f4c7_77be_c330), // Register
    (17, 24, 0xf231_a201_0ef4_2a0c), // RegisterAck
    (18, 29, 0x2d56_04c4_5761_5dae), // Heartbeat
    (19, 67, 0xf6c8_9fc9_a9cd_2d48), // HeartbeatAck
    (20, 28, 0x0e0f_0498_463b_4201), // Subscribe
    (21, 24, 0xff2a_e5cb_bcc9_ecf0), // SubscribeAck
    (22, 20, 0x8ebf_40a5_1ae3_3327), // Unsubscribe
    (23, 84, 0x085c_998b_a2e0_a38e), // StreamFrames
    (24, 12, 0x1e26_f51a_679e_c653), // MetricsRequest
    (25, 55, 0x7314_5425_f06d_e23d), // MetricsReply
    (26, 12, 0x64fa_2cb4_8bbb_39e1), // FleetStatsQuery
    (27, 536, 0xc084_8b2e_b640_e69e), // FleetStatsReply
    (28, 145, 0xcab2_122f_e140_8fe5), // RolloutPropose
    (29, 33, 0xb7dc_dbfc_5f7a_6c33), // RolloutAck
    (30, 36, 0xa1d1_faa6_d338_afc5), // ActivateVersion
    (31, 12, 0xfabd_594d_5590_8c8c), // VersionQuery
    (32, 81, 0x1945_e1a1_3d68_14a4), // VersionReply
    (18, 272, 0x451f_48a7_6ff4_8d25), // Heartbeat
    (32, 67, 0xa84b_d7d9_29a1_e758), // VersionReply
    (15, 24, 0x2b04_d584_6475_8588), // DirectoryReply
    (17, 67, 0xaced_5735_eec8_2dd8), // RegisterAck
    (29, 25, 0x4043_3ab1_3f7b_e366), // RolloutAck
];

fn wire_id(frame: &[u8]) -> u16 {
    u16::from_le_bytes([frame[6], frame[7]])
}

#[test]
fn every_instance_encodes_to_its_golden_bytes() {
    let instances = instances();
    assert_eq!(instances.len(), GOLDEN.len(), "one golden row per instance");
    for (msg, &(id, len, fnv)) in instances.iter().zip(&GOLDEN) {
        let frame = msg.encode();
        assert_eq!(
            (wire_id(&frame), frame.len(), fnv1a64(&frame)),
            (id, len, fnv),
            "{}: the wire image moved",
            msg.kind()
        );
        let declared = u32::from_le_bytes([frame[8], frame[9], frame[10], frame[11]]) as usize;
        assert_eq!(declared, len - HEADER_LEN, "{}: header length field", msg.kind());
    }
}

#[test]
fn every_golden_frame_decodes_back_to_its_instance() {
    for msg in instances() {
        assert_eq!(Message::decode(&msg.encode()).as_ref(), Ok(&msg), "{}", msg.kind());
    }
}

/// What the retired `wire-exhaustive` lint asked of a comment, asked of
/// the bytes: every message type the table declares has a pinned image.
/// A new table row fails here until its golden row is added.
#[test]
fn every_declared_message_type_has_a_golden_row() {
    let pinned: Vec<(u16, &str)> = instances()
        .iter()
        .zip(&GOLDEN)
        .map(|(msg, &(id, _, _))| {
            assert_eq!(wire_id(&msg.encode()), id, "{}: header bytes 6..8", msg.kind());
            (id, msg.kind())
        })
        .collect();
    for row in Message::TYPES {
        assert!(pinned.contains(row), "message type {row:?} has no golden row");
    }
}

/// The TCP server ends a connection's read loop on `Shutdown`'s type id,
/// which it takes from the message table: the table's id is the pinned
/// one, so a renumbering shows here, not as a server that never stops.
#[test]
fn the_table_id_of_shutdown_is_its_golden_one() {
    let row = instances().iter().position(|m| *m == Message::Shutdown).expect("an instance");
    let table = Message::TYPES.iter().find(|(_, kind)| *kind == Message::Shutdown.kind());
    assert_eq!(table.map(|&(id, _)| id), Some(GOLDEN[row].0));
}

/// One byte too many *inside* the payload (the header's length field
/// patched to cover it) is a typed error for every message: past the
/// type's bound, or trailing bytes after the last field — never `Ok`.
#[test]
fn a_byte_appended_inside_the_payload_is_a_typed_error() {
    for msg in instances() {
        let mut frame = msg.encode();
        frame.push(0);
        let declared = (frame.len() - HEADER_LEN) as u32;
        frame[8..12].copy_from_slice(&declared.to_le_bytes());
        let err = Message::decode(&frame).expect_err("an overlong payload must not decode");
        assert!(
            matches!(err, WireError::Oversized { .. } | WireError::Corrupt { .. }),
            "{}: {err:?}",
            msg.kind()
        );
    }
}
