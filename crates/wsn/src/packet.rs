//! Packets and protocol message kinds.

use crate::node::NodeId;

/// Fixed per-packet header overhead in bytes (PHY + MAC + NWK headers of an
/// 802.15.4/6LoWPAN-class stack).
pub const HEADER_BYTES: u64 = 21;

/// Maximum payload carried by one radio frame, bytes (802.15.4-class MTU
/// after headers).
pub const MAX_PAYLOAD_BYTES: u64 = 96;

/// What a packet carries — the OrcoDCS protocol message types.
///
/// `Ord` follows declaration order and is load-bearing: the accounting
/// ledger keys its per-kind byte breakdown by it, so reports enumerate
/// kinds in this stable order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum PacketKind {
    /// Raw sensing data (intra-cluster raw aggregation, paper §III-A).
    RawData,
    /// Latent vectors travelling aggregator → edge during training (§III-B).
    LatentVector,
    /// Reconstructions travelling edge → aggregator during training (§III-B).
    Reconstruction,
    /// Gradient/update messages for the encoder (§III-B training procedure).
    ModelUpdate,
    /// Encoder columns broadcast to IoT devices (§III-C distribution).
    EncoderColumn,
    /// Compressed latent elements hopping device → device → aggregator
    /// (§III-C chain aggregation).
    CompressedElement,
    /// Control/trigger messages (fine-tuning monitor, §III-D).
    Control,
}

/// One logical transmission (may span many radio frames).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Sending node.
    pub(crate) src: NodeId,
    /// Receiving node.
    pub(crate) dst: NodeId,
    /// Payload size in bytes, excluding headers.
    pub(crate) payload_bytes: u64,
    /// Message type.
    pub(crate) kind: PacketKind,
}

impl Packet {
    /// Creates a packet description.
    #[must_use]
    pub fn new(src: NodeId, dst: NodeId, payload_bytes: u64, kind: PacketKind) -> Self {
        Self { src, dst, payload_bytes, kind }
    }

    /// Number of radio frames needed to carry the payload.
    #[must_use]
    pub fn frame_count(&self) -> u64 {
        if self.payload_bytes == 0 {
            1 // control frame
        } else {
            self.payload_bytes.div_ceil(MAX_PAYLOAD_BYTES)
        }
    }

    /// Total bytes on air including per-frame headers.
    #[must_use]
    pub(crate) fn wire_bytes(&self) -> u64 {
        self.payload_bytes + self.frame_count() * HEADER_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_payload_is_one_frame() {
        let p = Packet::new(NodeId(0), NodeId(1), 50, PacketKind::RawData);
        assert_eq!(p.frame_count(), 1);
        assert_eq!(p.wire_bytes(), 50 + HEADER_BYTES);
    }

    #[test]
    fn large_payload_fragments() {
        let p = Packet::new(NodeId(0), NodeId(1), 96 * 3 + 1, PacketKind::LatentVector);
        assert_eq!(p.frame_count(), 4);
        assert_eq!(p.wire_bytes(), 289 + 4 * HEADER_BYTES);
    }

    #[test]
    fn empty_payload_still_costs_a_header() {
        let p = Packet::new(NodeId(0), NodeId(1), 0, PacketKind::Control);
        assert_eq!(p.frame_count(), 1);
        assert_eq!(p.wire_bytes(), HEADER_BYTES);
    }

    #[test]
    fn exact_multiple_does_not_over_fragment() {
        let p = Packet::new(NodeId(0), NodeId(1), 96 * 2, PacketKind::RawData);
        assert_eq!(p.frame_count(), 2);
    }
}
