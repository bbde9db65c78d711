//! Wire messages and their byte framing.
//!
//! The runtime never hands a structured label across a channel: every
//! message is serialized to bits by the sender and decoded by the
//! receiver with the instance-wide codec parameters. This keeps the
//! bit accounting honest — the bits charged per message are exactly the
//! bits a real network would carry, so the measured per-edge cost can
//! be compared against the paper's `O(log n · log W)` label bound.
//!
//! Two message families share the format:
//!
//! * the one-round **verification** protocol ([`WireMsg::Label`] /
//!   [`WireMsg::Ack`]), unchanged since the first runtime;
//! * the **construction** protocol ([`WireMsg::Compute`] /
//!   [`WireMsg::ComputeAck`]), which carries the GHS fragment messages
//!   (CONNECT/TEST/REPORT/…) and the distributed-marker messages over a
//!   per-edge sequence-numbered reliable channel. The GHS phase and the
//!   marker phase use distinct tags so the router can split
//!   [`MessageCost`](mstv_core::MessageCost) by phase without decoding
//!   payloads.

use std::sync::Arc;

use mstv_labels::BitString;

use crate::error::NetError;

/// The largest label payload a byte frame can carry: the frame's length
/// field is a `u32` bit count. [`WireMsg::to_frame`] refuses longer
/// payloads with [`NetError::FrameTooLarge`] instead of silently
/// truncating the length.
///
/// This is the workspace-wide framing bound (shared with the
/// `mstv-store` query protocol, which counts bytes against
/// [`mstv_labels::MAX_FRAME_BYTES`]); it lives in `mstv-labels` and is
/// re-exported here so existing `mstv_net::MAX_FRAME_BITS` call sites
/// keep working.
pub use mstv_labels::MAX_FRAME_BITS;

/// Checks a payload length against [`MAX_FRAME_BITS`], returning the
/// length as the `u32` the frame header stores.
fn frame_bit_len(bits: usize) -> Result<u32, NetError> {
    u32::try_from(bits).map_err(|_| NetError::FrameTooLarge { bits })
}

/// A message of the verification or construction protocol, as it
/// travels on a link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMsg {
    /// The sender's proof label, bit-serialized with the instance-wide
    /// codecs. Receivers decode it themselves; a frame that fails to
    /// decode is a verifier-visible fault, not a panic.
    Label {
        /// The label bits. Shared (`Arc`) because one broadcast clones
        /// the same payload once per port, the link may duplicate it,
        /// the holdback buffer, the pool's queues, and the event log
        /// each hold copies — at 100k nodes the sharing is most of the
        /// difference between a 5.6 KB/node and a sub-2 KB/node run.
        /// Sharing is unobservable on the wire: framing, equality, and
        /// the text log all go through the underlying bits.
        bits: Arc<BitString>,
        /// Set when the sender does not hold this neighbor's label —
        /// a pull request. A receiver that already delivered its label
        /// (so this frame is a duplicate) answers a refresh frame by
        /// re-sending its own label; this is what lets a
        /// crash-restarted node re-collect labels its neighbors
        /// believe were long since delivered.
        refresh: bool,
    },
    /// Acknowledgement of a received label, used only to suppress
    /// retransmissions on lossy links.
    Ack,
    /// A construction-protocol payload riding the per-edge reliable
    /// channel: GHS fragment messages (`marker == false`) or
    /// distributed-marker messages (`marker == true`), already
    /// bit-serialized by [`compute::fragment`](crate::compute).
    Compute {
        /// `false` = GHS phase (CONNECT/INITIATE/TEST/…), `true` =
        /// marker phase (span/convergecast/announce/…). Drives the
        /// per-phase cost split without a payload decode.
        marker: bool,
        /// Per-edge, per-direction sequence number: the receiver
        /// delivers in sequence order, exactly once, which restores
        /// the FIFO exactly-once channel GHS assumes on top of a
        /// lossy, reordering, duplicating link.
        seq: u32,
        /// The serialized protocol message.
        bits: BitString,
    },
    /// Cumulative acknowledgement for the reliable channel: `seq` is
    /// the receiver's next expected sequence number; everything below
    /// it is delivered and may be dropped from the sender's outbox.
    ComputeAck {
        /// Phase of the frame being acknowledged (cost accounting).
        marker: bool,
        /// Next expected sequence number.
        seq: u32,
    },
}

/// Phase classes for the per-phase cost split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PhaseClass {
    /// GHS fragment protocol (phase A).
    Ghs,
    /// Distributed marker (phase B).
    Marker,
    /// Label-exchange verification (phase C, and every pure
    /// verification run).
    Verify,
}

impl WireMsg {
    /// Bits charged to the communication cost for this message: the
    /// exact payload length plus a small kind tag — two bits for labels
    /// and one for acks (the historical three-kind tag space, kept so
    /// recorded verification runs and benches stay comparable), three
    /// bits for the construction kinds — plus the 32-bit sequence
    /// number a reliable channel genuinely has to carry. Transport
    /// framing (the byte-aligned length field of [`WireMsg::to_frame`])
    /// is bookkeeping of the in-process harness and is not charged,
    /// mirroring how the synchronous simulator charges only payload
    /// bits.
    pub fn wire_bits(&self) -> u64 {
        match self {
            WireMsg::Label { bits, .. } => 2 + bits.len() as u64,
            WireMsg::Ack => 1,
            WireMsg::Compute { bits, .. } => 3 + 32 + bits.len() as u64,
            WireMsg::ComputeAck { .. } => 3 + 32,
        }
    }

    /// Which phase this message is charged to.
    pub(crate) fn phase_class(&self) -> PhaseClass {
        match self {
            WireMsg::Label { .. } | WireMsg::Ack => PhaseClass::Verify,
            WireMsg::Compute { marker, .. } | WireMsg::ComputeAck { marker, .. } => {
                if *marker {
                    PhaseClass::Marker
                } else {
                    PhaseClass::Ghs
                }
            }
        }
    }

    /// Serializes the message to a self-delimiting byte frame:
    ///
    /// * `[0x00]` — ack;
    /// * `[0x01 | 0x02, bit-length u32 LE, payload]` — label
    ///   (plain | refresh);
    /// * `[0x03 | 0x04, seq u32 LE, bit-length u32 LE, payload]` —
    ///   construction payload (GHS | marker);
    /// * `[0x05 | 0x06, seq u32 LE]` — construction ack (GHS | marker).
    ///
    /// # Errors
    ///
    /// [`NetError::FrameTooLarge`] if the payload exceeds
    /// [`MAX_FRAME_BITS`] — the length header is a `u32` bit count, and
    /// a longer payload would round-trip corrupted rather than fail.
    pub fn to_frame(&self) -> Result<Vec<u8>, NetError> {
        match self {
            WireMsg::Ack => Ok(vec![0x00]),
            WireMsg::Label { bits, refresh } => {
                let bit_len = frame_bit_len(bits.len())?;
                let mut out = Vec::with_capacity(5 + bits.len() / 8 + 1);
                out.push(if *refresh { 0x02 } else { 0x01 });
                out.extend_from_slice(&bit_len.to_le_bytes());
                out.extend_from_slice(&bits.to_bytes());
                Ok(out)
            }
            WireMsg::Compute { marker, seq, bits } => {
                let bit_len = frame_bit_len(bits.len())?;
                let mut out = Vec::with_capacity(9 + bits.len() / 8 + 1);
                out.push(if *marker { 0x04 } else { 0x03 });
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&bit_len.to_le_bytes());
                out.extend_from_slice(&bits.to_bytes());
                Ok(out)
            }
            WireMsg::ComputeAck { marker, seq } => {
                let mut out = Vec::with_capacity(5);
                out.push(if *marker { 0x06 } else { 0x05 });
                out.extend_from_slice(&seq.to_le_bytes());
                Ok(out)
            }
        }
    }

    /// Parses a frame produced by [`WireMsg::to_frame`].
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownMsgKind`] for a tag this build does not know
    /// (a capture from a newer protocol revision must fail loudly, not
    /// misparse); [`NetError::BadFrame`] for a structurally broken
    /// frame (short buffer, trailing bytes, dirty padding bits).
    pub fn from_frame(bytes: &[u8]) -> Result<WireMsg, NetError> {
        let bad = |reason: &str| NetError::BadFrame {
            reason: reason.to_string(),
        };
        let payload_of = |rest: &[u8]| -> Result<BitString, NetError> {
            let (len_bytes, payload) = rest
                .split_first_chunk::<4>()
                .ok_or_else(|| bad("truncated length field"))?;
            let bit_len = u32::from_le_bytes(*len_bytes) as usize;
            BitString::from_bytes(payload, bit_len)
                .ok_or_else(|| bad("payload does not match its length field"))
        };
        fn seq_of(rest: &[u8]) -> Result<(u32, &[u8]), NetError> {
            let (seq_bytes, tail) = rest.split_first_chunk::<4>().ok_or(NetError::BadFrame {
                reason: "truncated sequence field".to_string(),
            })?;
            Ok((u32::from_le_bytes(*seq_bytes), tail))
        }
        match bytes.split_first().ok_or_else(|| bad("empty frame"))? {
            (0x00, []) => Ok(WireMsg::Ack),
            (0x00, _) => Err(bad("trailing bytes after ack")),
            (tag @ (0x01 | 0x02), rest) => Ok(WireMsg::Label {
                bits: Arc::new(payload_of(rest)?),
                refresh: *tag == 0x02,
            }),
            (tag @ (0x03 | 0x04), rest) => {
                let (seq, tail) = seq_of(rest)?;
                Ok(WireMsg::Compute {
                    marker: *tag == 0x04,
                    seq,
                    bits: payload_of(tail)?,
                })
            }
            (tag @ (0x05 | 0x06), rest) => {
                let (seq, tail) = seq_of(rest)?;
                if !tail.is_empty() {
                    return Err(bad("trailing bytes after construction ack"));
                }
                Ok(WireMsg::ComputeAck {
                    marker: *tag == 0x06,
                    seq,
                })
            }
            (tag, _) => Err(NetError::UnknownMsgKind { tag: *tag }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut bits = BitString::new();
        bits.push_bits(0b101_1001_0110, 11);
        for refresh in [false, true] {
            let msg = WireMsg::Label {
                bits: Arc::new(bits.clone()),
                refresh,
            };
            assert_eq!(
                WireMsg::from_frame(&msg.to_frame().expect("payload fits")),
                Ok(msg)
            );
        }
        assert_eq!(
            WireMsg::from_frame(&WireMsg::Ack.to_frame().expect("acks always frame")),
            Ok(WireMsg::Ack)
        );
        for marker in [false, true] {
            let msg = WireMsg::Compute {
                marker,
                seq: 0xfeed_0042,
                bits: bits.clone(),
            };
            assert_eq!(
                WireMsg::from_frame(&msg.to_frame().expect("payload fits")),
                Ok(msg)
            );
            let ack = WireMsg::ComputeAck { marker, seq: 7 };
            assert_eq!(
                WireMsg::from_frame(&ack.to_frame().expect("acks always frame")),
                Ok(ack)
            );
        }
    }

    #[test]
    fn frame_length_boundary_is_enforced() {
        // The guard itself, at the exact boundary: 2^32 - 1 bits still
        // frames (the header can represent it), one more bit must be a
        // typed error rather than a silent `as u32` truncation. The
        // check is on the length path, so no 512 MiB payload is needed.
        assert_eq!(frame_bit_len(0), Ok(0));
        assert_eq!(frame_bit_len(MAX_FRAME_BITS), Ok(u32::MAX));
        assert_eq!(
            frame_bit_len(MAX_FRAME_BITS + 1),
            Err(NetError::FrameTooLarge {
                bits: MAX_FRAME_BITS + 1
            })
        );
    }

    #[test]
    fn unknown_payload_kind_is_a_typed_error() {
        // Forward compatibility: a frame from a future protocol
        // revision (unknown tag) must surface as `UnknownMsgKind` with
        // the offending tag — never as a silent misparse or a generic
        // failure. Tags 0x00–0x06 are taken; everything above is
        // future space.
        for tag in 0x07..=0xff {
            assert_eq!(
                WireMsg::from_frame(&[tag, 0, 0, 0, 0]),
                Err(NetError::UnknownMsgKind { tag }),
                "tag {tag:#04x}"
            );
        }
        // A malformed-but-known frame is a different, structural error.
        assert!(matches!(
            WireMsg::from_frame(&[0x03, 1, 0]),
            Err(NetError::BadFrame { .. })
        ));
    }

    #[test]
    fn malformed_frames_rejected() {
        assert!(matches!(
            WireMsg::from_frame(&[]),
            Err(NetError::BadFrame { .. })
        ));
        assert!(matches!(
            WireMsg::from_frame(&[0x00, 0x00]),
            Err(NetError::BadFrame { .. })
        ));
        assert!(matches!(
            WireMsg::from_frame(&[0x01, 9, 0, 0, 0, 0xff]),
            Err(NetError::BadFrame { .. })
        ));
        assert!(matches!(
            WireMsg::from_frame(&[0x05, 1, 2, 3, 4, 5]),
            Err(NetError::BadFrame { .. })
        ));
    }

    #[test]
    fn bit_accounting_is_payload_exact() {
        let mut bits = BitString::new();
        bits.push_bits(0x5a5a, 16);
        let label = WireMsg::Label {
            bits: Arc::new(bits.clone()),
            refresh: false,
        };
        assert_eq!(label.wire_bits(), 18);
        assert_eq!(WireMsg::Ack.wire_bits(), 1);
        let compute = WireMsg::Compute {
            marker: true,
            seq: 9,
            bits,
        };
        assert_eq!(compute.wire_bits(), 3 + 32 + 16);
        assert_eq!(
            WireMsg::ComputeAck {
                marker: false,
                seq: 9
            }
            .wire_bits(),
            35
        );
    }
}
