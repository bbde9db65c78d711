//! Shared plumbing of the distributed-construction protocol: edge
//! identities, the inner payload vocabulary, and the reliable per-port
//! channel that carries it.
//!
//! # Edge keys
//!
//! GHS requires totally ordered, distinct edge weights. We order edges
//! by `(weight, edge id)` — exactly the sort key of the centralized
//! `mstv_mst::kruskal` — so the fragment protocol computes *Kruskal's*
//! tree even when raw weights tie, which is what makes the distributed
//! labels bit-identical to the centralized marker's. This assumes both
//! endpoints of an edge know its globally unique id, a standard
//! strengthening (port numberings alone cannot break weight ties
//! symmetrically).
//!
//! # Reliable channels
//!
//! Construction, unlike one-shot label exchange, is a long
//! conversation: GHS and the marker both assume reliable FIFO links,
//! while the [`Link`](crate::Link) models drop, delay (reordering),
//! and duplication. [`Channel`] restores the assumption per port with
//! sequence numbers: the sender keeps every unacknowledged payload in
//! an outbox (retransmitted on every tick), the receiver delivers
//! strictly in sequence order, stashing early arrivals and discarding
//! duplicates, and acknowledges cumulatively. Crash-restarts follow the
//! journal model: protocol state — including channel state — is
//! persistent memory, only in-flight frames are lost, which
//! retransmission already covers.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use mstv_labels::{BitReader, BitString};

use crate::wire::WireMsg;

/// A port's constant facts: the edge weight and the globally unique
/// edge id behind it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PortInfo {
    /// Raw edge weight.
    pub weight: u64,
    /// Globally unique edge id, known to both endpoints.
    pub edge: u32,
}

impl PortInfo {
    /// The totally ordered GHS weight of this edge.
    pub fn key(self) -> EdgeKey {
        EdgeKey {
            weight: self.weight,
            edge: self.edge,
        }
    }
}

/// The tie-broken edge weight `(weight, edge id)`, ordered
/// lexicographically — the same total order `mstv_mst::kruskal` sorts
/// by. Field order matters: the derived `Ord` is the sort key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EdgeKey {
    /// Raw edge weight.
    pub weight: u64,
    /// Globally unique edge id.
    pub edge: u32,
}

/// An inner payload of the construction protocol, carried inside
/// [`WireMsg::Compute`] frames.
///
/// The first eight kinds are the GHS fragment protocol (phase A);
/// the rest drive the distributed marker (phase B): spanning-label
/// broadcast/convergecast, the per-component size convergecast and
/// centroid election, separator announcements, and the verification
/// hand-off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Msg {
    /// Fragment of level `level` asks to connect over this edge.
    Connect {
        /// Sender's fragment level.
        level: u64,
    },
    /// New fragment identity flooded over branch edges after a merge or
    /// absorption; `find` starts a minimum-outgoing-edge search.
    Initiate {
        /// Fragment level.
        level: u64,
        /// Fragment identity: the key of its core edge.
        frag: EdgeKey,
        /// Whether the receiver joins the find phase.
        find: bool,
    },
    /// "Is this edge outgoing from your fragment?"
    Test {
        /// Sender's fragment level.
        level: u64,
        /// Sender's fragment identity.
        frag: EdgeKey,
    },
    /// Answer to [`Msg::Test`]: different fragment, edge is outgoing.
    Accept,
    /// Answer to [`Msg::Test`]: same fragment, edge is internal.
    Reject,
    /// Convergecast of the minimum outgoing edge; `None` is `∞`.
    Report {
        /// Best outgoing edge key in the reporting subtree.
        best: Option<EdgeKey>,
    },
    /// Moves the fragment core towards the minimum outgoing edge.
    ChangeRoot,
    /// Floods "the MST is complete" over branch edges.
    Done,
    /// Roots the finished tree: broadcast of root id and depth.
    Span {
        /// The agreed root identity (always node 0).
        root_id: u64,
        /// The sender's identity (the receiver's tree parent).
        sender_id: u64,
        /// The sender's distance to the root.
        dist: u64,
    },
    /// Convergecast after [`Msg::Span`]: subtree size (the level-1
    /// sizes the first election reads), subtree-maximum incident weight
    /// (over *all* ports, so the root learns the whole graph's `W`),
    /// and the sender's id (the receiver learns its children's
    /// identities, which order a separator's pieces).
    SpanUp {
        /// The sender's identity.
        sender_id: u64,
        /// Maximum incident edge weight over the sender's subtree.
        max_w: u64,
        /// The sender's subtree size.
        size: u64,
    },
    /// Opens a component's size convergecast: flooded from its
    /// representative over the component's tree edges.
    Probe,
    /// Convergecast after [`Msg::Probe`]: the sender's subtree size,
    /// seen from the component's representative.
    Size {
        /// The sender's subtree size.
        size: u64,
    },
    /// Descends into the child holding more than half of the component
    /// until it reaches the centroid.
    Elect {
        /// The component's size.
        total: u64,
    },
    /// A separator announcement flooding one piece: the path-maximum
    /// weight so far and the piece's size rank.
    Announce {
        /// Maximum weight on the tree path from the separator.
        omega: u64,
        /// The receiving piece's rank among the separator's pieces.
        rank: u64,
        /// Whether the sender is the separator itself (the first
        /// receiver becomes the piece's representative).
        from_sep: bool,
    },
    /// Convergecast on the spanning tree: every label below is done.
    LabelDone,
    /// Broadcast on the spanning tree: start the embedded verifier,
    /// whose label codecs need the instance's size and weight range.
    StartVerify {
        /// Number of nodes.
        n: u64,
        /// Instance-wide maximum edge weight.
        max_w: u64,
    },
}

/// Payload tag width: 5 bits, of which tags 0–21 are assigned. Tags
/// 10–14 and 17 belonged to the marker's retired preorder walk and to
/// the earlier layouts of [`Msg::Elect`] and [`Msg::StartVerify`]; they
/// are never reused, so an old payload cannot decode as a new kind.
/// Unknown tags decode to `None` (and a live channel never produces
/// them).
const TAG_BITS: u32 = 5;

impl Msg {
    /// Whether this payload belongs to the marker phase (`true`) or the
    /// GHS phase (`false`) — the frame-level flag the cost accounting
    /// reads.
    pub fn is_marker(&self) -> bool {
        self.tag() >= 8
    }

    fn tag(&self) -> u64 {
        match self {
            Msg::Connect { .. } => 0,
            Msg::Initiate { .. } => 1,
            Msg::Test { .. } => 2,
            Msg::Accept => 3,
            Msg::Reject => 4,
            Msg::Report { .. } => 5,
            Msg::ChangeRoot => 6,
            Msg::Done => 7,
            Msg::Span { .. } => 8,
            Msg::SpanUp { .. } => 9,
            Msg::Announce { .. } => 15,
            Msg::LabelDone => 16,
            Msg::Probe => 18,
            Msg::Size { .. } => 19,
            Msg::Elect { .. } => 20,
            Msg::StartVerify { .. } => 21,
        }
    }

    /// Serializes the payload: a 5-bit tag, then each numeric field as
    /// Elias-γ of `value + 1` (γ cannot encode 0), booleans and
    /// `Option` presence as single bits.
    pub fn encode(&self) -> BitString {
        let mut out = BitString::new();
        out.push_bits(self.tag(), TAG_BITS);
        let num = |out: &mut BitString, v: u64| out.push_elias_gamma(v + 1);
        let key = |out: &mut BitString, k: &EdgeKey| {
            num(out, k.weight);
            num(out, u64::from(k.edge));
        };
        match self {
            Msg::Connect { level } => num(&mut out, *level),
            Msg::Initiate { level, frag, find } => {
                num(&mut out, *level);
                key(&mut out, frag);
                out.push(*find);
            }
            Msg::Test { level, frag } => {
                num(&mut out, *level);
                key(&mut out, frag);
            }
            Msg::Accept | Msg::Reject | Msg::ChangeRoot | Msg::Done => {}
            Msg::Report { best } => {
                out.push(best.is_some());
                if let Some(k) = best {
                    key(&mut out, k);
                }
            }
            Msg::Span {
                root_id,
                sender_id,
                dist,
            } => {
                num(&mut out, *root_id);
                num(&mut out, *sender_id);
                num(&mut out, *dist);
            }
            Msg::SpanUp {
                sender_id,
                max_w,
                size,
            } => {
                num(&mut out, *sender_id);
                num(&mut out, *max_w);
                num(&mut out, *size);
            }
            Msg::Probe | Msg::LabelDone => {}
            Msg::Size { size } => num(&mut out, *size),
            Msg::Elect { total } => num(&mut out, *total),
            Msg::StartVerify { n, max_w } => {
                num(&mut out, *n);
                num(&mut out, *max_w);
            }
            Msg::Announce {
                omega,
                rank,
                from_sep,
            } => {
                num(&mut out, *omega);
                num(&mut out, *rank);
                out.push(*from_sep);
            }
        }
        out
    }

    /// Parses a payload; `None` if the bits are not a well-formed
    /// payload (unknown tag, truncation, or trailing garbage).
    pub fn decode(bits: &BitString) -> Option<Msg> {
        fn num(r: &mut BitReader<'_>) -> Option<u64> {
            r.try_read_elias_gamma().map(|v| v - 1)
        }
        fn key(r: &mut BitReader<'_>) -> Option<EdgeKey> {
            Some(EdgeKey {
                weight: num(r)?,
                edge: u32::try_from(num(r)?).ok()?,
            })
        }
        let r = &mut bits.reader();
        let msg = match r.try_read_bits(TAG_BITS)? {
            0 => Msg::Connect { level: num(r)? },
            1 => Msg::Initiate {
                level: num(r)?,
                frag: key(r)?,
                find: r.try_read_bit()?,
            },
            2 => Msg::Test {
                level: num(r)?,
                frag: key(r)?,
            },
            3 => Msg::Accept,
            4 => Msg::Reject,
            5 => Msg::Report {
                best: if r.try_read_bit()? {
                    Some(key(r)?)
                } else {
                    None
                },
            },
            6 => Msg::ChangeRoot,
            7 => Msg::Done,
            8 => Msg::Span {
                root_id: num(r)?,
                sender_id: num(r)?,
                dist: num(r)?,
            },
            9 => Msg::SpanUp {
                sender_id: num(r)?,
                max_w: num(r)?,
                size: num(r)?,
            },
            15 => Msg::Announce {
                omega: num(r)?,
                rank: num(r)?,
                from_sep: r.try_read_bit()?,
            },
            16 => Msg::LabelDone,
            18 => Msg::Probe,
            19 => Msg::Size { size: num(r)? },
            20 => Msg::Elect { total: num(r)? },
            21 => Msg::StartVerify {
                n: num(r)?,
                max_w: num(r)?,
            },
            _ => return None,
        };
        if r.remaining() != 0 {
            return None;
        }
        Some(msg)
    }
}

/// One direction of a reliable FIFO channel over a lossy port.
///
/// Outgoing payloads get consecutive sequence numbers and stay in the
/// outbox until cumulatively acknowledged; [`Channel::retransmit`]
/// re-offers the whole outbox (the tick handler calls it). Incoming
/// frames are delivered strictly in order: early arrivals wait in a
/// stash, stale ones are dropped, and every received frame triggers one
/// cumulative [`WireMsg::ComputeAck`] carrying the next expected
/// sequence number.
#[derive(Debug, Clone, Default)]
pub(crate) struct Channel {
    next_send: u32,
    outbox: VecDeque<(u32, bool, Arc<BitString>)>,
    next_recv: u32,
    stash: BTreeMap<u32, Arc<BitString>>,
}

impl Channel {
    /// Queues a payload for reliable delivery, returning the frame to
    /// put on the wire now.
    pub fn send(&mut self, marker: bool, bits: BitString) -> WireMsg {
        let seq = self.next_send;
        self.next_send += 1;
        let bits = Arc::new(bits);
        self.outbox.push_back((seq, marker, Arc::clone(&bits)));
        WireMsg::Compute { marker, seq, bits }
    }

    /// Accepts a frame off the wire. Returns the payloads that became
    /// deliverable, in sequence order (empty for duplicates and early
    /// arrivals), plus the cumulative ack to send back. The ack echoes
    /// the incoming frame's phase flag so the cost split stays exact.
    pub fn on_frame(
        &mut self,
        marker: bool,
        seq: u32,
        bits: Arc<BitString>,
    ) -> (Vec<Arc<BitString>>, WireMsg) {
        let mut out = Vec::new();
        if seq >= self.next_recv {
            self.stash.insert(seq, bits);
            while let Some(payload) = self.stash.remove(&self.next_recv) {
                out.push(payload);
                self.next_recv += 1;
            }
        }
        (
            out,
            WireMsg::ComputeAck {
                marker,
                seq: self.next_recv,
            },
        )
    }

    /// Accepts a cumulative ack: everything below `seq` is delivered.
    pub fn on_ack(&mut self, seq: u32) {
        while self.outbox.front().is_some_and(|&(s, _, _)| s < seq) {
            self.outbox.pop_front();
        }
    }

    /// Frames to re-offer at a retransmission boundary (also the
    /// crash-restart recovery: channel state is persistent, only
    /// in-flight frames were lost).
    pub fn retransmit(&self) -> impl Iterator<Item = WireMsg> + '_ {
        self.outbox
            .iter()
            .map(|(seq, marker, bits)| WireMsg::Compute {
                marker: *marker,
                seq: *seq,
                bits: Arc::clone(bits),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyed(weight: u64, edge: u32) -> EdgeKey {
        EdgeKey { weight, edge }
    }

    #[test]
    fn edge_keys_order_like_kruskal() {
        // (weight, id) lexicographic: ties broken by edge id.
        assert!(keyed(3, 9) < keyed(4, 0));
        assert!(keyed(3, 1) < keyed(3, 2));
        assert!(keyed(3, 2) == keyed(3, 2));
    }

    #[test]
    fn payload_roundtrip() {
        let samples = [
            Msg::Connect { level: 0 },
            Msg::Initiate {
                level: 3,
                frag: keyed(17, 4),
                find: true,
            },
            Msg::Test {
                level: 2,
                frag: keyed(1, 0),
            },
            Msg::Accept,
            Msg::Reject,
            Msg::Report { best: None },
            Msg::Report {
                best: Some(keyed(u64::from(u32::MAX) + 7, 12)),
            },
            Msg::ChangeRoot,
            Msg::Done,
            Msg::Span {
                root_id: 0,
                sender_id: 5,
                dist: 2,
            },
            Msg::SpanUp {
                sender_id: 9,
                max_w: 1 << 40,
                size: 33,
            },
            Msg::Probe,
            Msg::Size { size: 7 },
            Msg::Elect { total: 64 },
            Msg::Announce {
                omega: 99,
                rank: 1,
                from_sep: true,
            },
            Msg::LabelDone,
            Msg::StartVerify {
                n: 64,
                max_w: 1 << 40,
            },
        ];
        for msg in samples {
            let bits = msg.encode();
            assert_eq!(Msg::decode(&bits), Some(msg.clone()), "roundtrip {msg:?}");
            assert!(msg.is_marker() == matches!(msg.tag(), 8..), "{msg:?}");
        }
    }

    #[test]
    fn malformed_payloads_decode_to_none() {
        // Truncated tag.
        assert_eq!(Msg::decode(&BitString::new()), None);
        // Unknown tags, the retired ones included, each followed by as
        // many numeric fields as its old layout had.
        for (tag, fields) in [
            (10, 1),
            (11, 2),
            (12, 2),
            (13, 2),
            (14, 0),
            (17, 0),
            (22, 0),
            (31, 0),
        ] {
            let mut bits = BitString::new();
            bits.push_bits(tag, TAG_BITS);
            for _ in 0..fields {
                bits.push_elias_gamma(1);
            }
            assert_eq!(Msg::decode(&bits), None, "tag {tag}");
        }
        // Trailing garbage after a well-formed payload.
        let mut bits = Msg::Accept.encode();
        bits.push(true);
        assert_eq!(Msg::decode(&bits), None);
        // Truncated field.
        let mut bits = BitString::new();
        bits.push_bits(0, TAG_BITS); // Connect, missing the level
        assert_eq!(Msg::decode(&bits), None);
    }

    #[test]
    fn channel_reorders_dedups_and_acks_cumulatively() {
        let mut tx = Channel::default();
        let mut rx = Channel::default();
        let frames: Vec<WireMsg> = (0..3)
            .map(|i| tx.send(false, Msg::Size { size: i }.encode()))
            .collect();
        let parts = |f: &WireMsg| match f {
            WireMsg::Compute { marker, seq, bits } => (*marker, *seq, bits.clone()),
            other => panic!("not a compute frame: {other:?}"),
        };

        // Deliver out of order: 2 first (stashed), then 0 (drains 0),
        // then 1 (drains 1 and the stashed 2).
        let (m2, s2, b2) = parts(&frames[2]);
        let (got, ack) = rx.on_frame(m2, s2, b2);
        assert!(got.is_empty());
        assert_eq!(
            ack,
            WireMsg::ComputeAck {
                marker: false,
                seq: 0
            }
        );

        let (m0, s0, b0) = parts(&frames[0]);
        let (got, _) = rx.on_frame(m0, s0, b0.clone());
        assert_eq!(got.len(), 1);

        let (m1, s1, b1) = parts(&frames[1]);
        let (got, ack) = rx.on_frame(m1, s1, b1);
        assert_eq!(
            got.iter()
                .map(|p| Msg::decode(p).expect("well-formed"))
                .collect::<Vec<_>>(),
            vec![Msg::Size { size: 1 }, Msg::Size { size: 2 }]
        );
        assert_eq!(
            ack,
            WireMsg::ComputeAck {
                marker: false,
                seq: 3
            }
        );

        // A duplicate delivers nothing but still acks.
        let (got, ack) = rx.on_frame(m0, s0, b0);
        assert!(got.is_empty());
        assert_eq!(
            ack,
            WireMsg::ComputeAck {
                marker: false,
                seq: 3
            }
        );

        // Cumulative ack empties the sender's outbox up to seq.
        assert_eq!(tx.retransmit().count(), 3);
        tx.on_ack(3);
        assert_eq!(tx.retransmit().count(), 0);
    }
}
