//! Per-node protocol machines.
//!
//! Each graph node is a *pure, deterministic* state machine: an input
//! event (start, frame delivery, retransmission tick, crash-restart)
//! maps to a list of output frames plus a state update. All
//! nondeterminism of a live run — thread interleaving, drops, delays,
//! duplicates, crashes — lives in *which events arrive in which
//! order*, never inside a machine. That separation is what makes the
//! event log sufficient for exact replay: feeding a machine the same
//! event sequence reproduces the same outputs bit for bit.

use std::sync::Arc;

use mstv_core::{LocalView, NeighborView};
use mstv_graph::{ConfigGraph, NodeId, Port, Weight};
use mstv_labels::BitString;

use crate::wire::WireMsg;

/// An input to a node machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeEvent {
    /// Protocol start: offer the own label once on every port.
    Start,
    /// A frame arrived on a port.
    Deliver {
        /// The local port the frame arrived on.
        port: Port,
        /// The frame.
        msg: WireMsg,
    },
    /// A retransmission boundary, dispatched only to undecided nodes:
    /// pull the neighbor labels still missing.
    Tick,
    /// Crash-restart: volatile protocol memory (received frames,
    /// verdict) is wiped; persistent memory (state, label) survives, as
    /// the self-stabilization model assumes. The node restarts the
    /// protocol immediately, pulling on every port.
    CrashRestart,
}

/// A deterministic per-node protocol machine the runtime can drive.
///
/// The router is protocol-agnostic: it dispatches [`NodeEvent`]s,
/// routes the returned frames through the link model, and watches
/// [`decided`](ProtocolMachine::decided) for quiescence. The one-round
/// verifier ([`VerifierMachine`]) and the distributed-construction
/// machine ([`ComputeMachine`](crate::ComputeMachine)) both implement
/// this, which is what lets construction reuse the transports, fault
/// injection, logging, and replay unchanged.
///
/// A retransmission boundary ticks only the machines whose verdict is
/// `None`, so a decided machine must need no tick of its own: whatever
/// a neighbor still lacks from it, the neighbor pulls with a frame the
/// decided machine answers. A verifier holds every neighbor label once
/// it decides, so its tick would emit nothing. A decided
/// `ComputeMachine` holds every neighbor's label too, so every neighbor
/// has finished construction and needs no construction frame from it.
pub trait ProtocolMachine: Send + 'static {
    /// Feeds one event, returning the frames to send (paired with the
    /// local out-port).
    fn on_event(&mut self, ev: &NodeEvent) -> Vec<(Port, WireMsg)>;

    /// The local verdict, once this node has finished its protocol.
    /// The router keeps scheduling ticks until every node reports
    /// `Some`.
    fn decided(&self) -> Option<bool>;
}

/// A proof labeling scheme that can ride the wire: it can decode a
/// label frame back into a structured label using only instance-wide
/// codec parameters ("known to the algorithm", as the paper assumes),
/// and verify a local view.
pub trait WireScheme: Clone + Send + 'static {
    /// Node state type.
    type State: Clone + Send + 'static;
    /// Label type.
    type Label: Clone + Send + 'static;

    /// Decodes a label frame. `None` means the frame is malformed for
    /// the instance codecs — a verifier-visible fault.
    fn decode_label(&self, bits: &BitString) -> Option<Self::Label>;

    /// Runs the scheme's local verifier on an assembled view.
    fn verify(&self, view: &LocalView<'_, Self::State, Self::Label>) -> bool;
}

/// The Korman–Kutten `π_mst` scheme bundled with the instance-wide
/// codecs a node needs to decode neighbor labels off the wire.
#[derive(Debug, Clone, Copy)]
pub struct MstWireScheme {
    /// The underlying scheme.
    pub scheme: mstv_core::MstScheme,
    /// Codec for the spanning-tree sublabel.
    pub span_codec: mstv_core::SpanCodec,
    /// Codec for the `γ` sublabel.
    pub gamma_codec: mstv_labels::LabelCodec,
}

impl MstWireScheme {
    /// Derives the codecs from the instance, exactly as the marker
    /// does: identity widths from the node count, ω widths from the
    /// whole graph's weight range.
    pub fn for_config(cfg: &ConfigGraph<mstv_graph::TreeState>) -> Self {
        MstWireScheme {
            scheme: mstv_core::MstScheme::new(),
            span_codec: mstv_core::SpanCodec::for_config(cfg),
            gamma_codec: mstv_labels::LabelCodec {
                sep_codec: mstv_labels::SepFieldCodec::EliasGamma,
                omega_bits: cfg.graph().max_weight().bit_width(),
            },
        }
    }
}

impl WireScheme for MstWireScheme {
    type State = mstv_graph::TreeState;
    type Label = mstv_core::MstLabel;

    fn decode_label(&self, bits: &BitString) -> Option<Self::Label> {
        mstv_core::decode_mst_label(bits, self.span_codec, self.gamma_codec)
    }

    fn verify(&self, view: &LocalView<'_, Self::State, Self::Label>) -> bool {
        use mstv_core::ProofLabelingScheme;
        self.scheme.verify(view)
    }
}

/// One node of the one-round verification protocol, made loss-tolerant
/// by pulls.
///
/// Protocol: on start, offer the own label once on every port. A
/// received label is stored; a label frame flagged `refresh` is a pull
/// (its sender lacks this node's label) and is answered with exactly
/// one own-label frame, whether or not it is the first copy to arrive.
/// A plain offer is answered by nothing. On a tick, re-send the own
/// label, flagged `refresh`, only on ports whose neighbor label is
/// still missing; a crash-restart pulls on every port. No frame is
/// ever acknowledged, so a perfect link costs exactly `2m` frames in
/// one round, the paper's one-round exchange. Decide as soon as a label
/// has been received on every port: reject if any frame failed to
/// decode (including the own, possibly corrupted, certificate),
/// otherwise run the scheme's local verifier.
///
/// Answers never carry `refresh` (the answering node holds the
/// sender's label, just delivered), so an answer can never draw
/// another answer: pull chains have depth one and the protocol cannot
/// ping-pong.
///
/// # Memory layout
///
/// The machine keeps a *compact* per-node footprint so the worker
/// pool can multiplex hundreds of thousands of them: neighbor labels
/// are **not** decoded (or even copied) on arrival. A delivered frame's
/// payload is retained *by pointer* — the [`Arc<BitString>`] inside the
/// frame aliases the sender's own certificate allocation, so no matter
/// how many neighbors hold a certificate it exists **once** in the
/// process (the same zero-copy column trick `mstv-store`'s v2
/// snapshots play with label payloads). Decoding happens once, at
/// decide time, and the payload pointers are dropped the moment the
/// verdict is fixed — a decided machine holds no neighbor payload at
/// all. Delivery flags are a bitset, and the own certificate is a
/// shared [`Arc<BitString>`] so an offer clones a pointer, not a
/// payload. None of this is observable: the emitted frames, their
/// order, and the verdict are identical to decoding on arrival.
#[derive(Debug, Clone)]
pub struct VerifierMachine<W: WireScheme> {
    scheme: W,
    node: NodeId,
    state: W::State,
    /// The node's own certificate as wire bits — persistent memory,
    /// shared with every frame that carries it.
    encoded: Arc<BitString>,
    /// `(port, weight)` per incident edge, in port order.
    ports: Vec<(Port, Weight)>,
    /// Per port: the received frame's payload, shared with its sender
    /// (and every other holder) by [`Arc`]; dropped at decide time,
    /// `None` again afterwards.
    frames: Vec<Option<Arc<BitString>>>,
    /// Delivery bitset, one bit per port — outlives the payload drop,
    /// because deduplication needs the *fact* of delivery after the
    /// bits are gone.
    delivered: Vec<u64>,
    verdict: Option<bool>,
}

impl<W: WireScheme> VerifierMachine<W> {
    /// A machine for node `v` of the configuration, holding `encoded`
    /// as its certificate.
    pub fn new(
        scheme: W,
        cfg: &ConfigGraph<W::State>,
        v: NodeId,
        encoded: impl Into<Arc<BitString>>,
    ) -> Self {
        let ports: Vec<(Port, Weight)> = cfg
            .graph()
            .neighbors(v)
            .map(|nb| (nb.port, nb.weight))
            .collect();
        VerifierMachine::from_parts(scheme, v, cfg.state(v).clone(), encoded, ports)
    }

    /// A machine assembled from parts already held node-locally — the
    /// constructor the distributed marker uses to embed a verifier:
    /// after construction, a node holds its own tree state, its
    /// self-assembled certificate, and its port list, but no
    /// [`ConfigGraph`] exists anywhere.
    pub fn from_parts(
        scheme: W,
        node: NodeId,
        state: W::State,
        encoded: impl Into<Arc<BitString>>,
        ports: Vec<(Port, Weight)>,
    ) -> Self {
        let deg = ports.len();
        VerifierMachine {
            scheme,
            node,
            state,
            encoded: encoded.into(),
            ports,
            frames: vec![None; deg],
            delivered: vec![0; deg.div_ceil(64)],
            verdict: None,
        }
    }

    fn is_received(&self, i: usize) -> bool {
        self.delivered[i / 64] >> (i % 64) & 1 == 1
    }

    fn set_received(&mut self, i: usize) {
        self.delivered[i / 64] |= 1 << (i % 64);
    }

    /// Frees the neighbor payloads once they can no longer matter:
    /// after a decide, only the *fact* that a port delivered (for
    /// deduplication) is needed, never the bits again —
    /// the next thing that could need bits is a crash-restart, which
    /// wipes everything anyway.
    fn release_payloads(&mut self) {
        self.frames.fill(None);
    }

    /// The node this machine runs at.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The local verdict, once every port has delivered a label.
    pub fn decided(&self) -> Option<bool> {
        self.verdict
    }

    /// Feeds one event, returning the frames to send (paired with the
    /// local out-port).
    pub fn on_event(&mut self, ev: &NodeEvent) -> Vec<(Port, WireMsg)> {
        match ev {
            NodeEvent::Start => self.restart(false),
            NodeEvent::CrashRestart => self.restart(true),
            NodeEvent::Deliver { port, msg } => match msg {
                WireMsg::Label { bits, refresh } => {
                    let i = port.index();
                    if i >= self.frames.len() {
                        return Vec::new();
                    }
                    if !self.is_received(i) {
                        // Retain the shared payload only; decoding
                        // waits for the decide, after which the
                        // pointer is dropped.
                        self.frames[i] = Some(Arc::clone(bits));
                        self.set_received(i);
                        self.try_decide();
                    }
                    if *refresh {
                        // A pull: the sender lacks our label. Answer
                        // without the flag, since we now hold the
                        // sender's, so the answer draws no answer.
                        vec![(*port, self.own_label(false))]
                    } else {
                        Vec::new()
                    }
                }
                // Construction traffic is not this machine's protocol;
                // inside a ComputeMachine it is consumed before the
                // embedded verifier sees events.
                WireMsg::Compute { .. } | WireMsg::ComputeAck { .. } => Vec::new(),
            },
            NodeEvent::Tick => self
                .ports
                .iter()
                .enumerate()
                .filter(|&(i, _)| !self.is_received(i))
                .map(|(_, &(p, _))| (p, self.own_label(true)))
                .collect(),
        }
    }

    /// Wipes the volatile memory and offers the own label on every
    /// port: flagged `refresh` after a crash, which lost every neighbor
    /// label, and plain at the start, when every neighbor offers too.
    fn restart(&mut self, pull: bool) -> Vec<(Port, WireMsg)> {
        self.frames.fill(None);
        self.delivered.fill(0);
        self.verdict = None;
        self.try_decide();
        self.ports
            .iter()
            .map(|&(p, _)| (p, self.own_label(pull)))
            .collect()
    }

    /// The own label as a frame.
    fn own_label(&self, refresh: bool) -> WireMsg {
        WireMsg::Label {
            bits: Arc::clone(&self.encoded),
            refresh,
        }
    }

    fn try_decide(&mut self) {
        let all = (0..self.ports.len()).all(|i| self.is_received(i));
        if self.verdict.is_some() || !all {
            return;
        }
        self.verdict = Some(self.decide());
        self.release_payloads();
    }

    /// The verdict, with every port delivered: decode everything (the
    /// own certificate too — a node whose persistent label bits were
    /// corrupted beyond the codecs rejects itself), then run the
    /// scheme's local verifier. A malformed neighbor frame is a
    /// rejection, exactly as a malformed label would be in the
    /// shared-memory verifier.
    fn decide(&self) -> bool {
        let Some(own) = self.scheme.decode_label(self.encoded.as_ref()) else {
            return false;
        };
        let mut labels = Vec::with_capacity(self.ports.len());
        for frame in &self.frames {
            let bits = frame
                .as_ref()
                .expect("decide runs with every port delivered");
            match self.scheme.decode_label(bits.as_ref()) {
                Some(label) => labels.push(label),
                None => return false,
            }
        }
        let neighbors = self
            .ports
            .iter()
            .zip(&labels)
            .map(|(&(port, weight), label)| NeighborView {
                port,
                weight,
                label,
            })
            .collect();
        let view = LocalView {
            node: self.node,
            state: &self.state,
            label: &own,
            neighbors,
        };
        self.scheme.verify(&view)
    }
}

impl<W: WireScheme> ProtocolMachine for VerifierMachine<W> {
    fn on_event(&mut self, ev: &NodeEvent) -> Vec<(Port, WireMsg)> {
        VerifierMachine::on_event(self, ev)
    }

    fn decided(&self) -> Option<bool> {
        VerifierMachine::decided(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstv_core::{mst_configuration, MstScheme, ProofLabelingScheme};
    use mstv_graph::Graph;

    /// The middle node of the path `0 – 1 – 2`, and the certificates
    /// of its two neighbors.
    fn middle_of_a_path() -> (VerifierMachine<MstWireScheme>, [Arc<BitString>; 2]) {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), Weight(4)).expect("edge");
        g.add_edge(NodeId(1), NodeId(2), Weight(7)).expect("edge");
        let cfg = mst_configuration(g);
        let labeling = MstScheme::new().marker(&cfg).expect("MST labels");
        let cert = |v: u32| Arc::new(labeling.encoded(NodeId(v)).clone());
        let machine =
            VerifierMachine::new(MstWireScheme::for_config(&cfg), &cfg, NodeId(1), cert(1));
        // Port i of node 1 leads to the i-th neighbor in insertion order.
        (machine, [cert(0), cert(2)])
    }

    fn label(bits: &Arc<BitString>, refresh: bool) -> WireMsg {
        WireMsg::Label {
            bits: Arc::clone(bits),
            refresh,
        }
    }

    fn deliver(port: u32, msg: WireMsg) -> NodeEvent {
        NodeEvent::Deliver {
            port: Port(port),
            msg,
        }
    }

    /// Every frame's refresh flag, in emission order.
    fn flags(out: &[(Port, WireMsg)]) -> Vec<(Port, bool)> {
        out.iter()
            .map(|(p, msg)| match msg {
                WireMsg::Label { refresh, .. } => (*p, *refresh),
                other => panic!("a verifier sent {other:?}"),
            })
            .collect()
    }

    #[test]
    fn start_offers_and_a_crash_pulls_on_every_port() {
        let (mut m, _) = middle_of_a_path();
        let offer = m.on_event(&NodeEvent::Start);
        assert_eq!(flags(&offer), [(Port(0), false), (Port(1), false)]);
        let pull = m.on_event(&NodeEvent::CrashRestart);
        assert_eq!(flags(&pull), [(Port(0), true), (Port(1), true)]);
    }

    #[test]
    fn a_decided_machines_tick_emits_nothing() {
        let (mut m, [a, b]) = middle_of_a_path();
        m.on_event(&NodeEvent::Start);
        m.on_event(&deliver(0, label(&a, false)));
        // Undecided, it pulls only on the port still missing a label.
        assert_eq!(flags(&m.on_event(&NodeEvent::Tick)), [(Port(1), true)]);
        m.on_event(&deliver(1, label(&b, false)));
        assert_eq!(m.decided(), Some(true));
        assert!(m.on_event(&NodeEvent::Tick).is_empty());
    }

    #[test]
    fn a_pull_is_answered_by_exactly_one_label() {
        let (mut m, [a, _]) = middle_of_a_path();
        m.on_event(&NodeEvent::Start);
        // The first copy and a duplicate each draw one plain answer.
        for _ in 0..2 {
            let out = m.on_event(&deliver(0, label(&a, true)));
            assert_eq!(flags(&out), [(Port(0), false)]);
            assert_eq!(out[0].1, label(&m.encoded, false));
        }
    }

    #[test]
    fn a_plain_offer_is_answered_by_nothing() {
        let (mut m, [a, b]) = middle_of_a_path();
        m.on_event(&NodeEvent::Start);
        assert!(m.on_event(&deliver(0, label(&a, false))).is_empty());
        assert!(m.on_event(&deliver(0, label(&a, false))).is_empty());
        assert!(m.on_event(&deliver(1, label(&b, false))).is_empty());
        assert_eq!(m.decided(), Some(true));
    }
}
