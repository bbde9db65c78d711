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
    /// Protocol start: send the own label on every port.
    Start,
    /// A frame arrived on a port.
    Deliver {
        /// The local port the frame arrived on.
        port: Port,
        /// The frame.
        msg: WireMsg,
    },
    /// A retransmission boundary: re-offer the label on every
    /// unacknowledged port.
    Tick,
    /// Crash-restart: volatile protocol memory (received frames, acks,
    /// verdict) is wiped; persistent memory (state, label) survives, as
    /// the self-stabilization model assumes. The node restarts the
    /// protocol immediately.
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

/// One node of the one-round verification protocol, hardened for lossy
/// links with ack-gated retransmission.
///
/// Protocol: on start (and after a crash-restart) send the own label
/// frame on every port, flagged `refresh` because the sender holds no
/// neighbor labels yet. On receiving a label, store it and reply with
/// an ack — also for duplicates, so a restarted sender can still
/// silence its retransmissions; a *duplicate* carrying the `refresh`
/// flag additionally answers with the own label, which is how a
/// crash-restarted neighbor re-collects labels its peers believe were
/// long since delivered. On a tick, resend the label on every port
/// whose exchange is incomplete in either direction (own label not
/// acked, or neighbor label not received — the latter again flagged
/// `refresh`). Decide as soon as a frame has been received on every
/// port: reject if any frame failed to decode (including the own,
/// possibly corrupted, certificate), otherwise run the scheme's local
/// verifier.
///
/// Answer frames never carry `refresh` (the answering node, having
/// just processed a duplicate, holds the sender's label), so an answer
/// can never trigger another answer: refresh chains have depth one and
/// the protocol cannot ping-pong.
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
/// all. Delivery and ack flags are bitsets, and the own certificate is
/// a shared [`Arc<BitString>`] so broadcasting clones a pointer, not a
/// payload. None of this is observable: the emitted frames, their
/// order, and the verdict are identical to decoding on arrival, so
/// event logs recorded by earlier layouts replay unchanged.
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
    /// because the duplicate/refresh logic needs the *fact* of
    /// delivery after the bits are gone.
    delivered: Vec<u64>,
    /// Ack bitset, one bit per port.
    acked: Vec<u64>,
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
            acked: vec![0; deg.div_ceil(64)],
            verdict: None,
        }
    }

    fn is_acked(&self, i: usize) -> bool {
        self.acked[i / 64] >> (i % 64) & 1 == 1
    }

    fn set_acked(&mut self, i: usize) {
        self.acked[i / 64] |= 1 << (i % 64);
    }

    fn is_received(&self, i: usize) -> bool {
        self.delivered[i / 64] >> (i % 64) & 1 == 1
    }

    fn set_received(&mut self, i: usize) {
        self.delivered[i / 64] |= 1 << (i % 64);
    }

    /// Frees the neighbor payloads once they can no longer matter:
    /// after a decide, only the *fact* that a port delivered (for the
    /// duplicate/refresh logic) is needed, never the bits again —
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
            NodeEvent::Start | NodeEvent::CrashRestart => {
                self.frames.fill(None);
                self.delivered.fill(0);
                self.acked.fill(0);
                self.verdict = None;
                self.try_decide();
                self.broadcast(|_, _| true)
            }
            NodeEvent::Deliver { port, msg } => match msg {
                WireMsg::Label { bits, refresh } => {
                    let i = port.index();
                    if i >= self.frames.len() {
                        return Vec::new();
                    }
                    let mut out = vec![(*port, WireMsg::Ack)];
                    if !self.is_received(i) {
                        // Retain the shared payload only; decoding
                        // waits for the decide, after which the
                        // pointer is dropped.
                        self.frames[i] = Some(Arc::clone(bits));
                        self.set_received(i);
                        self.try_decide();
                    } else if *refresh {
                        // A duplicate pull: the sender restarted and
                        // lost our label. Answer without the refresh
                        // flag — we hold the sender's label — so the
                        // answer cannot trigger another answer.
                        out.push((
                            *port,
                            WireMsg::Label {
                                bits: Arc::clone(&self.encoded),
                                refresh: false,
                            },
                        ));
                    }
                    out
                }
                WireMsg::Ack => {
                    if port.index() < self.frames.len() {
                        self.set_acked(port.index());
                    }
                    Vec::new()
                }
                // Construction traffic is not this machine's protocol;
                // inside a ComputeMachine it is consumed before the
                // embedded verifier sees events.
                WireMsg::Compute { .. } | WireMsg::ComputeAck { .. } => Vec::new(),
            },
            NodeEvent::Tick => self.broadcast(|acked, received| !acked || !received),
        }
    }

    /// Offers the own label on every port `send_on(acked, received)`
    /// selects, flagging `refresh` on ports whose neighbor label is
    /// still missing.
    fn broadcast(&self, send_on: impl Fn(bool, bool) -> bool) -> Vec<(Port, WireMsg)> {
        let mut out = Vec::new();
        for (i, &(p, _)) in self.ports.iter().enumerate() {
            let received = self.is_received(i);
            if send_on(self.is_acked(i), received) {
                out.push((
                    p,
                    WireMsg::Label {
                        bits: Arc::clone(&self.encoded),
                        refresh: !received,
                    },
                ));
            }
        }
        out
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
