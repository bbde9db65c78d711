//! Distributed construction: GHS builds the MST on the network, the
//! distributed marker labels it, and the embedded verifier accepts it —
//! zero centralized steps.
//!
//! [`run_compute`] takes a raw weighted [`Graph`] (no states, no
//! precomputed tree) and drives one [`ComputeMachine`] per node over
//! the same router, link and worker pool as verification runs. The
//! protocol stacks three phases, each handing off to the next with
//! tree messages only:
//!
//! * **Phase A — GHS** ([`ghs`]): the Gallager–Humblet–Spira fragment
//!   protocol over tie-broken edge keys `(weight, edge id)` computes
//!   the unique MST under that order — Kruskal's tree exactly.
//! * **Phase B — marker** ([`convergecast`]): node 0 roots the tree,
//!   then a message-passing centroid decomposition assigns every node
//!   its `π_mst` label, replaying the sequential marker's tie-breaks
//!   so the labels are **bit-identical** to
//!   [`MstScheme::marker_parallel`] on the same graph.
//! * **Phase C — verification**: each node builds an embedded
//!   [`VerifierMachine`] from its self-assembled label and runs the
//!   standard one-round exchange — end-to-end acceptance of the
//!   freshly built labeling.
//!
//! Phases A and B ride on reliable per-port channels
//! ([`fragment::Channel`]) that restore FIFO order and eventual
//! delivery over the lossy link; phase C is the already-loss-tolerant
//! label exchange. The whole run is logged to the standard
//! [`EventLog`] and replayable with [`replay_compute`]; costs are
//! split per phase in [`NetRun::phases`].
//!
//! Model assumptions (documented strengthenings of the bare
//! port-numbering model): nodes have unique ids equal to their indices
//! (as `tree_states` assigns them), both endpoints of an edge know its
//! globally unique id (to break weight ties), and crash-restarts
//! follow the journal model — protocol state is persistent, only
//! in-flight frames are lost.

pub(crate) mod convergecast;
pub(crate) mod fragment;
pub(crate) mod ghs;

use mstv_core::{encode_mst_label, Labeling, MstLabel, MstScheme, SpanCodec, SpanLabel};
use mstv_graph::{induced_subgraph, EdgeId, Graph, NodeId, Port, TreeState, Weight};
use mstv_labels::{BitString, LabelCodec, MaxLabel, SepFieldCodec};

use crate::error::NetError;
use crate::link::Link;
use crate::log::EventLog;
use crate::machine::{MstWireScheme, NodeEvent, ProtocolMachine, VerifierMachine};
use crate::runtime::{run_machines, Engine, NetConfig, NetRun};
use crate::wire::WireMsg;

use self::convergecast::Marker;
use self::fragment::{Channel, Msg, PortInfo};
use self::ghs::Ghs;

/// One node of the construction protocol: the GHS state machine, the
/// marker state machine, the per-port reliable channels they share,
/// and — once the label is sealed — the embedded verifier.
#[derive(Debug)]
pub struct ComputeMachine {
    node: NodeId,
    ports: Vec<PortInfo>,
    /// `(port, weight)` pairs for the embedded verifier.
    port_weights: Vec<(Port, Weight)>,
    chans: Vec<Channel>,
    ghs: Ghs,
    marker: Marker,
    verifier: Option<VerifierMachine<MstWireScheme>>,
    /// Label/ack frames that arrived before this node's verifier
    /// started (a neighbor can finish earlier), replayed into it on
    /// start.
    stash: Vec<(Port, WireMsg)>,
    /// The sealed outputs, kept for extraction after the run.
    state: Option<TreeState>,
    label: Option<MstLabel>,
    encoded: Option<BitString>,
}

impl ComputeMachine {
    /// The machine for node `v` of `g` — built from node-local
    /// information only (the node's ports with weights and edge ids).
    pub fn new(g: &Graph, v: NodeId) -> Self {
        let ports: Vec<PortInfo> = g
            .neighbors(v)
            .map(|nb| PortInfo {
                weight: nb.weight.0,
                edge: nb.edge.0,
            })
            .collect();
        let port_weights: Vec<(Port, Weight)> =
            g.neighbors(v).map(|nb| (nb.port, nb.weight)).collect();
        let deg = ports.len();
        ComputeMachine {
            node: v,
            ports,
            port_weights,
            chans: vec![Channel::default(); deg],
            ghs: Ghs::new(deg),
            marker: Marker::new(u64::from(v.0), deg),
            verifier: None,
            stash: Vec::new(),
            state: None,
            label: None,
            encoded: None,
        }
    }

    /// Encodes and queues inner payloads on their reliable channels,
    /// emitting the wire frames.
    fn flush(&mut self, msgs: Vec<(usize, Msg)>, out: &mut Vec<(Port, WireMsg)>) {
        for (i, m) in msgs {
            let frame = self.chans[i].send(m.is_marker(), m.encode());
            out.push((Port(i as u32), frame));
        }
    }

    /// Routes one in-order inner payload to its phase's state machine
    /// and fires the phase hand-offs it triggers.
    fn handle_msg(&mut self, i: usize, m: Msg, out: &mut Vec<(Port, WireMsg)>) {
        let mut msgs = Vec::new();
        if m.is_marker() {
            let was_ready = self.marker.verify_ready;
            self.marker.on_msg(i, m, &self.ports, &mut msgs);
            self.flush(msgs, out);
            if self.marker.verify_ready && !was_ready {
                self.start_verify(out);
            }
        } else {
            let was_done = self.ghs.done;
            self.ghs.on_msg(i, m, &self.ports, &mut msgs);
            self.flush(msgs, out);
            if self.ghs.done && !was_done {
                self.start_marker(out);
            }
        }
    }

    /// Phase A → B hand-off: the MST is known locally (branch ports).
    fn start_marker(&mut self, out: &mut Vec<(Port, WireMsg)>) {
        let branch: Vec<usize> = self.ghs.branch_ports().collect();
        let mut msgs = Vec::new();
        self.marker.start(&branch, &self.ports, &mut msgs);
        self.flush(msgs, out);
        if self.marker.verify_ready {
            self.start_verify(out);
        }
    }

    /// Phase B → C hand-off: seal the label, derive the instance-wide
    /// codecs, and start the embedded verifier (feeding it any label
    /// frames that arrived early).
    ///
    /// # Crash-restart at the hand-off (audited)
    ///
    /// The hand-off is atomic within a machine step — `verify_ready`
    /// flips and `start_verify` runs in the same `on_event` call — so a
    /// crash cannot land *between* marker completion and verifier
    /// start; it lands either before (verifier still `None`) or after
    /// (verifier live, with its own volatile-wipe semantics). Both
    /// sides are safe, and the window is exercised by the scripted
    /// crash test at the boundary:
    ///
    /// * Early label frames from faster neighbors wait in the stash,
    ///   which crash-restarts do **not** clear (journal model). They
    ///   are un-acked at their senders, so even a restart that *had*
    ///   dropped them would see retransmissions; nothing hinges on the
    ///   stash surviving — only dedup does (the embedded verifier
    ///   store-once handles duplicates anyway).
    /// * A restarted verifier re-pulls neighbor labels with the
    ///   `refresh` flag, and answers to refresh pulls never carry the
    ///   flag themselves, so the convergecast cannot hang or ping-pong.
    /// * Phase attribution keys on each frame's kind tag at *send*
    ///   time, so a crash straddling the hand-off cannot re-bill
    ///   marker traffic to verify (no stale `PhaseCost`):
    ///   retransmissions bill to their own phase, whenever they fire.
    fn start_verify(&mut self, out: &mut Vec<(Port, WireMsg)>) {
        let (n, w_star) = self.marker.inst.expect("instance known before verify");
        // Exactly the codecs `MstWireScheme::for_config` derives: ids
        // are 0..n-1, distances bounded by n, ω spans the whole graph's
        // weight range.
        let scheme = MstWireScheme {
            scheme: MstScheme::new(),
            span_codec: SpanCodec {
                id_bits: Weight(n - 1).bit_width(),
                dist_bits: Weight(n).bit_width(),
            },
            gamma_codec: LabelCodec {
                sep_codec: SepFieldCodec::EliasGamma,
                omega_bits: Weight(w_star).bit_width(),
            },
        };
        let label = MstLabel {
            span: SpanLabel {
                node_id: u64::from(self.node.0),
                root_id: 0,
                dist: self.marker.dist,
                parent_id: self.marker.parent_id,
            },
            gamma: MaxLabel {
                sep: self.marker.sep.clone(),
                omega: self.marker.omega.iter().map(|&w| Weight(w)).collect(),
            },
            orient: self.marker.orient.clone(),
        };
        let encoded = encode_mst_label(&label, scheme.span_codec, scheme.gamma_codec);
        let state = TreeState {
            id: u64::from(self.node.0),
            parent_port: self.marker.parent_port.map(|p| Port(p as u32)),
        };
        let mut verifier = VerifierMachine::from_parts(
            scheme,
            self.node,
            state,
            encoded.clone(),
            self.port_weights.clone(),
        );
        out.extend(verifier.on_event(&NodeEvent::Start));
        for (port, msg) in std::mem::take(&mut self.stash) {
            out.extend(verifier.on_event(&NodeEvent::Deliver { port, msg }));
        }
        self.verifier = Some(verifier);
        self.state = Some(state);
        self.label = Some(label);
        self.encoded = Some(encoded);
    }

    /// Re-offers every unacknowledged channel frame; the verifier, once
    /// live, re-offers its own.
    fn retransmit(&mut self, out: &mut Vec<(Port, WireMsg)>) {
        for (i, ch) in self.chans.iter().enumerate() {
            for frame in ch.retransmit() {
                out.push((Port(i as u32), frame));
            }
        }
    }

    /// The computed outputs: tree state, structured label, encoded
    /// label. `None` if the run never finished (undecided).
    pub(crate) fn into_outputs(self) -> Option<(TreeState, MstLabel, BitString)> {
        Some((self.state?, self.label?, self.encoded?))
    }
}

impl ProtocolMachine for ComputeMachine {
    fn on_event(&mut self, ev: &NodeEvent) -> Vec<(Port, WireMsg)> {
        let mut out = Vec::new();
        match ev {
            NodeEvent::Start => {
                if self.ports.is_empty() {
                    // Single-node instance: root, separator, and
                    // verifier all at once, no messages anywhere.
                    self.marker.seal_singleton();
                    self.start_verify(&mut out);
                } else {
                    let mut msgs = Vec::new();
                    self.ghs.wakeup(&self.ports, &mut msgs);
                    self.flush(msgs, &mut out);
                }
            }
            NodeEvent::Deliver { port, msg } => {
                let i = port.index();
                if i >= self.chans.len() {
                    return out;
                }
                match msg {
                    WireMsg::Compute { marker, seq, bits } => {
                        let (delivered, ack) = self.chans[i].on_frame(*marker, *seq, bits.clone());
                        out.push((*port, ack));
                        for payload in delivered {
                            match Msg::decode(&payload) {
                                Some(m) => self.handle_msg(i, m, &mut out),
                                // Peers never emit malformed payloads;
                                // a corrupted frame is dropped (the
                                // channel has already acked it, so it
                                // is not retransmitted — this cannot
                                // happen under the supported links).
                                None => debug_assert!(false, "undecodable inner payload"),
                            }
                        }
                    }
                    WireMsg::ComputeAck { seq, .. } => self.chans[i].on_ack(*seq),
                    WireMsg::Label { .. } | WireMsg::Ack => match &mut self.verifier {
                        Some(v) => out.extend(v.on_event(ev)),
                        None => self.stash.push((*port, msg.clone())),
                    },
                }
            }
            NodeEvent::Tick => {
                self.retransmit(&mut out);
                if let Some(v) = &mut self.verifier {
                    out.extend(v.on_event(&NodeEvent::Tick));
                }
            }
            NodeEvent::CrashRestart => {
                // Journal model: everything above the wire survives;
                // only in-flight frames were lost, so recovery is a
                // full channel retransmission. The embedded verifier
                // keeps its own crash semantics (volatile wipe).
                self.retransmit(&mut out);
                if let Some(v) = &mut self.verifier {
                    out.extend(v.on_event(&NodeEvent::CrashRestart));
                }
            }
        }
        out
    }

    fn decided(&self) -> Option<bool> {
        self.verifier.as_ref().and_then(|v| v.decided())
    }
}

/// Outcome of a distributed construction run: everything a [`NetRun`]
/// reports, plus the artifacts the network built.
#[derive(Debug, Clone)]
pub struct ComputeRun {
    /// The verification outcome, counters, per-phase split, and log.
    pub net: NetRun,
    /// The labeling the nodes assembled (structured and encoded),
    /// bit-identical to the centralized marker's on the same graph.
    pub labeling: Labeling<MstLabel>,
    /// Per-node tree states (id and parent port) induced by GHS.
    pub states: Vec<TreeState>,
    /// The MST's edges, as induced by the states.
    pub mst_edges: Vec<EdgeId>,
}

fn build_machines(g: &Graph) -> Vec<ComputeMachine> {
    (0..g.num_nodes())
        .map(|v| ComputeMachine::new(g, NodeId(v as u32)))
        .collect()
}

fn assemble_run(
    g: &Graph,
    net: NetRun,
    machines: impl Iterator<Item = ComputeMachine>,
) -> Result<ComputeRun, NetError> {
    let mut states = Vec::with_capacity(g.num_nodes());
    let mut labels = Vec::with_capacity(g.num_nodes());
    let mut encoded = Vec::with_capacity(g.num_nodes());
    for (v, machine) in machines.enumerate() {
        let (state, label, bits) = machine.into_outputs().ok_or(NetError::Undecided {
            node: NodeId(v as u32),
        })?;
        states.push(state);
        labels.push(label);
        encoded.push(bits);
    }
    let mst_edges = induced_subgraph(g, &states);
    Ok(ComputeRun {
        net,
        labeling: Labeling::new(labels, encoded),
        states,
        mst_edges,
    })
}

/// Builds the MST of `g` and its `π_mst` labeling **on the network**:
/// GHS fragments, distributed marker, embedded verification — no
/// centralized step touches the graph. See the module docs for the
/// protocol and its model assumptions.
///
/// The returned labeling and tree are bit-identical to
/// `mst_configuration` + `MstScheme::marker_parallel` on the same
/// graph, and `run.net.verdict` reports the network's own acceptance
/// of what it built.
///
/// # Errors
///
/// [`NetError::NoConvergence`] if the round budget runs out,
/// [`NetError::WorkerDied`] if a node machine panics.
///
/// # Panics
///
/// Panics if `g` is disconnected (GHS requires a connected graph).
pub fn run_compute(
    g: &Graph,
    link: &mut dyn Link,
    net: NetConfig,
    engine: Engine,
) -> Result<ComputeRun, NetError> {
    let (run, finals) = run_machines(build_machines(g), g, link, net, engine)?;
    assemble_run(
        g,
        run,
        finals
            .into_iter()
            .map(|m| m.expect("machines survive successful runs")),
    )
}

/// Replays a construction run's [`EventLog`] single-threadedly,
/// recomputing the tree, the labeling, the verdict, and every (total
/// and per-phase) counter from machine outputs. Deterministic replay
/// is what turns a lossy construction run into a reproducible
/// artifact.
///
/// # Errors
///
/// [`NetError::Undecided`] if the schedule ends early,
/// [`NetError::BadLog`] if an event targets a node outside `g`.
pub fn replay_compute(g: &Graph, log: &EventLog) -> Result<ComputeRun, NetError> {
    let mut machines = build_machines(g);
    let run = crate::replay::replay_machines(&mut machines, log)?;
    assemble_run(g, run, machines.into_iter())
}
