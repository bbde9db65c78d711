//! The distributed marker (phase B of construction): every node
//! assembles its own `π_mst` label with tree messages only.
//!
//! The phase replays the centralized marker's pipeline —
//! `span_labels`, `centroid_decomposition`, `max_labels`,
//! `orient_fields` — as a message protocol, reproducing every
//! deterministic tie-break of the sequential code so the resulting
//! labels are **bit-identical**:
//!
//! 1. **Rooting** ([`Msg::Span`]/[`Msg::SpanUp`]): node 0 roots the
//!    finished MST; the broadcast carries root id and depth (the
//!    spanning sublabel), the convergecast returns child identities,
//!    subtree sizes, and the subtree-maximum *incident* weight — so
//!    the root learns `n` and the instance-wide `W` the label codecs
//!    need, which [`Msg::StartVerify`] spreads at the end.
//! 2. **Recursive centroid decomposition**, one component at a time,
//!    components evolving in parallel, by the rule of the sequential
//!    engine (`mstv_trees::centroid_decomposition`). Per component:
//!    the representative floods a [`Msg::Probe`] over the component's
//!    tree edges and the subtree sizes converge back to it
//!    ([`Msg::Size`]); then [`Msg::Elect`], carrying the component
//!    size, descends into the child holding more than half of it until
//!    it reaches a node with no such child — the centroid, and of two
//!    centroids the one nearer the representative. At level 1 the
//!    representative is node 0 and the rooting convergecast already
//!    carried the sizes, so the election starts at once.
//! 3. **Separator announcement** ([`Msg::Announce`]): the separator
//!    ranks its pieces by size (stable sort over ascending neighbor
//!    identity, as the sequential `pieces` loop does), then floods each
//!    piece with `(rank, path-maximum weight)`. Every node in the piece
//!    appends one level to its `γ` sublabel — the rank becomes the
//!    separator field, the accumulated maximum the `ω` field, and the
//!    arrival direction (parent port or not) the orientation bit. The
//!    separator's own edges die; the neighbor that received the
//!    `from_sep` copy becomes the piece's representative, forwards the
//!    announce, then probes the piece for the next level. Per-channel
//!    FIFO guarantees the announce outruns every next-level message
//!    into the piece.
//! 4. **Hand-off** ([`Msg::LabelDone`]/[`Msg::StartVerify`]): a
//!    convergecast on the spanning tree tells the root all labels are
//!    complete; the root broadcasts the verification start with the
//!    instance's `(n, W)`.

use std::cmp::Reverse;

use mstv_core::Orient;

use super::fragment::{Msg, PortInfo};

/// One node's marker state. Everything here is persistent memory under
/// the crash-restart model (the journal assumption).
#[derive(Debug, Clone)]
pub(crate) struct Marker {
    /// This node's identity (= its index).
    my_id: u64,
    /// Spanning sublabel: distance to the root.
    pub dist: u64,
    /// Spanning sublabel: port towards the parent (`None` at node 0).
    pub parent_port: Option<usize>,
    /// Spanning sublabel: the parent's identity.
    pub parent_id: Option<u64>,
    /// Span-tree child ports (branch ports minus the parent port).
    span_children: Vec<usize>,
    /// Per port: the identity of the span child behind it (orders a
    /// separator's pieces).
    child_id: Vec<Option<u64>>,
    /// Subtree-maximum incident weight gathered by the rooting
    /// convergecast.
    acc_max: u64,
    /// Instance-wide `(n, max weight)` once known: at the root after
    /// the rooting convergecast, elsewhere with [`Msg::StartVerify`].
    pub inst: Option<(u64, u64)>,
    /// Tree edges still inside this node's current component.
    alive: Vec<bool>,
    /// This level's port towards the component's representative
    /// (`None` at the representative).
    up: Option<usize>,
    /// This level's ports away from the representative, with the
    /// subtree sizes reported over them.
    kids: Vec<(usize, u64)>,
    /// Sizes still to be reported over `kids`.
    pending: usize,
    /// This node's subtree size at this level.
    size: u64,
    /// `γ` sublabel under assembly: separator fields, `ω` fields, and
    /// orientations, one entry per decomposition level.
    pub sep: Vec<u64>,
    pub omega: Vec<u64>,
    pub orient: Vec<Orient>,
    /// Set once this node was elected separator of its component.
    pub label_done: bool,
    /// Outstanding [`Msg::LabelDone`]s from span children.
    labeldone_pending: usize,
    sent_labeldone: bool,
    /// Set when the embedded verifier should start.
    pub verify_ready: bool,
}

impl Marker {
    pub fn new(my_id: u64, deg: usize) -> Self {
        Marker {
            my_id,
            dist: 0,
            parent_port: None,
            parent_id: None,
            span_children: Vec::new(),
            child_id: vec![None; deg],
            acc_max: 0,
            inst: None,
            alive: vec![false; deg],
            up: None,
            kids: Vec::new(),
            pending: 0,
            size: 0,
            // `sep[0]` is the shared constant of every `γ` label.
            sep: vec![0],
            omega: Vec::new(),
            orient: Vec::new(),
            label_done: false,
            labeldone_pending: 0,
            sent_labeldone: false,
            verify_ready: false,
        }
    }

    /// Enters the marker phase once GHS is done: the branch ports are
    /// the tree. Node 0 roots the tree immediately; everyone else waits
    /// for [`Msg::Span`].
    pub fn start(&mut self, branch: &[usize], ports: &[PortInfo], out: &mut Vec<(usize, Msg)>) {
        for &i in branch {
            self.alive[i] = true;
        }
        if self.my_id == 0 {
            self.root_below(None, ports, out);
        }
    }

    /// Feeds one delivered marker message.
    pub fn on_msg(&mut self, p: usize, msg: Msg, ports: &[PortInfo], out: &mut Vec<(usize, Msg)>) {
        match msg {
            Msg::Span {
                root_id,
                sender_id,
                dist,
            } => {
                debug_assert_eq!(root_id, 0, "node 0 roots the tree");
                self.parent_port = Some(p);
                self.parent_id = Some(sender_id);
                self.dist = dist + 1;
                self.root_below(Some(p), ports, out);
            }
            Msg::SpanUp {
                sender_id,
                max_w,
                size,
            } => {
                self.child_id[p] = Some(sender_id);
                self.acc_max = self.acc_max.max(max_w);
                self.kid_size(p, size, ports, out);
            }
            Msg::Probe => self.open(Some(p), &Msg::Probe, ports, out),
            Msg::Size { size } => self.kid_size(p, size, ports, out),
            Msg::Elect { total } => self.elect(total, ports, out),
            Msg::Announce {
                omega,
                rank,
                from_sep,
            } => {
                self.sep.push(rank);
                self.omega.push(omega);
                self.orient.push(if Some(p) == self.parent_port {
                    Orient::Up
                } else {
                    Orient::Down
                });
                for (q, &alive) in self.alive.iter().enumerate() {
                    if alive && q != p {
                        out.push((
                            q,
                            Msg::Announce {
                                omega: omega.max(ports[q].weight),
                                rank,
                                from_sep: false,
                            },
                        ));
                    }
                }
                if from_sep {
                    // The separator's edge dies; this node represents
                    // the remaining piece and probes it for the next
                    // level, behind the announce it just forwarded.
                    self.alive[p] = false;
                    self.open(None, &Msg::Probe, ports, out);
                }
            }
            Msg::LabelDone => {
                self.labeldone_pending -= 1;
                self.maybe_labeldone(out);
            }
            Msg::StartVerify { n, max_w } => self.start_verify((n, max_w), out),
            _ => debug_assert!(false, "GHS payload routed to marker: {msg:?}"),
        }
    }

    /// Roots the tree below this node: the [`Msg::Span`] broadcast,
    /// which doubles as the level-1 probe from node 0.
    fn root_below(&mut self, up: Option<usize>, ports: &[PortInfo], out: &mut Vec<(usize, Msg)>) {
        self.span_children = (0..self.alive.len())
            .filter(|&i| self.alive[i] && Some(i) != up)
            .collect();
        self.labeldone_pending = self.span_children.len();
        let span = Msg::Span {
            root_id: 0,
            sender_id: self.my_id,
            dist: self.dist,
        };
        self.open(up, &span, ports, out);
    }

    /// Opens this level's size convergecast here: `probe` goes to every
    /// component edge except `up`, the port towards the representative
    /// (`None` at the representative itself).
    fn open(
        &mut self,
        up: Option<usize>,
        probe: &Msg,
        ports: &[PortInfo],
        out: &mut Vec<(usize, Msg)>,
    ) {
        self.up = up;
        self.kids.clear();
        self.pending = 0;
        for q in (0..self.alive.len()).filter(|&q| self.alive[q] && Some(q) != up) {
            out.push((q, probe.clone()));
            self.pending += 1;
        }
        self.converge(ports, out);
    }

    /// Records the subtree size reported over port `p`.
    fn kid_size(&mut self, p: usize, size: u64, ports: &[PortInfo], out: &mut Vec<(usize, Msg)>) {
        self.kids.push((p, size));
        self.pending -= 1;
        self.converge(ports, out);
    }

    /// Once every size below is in: report this subtree's size up, or,
    /// at the representative, start the election with the component's
    /// size. Before any level is sealed this is the rooting
    /// convergecast, which also gathers the instance's `(n, W)`.
    fn converge(&mut self, ports: &[PortInfo], out: &mut Vec<(usize, Msg)>) {
        if self.pending > 0 {
            return;
        }
        self.size = 1 + self.kids.iter().map(|&(_, s)| s).sum::<u64>();
        let rooting = self.orient.is_empty();
        let max_w = || {
            let local = ports.iter().map(|q| q.weight).max().unwrap_or(0);
            self.acc_max.max(local)
        };
        match self.up {
            Some(up) if rooting => out.push((
                up,
                Msg::SpanUp {
                    sender_id: self.my_id,
                    max_w: max_w(),
                    size: self.size,
                },
            )),
            Some(up) => out.push((up, Msg::Size { size: self.size })),
            None => {
                if rooting {
                    self.inst = Some((self.size, max_w()));
                }
                self.elect(self.size, ports, out);
            }
        }
    }

    /// The election at this node: descend into the child holding more
    /// than half of the component, or, with none, become its centroid.
    fn elect(&mut self, total: u64, ports: &[PortInfo], out: &mut Vec<(usize, Msg)>) {
        match self.kids.iter().find(|&&(_, s)| 2 * s > total) {
            Some(&(q, _)) => out.push((q, Msg::Elect { total })),
            None => self.become_separator(total, ports, out),
        }
    }

    /// The neighbor identity behind a tree port, as the sequential
    /// CSR orders it: a child edge sorts under the child's id, the
    /// parent edge under this node's own id.
    fn adj_key(&self, i: usize) -> u64 {
        if Some(i) == self.parent_port {
            self.my_id
        } else {
            self.child_id[i].expect("tree ports below carry a span child")
        }
    }

    /// Elected centroid of a component of `total` nodes: rank the
    /// pieces, announce into each, seal the own label, and retire from
    /// the decomposition.
    fn become_separator(&mut self, total: u64, ports: &[PortInfo], out: &mut Vec<(usize, Msg)>) {
        // Pieces in ascending neighbor identity (the sequential CSR
        // order), stably ranked by descending size.
        let mut piece_ports: Vec<usize> =
            (0..self.alive.len()).filter(|&i| self.alive[i]).collect();
        piece_ports.sort_by_key(|&i| self.adj_key(i));
        let size_of = |q: usize| {
            if Some(q) == self.up {
                total - self.size
            } else {
                self.kids
                    .iter()
                    .find(|&&(c, _)| c == q)
                    .map(|&(_, s)| s)
                    .expect("an alive port other than `up` reported a size")
            }
        };
        let mut by_size: Vec<usize> = (0..piece_ports.len()).collect();
        by_size.sort_by_key(|&k| Reverse(size_of(piece_ports[k])));
        let mut rank = vec![0u64; piece_ports.len()];
        for (r, &k) in by_size.iter().enumerate() {
            rank[k] = r as u64;
        }
        for (k, &q) in piece_ports.iter().enumerate() {
            out.push((
                q,
                Msg::Announce {
                    omega: ports[q].weight,
                    rank: rank[k],
                    from_sep: true,
                },
            ));
            self.alive[q] = false;
        }
        self.omega.push(0);
        self.orient.push(Orient::SelfSep);
        self.label_done = true;
        self.maybe_labeldone(out);
    }

    /// Converges "all labels below are done" towards node 0; the root
    /// flips to the verification phase.
    fn maybe_labeldone(&mut self, out: &mut Vec<(usize, Msg)>) {
        if !self.label_done || self.labeldone_pending > 0 || self.sent_labeldone {
            return;
        }
        self.sent_labeldone = true;
        match self.parent_port {
            Some(pp) => out.push((pp, Msg::LabelDone)),
            None => {
                let inst = self.inst.expect("the root knows the instance");
                self.start_verify(inst, out);
            }
        }
    }

    /// Learns the instance's `(n, W)` and passes the verification start
    /// down the spanning tree.
    fn start_verify(&mut self, (n, max_w): (u64, u64), out: &mut Vec<(usize, Msg)>) {
        self.inst = Some((n, max_w));
        self.verify_ready = true;
        for &q in &self.span_children {
            out.push((q, Msg::StartVerify { n, max_w }));
        }
    }

    /// Seals the state of a single-node instance (no ports, no
    /// messages): the node is root and level-1 separator at once.
    pub fn seal_singleton(&mut self) {
        self.inst = Some((1, 0));
        self.omega.push(0);
        self.orient.push(Orient::SelfSep);
        self.label_done = true;
        self.verify_ready = true;
    }
}
