//! `mstv-dyn`: the incremental relabeling engine.
//!
//! The batch pipeline (`kruskal` → `Snapshot::build`) prices every
//! mutation at a full rebuild: re-sort all edges, re-decompose the tree,
//! re-assemble and re-encode `n` labels. This crate keeps an *accepted*
//! labeling live under a mutation stream by exploiting four locality
//! facts of the `Γ` construction:
//!
//! 1. **Separator locality.** A node's label mentions only its own
//!    centroid-ancestor chain — the `O(log n)` separators above it —
//!    and per-chain values (`ω` path maxima, `φ` path minima, `δ`
//!    distances). A mutation therefore dirties exactly the nodes whose
//!    chain changed or whose path to some chain separator crossed a
//!    touched edge; everything else is bit-identical by construction.
//!    Both kinds are found by walks over separator subtrees, from the
//!    nodes whose chain step changed (among those the decomposition
//!    update lists) and from the smaller shore of each touched edge, so
//!    the dirty list costs what it holds.
//! 2. **One-swap repair.** A single weight change moves the MST by at
//!    most one edge swap ([`mstv_mst::repair_after_weight_change`]), so
//!    the set of touched edges per mutation is at most two. A tree edge
//!    that gets lighter cannot be swapped out, so it skips the repair's
//!    cut scan; one that gets heavier looks for its replacement among the
//!    edges of the smaller shore of its cut
//!    ([`RootedTree::smaller_shore`]).
//! 3. **In-place re-hang.** A swap re-hangs one tree path. The marker
//!    patches a working copy of its rooted tree in place
//!    ([`RootedTree::rehang`]): the path's parent links reverse, and
//!    only the moved subtree's depths and preorder block change. The
//!    committed tree takes the same patches when the mutation commits.
//! 4. **Decomposition patched in place.** A swap moves one subtree from
//!    its old parent to its new attachment point, so only the components
//!    on those two nodes' separator chains change. A working copy of the
//!    decomposition is patched right after each re-hang
//!    ([`SeparatorDecomposition::rehang`]): every separator still its
//!    component's canonical centroid stays and re-ranks its pieces, and
//!    only the components where that fails are re-split. The update lists
//!    the nodes whose record changed, and commit copies just those.
//!
//! The scheme-wide widths follow the largest tree-edge weight and the
//! largest distance field. Both are kept with their counts from what a
//! mutation moved, and rescanned only when the largest one left with
//! nothing tied to it.
//!
//! [`DynMarker::apply`] classifies each mutation into the cheapest
//! sufficient reaction — [`DeltaOutcome::NoOp`] (non-tree weight moves
//! that do not flip the sensitivity threshold, detected in `O(1)` by
//! decoding the stored `MAX` labels of the edge's endpoints),
//! [`DeltaOutcome::WeightsOnly`], [`DeltaOutcome::TreeSwap`], or
//! [`DeltaOutcome::Reencode`] when a scheme-wide field width moved —
//! and emits the [`DeltaRecord`] for the MSTVJRNL journal. The
//! maintained state is asserted to be **bit-identical** to a
//! from-scratch `kruskal` + `Snapshot::build` after every mutation: in
//! this crate's tests, in the root `tests/serving.rs` (whose query
//! engine takes every record) and at perfbench `mutate`'s per-pass
//! checkpoint.

use mstv_graph::{Edge, EdgeId, Graph, NodeId, Weight};
use mstv_labels::{
    decode_max, encode_dist_label_into, walk_labels, BitString, DistLabel, FlowLabel, GammaPass,
    LabelCodec, MaxLabel, SepFieldCodec,
};
use mstv_mst::{kruskal, repair_after_weight_change_in, Repair};
use mstv_store::{
    DeltaOutcome, DeltaRecord, DistSection, JournalMutation, LabelDelta, Snapshot, TreeDelta,
};
use mstv_trees::{centroid_decomposition, ParallelConfig, RootedTree, SeparatorDecomposition};

/// Errors surfaced by [`DynMarker`]; everything else (internal
/// inconsistency) is a panic, because the marker owns its state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynError {
    /// The input graph is not connected (no spanning tree exists).
    Disconnected,
    /// A mutation named a node outside the graph.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// Number of nodes in the graph.
        nodes: u32,
    },
    /// A mutation named a vertex pair with no edge between them.
    UnknownEdge {
        /// First endpoint.
        u: u32,
        /// Second endpoint.
        v: u32,
    },
    /// A mutation set an edge weight to zero; weights are positive.
    ZeroWeight,
    /// The minimum spanning tree's total weight does not fit in a `u64`,
    /// so the tree has no `DIST` labels (see `mstv_labels::dist_fits`).
    TreeWeightOverflow,
}

impl std::fmt::Display for DynError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynError::Disconnected => write!(f, "graph is not connected"),
            DynError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range for {nodes} nodes")
            }
            DynError::UnknownEdge { u, v } => write!(f, "no edge between {u} and {v}"),
            DynError::ZeroWeight => write!(f, "edge weight must be positive"),
            DynError::TreeWeightOverflow => write!(
                f,
                "the spanning tree's total weight overflows u64, so it has no distance labels"
            ),
        }
    }
}

impl std::error::Error for DynError {}

/// The live marker: a graph, its canonical MST, and the full label
/// stack of the `Γ` schemes over it, maintained under mutations.
///
/// "Canonical" means the tree Kruskal's algorithm produces under the
/// EdgeKey order `(weight, edge id)` — the same tie-break every batch
/// tool in this workspace uses — so the maintained snapshot can be
/// compared byte-for-byte against `Snapshot::build` on a fresh
/// `kruskal` run at any point.
pub struct DynMarker {
    graph: Graph,
    sep_codec: SepFieldCodec,
    tree_edges: Vec<EdgeId>,
    in_tree: Vec<bool>,
    /// The committed tree, which `sep`, `parents` and the labels describe.
    tree: RootedTree,
    /// The working tree: equal to `tree` between mutations. Each step of
    /// a mutation patches it in place, and commit replays the same
    /// patches on `tree`.
    work: RootedTree,
    /// The committed decomposition, of `tree`.
    sep: SeparatorDecomposition,
    /// The working decomposition, of `work`: equal to `sep` between
    /// mutations. Each swap patches it in place, and commit copies the
    /// records the patches listed into `sep`.
    work_sep: SeparatorDecomposition,
    parents: Vec<Option<(NodeId, Weight)>>,
    max_s: Vec<MaxLabel>,
    flow_s: Vec<FlowLabel>,
    dist_s: Vec<DistLabel>,
    /// `dist_max[v] == max(dist_s[v].delta)`, kept current for the dirty
    /// nodes so `deltas` can follow it.
    dist_max: Vec<u64>,
    enc_max: Vec<BitString>,
    enc_flow: Vec<BitString>,
    enc_dist: Vec<BitString>,
    max_weight: Weight,
    /// The largest tree-edge weight and its count, for the `ω` width.
    weights: Top,
    /// The largest `dist_max` entry and its count, for the `δ` width.
    deltas: Top,
    omega_bits: u32,
    delta_bits: u32,
    /// Summed weight of the tree edges, at most `u64::MAX`: trees past
    /// that have no `DIST` labels, and the marker refuses them.
    tree_weight: u128,
    /// Phase 3's dirty list and marks, clear between mutations.
    marks: DirtyMarks,
    seq: u64,
}

impl DynMarker {
    /// Builds the marker over `graph`: canonical Kruskal MST, centroid
    /// decomposition, and the full structured + encoded label stack —
    /// the same pipeline `Snapshot::build` runs, held open for
    /// incremental maintenance.
    ///
    /// # Errors
    ///
    /// [`DynError::Disconnected`] when the graph has no spanning tree,
    /// [`DynError::TreeWeightOverflow`] when its minimum spanning tree's
    /// total weight overflows `u64`.
    pub fn new(graph: Graph, sep_codec: SepFieldCodec) -> Result<DynMarker, DynError> {
        if graph.num_nodes() == 0 || !graph.is_connected() {
            return Err(DynError::Disconnected);
        }
        let tree_edges = kruskal(&graph);
        let tree_weight = tree_edges
            .iter()
            .map(|&e| u128::from(graph.weight(e).0))
            .sum();
        if tree_weight > u128::from(u64::MAX) {
            return Err(DynError::TreeWeightOverflow);
        }
        let in_tree = graph
            .edge_membership(&tree_edges)
            .expect("kruskal returns distinct edge ids");
        let tree = RootedTree::from_tree_membership(&graph, &in_tree, NodeId(0))
            .expect("kruskal returns a spanning tree");
        let sep = centroid_decomposition(&tree);
        let n = graph.num_nodes();
        let mut marker = DynMarker {
            graph,
            sep_codec,
            tree_edges,
            in_tree,
            parents: parent_entries(&tree),
            work: tree.clone(),
            tree,
            work_sep: sep.clone(),
            sep,
            max_s: Vec::new(),
            flow_s: Vec::new(),
            dist_s: Vec::new(),
            dist_max: Vec::new(),
            enc_max: Vec::new(),
            enc_flow: Vec::new(),
            enc_dist: Vec::new(),
            max_weight: Weight(1),
            weights: Top::default(),
            deltas: Top::default(),
            omega_bits: 1,
            delta_bits: 1,
            tree_weight,
            marks: DirtyMarks::new(n),
            seq: 0,
        };
        marker.rebuild_all_labels();
        Ok(marker)
    }

    /// The graph under mutation.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The canonical MST edge set (unordered).
    pub fn tree_edges(&self) -> &[EdgeId] {
        &self.tree_edges
    }

    /// The maintained rooted tree.
    pub fn tree(&self) -> &RootedTree {
        &self.tree
    }

    /// Mutations applied so far (the next record's `seq`, minus one).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Snapshot of the current state, built from the maintained parts —
    /// byte-identical to `Snapshot::build` on a fresh canonical rebuild
    /// of the mutated graph.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::from_parts(
            self.tree.root(),
            self.max_weight,
            LabelCodec {
                sep_codec: self.sep_codec,
                omega_bits: self.omega_bits,
            },
            self.parents.clone(),
            self.enc_max.clone(),
            self.enc_flow.clone(),
            Some(DistSection {
                delta_bits: self.delta_bits,
                labels: self.enc_dist.clone(),
            }),
        )
    }

    /// Applies one mutation: updates the graph, repairs the MST if the
    /// sensitivity threshold flipped, relabels exactly the dirty
    /// centroid subtrees, and returns the journal record describing
    /// everything that changed.
    ///
    /// # Errors
    ///
    /// [`DynError::NodeOutOfRange`] / [`DynError::UnknownEdge`] for
    /// mutations naming nonexistent endpoints, [`DynError::ZeroWeight`]
    /// for a weight of zero, and [`DynError::TreeWeightOverflow`] for a
    /// mutation after which the minimum spanning tree's total weight
    /// would overflow `u64`; the state is unmodified on error.
    pub fn apply(&mut self, mutation: JournalMutation) -> Result<DeltaRecord, DynError> {
        let steps = match mutation {
            JournalMutation::SetWeight { u, v, w } => {
                let e = self.resolve_edge(u, v)?;
                if w == 0 {
                    return Err(DynError::ZeroWeight);
                }
                vec![(e, Weight(w))]
            }
            JournalMutation::SwapWeights { u1, v1, u2, v2 } => {
                let e1 = self.resolve_edge(u1, v1)?;
                let e2 = self.resolve_edge(u2, v2)?;
                vec![(e1, self.graph.weight(e2)), (e2, self.graph.weight(e1))]
            }
        };
        self.apply_steps(mutation, &steps)
    }

    fn resolve_edge(&self, u: u32, v: u32) -> Result<EdgeId, DynError> {
        let nodes = self.graph.num_nodes() as u32;
        for node in [u, v] {
            if node >= nodes {
                return Err(DynError::NodeOutOfRange { node, nodes });
            }
        }
        self.graph
            .edge_between(NodeId(u), NodeId(v))
            .ok_or(DynError::UnknownEdge { u, v })
    }

    fn apply_steps(
        &mut self,
        mutation: JournalMutation,
        steps: &[(EdgeId, Weight)],
    ) -> Result<DeltaRecord, DynError> {
        if steps.iter().all(|&(e, w)| self.graph.weight(e) == w) {
            return Ok(self.finish_record(
                mutation,
                DeltaOutcome::NoOp,
                vec![],
                vec![],
                vec![],
                vec![],
            ));
        }

        // Phase 1: mutate weights and repair the tree, one step at a
        // time. `touched` collects tree edges whose weight changed
        // without evicting them; removed/added are the repair swaps.
        let single = steps.len() == 1;
        let mut touched: Vec<EdgeId> = Vec::new();
        let mut removed_edges: Vec<EdgeId> = Vec::new();
        let mut added_edges: Vec<EdgeId> = Vec::new();
        // Each step patches `self.work` in place, so the next repair
        // meets the current tree, while `self.tree` keeps the
        // pre-mutation view for phases 2 and 3 until commit replays
        // `patches` on it. `rows` lists the nodes whose parent row a
        // patch may have moved, for phase 7. Each swap also patches
        // `self.work_sep` in place, and `moved` lists the nodes whose
        // separator record that changed, for phase 3 and commit.
        let mut patches: Vec<Patch> = Vec::new();
        let mut rows: Vec<NodeId> = Vec::new();
        let mut moved: Vec<NodeId> = Vec::new();
        // The tree-edge weights' top, committed with the mutation.
        let mut weights = self.weights;
        // The tree weight follows every re-priced tree edge and swap, so
        // a mutation whose tree would have no DIST labels is refused
        // (and undone through `undo`) before anything is relabelled.
        let mut tree_weight = self.tree_weight;
        let mut undo: Vec<(EdgeId, Weight)> = Vec::with_capacity(steps.len());
        for &(e, w) in steps {
            let old_w = self.graph.weight(e);
            if old_w == w {
                continue;
            }
            undo.push((e, old_w));
            if single && !self.in_tree[e.index()] {
                // O(1) sensitivity test straight off the maintained MAX
                // labels: a non-tree edge strictly heavier than the path
                // maximum between its endpoints cannot enter the tree
                // under the (weight, id) EdgeKey order, so nothing — not
                // even a width — depends on its weight. (A tie needs the
                // full repair: the incumbent's edge id decides.)
                // Only valid while no earlier step dirtied the labels,
                // hence the `single` guard.
                let ed = self.graph.edge(e);
                let path_max = decode_max(&self.max_s[ed.u.index()], &self.max_s[ed.v.index()]);
                if w > path_max {
                    self.graph.set_weight(e, w);
                    continue;
                }
            }
            self.graph.set_weight(e, w);
            let was_tree = self.in_tree[e.index()];
            if was_tree {
                tree_weight = tree_weight - u128::from(old_w.0) + u128::from(w.0);
                // `e` leaves the weights at its old price and comes back
                // at its new one if it stays in the tree.
                weights.remove(old_w.0);
                if w < old_w {
                    // A lighter tree edge is still the lightest edge across
                    // its own cut, and it crosses no other tree edge's cut,
                    // so the canonical MST stays (cut property under the
                    // (weight, id) order) and the repair's cut scan would
                    // find nothing. This holds at any step: each earlier
                    // step left the canonical MST of its weights.
                    weights.add(w.0);
                    touched.push(e);
                    patches.push(self.reprice(e, &mut rows));
                    continue;
                }
            }
            match repair_after_weight_change_in(
                &self.graph,
                &self.work,
                &self.in_tree,
                &mut self.tree_edges,
                e,
            ) {
                Repair::Unchanged => {
                    if was_tree {
                        weights.add(w.0);
                        touched.push(e);
                        patches.push(self.reprice(e, &mut rows));
                    }
                }
                Repair::Swapped { removed, added } => {
                    tree_weight = tree_weight - u128::from(self.graph.weight(removed).0)
                        + u128::from(self.graph.weight(added).0);
                    // A raised tree edge can only be swapped out itself,
                    // and its old price has already left.
                    if removed != e {
                        weights.remove(self.graph.weight(removed).0);
                    }
                    weights.add(self.graph.weight(added).0);
                    self.in_tree[removed.index()] = false;
                    self.in_tree[added.index()] = true;
                    removed_edges.push(removed);
                    added_edges.push(added);
                    patches.push(self.rehang(removed, added, &mut rows, &mut moved));
                }
            }
        }
        if tree_weight > u128::from(u64::MAX) {
            for &(e, w) in undo.iter().rev() {
                self.graph.set_weight(e, w);
            }
            for (&removed, &added) in removed_edges.iter().zip(&added_edges).rev() {
                self.in_tree[removed.index()] = true;
                self.in_tree[added.index()] = false;
                // The edge set is the one before the mutation; its order
                // is unspecified (see `tree_edges`).
                let slot = self
                    .tree_edges
                    .iter()
                    .position(|&e| e == added)
                    .expect("a swap lists the edge it added");
                self.tree_edges[slot] = removed;
            }
            if !patches.is_empty() {
                self.work.clone_from(&self.tree);
            }
            self.work_sep.copy_records_from(&self.sep, &moved);
            return Err(DynError::TreeWeightOverflow);
        }
        self.tree_weight = tree_weight;
        let topo_changed = !removed_edges.is_empty();
        if !topo_changed && touched.is_empty() {
            // Only harmless non-tree weights moved: labels and widths
            // depend on tree edges alone.
            return Ok(self.finish_record(
                mutation,
                DeltaOutcome::NoOp,
                vec![],
                vec![],
                vec![],
                vec![],
            ));
        }

        // Phase 2: the decomposition, which reads structure only. Phase 1
        // already patched the working one after each swap
        // (`SeparatorDecomposition::rehang`, equal to a from-scratch
        // `centroid_decomposition`); weights-only mutations leave it
        // equal to the committed one.
        let new_sep = &self.work_sep;

        // Phase 3: the dirty list. A node's label changes only if its
        // separator chain changed, or the tree path from it to some
        // chain separator gained/lost/re-weighted an edge. Paths are
        // unique, so a path differs between the old and new tree only
        // if it crossed a removed edge (old side: old tree and
        // decomposition) or an added edge (new side); same-path value
        // changes need a touched edge on the path, on either side.
        if topo_changed {
            self.marks
                .changed_chains(&self.sep, new_sep, &self.work, &moved);
            for &e in removed_edges.iter().chain(&touched) {
                if let Some(child) = tree_child(&self.tree, self.graph.edge(e)) {
                    self.marks.crossing(&self.tree, &self.sep, child);
                }
            }
        }
        for &e in added_edges.iter().chain(&touched) {
            if let Some(child) = tree_child(&self.work, self.graph.edge(e)) {
                self.marks.crossing(&self.work, new_sep, child);
            }
        }
        self.marks.list.sort_unstable();
        let dirty: &[NodeId] = &self.marks.list;

        // Phase 4: re-assemble structured labels. Small dirty sets walk
        // each dirty node's chain paths (`walk_labels`: no preprocessing,
        // O(depth) per chain entry); a dirty set big enough to amortize
        // it pays for one O(n log n) batch pass over the whole tree
        // (`GammaPass`, all three families from one sweep), whose labels
        // outside the dirty set are unchanged. The walk and the pass are
        // bit-identical.
        let n = self.graph.num_nodes();
        if dirty.len().saturating_mul(16) <= n.max(16_384) {
            for &v in dirty {
                let (max, flow, dist) = walk_labels(&self.work, new_sep, v);
                self.max_s[v.index()] = max;
                self.flow_s[v.index()] = flow;
                self.dist_s[v.index()] = dist;
            }
        } else {
            let (max, flow, dist) =
                GammaPass::build(&self.work, new_sep, one_worker()).into_labels();
            self.max_s = max;
            self.flow_s = flow;
            self.dist_s = dist.expect("the marker refuses trees without distance labels");
        }
        for &v in dirty {
            let d = max_delta(&self.dist_s[v.index()]);
            self.deltas.remove(self.dist_max[v.index()]);
            self.deltas.add(d);
            self.dist_max[v.index()] = d;
        }

        // Phase 5: scheme widths. `ω` width follows the largest tree-edge
        // weight, `δ` width the largest distance field. Both tops follow
        // what moved above, and are rescanned only when their largest
        // value left with nothing tied to it. If either width moved,
        // every encoded label is re-encoded (assembly above was still
        // incremental).
        if weights.count == 0 {
            weights = Top::of(self.work.edges().map(|(_, _, w)| w.0));
        }
        let new_max_weight = weights.max_weight();
        let new_omega_bits = new_max_weight.bit_width();
        if self.deltas.count == 0 {
            self.deltas = Top::of(self.dist_max.iter().copied());
        }
        let new_delta_bits = Weight(self.deltas.value).bit_width();
        let widths_changed = new_omega_bits != self.omega_bits || new_delta_bits != self.delta_bits;
        let outcome = if widths_changed {
            DeltaOutcome::Reencode
        } else if topo_changed {
            DeltaOutcome::TreeSwap
        } else {
            DeltaOutcome::WeightsOnly
        };

        // Phase 6: re-encode and emit only the rows whose bits moved —
        // every row after a width change, else the dirty ones, in
        // ascending node order either way.
        let codec = LabelCodec {
            sep_codec: self.sep_codec,
            omega_bits: new_omega_bits,
        };
        let every: Vec<NodeId>;
        let encode: &[NodeId] = if widths_changed {
            every = self.graph.nodes().collect();
            &every
        } else {
            dirty
        };
        let mut max_d = Vec::new();
        let mut flow_d = Vec::new();
        let mut dist_d = Vec::new();
        // One scratch buffer for all three families: a node whose bits
        // did not move costs a re-encode into reused capacity, never a
        // fresh allocation. Only actually-changed rows own new bytes.
        let mut scratch = BitString::new();
        for &node in encode {
            let v = node.index();
            scratch.clear();
            codec.encode_max_into(&self.max_s[v], &mut scratch);
            push_if_changed(&mut self.enc_max, v, &scratch, node.0, &mut max_d);
            scratch.clear();
            codec.encode_flow_into(&self.flow_s[v], &mut scratch);
            push_if_changed(&mut self.enc_flow, v, &scratch, node.0, &mut flow_d);
            scratch.clear();
            encode_dist_label_into(
                &self.dist_s[v],
                self.sep_codec,
                new_delta_bits,
                &mut scratch,
            );
            push_if_changed(&mut self.enc_dist, v, &scratch, node.0, &mut dist_d);
        }

        // Phase 7: tree-row deltas, then commit. Only the re-hung path
        // nodes and the re-priced edges' children can have moved parent
        // rows; visiting them in ascending node order (deduplicated)
        // emits the full table diff row for row.
        rows.sort_unstable();
        rows.dedup();
        let mut tree_d = Vec::new();
        for c in rows {
            let entry = self.work.parent(c).map(|p| (p, self.work.parent_weight(c)));
            if self.parents[c.index()] != entry {
                self.parents[c.index()] = entry;
                tree_d.push(TreeDelta {
                    node: c.0,
                    parent: entry.map(|(p, w)| (p.0, w.0)),
                });
            }
        }
        for patch in patches {
            patch.apply(&mut self.tree);
        }
        debug_assert!(self.tree == self.work, "commit replays the working tree");
        self.sep.copy_records_from(&self.work_sep, &moved);
        debug_assert!(
            self.sep == self.work_sep,
            "commit copies every changed record"
        );
        self.marks.clear();
        self.weights = weights;
        self.max_weight = new_max_weight;
        self.omega_bits = new_omega_bits;
        self.delta_bits = new_delta_bits;
        Ok(self.finish_record(mutation, outcome, tree_d, max_d, flow_d, dist_d))
    }

    /// Re-prices tree edge `e` at its graph weight in the working tree.
    fn reprice(&mut self, e: EdgeId, rows: &mut Vec<NodeId>) -> Patch {
        let ed = self.graph.edge(e);
        let child = tree_child(&self.work, ed).expect("a re-priced edge is a tree edge");
        let patch = Patch::Reprice { child, w: ed.w };
        patch.apply(&mut self.work);
        rows.push(child);
        patch
    }

    /// Swaps tree edge `removed` for `added` in the working tree and its
    /// decomposition, listing in `moved` the nodes whose separator record
    /// changed.
    fn rehang(
        &mut self,
        removed: EdgeId,
        added: EdgeId,
        rows: &mut Vec<NodeId>,
        moved: &mut Vec<NodeId>,
    ) -> Patch {
        let cut =
            tree_child(&self.work, self.graph.edge(removed)).expect("a repair removes a tree edge");
        let p = self
            .work
            .parent(cut)
            .expect("a removed link has a parent end");
        let ad = self.graph.edge(added);
        // `added` crosses the cut: the endpoint with `cut` on its root
        // path is inside it.
        let below =
            |x: NodeId| std::iter::successors(Some(x), |&v| self.work.parent(v)).any(|v| v == cut);
        let (inner, outer) = if below(ad.u) {
            (ad.u, ad.v)
        } else {
            (ad.v, ad.u)
        };
        let patch = Patch::Rehang {
            cut,
            inner,
            outer,
            w: ad.w,
        };
        patch.apply(&mut self.work);
        self.work_sep
            .rehang(&self.work, cut, inner, outer, p, moved);
        // The re-hung path, now from `cut` up to `inner`.
        rows.extend(std::iter::successors(Some(cut), |&v| {
            (v != inner).then(|| self.work.parent(v).expect("inner hangs below outer"))
        }));
        patch
    }

    fn finish_record(
        &mut self,
        mutation: JournalMutation,
        outcome: DeltaOutcome,
        tree: Vec<TreeDelta>,
        max: Vec<LabelDelta>,
        flow: Vec<LabelDelta>,
        dist: Vec<LabelDelta>,
    ) -> DeltaRecord {
        self.seq += 1;
        DeltaRecord {
            seq: self.seq,
            mutation,
            outcome,
            new_max_weight: self.max_weight,
            new_omega_bits: self.omega_bits,
            new_delta_bits: self.delta_bits,
            tree,
            max,
            flow,
            dist,
        }
    }

    /// Full batch (re)build of structured and encoded labels from one
    /// [`GammaPass`] — the constructor's path, also reusable as a hard
    /// reset.
    fn rebuild_all_labels(&mut self) {
        let pass = GammaPass::build(&self.tree, &self.sep, one_worker());
        self.weights = Top::of(self.tree.edges().map(|(_, _, w)| w.0));
        self.max_weight = self.weights.max_weight();
        self.omega_bits = self.max_weight.bit_width();
        let codec = LabelCodec {
            sep_codec: self.sep_codec,
            omega_bits: self.omega_bits,
        };
        let enc = pass.encode(codec, one_worker());
        let (delta_bits, enc_dist) = enc
            .dist
            .expect("the marker refuses trees without distance labels");
        self.delta_bits = delta_bits;
        self.enc_max = enc.max;
        self.enc_flow = enc.flow;
        self.enc_dist = enc_dist;
        let (max, flow, dist) = pass.into_labels();
        self.max_s = max;
        self.flow_s = flow;
        self.dist_s = dist.expect("the marker refuses trees without distance labels");
        self.dist_max = self.dist_s.iter().map(max_delta).collect();
        self.deltas = Top::of(self.dist_max.iter().copied());
    }
}

/// The largest distance field of a label, 0 without one.
fn max_delta(label: &DistLabel) -> u64 {
    label.delta.iter().copied().max().unwrap_or(0)
}

/// The largest of a multiset of values and how many times it occurs,
/// kept current as values come and go. A count of zero means the largest
/// value left: every value is then below `value`, which the owner must
/// rescan before reading.
#[derive(Debug, Default, Clone, Copy)]
struct Top {
    value: u64,
    count: usize,
}

impl Top {
    fn of(values: impl IntoIterator<Item = u64>) -> Top {
        let mut top = Top::default();
        values.into_iter().for_each(|v| top.add(v));
        top
    }

    fn add(&mut self, v: u64) {
        if v > self.value {
            *self = Top { value: v, count: 1 };
        } else if v == self.value {
            self.count += 1;
        }
    }

    fn remove(&mut self, v: u64) {
        if v == self.value {
            self.count -= 1;
        }
    }

    /// The largest tree-edge weight, read from a current top of them: 1
    /// for a tree with no edge (one node).
    fn max_weight(&self) -> Weight {
        Weight(if self.count == 0 { 1 } else { self.value })
    }
}

/// One in-place change that phase 1 makes to the working tree; commit
/// replays the same changes, in order, on the committed tree.
#[derive(Debug, Clone, Copy)]
enum Patch {
    /// A tree edge re-priced where it is ([`RootedTree::set_parent_weight`]).
    Reprice { child: NodeId, w: Weight },
    /// A repair swap ([`RootedTree::rehang`]).
    Rehang {
        cut: NodeId,
        inner: NodeId,
        outer: NodeId,
        w: Weight,
    },
}

impl Patch {
    fn apply(self, tree: &mut RootedTree) {
        match self {
            Patch::Reprice { child, w } => tree.set_parent_weight(child, w),
            Patch::Rehang {
                cut,
                inner,
                outer,
                w,
            } => tree.rehang(cut, inner, outer, w),
        }
    }
}

/// One worker: the marker relabels on its caller's thread.
fn one_worker() -> ParallelConfig {
    ParallelConfig::with_threads(std::num::NonZeroUsize::MIN)
}

fn parent_entries(tree: &RootedTree) -> Vec<Option<(NodeId, Weight)>> {
    tree.nodes()
        .map(|v| tree.parent(v).map(|p| (p, tree.parent_weight(v))))
        .collect()
}

/// The child endpoint of `edge` when it is a link of `tree`.
fn tree_child(tree: &RootedTree, edge: Edge) -> Option<NodeId> {
    if tree.parent(edge.u) == Some(edge.v) {
        Some(edge.u)
    } else if tree.parent(edge.v) == Some(edge.u) {
        Some(edge.v)
    } else {
        None
    }
}

/// Phase 3's dirty list, with the per-node marks that build it. The
/// marker owns one and clears it after each mutation, so marking costs
/// what it marks, never a fresh `n`-entry vector.
struct DirtyMarks {
    /// `dirty[v]` holds exactly for the nodes of `list`.
    dirty: Vec<bool>,
    list: Vec<NodeId>,
    /// The smaller shore of the cut being marked, and its marks (clear
    /// between cuts).
    shore: Vec<NodeId>,
    on_shore: Vec<bool>,
    /// The walks' stack: a node and the neighbor it was reached from.
    stack: Vec<(NodeId, NodeId)>,
}

impl DirtyMarks {
    fn new(n: usize) -> Self {
        DirtyMarks {
            dirty: vec![false; n],
            list: Vec::new(),
            shore: Vec::new(),
            on_shore: vec![false; n],
            stack: Vec::new(),
        }
    }

    /// Marks every node whose separator-ancestor chain (including the
    /// child ranks its label fields encode) differs between `old` and
    /// `new`, the decomposition of `tree`. A chain differs exactly when
    /// some node on it changed its own `(separator parent, rank)` step,
    /// so the marked nodes are the separator subtrees, in `new`, of the
    /// nodes whose step changed, all of which are among `candidates`
    /// (the nodes the decomposition update listed). Their subtrees are
    /// walked top-down, and one that lies inside a subtree already walked
    /// is skipped whole.
    fn changed_chains(
        &mut self,
        old: &SeparatorDecomposition,
        new: &SeparatorDecomposition,
        tree: &RootedTree,
        candidates: &[NodeId],
    ) {
        let mut tops: Vec<(u32, NodeId)> = candidates
            .iter()
            .copied()
            .filter(|&u| step_changed(old, new, u))
            .map(|u| (new.level(u), u))
            .collect();
        tops.sort_unstable();
        for (level, u) in tops {
            if !self.dirty[u.index()] {
                walk(
                    tree,
                    u,
                    &mut self.stack,
                    &mut self.dirty,
                    &mut self.list,
                    |x| new.level(x) > level,
                );
            }
        }
    }

    /// Marks every node whose tree path to some separator ancestor (in
    /// `sep`) crosses the link between `child` and its parent in `tree`:
    /// exactly the nodes with a `ω`/`φ`/`δ` field over that link.
    ///
    /// Let `near` be the link's endpoint on its smaller shore `M` and
    /// `far` the other. A separator `s` on `M` whose subtree reaches a
    /// node off `M` holds the link in its (connected) subtree, so `s` is
    /// on `far`'s chain; these subtrees nest, so the marked nodes off `M`
    /// are those of the highest such subtree, a connected piece around
    /// `far`. The marked nodes on `M` mirror this from `near`. Each piece
    /// is walked from its endpoint through the higher-level nodes on its
    /// side, so the cost is the shore plus what gets marked.
    fn crossing(&mut self, tree: &RootedTree, sep: &SeparatorDecomposition, child: NodeId) {
        let top = tree.parent(child).expect("a cut link has a parent end");
        let (near, far) = if tree.smaller_shore(child, &mut self.shore) {
            (child, top)
        } else {
            (top, child)
        };
        for &v in &self.shore {
            self.on_shore[v.index()] = true;
        }
        let on_shore = &self.on_shore;
        for (start, shore_side) in [(far, false), (near, true)] {
            let Some(level) =
                highest_ancestor_level(sep, start, |s| on_shore[s.index()] != shore_side)
            else {
                continue;
            };
            walk(
                tree,
                start,
                &mut self.stack,
                &mut self.dirty,
                &mut self.list,
                |x| on_shore[x.index()] == shore_side && sep.level(x) > level,
            );
        }
        for &v in &self.shore {
            self.on_shore[v.index()] = false;
        }
    }

    fn clear(&mut self) {
        for v in self.list.drain(..) {
            self.dirty[v.index()] = false;
        }
    }
}

/// Whether `u`'s own `(separator parent, rank)` step differs between
/// the two decompositions (the rank is compared below a parent only).
fn step_changed(a: &SeparatorDecomposition, b: &SeparatorDecomposition, u: NodeId) -> bool {
    match (a.sep_parent(u), b.sep_parent(u)) {
        (None, None) => false,
        (Some(pa), Some(pb)) => pa != pb || a.child_rank(u) != b.child_rank(u),
        _ => true,
    }
}

/// The level of the highest proper separator ancestor of `v` that
/// `pick` accepts.
fn highest_ancestor_level(
    sep: &SeparatorDecomposition,
    v: NodeId,
    pick: impl Fn(NodeId) -> bool,
) -> Option<u32> {
    let mut found = None;
    let mut cur = sep.sep_parent(v);
    while let Some(s) = cur {
        if pick(s) {
            found = Some(sep.level(s));
        }
        cur = sep.sep_parent(s);
    }
    found
}

/// Adds to the dirty list `start` and every node reachable from it over
/// tree links through nodes that `keep` accepts. A separator subtree is
/// the walk from its separator through the higher-level nodes, since
/// the nodes around it are separators removed before it.
fn walk(
    tree: &RootedTree,
    start: NodeId,
    stack: &mut Vec<(NodeId, NodeId)>,
    dirty: &mut [bool],
    list: &mut Vec<NodeId>,
    keep: impl Fn(NodeId) -> bool,
) {
    stack.push((start, start));
    while let Some((v, from)) = stack.pop() {
        if !dirty[v.index()] {
            dirty[v.index()] = true;
            list.push(v);
        }
        for u in tree.children(v).iter().copied().chain(tree.parent(v)) {
            if u != from && keep(u) {
                stack.push((u, v));
            }
        }
    }
}

fn push_if_changed(
    enc: &mut [BitString],
    v: usize,
    new_bits: &BitString,
    node: u32,
    out: &mut Vec<LabelDelta>,
) {
    if enc[v] != *new_bits {
        enc[v] = new_bits.clone();
        out.push(LabelDelta {
            node,
            bits: new_bits.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstv_graph::gen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The from-scratch pipeline every incremental state must match
    /// byte-for-byte: canonical Kruskal, root 0, batch snapshot build.
    fn reference_snapshot(g: &Graph, sep_codec: SepFieldCodec) -> Snapshot {
        let mst = kruskal(g);
        let tree = RootedTree::from_graph_edges(g, &mst, NodeId(0)).unwrap();
        Snapshot::build(&tree, sep_codec)
    }

    fn canon(mut edges: Vec<EdgeId>) -> Vec<EdgeId> {
        edges.sort_unstable();
        edges
    }

    fn assert_in_sync(marker: &DynMarker, context: &str) {
        assert_eq!(
            canon(marker.tree_edges().to_vec()),
            canon(kruskal(marker.graph())),
            "{context}: maintained tree drifted from canonical Kruskal"
        );
        let incremental = marker.snapshot().to_bytes();
        let rebuilt = reference_snapshot(marker.graph(), SepFieldCodec::EliasGamma).to_bytes();
        assert_eq!(
            incremental, rebuilt,
            "{context}: incremental snapshot not bit-identical to full rebuild"
        );
    }

    fn random_marker(n: usize, extra: usize, max_w: u64, seed: u64) -> (DynMarker, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_connected(n, extra, gen::WeightDist::Uniform { max: max_w }, &mut rng);
        let marker = DynMarker::new(g, SepFieldCodec::EliasGamma).unwrap();
        (marker, rng)
    }

    fn random_mutation(g: &Graph, max_w: u64, rng: &mut StdRng) -> JournalMutation {
        if rng.gen_range(0..4) == 0 {
            let a = g.edge(EdgeId(rng.gen_range(0..g.num_edges() as u32)));
            let b = g.edge(EdgeId(rng.gen_range(0..g.num_edges() as u32)));
            JournalMutation::SwapWeights {
                u1: a.u.0,
                v1: a.v.0,
                u2: b.u.0,
                v2: b.v.0,
            }
        } else {
            let e = g.edge(EdgeId(rng.gen_range(0..g.num_edges() as u32)));
            JournalMutation::SetWeight {
                u: e.u.0,
                v: e.v.0,
                w: rng.gen_range(1..=max_w),
            }
        }
    }

    #[test]
    fn fresh_marker_matches_batch_build() {
        for seed in 0..4 {
            let (marker, _) = random_marker(48, 70, 900, seed);
            assert_in_sync(&marker, "fresh");
        }
    }

    #[test]
    fn every_mutation_stays_bit_identical_to_rebuild() {
        for seed in 0..6 {
            let max_w = if seed % 2 == 0 { 500 } else { 6 }; // odd seeds: dense ties
            let (mut marker, mut rng) = random_marker(40, 60, max_w, 100 + seed);
            for step in 0..60 {
                let m = random_mutation(marker.graph(), max_w, &mut rng);
                let record = marker.apply(m).unwrap();
                assert_eq!(record.seq, step + 1);
                assert_in_sync(&marker, &format!("seed {seed} step {step} ({m:?})"));
            }
        }
    }

    #[test]
    fn journal_compaction_lands_on_the_live_state() {
        let (mut marker, mut rng) = random_marker(32, 48, 300, 7);
        let base = marker.snapshot();
        let mut journal = mstv_store::Journal::new(&base);
        for _ in 0..40 {
            let m = random_mutation(marker.graph(), 300, &mut rng);
            journal.append(marker.apply(m).unwrap());
        }
        // The journal round-trips and folds back into exactly the
        // marker's current snapshot.
        let journal = mstv_store::Journal::from_bytes(&journal.to_bytes()).unwrap();
        let compacted = journal.compact(&base).unwrap();
        assert_eq!(compacted.to_bytes(), marker.snapshot().to_bytes());
    }

    #[test]
    fn non_tree_raise_is_an_o1_noop() {
        let (mut marker, _) = random_marker(30, 45, 100, 9);
        // Find a non-tree edge and push it strictly above everything.
        let e = marker
            .graph()
            .edge_ids()
            .find(|e| !marker.in_tree[e.index()])
            .expect("45 extra edges guarantee a chord");
        let ed = marker.graph().edge(e);
        let record = marker
            .apply(JournalMutation::SetWeight {
                u: ed.u.0,
                v: ed.v.0,
                w: 10_000,
            })
            .unwrap();
        assert_eq!(record.outcome, DeltaOutcome::NoOp);
        assert!(record.tree.is_empty());
        assert!(record.dirty_nodes().is_empty());
        assert_in_sync(&marker, "non-tree raise");
        // Lowering it below the path maximum must flip the tree.
        let record = marker
            .apply(JournalMutation::SetWeight {
                u: ed.u.0,
                v: ed.v.0,
                w: 1,
            })
            .unwrap();
        assert!(
            matches!(
                record.outcome,
                DeltaOutcome::TreeSwap | DeltaOutcome::Reencode
            ),
            "undercutting the tree path must swap, got {:?}",
            record.outcome
        );
        assert_in_sync(&marker, "non-tree undercut");
    }

    #[test]
    fn width_growth_forces_a_reencode_record() {
        // A tree with NO chords (extra = 0): every edge raise stays in
        // the tree. All weights in 1..=7 (omega_bits = 3); pushing a
        // tree edge to 200 widens ω to 8 bits — every label must be
        // re-encoded and the record must say so.
        let (mut marker, _) = random_marker(24, 0, 7, 11);
        let e = marker.tree_edges()[0];
        let ed = marker.graph().edge(e);
        let record = marker
            .apply(JournalMutation::SetWeight {
                u: ed.u.0,
                v: ed.v.0,
                w: 200,
            })
            .unwrap();
        assert_eq!(record.outcome, DeltaOutcome::Reencode);
        assert_eq!(record.new_omega_bits, 8);
        assert_eq!(record.max.len(), 24, "ω fields widen in every MAX label");
        assert_in_sync(&marker, "width growth");
        // And shrinking back down re-encodes again.
        let record = marker
            .apply(JournalMutation::SetWeight {
                u: ed.u.0,
                v: ed.v.0,
                w: 1,
            })
            .unwrap();
        assert_eq!(record.outcome, DeltaOutcome::Reencode);
        assert_in_sync(&marker, "width shrink");
    }

    /// A marker over `n` nodes and the weighted edges `(u, v, w)`.
    fn marker_of(n: usize, edges: &[(u32, u32, u64)]) -> DynMarker {
        let mut g = Graph::new(n);
        for &(u, v, w) in edges {
            g.add_edge(NodeId(u), NodeId(v), Weight(w)).unwrap();
        }
        DynMarker::new(g, SepFieldCodec::EliasGamma).unwrap()
    }

    /// Applies `m`, checks the record's widths against a rebuild's and the
    /// state against the rebuild's bytes, and returns the record.
    fn apply_against_rebuild(marker: &mut DynMarker, m: JournalMutation) -> DeltaRecord {
        let record = marker.apply(m).unwrap();
        let rebuilt = reference_snapshot(marker.graph(), SepFieldCodec::EliasGamma);
        assert_eq!(record.new_max_weight, rebuilt.max_weight(), "{m:?}");
        assert_eq!(record.new_omega_bits, rebuilt.codec().omega_bits, "{m:?}");
        let delta_bits = rebuilt.dist().expect("the tree fits u64").delta_bits;
        assert_eq!(record.new_delta_bits, delta_bits, "{m:?}");
        assert_in_sync(marker, &format!("{m:?}"));
        record
    }

    #[test]
    fn widths_follow_their_largest_values_down() {
        let set = |u, v, w| JournalMutation::SetWeight { u, v, w };

        // Two tree edges tied at the top weight (a path, so nothing can
        // swap): lowering one keeps ω, lowering the other shrinks it.
        let mut m = marker_of(
            6,
            &[(0, 1, 100), (1, 2, 3), (2, 3, 100), (3, 4, 2), (4, 5, 5)],
        );
        let r = apply_against_rebuild(&mut m, set(0, 1, 4));
        assert_eq!(
            (r.outcome, r.new_max_weight),
            (DeltaOutcome::WeightsOnly, Weight(100))
        );
        let r = apply_against_rebuild(&mut m, set(2, 3, 6));
        assert_eq!(
            (r.outcome, r.new_max_weight),
            (DeltaOutcome::Reencode, Weight(6))
        );

        // The heaviest tree edge leaves through a swap: the cycle
        // 0 - 1 - 2 - 3 - 0 keeps 0 - 1 (100) until the chord 3 - 0 drops
        // below it.
        let mut m = marker_of(4, &[(0, 1, 100), (1, 2, 2), (2, 3, 3), (3, 0, 150)]);
        let r = apply_against_rebuild(&mut m, set(3, 0, 50));
        assert_eq!(
            (r.outcome, r.new_max_weight),
            (DeltaOutcome::Reencode, Weight(50))
        );
        assert!(!r.tree.is_empty(), "the chord entered the tree");

        // A SwapWeights trades the heaviest tree edge's weight (1 - 2,
        // 100) with a chord's (2 - 4, 3, kept out by the lower-id 2 - 3):
        // the tree edge drops to 3, the chord rises to 100 and stays out.
        let mut m = marker_of(
            5,
            &[(0, 1, 2), (1, 2, 100), (2, 3, 3), (3, 4, 2), (2, 4, 3)],
        );
        let swap = JournalMutation::SwapWeights {
            u1: 1,
            v1: 2,
            u2: 2,
            v2: 4,
        };
        let r = apply_against_rebuild(&mut m, swap);
        assert_eq!(
            (r.outcome, r.new_max_weight),
            (DeltaOutcome::Reencode, Weight(3))
        );

        // δ shrinks when the node with the largest distance field gets
        // closer: on the path 0 - ... - 6, centred on 3, node 0 sits 180
        // from its root separator, and lowering 0 - 1 brings it to 121
        // while the ω top (60, tied three times) holds.
        let mut m = marker_of(
            7,
            &[
                (0, 1, 60),
                (1, 2, 60),
                (2, 3, 60),
                (3, 4, 1),
                (4, 5, 1),
                (5, 6, 60),
            ],
        );
        let before = m.delta_bits;
        let r = apply_against_rebuild(&mut m, set(0, 1, 1));
        assert_eq!(r.new_max_weight, Weight(60));
        assert!(
            r.new_delta_bits < before,
            "δ width {before} → {}",
            r.new_delta_bits
        );
    }

    #[test]
    fn weights_only_touches_a_strict_subset() {
        // A tree-edge reweight deep in the tree (no width move, no swap)
        // must dirty only the labels whose chain paths cross it.
        let (mut marker, mut rng) = random_marker(64, 96, 1 << 20, 13);
        let mut saw_proper_subset = false;
        for _ in 0..40 {
            let e = marker.tree_edges()[rng.gen_range(0..marker.tree_edges().len())];
            let ed = marker.graph().edge(e);
            let record = marker
                .apply(JournalMutation::SetWeight {
                    u: ed.u.0,
                    v: ed.v.0,
                    w: rng.gen_range((1 << 19)..(1 << 20)),
                })
                .unwrap();
            assert_in_sync(&marker, "weights-only stream");
            if record.outcome == DeltaOutcome::WeightsOnly
                && !record.dirty_nodes().is_empty()
                && record.dirty_nodes().len() < 64
            {
                saw_proper_subset = true;
            }
        }
        assert!(
            saw_proper_subset,
            "expected at least one weights-only mutation relabeling a proper subset"
        );
    }

    #[test]
    fn swap_weights_applies_atomically() {
        let (mut marker, _) = random_marker(20, 30, 400, 17);
        let e1 = marker.tree_edges()[0];
        let e2 = marker
            .graph()
            .edge_ids()
            .find(|e| !marker.in_tree[e.index()])
            .unwrap();
        let (a, b) = (marker.graph().edge(e1), marker.graph().edge(e2));
        let (w1, w2) = (marker.graph().weight(e1), marker.graph().weight(e2));
        marker
            .apply(JournalMutation::SwapWeights {
                u1: a.u.0,
                v1: a.v.0,
                u2: b.u.0,
                v2: b.v.0,
            })
            .unwrap();
        assert_eq!(marker.graph().weight(e1), w2);
        assert_eq!(marker.graph().weight(e2), w1);
        assert_in_sync(&marker, "swap weights");
    }

    #[test]
    fn bad_mutations_leave_state_untouched() {
        let (mut marker, _) = random_marker(16, 20, 100, 21);
        let before = marker.snapshot().to_bytes();
        assert_eq!(
            marker.apply(JournalMutation::SetWeight { u: 0, v: 99, w: 5 }),
            Err(DynError::NodeOutOfRange {
                node: 99,
                nodes: 16
            })
        );
        // A vertex pair with no edge: complete graphs are tiny, so find
        // an absent pair by scanning.
        let missing = (0..16u32)
            .flat_map(|u| (0..16u32).map(move |v| (u, v)))
            .find(|&(u, v)| u != v && marker.graph().edge_between(NodeId(u), NodeId(v)).is_none());
        if let Some((u, v)) = missing {
            assert_eq!(
                marker.apply(JournalMutation::SetWeight { u, v, w: 5 }),
                Err(DynError::UnknownEdge { u, v })
            );
        }
        // A zero weight is refused before the edge's weight moves, on a
        // tree edge and on a chord alike.
        let chord = marker
            .graph()
            .edge_ids()
            .find(|e| !marker.in_tree[e.index()])
            .expect("20 extra edges guarantee a chord");
        for e in [marker.tree_edges()[0], chord] {
            let ed = marker.graph().edge(e);
            assert_eq!(
                marker.apply(JournalMutation::SetWeight {
                    u: ed.u.0,
                    v: ed.v.0,
                    w: 0
                }),
                Err(DynError::ZeroWeight)
            );
            assert_eq!(marker.graph().weight(e), ed.w);
        }
        assert_eq!(marker.seq(), 0);
        assert_eq!(marker.snapshot().to_bytes(), before);
    }

    #[test]
    fn large_dirty_sets_relabel_through_the_batch_builders() {
        // Past 1024 dirty nodes (at n ≤ 16384) phase 4 switches from the
        // per-node walk to the batch sweeps; evicting tree edges until a
        // swap re-labels more rows than that exercises the switch.
        let (mut marker, mut rng) = random_marker(1100, 1500, 1 << 20, 31);
        let mut batch_sized = 0;
        for _ in 0..12 {
            let e = marker.tree_edges()[rng.gen_range(0..marker.tree_edges().len())];
            let ed = marker.graph().edge(e);
            let record = marker
                .apply(JournalMutation::SetWeight {
                    u: ed.u.0,
                    v: ed.v.0,
                    w: 1 << 20,
                })
                .unwrap();
            assert_in_sync(&marker, "tree-edge eviction");
            if record.outcome == DeltaOutcome::TreeSwap && record.max.len() > 1024 {
                batch_sized += 1;
            }
        }
        assert!(batch_sized > 0, "no swap dirtied more than 1024 nodes");
    }

    #[test]
    fn trees_without_dist_labels_are_refused() {
        let big = 1u64 << 63;
        let mut path = Graph::new(5);
        for i in 0..4 {
            path.add_edge(NodeId(i), NodeId(i + 1), Weight(big))
                .unwrap();
        }
        assert_eq!(
            DynMarker::new(path, SepFieldCodec::EliasGamma).err(),
            Some(DynError::TreeWeightOverflow)
        );

        // Path 0-1-2 plus a chord; the tree {01, 12} weighs 2^63 + 1.
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), Weight(big)).unwrap();
        g.add_edge(NodeId(1), NodeId(2), Weight(1)).unwrap();
        g.add_edge(NodeId(0), NodeId(2), Weight(big + 1)).unwrap();
        let mut marker = DynMarker::new(g, SepFieldCodec::EliasGamma).unwrap();
        let before = marker.snapshot().to_bytes();
        let tree_before = canon(marker.tree_edges().to_vec());
        for w in [
            // Re-pricing a tree edge: the tree stays and weighs 2^64.
            big,
            // Evicting it: the chord enters and the tree weighs 2^64 + 1.
            u64::MAX,
        ] {
            assert_eq!(
                marker.apply(JournalMutation::SetWeight { u: 1, v: 2, w }),
                Err(DynError::TreeWeightOverflow)
            );
            assert_eq!(marker.snapshot().to_bytes(), before);
            assert_eq!(canon(marker.tree_edges().to_vec()), tree_before);
            assert_eq!(marker.graph().weight(EdgeId(1)), Weight(1));
            assert_eq!(marker.seq(), 0);
        }
        // A mutation whose tree fits still applies, in sync.
        marker
            .apply(JournalMutation::SetWeight { u: 1, v: 2, w: 7 })
            .unwrap();
        assert_in_sync(&marker, "after refused mutations");
    }

    /// The whole-tree reference for [`DirtyMarks::changed_chains`]: marks
    /// every node whose separator-ancestor chain (including the child
    /// ranks its label fields encode) differs between the two
    /// decompositions. A node's chain is its own `(sep_parent,
    /// child_rank)` step followed by its separator parent's chain, so
    /// verdicts are shared along chains: each node is classified once and
    /// every climb stops at the first already-classified ancestor.
    fn mark_changed_chains(
        a: &SeparatorDecomposition,
        b: &SeparatorDecomposition,
        dirty: &mut [bool],
    ) {
        const UNKNOWN: u8 = 0;
        const EQUAL: u8 = 1;
        const CHANGED: u8 = 2;
        let mut state = vec![UNKNOWN; dirty.len()];
        let mut chain: Vec<NodeId> = Vec::new();
        for v0 in 0..dirty.len() {
            let mut cur = NodeId(v0 as u32);
            let verdict = loop {
                if state[cur.index()] != UNKNOWN {
                    break state[cur.index()];
                }
                chain.push(cur);
                match (a.sep_parent(cur), b.sep_parent(cur)) {
                    (None, None) => break EQUAL,
                    (Some(pa), Some(pb)) if pa == pb && a.child_rank(cur) == b.child_rank(cur) => {
                        cur = pb;
                    }
                    _ => break CHANGED,
                }
            };
            for c in chain.drain(..) {
                state[c.index()] = verdict;
            }
            if state[v0] == CHANGED {
                dirty[v0] = true;
            }
        }
    }

    /// `true` for the nodes of `top`'s subtree.
    fn below(tree: &RootedTree, top: NodeId) -> Vec<bool> {
        let mut inside = vec![false; tree.num_nodes()];
        let mut stack = vec![top];
        while let Some(v) = stack.pop() {
            inside[v.index()] = true;
            stack.extend_from_slice(tree.children(v));
        }
        inside
    }

    /// `true` for nodes in the subtree hanging below tree edge `e` (on
    /// the child endpoint's side).
    fn subtree_membership(tree: &RootedTree, graph: &Graph, e: EdgeId) -> Vec<bool> {
        let child = tree_child(tree, graph.edge(e)).expect("edge not in tree");
        below(tree, child)
    }

    /// The whole-tree reference for [`DirtyMarks::crossing`]: marks
    /// dirty every node whose path to some separator ancestor crosses
    /// the membership boundary (`memb[v] != memb[s]` for some chain node
    /// `s`).
    ///
    /// Each node's flags (some proper separator ancestor inside the
    /// shore, some outside) are its separator parent's flags plus that
    /// parent's own side, so, as in [`mark_changed_chains`], each climb
    /// stops at the first node already classified and the whole pass is
    /// `O(n)`.
    fn mark_crossing(dirty: &mut [bool], sep: &SeparatorDecomposition, memb: &[bool]) {
        const KNOWN: u8 = 1;
        const INSIDE: u8 = 2;
        const OUTSIDE: u8 = 4;
        let side = |v: NodeId| if memb[v.index()] { INSIDE } else { OUTSIDE };
        let mut flags = vec![0u8; dirty.len()];
        let mut chain: Vec<NodeId> = Vec::new();
        for v0 in 0..dirty.len() {
            let mut cur = NodeId(v0 as u32);
            // The flags of the first node above the climb, with that
            // node's own side added: what its separator children inherit.
            let mut above = loop {
                if flags[cur.index()] != 0 {
                    break flags[cur.index()] | side(cur);
                }
                chain.push(cur);
                match sep.sep_parent(cur) {
                    Some(p) => cur = p,
                    None => break 0,
                }
            };
            for c in chain.drain(..).rev() {
                flags[c.index()] = above | KNOWN;
                above |= side(c);
            }
            let across = if memb[v0] { OUTSIDE } else { INSIDE };
            if flags[v0] & across != 0 {
                dirty[v0] = true;
            }
        }
    }

    /// The reference for [`mark_crossing`]: climb each node's whole
    /// separator chain.
    fn mark_crossing_by_climbing(dirty: &mut [bool], sep: &SeparatorDecomposition, memb: &[bool]) {
        for (v, d) in dirty.iter_mut().enumerate() {
            let mut cur = sep.sep_parent(NodeId(v as u32));
            while let Some(s) = cur {
                if memb[s.index()] != memb[v] {
                    *d = true;
                    break;
                }
                cur = sep.sep_parent(s);
            }
        }
    }

    #[test]
    fn memoized_crossing_marks_equal_the_chain_climb() {
        use mstv_trees::{first_vertex_decomposition, random_decomposition};
        let mut rng = StdRng::seed_from_u64(41);
        for n in [1usize, 2, 3, 7, 40, 300, 1500] {
            let g = gen::random_tree(n, gen::WeightDist::Uniform { max: 50 }, &mut rng);
            let tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
            let decomps = [
                centroid_decomposition(&tree),
                first_vertex_decomposition(&tree),
                random_decomposition(&tree, &mut rng),
            ];
            for sep in &decomps {
                for trial in 0..12 {
                    // Shores: a tree edge's subtree (what apply cuts), or
                    // an arbitrary subset, or everything on one side.
                    let memb: Vec<bool> = match trial % 3 {
                        0 if n > 1 => {
                            let e = EdgeId(rng.gen_range(0..g.num_edges() as u32));
                            subtree_membership(&tree, &g, e)
                        }
                        1 => (0..n).map(|_| rng.gen_bool(0.5)).collect(),
                        _ => vec![trial % 2 == 0; n],
                    };
                    let start: Vec<bool> = (0..n).map(|_| rng.gen_range(0..8) == 0).collect();
                    let mut fast = start.clone();
                    let mut slow = start;
                    mark_crossing(&mut fast, sep, &memb);
                    mark_crossing_by_climbing(&mut slow, sep, &memb);
                    assert_eq!(fast, slow, "n = {n}, trial {trial}");
                }
            }
        }
    }

    #[test]
    fn lighter_tree_edges_keep_the_tree() {
        let (mut marker, mut rng) = random_marker(64, 96, 1 << 20, 43);
        let tree_before = canon(marker.tree_edges().to_vec());
        for step in 0..40 {
            let e = marker.tree_edges()[rng.gen_range(0..marker.tree_edges().len())];
            let old_w = marker.graph().weight(e).0;
            if old_w == 1 {
                continue;
            }
            let ed = marker.graph().edge(e);
            let mutation =
                if step % 2 == 0 {
                    JournalMutation::SetWeight {
                        u: ed.u.0,
                        v: ed.v.0,
                        w: rng.gen_range(1..old_w),
                    }
                } else {
                    // A lighter non-tree edge: the swap lowers the tree edge
                    // first, then raises the chord, which stays out.
                    let Some(f) = marker.graph().edge_ids().find(|&f| {
                        !marker.in_tree[f.index()] && marker.graph().weight(f).0 < old_w
                    }) else {
                        continue;
                    };
                    let fd = marker.graph().edge(f);
                    JournalMutation::SwapWeights {
                        u1: ed.u.0,
                        v1: ed.v.0,
                        u2: fd.u.0,
                        v2: fd.v.0,
                    }
                };
            let (omega_bits, delta_bits) = (marker.omega_bits, marker.delta_bits);
            let record = marker.apply(mutation).unwrap();
            assert_eq!(
                canon(marker.tree_edges().to_vec()),
                tree_before,
                "{mutation:?}"
            );
            let widths_moved =
                record.new_omega_bits != omega_bits || record.new_delta_bits != delta_bits;
            let expected = if widths_moved {
                DeltaOutcome::Reencode
            } else {
                DeltaOutcome::WeightsOnly
            };
            assert_eq!(record.outcome, expected, "{mutation:?}");
            assert_in_sync(&marker, &format!("step {step} ({mutation:?})"));
        }
    }

    /// The dirty list of one marking call, sorted, leaving `marks` clear.
    fn listed(marks: &mut DirtyMarks, mark: impl FnOnce(&mut DirtyMarks)) -> Vec<NodeId> {
        mark(marks);
        let mut list = marks.list.clone();
        list.sort_unstable();
        marks.clear();
        assert!(marks.dirty.iter().chain(&marks.on_shore).all(|m| !m));
        list
    }

    /// The nodes an oracle marks on a fresh `n`-entry vector.
    fn marked(n: usize, mark: impl FnOnce(&mut [bool])) -> Vec<NodeId> {
        let mut dirty = vec![false; n];
        mark(&mut dirty);
        (0..n)
            .filter(|&v| dirty[v])
            .map(NodeId::from_index)
            .collect()
    }

    #[test]
    fn dirty_list_equals_the_chain_and_crossing_marks() {
        // Random trees, one random edge swap each (re-hung in place), the
        // three decomposition kinds, and a link of both trees re-priced:
        // every marking call lists exactly what its whole-tree oracle
        // marks — the changed chains, the removed link on the old side,
        // the added link and the re-priced one on each side.
        use mstv_trees::{first_vertex_decomposition, random_decomposition};
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(47);
        for n in [2usize, 3, 7, 40, 300, 1500] {
            let g = gen::random_tree(n, gen::WeightDist::Uniform { max: 50 }, &mut rng);
            let old_tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
            let all: Vec<NodeId> = old_tree.nodes().collect();
            let mut marks = DirtyMarks::new(n);
            for trial in 0..8 {
                let cut = NodeId(rng.gen_range(1..n as u32));
                let inside = below(&old_tree, cut);
                let (ins, outs): (Vec<NodeId>, Vec<NodeId>) =
                    old_tree.nodes().partition(|v| inside[v.index()]);
                let inner = *ins.choose(&mut rng).unwrap();
                let outer = *outs.choose(&mut rng).unwrap();
                let mut new_tree = old_tree.clone();
                new_tree.rehang(cut, inner, outer, Weight(7));
                // A link of both trees, by its child in each.
                let kept = (0..8)
                    .map(|_| NodeId(rng.gen_range(1..n as u32)))
                    .find_map(|c| {
                        let p = new_tree.parent(c)?;
                        let e = Edge {
                            u: c,
                            v: p,
                            w: Weight(1),
                        };
                        tree_child(&old_tree, e).map(|old_child| (old_child, c))
                    });
                for kind in 0..3 {
                    let (old, new) = match kind {
                        0 => (
                            centroid_decomposition(&old_tree),
                            centroid_decomposition(&new_tree),
                        ),
                        1 => (
                            first_vertex_decomposition(&old_tree),
                            first_vertex_decomposition(&new_tree),
                        ),
                        _ => (
                            random_decomposition(&old_tree, &mut rng),
                            random_decomposition(&new_tree, &mut rng),
                        ),
                    };
                    let case = format!("n = {n}, trial {trial}, kind {kind}");
                    assert_eq!(
                        listed(&mut marks, |m| m
                            .changed_chains(&old, &new, &new_tree, &all)),
                        marked(n, |d| mark_changed_chains(&old, &new, d)),
                        "{case}: changed chains"
                    );
                    let mut cuts = vec![(&old_tree, &old, cut), (&new_tree, &new, inner)];
                    if let Some((old_child, new_child)) = kept {
                        cuts.push((&old_tree, &old, old_child));
                        cuts.push((&new_tree, &new, new_child));
                    }
                    for (tree, sep, child) in cuts {
                        assert_eq!(
                            listed(&mut marks, |m| m.crossing(tree, sep, child)),
                            marked(n, |d| mark_crossing(d, sep, &below(tree, child))),
                            "{case}: crossing the link above {child}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn disconnected_graph_is_rejected() {
        let g = Graph::new(3); // no edges at all
        assert_eq!(
            DynMarker::new(g, SepFieldCodec::EliasGamma).err(),
            Some(DynError::Disconnected)
        );
    }
}
