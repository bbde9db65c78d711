//! Separator decompositions of trees (Section 3 of the paper).
//!
//! A separator decomposition recursively removes a chosen vertex (the
//! *separator*); the tree breaks into subtrees, each decomposed in turn.
//! The removed vertex at recursion depth `k` is a *level-k* separator
//! (levels are 1-based, following the paper). A decomposition is *perfect*
//! when every subtree formed by a separator has at most half the vertices
//! of the tree it was chosen in; centroid decomposition realizes this and
//! bounds the number of levels by `⌊log₂ n⌋ + 1`.
//!
//! The family `Γ` of implicit labeling schemes is parameterized by (a) the
//! choice of decomposition and (b) the numbers `ρ(j)` given to the subtrees
//! formed by each separator. We record the latter as a per-node
//! `child_rank`: the number assigned to the subtree (of the node's
//! separator-tree parent) that contains it. For the small scheme `γ_small`,
//! ranks order subtrees by decreasing size, which is what makes the
//! separator-path component of the label telescope to `O(log n)` bits
//! (the technique of Gavoille–Peleg–Pérennes–Raz used by the paper).
//!
//! # The canonical centroid decomposition
//!
//! A component is named by its *representative*: node 0 for the whole
//! tree, and for every other component the neighbor of its separator
//! parent inside it. The separators already removed wall it in. One
//! depth-first search from the representative over the nodes that are
//! not walls gives the subtree sizes; the centroid is found by walking
//! from the representative into the child holding more than half the
//! component while there is one, so when a tree has two centroids the
//! one nearer the representative is chosen. The pieces it leaves are
//! ranked by decreasing size, ties kept in the separator's neighbor
//! order: its children below its id, then its parent, then its children
//! above its id. The search keeps its scratch by discovery position, so
//! a component costs one walk over its nodes and their links.
//!
//! The distributed marker (`mstv-net`'s construction) applies the same
//! rule with messages: the representative's probe and a convergecast of
//! subtree sizes stand in for the search, and an election message
//! descends into the child holding more than half. Its labels are
//! therefore bit-identical to the ones built from this decomposition.
//!
//! # Parallel construction and determinism
//!
//! After each separator is removed, the remaining pieces are independent,
//! so [`centroid_decomposition_parallel`] fans them out to a scoped pool of
//! worker threads fed from a shared work queue. The workers run the same
//! search on shared removed marks, each with its own scratch.
//!
//! **Determinism guarantee:** the parallel build is *byte-identical* to
//! [`centroid_decomposition`] for every tree and thread count: each
//! component's centroid and ranks depend only on its nodes, its
//! representative and their neighbor order, never on scheduling. Tests
//! assert equality of whole decompositions across 1/2/8 threads.
//!
//! **Sequential cutoff:** components of at most [`SEQ_CUTOFF`] nodes are
//! decomposed to completion inside the worker that pops them instead of
//! being split back into the shared queue. Below that size the queue lock
//! and task allocation cost more than the `O(size · log size)` of just
//! finishing the subtree locally; the value is a power of two picked so
//! cutoff-sized components still fit comfortably in per-core caches.
//!
//! # Updating after a tree swap
//!
//! [`SeparatorDecomposition::rehang`] patches the decomposition in place
//! after the tree swapped one edge through [`RootedTree::rehang`]. It
//! walks down from the root component along the two separator chains of
//! the swap's old and new attachment points, keeps every separator that
//! is still its component's canonical centroid (re-ranking its pieces),
//! and re-splits only the components where that fails. Every other
//! piece keeps its sub-decomposition untouched. The result equals
//! [`centroid_decomposition`] of the new tree.

use std::cmp::Reverse;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

use mstv_graph::NodeId;
use rand::Rng;

use crate::{ParallelConfig, RootedTree};

/// Components of at most this many nodes are finished sequentially by the
/// worker that holds them rather than re-queued (see module docs).
pub const SEQ_CUTOFF: usize = 1024;

/// A separator decomposition of a tree, with subtree numbering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeparatorDecomposition {
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    level: Vec<u32>,
    child_rank: Vec<u32>,
    component_size: Vec<usize>,
}

impl SeparatorDecomposition {
    /// Assembles a decomposition from raw per-node data (used by proof
    /// labeling schemes that *reconstruct* a decomposition from node
    /// states). Only length consistency is checked here; run
    /// [`SeparatorDecomposition::validate`] against the tree to check
    /// structural soundness.
    ///
    /// # Errors
    ///
    /// Returns a description if the vectors disagree in length or the root
    /// is out of range / not at level 1.
    pub fn from_parts(
        root: NodeId,
        parent: Vec<Option<NodeId>>,
        level: Vec<u32>,
        child_rank: Vec<u32>,
        component_size: Vec<usize>,
    ) -> Result<Self, String> {
        let n = level.len();
        if parent.len() != n || child_rank.len() != n || component_size.len() != n {
            return Err("mismatched vector lengths".to_owned());
        }
        if root.index() >= n {
            return Err(format!("root {root} out of range"));
        }
        if level[root.index()] != 1 || parent[root.index()].is_some() {
            return Err("root must be the level-1 separator with no parent".to_owned());
        }
        Ok(SeparatorDecomposition {
            root,
            parent,
            level,
            child_rank,
            component_size,
        })
    }

    /// The level-1 separator.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.level.len()
    }

    /// 1-based separator level of `v` (the root has level 1).
    #[inline]
    pub fn level(&self, v: NodeId) -> u32 {
        self.level[v.index()]
    }

    /// Parent of `v` in the separator tree, `None` at the root.
    #[inline]
    pub fn sep_parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// The number `ρ` given to the subtree (of `v`'s separator parent)
    /// containing `v`. Zero at the root.
    #[inline]
    pub fn child_rank(&self, v: NodeId) -> u32 {
        self.child_rank[v.index()]
    }

    /// Size of the component `v` was chosen in as a separator.
    #[inline]
    pub fn component_size(&self, v: NodeId) -> usize {
        self.component_size[v.index()]
    }

    /// The separator ancestors of `v` from level 1 down to `v` itself
    /// (`result[k-1]` is the level-`k` separator of `v`).
    pub fn ancestors(&self, v: NodeId) -> Vec<NodeId> {
        let mut chain = Vec::new();
        self.ancestors_into(v, &mut chain);
        chain
    }

    /// [`SeparatorDecomposition::ancestors`] into a caller-owned buffer
    /// (cleared first) — the allocation-free form the batch label
    /// builders loop over, one buffer per worker instead of one `Vec`
    /// per node.
    pub fn ancestors_into(&self, v: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.push(v);
        let mut cur = v;
        while let Some(p) = self.sep_parent(cur) {
            out.push(p);
            cur = p;
        }
        out.reverse();
    }

    /// The deepest level in the decomposition.
    pub fn max_level(&self) -> u32 {
        self.level.iter().copied().max().unwrap_or(0)
    }

    /// Whether every separator splits its component into subtrees of at
    /// most half its size (the paper's *perfect* property).
    pub fn is_perfect(&self) -> bool {
        (0..self.level.len()).all(|i| {
            let v = NodeId::from_index(i);
            match self.sep_parent(v) {
                Some(p) => 2 * self.component_size(v) <= self.component_size(p),
                None => true,
            }
        })
    }

    /// Checks that this decomposition is structurally consistent with
    /// `tree`: levels increase along the recursion, each component has
    /// exactly one separator, and sibling subtrees carry distinct ranks.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self, tree: &RootedTree) -> Result<(), String> {
        let n = tree.num_nodes();
        if n != self.num_nodes() {
            return Err(format!("{} nodes vs tree's {n}", self.num_nodes()));
        }
        let adj = adjacency(tree);
        let mut removed = vec![false; n];
        self.validate_component(&adj, &mut removed, self.root, 1, n)
    }

    fn validate_component(
        &self,
        adj: &[Vec<NodeId>],
        removed: &mut [bool],
        sep: NodeId,
        level: u32,
        expected_size: usize,
    ) -> Result<(), String> {
        // Collect the component containing `sep`.
        let comp = component_of(adj, removed, sep);
        if comp.len() != expected_size {
            return Err(format!(
                "component of {sep} has {} nodes, expected {expected_size}",
                comp.len()
            ));
        }
        if self.level(sep) != level {
            return Err(format!(
                "{sep} has level {}, expected {level}",
                self.level(sep)
            ));
        }
        if self.component_size(sep) != comp.len() {
            return Err(format!("{sep} records wrong component size"));
        }
        for &v in &comp {
            if v != sep && self.level(v) <= level {
                return Err(format!(
                    "{v} has level <= its level-{level} separator {sep}"
                ));
            }
        }
        removed[sep.index()] = true;
        let mut ranks = Vec::new();
        for &nb in &adj[sep.index()] {
            if removed[nb.index()] {
                continue;
            }
            let sub = component_of(adj, removed, nb);
            // Find the unique next-level separator of this subtree.
            let mut next = None;
            for &v in &sub {
                if self.level(v) == level + 1 {
                    if next.is_some() {
                        return Err(format!("two level-{} separators in one subtree", level + 1));
                    }
                    next = Some(v);
                }
            }
            let next = next.ok_or_else(|| {
                format!(
                    "subtree of {sep} through {nb} has no level-{} separator",
                    level + 1
                )
            })?;
            if self.sep_parent(next) != Some(sep) {
                return Err(format!(
                    "{next} does not point at {sep} in the separator tree"
                ));
            }
            for &v in &sub {
                // Every node of the subtree must descend from `next` in the
                // separator tree (checked transitively via the recursion) —
                // here we check the rank consistency instead.
                let _ = v;
            }
            ranks.push(self.child_rank(next));
            self.validate_component(adj, removed, next, level + 1, sub.len())?;
        }
        ranks.sort_unstable();
        if ranks.windows(2).any(|w| w[0] == w[1]) {
            return Err(format!("duplicate subtree ranks under {sep}"));
        }
        Ok(())
    }

    /// Patches this decomposition, the centroid decomposition of a tree,
    /// after that tree swapped one edge in place: `tree` is the tree after
    /// [`RootedTree::rehang`]`(cut, inner, outer, _)`, and `p` was `cut`'s
    /// parent before it, so the subtree `S` that hung from `p` through
    /// `cut` now hangs from `outer` through `inner`. The result equals
    /// [`centroid_decomposition`] of `tree`. Every node whose record
    /// changed is appended to `changed`, and a few whose record stayed
    /// may be too.
    ///
    /// A component's walls are the separators on its own chain, so while
    /// none of them is in `S`, the component holds all of `S` or none of
    /// it, and its node set changes only by `S` leaving (it holds `p`) or
    /// arriving (it holds `outer`). The update walks down from the root
    /// component along the separator chains of `p` and `outer`. A
    /// component's old separator `t` stays when it is not in `S ∪ {p,
    /// outer}`, so its neighbor list is the one it had, and it passes the
    /// centroid test on the new piece sizes, which are the old component
    /// sizes with `|S|` moved from `p`'s piece to `outer`'s: every piece
    /// is at most half the component, and a piece of exactly half does not
    /// hold the representative (else its node next to `t` is the
    /// canonical centroid). A kept `t` takes its new size and re-ranks its
    /// pieces; the walk goes on into the one or two pieces holding `p` or
    /// `outer`, and every other piece keeps its nodes, its representative
    /// and the neighbor order inside it, so its sub-decomposition stands.
    /// A component whose separator fails is re-split from scratch inside
    /// the separators above it. The work follows the components visited
    /// and re-split, not the size of the tree.
    ///
    /// # Panics
    ///
    /// May panic, or leave a decomposition that is not canonical, when
    /// `self` is not the centroid decomposition of the tree before the
    /// swap or the nodes do not describe that swap.
    pub fn rehang(
        &mut self,
        tree: &RootedTree,
        cut: NodeId,
        inner: NodeId,
        outer: NodeId,
        p: NodeId,
        changed: &mut Vec<NodeId>,
    ) {
        // `S`, sorted for membership tests.
        let mut moved = vec![inner];
        let mut i = 0;
        while let Some(&v) = moved.get(i) {
            moved.extend_from_slice(tree.children(v));
            i += 1;
        }
        moved.sort_unstable();
        let in_moved = |v: NodeId| moved.binary_search(&v).is_ok();
        debug_assert!(in_moved(cut) && !in_moved(p) && !in_moved(outer));
        let s = moved.len();
        // The old chains of `p` and of `outer`, in that order throughout.
        let chains = [self.ancestors(p), self.ancestors(outer)];

        // The walk climbs old separator chains, so the re-splits, which
        // rewrite them, wait until it ends. Each takes the separators
        // above it as its walls.
        let mut resplit: Vec<(Task, &[NodeId])> = Vec::new();
        let mut visit = vec![Visit {
            sep: self.root,
            rep: NodeId(0),
            sep_parent: NONE,
            level: 1,
            rank: 0,
        }];
        let mut pieces: Vec<Piece> = Vec::new();
        while let Some(c) = visit.pop() {
            let (t, l) = (c.sep, c.level as usize);
            let holds = [0, 1].map(|k| chains[k].get(l - 1) == Some(&t));
            let size =
                self.component_size(t) + usize::from(holds[1]) * s - usize::from(holds[0]) * s;
            let task = Task {
                rep: c.rep.0,
                sep_parent: c.sep_parent,
                level: c.level,
                rank: c.rank,
                size: size as u32,
            };
            let walls = &chains[usize::from(!holds[0])][..l - 1];
            if t == p || t == outer || in_moved(t) {
                resplit.push((task, walls));
                continue;
            }
            // `t` is next to no node of `S`, so its neighbors kept their
            // old records: walls sit above it, and every other neighbor
            // leads to the piece of the separator below `t` on its chain.
            pieces.clear();
            tree.for_each_neighbor(t.0, |y| {
                let y = NodeId(y);
                if self.level(y) < c.level {
                    return;
                }
                let sep = self.chain_ancestor(y, c.level + 1);
                let on = [0, 1].map(|k| holds[k] && chains[k][l] == sep);
                let size =
                    self.component_size(sep) + usize::from(on[1]) * s - usize::from(on[0]) * s;
                pieces.push(Piece {
                    rep: y,
                    sep,
                    size,
                    on,
                });
            });
            let rep_piece = || {
                if c.rep == t {
                    None
                } else if in_moved(c.rep) {
                    // Only node 0, the root component's representative,
                    // can be in `S`; it now lies in `outer`'s piece.
                    Some(chains[1][l])
                } else {
                    Some(self.chain_ancestor(c.rep, c.level + 1))
                }
            };
            let centroid = pieces.iter().all(|q| 2 * q.size <= size)
                && pieces
                    .iter()
                    .filter(|q| 2 * q.size == size)
                    .all(|q| Some(q.sep) != rep_piece());
            if !centroid {
                resplit.push((task, walls));
                continue;
            }
            let ti = t.index();
            if self.component_size[ti] != size || self.child_rank[ti] != c.rank {
                self.component_size[ti] = size;
                self.child_rank[ti] = c.rank;
                changed.push(t);
            }
            // A stable sort: equal sizes keep the neighbor order.
            pieces.sort_by_key(|q| Reverse(q.size));
            for (j, q) in pieces.iter().enumerate() {
                let rank = j as u32;
                if q.on.contains(&true) {
                    visit.push(Visit {
                        sep: q.sep,
                        rep: q.rep,
                        sep_parent: t.0,
                        level: c.level + 1,
                        rank,
                    });
                } else if self.child_rank[q.sep.index()] != rank {
                    self.child_rank[q.sep.index()] = rank;
                    changed.push(q.sep);
                }
            }
        }
        let mut split = Split::default();
        for (task, walls) in resplit {
            self.unsettle(tree, task.rep, walls, changed);
            self.decompose_from(tree, &mut split, task);
        }
    }

    /// Overwrites the records of `nodes`, and the root, with `src`'s: how
    /// one copy of a decomposition follows another through the nodes
    /// [`SeparatorDecomposition::rehang`] listed.
    ///
    /// # Panics
    ///
    /// Panics if a node is out of range for either decomposition.
    pub fn copy_records_from(&mut self, src: &SeparatorDecomposition, nodes: &[NodeId]) {
        self.root = src.root;
        for &v in nodes {
            let i = v.index();
            self.parent[i] = src.parent[i];
            self.level[i] = src.level[i];
            self.child_rank[i] = src.child_rank[i];
            self.component_size[i] = src.component_size[i];
        }
    }

    /// `v`'s separator ancestor at `level`, which is at most `v`'s.
    fn chain_ancestor(&self, mut v: NodeId, level: u32) -> NodeId {
        while self.level(v) > level {
            v = self
                .sep_parent(v)
                .expect("a separator below level 1 has a parent");
        }
        v
    }

    /// A decomposition with no separator settled yet: every level is 0.
    fn unsettled(n: usize) -> Self {
        SeparatorDecomposition {
            root: NodeId(0),
            parent: vec![None; n],
            level: vec![0; n],
            child_rank: vec![0; n],
            component_size: vec![0; n],
        }
    }

    /// Records `sep` as the separator of `task`'s component.
    fn settle(&mut self, sep: u32, task: &Task) {
        let i = sep as usize;
        self.parent[i] = (task.sep_parent != NONE).then_some(NodeId(task.sep_parent));
        self.level[i] = task.level;
        self.child_rank[i] = task.rank;
        self.component_size[i] = task.size as usize;
        if task.sep_parent == NONE {
            self.root = NodeId(sep);
        }
    }

    /// Splits `task`'s component, and every component below it, at their
    /// canonical centroids. The nodes at level 0 are the unsettled ones;
    /// every other node is a wall.
    fn decompose_from(&mut self, adj: &impl Adjacency, split: &mut Split, task: Task) {
        let mut stack = vec![task];
        while let Some(task) = stack.pop() {
            let sep = split.run(adj, task.rep, |y| self.level[y as usize] != 0);
            debug_assert_eq!(split.order.len(), task.size as usize);
            self.settle(sep, &task);
            stack.extend(split.tasks(sep, &task));
        }
    }

    /// Sets level 0 on every node of the component of `rep`: the nodes
    /// `tree` reaches from it without entering `walls`, the separators
    /// above it by level, which keep their records. Lists the nodes in
    /// `changed`.
    fn unsettle(
        &mut self,
        tree: &RootedTree,
        rep: u32,
        walls: &[NodeId],
        changed: &mut Vec<NodeId>,
    ) {
        let mut stack = vec![(rep, NONE)];
        while let Some((v, from)) = stack.pop() {
            self.level[v as usize] = 0;
            changed.push(NodeId(v));
            let level = &self.level;
            tree.for_each_neighbor(v, |y| {
                let l = level[y as usize] as usize;
                let wall = l >= 1 && walls.get(l - 1) == Some(&NodeId(y));
                if y != from && !wall {
                    stack.push((y, v));
                }
            });
        }
    }
}

fn adjacency(tree: &RootedTree) -> Vec<Vec<NodeId>> {
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); tree.num_nodes()];
    for (c, p, _) in tree.edges() {
        adj[c.index()].push(p);
        adj[p.index()].push(c);
    }
    adj
}

fn component_of(adj: &[Vec<NodeId>], removed: &[bool], start: NodeId) -> Vec<NodeId> {
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![start];
    seen.insert(start);
    let mut out = Vec::new();
    while let Some(v) = stack.pop() {
        out.push(v);
        for &nb in &adj[v.index()] {
            if !removed[nb.index()] && seen.insert(nb) {
                stack.push(nb);
            }
        }
    }
    out
}

/// How a decomposition builder picks each separator.
trait SeparatorChooser {
    fn choose(&mut self, adj: &[Vec<NodeId>], removed: &[bool], component: &[NodeId]) -> NodeId;
}

/// Generic recursive builder. Subtree ranks are assigned by decreasing
/// subtree size (rank 0 = largest), the ordering `γ_small` needs; other
/// schemes in `Γ` are free to renumber but this canonical order is valid
/// for all of them.
fn decompose(tree: &RootedTree, chooser: &mut dyn SeparatorChooser) -> SeparatorDecomposition {
    let n = tree.num_nodes();
    let adj = adjacency(tree);
    let mut removed = vec![false; n];
    let mut parent = vec![None; n];
    let mut level = vec![0u32; n];
    let mut child_rank = vec![0u32; n];
    let mut component_size = vec![0usize; n];

    // Work queue of (component-representative, sep-parent, level, rank).
    let mut queue = std::collections::VecDeque::new();
    queue.push_back((NodeId(0), None::<NodeId>, 1u32, 0u32));
    let mut root = NodeId(0);
    while let Some((rep, sp, lv, rank)) = queue.pop_back() {
        let comp = component_of(&adj, &removed, rep);
        let sep = chooser.choose(&adj, &removed, &comp);
        debug_assert!(comp.contains(&sep));
        parent[sep.index()] = sp;
        level[sep.index()] = lv;
        child_rank[sep.index()] = rank;
        component_size[sep.index()] = comp.len();
        if sp.is_none() {
            root = sep;
        }
        removed[sep.index()] = true;
        // Children components, ordered by decreasing size.
        let mut subs: Vec<Vec<NodeId>> = adj[sep.index()]
            .iter()
            .filter(|nb| !removed[nb.index()])
            .map(|&nb| component_of(&adj, &removed, nb))
            .collect();
        subs.sort_by_key(|s| std::cmp::Reverse(s.len()));
        for (j, sub) in subs.into_iter().enumerate() {
            queue.push_back((sub[0], Some(sep), lv + 1, j as u32));
        }
    }
    SeparatorDecomposition {
        root,
        parent,
        level,
        child_rank,
        component_size,
    }
}

/// Sentinel for "no node" in the flat `u32` fields.
const NONE: u32 = u32::MAX;

/// A tree's links in the order that fixes every rank tie-break: `v`'s
/// children below its id, then its parent, then its children above its
/// id — the order [`adjacency`] lists.
trait Adjacency {
    fn for_each_neighbor(&self, v: u32, f: impl FnMut(u32));
}

/// Reading links straight off the tree: what the swap update splits
/// with, since it must not pay for a whole-tree [`Csr`].
impl Adjacency for RootedTree {
    fn for_each_neighbor(&self, v: u32, mut f: impl FnMut(u32)) {
        let kids = self.children(NodeId(v));
        let below = kids.partition_point(|c| c.0 < v);
        kids[..below].iter().for_each(|c| f(c.0));
        if let Some(p) = self.parent(NodeId(v)) {
            f(p.0);
        }
        kids[below..].iter().for_each(|c| f(c.0));
    }
}

/// The tree's links in one flat array. A from-scratch build reads every
/// link about `log n` times, so it first copies them into one contiguous
/// array rather than chase the tree's per-node children lists.
struct Csr {
    off: Vec<u32>,
    dst: Vec<u32>,
}

impl Csr {
    fn new(tree: &RootedTree) -> Self {
        let n = tree.num_nodes();
        let mut off = vec![0u32; n + 1];
        for (c, p, _) in tree.edges() {
            off[c.index() + 1] += 1;
            off[p.index() + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        let mut cursor = off.clone();
        let mut dst = vec![0u32; off[n] as usize];
        // Edges come by child id, so each list is in `Adjacency` order.
        for (c, p, _) in tree.edges() {
            for (from, to) in [(c, p), (p, c)] {
                dst[cursor[from.index()] as usize] = to.0;
                cursor[from.index()] += 1;
            }
        }
        Csr { off, dst }
    }
}

impl Adjacency for Csr {
    fn for_each_neighbor(&self, v: u32, f: impl FnMut(u32)) {
        let (lo, hi) = (self.off[v as usize], self.off[v as usize + 1]);
        self.dst[lo as usize..hi as usize]
            .iter()
            .copied()
            .for_each(f);
    }
}

/// A component waiting to be split: its representative, the separator
/// it hangs off (`NONE` for the whole tree), the level and rank its
/// separator takes, and its size.
#[derive(Debug, Clone, Copy)]
struct Task {
    rep: u32,
    sep_parent: u32,
    level: u32,
    rank: u32,
    size: u32,
}

fn whole_tree(n: usize) -> Task {
    Task {
        rep: 0,
        sep_parent: NONE,
        level: 1,
        rank: 0,
        size: n as u32,
    }
}

/// A component the swap update reaches: its old separator and its
/// representative, and the separator parent, level and rank it has
/// after the swap.
struct Visit {
    sep: NodeId,
    rep: NodeId,
    sep_parent: u32,
    level: u32,
    rank: u32,
}

/// One piece a kept separator leaves after the swap: the separator's
/// neighbor in it, its old separator, its new size, and whether it
/// holds `p` and `outer`.
struct Piece {
    rep: NodeId,
    sep: NodeId,
    size: usize,
    on: [bool; 2],
}

/// One component's depth-first search, with its scratch kept by
/// discovery position rather than by node id, so it costs what the
/// component holds.
#[derive(Default)]
struct Split {
    /// The component's nodes in discovery order, the representative
    /// first; every DFS subtree is a contiguous run.
    order: Vec<u32>,
    /// The discovery position of each node's DFS parent.
    up: Vec<u32>,
    /// The DFS subtree size of each node.
    size: Vec<u32>,
    /// Nodes waiting to be discovered, with their DFS parent's position.
    stack: Vec<(u32, u32)>,
    /// Discovery positions of the centroid's DFS children.
    kids: Vec<u32>,
    /// The centroid's pieces as (representative, size), in rank order.
    pieces: Vec<(u32, u32)>,
}

impl Split {
    /// Finds the canonical centroid of the component of `rep` — the
    /// nodes reachable from it without entering one that `wall` accepts —
    /// and lists its pieces in `self.pieces`. Returns the centroid.
    fn run(&mut self, adj: &impl Adjacency, rep: u32, wall: impl Fn(u32) -> bool) -> u32 {
        self.order.clear();
        self.up.clear();
        self.stack.push((rep, NONE));
        while let Some((v, up)) = self.stack.pop() {
            let at = self.order.len() as u32;
            let from = self.order.get(up as usize).copied().unwrap_or(NONE);
            self.order.push(v);
            self.up.push(up);
            let stack = &mut self.stack;
            adj.for_each_neighbor(v, |y| {
                if y != from && !wall(y) {
                    stack.push((y, at));
                }
            });
        }
        let total = self.order.len();
        self.size.clear();
        self.size.resize(total, 1);
        for i in (1..total).rev() {
            let up = self.up[i] as usize;
            self.size[up] += self.size[i];
        }
        // Walk into the child holding more than half while there is one.
        let mut c = 0;
        'walk: loop {
            self.kids.clear();
            let end = c + self.size[c] as usize;
            let mut j = c + 1;
            while j < end {
                if 2 * self.size[j] as usize > total {
                    c = j;
                    continue 'walk;
                }
                self.kids.push(j as u32);
                j += self.size[j] as usize;
            }
            break;
        }
        // The stack discovers a node's children in reverse neighbor
        // order, so `kids` pops them in neighbor order; the DFS parent's
        // piece is everything outside the centroid's run.
        let sep = self.order[c];
        let from = self.order.get(self.up[c] as usize).copied().unwrap_or(NONE);
        let Split {
            order,
            size,
            kids,
            pieces,
            ..
        } = self;
        pieces.clear();
        adj.for_each_neighbor(sep, |y| {
            if y == from {
                pieces.push((y, (total - size[c] as usize) as u32));
            } else if !wall(y) {
                let k = kids.pop().expect("a neighbor inside is a DFS child") as usize;
                debug_assert_eq!(order[k], y);
                pieces.push((y, size[k]));
            }
        });
        pieces.sort_by_key(|&(_, s)| Reverse(s));
        sep
    }

    /// The pieces of the last split as the tasks below `task`'s
    /// separator `sep`, ranked.
    fn tasks<'a>(&'a self, sep: u32, task: &'a Task) -> impl Iterator<Item = Task> + 'a {
        self.pieces
            .iter()
            .enumerate()
            .map(move |(j, &(rep, size))| Task {
                rep,
                sep_parent: sep,
                level: task.level + 1,
                rank: j as u32,
                size,
            })
    }
}

/// The *perfect* separator decomposition: every separator is a centroid of
/// its component, so each formed subtree has at most half the component's
/// vertices and the depth is at most `⌊log₂ n⌋ + 1`. The choice of each
/// centroid and the ranks of its pieces are canonical (see the module
/// docs).
pub fn centroid_decomposition(tree: &RootedTree) -> SeparatorDecomposition {
    let n = tree.num_nodes();
    let mut d = SeparatorDecomposition::unsettled(n);
    d.decompose_from(&Csr::new(tree), &mut Split::default(), whole_tree(n));
    d
}

/// Shared work-pool state: pending components plus the number of tasks
/// currently being expanded (for termination detection).
struct PoolState {
    queue: Vec<Task>,
    active: usize,
}

/// [`centroid_decomposition`] across a scoped pool of worker threads.
///
/// After each separator is removed the remaining subtrees are independent,
/// so they are fed back into a shared queue and picked up by any idle
/// worker; components of at most [`SEQ_CUTOFF`] nodes are finished locally
/// by the worker holding them. The result is **byte-identical** to the
/// sequential decomposition for every thread count (see module docs).
pub fn centroid_decomposition_parallel(
    tree: &RootedTree,
    config: ParallelConfig,
) -> SeparatorDecomposition {
    let n = tree.num_nodes();
    let threads = config.resolved_threads().get().min(n.max(1));
    if threads <= 1 || n <= SEQ_CUTOFF {
        return centroid_decomposition(tree);
    }
    let csr = Csr::new(tree);
    let removed: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let state = Mutex::new(PoolState {
        queue: vec![whole_tree(n)],
        active: 0,
    });
    let cv = Condvar::new();
    let mut d = SeparatorDecomposition::unsettled(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| s.spawn(|| decompose_worker(&csr, &removed, &state, &cv)))
            .collect();
        for h in handles {
            for (sep, task) in h.join().expect("decomposition worker panicked") {
                d.settle(sep, &task);
            }
        }
    });
    d
}

/// One pool worker: the separators it settled, each with its task.
///
/// A separator's removed mark is set before its pieces are queued, and
/// the queue's lock orders that before any worker pops a piece, so every
/// wall a worker meets is marked; concurrent components share no node
/// and no link, so `Relaxed` is enough.
fn decompose_worker(
    csr: &Csr,
    removed: &[AtomicBool],
    state: &Mutex<PoolState>,
    cv: &Condvar,
) -> Vec<(u32, Task)> {
    let mut split = Split::default();
    let mut settled = Vec::new();
    let mut local = Vec::new();
    let wall = |y: u32| removed[y as usize].load(Ordering::Relaxed);
    let mut guard = state.lock().expect("decomposition queue lock");
    loop {
        if let Some(task) = guard.queue.pop() {
            guard.active += 1;
            drop(guard);
            // A small component is finished here; a large one is split
            // once and its pieces go back to the queue.
            let mut subs = Vec::new();
            local.push(task);
            while let Some(task) = local.pop() {
                let sep = split.run(csr, task.rep, wall);
                removed[sep as usize].store(true, Ordering::Relaxed);
                settled.push((sep, task));
                if task.size as usize <= SEQ_CUTOFF {
                    local.extend(split.tasks(sep, &task));
                } else {
                    subs.extend(split.tasks(sep, &task));
                }
            }
            guard = state.lock().expect("decomposition queue lock");
            guard.active -= 1;
            if !subs.is_empty() {
                guard.queue.extend(subs);
                cv.notify_all();
            } else if guard.active == 0 && guard.queue.is_empty() {
                cv.notify_all();
            }
        } else if guard.active == 0 {
            return settled;
        } else {
            guard = cv.wait(guard).expect("decomposition queue lock");
        }
    }
}

/// A deliberately bad decomposition: always removes the smallest-id vertex
/// of the component. On a path with sorted ids this has depth `n` — used to
/// exercise the generality of the `Γ` family (any member must verify).
pub fn first_vertex_decomposition(tree: &RootedTree) -> SeparatorDecomposition {
    struct First;
    impl SeparatorChooser for First {
        fn choose(&mut self, _: &[Vec<NodeId>], _: &[bool], component: &[NodeId]) -> NodeId {
            *component.iter().min().expect("component is nonempty")
        }
    }
    decompose(tree, &mut First)
}

/// A uniformly random separator at every step.
pub fn random_decomposition<R: Rng>(tree: &RootedTree, rng: &mut R) -> SeparatorDecomposition {
    struct Random<'a, R: Rng>(&'a mut R);
    impl<R: Rng> SeparatorChooser for Random<'_, R> {
        fn choose(&mut self, _: &[Vec<NodeId>], _: &[bool], component: &[NodeId]) -> NodeId {
            component[self.0.gen_range(0..component.len())]
        }
    }
    decompose(tree, &mut Random(rng))
}

/// The canonical centroid decomposition by exhaustive search, the
/// reference the engine is tested against: in each component every node
/// is tried, and the one whose largest piece is smallest wins, ties going
/// to the first in a traversal from the representative (of two centroids,
/// the nearer one). Pieces are ranked as every decomposition here ranks
/// them. It tries each node of each component against the whole
/// component, so it costs `O(n²)` per level, and it shares no code with
/// [`centroid_decomposition`].
pub fn brute_force_centroid_decomposition(tree: &RootedTree) -> SeparatorDecomposition {
    struct Search;
    impl SeparatorChooser for Search {
        fn choose(
            &mut self,
            adj: &[Vec<NodeId>],
            removed: &[bool],
            component: &[NodeId],
        ) -> NodeId {
            // `cut` marks the walls, the candidate and the nodes counted.
            let mut cut = removed.to_vec();
            let mut counted = Vec::new();
            let mut best = (usize::MAX, component[0]);
            for &v in component {
                cut[v.index()] = true;
                let mut largest = 0;
                for &nb in &adj[v.index()] {
                    if cut[nb.index()] {
                        continue;
                    }
                    let start = counted.len();
                    cut[nb.index()] = true;
                    counted.push(nb);
                    let mut i = start;
                    while let Some(&x) = counted.get(i) {
                        for &y in &adj[x.index()] {
                            if !cut[y.index()] {
                                cut[y.index()] = true;
                                counted.push(y);
                            }
                        }
                        i += 1;
                    }
                    largest = largest.max(counted.len() - start);
                }
                for x in counted.drain(..).chain([v]) {
                    cut[x.index()] = false;
                }
                if largest < best.0 {
                    best = (largest, v);
                }
            }
            best.1
        }
    }
    decompose(tree, &mut Search)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstv_graph::{gen, Weight};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tree_of(n: usize, seed: u64) -> RootedTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_tree(n, gen::WeightDist::Uniform { max: 20 }, &mut rng);
        RootedTree::from_graph(&g, NodeId(0)).unwrap()
    }

    #[test]
    fn centroid_is_perfect_and_shallow() {
        for n in [1usize, 2, 3, 10, 64, 257, 1000] {
            let t = tree_of(n, n as u64);
            let d = centroid_decomposition(&t);
            assert!(d.is_perfect(), "n = {n}");
            d.validate(&t).unwrap();
            let bound = (usize::BITS - n.leading_zeros()) + 1;
            assert!(d.max_level() <= bound, "n={n}: {} > {bound}", d.max_level());
        }
    }

    #[test]
    fn engine_equals_the_exhaustive_search() {
        // Random trees, paths (two centroids at every even length),
        // stars and caterpillars, hung from several roots: the root sets
        // each node's neighbor order, so the rank tie-breaks move with it.
        let mut rng = StdRng::seed_from_u64(5);
        let w = gen::WeightDist::Constant(1);
        for n in [1usize, 2, 3, 4, 5, 6, 9, 16, 40, 121] {
            let graphs = [
                gen::random_tree(n, w, &mut rng),
                gen::path(n, w, &mut rng),
                gen::star(n, w, &mut rng),
                gen::caterpillar(n.div_ceil(3), 2, w, &mut rng),
            ];
            for g in &graphs {
                let m = g.num_nodes() as u32;
                for root in [0, m / 2, m - 1] {
                    let t = RootedTree::from_graph(g, NodeId(root)).unwrap();
                    assert_eq!(
                        centroid_decomposition(&t),
                        brute_force_centroid_decomposition(&t),
                        "n = {m}, root {root}"
                    );
                }
            }
        }
    }

    #[test]
    fn rehang_on_a_path_keeps_it_canonical() {
        // A 10-node path 0 - 1 - ... - 9 has two centroids, 4 and 5, and
        // node 0 picks the nearer, 4. Moving the end 8 - 9 to the other
        // end keeps it a path, 9 - 8 - 0 - 1 - ... - 7, whose centroids
        // are 2 and 3: the root centroid moves to 2.
        let mut rng = StdRng::seed_from_u64(3);
        let g = gen::path(10, gen::WeightDist::Constant(1), &mut rng);
        let mut t = RootedTree::from_graph(&g, NodeId(0)).unwrap();
        let mut d = centroid_decomposition(&t);
        assert_eq!(d.root(), NodeId(4));
        t.rehang(NodeId(8), NodeId(8), NodeId(0), Weight(1));
        let mut changed = Vec::new();
        d.rehang(&t, NodeId(8), NodeId(8), NodeId(0), NodeId(7), &mut changed);
        assert_eq!(d, centroid_decomposition(&t));
        assert_eq!(d.root(), NodeId(2));
        assert!(changed.contains(&NodeId(2)) && changed.contains(&NodeId(4)));
    }

    #[test]
    fn centroid_on_path() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gen::path(31, gen::WeightDist::Constant(1), &mut rng);
        let t = RootedTree::from_graph(&g, NodeId(0)).unwrap();
        let d = centroid_decomposition(&t);
        // Midpoint of a 31-path is node 15.
        assert_eq!(d.root(), NodeId(15));
        assert_eq!(d.max_level(), 5);
        d.validate(&t).unwrap();
    }

    #[test]
    fn first_vertex_is_deep_on_path() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gen::path(16, gen::WeightDist::Constant(1), &mut rng);
        let t = RootedTree::from_graph(&g, NodeId(0)).unwrap();
        let d = first_vertex_decomposition(&t);
        assert_eq!(d.root(), NodeId(0));
        assert_eq!(d.max_level(), 16);
        assert!(!d.is_perfect());
        d.validate(&t).unwrap();
    }

    #[test]
    fn random_decomposition_validates() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [1usize, 2, 5, 40, 150] {
            let t = tree_of(n, 100 + n as u64);
            let d = random_decomposition(&t, &mut rng);
            d.validate(&t).unwrap();
        }
    }

    #[test]
    fn ancestors_chain() {
        let t = tree_of(50, 9);
        let d = centroid_decomposition(&t);
        for v in t.nodes() {
            let chain = d.ancestors(v);
            assert_eq!(chain.len() as u32, d.level(v));
            assert_eq!(chain[0], d.root());
            assert_eq!(*chain.last().unwrap(), v);
            for (k, &a) in chain.iter().enumerate() {
                assert_eq!(d.level(a), k as u32 + 1);
            }
        }
    }

    #[test]
    fn ranks_distinct_among_siblings() {
        let t = tree_of(200, 17);
        let d = centroid_decomposition(&t);
        use std::collections::HashMap;
        let mut seen: HashMap<NodeId, Vec<u32>> = HashMap::new();
        for v in t.nodes() {
            if let Some(p) = d.sep_parent(v) {
                seen.entry(p).or_default().push(d.child_rank(v));
            }
        }
        for (_, mut ranks) in seen {
            ranks.sort_unstable();
            assert!(ranks.windows(2).all(|w| w[0] != w[1]));
        }
    }

    #[test]
    fn rank_zero_is_largest_subtree() {
        let t = tree_of(300, 23);
        let d = centroid_decomposition(&t);
        // For each separator, the rank-0 child's component is the biggest.
        use std::collections::HashMap;
        let mut kids: HashMap<NodeId, Vec<(u32, usize)>> = HashMap::new();
        for v in t.nodes() {
            if let Some(p) = d.sep_parent(v) {
                kids.entry(p)
                    .or_default()
                    .push((d.child_rank(v), d.component_size(v)));
            }
        }
        for (_, mut entries) in kids {
            entries.sort_unstable();
            for w in entries.windows(2) {
                assert!(w[0].1 >= w[1].1, "rank order must follow size order");
            }
        }
    }

    #[test]
    fn single_node_decomposition() {
        let t = RootedTree::from_parents(NodeId(0), vec![None]).unwrap();
        let d = centroid_decomposition(&t);
        assert_eq!(d.root(), NodeId(0));
        assert_eq!(d.level(NodeId(0)), 1);
        assert_eq!(d.max_level(), 1);
        d.validate(&t).unwrap();
    }

    #[test]
    fn parallel_equals_sequential_small_and_large() {
        use std::num::NonZeroUsize;
        // Sizes straddling SEQ_CUTOFF so the worker pool really runs.
        for n in [1usize, 2, 17, 300, SEQ_CUTOFF + 1, 4 * SEQ_CUTOFF + 7] {
            let t = tree_of(n, 0xC0FFEE ^ n as u64);
            let seq = centroid_decomposition(&t);
            for threads in [1usize, 2, 8] {
                let cfg = ParallelConfig::with_threads(NonZeroUsize::new(threads).unwrap());
                let par = centroid_decomposition_parallel(&t, cfg);
                assert_eq!(par, seq, "n={n} threads={threads}");
                par.validate(&t).unwrap();
            }
        }
    }

    #[test]
    fn parallel_on_path_matches_known_root() {
        use std::num::NonZeroUsize;
        let mut rng = StdRng::seed_from_u64(1);
        let g = gen::path(31, gen::WeightDist::Constant(1), &mut rng);
        let t = RootedTree::from_graph(&g, NodeId(0)).unwrap();
        let cfg = ParallelConfig::with_threads(NonZeroUsize::new(4).unwrap());
        let d = centroid_decomposition_parallel(&t, cfg);
        assert_eq!(d.root(), NodeId(15));
        assert_eq!(d.max_level(), 5);
    }

    #[test]
    fn validate_rejects_tampering() {
        let t = tree_of(30, 31);
        let d = centroid_decomposition(&t);
        let mut bad = d.clone();
        // Corrupt a level.
        let v = t.nodes().find(|&v| bad.sep_parent(v).is_some()).unwrap();
        bad.level[v.index()] += 3;
        assert!(bad.validate(&t).is_err());
    }
}
