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
//! # Parallel construction and determinism
//!
//! Centroid decomposition is built by an index-based engine that keeps all
//! per-component scratch (DFS order, parents, subtree sizes) in flat `Vec`
//! buffers indexed by node id — no hashing on the hot path. After each
//! separator is removed, the remaining subtrees are independent, so
//! [`centroid_decomposition_parallel`] fans them out to a scoped pool of
//! worker threads fed from a shared work queue.
//!
//! **Determinism guarantee:** the parallel build is *byte-identical* to
//! [`centroid_decomposition`] for every tree and thread count. Each
//! component's centroid depends only on the component itself (ties broken
//! by a fixed DFS discovery order from the component's representative), and
//! sibling subtree ranks come from a stable sort by decreasing size with
//! adjacency-order tie-breaks — none of which depends on scheduling. Tests
//! assert equality of whole decompositions across 1/2/8 threads.
//!
//! **Sequential cutoff:** components of at most [`SEQ_CUTOFF`] nodes are
//! decomposed to completion inside the worker that pops them instead of
//! being split back into the shared queue. Below that size the queue lock
//! and task allocation cost more than the `O(size · log size)` of just
//! finishing the subtree locally; the value is a power of two picked so
//! cutoff-sized components still fit comfortably in per-core caches.
//!
//! # Updating after a tree change
//!
//! [`centroid_decomposition_update`] builds the centroid decomposition of
//! a changed tree from the old tree's: it runs the same sequential build,
//! but a pending component that the old decomposition already split, from
//! the same representative and with every node's parent pointer unmoved,
//! takes its old sub-decomposition with shifted levels instead of being
//! expanded. An edge swap re-hangs one tree path, so most components away
//! from it are copied, and the components holding that path's nodes are
//! split afresh. The result equals [`centroid_decomposition`] of the new
//! tree.

use std::cmp::Reverse;
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

/// Sentinel for "no node" in the flat `u32` scratch buffers.
const NONE: u32 = u32::MAX;

/// Flat adjacency in CSR form, neighbor order identical to [`adjacency`]
/// (parent edge first per the child, children in `tree.edges()` order) —
/// the order that fixes all centroid tie-breaks.
struct Csr {
    off: Vec<u32>,
    dst: Vec<u32>,
}

impl Csr {
    /// The neighbor order is set by parent pointers alone: `v`'s list is
    /// its children and its parent sorted by the id of each edge's child
    /// endpoint (the parent sits at `v`'s own id). So two trees in which
    /// every node of a set `C` has the same parent list the same
    /// neighbors inside `C` in the same order, which is what lets
    /// [`centroid_decomposition_update`] reuse a component.
    fn new(tree: &RootedTree) -> Self {
        let n = tree.num_nodes();
        let mut deg = vec![0u32; n];
        for (c, p, _) in tree.edges() {
            deg[c.index()] += 1;
            deg[p.index()] += 1;
        }
        let mut off = vec![0u32; n + 1];
        for i in 0..n {
            off[i + 1] = off[i] + deg[i];
        }
        let mut cursor = off.clone();
        let mut dst = vec![0u32; off[n] as usize];
        for (c, p, _) in tree.edges() {
            dst[cursor[c.index()] as usize] = p.0;
            cursor[c.index()] += 1;
            dst[cursor[p.index()] as usize] = c.0;
            cursor[p.index()] += 1;
        }
        Csr { off, dst }
    }

    #[inline]
    fn neighbors(&self, v: u32) -> &[u32] {
        &self.dst[self.off[v as usize] as usize..self.off[v as usize + 1] as usize]
    }
}

/// One pending component: its node set (first element is the DFS
/// representative), the separator it hangs off, and its level / rank.
struct Task {
    comp: Vec<u32>,
    sep_parent: u32,
    level: u32,
    rank: u32,
}

/// The decomposition facts for one chosen separator. Records from
/// different components touch different nodes, so workers can produce them
/// in any order and the merged arrays are identical.
struct Record {
    sep: u32,
    sep_parent: u32,
    level: u32,
    rank: u32,
    size: u32,
}

/// Reusable index-based scratch for centroid selection: all lookups are
/// array indexing, membership tests are stamp comparisons (no clearing
/// between components, no hashing).
struct Scratch {
    /// `in_comp[v] == stamp` marks membership in the current component.
    in_comp: Vec<u32>,
    /// `seen[v] == stamp` marks DFS discovery in the current component.
    seen: Vec<u32>,
    /// DFS-tree parent within the current component (`NONE` at the root).
    parent: Vec<u32>,
    /// DFS subtree size within the current component.
    size: Vec<u32>,
    /// Position of each node in `order`.
    pos: Vec<u32>,
    /// DFS discovery order of the current component.
    order: Vec<u32>,
    stamp: u32,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            in_comp: vec![0; n],
            seen: vec![0; n],
            parent: vec![NONE; n],
            size: vec![0; n],
            pos: vec![0; n],
            order: Vec::with_capacity(n),
            stamp: 0,
        }
    }

    /// Chooses the centroid of `task.comp`, records it, and returns the
    /// child components ordered by decreasing size (rank order).
    fn expand(&mut self, csr: &Csr, task: Task, records: &mut Vec<Record>) -> Vec<Task> {
        let total = task.comp.len();
        self.stamp += 1;
        let stamp = self.stamp;
        for &v in &task.comp {
            self.in_comp[v as usize] = stamp;
        }
        // DFS from the representative; discovery order fixes tie-breaks.
        let root = task.comp[0];
        self.order.clear();
        self.parent[root as usize] = NONE;
        self.seen[root as usize] = stamp;
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            self.pos[v as usize] = self.order.len() as u32;
            self.order.push(v);
            for &nb in csr.neighbors(v) {
                if self.in_comp[nb as usize] == stamp && self.seen[nb as usize] != stamp {
                    self.seen[nb as usize] = stamp;
                    self.parent[nb as usize] = v;
                    stack.push(nb);
                }
            }
        }
        debug_assert_eq!(self.order.len(), total);
        // Subtree sizes, bottom-up over the discovery order.
        for &v in &self.order {
            self.size[v as usize] = 1;
        }
        for i in (1..self.order.len()).rev() {
            let v = self.order[i];
            let p = self.parent[v as usize];
            self.size[p as usize] += self.size[v as usize];
        }
        // Centroid: minimal max piece after removal (<= total/2 exists).
        // Strict `<` over the discovery order makes the choice canonical.
        let mut best = root;
        let mut best_piece = usize::MAX;
        for &v in &self.order {
            let mut piece = total - self.size[v as usize] as usize;
            for &nb in csr.neighbors(v) {
                if self.in_comp[nb as usize] == stamp && self.parent[nb as usize] == v {
                    piece = piece.max(self.size[nb as usize] as usize);
                }
            }
            if piece < best_piece {
                best_piece = piece;
                best = v;
            }
        }
        debug_assert!(2 * best_piece <= total);
        let sep = best;
        records.push(Record {
            sep,
            sep_parent: task.sep_parent,
            level: task.level,
            rank: task.rank,
            size: total as u32,
        });
        // Child components, straight off the DFS tree: each DFS subtree is
        // a contiguous segment of `order`, and the piece through the
        // separator's own DFS parent is everything outside the separator's
        // segment. Pieces are collected in the separator's neighbor order,
        // then stable-sorted by decreasing size — the same rank order the
        // sequential builder derives.
        let sep_start = self.pos[sep as usize] as usize;
        let sep_end = sep_start + self.size[sep as usize] as usize;
        let mut subs: Vec<Vec<u32>> = Vec::new();
        for &nb in csr.neighbors(sep) {
            if self.in_comp[nb as usize] != stamp {
                continue;
            }
            if self.parent[nb as usize] == sep {
                let s = self.pos[nb as usize] as usize;
                subs.push(self.order[s..s + self.size[nb as usize] as usize].to_vec());
            } else {
                // nb is the separator's DFS parent: its piece is the rest
                // of the component, listed with nb first so it becomes the
                // child component's representative.
                let mut rest = Vec::with_capacity(total - (sep_end - sep_start));
                rest.push(nb);
                for &v in self.order[..sep_start].iter().chain(&self.order[sep_end..]) {
                    if v != nb {
                        rest.push(v);
                    }
                }
                subs.push(rest);
            }
        }
        subs.sort_by_key(|s| Reverse(s.len()));
        subs.into_iter()
            .enumerate()
            .map(|(j, sub)| Task {
                comp: sub,
                sep_parent: sep,
                level: task.level + 1,
                rank: j as u32,
            })
            .collect()
    }
}

/// Runs `stack` to completion with LIFO order, appending to `records`.
/// `reuse` may settle a popped task itself, records included, and return
/// `true`; a task it declines is expanded.
fn run_sequential(
    csr: &Csr,
    scratch: &mut Scratch,
    mut stack: Vec<Task>,
    records: &mut Vec<Record>,
    mut reuse: impl FnMut(&Task, &mut Vec<Record>) -> bool,
) {
    while let Some(task) = stack.pop() {
        if !reuse(&task, records) {
            stack.extend(scratch.expand(csr, task, records));
        }
    }
}

/// Never reuses: the from-scratch build.
fn expand_all(_: &Task, _: &mut Vec<Record>) -> bool {
    false
}

fn assemble(n: usize, records: Vec<Record>) -> SeparatorDecomposition {
    let mut parent = vec![None; n];
    let mut level = vec![0u32; n];
    let mut child_rank = vec![0u32; n];
    let mut component_size = vec![0usize; n];
    let mut root = NodeId(0);
    debug_assert_eq!(records.len(), n);
    for r in records {
        let i = r.sep as usize;
        parent[i] = (r.sep_parent != NONE).then_some(NodeId(r.sep_parent));
        level[i] = r.level;
        child_rank[i] = r.rank;
        component_size[i] = r.size as usize;
        if r.sep_parent == NONE {
            root = NodeId(r.sep);
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

fn whole_tree_task(n: usize) -> Task {
    Task {
        comp: (0..n as u32).collect(),
        sep_parent: NONE,
        level: 1,
        rank: 0,
    }
}

/// The *perfect* separator decomposition: every separator is a centroid of
/// its component, so each formed subtree has at most half the component's
/// vertices and the depth is at most `⌊log₂ n⌋ + 1`.
pub fn centroid_decomposition(tree: &RootedTree) -> SeparatorDecomposition {
    let n = tree.num_nodes();
    let csr = Csr::new(tree);
    let mut scratch = Scratch::new(n);
    let mut records = Vec::with_capacity(n);
    run_sequential(
        &csr,
        &mut scratch,
        vec![whole_tree_task(n)],
        &mut records,
        expand_all,
    );
    assemble(n, records)
}

/// [`centroid_decomposition`] of `new_tree`, reusing every component that
/// `old`, the centroid decomposition of `old_tree`, already decomposed.
///
/// The result equals `centroid_decomposition(new_tree)` whenever `old`
/// is `centroid_decomposition(old_tree)` (for any other `old` it is
/// unspecified; inputs of different sizes get the from-scratch build),
/// and equals `old` when the two trees have the same parent pointers.
/// It runs the same build, but first tests each pending component `C`
/// with representative `r` (its first node). `C` is reused when all four
/// hold:
///
/// 1. no node of `C` is dirty: its parent differs between the two trees,
///    or it is the old or new parent of such a node;
/// 2. `t`, the old separator on `r`'s chain with `component_size(t) ==
///    |C|`, exists;
/// 3. no node of `C` has an old level below `t`'s;
/// 4. `r` is adjacent in `old_tree` to `t`'s old separator parent, or `r`
///    is node 0 when `t` is the old root.
///
/// A component's sub-decomposition depends only on its node set, its
/// representative and the neighbor order inside it, and by (1) the two
/// trees agree on that order inside `C` (see `Csr::new`). By (1) `C` is
/// connected in `old_tree`; it holds `r`, which lies in `t`'s old
/// component, and by (3) none of the separators that walled that
/// component in, so it is inside it, and by (2) it is as large, so it is
/// `t`'s old component. Each piece a separator leaves has one node
/// adjacent to it, its representative, so by (4) `r` was the
/// representative there too. Then `t`'s whole old sub-decomposition is
/// copied, levels shifted by `t`'s new level minus its old one, and `t`
/// takes its new separator parent and rank. (The argument needs only
/// that no node of `C` moved; marking the parents of moved nodes too is
/// a margin that costs a few reuses.)
///
/// A swap of one tree edge, re-rooted at the same node, dirties only the
/// tree path it re-hangs and the nodes beside it. The components holding
/// those nodes are expanded, as is any whose node set the swap moved;
/// the rest are copied.
pub fn centroid_decomposition_update(
    old_tree: &RootedTree,
    old: &SeparatorDecomposition,
    new_tree: &RootedTree,
) -> SeparatorDecomposition {
    let n = new_tree.num_nodes();
    if old_tree.num_nodes() != n || old.num_nodes() != n {
        return centroid_decomposition(new_tree);
    }
    let mut dirty = vec![false; n];
    for v in new_tree.nodes() {
        let (was, now) = (old_tree.parent(v), new_tree.parent(v));
        if was != now {
            for x in [Some(v), was, now].into_iter().flatten() {
                dirty[x.index()] = true;
            }
        }
    }
    let reuse = |task: &Task, records: &mut Vec<Record>| {
        let size = task.comp.len();
        let r = NodeId(task.comp[0]);
        // (2): component sizes strictly grow up a separator chain.
        let mut t = r;
        while old.component_size(t) < size {
            match old.sep_parent(t) {
                Some(p) => t = p,
                None => return false,
            }
        }
        if old.component_size(t) != size {
            return false;
        }
        // (4)
        let adjacent = match old.sep_parent(t) {
            Some(p) => old_tree.parent(r) == Some(p) || old_tree.parent(p) == Some(r),
            None => r == NodeId(0),
        };
        if !adjacent {
            return false;
        }
        // (1) and (3)
        let t_level = old.level(t);
        if task
            .comp
            .iter()
            .any(|&v| dirty[v as usize] || old.level[v as usize] < t_level)
        {
            return false;
        }
        records.extend(task.comp.iter().map(|&v| {
            let i = v as usize;
            if v == t.0 {
                Record {
                    sep: v,
                    sep_parent: task.sep_parent,
                    level: task.level,
                    rank: task.rank,
                    size: size as u32,
                }
            } else {
                Record {
                    sep: v,
                    sep_parent: old.parent[i].map_or(NONE, |p| p.0),
                    level: old.level[i] - t_level + task.level,
                    rank: old.child_rank[i],
                    size: old.component_size[i] as u32,
                }
            }
        }));
        true
    };
    let csr = Csr::new(new_tree);
    let mut scratch = Scratch::new(n);
    let mut records = Vec::with_capacity(n);
    run_sequential(
        &csr,
        &mut scratch,
        vec![whole_tree_task(n)],
        &mut records,
        reuse,
    );
    assemble(n, records)
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
    let state = Mutex::new(PoolState {
        queue: vec![whole_tree_task(n)],
        active: 0,
    });
    let cv = Condvar::new();
    let records = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| s.spawn(|| decompose_worker(&csr, n, &state, &cv)))
            .collect();
        let mut all = Vec::with_capacity(n);
        for h in handles {
            all.extend(h.join().expect("decomposition worker panicked"));
        }
        all
    });
    assemble(n, records)
}

fn decompose_worker(csr: &Csr, n: usize, state: &Mutex<PoolState>, cv: &Condvar) -> Vec<Record> {
    let mut scratch = Scratch::new(n);
    let mut records = Vec::new();
    let mut guard = state.lock().expect("decomposition queue lock");
    loop {
        if let Some(task) = guard.queue.pop() {
            guard.active += 1;
            drop(guard);
            let subs = if task.comp.len() <= SEQ_CUTOFF {
                run_sequential(csr, &mut scratch, vec![task], &mut records, expand_all);
                Vec::new()
            } else {
                scratch.expand(csr, task, &mut records)
            };
            guard = state.lock().expect("decomposition queue lock");
            guard.active -= 1;
            if !subs.is_empty() {
                guard.queue.extend(subs);
                cv.notify_all();
            } else if guard.active == 0 && guard.queue.is_empty() {
                cv.notify_all();
            }
        } else if guard.active == 0 {
            return records;
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

#[cfg(test)]
mod tests {
    use super::*;
    use mstv_graph::gen;
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
