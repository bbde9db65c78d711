//! Rooted weighted trees with precomputed traversal orders.

use mstv_graph::{EdgeId, Graph, GraphError, NodeId, Weight};

/// A rooted weighted tree on nodes `0..n`.
///
/// Stores, per node: parent, weight of the parent edge, depth, preorder
/// position, and children lists. The preorder [`RootedTree::order`] visits
/// parents before children, so bottom-up passes can iterate it in reverse.
/// # Example
///
/// ```
/// use mstv_graph::{NodeId, Weight};
/// use mstv_trees::RootedTree;
///
/// // A path 0 - 1 - 2 rooted at node 0.
/// let tree = RootedTree::from_parents(
///     NodeId(0),
///     vec![None, Some((NodeId(0), Weight(4))), Some((NodeId(1), Weight(9)))],
/// )?;
/// assert_eq!(tree.depth(NodeId(2)), 2);
/// assert_eq!(tree.max_on_path_naive(NodeId(0), NodeId(2)), Weight(9));
/// # Ok::<(), mstv_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootedTree {
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    parent_weight: Vec<Weight>,
    children: Vec<Vec<NodeId>>,
    depth: Vec<u32>,
    order: Vec<NodeId>,
}

impl RootedTree {
    /// Builds a rooted tree from an explicit parent list.
    ///
    /// `parents[v]` is `Some((p, w))` where `p` is the parent of `v` and `w`
    /// the weight of the edge `(v, p)`, or `None` exactly at `root`.
    ///
    /// # Errors
    ///
    /// Returns an error if the parent pointers do not form a tree rooted at
    /// `root` (cycles, unreachable nodes, or extra roots).
    pub fn from_parents(
        root: NodeId,
        parents: Vec<Option<(NodeId, Weight)>>,
    ) -> Result<Self, GraphError> {
        let n = parents.len();
        if root.index() >= n {
            return Err(GraphError::NodeOutOfRange { node: root, n });
        }
        if parents[root.index()].is_some() {
            return Err(GraphError::NotASpanningTree {
                reason: format!("root {root} has a parent pointer"),
            });
        }
        let mut parent = vec![None; n];
        let mut parent_weight = vec![Weight::ZERO; n];
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (i, entry) in parents.iter().enumerate() {
            let v = NodeId::from_index(i);
            if let Some((p, w)) = *entry {
                if p.index() >= n {
                    return Err(GraphError::NodeOutOfRange { node: p, n });
                }
                parent[i] = Some(p);
                parent_weight[i] = w;
                children[p.index()].push(v);
            } else if v != root {
                return Err(GraphError::NotASpanningTree {
                    reason: format!("{v} has no parent but is not the root"),
                });
            }
        }
        // Preorder BFS from root; detects unreachable nodes (cycles).
        let mut depth = vec![0u32; n];
        let mut order = Vec::with_capacity(n);
        let mut stack = vec![root];
        let mut seen = vec![false; n];
        seen[root.index()] = true;
        while let Some(v) = stack.pop() {
            order.push(v);
            for &c in &children[v.index()] {
                if seen[c.index()] {
                    return Err(GraphError::NotASpanningTree {
                        reason: format!("node {c} reached twice"),
                    });
                }
                seen[c.index()] = true;
                depth[c.index()] = depth[v.index()] + 1;
                stack.push(c);
            }
        }
        if order.len() != n {
            return Err(GraphError::NotASpanningTree {
                reason: format!("only {} of {} nodes reachable from root", order.len(), n),
            });
        }
        Ok(RootedTree {
            root,
            parent,
            parent_weight,
            children,
            depth,
            order,
        })
    }

    /// Builds a rooted tree from a graph that *is* a tree (all edges used).
    ///
    /// # Errors
    ///
    /// Returns an error if the graph's edge set is not a spanning tree.
    pub fn from_graph(graph: &Graph, root: NodeId) -> Result<Self, GraphError> {
        let all: Vec<EdgeId> = graph.edge_ids().collect();
        Self::from_graph_edges(graph, &all, root)
    }

    /// Builds a rooted tree from a per-edge membership slice —
    /// `in_tree[e]` says whether edge `e` of `graph` is a tree edge: one
    /// slice index per neighbor in a breadth-first search from `root`.
    ///
    /// # Errors
    ///
    /// [`GraphError::NotASpanningTree`] if the membership length does not
    /// match the graph's edge count or the selected edges are not a
    /// spanning tree, [`GraphError::NodeOutOfRange`] if `root` is not a
    /// node of `graph`.
    pub fn from_tree_membership(
        graph: &Graph,
        in_tree: &[bool],
        root: NodeId,
    ) -> Result<Self, GraphError> {
        if in_tree.len() != graph.num_edges() {
            return Err(GraphError::NotASpanningTree {
                reason: format!(
                    "membership covers {} of {} edges",
                    in_tree.len(),
                    graph.num_edges()
                ),
            });
        }
        let n = graph.num_nodes();
        if in_tree.iter().filter(|b| **b).count() != n.saturating_sub(1) {
            return Err(GraphError::NotASpanningTree {
                reason: "edge count is not n - 1".to_owned(),
            });
        }
        if root.index() >= n {
            return Err(GraphError::NodeOutOfRange { node: root, n });
        }
        let mut parents: Vec<Option<(NodeId, Weight)>> = vec![None; n];
        graph.bfs_tree(in_tree, root, |v, nb| {
            parents[nb.node.index()] = Some((v, nb.weight));
        });
        // `from_parents` rejects the unreached remainder of a
        // non-spanning selection (cycles leave nodes without parents).
        Self::from_parents(root, parents)
    }

    /// Builds a rooted tree from a subset of a graph's edges: the ids are
    /// checked (range, duplicates) into a membership slice for
    /// [`RootedTree::from_tree_membership`].
    ///
    /// # Errors
    ///
    /// [`GraphError::NotASpanningTree`] if `tree_edges` is not a spanning
    /// tree of `graph`, [`GraphError::NodeOutOfRange`] if `root` is not a
    /// node of it.
    pub fn from_graph_edges(
        graph: &Graph,
        tree_edges: &[EdgeId],
        root: NodeId,
    ) -> Result<Self, GraphError> {
        let not_spanning = || GraphError::NotASpanningTree {
            reason: "edge set fails spanning-tree check".to_owned(),
        };
        let in_tree = graph.edge_membership(tree_edges).ok_or_else(not_spanning)?;
        Self::from_tree_membership(graph, &in_tree, root).map_err(|e| match e {
            GraphError::NotASpanningTree { .. } => not_spanning(),
            e => e,
        })
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Parent of `v`, or `None` at the root.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// Overwrites the cached weight of the edge between `child` and its
    /// parent. Structure (parents, depths, traversal order) is untouched;
    /// the caller keeps the mirror consistent with its graph — this is
    /// the weights-only fast path of incremental maintenance, where a
    /// tree edge is re-priced without moving.
    ///
    /// # Panics
    ///
    /// Panics if `child` is the root (it has no parent edge).
    pub fn set_parent_weight(&mut self, child: NodeId, w: Weight) {
        assert!(
            self.parent[child.index()].is_some(),
            "the root has no parent edge to re-weight"
        );
        self.parent_weight[child.index()] = w;
    }

    /// Swaps one tree edge in place, keeping the root: the edge between
    /// `cut` and its parent leaves the tree, and the edge between `inner`
    /// (in `cut`'s subtree) and `outer` (outside it), of weight `w`,
    /// enters. The subtree re-hangs from `outer`, and the result equals
    /// [`RootedTree::from_parents`] of the swapped tree in every field:
    ///
    /// * parent links and their weights reverse on the path from `inner`
    ///   up to `cut`, and `inner` hangs from `outer` at `w`;
    /// * children lists stay sorted by id;
    /// * depths change only inside the moved subtree;
    /// * the subtree's preorder block is cut out and spliced back in
    ///   below `outer`, after the blocks of `outer`'s larger-id children
    ///   and before those of its smaller-id ones.
    ///
    /// This is the incremental form of rebuilding the tree after a swap:
    /// it costs the moved subtree, the re-hung path (times the degrees on
    /// it) and `outer`'s depth, plus two searches and one block move in
    /// the flat preorder, instead of a traversal of the whole graph.
    ///
    /// # Panics
    ///
    /// Panics if `cut` is the root, `inner` is not in `cut`'s subtree,
    /// or `outer` is.
    pub fn rehang(&mut self, cut: NodeId, inner: NodeId, outer: NodeId, w: Weight) {
        let old_parent = self.parent[cut.index()].expect("the root has no parent edge to cut");
        // The re-hung path inner = path[0], ..., path[k] = cut.
        let mut path = vec![inner];
        let mut v = inner;
        while v != cut {
            v = self.parent[v.index()]
                .unwrap_or_else(|| panic!("{inner} is not in the subtree of {cut}"));
            path.push(v);
        }
        let mut up = Some(outer);
        while let Some(v) = up {
            assert!(v != cut, "{outer} is in the subtree of {cut}");
            up = self.parent[v.index()];
        }
        // The subtree's preorder block: `cut` and the deeper nodes after it.
        let start = self.preorder_index(cut);
        let cut_depth = self.depth[cut.index()];
        let len = 1 + self.order[start + 1..]
            .iter()
            .take_while(|v| self.depth[v.index()] > cut_depth)
            .count();

        // Parent links: each path node takes its lower neighbor as parent,
        // with that neighbor's old parent weight (read before it is
        // overwritten, top down).
        unlink(&mut self.children[old_parent.index()], cut);
        for i in (0..path.len() - 1).rev() {
            let (lower, upper) = (path[i], path[i + 1]);
            self.parent[upper.index()] = Some(lower);
            self.parent_weight[upper.index()] = self.parent_weight[lower.index()];
            unlink(&mut self.children[upper.index()], lower);
            link(&mut self.children[lower.index()], upper);
        }
        self.parent[inner.index()] = Some(outer);
        self.parent_weight[inner.index()] = w;
        link(&mut self.children[outer.index()], inner);

        // The block moves to where the preorder lists the block that
        // follows `inner`'s, counted without the block itself.
        let n = self.order.len();
        let at = match self.next_block(inner) {
            Some(next) => {
                let p = self.preorder_index(next);
                if p > start {
                    p - len
                } else {
                    p
                }
            }
            None => n - len,
        };
        if at <= start {
            self.order[at..start + len].rotate_right(len);
        } else {
            self.order[start..at + len].rotate_left(len);
        }
        // Refill the block with the subtree's new preorder, the way
        // `from_parents` walks it, and re-derive its depths.
        let RootedTree {
            children,
            depth,
            order,
            ..
        } = self;
        depth[inner.index()] = depth[outer.index()] + 1;
        let mut stack = vec![inner];
        let mut slot = at;
        while let Some(v) = stack.pop() {
            order[slot] = v;
            slot += 1;
            for &c in &children[v.index()] {
                depth[c.index()] = depth[v.index()] + 1;
                stack.push(c);
            }
        }
        debug_assert_eq!(slot, at + len, "the re-hung subtree kept its size");
    }

    /// Where `v` sits in the preorder (a flat search: the tree keeps no
    /// position index).
    fn preorder_index(&self, v: NodeId) -> usize {
        self.order
            .iter()
            .position(|&u| u == v)
            .expect("every node is in the preorder")
    }

    /// The node whose preorder block starts right after `v`'s: `v`'s
    /// next smaller-id sibling, or that of its nearest ancestor that has
    /// one; `None` when `v`'s block ends the preorder.
    fn next_block(&self, v: NodeId) -> Option<NodeId> {
        let mut cur = v;
        while let Some(p) = self.parent[cur.index()] {
            let siblings = &self.children[p.index()];
            let i = siblings
                .binary_search(&cur)
                .expect("children list their parent's child");
            if i > 0 {
                return Some(siblings[i - 1]);
            }
            cur = p;
        }
        None
    }

    /// Weight of the edge from `v` to its parent (`Weight::ZERO` at root).
    #[inline]
    pub fn parent_weight(&self, v: NodeId) -> Weight {
        self.parent_weight[v.index()]
    }

    /// Children of `v`.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v.index()]
    }

    /// Depth of `v` (root has depth 0).
    #[inline]
    pub fn depth(&self, v: NodeId) -> u32 {
        self.depth[v.index()]
    }

    /// A preorder over all nodes: every parent precedes its children.
    #[inline]
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Iterator over all nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes()).map(NodeId::from_index)
    }

    /// Iterator over the tree's edges as `(child, parent, weight)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        self.nodes()
            .filter_map(move |v| self.parent(v).map(|p| (v, p, self.parent_weight(v))))
    }

    /// Subtree sizes, computed bottom-up.
    pub fn subtree_sizes(&self) -> Vec<usize> {
        let mut size = vec![1usize; self.num_nodes()];
        for &v in self.order.iter().rev() {
            if let Some(p) = self.parent(v) {
                size[p.index()] += size[v.index()];
            }
        }
        size
    }

    /// The path from `u` up to the root, inclusive.
    pub fn path_to_root(&self, u: NodeId) -> Vec<NodeId> {
        let mut path = vec![u];
        let mut cur = u;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path
    }

    /// The smaller shore of the cut at the tree edge between `child` and
    /// its parent. Both shores grow breadth-first over tree links,
    /// alternately one link at a time, and the first to run out is
    /// written to `shore` (cleared first). Returns `true` when that shore
    /// is `child`'s subtree and `false` when it is the rest of the tree.
    ///
    /// A shore of `s` nodes has `2s - 1` links counted from its side (the
    /// cut included), so the first to run out is never the larger shore
    /// (the subtree wins a tie), and the cost follows the smaller shore,
    /// never `n`: the other stops at most one link further along.
    ///
    /// # Panics
    ///
    /// Panics if `child` is the root.
    pub fn smaller_shore(&self, child: NodeId, shore: &mut Vec<NodeId>) -> bool {
        let top = self
            .parent(child)
            .expect("the root has no parent edge to cut");
        let mut below = ShoreGrowth::new(child, top);
        let mut above = ShoreGrowth::new(top, child);
        let (done, is_below) = loop {
            if !below.step(self) {
                break (below, true);
            }
            if !above.step(self) {
                break (above, false);
            }
        };
        shore.clear();
        shore.extend(done.found.iter().map(|&(v, _)| v));
        is_below
    }

    /// Naive `MAX(u, v)`: the largest edge weight on the tree path, by
    /// walking both nodes up to their meeting point. `Weight::ZERO` when
    /// `u == v`. O(depth) per query; this is the reference oracle.
    pub fn max_on_path_naive(&self, u: NodeId, v: NodeId) -> Weight {
        let (mut a, mut b) = (u, v);
        let mut best = Weight::ZERO;
        while a != b {
            if self.depth(a) >= self.depth(b) {
                best = best.max(self.parent_weight(a));
                a = self.parent(a).expect("non-root node has parent");
            } else {
                best = best.max(self.parent_weight(b));
                b = self.parent(b).expect("non-root node has parent");
            }
        }
        best
    }

    /// All three path aggregates — `(MAX, FLOW, DIST)` = (largest edge
    /// weight, smallest edge weight, summed weight) of the tree path —
    /// in one O(depth) climb, with the empty-path conventions of the
    /// individual oracles: `(Weight::ZERO, Weight(u64::MAX), 0)` when
    /// `u == v`. Zero preprocessing, so incremental relabelers can
    /// re-assemble a handful of dirty labels without paying a full
    /// O(n log n) index build first.
    ///
    /// # Panics
    ///
    /// Panics if the summed weight overflows `u64` (never on a tree
    /// whose total weight fits).
    pub fn path_stats_naive(&self, u: NodeId, v: NodeId) -> (Weight, Weight, u64) {
        let (mut a, mut b) = (u, v);
        let (mut max, mut min, mut sum) = (Weight::ZERO, Weight(u64::MAX), 0u64);
        while a != b {
            let step = if self.depth(a) >= self.depth(b) {
                &mut a
            } else {
                &mut b
            };
            let w = self.parent_weight(*step);
            max = max.max(w);
            min = min.min(w);
            sum = sum.checked_add(w.0).expect("path weight overflows u64");
            *step = self.parent(*step).expect("non-root node has parent");
        }
        (max, min, sum)
    }

    /// Naive `FLOW(u, v)`: the smallest edge weight on the tree path, or
    /// `Weight(u64::MAX)` when `u == v` (empty-path minimum).
    pub fn min_on_path_naive(&self, u: NodeId, v: NodeId) -> Weight {
        let (mut a, mut b) = (u, v);
        let mut best = Weight(u64::MAX);
        while a != b {
            if self.depth(a) >= self.depth(b) {
                best = best.min(self.parent_weight(a));
                a = self.parent(a).expect("non-root node has parent");
            } else {
                best = best.min(self.parent_weight(b));
                b = self.parent(b).expect("non-root node has parent");
            }
        }
        best
    }
}

/// Removes `v` from a sorted children list.
fn unlink(children: &mut Vec<NodeId>, v: NodeId) {
    let i = children
        .binary_search(&v)
        .expect("children list their parent's child");
    children.remove(i);
}

/// Inserts `v` into a sorted children list.
fn link(children: &mut Vec<NodeId>, v: NodeId) {
    let i = children
        .binary_search(&v)
        .expect_err("a new child is not listed yet");
    children.insert(i, v);
}

/// One shore of a cut, grown breadth-first one tree link at a time
/// ([`RootedTree::smaller_shore`]).
struct ShoreGrowth {
    /// Nodes reached, each with the neighbor it was reached from, which
    /// it never walks back to (for the start node, the far end of the
    /// cut).
    found: Vec<(NodeId, NodeId)>,
    /// `found[head]` is being expanded, and `link` is its next link to
    /// look at: its children in order, then its parent.
    head: usize,
    link: usize,
}

impl ShoreGrowth {
    fn new(start: NodeId, across: NodeId) -> Self {
        ShoreGrowth {
            found: vec![(start, across)],
            head: 0,
            link: 0,
        }
    }

    /// Looks at one tree link; `false` once the shore is complete.
    fn step(&mut self, tree: &RootedTree) -> bool {
        while let Some(&(v, from)) = self.found.get(self.head) {
            let kids = tree.children(v);
            let next = if self.link < kids.len() {
                Some(kids[self.link])
            } else if self.link == kids.len() {
                tree.parent(v)
            } else {
                None
            };
            self.link += 1;
            match next {
                Some(u) => {
                    if u != from {
                        self.found.push((u, v));
                    }
                    return true;
                }
                None => {
                    self.head += 1;
                    self.link = 0;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed 6-node tree:
    /// ```text
    ///        0
    ///      5/ \3
    ///      1   2
    ///    2/ \7  \1
    ///    3   4   5
    /// ```
    fn sample() -> RootedTree {
        RootedTree::from_parents(
            NodeId(0),
            vec![
                None,
                Some((NodeId(0), Weight(5))),
                Some((NodeId(0), Weight(3))),
                Some((NodeId(1), Weight(2))),
                Some((NodeId(1), Weight(7))),
                Some((NodeId(2), Weight(1))),
            ],
        )
        .unwrap()
    }

    #[test]
    fn structure() {
        let t = sample();
        assert_eq!(t.num_nodes(), 6);
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(1)));
        assert_eq!(t.parent(NodeId(0)), None);
        assert_eq!(t.parent_weight(NodeId(4)), Weight(7));
        assert_eq!(t.depth(NodeId(5)), 2);
        assert_eq!(t.children(NodeId(1)), &[NodeId(3), NodeId(4)]);
        assert_eq!(t.edges().count(), 5);
    }

    #[test]
    fn preorder_parents_first() {
        let t = sample();
        let pos: Vec<usize> = {
            let mut pos = vec![0; 6];
            for (i, &v) in t.order().iter().enumerate() {
                pos[v.index()] = i;
            }
            pos
        };
        for v in t.nodes() {
            if let Some(p) = t.parent(v) {
                assert!(pos[p.index()] < pos[v.index()]);
            }
        }
    }

    #[test]
    fn subtree_sizes() {
        let t = sample();
        let s = t.subtree_sizes();
        assert_eq!(s[0], 6);
        assert_eq!(s[1], 3);
        assert_eq!(s[2], 2);
        assert_eq!(s[3], 1);
    }

    #[test]
    fn naive_path_max() {
        let t = sample();
        assert_eq!(t.max_on_path_naive(NodeId(3), NodeId(4)), Weight(7));
        assert_eq!(t.max_on_path_naive(NodeId(3), NodeId(5)), Weight(5));
        assert_eq!(t.max_on_path_naive(NodeId(0), NodeId(5)), Weight(3));
        assert_eq!(t.max_on_path_naive(NodeId(2), NodeId(2)), Weight::ZERO);
        // Symmetry.
        assert_eq!(
            t.max_on_path_naive(NodeId(4), NodeId(5)),
            t.max_on_path_naive(NodeId(5), NodeId(4))
        );
    }

    #[test]
    fn naive_path_min() {
        let t = sample();
        assert_eq!(t.min_on_path_naive(NodeId(3), NodeId(4)), Weight(2));
        assert_eq!(t.min_on_path_naive(NodeId(3), NodeId(5)), Weight(1));
        assert_eq!(t.min_on_path_naive(NodeId(2), NodeId(2)), Weight(u64::MAX));
    }

    #[test]
    fn set_parent_weight_repriced_edge_only() {
        let mut g = Graph::new(3);
        let e0 = g.add_edge(NodeId(0), NodeId(1), Weight(4)).unwrap();
        let e1 = g.add_edge(NodeId(1), NodeId(2), Weight(7)).unwrap();
        let mut t = RootedTree::from_graph_edges(&g, &[e0, e1], NodeId(0)).unwrap();
        t.set_parent_weight(NodeId(2), Weight(11));
        assert_eq!(t.parent_weight(NodeId(2)), Weight(11));
        assert_eq!(t.parent_weight(NodeId(1)), Weight(4));
        assert_eq!(t.parent(NodeId(2)), Some(NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "root has no parent edge")]
    fn set_parent_weight_rejects_root() {
        let mut g = Graph::new(2);
        let e0 = g.add_edge(NodeId(0), NodeId(1), Weight(1)).unwrap();
        let mut t = RootedTree::from_graph_edges(&g, &[e0], NodeId(0)).unwrap();
        t.set_parent_weight(NodeId(0), Weight(2));
    }

    #[test]
    fn rehang_reverses_the_path_and_moves_the_block() {
        // Cut 1 off the root and hang its subtree from 5 through 4: the
        // link 4 - 1 reverses and keeps its weight 7.
        let mut t = sample();
        t.rehang(NodeId(1), NodeId(4), NodeId(5), Weight(6));
        let want = RootedTree::from_parents(
            NodeId(0),
            vec![
                None,
                Some((NodeId(4), Weight(7))),
                Some((NodeId(0), Weight(3))),
                Some((NodeId(1), Weight(2))),
                Some((NodeId(5), Weight(6))),
                Some((NodeId(2), Weight(1))),
            ],
        )
        .unwrap();
        assert_eq!(t, want);
        assert_eq!(t.depth(NodeId(3)), 5);
        // Re-adding the edge just cut restores the tree.
        t.rehang(NodeId(4), NodeId(1), NodeId(0), Weight(5));
        t.rehang(NodeId(4), NodeId(4), NodeId(1), Weight(7));
        assert_eq!(t, sample());
    }

    #[test]
    #[should_panic(expected = "is in the subtree of")]
    fn rehang_rejects_an_outer_end_below_the_cut() {
        sample().rehang(NodeId(1), NodeId(3), NodeId(4), Weight(1));
    }

    #[test]
    #[should_panic(expected = "is not in the subtree of")]
    fn rehang_rejects_an_inner_end_outside_the_cut() {
        sample().rehang(NodeId(1), NodeId(5), NodeId(2), Weight(1));
    }

    #[test]
    fn smaller_shore_of_a_leaf_is_the_leaf() {
        let t = sample();
        let mut shore = vec![NodeId(9)];
        assert!(t.smaller_shore(NodeId(3), &mut shore));
        assert_eq!(shore, [NodeId(3)]);
        assert!(t.smaller_shore(NodeId(2), &mut shore));
        shore.sort_unstable();
        assert_eq!(shore, [NodeId(2), NodeId(5)]);
    }

    #[test]
    fn path_stats_matches_individual_oracles() {
        let t = sample();
        for u in t.nodes() {
            for v in t.nodes() {
                let (max, min, _) = t.path_stats_naive(u, v);
                assert_eq!(max, t.max_on_path_naive(u, v));
                assert_eq!(min, t.min_on_path_naive(u, v));
            }
        }
        // Summed weights: 3 -2- 1 -5- 0 -3- 2 -1- 5.
        assert_eq!(t.path_stats_naive(NodeId(3), NodeId(5)).2, 11);
        assert_eq!(t.path_stats_naive(NodeId(4), NodeId(4)).2, 0);
    }

    #[test]
    fn path_to_root() {
        let t = sample();
        assert_eq!(
            t.path_to_root(NodeId(3)),
            vec![NodeId(3), NodeId(1), NodeId(0)]
        );
        assert_eq!(t.path_to_root(NodeId(0)), vec![NodeId(0)]);
    }

    #[test]
    fn rejects_root_with_parent() {
        let r = RootedTree::from_parents(NodeId(0), vec![Some((NodeId(1), Weight(1))), None]);
        assert!(r.is_err());
    }

    #[test]
    fn rejects_orphan() {
        let r = RootedTree::from_parents(NodeId(0), vec![None, None]);
        assert!(r.is_err());
    }

    #[test]
    fn rejects_cycle() {
        // 1 -> 2 -> 1 cycle, disconnected from root 0.
        let r = RootedTree::from_parents(
            NodeId(0),
            vec![
                None,
                Some((NodeId(2), Weight(1))),
                Some((NodeId(1), Weight(1))),
            ],
        );
        assert!(r.is_err());
    }

    #[test]
    fn from_graph_edges() {
        let mut g = Graph::new(4);
        let e0 = g.add_edge(NodeId(0), NodeId(1), Weight(4)).unwrap();
        let _e1 = g.add_edge(NodeId(1), NodeId(2), Weight(6)).unwrap();
        let e2 = g.add_edge(NodeId(2), NodeId(3), Weight(2)).unwrap();
        let e3 = g.add_edge(NodeId(3), NodeId(0), Weight(9)).unwrap();
        let t = RootedTree::from_graph_edges(&g, &[e0, e2, e3], NodeId(2)).unwrap();
        assert_eq!(t.root(), NodeId(2));
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(2)));
        assert_eq!(t.parent(NodeId(0)), Some(NodeId(3)));
        assert_eq!(t.parent_weight(NodeId(0)), Weight(9));
        assert_eq!(t.max_on_path_naive(NodeId(1), NodeId(2)), Weight(9));
    }

    #[test]
    fn from_tree_membership_matches_edge_list() {
        let mut g = Graph::new(4);
        let e0 = g.add_edge(NodeId(0), NodeId(1), Weight(4)).unwrap();
        let _e1 = g.add_edge(NodeId(1), NodeId(2), Weight(6)).unwrap();
        let e2 = g.add_edge(NodeId(2), NodeId(3), Weight(2)).unwrap();
        let e3 = g.add_edge(NodeId(3), NodeId(0), Weight(9)).unwrap();
        let edges = [e0, e2, e3];
        let mut memb = vec![false; g.num_edges()];
        for e in edges {
            memb[e.index()] = true;
        }
        let via_list = RootedTree::from_graph_edges(&g, &edges, NodeId(2)).unwrap();
        let via_memb = RootedTree::from_tree_membership(&g, &memb, NodeId(2)).unwrap();
        assert_eq!(via_list, via_memb);

        // n - 1 edges that close a cycle (a triangle beside a pendant
        // node) leave node 3 unreached — rejected, not silently
        // mis-rooted.
        let mut h = Graph::new(4);
        let t0 = h.add_edge(NodeId(0), NodeId(1), Weight(1)).unwrap();
        let t1 = h.add_edge(NodeId(1), NodeId(2), Weight(2)).unwrap();
        let t2 = h.add_edge(NodeId(2), NodeId(0), Weight(3)).unwrap();
        let _t3 = h.add_edge(NodeId(2), NodeId(3), Weight(4)).unwrap();
        let mut cyc = vec![false; h.num_edges()];
        for e in [t0, t1, t2] {
            cyc[e.index()] = true;
        }
        assert!(RootedTree::from_tree_membership(&h, &cyc, NodeId(0)).is_err());
        // Wrong membership length and wrong edge count are typed errors.
        assert!(RootedTree::from_tree_membership(&g, &[true; 2], NodeId(0)).is_err());
        assert!(RootedTree::from_tree_membership(&g, &[true; 4], NodeId(0)).is_err());
    }

    #[test]
    fn from_graph_edges_edge_cases() {
        // A triangle 0-1-2 with node 3 hanging off node 2.
        let mut g = Graph::new(4);
        let e0 = g.add_edge(NodeId(0), NodeId(1), Weight(1)).unwrap();
        let e1 = g.add_edge(NodeId(1), NodeId(2), Weight(2)).unwrap();
        let e2 = g.add_edge(NodeId(2), NodeId(0), Weight(3)).unwrap();
        let e3 = g.add_edge(NodeId(2), NodeId(3), Weight(4)).unwrap();
        let not_spanning = Err(GraphError::NotASpanningTree {
            reason: "edge set fails spanning-tree check".to_owned(),
        });
        for edges in [[e0, e1, e0], [e0, e1, EdgeId(4)], [e0, e1, e2]] {
            assert_eq!(
                RootedTree::from_graph_edges(&g, &edges, NodeId(0)),
                not_spanning,
                "{edges:?}"
            );
        }
        assert_eq!(
            RootedTree::from_graph_edges(&g, &[e0, e1, e3], NodeId(4)),
            Err(GraphError::NodeOutOfRange {
                node: NodeId(4),
                n: 4
            })
        );
        let one = RootedTree::from_graph_edges(&Graph::new(1), &[], NodeId(0)).unwrap();
        assert_eq!(
            one,
            RootedTree::from_parents(NodeId(0), vec![None]).unwrap()
        );
        // No node to hang a tree from: a typed error, not a panic.
        assert_eq!(
            RootedTree::from_graph_edges(&Graph::new(0), &[], NodeId(0)),
            Err(GraphError::NodeOutOfRange {
                node: NodeId(0),
                n: 0
            })
        );
    }

    #[test]
    fn single_node_tree() {
        let t = RootedTree::from_parents(NodeId(0), vec![None]).unwrap();
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.max_on_path_naive(NodeId(0), NodeId(0)), Weight::ZERO);
        assert_eq!(t.subtree_sizes(), vec![1]);
    }
}
