//! The port-numbered weighted undirected graph.

use crate::{EdgeId, GraphError, NodeId, Port, Weight};

/// An undirected weighted edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// First endpoint (the one passed first to [`Graph::add_edge`]).
    pub u: NodeId,
    /// Second endpoint.
    pub v: NodeId,
    /// Positive integral weight.
    pub w: Weight,
}

impl Edge {
    /// Returns the endpoint different from `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("{x} is not an endpoint of edge ({}, {})", self.u, self.v)
        }
    }

    /// Returns both endpoints as `(min, max)` by node id.
    #[inline]
    pub fn normalized(&self) -> (NodeId, NodeId) {
        if self.u <= self.v {
            (self.u, self.v)
        } else {
            (self.v, self.u)
        }
    }
}

/// One entry of a node's adjacency list, as seen through a local port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Neighbor {
    /// The local port number at the viewing node.
    pub port: Port,
    /// The incident edge.
    pub edge: EdgeId,
    /// The node at the other end.
    pub node: NodeId,
    /// The weight of the incident edge.
    pub weight: Weight,
}

/// A simple undirected graph with positive integral edge weights and
/// per-node port numbering.
///
/// Nodes are `NodeId(0)..NodeId(n-1)`. Each node's incident edges are
/// numbered by local ports `0..deg(v)` in insertion order; the port
/// numbering is *local*: the two endpoints of an edge generally disagree on
/// its port number, exactly as in the paper's model.
///
/// # Example
///
/// ```
/// use mstv_graph::{Graph, NodeId, Weight};
///
/// let mut g = Graph::new(4);
/// let e = g.add_edge(NodeId(0), NodeId(1), Weight(3)).unwrap();
/// assert_eq!(g.edge(e).w, Weight(3));
/// assert_eq!(g.neighbors(NodeId(0)).count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    edges: Vec<Edge>,
    adj: Vec<Vec<EdgeId>>,
}

impl Graph {
    /// Creates an empty graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len()).map(NodeId::from_index)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId::from_index)
    }

    /// Iterator over all edges with their ids.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId::from_index(i), e))
    }

    /// Adds an undirected edge `(u, v)` with weight `w`.
    ///
    /// Returns the new edge's id. The edge occupies the next free port of
    /// both endpoints.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is out of range, `u == v`
    /// (self-loop), `w` is zero, or a parallel `(u, v)` edge already exists.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: Weight) -> Result<EdgeId, GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if w == Weight::ZERO {
            return Err(GraphError::ZeroWeight);
        }
        if self.edge_between(u, v).is_some() {
            return Err(GraphError::ParallelEdge { u, v });
        }
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push(Edge { u, v, w });
        self.adj[u.index()].push(id);
        self.adj[v.index()].push(id);
        Ok(id)
    }

    /// Returns the edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e.index()]
    }

    /// Returns the weight of an edge.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> Weight {
        self.edges[e.index()].w
    }

    /// Replaces the weight of an edge (used by fault-injection and
    /// sensitivity experiments).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range or `w` is zero.
    pub fn set_weight(&mut self, e: EdgeId, w: Weight) {
        assert!(w > Weight::ZERO, "edge weight must be positive");
        self.edges[e.index()].w = w;
    }

    /// Degree of a node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }

    /// The edge behind a given local port of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `p >= deg(v)`.
    #[inline]
    pub fn edge_at_port(&self, v: NodeId, p: Port) -> EdgeId {
        self.adj[v.index()][p.index()]
    }

    /// The neighbor reached from `v` through port `p`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `p >= deg(v)`.
    #[inline]
    pub fn neighbor_at_port(&self, v: NodeId, p: Port) -> NodeId {
        self.edge(self.edge_at_port(v, p)).other(v)
    }

    /// Iterator over the neighbors of `v`, in port order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = Neighbor> + '_ {
        self.adj[v.index()].iter().enumerate().map(move |(p, &e)| {
            let edge = self.edge(e);
            Neighbor {
                port: Port(p as u32),
                edge: e,
                node: edge.other(v),
                weight: edge.w,
            }
        })
    }

    /// The local port of `v` whose edge leads to `u`, if any.
    ///
    /// Runs in `O(deg(v))`.
    pub fn port_towards(&self, v: NodeId, u: NodeId) -> Option<Port> {
        self.neighbors(v).find(|nb| nb.node == u).map(|nb| nb.port)
    }

    /// The edge between `u` and `v`, if any.
    ///
    /// Runs in `O(min(deg(u), deg(v)))`.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u.index() >= self.adj.len() || v.index() >= self.adj.len() {
            return None;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).find(|nb| nb.node == b).map(|nb| nb.edge)
    }

    /// The largest edge weight in the graph (`Weight::ZERO` if edgeless).
    pub fn max_weight(&self) -> Weight {
        self.edges.iter().map(|e| e.w).max().unwrap_or(Weight::ZERO)
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> u128 {
        self.edges.iter().map(|e| u128::from(e.w.0)).sum()
    }

    /// Whether the graph is connected (the empty graph is connected).
    pub fn is_connected(&self) -> bool {
        let n = self.num_nodes();
        n <= 1 || self.bfs_tree(&vec![true; self.num_edges()], NodeId(0), |_, _| {}) == n
    }

    /// Whether the given edge set forms a spanning tree of this graph.
    pub fn is_spanning_tree(&self, tree_edges: &[EdgeId]) -> bool {
        self.spanning_tree_membership(tree_edges).is_some()
    }

    /// The membership slice of `tree_edges` (`in_tree[e]` says whether
    /// edge `e` is listed) when they form a spanning tree of this graph,
    /// `None` otherwise. The check builds the slice, so a caller that
    /// goes on to test tree membership takes it from here.
    pub fn spanning_tree_membership(&self, tree_edges: &[EdgeId]) -> Option<Vec<bool>> {
        let n = self.num_nodes();
        if tree_edges.len() != n.saturating_sub(1) {
            return None;
        }
        let in_tree = self.edge_membership(tree_edges)?;
        // n - 1 distinct edges that reach every node form a spanning tree.
        (n == 0 || self.bfs_tree(&in_tree, NodeId(0), |_, _| {}) == n).then_some(in_tree)
    }

    /// `edges` as a membership slice over this graph's edge ids, or
    /// `None` when an id is out of range or listed twice.
    pub fn edge_membership(&self, edges: &[EdgeId]) -> Option<Vec<bool>> {
        let mut member = vec![false; self.num_edges()];
        for &e in edges {
            match member.get_mut(e.index()) {
                Some(slot) if !*slot => *slot = true,
                _ => return None,
            }
        }
        Some(member)
    }

    /// Breadth-first search from `root` over the edges `e` with
    /// `in_tree[e]`: calls `reach(v, nb)` once for every node `nb.node`,
    /// when it is first reached from `v`, and returns how many nodes
    /// were reached, `root` included.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range or `in_tree` is shorter than
    /// the edge count.
    pub fn bfs_tree(
        &self,
        in_tree: &[bool],
        root: NodeId,
        mut reach: impl FnMut(NodeId, Neighbor),
    ) -> usize {
        let mut seen = vec![false; self.num_nodes()];
        seen[root.index()] = true;
        let mut queue = vec![root];
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            for (p, &e) in self.adj[v.index()].iter().enumerate() {
                if !in_tree[e.index()] {
                    continue;
                }
                let edge = self.edge(e);
                let u = edge.other(v);
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    reach(
                        v,
                        Neighbor {
                            port: Port(p as u32),
                            edge: e,
                            node: u,
                            weight: edge.w,
                        },
                    );
                    queue.push(u);
                }
            }
        }
        queue.len()
    }

    fn check_node(&self, v: NodeId) -> Result<(), GraphError> {
        if v.index() >= self.adj.len() {
            Err(GraphError::NodeOutOfRange {
                node: v,
                n: self.adj.len(),
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), Weight(1)).unwrap();
        g.add_edge(NodeId(1), NodeId(2), Weight(2)).unwrap();
        g.add_edge(NodeId(2), NodeId(0), Weight(3)).unwrap();
        g
    }

    #[test]
    fn build_and_query() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.weight(EdgeId(1)), Weight(2));
        assert_eq!(g.max_weight(), Weight(3));
        assert_eq!(g.total_weight(), 6);
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = Graph::new(2);
        assert_eq!(
            g.add_edge(NodeId(0), NodeId(0), Weight(1)),
            Err(GraphError::SelfLoop { node: NodeId(0) })
        );
    }

    #[test]
    fn rejects_parallel_edge() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), Weight(1)).unwrap();
        assert_eq!(
            g.add_edge(NodeId(1), NodeId(0), Weight(2)),
            Err(GraphError::ParallelEdge {
                u: NodeId(1),
                v: NodeId(0)
            })
        );
    }

    #[test]
    fn rejects_zero_weight() {
        let mut g = Graph::new(2);
        assert_eq!(
            g.add_edge(NodeId(0), NodeId(1), Weight(0)),
            Err(GraphError::ZeroWeight)
        );
    }

    #[test]
    fn rejects_out_of_range() {
        let mut g = Graph::new(2);
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(5), Weight(1)),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn ports_are_local_and_in_insertion_order() {
        let g = triangle();
        // Node 0 saw edge e0 first (port 0), then e2 (port 1).
        assert_eq!(g.edge_at_port(NodeId(0), Port(0)), EdgeId(0));
        assert_eq!(g.edge_at_port(NodeId(0), Port(1)), EdgeId(2));
        // Node 2 saw e1 first.
        assert_eq!(g.edge_at_port(NodeId(2), Port(0)), EdgeId(1));
        assert_eq!(g.neighbor_at_port(NodeId(2), Port(0)), NodeId(1));
    }

    #[test]
    fn port_towards_and_edge_between() {
        let g = triangle();
        assert_eq!(g.port_towards(NodeId(0), NodeId(2)), Some(Port(1)));
        assert_eq!(g.edge_between(NodeId(0), NodeId(2)), Some(EdgeId(2)));
        assert_eq!(g.edge_between(NodeId(0), NodeId(0)), None);
        let g2 = Graph::new(3);
        assert_eq!(g2.edge_between(NodeId(0), NodeId(1)), None);
    }

    #[test]
    fn connectivity() {
        assert!(triangle().is_connected());
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), Weight(1)).unwrap();
        g.add_edge(NodeId(2), NodeId(3), Weight(1)).unwrap();
        assert!(!g.is_connected());
        assert!(Graph::new(0).is_connected());
        assert!(Graph::new(1).is_connected());
    }

    #[test]
    fn spanning_tree_check() {
        let g = triangle();
        assert!(g.is_spanning_tree(&[EdgeId(0), EdgeId(1)]));
        assert!(g.is_spanning_tree(&[EdgeId(0), EdgeId(2)]));
        // Wrong cardinality.
        assert!(!g.is_spanning_tree(&[EdgeId(0)]));
        // Duplicate edge.
        assert!(!g.is_spanning_tree(&[EdgeId(0), EdgeId(0)]));
        // All three edges: cycle.
        assert!(!g.is_spanning_tree(&[EdgeId(0), EdgeId(1), EdgeId(2)]));
    }

    #[test]
    fn spanning_tree_check_disconnected_edge_set() {
        let mut g = Graph::new(4);
        let e0 = g.add_edge(NodeId(0), NodeId(1), Weight(1)).unwrap();
        let e1 = g.add_edge(NodeId(2), NodeId(3), Weight(1)).unwrap();
        let e2 = g.add_edge(NodeId(1), NodeId(2), Weight(1)).unwrap();
        let e3 = g.add_edge(NodeId(0), NodeId(3), Weight(1)).unwrap();
        assert!(g.is_spanning_tree(&[e0, e1, e2]));
        assert!(g.is_spanning_tree(&[e0, e1, e3]));
        // 0-1, 0-3, 2 isolated? No: e3=(0,3), e0=(0,1) leaves node 2 only via e1/e2.
        assert!(!g.is_spanning_tree(&[e0, e3, EdgeId(99)]));
    }

    #[test]
    fn membership_edge_cases() {
        let g = triangle();
        let (e0, e1, e2) = (EdgeId(0), EdgeId(1), EdgeId(2));
        assert_eq!(g.edge_membership(&[e2, e0]), Some(vec![true, false, true]));
        assert_eq!(g.edge_membership(&[]), Some(vec![false; 3]));
        // A duplicate or out-of-range id has no membership slice, and no
        // spanning tree either.
        assert_eq!(g.edge_membership(&[e0, e0]), None);
        assert_eq!(g.edge_membership(&[e0, EdgeId(3)]), None);
        assert_eq!(g.spanning_tree_membership(&[e0, e0]), None);
        assert_eq!(g.spanning_tree_membership(&[e0, EdgeId(3)]), None);
        assert!(!g.is_spanning_tree(&[e0, EdgeId(3)]));
        assert_eq!(
            g.spanning_tree_membership(&[e1, e2]),
            Some(vec![false, true, true])
        );
        // One node spans itself with no edges; no node, with none.
        assert!(Graph::new(1).is_spanning_tree(&[]));
        assert_eq!(Graph::new(1).spanning_tree_membership(&[]), Some(vec![]));
        assert!(Graph::new(0).is_spanning_tree(&[]));
        assert!(!Graph::new(0).is_spanning_tree(&[e0]));
    }

    #[test]
    fn bfs_tree_reaches_along_members_only() {
        let mut g = Graph::new(4);
        let e0 = g.add_edge(NodeId(0), NodeId(1), Weight(5)).unwrap();
        g.add_edge(NodeId(1), NodeId(2), Weight(6)).unwrap();
        let e2 = g.add_edge(NodeId(0), NodeId(3), Weight(7)).unwrap();
        let mut reached = Vec::new();
        let count = g.bfs_tree(&[true, false, true], NodeId(0), |v, nb| {
            reached.push((v, nb.node, nb.edge, nb.port, nb.weight));
        });
        assert_eq!(count, 3);
        assert_eq!(
            reached,
            vec![
                (NodeId(0), NodeId(1), e0, Port(0), Weight(5)),
                (NodeId(0), NodeId(3), e2, Port(1), Weight(7)),
            ]
        );
    }

    #[test]
    fn edge_other_and_normalized() {
        let e = Edge {
            u: NodeId(3),
            v: NodeId(1),
            w: Weight(5),
        };
        assert_eq!(e.other(NodeId(3)), NodeId(1));
        assert_eq!(e.other(NodeId(1)), NodeId(3));
        assert_eq!(e.normalized(), (NodeId(1), NodeId(3)));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_other_panics() {
        let e = Edge {
            u: NodeId(0),
            v: NodeId(1),
            w: Weight(1),
        };
        let _ = e.other(NodeId(2));
    }

    #[test]
    fn set_weight_updates() {
        let mut g = triangle();
        g.set_weight(EdgeId(0), Weight(10));
        assert_eq!(g.weight(EdgeId(0)), Weight(10));
    }
}
