//! Configuration graphs: a graph together with a local state per node.
//!
//! Following Definition 2.1 of the paper, node states may contain port
//! fields; the *subgraph induced by the states* consists of every edge that
//! is pointed at (through its local port number) by the state of at least
//! one endpoint.

use crate::{EdgeId, Graph, GraphError, NodeId, Port, Weight};

/// Types of node state that designate some of the node's ports, thereby
/// inducing a subgraph of the configuration graph (Definition 2.1).
pub trait PortPointers {
    /// The ports of the owning node that this state points at.
    fn pointed_ports(&self) -> Vec<Port>;
}

/// States carrying the standard distributed spanning-tree representation:
/// a single mutable parent-port pointer (`None` at the root).
///
/// Generic machinery — fault injection, incremental re-verification
/// sessions — uses this to retarget tree pointers without knowing the
/// concrete state type.
pub trait ParentPointer {
    /// The port towards the parent, `None` at the root.
    fn parent_port(&self) -> Option<Port>;

    /// Repoints the parent pointer (or makes the node a root).
    fn set_parent_port(&mut self, port: Option<Port>);
}

/// The standard distributed representation of a rooted spanning tree:
/// each node stores its unique identity and the port leading to its parent
/// (`None` at the root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TreeState {
    /// The node's unique identity (id-based model).
    pub id: u64,
    /// Port towards the parent in the represented tree; `None` at the root.
    pub parent_port: Option<Port>,
}

impl TreeState {
    /// Creates a root state (no parent pointer).
    pub fn root(id: u64) -> Self {
        TreeState {
            id,
            parent_port: None,
        }
    }

    /// Creates a non-root state pointing at `parent_port`.
    pub fn child(id: u64, parent_port: Port) -> Self {
        TreeState {
            id,
            parent_port: Some(parent_port),
        }
    }
}

impl PortPointers for TreeState {
    fn pointed_ports(&self) -> Vec<Port> {
        self.parent_port.into_iter().collect()
    }
}

impl ParentPointer for TreeState {
    fn parent_port(&self) -> Option<Port> {
        self.parent_port
    }

    fn set_parent_port(&mut self, port: Option<Port>) {
        self.parent_port = port;
    }
}

/// A graph together with a state per node.
///
/// # Example
///
/// ```
/// use mstv_graph::{ConfigGraph, Graph, NodeId, Port, TreeState, Weight};
///
/// let mut g = Graph::new(2);
/// g.add_edge(NodeId(0), NodeId(1), Weight(1)).unwrap();
/// let cfg = ConfigGraph::new(
///     g,
///     vec![TreeState::root(0), TreeState::child(1, Port(0))],
/// )
/// .unwrap();
/// assert_eq!(cfg.state(NodeId(1)).parent_port, Some(Port(0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigGraph<S> {
    graph: Graph,
    states: Vec<S>,
}

impl<S> ConfigGraph<S> {
    /// Pairs a graph with one state per node.
    ///
    /// # Errors
    ///
    /// Returns an error if `states.len()` differs from the node count.
    pub fn new(graph: Graph, states: Vec<S>) -> Result<Self, GraphError> {
        if states.len() != graph.num_nodes() {
            return Err(GraphError::NotASpanningTree {
                reason: format!("{} states for {} nodes", states.len(), graph.num_nodes()),
            });
        }
        Ok(ConfigGraph { graph, states })
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The state of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn state(&self, v: NodeId) -> &S {
        &self.states[v.index()]
    }

    /// Mutable access to the state of node `v` (fault injection).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn state_mut(&mut self, v: NodeId) -> &mut S {
        &mut self.states[v.index()]
    }

    /// All states, indexed by node.
    #[inline]
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Mutable access to the underlying graph (weight perturbation).
    #[inline]
    pub fn graph_mut(&mut self) -> &mut Graph {
        &mut self.graph
    }

    /// Replaces the weight of edge `e` (fault injection, sensitivity).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range or `w` is zero.
    pub fn set_weight(&mut self, e: EdgeId, w: Weight) {
        self.graph.set_weight(e, w);
    }

    /// Decomposes into graph and states.
    pub fn into_parts(self) -> (Graph, Vec<S>) {
        (self.graph, self.states)
    }

    /// Applies `f` to every state, producing a new configuration graph over
    /// the same topology.
    pub fn map_states<T>(&self, mut f: impl FnMut(NodeId, &S) -> T) -> ConfigGraph<T> {
        let states = self
            .states
            .iter()
            .enumerate()
            .map(|(i, s)| f(NodeId::from_index(i), s))
            .collect();
        ConfigGraph {
            graph: self.graph.clone(),
            states,
        }
    }
}

impl<S: ParentPointer> ConfigGraph<S> {
    /// Repoints the parent pointer of `v` at `port` (or makes `v` a root).
    ///
    /// # Errors
    ///
    /// Returns an error if `port` names a port `v` does not have; the
    /// configuration is left unchanged.
    pub fn retarget_parent(&mut self, v: NodeId, port: Option<Port>) -> Result<(), GraphError> {
        if v.index() >= self.graph.num_nodes() {
            return Err(GraphError::NodeOutOfRange {
                node: v,
                n: self.graph.num_nodes(),
            });
        }
        if let Some(p) = port {
            if p.index() >= self.graph.degree(v) {
                return Err(GraphError::NotASpanningTree {
                    reason: format!("port {p} out of range for node {v}"),
                });
            }
        }
        self.states[v.index()].set_parent_port(port);
        Ok(())
    }
}

impl<S: PortPointers> ConfigGraph<S> {
    /// The edge set induced by the states (Definition 2.1): an edge is in
    /// the subgraph iff at least one endpoint's state points at it.
    pub fn induced_edges(&self) -> Vec<EdgeId> {
        induced_subgraph(&self.graph, &self.states)
    }

    /// Whether the induced subgraph is a spanning tree of the graph.
    pub fn induces_spanning_tree(&self) -> bool {
        let edges = self.induced_edges();
        self.graph.is_spanning_tree(&edges)
    }
}

/// Builds the distributed representation of a spanning tree: one
/// [`TreeState`] per node, rooted at `root`, with node identities equal to
/// node indices.
///
/// # Errors
///
/// [`GraphError::NotASpanningTree`] if `tree_edges` is not a spanning
/// tree of `graph` (an id out of range or listed twice included), and
/// [`GraphError::NodeOutOfRange`] if `root` is not a node of it.
pub fn tree_states(
    graph: &Graph,
    tree_edges: &[EdgeId],
    root: NodeId,
) -> Result<Vec<TreeState>, GraphError> {
    let in_tree =
        graph
            .spanning_tree_membership(tree_edges)
            .ok_or_else(|| GraphError::NotASpanningTree {
                reason: "edge set fails spanning-tree check".to_owned(),
            })?;
    let n = graph.num_nodes();
    if root.index() >= n {
        return Err(GraphError::NodeOutOfRange { node: root, n });
    }
    let mut states: Vec<TreeState> = (0..n).map(|i| TreeState::root(i as u64)).collect();
    graph.bfs_tree(&in_tree, root, |v, nb| {
        let back = graph
            .port_towards(nb.node, v)
            .expect("tree edge must be visible from both endpoints");
        states[nb.node.index()].parent_port = Some(back);
    });
    Ok(states)
}

/// Computes the subgraph induced by node states, as a sorted, de-duplicated
/// edge list (Definition 2.1).
///
/// # Panics
///
/// Panics if some state points at a port `>= deg(v)`.
pub fn induced_subgraph<S: PortPointers>(graph: &Graph, states: &[S]) -> Vec<EdgeId> {
    let mut induced = vec![false; graph.num_edges()];
    for (i, s) in states.iter().enumerate() {
        let v = NodeId::from_index(i);
        for p in s.pointed_ports() {
            induced[graph.edge_at_port(v, p).index()] = true;
        }
    }
    graph.edge_ids().filter(|e| induced[e.index()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Weight;

    fn path3() -> Graph {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), Weight(1)).unwrap();
        g.add_edge(NodeId(1), NodeId(2), Weight(2)).unwrap();
        g
    }

    #[test]
    fn tree_state_pointers() {
        assert!(TreeState::root(7).pointed_ports().is_empty());
        assert_eq!(TreeState::child(7, Port(2)).pointed_ports(), vec![Port(2)]);
    }

    #[test]
    fn induced_edges_dedup() {
        let g = path3();
        // Node 0 points at port 0 (edge 0); node 1 points at port 0 (edge 0 too).
        let cfg = ConfigGraph::new(
            g,
            vec![
                TreeState::child(0, Port(0)),
                TreeState::child(1, Port(0)),
                TreeState::root(2),
            ],
        )
        .unwrap();
        assert_eq!(cfg.induced_edges(), vec![EdgeId(0)]);
        assert!(!cfg.induces_spanning_tree());
    }

    #[test]
    fn induced_spanning_tree() {
        let g = path3();
        let cfg = ConfigGraph::new(
            g,
            vec![
                TreeState::root(0),
                TreeState::child(1, Port(0)),
                TreeState::child(2, Port(0)),
            ],
        )
        .unwrap();
        assert_eq!(cfg.induced_edges(), vec![EdgeId(0), EdgeId(1)]);
        assert!(cfg.induces_spanning_tree());
    }

    #[test]
    fn state_count_mismatch() {
        let g = path3();
        assert!(ConfigGraph::new(g, vec![TreeState::root(0)]).is_err());
    }

    #[test]
    fn map_states() {
        let g = path3();
        let cfg = ConfigGraph::new(
            g,
            vec![
                TreeState::root(0),
                TreeState::child(1, Port(0)),
                TreeState::child(2, Port(0)),
            ],
        )
        .unwrap();
        let mapped = cfg.map_states(|v, s| (v.index() as u64) + s.id);
        assert_eq!(mapped.states(), &[0, 2, 4]);
    }

    #[test]
    fn tree_states_builds_parent_ports() {
        let g = path3();
        let states = tree_states(&g, &[EdgeId(0), EdgeId(1)], NodeId(1)).unwrap();
        assert_eq!(states[1].parent_port, None);
        // Node 0's only port (0) leads to node 1.
        assert_eq!(states[0].parent_port, Some(Port(0)));
        // Node 2's only port (0) leads to node 1.
        assert_eq!(states[2].parent_port, Some(Port(0)));
        let cfg = ConfigGraph::new(g, states).unwrap();
        assert!(cfg.induces_spanning_tree());
    }

    #[test]
    fn tree_states_rejects_non_tree() {
        let g = path3();
        let not_spanning = Err(GraphError::NotASpanningTree {
            reason: "edge set fails spanning-tree check".to_owned(),
        });
        assert_eq!(tree_states(&g, &[EdgeId(0)], NodeId(0)), not_spanning);
        // A duplicate and an out-of-range id, each with the n - 1 ids a
        // tree has.
        assert_eq!(
            tree_states(&g, &[EdgeId(0), EdgeId(0)], NodeId(0)),
            not_spanning
        );
        assert_eq!(
            tree_states(&g, &[EdgeId(0), EdgeId(7)], NodeId(0)),
            not_spanning
        );
        // n - 1 edges that close a cycle and miss a node.
        let mut h = Graph::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3)] {
            h.add_edge(NodeId(u), NodeId(v), Weight(1)).unwrap();
        }
        let cycle = [EdgeId(0), EdgeId(1), EdgeId(2)];
        assert_eq!(tree_states(&h, &cycle, NodeId(0)), not_spanning);
        // A spanning tree hung from a node the graph does not have.
        assert_eq!(
            tree_states(&g, &[EdgeId(0), EdgeId(1)], NodeId(3)),
            Err(GraphError::NodeOutOfRange {
                node: NodeId(3),
                n: 3
            })
        );
    }

    #[test]
    fn tree_states_of_one_node() {
        let g = Graph::new(1);
        assert_eq!(
            tree_states(&g, &[], NodeId(0)),
            Ok(vec![TreeState::root(0)])
        );
    }

    #[test]
    fn induced_edges_are_sorted_and_deduplicated() {
        let g = path3();
        // Node 2 points at edge 1 and node 1 at edge 0; node 0 points at
        // edge 0 too.
        let states = vec![
            TreeState::child(0, Port(0)),
            TreeState::child(1, Port(0)),
            TreeState::child(2, Port(0)),
        ];
        assert_eq!(induced_subgraph(&g, &states), vec![EdgeId(0), EdgeId(1)]);
    }

    #[test]
    fn set_weight_and_retarget_parent() {
        let g = path3();
        let mut cfg = ConfigGraph::new(
            g,
            vec![
                TreeState::root(0),
                TreeState::child(1, Port(0)),
                TreeState::child(2, Port(0)),
            ],
        )
        .unwrap();
        cfg.set_weight(EdgeId(1), Weight(9));
        assert_eq!(cfg.graph().weight(EdgeId(1)), Weight(9));
        // Middle node has degree 2; move its pointer to port 1.
        cfg.retarget_parent(NodeId(1), Some(Port(1))).unwrap();
        assert_eq!(cfg.state(NodeId(1)).parent_port(), Some(Port(1)));
        cfg.retarget_parent(NodeId(1), None).unwrap();
        assert_eq!(cfg.state(NodeId(1)).parent_port(), None);
        // Degree-1 endpoint has no port 1; error leaves state untouched.
        assert!(cfg.retarget_parent(NodeId(0), Some(Port(1))).is_err());
        assert_eq!(cfg.state(NodeId(0)).parent_port(), None);
        assert!(cfg.retarget_parent(NodeId(9), None).is_err());
    }

    #[test]
    fn state_mutation() {
        let g = path3();
        let mut cfg = ConfigGraph::new(
            g,
            vec![
                TreeState::root(0),
                TreeState::child(1, Port(0)),
                TreeState::child(2, Port(0)),
            ],
        )
        .unwrap();
        cfg.state_mut(NodeId(0)).id = 99;
        assert_eq!(cfg.state(NodeId(0)).id, 99);
        let (_, states) = cfg.into_parts();
        assert_eq!(states[0].id, 99);
    }
}
