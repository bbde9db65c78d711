//! The paper's relaxed sensitivity scheme: auxiliary per-node labels with
//! constant-time queries — and its distributed reading.
//!
//! Instead of writing `Ω(m log W)` bits of explicit sensitivities, each
//! *node* stores `O(log n log W)` bits: its `γ_small` label (answering
//! `MAX(u, v)` in O(1)) and the cover slack of its parent edge. Then:
//!
//! * `sensitivity(non-tree (u, v))` = `ω − decode_max(L(u), L(v)) + 1` —
//!   two labels, O(1);
//! * `sensitivity(tree e)` = the cover field stored at `e`'s child
//!   endpoint — one label, O(1).
//!
//! In the distributed setting a node holding its own label and a
//! neighbor's label computes the sensitivity of the connecting edge with
//! no further communication.

use mstv_graph::{EdgeId, Graph, NodeId, Weight};
use mstv_labels::{decode_max, ImplicitMaxScheme, MaxLabel};
use mstv_trees::RootedTree;

use crate::{sensitivity, EdgeSensitivity};

/// Auxiliary sensitivity labels for a graph with a distinguished MST.
/// # Example
///
/// ```
/// use mstv_graph::{Graph, NodeId, Weight};
/// use mstv_sensitivity::{EdgeSensitivity, SensitivityLabels};
///
/// let mut g = Graph::new(3);
/// let e0 = g.add_edge(NodeId(0), NodeId(1), Weight(1))?;
/// let e1 = g.add_edge(NodeId(1), NodeId(2), Weight(2))?;
/// let e2 = g.add_edge(NodeId(2), NodeId(0), Weight(9))?;
/// let labels = SensitivityLabels::new(&g, &[e0, e1]);
/// // The chord must drop by 8 to beat the tree path (max weight 2).
/// assert_eq!(labels.query(&g, e2), EdgeSensitivity::NonTree { decrease: 8 });
/// # Ok::<(), mstv_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SensitivityLabels {
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    gamma: ImplicitMaxScheme,
    /// Cover weight of each node's parent edge (`None` at the root and at
    /// bridges).
    cover: Vec<Option<Weight>>,
    in_tree: Vec<bool>,
}

impl SensitivityLabels {
    /// Builds the labels: `γ_small` over the tree plus one cover field per
    /// node.
    ///
    /// # Panics
    ///
    /// Panics if `tree_edges` is not an MST of `graph`.
    pub fn new(graph: &Graph, tree_edges: &[EdgeId]) -> Self {
        let root = tree_edges
            .first()
            .map(|&e| graph.edge(e).u)
            .unwrap_or(NodeId(0));
        let tree =
            RootedTree::from_graph_edges(graph, tree_edges, root).expect("tree edges must span");
        let gamma = ImplicitMaxScheme::gamma_small(&tree);
        let exact = sensitivity(graph, tree_edges);
        let mut in_tree = vec![false; graph.num_edges()];
        for &e in tree_edges {
            in_tree[e.index()] = true;
        }
        let mut cover = vec![None; graph.num_nodes()];
        for (e, edge) in graph.edges() {
            if let EdgeSensitivity::Tree { increase: Some(c) } = exact[e.index()] {
                let child = if tree.parent(edge.u) == Some(edge.v) {
                    edge.u
                } else {
                    edge.v
                };
                cover[child.index()] = Some(Weight(edge.w.0 + c - 1));
            }
        }
        let parent = (0..graph.num_nodes())
            .map(|i| tree.parent(NodeId::from_index(i)))
            .collect();
        SensitivityLabels {
            root,
            parent,
            gamma,
            cover,
            in_tree,
        }
    }

    /// The `γ_small` label of node `v` (the `MAX` part of its sensitivity
    /// label).
    pub fn gamma_label(&self, v: NodeId) -> &MaxLabel {
        self.gamma.label(v)
    }

    /// The scheme's per-node label size in bits: `γ_small` encoding plus
    /// the cover field.
    pub fn max_label_bits(&self) -> usize {
        let cover_bits = self
            .cover
            .iter()
            .flatten()
            .map(|w| w.bit_width() as usize)
            .max()
            .unwrap_or(0)
            + 1;
        self.gamma.max_label_bits() + cover_bits
    }

    /// O(1) sensitivity query for the edge `(u, v)` of weight `w`,
    /// computed from the two endpoints' labels exactly as a node in the
    /// distributed setting would.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn query(&self, graph: &Graph, e: EdgeId) -> EdgeSensitivity {
        let edge = graph.edge(e);
        if self.in_tree[e.index()] {
            let child = if self.parent[edge.u.index()] == Some(edge.v) {
                edge.u
            } else {
                edge.v
            };
            EdgeSensitivity::Tree {
                increase: self.cover[child.index()].map(|c| c.0 - edge.w.0 + 1),
            }
        } else {
            let m = decode_max(self.gamma_label(edge.u), self.gamma_label(edge.v));
            EdgeSensitivity::NonTree {
                decrease: edge.w.0 - m.0 + 1,
            }
        }
    }

    /// The root used for the internal rooting (for diagnostics).
    pub fn root(&self) -> NodeId {
        self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstv_graph::gen;
    use mstv_mst::kruskal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn queries_match_exact_solver() {
        let mut rng = StdRng::seed_from_u64(1);
        for (n, extra) in [(2usize, 0usize), (8, 10), (50, 120)] {
            let g = gen::random_connected(n, extra, gen::WeightDist::Uniform { max: 99 }, &mut rng);
            let t = kruskal(&g);
            let labels = SensitivityLabels::new(&g, &t);
            let exact = sensitivity(&g, &t);
            for e in g.edge_ids() {
                assert_eq!(labels.query(&g, e), exact[e.index()], "n={n} e={e}");
            }
        }
    }

    #[test]
    fn label_size_is_log_n_log_w() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gen::random_connected(
            512,
            1024,
            gen::WeightDist::Uniform { max: 1 << 16 },
            &mut rng,
        );
        let t = kruskal(&g);
        let labels = SensitivityLabels::new(&g, &t);
        let log_n = 10usize;
        let log_w = 17usize;
        assert!(labels.max_label_bits() <= 6 * log_n * log_w + 8 * log_n + 64);
    }

    #[test]
    fn bridges_query_as_insensitive() {
        let mut rng = StdRng::seed_from_u64(3);
        // A pure tree: every edge is a bridge.
        let g = gen::random_tree(12, gen::WeightDist::Uniform { max: 9 }, &mut rng);
        let t: Vec<EdgeId> = g.edge_ids().collect();
        let labels = SensitivityLabels::new(&g, &t);
        for e in g.edge_ids() {
            assert_eq!(
                labels.query(&g, e),
                EdgeSensitivity::Tree { increase: None }
            );
        }
    }
}
