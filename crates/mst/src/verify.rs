//! Sequential MST verification via the cycle property.

use mstv_graph::{EdgeId, Graph, NodeId, Weight};
use mstv_trees::{KruskalTree, PathMaxIndex, RootedTree};

/// Outcome of a sequential MST check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MstVerdict {
    /// The edge set is a minimum spanning tree.
    Mst,
    /// The edge set is not even a spanning tree.
    NotSpanningTree,
    /// The tree spans but violates the cycle property: the given non-tree
    /// edge is lighter than the heaviest tree edge on its path.
    CycleViolation {
        /// The offending non-tree edge.
        non_tree_edge: EdgeId,
        /// Its weight.
        weight: Weight,
        /// `MAX(u, v)` on the candidate tree between its endpoints.
        max_on_path: Weight,
    },
}

/// The candidate's membership slice and its tree, hung from an endpoint
/// of its first edge (node 0 for the single-node graph); `None` when the
/// edge set is not a spanning tree — degenerate inputs such as an empty
/// graph included, which pass the membership check but cannot be hung.
fn spanning_tree(graph: &Graph, tree_edges: &[EdgeId]) -> Option<(Vec<bool>, RootedTree)> {
    let in_tree = graph.spanning_tree_membership(tree_edges)?;
    let root = tree_edges
        .first()
        .map(|&e| graph.edge(e).u)
        .unwrap_or(NodeId(0));
    let tree = RootedTree::from_tree_membership(graph, &in_tree, root).ok()?;
    Some((in_tree, tree))
}

fn check_with(
    graph: &Graph,
    tree_edges: &[EdgeId],
    max_oracle: impl Fn(&RootedTree, NodeId, NodeId) -> Weight,
) -> MstVerdict {
    let Some((in_tree, tree)) = spanning_tree(graph, tree_edges) else {
        return MstVerdict::NotSpanningTree;
    };
    for (e, edge) in graph.edges() {
        if in_tree[e.index()] {
            continue;
        }
        let m = max_oracle(&tree, edge.u, edge.v);
        if edge.w < m {
            return MstVerdict::CycleViolation {
                non_tree_edge: e,
                weight: edge.w,
                max_on_path: m,
            };
        }
    }
    MstVerdict::Mst
}

/// Verifies a candidate MST using O(1)-per-query path maxima from the
/// Kruskal reconstruction tree (the fastest sequential verifier here;
/// `O((n + m) log n)` total, the `log` only in preprocessing sorts).
pub fn check_mst(graph: &Graph, tree_edges: &[EdgeId]) -> MstVerdict {
    let Some((in_tree, tree)) = spanning_tree(graph, tree_edges) else {
        return MstVerdict::NotSpanningTree;
    };
    let kt = KruskalTree::new(&tree);
    for (e, edge) in graph.edges() {
        if in_tree[e.index()] {
            continue;
        }
        let m = kt.max_on_path(edge.u, edge.v);
        if edge.w < m {
            return MstVerdict::CycleViolation {
                non_tree_edge: e,
                weight: edge.w,
                max_on_path: m,
            };
        }
    }
    MstVerdict::Mst
}

/// Verifies a candidate MST offline via a single edge sort and union-find
/// (Kruskal-style, `O(m log m)` in the sort and near-linear after): the
/// path maximum between `u` and `v` is at most `w` iff the tree edges of
/// weight `≤ w` already connect `u` and `v`. Sequential array scans
/// instead of per-edge random path-maximum queries make this the
/// cache-friendliest accept path, so the `π_mst` marker uses it as the
/// gate before label assembly. The verdict is identical to [`check_mst`]:
/// on the (rare) reject path the exact oracle is re-run to name the first
/// offending edge and its true path maximum, and the empty graph, which
/// has no node to hang a tree from, is not a spanning tree.
pub fn check_mst_offline(graph: &Graph, tree_edges: &[EdgeId]) -> MstVerdict {
    let in_tree = match graph.spanning_tree_membership(tree_edges) {
        Some(in_tree) if graph.num_nodes() > 0 => in_tree,
        _ => return MstVerdict::NotSpanningTree,
    };
    // Ascending by weight with tree edges first among ties, so when a
    // non-tree edge `e` is tested every tree edge of weight ≤ w(e) — and
    // no heavier one — has been unioned.
    let mut order: Vec<EdgeId> = graph.edge_ids().collect();
    order.sort_unstable_by_key(|&e| (graph.weight(e), !in_tree[e.index()]));
    let mut uf = crate::UnionFind::new(graph.num_nodes());
    for &e in &order {
        let edge = graph.edge(e);
        if in_tree[e.index()] {
            uf.union(edge.u.index(), edge.v.index());
        } else if uf.find(edge.u.index()) != uf.find(edge.v.index()) {
            // Some tree-path edge outweighs this non-tree edge; fall back
            // to the exact oracle for the canonical witness.
            return check_mst(graph, tree_edges);
        }
    }
    MstVerdict::Mst
}

/// Verifies a candidate MST by walking tree paths per non-tree edge
/// (O(n·m) worst case) — the baseline the faster verifiers are benchmarked
/// against.
pub fn check_mst_naive(graph: &Graph, tree_edges: &[EdgeId]) -> MstVerdict {
    check_with(graph, tree_edges, |t, u, v| t.max_on_path_naive(u, v))
}

/// Verifies a candidate MST with binary-lifting path maxima
/// (O((n + m) log n)).
pub fn check_mst_lifting(graph: &Graph, tree_edges: &[EdgeId]) -> MstVerdict {
    let Some((in_tree, tree)) = spanning_tree(graph, tree_edges) else {
        return MstVerdict::NotSpanningTree;
    };
    let idx = PathMaxIndex::new(&tree);
    for (e, edge) in graph.edges() {
        if in_tree[e.index()] {
            continue;
        }
        let m = idx.max_on_path(edge.u, edge.v);
        if edge.w < m {
            return MstVerdict::CycleViolation {
                non_tree_edge: e,
                weight: edge.w,
                max_on_path: m,
            };
        }
    }
    MstVerdict::Mst
}

/// Convenience wrapper: `true` iff the edge set is an MST of `graph`.
pub fn is_mst(graph: &Graph, tree_edges: &[EdgeId]) -> bool {
    check_mst(graph, tree_edges) == MstVerdict::Mst
}

/// Computes a *maximum* spanning tree (Kruskal on descending weights).
///
/// # Panics
///
/// Panics if the graph is not connected.
pub fn maximum_spanning_tree(graph: &Graph) -> Vec<EdgeId> {
    let mut order: Vec<EdgeId> = graph.edge_ids().collect();
    order.sort_by_key(|&e| (std::cmp::Reverse(graph.weight(e)), e));
    let mut uf = crate::UnionFind::new(graph.num_nodes());
    let mut out = Vec::with_capacity(graph.num_nodes().saturating_sub(1));
    for e in order {
        let edge = graph.edge(e);
        if uf.union(edge.u.index(), edge.v.index()) {
            out.push(e);
        }
    }
    assert!(
        uf.num_components() <= 1,
        "maximum_spanning_tree requires a connected graph"
    );
    out
}

/// `true` iff the edge set is a *maximum* spanning tree: by the dual
/// cycle property, a spanning tree is maximum iff every edge `(u, v)` of
/// the graph weighs at most `FLOW(u, v)`, the lightest tree edge on the
/// path between its endpoints.
pub fn is_max_spanning_tree(graph: &Graph, tree_edges: &[EdgeId]) -> bool {
    let Some((in_tree, tree)) = spanning_tree(graph, tree_edges) else {
        return false;
    };
    let idx = PathMaxIndex::new(&tree);
    graph
        .edges()
        .all(|(e, edge)| in_tree[e.index()] || edge.w <= idx.min_on_path(edge.u, edge.v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kruskal, mst_weight};
    use mstv_graph::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn accepts_true_mst() {
        let mut rng = StdRng::seed_from_u64(21);
        for n in [2usize, 8, 50] {
            let g = gen::random_connected(n, 2 * n, gen::WeightDist::Uniform { max: 30 }, &mut rng);
            let t = kruskal(&g);
            assert_eq!(check_mst(&g, &t), MstVerdict::Mst);
            assert_eq!(check_mst_naive(&g, &t), MstVerdict::Mst);
            assert_eq!(check_mst_lifting(&g, &t), MstVerdict::Mst);
            assert_eq!(check_mst_offline(&g, &t), MstVerdict::Mst);
            assert!(is_mst(&g, &t));
        }
    }

    #[test]
    fn rejects_non_spanning_tree() {
        let mut rng = StdRng::seed_from_u64(22);
        let g = gen::random_connected(10, 10, gen::WeightDist::Uniform { max: 9 }, &mut rng);
        let mut t = kruskal(&g);
        t.pop();
        assert_eq!(check_mst(&g, &t), MstVerdict::NotSpanningTree);
        assert_eq!(check_mst_naive(&g, &t), MstVerdict::NotSpanningTree);
        assert_eq!(check_mst_lifting(&g, &t), MstVerdict::NotSpanningTree);
        assert_eq!(check_mst_offline(&g, &t), MstVerdict::NotSpanningTree);
    }

    #[test]
    fn membership_edge_cases_are_verdicts_not_panics() {
        // A triangle 0-1-2 with node 3 hanging off node 2.
        let mut g = Graph::new(4);
        let e0 = g.add_edge(NodeId(0), NodeId(1), Weight(1)).unwrap();
        let e1 = g.add_edge(NodeId(1), NodeId(2), Weight(2)).unwrap();
        let e2 = g.add_edge(NodeId(2), NodeId(0), Weight(3)).unwrap();
        let e3 = g.add_edge(NodeId(2), NodeId(3), Weight(4)).unwrap();
        type Check = fn(&Graph, &[EdgeId]) -> MstVerdict;
        let checks: [Check; 4] = [
            check_mst,
            check_mst_naive,
            check_mst_lifting,
            check_mst_offline,
        ];
        for edges in [[e0, e1, e0], [e0, e1, EdgeId(4)], [e0, e1, e2]] {
            for check in checks {
                assert_eq!(check(&g, &edges), MstVerdict::NotSpanningTree, "{edges:?}");
            }
            assert!(!is_max_spanning_tree(&g, &edges));
        }
        for check in checks {
            assert_eq!(check(&g, &[e0, e1, e3]), MstVerdict::Mst);
            assert_eq!(check(&Graph::new(1), &[]), MstVerdict::Mst);
        }
        // No node: the empty set passes the membership check but hangs
        // no tree, so all four checks say it does not span.
        for check in checks {
            assert_eq!(check(&Graph::new(0), &[]), MstVerdict::NotSpanningTree);
        }
    }

    #[test]
    fn rejects_suboptimal_spanning_tree() {
        // Triangle where the heavy edge is forced into the tree.
        let mut g = Graph::new(3);
        let e0 = g.add_edge(NodeId(0), NodeId(1), Weight(1)).unwrap();
        let e1 = g.add_edge(NodeId(1), NodeId(2), Weight(2)).unwrap();
        let e2 = g.add_edge(NodeId(2), NodeId(0), Weight(9)).unwrap();
        let bad = vec![e0, e2];
        match check_mst(&g, &bad) {
            MstVerdict::CycleViolation {
                non_tree_edge,
                weight,
                max_on_path,
            } => {
                assert_eq!(non_tree_edge, e1);
                assert_eq!(weight, Weight(2));
                assert_eq!(max_on_path, Weight(9));
            }
            other => panic!("expected cycle violation, got {other:?}"),
        }
        assert!(matches!(
            check_mst_naive(&g, &bad),
            MstVerdict::CycleViolation { .. }
        ));
        assert!(matches!(
            check_mst_lifting(&g, &bad),
            MstVerdict::CycleViolation { .. }
        ));
        // The offline check falls back to the exact oracle on rejection,
        // so its witness is the canonical one.
        assert_eq!(check_mst_offline(&g, &bad), check_mst(&g, &bad));
    }

    #[test]
    fn accepts_alternative_mst_under_ties() {
        // With constant weights *every* spanning tree is an MST.
        let mut rng = StdRng::seed_from_u64(23);
        let g = gen::random_connected(12, 20, gen::WeightDist::Constant(4), &mut rng);
        // Build some spanning tree that is not Kruskal's: take a BFS tree
        // via RootedTree on kruskal edges rerooted — simpler: any spanning
        // tree found greedily in reverse edge order.
        let mut uf = crate::UnionFind::new(g.num_nodes());
        let mut t = Vec::new();
        for e in g.edge_ids().collect::<Vec<_>>().into_iter().rev() {
            let edge = g.edge(e);
            if uf.union(edge.u.index(), edge.v.index()) {
                t.push(e);
            }
        }
        assert_eq!(check_mst(&g, &t), MstVerdict::Mst);
        assert_eq!(check_mst_offline(&g, &t), MstVerdict::Mst);
    }

    #[test]
    fn randomized_tamper_detection() {
        let mut rng = StdRng::seed_from_u64(24);
        let mut detected = 0;
        let trials = 30;
        for _ in 0..trials {
            let g = gen::random_connected(20, 40, gen::WeightDist::Uniform { max: 1000 }, &mut rng);
            let t = kruskal(&g);
            // Swap a tree edge for a strictly heavier non-tree edge on its
            // cycle: pick random non-tree edge f, replace the max tree edge
            // on its path when strictly lighter.
            let mut in_tree = vec![false; g.num_edges()];
            for &e in &t {
                in_tree[e.index()] = true;
            }
            let non_tree: Vec<EdgeId> = g.edge_ids().filter(|e| !in_tree[e.index()]).collect();
            if non_tree.is_empty() {
                continue;
            }
            let f = non_tree[0];
            let fe = g.edge(f);
            let tree = RootedTree::from_graph_edges(&g, &t, NodeId(0)).unwrap();
            let m = tree.max_on_path_naive(fe.u, fe.v);
            if fe.w <= m {
                continue; // Swapping would produce another MST; skip.
            }
            // Remove the max edge on the path, insert f.
            let heavy = t
                .iter()
                .copied()
                .find(|&e| {
                    let ed = g.edge(e);
                    g.weight(e) == m && on_path(&tree, fe.u, fe.v, ed.u, ed.v)
                })
                .unwrap();
            let bad: Vec<EdgeId> = t
                .iter()
                .copied()
                .filter(|&e| e != heavy)
                .chain([f])
                .collect();
            assert!(g.is_spanning_tree(&bad));
            assert!(matches!(
                check_mst(&g, &bad),
                MstVerdict::CycleViolation { .. }
            ));
            assert_eq!(check_mst_offline(&g, &bad), check_mst(&g, &bad));
            detected += 1;
        }
        assert!(detected > 5, "tamper test exercised too few cases");
    }

    /// Whether tree edge (a, b) lies on the tree path between u and v.
    fn on_path(tree: &RootedTree, u: NodeId, v: NodeId, a: NodeId, b: NodeId) -> bool {
        let (mut x, mut y) = (u, v);
        while x != y {
            let step = if tree.depth(x) >= tree.depth(y) {
                let p = tree.parent(x).unwrap();
                let edge = (x, p);
                x = p;
                edge
            } else {
                let p = tree.parent(y).unwrap();
                let edge = (y, p);
                y = p;
                edge
            };
            if (step.0 == a && step.1 == b) || (step.0 == b && step.1 == a) {
                return true;
            }
        }
        false
    }

    #[test]
    fn maximum_spanning_tree_dual() {
        let mut rng = StdRng::seed_from_u64(77);
        for n in [2usize, 8, 30] {
            let g = gen::random_connected(n, 2 * n, gen::WeightDist::Uniform { max: 50 }, &mut rng);
            let maxst = maximum_spanning_tree(&g);
            assert!(g.is_spanning_tree(&maxst));
            assert!(is_max_spanning_tree(&g, &maxst), "n={n}");
            // An MST of a multi-weight graph is usually not a max-ST.
            let mst = kruskal(&g);
            let max_w = mst_weight(&g, &maxst);
            let min_w = mst_weight(&g, &mst);
            assert!(max_w >= min_w);
            if max_w > min_w {
                assert!(!is_max_spanning_tree(&g, &mst));
            }
            // Duality: max-ST of g == MST under flipped weights.
            let mut flipped = Graph::new(g.num_nodes());
            let big = g.max_weight().0 + 1;
            for (_, edge) in g.edges() {
                flipped
                    .add_edge(edge.u, edge.v, Weight(big - edge.w.0))
                    .unwrap();
            }
            assert_eq!(
                mst_weight(&flipped, &kruskal(&flipped)),
                (g.num_nodes() as u128 - 1) * u128::from(big) - max_w
            );
        }
    }

    #[test]
    fn verifiers_agree_with_recomputation() {
        // Cross-validate: verdict == (weight equals Kruskal's optimum).
        let mut rng = StdRng::seed_from_u64(25);
        for _ in 0..20 {
            let g = gen::random_connected(15, 25, gen::WeightDist::Uniform { max: 6 }, &mut rng);
            // Random spanning tree via shuffled union-find.
            use rand::seq::SliceRandom;
            let mut ids: Vec<EdgeId> = g.edge_ids().collect();
            ids.shuffle(&mut rng);
            let mut uf = crate::UnionFind::new(g.num_nodes());
            let mut t = Vec::new();
            for e in ids {
                let edge = g.edge(e);
                if uf.union(edge.u.index(), edge.v.index()) {
                    t.push(e);
                }
            }
            let optimal = mst_weight(&g, &kruskal(&g));
            let is_opt = mst_weight(&g, &t) == optimal;
            assert_eq!(is_mst(&g, &t), is_opt);
            // Tie-heavy instances: the offline tie ordering (tree edges
            // first at equal weight) must agree with the exact oracle.
            assert_eq!(check_mst_offline(&g, &t) == MstVerdict::Mst, is_opt);
        }
    }
}
