//! Incremental MST repair after a single edge-weight change.
//!
//! Closely related to the sensitivity problem: when one weight moves past
//! its sensitivity threshold, the MST changes by exactly **one swap** —
//! the changed non-tree edge replaces the heaviest tree edge on its
//! cycle, or the changed tree edge is replaced by the lightest non-tree
//! edge covering it. This module performs that repair, the cheap
//! alternative to recomputation that a self-stabilizing system can use
//! when it knows *which* weight changed. Against a maintained tree
//! ([`repair_after_weight_change_in`]) a raised tree edge costs the volume
//! of the smaller shore of its cut (the shore is found by growing both
//! sides alternately, and only its incident edges are scanned), and a
//! lowered chord costs its tree path; [`repair_after_weight_change`]
//! adds the `O(n + m)` validation and tree build.

use mstv_graph::{EdgeId, Graph, NodeId, Weight};
use mstv_trees::RootedTree;

/// The outcome of a repair attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repair {
    /// The tree is still a minimum spanning tree.
    Unchanged,
    /// One swap restored minimality.
    Swapped {
        /// The tree edge that left the MST.
        removed: EdgeId,
        /// The edge that entered the MST.
        added: EdgeId,
    },
}

/// Repairs `tree_edges` (in place) after the weight of `changed` was
/// modified in `graph`. The tree must have been an MST under the old
/// weight; afterwards it is an MST under the new one.
///
/// # Panics
///
/// Panics if `tree_edges` is not a spanning tree of `graph`, or
/// `changed` is out of range.
/// # Example
///
/// ```
/// use mstv_graph::{Graph, NodeId, Weight};
/// use mstv_mst::{is_mst, repair_after_weight_change, Repair};
///
/// let mut g = Graph::new(3);
/// let e0 = g.add_edge(NodeId(0), NodeId(1), Weight(1))?;
/// let e1 = g.add_edge(NodeId(1), NodeId(2), Weight(5))?;
/// let e2 = g.add_edge(NodeId(2), NodeId(0), Weight(9))?;
/// let mut mst = vec![e0, e1];
/// g.set_weight(e2, Weight(2)); // the chord got cheap
/// let repair = repair_after_weight_change(&g, &mut mst, e2);
/// assert_eq!(repair, Repair::Swapped { removed: e1, added: e2 });
/// assert!(is_mst(&g, &mst));
/// # Ok::<(), mstv_graph::GraphError>(())
/// ```
pub fn repair_after_weight_change(
    graph: &Graph,
    tree_edges: &mut Vec<EdgeId>,
    changed: EdgeId,
) -> Repair {
    assert!(
        graph.is_spanning_tree(tree_edges),
        "repair requires a spanning tree"
    );
    let root = graph.edge(changed).u;
    let tree = RootedTree::from_graph_edges(graph, tree_edges, root)
        .expect("spanning tree was just validated");
    let mut tree_flags = vec![false; graph.num_edges()];
    for &e in tree_edges.iter() {
        tree_flags[e.index()] = true;
    }
    repair_after_weight_change_in(graph, &tree, &tree_flags, tree_edges, changed)
}

/// As [`repair_after_weight_change`], but against caller-maintained
/// context: `tree` is the current spanning tree rooted anywhere and
/// `in_tree[e]` says whether edge `e` belongs to it. Skips the
/// validation, membership scan, and tree construction — the swap search
/// itself becomes the only cost, which is the right entry point for
/// callers that keep these structures live across a mutation stream
/// (`mstv-dyn`'s `DynMarker`).
///
/// `tree` is read for structure only (parents, depths, children);
/// its cached edge weights may be stale, every weight comes from
/// `graph`. Only `tree_edges` is updated on a swap — the caller owns
/// `in_tree` and `tree` and must refresh them from the result.
///
/// The caller must ensure `tree`, `in_tree`, and `tree_edges` describe
/// the same spanning tree of `graph`; this is debug-asserted, not
/// validated.
pub fn repair_after_weight_change_in(
    graph: &Graph,
    tree: &RootedTree,
    in_tree: &[bool],
    tree_edges: &mut Vec<EdgeId>,
    changed: EdgeId,
) -> Repair {
    debug_assert!(graph.is_spanning_tree(tree_edges));
    debug_assert_eq!(in_tree.len(), graph.num_edges());
    debug_assert!(tree_edges.iter().all(|e| in_tree[e.index()]));
    if in_tree[changed.index()] {
        // The changed edge may now be too heavy: compare with the
        // lightest non-tree edge crossing its cut.
        let ce = graph.edge(changed);
        // A tree edge is a parent-child link under any rooting; the
        // child endpoint's subtree spans one shore of the cut.
        let child = if tree.parent(ce.u) == Some(ce.v) {
            ce.u
        } else {
            debug_assert_eq!(tree.parent(ce.v), Some(ce.u));
            ce.v
        };
        // Every crossing edge has exactly one endpoint on each shore, so
        // the incident edges of the smaller one hold them all.
        let mut shore = Vec::new();
        tree.smaller_shore(child, &mut shore);
        shore.sort_unstable();
        let mut best: Option<(Weight, EdgeId)> = None;
        for &x in &shore {
            for nb in graph.neighbors(x) {
                if in_tree[nb.edge.index()] || shore.binary_search(&nb.node).is_ok() {
                    continue;
                }
                let cand = (nb.weight, nb.edge);
                if best.is_none_or(|b| cand < b) {
                    best = Some(cand);
                }
            }
        }
        match best {
            // Compare full EdgeKeys (weight, id), not bare weights: under
            // duplicate weights the canonical (Kruskal) MST keeps the edge
            // with the smaller id, and the repaired tree must stay exactly
            // that tree, not merely one of equal weight.
            Some((w, f)) if (w, f) < (ce.w, changed) => {
                tree_edges.retain(|&e| e != changed);
                tree_edges.push(f);
                Repair::Swapped {
                    removed: changed,
                    added: f,
                }
            }
            _ => Repair::Unchanged,
        }
    } else {
        // The changed edge may now undercut the tree path between its
        // endpoints: compare with the heaviest tree edge on that path.
        let ce = graph.edge(changed);
        let (heaviest, max_w) = heaviest_path_edge(graph, tree, ce.u, ce.v);
        // EdgeKey comparison, for the same determinism reason as above:
        // a non-tree edge tying the path maximum enters only if its id
        // beats the incumbent's.
        if (ce.w, changed) < (max_w, heaviest) {
            tree_edges.retain(|&e| e != heaviest);
            tree_edges.push(changed);
            Repair::Swapped {
                removed: heaviest,
                added: changed,
            }
        } else {
            Repair::Unchanged
        }
    }
}

/// The heaviest tree edge on the path between `u` and `v`, with its
/// weight.
fn heaviest_path_edge(graph: &Graph, tree: &RootedTree, u: NodeId, v: NodeId) -> (EdgeId, Weight) {
    let (mut a, mut b) = (u, v);
    let mut best: Option<(Weight, EdgeId)> = None;
    while a != b {
        let e = if tree.depth(a) >= tree.depth(b) {
            let p = tree.parent(a).expect("non-root");
            let e = graph.edge_between(a, p).expect("tree edge");
            a = p;
            e
        } else {
            let p = tree.parent(b).expect("non-root");
            let e = graph.edge_between(b, p).expect("tree edge");
            b = p;
            e
        };
        let cand = (graph.weight(e), e);
        if best.is_none_or(|x| cand > x) {
            best = Some(cand);
        }
    }
    let (w, e) = best.expect("u != v implies a nonempty path");
    (e, w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{is_mst, kruskal, mst_weight};
    use mstv_graph::gen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn non_tree_drop_swaps() {
        let mut g = Graph::new(3);
        let e0 = g.add_edge(NodeId(0), NodeId(1), Weight(1)).unwrap();
        let e1 = g.add_edge(NodeId(1), NodeId(2), Weight(5)).unwrap();
        let e2 = g.add_edge(NodeId(2), NodeId(0), Weight(9)).unwrap();
        let mut t = vec![e0, e1];
        g.set_weight(e2, Weight(2));
        let r = repair_after_weight_change(&g, &mut t, e2);
        assert_eq!(
            r,
            Repair::Swapped {
                removed: e1,
                added: e2
            }
        );
        assert!(is_mst(&g, &t));
    }

    #[test]
    fn tree_raise_swaps() {
        let mut g = Graph::new(3);
        let e0 = g.add_edge(NodeId(0), NodeId(1), Weight(1)).unwrap();
        let e1 = g.add_edge(NodeId(1), NodeId(2), Weight(5)).unwrap();
        let e2 = g.add_edge(NodeId(2), NodeId(0), Weight(9)).unwrap();
        let mut t = vec![e0, e1];
        g.set_weight(e1, Weight(20));
        let r = repair_after_weight_change(&g, &mut t, e1);
        assert_eq!(
            r,
            Repair::Swapped {
                removed: e1,
                added: e2
            }
        );
        assert!(is_mst(&g, &t));
    }

    #[test]
    fn harmless_changes_keep_tree() {
        let mut g = Graph::new(3);
        let e0 = g.add_edge(NodeId(0), NodeId(1), Weight(1)).unwrap();
        let e1 = g.add_edge(NodeId(1), NodeId(2), Weight(5)).unwrap();
        let e2 = g.add_edge(NodeId(2), NodeId(0), Weight(9)).unwrap();
        let mut t = vec![e0, e1];
        // Raising a non-tree edge: nothing happens.
        g.set_weight(e2, Weight(50));
        assert_eq!(
            repair_after_weight_change(&g, &mut t, e2),
            Repair::Unchanged
        );
        // Lowering a tree edge: nothing happens.
        g.set_weight(e0, Weight(1));
        assert_eq!(
            repair_after_weight_change(&g, &mut t, e0),
            Repair::Unchanged
        );
        assert!(is_mst(&g, &t));
    }

    #[test]
    fn randomized_repairs_match_recomputation() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..60 {
            let mut g =
                gen::random_connected(25, 40, gen::WeightDist::Uniform { max: 200 }, &mut rng);
            let mut t = kruskal(&g);
            // Random weight change on a random edge.
            let e = EdgeId(rng.gen_range(0..g.num_edges() as u32));
            let new_w = Weight(rng.gen_range(1..=400));
            g.set_weight(e, new_w);
            repair_after_weight_change(&g, &mut t, e);
            assert!(g.is_spanning_tree(&t));
            assert!(is_mst(&g, &t), "repair must restore minimality");
            assert_eq!(mst_weight(&g, &t), mst_weight(&g, &kruskal(&g)));
        }
    }

    #[test]
    fn repeated_changes_stay_minimal() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = gen::random_connected(30, 60, gen::WeightDist::Uniform { max: 99 }, &mut rng);
        let mut t = kruskal(&g);
        for _ in 0..40 {
            let e = EdgeId(rng.gen_range(0..g.num_edges() as u32));
            g.set_weight(e, Weight(rng.gen_range(1..=99)));
            repair_after_weight_change(&g, &mut t, e);
            assert!(is_mst(&g, &t));
        }
    }

    #[test]
    fn prebuilt_context_variant_matches_wrapper() {
        // The `_in` fast path must agree with the validated wrapper for
        // every mutation, with the context tree rooted anywhere — here
        // it is kept rooted at node 0 across a whole stream, the way
        // `DynMarker` uses it.
        let mut rng = StdRng::seed_from_u64(7);
        let mut g = gen::random_connected(40, 90, gen::WeightDist::Uniform { max: 50 }, &mut rng);
        let mut t_fast = kruskal(&g);
        let mut in_tree = vec![false; g.num_edges()];
        for &e in &t_fast {
            in_tree[e.index()] = true;
        }
        for _ in 0..60 {
            let e = EdgeId(rng.gen_range(0..g.num_edges() as u32));
            g.set_weight(e, Weight(rng.gen_range(1..=50)));
            let mut t_slow = t_fast.clone();
            let tree = RootedTree::from_graph_edges(&g, &t_fast, NodeId(0)).unwrap();
            let fast = repair_after_weight_change_in(&g, &tree, &in_tree, &mut t_fast, e);
            let slow = repair_after_weight_change(&g, &mut t_slow, e);
            assert_eq!(fast, slow);
            assert_eq!(canon(t_fast.clone()), canon(t_slow));
            if let Repair::Swapped { removed, added } = fast {
                in_tree[removed.index()] = false;
                in_tree[added.index()] = true;
            }
            assert!(is_mst(&g, &t_fast));
        }
    }

    #[test]
    fn smaller_shore_scan_finds_what_a_full_edge_scan_finds() {
        // Raising a tree edge to u64::MAX makes every crossing chord beat
        // it, so the repair must swap in the lightest crossing chord under
        // the (weight, id) order, as a scan of all m edges finds it; small
        // weight ranges make that order decide between tied weights.
        let mut rng = StdRng::seed_from_u64(11);
        for (n, extra, max_w) in [
            (2, 0, 5),
            (3, 3, 2),
            (40, 60, 3),
            (40, 60, 1000),
            (300, 500, 4),
        ] {
            let mut g =
                gen::random_connected(n, extra, gen::WeightDist::Uniform { max: max_w }, &mut rng);
            let mst = kruskal(&g);
            let in_tree = g.edge_membership(&mst).unwrap();
            let root = NodeId(rng.gen_range(0..n as u32));
            let tree = RootedTree::from_graph_edges(&g, &mst, root).unwrap();
            for &e in &mst {
                let ed = g.edge(e);
                let child = if tree.parent(ed.u) == Some(ed.v) {
                    ed.u
                } else {
                    ed.v
                };
                let mut below = vec![false; n];
                let mut stack = vec![child];
                while let Some(v) = stack.pop() {
                    below[v.index()] = true;
                    stack.extend_from_slice(tree.children(v));
                }
                let want = g
                    .edges()
                    .filter(|(f, fe)| {
                        !in_tree[f.index()] && below[fe.u.index()] != below[fe.v.index()]
                    })
                    .map(|(f, fe)| (fe.w, f))
                    .min();
                let old_w = g.weight(e);
                g.set_weight(e, Weight(u64::MAX));
                let mut edges = mst.clone();
                let got = repair_after_weight_change_in(&g, &tree, &in_tree, &mut edges, e);
                g.set_weight(e, old_w);
                let expected = match want {
                    Some((_, f)) => Repair::Swapped {
                        removed: e,
                        added: f,
                    },
                    None => Repair::Unchanged,
                };
                assert_eq!(got, expected, "n = {n}, max weight {max_w}, edge {e}");
            }
        }
    }

    /// Sorted edge set, for comparing a repaired tree against Kruskal's.
    fn canon(mut edges: Vec<EdgeId>) -> Vec<EdgeId> {
        edges.sort_unstable();
        edges
    }

    #[test]
    fn duplicate_weight_tie_keeps_kruskal_tree() {
        // Square with all-equal weights: Kruskal keeps e0,e1,e2 (smallest
        // ids). Raise tree edge e1 to tie with the chord e3 — under the
        // EdgeKey order (weight, id) the chord e3 must NOT evict e1.
        let mut g = Graph::new(4);
        let e0 = g.add_edge(NodeId(0), NodeId(1), Weight(5)).unwrap();
        let e1 = g.add_edge(NodeId(1), NodeId(2), Weight(3)).unwrap();
        let e2 = g.add_edge(NodeId(2), NodeId(3), Weight(5)).unwrap();
        let e3 = g.add_edge(NodeId(3), NodeId(0), Weight(5)).unwrap();
        let mut t = kruskal(&g);
        assert_eq!(canon(t.clone()), vec![e0, e1, e2]);
        g.set_weight(e1, Weight(5));
        assert_eq!(
            repair_after_weight_change(&g, &mut t, e1),
            Repair::Unchanged
        );
        assert_eq!(canon(t.clone()), canon(kruskal(&g)));
        // The mirror case: drop the chord e3 to tie with tree edge e2.
        // e3's id is larger, so the path maximum (e2, smaller id) stays.
        g.set_weight(e3, Weight(5));
        assert_eq!(
            repair_after_weight_change(&g, &mut t, e3),
            Repair::Unchanged
        );
        assert_eq!(canon(t), canon(kruskal(&g)));
    }

    #[test]
    fn duplicate_weight_tie_swaps_when_id_wins() {
        // Same square, but now the chord has the SMALLEST id: a tie must
        // go to the chord, exactly as Kruskal would pick it.
        let mut g = Graph::new(4);
        let e0 = g.add_edge(NodeId(3), NodeId(0), Weight(9)).unwrap();
        let e1 = g.add_edge(NodeId(0), NodeId(1), Weight(5)).unwrap();
        let e2 = g.add_edge(NodeId(1), NodeId(2), Weight(3)).unwrap();
        let e3 = g.add_edge(NodeId(2), NodeId(3), Weight(5)).unwrap();
        let mut t = kruskal(&g);
        assert_eq!(canon(t.clone()), vec![e1, e2, e3]);
        // Drop the old chord e0 to tie the heaviest path edges (e1, e3).
        g.set_weight(e0, Weight(5));
        assert_eq!(
            repair_after_weight_change(&g, &mut t, e0),
            Repair::Swapped {
                removed: e3,
                added: e0
            }
        );
        assert_eq!(canon(t.clone()), canon(kruskal(&g)));
        // A tree-edge raise that makes it strictly heavier than the
        // equal-weight chord across its cut: the chord must evict it.
        g.set_weight(e1, Weight(9));
        assert_eq!(
            repair_after_weight_change(&g, &mut t, e1),
            Repair::Swapped {
                removed: e1,
                added: e3
            }
        );
        assert_eq!(canon(t), canon(kruskal(&g)));
    }

    #[test]
    fn randomized_duplicate_weights_track_kruskal_exactly() {
        // Tiny weight range ⇒ ties everywhere. After every repair the
        // edge SET (not just the weight) must equal canonical Kruskal's.
        let mut rng = StdRng::seed_from_u64(3);
        for case in 0..40 {
            let mut g =
                gen::random_connected(20, 45, gen::WeightDist::Uniform { max: 4 }, &mut rng);
            let mut t = kruskal(&g);
            for step in 0..20 {
                let e = EdgeId(rng.gen_range(0..g.num_edges() as u32));
                g.set_weight(e, Weight(rng.gen_range(1..=4)));
                repair_after_weight_change(&g, &mut t, e);
                assert_eq!(
                    canon(t.clone()),
                    canon(kruskal(&g)),
                    "case {case} step {step}: repaired tree drifted from Kruskal's"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "spanning tree")]
    fn rejects_non_tree_input() {
        let mut g = Graph::new(3);
        let e0 = g.add_edge(NodeId(0), NodeId(1), Weight(1)).unwrap();
        let _ = g.add_edge(NodeId(1), NodeId(2), Weight(2)).unwrap();
        let mut t = vec![e0];
        let _ = repair_after_weight_change(&g, &mut t, e0);
    }
}
