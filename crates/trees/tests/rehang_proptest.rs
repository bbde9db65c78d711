//! `RootedTree::rehang` must leave exactly the tree that
//! `RootedTree::from_tree_membership` builds from the swapped edge set,
//! in every field (parents, parent weights, children, depths, preorder),
//! after every swap of a chain. Swaps are drawn at random, and some are
//! steered to the edge cases: a cut child next to the root, an inner
//! endpoint that is the cut child itself, and a re-hung node that becomes
//! its new parent's smallest or largest child.
//!
//! `scripts/ci.sh` runs this suite by name in the marker-equivalence
//! stage.

use mstv_graph::{Graph, NodeId, Weight};
use mstv_trees::RootedTree;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const MAX_NODES: usize = 2500;

/// A weighted tree on `0..n` as an edge list: node `i > 0` attaches to
/// a parent among `0..i` (`shape` = 0 builds a star, 1 a path, others
/// mix), then ids are shuffled so parents are not always the smaller id.
fn random_edges(n: usize, shape: u8, rng: &mut StdRng) -> Vec<(u32, u32, u64)> {
    let mut ids: Vec<u32> = (0..n as u32).collect();
    ids.shuffle(rng);
    (1..n)
        .map(|i| {
            let p = match shape {
                0 => 0,
                1 => i - 1,
                _ => rng.gen_range(0..i),
            };
            (ids[i], ids[p], rng.gen_range(1..=1000))
        })
        .collect()
}

/// The tree of `edges`, built from scratch and rooted at node 0.
fn rebuilt(n: usize, edges: &[(u32, u32, u64)]) -> RootedTree {
    let mut g = Graph::new(n);
    for &(u, v, w) in edges {
        g.add_edge(NodeId(u), NodeId(v), Weight(w)).unwrap();
    }
    RootedTree::from_tree_membership(&g, &vec![true; edges.len()], NodeId(0))
        .expect("edge list forms a tree")
}

fn subtree(tree: &RootedTree, top: NodeId) -> Vec<bool> {
    let mut below = vec![false; tree.num_nodes()];
    let mut stack = vec![top];
    while let Some(v) = stack.pop() {
        below[v.index()] = true;
        stack.extend_from_slice(tree.children(v));
    }
    below
}

/// Draws one swap `(cut, inner, outer)` of `tree`; `mode` steers it to
/// an edge case (see the module docs) or leaves it random.
fn draw_swap(tree: &RootedTree, mode: u8, rng: &mut StdRng) -> (NodeId, NodeId, NodeId) {
    let n = tree.num_nodes() as u32;
    let root_kids = tree.children(tree.root());
    let cut = if mode == 1 {
        *root_kids.choose(rng).expect("n >= 2")
    } else {
        NodeId(rng.gen_range(1..n))
    };
    let below = subtree(tree, cut);
    let inside: Vec<NodeId> = tree.nodes().filter(|v| below[v.index()]).collect();
    let outside: Vec<NodeId> = tree.nodes().filter(|v| !below[v.index()]).collect();
    let inner = if mode == 2 {
        cut
    } else {
        *inside.choose(rng).unwrap()
    };
    // Outer nodes with children, all of them larger (mode 3) or all
    // smaller (mode 4) than `inner`: it becomes the new parent's first
    // or last child.
    let steered: Vec<NodeId> = outside
        .iter()
        .copied()
        .filter(|&o| {
            let kids = tree.children(o);
            !kids.is_empty()
                && match mode {
                    3 => kids.iter().all(|&c| c > inner),
                    4 => kids.iter().all(|&c| c < inner),
                    _ => false,
                }
        })
        .collect();
    let outer = *steered
        .choose(rng)
        .unwrap_or_else(|| outside.choose(rng).unwrap());
    (cut, inner, outer)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rehang_equals_a_rebuild(
        n in 2usize..=MAX_NODES,
        shape in 0u8..4,
        swaps in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = random_edges(n, shape, &mut rng);
        let mut tree = rebuilt(n, &edges);
        for step in 0..swaps {
            let mode = rng.gen_range(0u8..5);
            let (cut, inner, outer) = draw_swap(&tree, mode, &mut rng);
            let w = rng.gen_range(1..=1000);
            let top = tree.parent(cut).unwrap();
            let gone = edges
                .iter()
                .position(|&(u, v, _)| (u, v) == (cut.0, top.0) || (u, v) == (top.0, cut.0))
                .expect("the cut edge is a tree edge");
            edges[gone] = (inner.0, outer.0, w);
            tree.rehang(cut, inner, outer, Weight(w));
            prop_assert_eq!(
                &tree,
                &rebuilt(n, &edges),
                "step {}, mode {}: cut {} inner {} outer {}",
                step, mode, cut, inner, outer
            );
        }
    }
}

#[test]
fn smaller_shore_is_the_smaller_side_of_the_cut() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut shore = Vec::new();
    for (n, shape) in [(2, 2), (9, 0), (9, 1), (300, 2), (2000, 2)] {
        let tree = rebuilt(n, &random_edges(n, shape, &mut rng));
        for child in tree.nodes().filter(|&v| v != tree.root()) {
            let below = subtree(&tree, child);
            let size = below.iter().filter(|b| **b).count();
            let is_below = tree.smaller_shore(child, &mut shore);
            let mut got = shore.clone();
            got.sort_unstable();
            let want: Vec<NodeId> = tree
                .nodes()
                .filter(|v| below[v.index()] == is_below)
                .collect();
            assert_eq!(got, want, "n = {n}, cut above {child}");
            // Growth alternates link by link, so the shore found first is
            // never the larger one.
            let (this, other) = if is_below {
                (size, n - size)
            } else {
                (n - size, size)
            };
            assert!(
                this <= other,
                "n = {n}, cut above {child}: {this} vs {other}"
            );
        }
    }
}
