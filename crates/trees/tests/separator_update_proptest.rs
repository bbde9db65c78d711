//! `centroid_decomposition_update` must return exactly the from-scratch
//! centroid decomposition of the new tree: after up to four edge swaps,
//! re-rooted at node 0 or at an arbitrary node (with no swap, a pure
//! re-rooting), and, for an unchanged tree, the old decomposition itself.
//!
//! `scripts/ci.sh` runs this suite by name in the marker-equivalence
//! stage.

use mstv_graph::{Graph, NodeId, Weight};
use mstv_trees::{centroid_decomposition, centroid_decomposition_update, RootedTree};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const MAX_NODES: usize = 2500;

/// A tree on `0..n` as an edge list: node `i > 0` attaches to a parent
/// among `0..i` (`shape` = 0 builds a star, 1 a path, others mix), then
/// ids are shuffled so parents are not always the smaller id.
fn random_edges(n: usize, shape: u8, rng: &mut StdRng) -> Vec<(u32, u32)> {
    let mut ids: Vec<u32> = (0..n as u32).collect();
    ids.shuffle(rng);
    (1..n)
        .map(|i| {
            let p = match shape {
                0 => 0,
                1 => i - 1,
                _ => rng.gen_range(0..i),
            };
            (ids[i], ids[p])
        })
        .collect()
}

fn rooted(n: usize, edges: &[(u32, u32)], root: u32) -> RootedTree {
    let mut g = Graph::new(n);
    for &(u, v) in edges {
        g.add_edge(NodeId(u), NodeId(v), Weight(1)).unwrap();
    }
    RootedTree::from_graph(&g, NodeId(root)).expect("edge list forms a tree")
}

/// Replaces one random tree edge by a random edge across its cut.
fn swap_one_edge(n: usize, edges: &mut [(u32, u32)], rng: &mut StdRng) {
    if edges.is_empty() {
        return;
    }
    let tree = rooted(n, edges, 0);
    let cut = rng.gen_range(0..edges.len());
    let (a, b) = edges[cut];
    let child = if tree.parent(NodeId(a)) == Some(NodeId(b)) {
        a
    } else {
        b
    };
    let mut below = vec![false; n];
    let mut stack = vec![NodeId(child)];
    while let Some(v) = stack.pop() {
        below[v.index()] = true;
        stack.extend_from_slice(tree.children(v));
    }
    let inside: Vec<u32> = (0..n as u32).filter(|&v| below[v as usize]).collect();
    let outside: Vec<u32> = (0..n as u32).filter(|&v| !below[v as usize]).collect();
    edges[cut] = (*inside.choose(rng).unwrap(), *outside.choose(rng).unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn update_equals_a_fresh_decomposition(
        n in 1usize..=MAX_NODES,
        shape in 0u8..4,
        swaps in 0usize..=4,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = random_edges(n, shape, &mut rng);
        let old_tree = rooted(n, &edges, 0);
        let old = centroid_decomposition(&old_tree);

        let same = centroid_decomposition_update(&old_tree, &old, &old_tree);
        prop_assert_eq!(&same, &old, "an unchanged tree must keep its decomposition");

        for _ in 0..swaps {
            swap_one_edge(n, &mut edges, &mut rng);
        }
        let new_tree = rooted(n, &edges, 0);
        let fresh = centroid_decomposition(&new_tree);
        let updated = centroid_decomposition_update(&old_tree, &old, &new_tree);
        prop_assert_eq!(&updated, &fresh, "{} swaps, n = {}", swaps, n);

        let root = rng.gen_range(0..n as u32);
        let rerooted = rooted(n, &edges, root);
        let fresh = centroid_decomposition(&rerooted);
        let updated = centroid_decomposition_update(&old_tree, &old, &rerooted);
        prop_assert_eq!(&updated, &fresh, "re-rooted at {}, n = {}", root, n);
    }
}
