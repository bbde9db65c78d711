//! `GammaPass::relabel` must leave the pass equal, field for field, to a
//! fresh `GammaPass::build` of the new tree and decomposition, when it is
//! handed exactly the vertices whose labels changed and when it is handed
//! more. Trees are random, with one random re-hang each (the tree change
//! an MST swap makes), under centroid, first-vertex and random
//! decompositions. The lists are the true dirty set, a random superset,
//! and supersets padded to either side of the cut-over between walking
//! each listed vertex and sweeping the separators above them, so every
//! large case runs both.
//!
//! `scripts/ci.sh` runs this suite by name in the marker-equivalence
//! stage.

use std::num::NonZeroUsize;

use mstv_graph::{gen, NodeId, Weight};
use mstv_labels::GammaPass;
use mstv_trees::{
    centroid_decomposition, first_vertex_decomposition, random_decomposition, ParallelConfig,
    RootedTree, SeparatorDecomposition,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The longest list a relabel of at most 16,384 vertices still walks.
const WALKS_UP_TO: usize = 1024;

fn decompose(kind: u8, tree: &RootedTree, rng: &mut StdRng) -> SeparatorDecomposition {
    match kind {
        0 => centroid_decomposition(tree),
        1 => first_vertex_decomposition(tree),
        _ => random_decomposition(tree, rng),
    }
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

/// The vertices whose `MAX`, `FLOW` or `DIST` label differs between the
/// two passes, ascending.
fn changed(old: &GammaPass, new: &GammaPass) -> Vec<NodeId> {
    let (old_max, old_flow, old_dist) = old.clone().into_labels();
    let (new_max, new_flow, new_dist) = new.clone().into_labels();
    let (old_dist, new_dist) = (old_dist.unwrap(), new_dist.unwrap());
    (0..old_max.len())
        .filter(|&i| {
            old_max[i] != new_max[i] || old_flow[i] != new_flow[i] || old_dist[i] != new_dist[i]
        })
        .map(NodeId::from_index)
        .collect()
}

/// The vertices off `dirty`, in random order.
fn clean(dirty: &[NodeId], n: usize, rng: &mut StdRng) -> Vec<NodeId> {
    let mut listed = vec![false; n];
    for v in dirty {
        listed[v.index()] = true;
    }
    let mut clean: Vec<NodeId> = (0..n)
        .filter(|&i| !listed[i])
        .map(NodeId::from_index)
        .collect();
    clean.shuffle(rng);
    clean
}

/// `dirty` and `extra`, ascending.
fn union(dirty: &[NodeId], extra: impl IntoIterator<Item = NodeId>) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = dirty.iter().copied().chain(extra).collect();
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn relabel_equals_a_fresh_build(
        n in prop_oneof![2usize..200, (WALKS_UP_TO + 1)..1600],
        kind in 0u8..3,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_tree(n, gen::WeightDist::Uniform { max: 1000 }, &mut rng);
        let old_tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
        let cut = NodeId(rng.gen_range(1..n as u32));
        let inside = subtree(&old_tree, cut);
        let (ins, outs): (Vec<NodeId>, Vec<NodeId>) =
            old_tree.nodes().partition(|v| inside[v.index()]);
        let inner = *ins.choose(&mut rng).unwrap();
        let outer = *outs.choose(&mut rng).unwrap();
        let mut new_tree = old_tree.clone();
        new_tree.rehang(cut, inner, outer, Weight(rng.gen_range(1..=1000)));
        let old_sep = decompose(kind, &old_tree, &mut rng);
        let new_sep = decompose(kind, &new_tree, &mut rng);

        let one = ParallelConfig::with_threads(NonZeroUsize::MIN);
        let old = GammaPass::build(&old_tree, &old_sep, one);
        let fresh = GammaPass::build(&new_tree, &new_sep, one);
        let dirty = changed(&old, &fresh);
        let clean = clean(&dirty, n, &mut rng);
        let mut lists = vec![
            ("the dirty set", dirty.clone()),
            ("a random superset", union(&dirty, clean.iter().copied().step_by(2))),
            ("every vertex", union(&dirty, clean.iter().copied())),
        ];
        // Padded to the longest walking list and one past it: both sides
        // of the cut-over on every large tree.
        for len in [WALKS_UP_TO, WALKS_UP_TO + 1] {
            if dirty.len() <= len && len <= n {
                let list = union(&dirty, clean[..len - dirty.len()].iter().copied());
                prop_assert_eq!(GammaPass::sweeps(list.len(), n), len > WALKS_UP_TO);
                lists.push(("a padded superset", list));
            }
        }
        for (what, list) in lists {
            let mut pass = old.clone();
            pass.relabel(&new_tree, &new_sep, &list);
            prop_assert!(
                pass == fresh,
                "n = {}, kind {}: relabelling {} ({} of {} vertices, {}) differs from a fresh build",
                n,
                kind,
                what,
                list.len(),
                n,
                if GammaPass::sweeps(list.len(), n) { "swept" } else { "walked" }
            );
        }
    }
}
