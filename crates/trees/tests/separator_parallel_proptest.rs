//! Marker-equivalence property tests: `centroid_decomposition_parallel`
//! must be **byte-identical** to the sequential decomposition — same
//! separators, levels, subtree ranks, and component sizes — for arbitrary
//! trees at every thread count, and both must validate against the tree.
//! Up to 600 nodes both must also equal the exhaustive-search reference
//! `brute_force_centroid_decomposition`, which shares no code with them.
//!
//! `scripts/ci.sh` runs this suite pinned at 2 workers as the
//! marker-equivalence gate.

use std::num::NonZeroUsize;

use mstv_graph::NodeId;
use mstv_trees::{
    brute_force_centroid_decomposition, centroid_decomposition, centroid_decomposition_parallel,
    ParallelConfig, RootedTree,
};
use proptest::prelude::*;

/// An arbitrary rooted tree: node `i > 0` attaches to a parent among
/// `0..i`, so every parent vector drawn this way is a valid tree (sizes
/// straddle `SEQ_CUTOFF` so the worker pool genuinely runs). Shapes
/// range from stars (always parent 0) to paths (always parent `i - 1`).
const MAX_NODES: usize = 2500;

/// Trees up to this size are also compared with the exhaustive search,
/// which costs `O(n²)` per level.
const REFERENCE_NODES: usize = 600;

fn arb_tree() -> impl Strategy<Value = RootedTree> {
    (
        1usize..=MAX_NODES,
        proptest::collection::vec(any::<u64>(), MAX_NODES),
        proptest::collection::vec(0u64..100, MAX_NODES),
    )
        .prop_map(|(n, parent_picks, weights)| {
            let parents = (0..n)
                .map(|i| {
                    (i > 0).then(|| {
                        (
                            NodeId((parent_picks[i] % i as u64) as u32),
                            mstv_graph::Weight(weights[i]),
                        )
                    })
                })
                .collect();
            RootedTree::from_parents(NodeId(0), parents).expect("parent vector forms a tree")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parallel_decomposition_matches_sequential(tree in arb_tree()) {
        let seq = centroid_decomposition(&tree);
        seq.validate(&tree).unwrap();
        prop_assert!(seq.is_perfect());
        if tree.num_nodes() <= REFERENCE_NODES {
            prop_assert_eq!(&seq, &brute_force_centroid_decomposition(&tree));
        }
        for threads in [1usize, 2, 8] {
            let cfg = ParallelConfig::with_threads(NonZeroUsize::new(threads).unwrap());
            let par = centroid_decomposition_parallel(&tree, cfg);
            prop_assert_eq!(&par, &seq, "thread count {} diverged", threads);
            par.validate(&tree).unwrap();
        }
    }
}
