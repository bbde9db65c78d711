//! Rooted-tree machinery for MST verification.
//!
//! The upper bound of Korman & Kutten rests on two tree structures:
//!
//! * **Separator decompositions** (Section 3 of the paper): recursively
//!   removing a vertex splits the tree into subtrees, which are decomposed
//!   in turn. A decomposition is *perfect* when every removed separator
//!   leaves subtrees of at most half the size — realized here by centroid
//!   decomposition, giving depth `⌊log₂ n⌋ + 1`.
//! * **Path-maximum indices**: `MAX(u, v)`, the largest edge weight on the
//!   tree path between `u` and `v`, is the quantity the cycle property
//!   checks. This crate provides three oracles for it — naive walking,
//!   binary lifting, and the Kruskal reconstruction tree with O(1) queries —
//!   used as ground truth by the labeling schemes and their tests.
//!
//! ```
//! use mstv_graph::{gen, NodeId};
//! use mstv_trees::{RootedTree, KruskalTree};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let g = gen::random_tree(32, gen::WeightDist::Uniform { max: 100 }, &mut rng);
//! let tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
//! let kt = KruskalTree::new(&tree);
//! assert_eq!(kt.max_on_path(NodeId(3), NodeId(3)), mstv_graph::Weight::ZERO);
//! ```

mod kruskal_tree;
mod lca;
mod parallel;
mod pathmax;
mod rmq;
mod rooted;
mod separator;

pub use kruskal_tree::KruskalTree;
pub use lca::LcaIndex;
pub use parallel::{par_map_chunks, KeyedQueue, ParallelConfig};
pub use pathmax::PathMaxIndex;
pub use rmq::SparseTableRmq;
pub use rooted::RootedTree;
pub use separator::{
    brute_force_centroid_decomposition, centroid_decomposition, centroid_decomposition_parallel,
    first_vertex_decomposition, random_decomposition, SeparatorDecomposition, SEQ_CUTOFF,
};
