//! Implicit labeling schemes for `MAX`, `FLOW` and `DIST` on weighted
//! trees, with bit-exact label encodings.
//!
//! An *implicit labeling scheme* `(E, D)` (Kannan–Naor–Rudich; Peleg)
//! assigns a label to every vertex such that a decoder, given the labels of
//! *any* two vertices, computes a function of the pair — here `MAX(u, v)`
//! (the heaviest edge on the tree path, the quantity behind the MST cycle
//! property), `FLOW(u, v)` (the lightest edge) and `DIST(u, v)` (the
//! summed weight).
//!
//! This crate implements the family `Γ` of Section 3.1 of Korman & Kutten
//! (any separator decomposition, any subtree numbering) and its small
//! member `γ_small` of size `O(log n log W)` (Lemma 3.2), along with a
//! fixed-width variant matching the `O(log² n + log n log W)` size of the
//! previously known schemes — the baseline for the size experiments.
//! The three families share one construction and differ only in the
//! path aggregate their value fields carry ([`PathAggregate`]); each has
//! one batch builder (`*_labels_parallel`, with `*_labels` its one-worker
//! pin), and [`GammaPass`] fills all three from one sweep for callers
//! that want every family of a tree. An incremental relabeler keeps a
//! `GammaPass` as its label store and rewrites the changed vertices in
//! place ([`GammaPass::relabel`]); [`walk_labels`] assembles all three
//! labels of a single vertex, the per-node reference the sweep is
//! checked against.
//!
//! ```
//! use mstv_graph::{gen, NodeId};
//! use mstv_trees::RootedTree;
//! use mstv_labels::ImplicitMaxScheme;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let g = gen::random_tree(100, gen::WeightDist::Uniform { max: 1 << 16 }, &mut rng);
//! let tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
//! let scheme = ImplicitMaxScheme::gamma_small(&tree);
//! assert_eq!(
//!     scheme.query(NodeId(3), NodeId(42)),
//!     tree.max_on_path_naive(NodeId(3), NodeId(42)),
//! );
//! println!("max label: {} bits", scheme.max_label_bits());
//! ```

mod bits;
mod codec;
mod dist_label;
mod flow_label;
mod gamma;
mod max_label;
mod packed;
pub mod reference;

pub use bits::{elias_gamma_len, BitReader, BitSlice, BitString, MAX_FRAME_BITS, MAX_FRAME_BYTES};
pub use codec::{
    ImplicitFlowScheme, ImplicitMaxScheme, ImplicitScheme, LabelCodec, SchemeLabel, SepFieldCodec,
};
pub use dist_label::{
    decode_dist, dist_fits, dist_labels, dist_labels_parallel, encode_dist_label,
    encode_dist_label_into, try_decode_dist, DistLabel, ImplicitDistScheme,
};
pub use flow_label::{
    decode_flow, flow_labels, flow_labels_parallel, try_decode_flow, FlowLabel, FLOW_INFINITY,
};
pub use gamma::{
    walk_labels, DistAggregate, FlowAggregate, GammaEncoding, GammaPass, MaxAggregate,
    PathAggregate,
};
pub use max_label::{decode_max, max_labels, max_labels_parallel, try_decode_max, MaxLabel};
pub use packed::PackedLabels;
