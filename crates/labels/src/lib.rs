//! Implicit labeling schemes for `MAX` and `FLOW` on weighted trees, with
//! bit-exact label encodings.
//!
//! An *implicit labeling scheme* `(E, D)` (Kannan–Naor–Rudich; Peleg)
//! assigns a label to every vertex such that a decoder, given the labels of
//! *any* two vertices, computes a function of the pair — here `MAX(u, v)`
//! (the heaviest edge on the tree path, the quantity behind the MST cycle
//! property) and `FLOW(u, v)` (the lightest edge).
//!
//! This crate implements the family `Γ` of Section 3.1 of Korman & Kutten
//! (any separator decomposition, any subtree numbering) and its small
//! member `γ_small` of size `O(log n log W)` (Lemma 3.2), along with a
//! fixed-width variant matching the `O(log² n + log n log W)` size of the
//! previously known schemes — the baseline for the size experiments.
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
mod max_label;
mod packed;
pub mod reference;

pub use bits::{elias_gamma_len, BitReader, BitSlice, BitString, MAX_FRAME_BITS, MAX_FRAME_BYTES};
pub use codec::{ImplicitFlowScheme, ImplicitMaxScheme, LabelCodec, SepFieldCodec};
pub use dist_label::{
    decode_dist, dist_label_of, dist_label_of_walk, dist_labels, dist_labels_parallel,
    encode_dist_label, encode_dist_label_into, try_decode_dist, DistLabel, DistOracle,
    ImplicitDistScheme,
};
pub use flow_label::{
    decode_flow, flow_label_of, flow_label_of_walk, flow_labels, flow_labels_parallel,
    try_decode_flow, FlowLabel, FlowLabelOracle, FLOW_INFINITY,
};
pub use max_label::{
    decode_max, max_label_of, max_label_of_walk, max_labels, max_labels_parallel, try_decode_max,
    MaxLabel, MaxLabelOracle,
};
pub use packed::PackedLabels;
