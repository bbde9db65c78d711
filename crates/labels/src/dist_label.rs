//! Implicit labels supporting exact weighted `DIST(·,·)` on trees.
//!
//! The paper remarks (end of Section 3) that the `Γ` machinery yields
//! compact schemes for other tree functions such as distance. The
//! construction is identical to the `MAX` labels with the `ω` fields
//! replaced by *additive* fields `δ_k = dist(v, v_k)` (the weighted
//! distance from `v` to its level-`k` separator): the deepest common
//! separator `x` of `u` and `v` lies on the tree path between them, so
//! `dist(u, v) = δ_i(u) + δ_i(v)` exactly.
//!
//! Field values are bounded by the tree's total weight, at most `n·W`,
//! so the scheme costs `O(log n · (log n + log W))` bits with a perfect
//! decomposition — matching the classic exact-distance labeling bounds
//! built from separators. The labels exist only for trees whose total
//! weight fits in a `u64` ([`dist_fits`]).

use mstv_graph::{NodeId, Weight};
use mstv_trees::{ParallelConfig, RootedTree, SeparatorDecomposition};

use crate::codec::{encode_all, one_worker};
use crate::gamma::{common_prefix, gamma_fields, DistAggregate};
use crate::{BitString, LabelCodec, SepFieldCodec};

/// A distance label for one vertex; shape mirrors [`crate::MaxLabel`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DistLabel {
    /// Separator-path fields, exactly as in the `MAX` labels.
    pub sep: Vec<u64>,
    /// `delta[k]` = weighted distance from the vertex to its level-`(k+1)`
    /// separator; the last field is 0.
    pub delta: Vec<u64>,
}

impl DistLabel {
    /// The separator level `l` of the labelled vertex.
    pub fn level(&self) -> usize {
        self.sep.len()
    }
}

/// Whether `tree` has distance labels. Every `δ` field and every decoded
/// distance is at most the tree's total weight, so the labels exist
/// exactly when that total fits in a `u64`.
pub fn dist_fits(tree: &RootedTree) -> bool {
    tree.edges()
        .try_fold(0u64, |total, (_, _, w)| total.checked_add(w.0))
        .is_some()
}

/// Encodes distance labels for every vertex under the given
/// decomposition: the one-worker [`dist_labels_parallel`].
///
/// # Panics
///
/// As [`dist_labels_parallel`].
pub fn dist_labels(tree: &RootedTree, sep: &SeparatorDecomposition) -> Vec<DistLabel> {
    dist_labels_parallel(tree, sep, one_worker())
}

/// Distance labels for every vertex from the same per-separator sweep as
/// [`crate::max_labels_parallel`], carrying sums; the separator fields
/// are fanned across a scoped thread pool. Output is identical for every
/// thread count.
///
/// # Panics
///
/// Panics if `sep` does not belong to `tree`, or if the tree's total
/// weight overflows `u64` ([`dist_fits`] is false): such a tree has no
/// distance labels, and the sweep never wraps a sum.
pub fn dist_labels_parallel(
    tree: &RootedTree,
    sep: &SeparatorDecomposition,
    config: ParallelConfig,
) -> Vec<DistLabel> {
    assert!(
        dist_fits(tree),
        "tree weight overflows u64: no distance labels"
    );
    let (fields, values) = gamma_fields::<DistAggregate>(tree, sep, config);
    fields
        .into_iter()
        .zip(values)
        .map(|(sep, delta)| DistLabel { sep, delta })
        .collect()
}

/// Serializes one distance label exactly as [`ImplicitDistScheme`] (and
/// the snapshot container on top of it) writes them: `gamma(l)`, the
/// `l − 1` non-constant separator fields under `sep_codec`, then `l`
/// fixed-width `δ` fields. `delta_bits` is the scheme-wide width (the
/// bit width of the global maximum `δ`), carried separately because
/// distances are bounded by `n·W`, not `W`.
///
/// # Panics
///
/// Panics if a separator field overflows a fixed-width codec.
pub fn encode_dist_label(
    label: &DistLabel,
    sep_codec: SepFieldCodec,
    delta_bits: u32,
) -> BitString {
    let mut out = BitString::new();
    encode_dist_label_into(label, sep_codec, delta_bits, &mut out);
    out
}

/// [`encode_dist_label`] appending to an existing buffer — the arena
/// path, mirroring [`crate::LabelCodec::encode_max_into`].
///
/// # Panics
///
/// As [`encode_dist_label`].
pub fn encode_dist_label_into(
    label: &DistLabel,
    sep_codec: SepFieldCodec,
    delta_bits: u32,
    out: &mut BitString,
) {
    let codec = LabelCodec {
        sep_codec,
        omega_bits: delta_bits,
    };
    codec.encode_fields_into(&label.sep, label.delta.iter().copied(), delta_bits, out);
}

/// The distance decoder: exact `dist(u, v)` from the two labels.
///
/// # Panics
///
/// Panics if the labels share no prefix field.
pub fn decode_dist(a: &DistLabel, b: &DistLabel) -> u64 {
    let cp = common_prefix(&a.sep, &b.sep);
    assert!(cp >= 1, "labels from different schemes");
    a.delta[cp - 1] + b.delta[cp - 1]
}

/// Non-panicking variant of [`decode_dist`] for untrusted labels: `None`
/// when the labels share no prefix field, a prefix overruns either `δ`
/// sublabel, or the sum overflows.
pub fn try_decode_dist(a: &DistLabel, b: &DistLabel) -> Option<u64> {
    let cp = common_prefix(&a.sep, &b.sep);
    if cp == 0 || cp > a.delta.len() || cp > b.delta.len() {
        return None;
    }
    a.delta[cp - 1].checked_add(b.delta[cp - 1])
}

/// A fully materialized implicit distance scheme with exact bit sizes;
/// mirrors [`crate::ImplicitScheme`].
#[derive(Debug, Clone)]
pub struct ImplicitDistScheme {
    sep_codec: SepFieldCodec,
    delta_bits: u32,
    labels: Vec<DistLabel>,
    encoded: Vec<BitString>,
}

impl ImplicitDistScheme {
    /// The small scheme: centroid decomposition + size-ordered codes.
    pub fn gamma_small(tree: &RootedTree) -> Self {
        let sep = mstv_trees::centroid_decomposition(tree);
        Self::with_decomposition(tree, &sep, SepFieldCodec::EliasGamma)
    }

    /// An arbitrary member of the family: the one-worker
    /// [`ImplicitDistScheme::with_decomposition_parallel`].
    ///
    /// # Panics
    ///
    /// As [`dist_labels_parallel`].
    pub fn with_decomposition(
        tree: &RootedTree,
        sep: &SeparatorDecomposition,
        sep_codec: SepFieldCodec,
    ) -> Self {
        Self::with_decomposition_parallel(tree, sep, sep_codec, one_worker())
    }

    /// [`ImplicitDistScheme::with_decomposition`] with label assembly
    /// and encoding fanned across a scoped thread pool. Byte-identical
    /// to the sequential builder for every thread count.
    ///
    /// # Panics
    ///
    /// As [`dist_labels_parallel`].
    pub fn with_decomposition_parallel(
        tree: &RootedTree,
        sep: &SeparatorDecomposition,
        sep_codec: SepFieldCodec,
        config: ParallelConfig,
    ) -> Self {
        let labels = dist_labels_parallel(tree, sep, config);
        let max_delta = labels
            .iter()
            .flat_map(|l| l.delta.iter().copied())
            .max()
            .unwrap_or(0);
        let delta_bits = Weight(max_delta).bit_width();
        let encoded = encode_all(&labels, config, |l| {
            encode_dist_label(l, sep_codec, delta_bits)
        });
        ImplicitDistScheme {
            sep_codec,
            delta_bits,
            labels,
            encoded,
        }
    }

    /// The label of vertex `v`.
    pub fn label(&self, v: NodeId) -> &DistLabel {
        &self.labels[v.index()]
    }

    /// The bit encoding of `v`'s label.
    pub fn encoded(&self, v: NodeId) -> &BitString {
        &self.encoded[v.index()]
    }

    /// The scheme's size: maximum label bits.
    pub fn max_label_bits(&self) -> usize {
        self.encoded.iter().map(BitString::len).max().unwrap_or(0)
    }

    /// Width of each `δ` field.
    pub fn delta_bits(&self) -> u32 {
        self.delta_bits
    }

    /// The separator-field codec in use.
    pub fn sep_codec(&self) -> SepFieldCodec {
        self.sep_codec
    }

    /// `dist(u, v)` through the decoder.
    pub fn query(&self, u: NodeId, v: NodeId) -> u64 {
        decode_dist(self.label(u), self.label(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstv_graph::gen;
    use mstv_trees::{centroid_decomposition, random_decomposition};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tree_of(n: usize, max_w: u64, seed: u64) -> RootedTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_tree(n, gen::WeightDist::Uniform { max: max_w }, &mut rng);
        RootedTree::from_graph(&g, NodeId(0)).unwrap()
    }

    fn dist_naive(t: &RootedTree, u: NodeId, v: NodeId) -> u64 {
        let (mut a, mut b) = (u, v);
        let mut d = 0;
        while a != b {
            if t.depth(a) >= t.depth(b) {
                d += t.parent_weight(a).0;
                a = t.parent(a).unwrap();
            } else {
                d += t.parent_weight(b).0;
                b = t.parent(b).unwrap();
            }
        }
        d
    }

    #[test]
    fn decoder_exact_exhaustively() {
        for (n, seed) in [(2usize, 1u64), (9, 2), (60, 3), (150, 4)] {
            let t = tree_of(n, 40, seed);
            let scheme = ImplicitDistScheme::gamma_small(&t);
            for u in t.nodes() {
                for v in t.nodes() {
                    assert_eq!(scheme.query(u, v), dist_naive(&t, u, v), "n={n} {u} {v}");
                }
            }
        }
    }

    #[test]
    fn self_distance_is_zero() {
        let t = tree_of(20, 10, 5);
        let scheme = ImplicitDistScheme::gamma_small(&t);
        for v in t.nodes() {
            assert_eq!(scheme.query(v, v), 0);
        }
    }

    #[test]
    fn works_for_any_decomposition() {
        let mut rng = StdRng::seed_from_u64(6);
        let t = tree_of(45, 25, 7);
        let d = random_decomposition(&t, &mut rng);
        let scheme = ImplicitDistScheme::with_decomposition(&t, &d, SepFieldCodec::EliasGamma);
        for u in t.nodes() {
            for v in t.nodes() {
                assert_eq!(scheme.query(u, v), dist_naive(&t, u, v));
            }
        }
    }

    #[test]
    fn size_is_log_n_log_nw() {
        let t = tree_of(1024, 1 << 16, 8);
        let scheme = ImplicitDistScheme::gamma_small(&t);
        // δ fields hold up to n·W, so the bound is log n (log n + log W).
        let log_n = 11.0;
        let log_nw = 28.0;
        assert!(
            (scheme.max_label_bits() as f64) <= 4.0 * log_n * log_nw + 64.0,
            "{} bits",
            scheme.max_label_bits()
        );
        assert!(scheme.delta_bits() <= 27);
        let _ = centroid_decomposition(&t);
        assert_eq!(scheme.sep_codec(), SepFieldCodec::EliasGamma);
    }

    #[test]
    fn encoded_labels_nonempty() {
        let t = tree_of(30, 9, 9);
        let scheme = ImplicitDistScheme::gamma_small(&t);
        for v in t.nodes() {
            assert!(!scheme.encoded(v).is_empty());
        }
    }
}
