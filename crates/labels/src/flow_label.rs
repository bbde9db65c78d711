//! Implicit labels supporting `FLOW(·,·)` (path minimum) on weighted trees.
//!
//! The paper remarks (Section 3.1.2) that `γ_small` transforms directly
//! into a `FLOW` labeling scheme of the same `O(log n log W)` size,
//! improving the `O(log² n + log n log W)` bound of Katz–Katz–Korman–Peleg.
//! The construction is the `MAX` scheme with minima in the `ω` fields and a
//! `min` in the decoder; the empty path carries the neutral element `+∞`.

use mstv_graph::Weight;
use mstv_trees::{ParallelConfig, RootedTree, SeparatorDecomposition};

use crate::codec::one_worker;
use crate::gamma::{common_prefix, gamma_fields, FlowAggregate};

/// The neutral element of the path minimum: `FLOW(v, v)`.
pub const FLOW_INFINITY: Weight = Weight(u64::MAX);

/// A `FLOW` label for one vertex; shape mirrors [`crate::MaxLabel`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FlowLabel {
    /// Separator-path fields, exactly as in the `MAX` labels.
    pub sep: Vec<u64>,
    /// `phi[k]` = `FLOW(v, v_{k+1})`; the last field is [`FLOW_INFINITY`].
    pub phi: Vec<Weight>,
}

impl FlowLabel {
    /// The separator level `l` of the labelled vertex.
    pub fn level(&self) -> usize {
        self.sep.len()
    }
}

/// Encodes `FLOW` labels for every vertex under the given decomposition:
/// the one-worker [`flow_labels_parallel`].
///
/// # Panics
///
/// Panics if `sep` does not belong to `tree`.
pub fn flow_labels(tree: &RootedTree, sep: &SeparatorDecomposition) -> Vec<FlowLabel> {
    flow_labels_parallel(tree, sep, one_worker())
}

/// `FLOW` labels for every vertex from the same per-separator sweep as
/// [`crate::max_labels_parallel`], carrying minima; the separator fields
/// are fanned across a scoped thread pool. Output is identical for every
/// thread count.
///
/// # Panics
///
/// Panics if `sep` does not belong to `tree`.
pub fn flow_labels_parallel(
    tree: &RootedTree,
    sep: &SeparatorDecomposition,
    config: ParallelConfig,
) -> Vec<FlowLabel> {
    let (fields, values) = gamma_fields::<FlowAggregate>(tree, sep, config);
    fields
        .into_iter()
        .zip(values)
        .map(|(sep, phi)| FlowLabel { sep, phi })
        .collect()
}

/// The `FLOW` decoder: returns the smallest edge weight on the tree path
/// between the two labelled vertices ([`FLOW_INFINITY`] when they
/// coincide).
///
/// # Panics
///
/// Panics if the labels share no prefix field.
pub fn decode_flow(a: &FlowLabel, b: &FlowLabel) -> Weight {
    let cp = common_prefix(&a.sep, &b.sep);
    assert!(cp >= 1, "labels from different schemes");
    a.phi[cp - 1].min(b.phi[cp - 1])
}

/// Non-panicking variant of [`decode_flow`] for callers confronting
/// untrusted labels (adversarial verifiers, foreign snapshots): `None`
/// when the labels share no prefix field or a prefix points past either
/// `φ` sublabel.
pub fn try_decode_flow(a: &FlowLabel, b: &FlowLabel) -> Option<Weight> {
    let cp = common_prefix(&a.sep, &b.sep);
    if cp == 0 || cp > a.phi.len() || cp > b.phi.len() {
        return None;
    }
    Some(a.phi[cp - 1].min(b.phi[cp - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstv_graph::{gen, NodeId};
    use mstv_trees::{centroid_decomposition, random_decomposition};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tree_of(n: usize, max_w: u64, seed: u64) -> RootedTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_tree(n, gen::WeightDist::Uniform { max: max_w }, &mut rng);
        RootedTree::from_graph(&g, NodeId(0)).unwrap()
    }

    fn oracle(t: &RootedTree, d: &SeparatorDecomposition) -> crate::ImplicitFlowScheme {
        crate::ImplicitFlowScheme::with_decomposition(t, d, crate::SepFieldCodec::EliasGamma)
    }

    #[test]
    fn decoder_correct_exhaustively() {
        for (n, seed) in [(2usize, 40u64), (9, 41), (70, 42)] {
            let t = tree_of(n, 200, seed);
            let d = centroid_decomposition(&t);
            let oracle = oracle(&t, &d);
            for u in t.nodes() {
                for v in t.nodes() {
                    if u != v {
                        assert_eq!(
                            oracle.query(u, v),
                            t.min_on_path_naive(u, v),
                            "n={n} u={u} v={v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn works_for_any_decomposition() {
        let mut rng = StdRng::seed_from_u64(43);
        let t = tree_of(40, 60, 44);
        let d = random_decomposition(&t, &mut rng);
        let oracle = oracle(&t, &d);
        for u in t.nodes() {
            for v in t.nodes() {
                if u != v {
                    assert_eq!(oracle.query(u, v), t.min_on_path_naive(u, v));
                }
            }
        }
    }

    #[test]
    fn self_query_is_infinity() {
        let t = tree_of(10, 9, 45);
        let d = centroid_decomposition(&t);
        let oracle = oracle(&t, &d);
        assert_eq!(oracle.query(NodeId(3), NodeId(3)), FLOW_INFINITY);
    }

    #[test]
    fn try_decode_matches_decode_and_rejects_foreign() {
        let t = tree_of(30, 40, 47);
        let d = centroid_decomposition(&t);
        let oracle = oracle(&t, &d);
        for u in t.nodes() {
            for v in t.nodes() {
                assert_eq!(
                    try_decode_flow(oracle.label(u), oracle.label(v)),
                    Some(oracle.query(u, v))
                );
            }
        }
        // Labels with no shared prefix field come from different schemes.
        let foreign = FlowLabel {
            sep: vec![99],
            phi: vec![FLOW_INFINITY],
        };
        assert_eq!(try_decode_flow(oracle.label(NodeId(0)), &foreign), None);
        // A plausible prefix that overruns a truncated phi sublabel.
        let truncated = FlowLabel {
            sep: vec![0, 1],
            phi: vec![],
        };
        assert_eq!(try_decode_flow(&truncated, oracle.label(NodeId(0))), None);
    }

    #[test]
    fn last_field_is_neutral() {
        let t = tree_of(25, 30, 46);
        let d = centroid_decomposition(&t);
        for l in oracle(&t, &d).labels() {
            assert_eq!(l.phi[l.level() - 1], FLOW_INFINITY);
        }
    }
}
