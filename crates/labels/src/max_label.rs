//! The `Γ`-family labels supporting `MAX(·,·)` on weighted trees
//! (Section 3.1 of the paper).
//!
//! Given a separator decomposition of a tree `T`, the label of a level-`l`
//! separator `v` has two sublabels, each of `l` fields:
//!
//! * `E_sep(v)` — field 1 is a shared constant; field `k ≥ 2` is the number
//!   `ρ` given to the subtree (formed by `v`'s level-`(k-1)` separator)
//!   containing `v`. The *Sep_level property* holds: two vertices share a
//!   level-`i` separator iff their first `i` fields agree.
//! * `E_ω(v)` — field `k` is `MAX(v, v_k)`, the heaviest edge weight on
//!   the tree path from `v` to its level-`k` separator `v_k` (zero for
//!   `k = l`, the empty path).
//!
//! The decoder takes two labels, finds the longest agreeing `E_sep` prefix
//! `i` — so the level-`i` separator `x` common to both vertices lies *on*
//! the path between them — and returns
//! `max(E_ω_i(u), E_ω_i(v)) = max(MAX(u, x), MAX(v, x)) = MAX(u, v)`.

use mstv_graph::Weight;
use mstv_trees::{ParallelConfig, RootedTree, SeparatorDecomposition};

use crate::codec::one_worker;
use crate::gamma::{common_prefix, gamma_fields, MaxAggregate};

/// A `Γ`-family label for one vertex.
///
/// `sep.len() == omega.len() == l`, the vertex's separator level.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MaxLabel {
    /// The separator-path fields. `sep[0]` is the shared constant (0);
    /// `sep[k]` for `k ≥ 1` is the subtree number at level `k`.
    pub sep: Vec<u64>,
    /// `omega[k]` = `MAX(v, v_{k+1})` where `v_{k+1}` is the level-`(k+1)`
    /// separator of `v`; `omega[l-1]` is `Weight::ZERO` (empty path).
    pub omega: Vec<Weight>,
}

impl MaxLabel {
    /// The separator level `l` of the labelled vertex.
    pub fn level(&self) -> usize {
        self.sep.len()
    }
}

/// Encodes `MAX` labels for every vertex of `tree` under the given
/// separator decomposition (any member of the family `Γ`): the
/// one-worker [`max_labels_parallel`].
///
/// # Panics
///
/// Panics if `sep` does not belong to `tree` (mismatched node counts).
pub fn max_labels(tree: &RootedTree, sep: &SeparatorDecomposition) -> Vec<MaxLabel> {
    max_labels_parallel(tree, sep, one_worker())
}

/// `MAX` labels for every vertex in `O(Σ_v level(v))` time — `O(n log n)`
/// for a perfect decomposition — via one cache-friendly DFS sweep per
/// separator over its own component, with no auxiliary path-maximum
/// index. The separator fields are fanned across a scoped thread pool;
/// output is identical for every thread count.
///
/// # Panics
///
/// Panics if `sep` does not belong to `tree` (mismatched node counts).
pub fn max_labels_parallel(
    tree: &RootedTree,
    sep: &SeparatorDecomposition,
    config: ParallelConfig,
) -> Vec<MaxLabel> {
    let (fields, values) = gamma_fields::<MaxAggregate>(tree, sep, config);
    fields
        .into_iter()
        .zip(values)
        .map(|(sep, omega)| MaxLabel { sep, omega })
        .collect()
}

/// The decoder `D_γ`, identical for every scheme in `Γ`: returns
/// `MAX(u, v)` from the two labels alone.
///
/// # Panics
///
/// Panics if the labels share no prefix field (they were not produced for
/// the same tree by the same scheme).
pub fn decode_max(a: &MaxLabel, b: &MaxLabel) -> Weight {
    let cp = common_prefix(&a.sep, &b.sep);
    assert!(cp >= 1, "labels from different schemes");
    a.omega[cp - 1].max(b.omega[cp - 1])
}

/// Non-panicking variant of [`decode_max`] for verifiers confronting
/// adversarial labels: `None` when the labels share no prefix field (which
/// a sound verifier treats as a rejection).
pub fn try_decode_max(a: &MaxLabel, b: &MaxLabel) -> Option<Weight> {
    let cp = common_prefix(&a.sep, &b.sep);
    if cp == 0 || cp > a.omega.len() || cp > b.omega.len() {
        return None;
    }
    Some(a.omega[cp - 1].max(b.omega[cp - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstv_graph::{gen, NodeId};
    use mstv_trees::{centroid_decomposition, first_vertex_decomposition, random_decomposition};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tree_of(n: usize, max_w: u64, seed: u64) -> RootedTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_tree(n, gen::WeightDist::Uniform { max: max_w }, &mut rng);
        RootedTree::from_graph(&g, NodeId(0)).unwrap()
    }

    fn oracle(t: &RootedTree, d: &SeparatorDecomposition) -> crate::ImplicitMaxScheme {
        crate::ImplicitMaxScheme::with_decomposition(t, d, crate::SepFieldCodec::EliasGamma)
    }

    #[test]
    fn label_shape_matches_levels() {
        let t = tree_of(60, 100, 1);
        let d = centroid_decomposition(&t);
        let labels = max_labels(&t, &d);
        for v in t.nodes() {
            let l = &labels[v.index()];
            assert_eq!(l.level() as u32, d.level(v));
            assert_eq!(l.sep.len(), l.omega.len());
            assert_eq!(l.sep[0], 0);
            // Last omega field: empty path.
            assert_eq!(l.omega[l.level() - 1], Weight::ZERO);
        }
    }

    #[test]
    fn decoder_correct_exhaustively_centroid() {
        for (n, seed) in [(2usize, 2u64), (7, 3), (40, 4), (120, 5)] {
            let t = tree_of(n, 500, seed);
            let d = centroid_decomposition(&t);
            let oracle = oracle(&t, &d);
            for u in t.nodes() {
                for v in t.nodes() {
                    if u == v {
                        continue;
                    }
                    assert_eq!(
                        oracle.query(u, v),
                        t.max_on_path_naive(u, v),
                        "n={n} u={u} v={v}"
                    );
                }
            }
        }
    }

    #[test]
    fn decoder_correct_for_any_gamma_member() {
        // The decoder must work for EVERY scheme in Γ, not just γ_small.
        let mut rng = StdRng::seed_from_u64(6);
        for seed in 10..15 {
            let t = tree_of(35, 80, seed);
            for d in [
                first_vertex_decomposition(&t),
                random_decomposition(&t, &mut rng),
            ] {
                d.validate(&t).unwrap();
                let oracle = oracle(&t, &d);
                for u in t.nodes() {
                    for v in t.nodes() {
                        if u != v {
                            assert_eq!(oracle.query(u, v), t.max_on_path_naive(u, v));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sep_level_property() {
        // Prefix agreement length == deepest common separator level.
        let t = tree_of(90, 10, 7);
        let d = centroid_decomposition(&t);
        let labels = max_labels(&t, &d);
        for u in t.nodes() {
            for v in t.nodes() {
                let cp = common_prefix(&labels[u.index()].sep, &labels[v.index()].sep);
                let cu = d.ancestors(u);
                let cv = d.ancestors(v);
                let shared = cu.iter().zip(cv.iter()).take_while(|(a, b)| a == b).count();
                assert_eq!(cp, shared, "u={u} v={v}");
            }
        }
    }

    #[test]
    fn decode_with_ancestor_separator() {
        // When u is itself a separator ancestor of v the prefix is all of
        // u's label and the answer comes from v's omega field.
        let t = tree_of(64, 300, 8);
        let d = centroid_decomposition(&t);
        let oracle = oracle(&t, &d);
        let root = d.root();
        for v in t.nodes() {
            if v != root {
                assert_eq!(oracle.query(root, v), t.max_on_path_naive(root, v));
            }
        }
    }

    #[test]
    fn single_and_two_node_trees() {
        let t1 = RootedTree::from_parents(NodeId(0), vec![None]).unwrap();
        let d1 = centroid_decomposition(&t1);
        let l1 = max_labels(&t1, &d1);
        assert_eq!(l1[0].level(), 1);

        let t2 =
            RootedTree::from_parents(NodeId(0), vec![None, Some((NodeId(0), Weight(42)))]).unwrap();
        let d2 = centroid_decomposition(&t2);
        let oracle = oracle(&t2, &d2);
        assert_eq!(oracle.query(NodeId(0), NodeId(1)), Weight(42));
    }

    #[test]
    #[should_panic(expected = "different schemes")]
    fn mismatched_labels_panic() {
        let a = MaxLabel {
            sep: vec![0],
            omega: vec![Weight::ZERO],
        };
        let b = MaxLabel {
            sep: vec![1],
            omega: vec![Weight::ZERO],
        };
        let _ = decode_max(&a, &b);
    }
}
