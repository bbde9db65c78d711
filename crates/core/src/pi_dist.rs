//! `π_dist`: the proof labeling scheme for *distance* labels — the
//! paper's closing remark of Section 3 made concrete ("similar techniques
//! can be used to provide compact proof labeling schemes for various
//! implicit labeling schemes on trees, such as routing, distance etc.").
//!
//! Structure is `π_Γ` verbatim with the `ω` recurrences made *additive*:
//! where `π_Γ`'s conditions 7/8 recompute
//! `ω_k(v) = max(ω_k(next), w)` along the path to the level-`k`
//! separator, `π_dist` checks `δ_k(v) = δ_k(next) + w` — the same
//! checker, run with the `DIST` path aggregate. Everything else —
//! orientation fields, separator-path prefixes, subtree-rank
//! distinctness, the "verify membership in the family, not the specific
//! small scheme" trick — carries over unchanged, which is precisely the
//! paper's point. The one addition is the own-level pin `δ_l = 0` (see
//! [`PiDistScheme`]'s verifier).

use mstv_graph::{ConfigGraph, NodeId, Weight};
use mstv_labels::{
    dist_fits, encode_dist_label_into, BitString, DistAggregate, DistLabel, SepFieldCodec,
};

use crate::pi_gamma::{
    check_tree_neighbors, implied_decomposition, orient_fields, GammaParts, Orient,
};
use crate::span::{check_span, SpanCodec, SpanLabel};
use crate::{Labeling, LocalView, MarkerError, ProofLabelingScheme};

/// Node state for the distance verification problem: identity, tree
/// orientation, and the claimed distance label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PiDistState {
    /// Unique node identity.
    pub id: u64,
    /// Parent port in the tree (`None` at the root).
    pub parent_port: Option<mstv_graph::Port>,
    /// The claimed distance label stored in the state.
    pub dist: DistLabel,
}

impl mstv_graph::ParentPointer for PiDistState {
    fn parent_port(&self) -> Option<mstv_graph::Port> {
        self.parent_port
    }

    fn set_parent_port(&mut self, port: Option<mstv_graph::Port>) {
        self.parent_port = port;
    }
}

/// The `π_dist` label: spanning sublabel, orientation fields, state copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PiDistLabel {
    /// Spanning/orientation proof.
    pub span: SpanLabel,
    /// Orientation fields.
    pub orient: Vec<Orient>,
    /// Copy of the state's distance label.
    pub copy: DistLabel,
}

/// The proof labeling scheme verifying that node states are the distance
/// labels of *some* separator-decomposition scheme.
#[derive(Debug, Clone, Copy, Default)]
pub struct PiDistScheme;

impl PiDistScheme {
    /// Creates the scheme.
    pub fn new() -> Self {
        PiDistScheme
    }
}

impl ProofLabelingScheme for PiDistScheme {
    type State = PiDistState;
    type Label = PiDistLabel;

    fn marker(&self, cfg: &ConfigGraph<PiDistState>) -> Result<Labeling<PiDistLabel>, MarkerError> {
        let g = cfg.graph();
        let n = g.num_nodes();
        let tree_cfg = cfg.map_states(|_, s| mstv_graph::TreeState {
            id: s.id,
            parent_port: s.parent_port,
        });
        let (tree, span) = crate::span::span_labels(&tree_cfg)?;
        if g.num_edges() != n - 1 {
            return Err(MarkerError::bad_states(
                "π_dist operates on configuration trees",
            ));
        }
        if !dist_fits(&tree) {
            return Err(MarkerError::bad_states(
                "tree weight overflows u64: no distance labels exist",
            ));
        }
        let sep = implied_decomposition(&tree, |v| &cfg.state(v).dist.sep)?;
        let expected = mstv_labels::dist_labels(&tree, &sep);
        for (i, exp) in expected.iter().enumerate() {
            let v = NodeId::from_index(i);
            let got = &cfg.state(v).dist;
            if got.delta != exp.delta || got.sep[1..] != exp.sep[1..] {
                return Err(MarkerError::BadStates(format!(
                    "state of {v} is not a distance label of the family"
                )));
            }
        }
        let orients = orient_fields(&tree, &sep);
        let labels: Vec<PiDistLabel> = (0..n)
            .map(|i| PiDistLabel {
                span: span[i],
                orient: orients[i].clone(),
                copy: cfg.state(NodeId::from_index(i)).dist.clone(),
            })
            .collect();
        let span_codec = SpanCodec::for_config(&tree_cfg);
        let max_delta = labels
            .iter()
            .flat_map(|l| l.copy.delta.iter().copied())
            .max()
            .unwrap_or(0);
        let delta_bits = Weight(max_delta).bit_width();
        let encoded = labels
            .iter()
            .map(|l| {
                let mut out = BitString::new();
                span_codec.encode_into(&mut out, &l.span);
                encode_dist_label_into(&l.copy, SepFieldCodec::EliasGamma, delta_bits, &mut out);
                for &o in &l.orient {
                    out.push_bits(o.to_bits(), 2);
                }
                out
            })
            .collect();
        Ok(Labeling::new(labels, encoded))
    }

    fn verify(&self, view: &LocalView<'_, PiDistState, PiDistLabel>) -> bool {
        let state = mstv_graph::TreeState {
            id: view.state.id,
            parent_port: view.state.parent_port,
        };
        let spans: Vec<&SpanLabel> = view.neighbors.iter().map(|nb| &nb.label.span).collect();
        if !check_span(&state, &view.label.span, &spans) {
            return false;
        }
        if view.label.copy != view.state.dist {
            return false;
        }
        // The own-level field must be the empty-path distance. Unlike
        // MAX, where deflating the self field is harmless under the
        // decoder's max, the additive decoder would be misled by a
        // nonzero self field, so it is pinned (the marker writes 0).
        if view.label.copy.delta.last() != Some(&0) {
            return false;
        }
        check_tree_neighbors::<DistAggregate, _, _>(
            view,
            view.state.parent_port,
            view.state.id,
            |l| &l.span,
            |l| GammaParts::new(&l.orient, &l.copy.sep, &l.copy.delta),
        )
        .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstv_graph::{gen, tree_states, NodeId};
    use mstv_labels::{decode_dist, dist_labels};
    use mstv_trees::{centroid_decomposition, random_decomposition, RootedTree};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dist_config(
        n: usize,
        seed: u64,
        random_sep: bool,
    ) -> (ConfigGraph<PiDistState>, RootedTree) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_tree(n, gen::WeightDist::Uniform { max: 30 }, &mut rng);
        let all: Vec<_> = g.edge_ids().collect();
        let states = tree_states(&g, &all, NodeId(0)).unwrap();
        let tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
        let sep = if random_sep {
            random_decomposition(&tree, &mut rng)
        } else {
            centroid_decomposition(&tree)
        };
        let dists = dist_labels(&tree, &sep);
        let full: Vec<PiDistState> = states
            .iter()
            .zip(dists)
            .map(|(ts, dist)| PiDistState {
                id: ts.id,
                parent_port: ts.parent_port,
                dist,
            })
            .collect();
        (ConfigGraph::new(g, full).unwrap(), tree)
    }

    #[test]
    fn completeness() {
        for (n, seed, rnd) in [(2usize, 1u64, false), (30, 2, false), (90, 3, true)] {
            let (cfg, _) = dist_config(n, seed, rnd);
            let scheme = PiDistScheme::new();
            let labeling = scheme.marker(&cfg).unwrap();
            assert!(scheme.verify_all(&cfg, &labeling).accepted(), "n={n}");
        }
    }

    #[test]
    fn verified_states_decode_true_distances() {
        // The end-to-end guarantee: accepted states answer dist() right.
        let (cfg, tree) = dist_config(50, 4, false);
        let scheme = PiDistScheme::new();
        let labeling = scheme.marker(&cfg).unwrap();
        assert!(scheme.verify_all(&cfg, &labeling).accepted());
        let naive = |mut a: NodeId, mut b: NodeId| {
            let mut d = 0u64;
            while a != b {
                if tree.depth(a) >= tree.depth(b) {
                    d += tree.parent_weight(a).0;
                    a = tree.parent(a).unwrap();
                } else {
                    d += tree.parent_weight(b).0;
                    b = tree.parent(b).unwrap();
                }
            }
            d
        };
        for u in tree.nodes() {
            for v in tree.nodes() {
                assert_eq!(
                    decode_dist(&cfg.state(u).dist, &cfg.state(v).dist),
                    naive(u, v)
                );
            }
        }
    }

    #[test]
    fn delta_tampering_rejected() {
        let (cfg, _) = dist_config(40, 5, false);
        let scheme = PiDistScheme::new();
        let honest = scheme.marker(&cfg).unwrap();
        let mut detections = 0;
        for victim in 0..40 {
            let v = NodeId(victim);
            let lv = honest.label(v).copy.level();
            for k in 0..lv {
                for delta in [1i64, -1] {
                    let old = honest.label(v).copy.delta[k] as i64;
                    if old + delta < 0 {
                        continue;
                    }
                    let mut labeling = Labeling::from_labels(honest.labels().to_vec());
                    let mut cfg2 = cfg.clone();
                    labeling.label_mut(v).copy.delta[k] = (old + delta) as u64;
                    cfg2.state_mut(v).dist.delta[k] = (old + delta) as u64;
                    assert!(
                        !scheme.verify_all(&cfg2, &labeling).accepted(),
                        "victim={victim} k={k} delta={delta}"
                    );
                    detections += 1;
                }
            }
        }
        assert!(detections > 60);
    }

    #[test]
    fn self_field_pinned_to_zero() {
        // Unlike MAX, the additive decoder needs δ_l = 0 enforced.
        let (cfg, _) = dist_config(25, 6, false);
        let scheme = PiDistScheme::new();
        let honest = scheme.marker(&cfg).unwrap();
        let v = NodeId(7);
        let lv = honest.label(v).copy.level();
        let mut labeling = Labeling::from_labels(honest.labels().to_vec());
        let mut cfg2 = cfg.clone();
        labeling.label_mut(v).copy.delta[lv - 1] = 5;
        cfg2.state_mut(v).dist.delta[lv - 1] = 5;
        assert!(!scheme.verify_all(&cfg2, &labeling).accepted());
    }

    #[test]
    fn marker_rejects_corrupt_states() {
        let (mut cfg, _) = dist_config(20, 7, false);
        cfg.state_mut(NodeId(3)).dist.delta[0] += 1;
        assert!(PiDistScheme::new().marker(&cfg).is_err());
    }

    #[test]
    fn orientation_flip_rejected() {
        let (cfg, _) = dist_config(35, 8, false);
        let scheme = PiDistScheme::new();
        let honest = scheme.marker(&cfg).unwrap();
        let mut detections = 0;
        for victim in 0..35 {
            let v = NodeId(victim);
            for k in 0..honest.label(v).orient.len() {
                let old = honest.label(v).orient[k];
                let new = match old {
                    Orient::Down => Orient::Up,
                    Orient::Up => Orient::Down,
                    Orient::SelfSep => Orient::Down,
                };
                let mut labeling = Labeling::from_labels(honest.labels().to_vec());
                labeling.label_mut(v).orient[k] = new;
                assert!(!scheme.verify_all(&cfg, &labeling).accepted());
                detections += 1;
            }
        }
        assert!(detections > 35);
    }
}
