//! `π_flow` and the **maximum** spanning tree scheme — the `FLOW`-side
//! dual of the paper's construction.
//!
//! A spanning tree is *maximum* iff every graph edge `(u, v)` weighs at
//! most `FLOW(u, v)`, the lightest tree edge on the path between its
//! endpoints — the mirror image of the MST cycle property. The whole
//! `π_mst` pipeline dualizes field by field: `γ_small`'s `ω` maxima
//! become `φ` minima (the `FLOW` labels of `mstv-labels`, which the paper
//! introduces as a byproduct), and the Lemma 3.3 conditions 7/8
//! accumulate with `min` instead of `max` (the same checker, run with the
//! `FLOW` path aggregate). As with `MAX`, the self-level field needs no
//! pinning: the decoder's `min` means an adversary can only *deflate*
//! it, which makes verification stricter, never laxer.

use mstv_graph::{ConfigGraph, NodeId, TreeState};
use mstv_labels::{
    try_decode_flow, BitString, FlowAggregate, FlowLabel, LabelCodec, SepFieldCodec,
};
use mstv_trees::{centroid_decomposition_parallel, par_map_chunks};

use crate::pi_gamma::{check_tree_neighbors, orient_fields_parallel, GammaParts, Orient};
use crate::span::{check_span, span_labels, SpanCodec, SpanLabel};
use crate::{Labeling, LocalView, MarkerError, ParallelConfig, ProofLabelingScheme};

/// The `π_maxst` label: spanning sublabel, `FLOW` sublabel, orientation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaxStLabel {
    /// Spanning-tree sublabel.
    pub span: SpanLabel,
    /// `FLOW` sublabel (implicit path-minimum label).
    pub flow: FlowLabel,
    /// `π_flow` orientation sublabel.
    pub orient: Vec<Orient>,
}

/// The proof labeling scheme for *"the induced tree is a **maximum**
/// spanning tree"* — `π_mst` with every `max` dualized to `min`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxStScheme;

impl MaxStScheme {
    /// Creates the scheme.
    pub fn new() -> Self {
        MaxStScheme
    }

    /// The marker with every stage after the maximality check fanned
    /// across a scoped thread pool; byte-identical to the sequential
    /// [`ProofLabelingScheme::marker`] for every thread count (which is
    /// this method pinned to one worker).
    ///
    /// # Errors
    ///
    /// Returns [`MarkerError`] when the configuration does not satisfy
    /// the scheme's predicate, exactly as the sequential marker does.
    pub fn marker_parallel(
        &self,
        cfg: &ConfigGraph<TreeState>,
        config: ParallelConfig,
    ) -> Result<Labeling<MaxStLabel>, MarkerError> {
        let g = cfg.graph();
        let (tree, span) = span_labels(cfg)?;
        let tree_edges = cfg.induced_edges();
        if !mstv_mst::is_max_spanning_tree(g, &tree_edges) {
            return Err(MarkerError::bad_states(
                "candidate tree is not a maximum spanning tree",
            ));
        }
        let sep = centroid_decomposition_parallel(&tree, config);
        let flows = mstv_labels::flow_labels_parallel(&tree, &sep, config);
        let orients = orient_fields_parallel(&tree, &sep, config);
        let threads = config.resolved_threads();
        let labels: Vec<MaxStLabel> = par_map_chunks(g.num_nodes(), threads, |lo, hi| {
            (lo..hi)
                .map(|i| MaxStLabel {
                    span: span[i],
                    flow: flows[i].clone(),
                    orient: orients[i].clone(),
                })
                .collect()
        });
        let span_codec = SpanCodec::for_config(cfg);
        let codec = LabelCodec {
            sep_codec: SepFieldCodec::EliasGamma,
            omega_bits: g.max_weight().bit_width(),
        };
        let encoded = par_map_chunks(g.num_nodes(), threads, |lo, hi| {
            (lo..hi)
                .map(|i| {
                    let l = &labels[i];
                    let mut out = BitString::new();
                    span_codec.encode_into(&mut out, &l.span);
                    codec.encode_flow_into(&l.flow, &mut out);
                    for &o in &l.orient {
                        out.push_bits(o.to_bits(), 2);
                    }
                    out
                })
                .collect()
        });
        Ok(Labeling::new(labels, encoded))
    }
}

impl ProofLabelingScheme for MaxStScheme {
    type State = TreeState;
    type Label = MaxStLabel;

    fn marker(&self, cfg: &ConfigGraph<TreeState>) -> Result<Labeling<MaxStLabel>, MarkerError> {
        // One worker = the sequential pipeline; see `marker_parallel`.
        self.marker_parallel(
            cfg,
            ParallelConfig::with_threads(std::num::NonZeroUsize::MIN),
        )
    }

    fn verify(&self, view: &LocalView<'_, TreeState, MaxStLabel>) -> bool {
        let spans: Vec<&SpanLabel> = view.neighbors.iter().map(|nb| &nb.label.span).collect();
        if !check_span(view.state, &view.label.span, &spans) {
            return false;
        }
        let gamma = check_tree_neighbors::<FlowAggregate, _, _>(
            view,
            view.state.parent_port,
            view.state.id,
            |l| &l.span,
            |l| GammaParts::new(&l.orient, &l.flow.sep, &l.flow.phi),
        );
        if gamma != Some(true) {
            return false;
        }
        // The dual cycle property: ω(v, u) ≤ FLOW(v, u) at every edge.
        view.neighbors.iter().all(
            |nb| match try_decode_flow(&view.label.flow, &nb.label.flow) {
                Some(flow) => nb.weight <= flow,
                None => false,
            },
        )
    }
}

/// Convenience constructor: computes a maximum spanning tree of `graph`
/// and installs it in node states (rooted at node 0).
///
/// # Panics
///
/// Panics if the graph is not connected.
pub fn max_st_configuration(graph: mstv_graph::Graph) -> ConfigGraph<TreeState> {
    let t = mstv_mst::maximum_spanning_tree(&graph);
    let states = mstv_graph::tree_states(&graph, &t, NodeId(0)).expect("spanning tree");
    ConfigGraph::new(graph, states).expect("one state per node")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstv_graph::{gen, tree_states, Graph, Weight};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn completeness() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [2usize, 10, 60, 150] {
            let g =
                gen::random_connected(n, 2 * n, gen::WeightDist::Uniform { max: 500 }, &mut rng);
            let cfg = max_st_configuration(g);
            let scheme = MaxStScheme::new();
            let labeling = scheme.marker(&cfg).unwrap();
            assert!(scheme.verify_all(&cfg, &labeling).accepted(), "n={n}");
        }
    }

    #[test]
    fn marker_parallel_is_byte_identical_to_sequential() {
        use std::num::NonZeroUsize;
        let mut rng = StdRng::seed_from_u64(7);
        let g = gen::random_connected(80, 180, gen::WeightDist::Uniform { max: 400 }, &mut rng);
        let cfg = max_st_configuration(g);
        let scheme = MaxStScheme::new();
        let seq = scheme.marker(&cfg).unwrap();
        for threads in [1usize, 2, 8] {
            let pc = ParallelConfig::with_threads(NonZeroUsize::new(threads).unwrap());
            let par = scheme.marker_parallel(&cfg, pc).unwrap();
            for v in cfg.graph().nodes() {
                assert_eq!(par.label(v), seq.label(v), "threads={threads} v={v}");
                assert_eq!(par.encoded(v), seq.encoded(v), "threads={threads} v={v}");
            }
        }
    }

    #[test]
    fn marker_rejects_minimum_tree() {
        // Force the light tree: it is not maximum.
        let mut g = Graph::new(3);
        let e0 = g.add_edge(NodeId(0), NodeId(1), Weight(1)).unwrap();
        let e1 = g.add_edge(NodeId(1), NodeId(2), Weight(2)).unwrap();
        let _chord = g.add_edge(NodeId(2), NodeId(0), Weight(9)).unwrap();
        let states = tree_states(&g, &[e0, e1], NodeId(0)).unwrap();
        let cfg = ConfigGraph::new(g, states).unwrap();
        assert!(MaxStScheme::new().marker(&cfg).is_err());
    }

    #[test]
    fn stale_labels_rejected_after_weight_raise() {
        // Raising a non-tree edge above its path minimum voids maximality.
        let mut detected = 0;
        for seed in 0..15 {
            let g = gen::random_connected(
                20,
                30,
                gen::WeightDist::Uniform { max: 100 },
                &mut StdRng::seed_from_u64(seed),
            );
            let cfg = max_st_configuration(g);
            let scheme = MaxStScheme::new();
            let labeling = scheme.marker(&cfg).unwrap();
            let tree_edges = cfg.induced_edges();
            let mut in_tree = vec![false; cfg.graph().num_edges()];
            for &e in &tree_edges {
                in_tree[e.index()] = true;
            }
            let Some(victim) = cfg
                .graph()
                .edges()
                .find(|(e, _)| !in_tree[e.index()])
                .map(|(e, _)| e)
            else {
                continue;
            };
            let mut bad = cfg.clone();
            let w = bad.graph().max_weight();
            bad.graph_mut().set_weight(victim, Weight(w.0 + 10));
            assert!(!mstv_mst::is_max_spanning_tree(bad.graph(), &tree_edges));
            assert!(
                !scheme.verify_all(&bad, &labeling).accepted(),
                "seed={seed}"
            );
            detected += 1;
        }
        assert!(detected >= 10);
    }

    #[test]
    fn accepts_any_max_st_under_ties() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = gen::random_connected(20, 30, gen::WeightDist::Constant(5), &mut rng);
        // Under constant weights every spanning tree is maximum.
        let cfg = crate::mst_configuration(g);
        let scheme = MaxStScheme::new();
        let labeling = scheme.marker(&cfg).unwrap();
        assert!(scheme.verify_all(&cfg, &labeling).accepted());
    }

    #[test]
    fn min_and_max_schemes_disagree_on_nontrivial_graphs() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = gen::random_connected(15, 25, gen::WeightDist::Uniform { max: 1000 }, &mut rng);
        let min_cfg = crate::mst_configuration(g.clone());
        let max_cfg = max_st_configuration(g);
        // The minimum tree fails the maximum marker and vice versa
        // (weights are almost surely distinct at W = 1000).
        assert!(MaxStScheme::new().marker(&min_cfg).is_err());
        assert!(crate::MstScheme::new().marker(&max_cfg).is_err());
    }
}
