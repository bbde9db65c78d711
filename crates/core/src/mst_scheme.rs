//! `π_mst` (Theorem 3.4): the `O(log n log W)`-bit proof labeling scheme
//! for distributed MST verification — the paper's headline result.
//!
//! The label of every node concatenates three sublabels:
//!
//! 1. **span** — the `O(log n)`-bit spanning-tree proof (root identity,
//!    distance, parent identity);
//! 2. **γ** — the node's label under the implicit `MAX` scheme `γ_small`
//!    (perfect separator decomposition, size-ordered subtree codes),
//!    `O(log n log W)` bits;
//! 3. **orient** — the `π_Γ` orientation fields proving that the `γ`
//!    sublabels were produced by *some* scheme in `Γ`, `O(log n)` bits.
//!
//! The verifier at `v` checks the spanning-tree conditions, the `π_Γ`
//! conditions 2–8 over the tree edges, and finally the MST cycle property
//! at every incident edge: `ω(v, u) ≥ MAX(v, u)`, with `MAX` computed by
//! the (scheme-independent) `Γ` decoder from the two `γ` sublabels. The
//! scheme accepts *any* MST, including non-unique ones, because the cycle
//! check uses `≥`.
//!
//! A note on soundness of the `ω` fields: condition 7/8 chains pin every
//! `ω` field *below* a node's own level to the true path maximum. The
//! field at the node's own level (`MAX(v, v) = 0`) is unconstrained — but
//! harmless, because the decoder takes a `max` with the other endpoint's
//! (constrained) field, so deflation cannot hide a violation and inflation
//! can only cause extra rejections of configurations that were not proper
//! MST encodings anyway.

use mstv_graph::{ConfigGraph, NodeId, TreeState, Weight};
use mstv_labels::{try_decode_max, BitString, LabelCodec, MaxAggregate, MaxLabel, SepFieldCodec};
use mstv_trees::{centroid_decomposition_parallel, par_map_chunks};

use crate::pi_gamma::{check_tree_neighbors, orient_fields_parallel, GammaParts, Orient};
use crate::span::{check_span, span_labels, SpanCodec, SpanLabel};
use crate::{Labeling, LocalView, MarkerError, ParallelConfig, ProofLabelingScheme};

/// The `π_mst` label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MstLabel {
    /// Spanning-tree sublabel.
    pub span: SpanLabel,
    /// `γ_small` sublabel (implicit `MAX` label).
    pub gamma: MaxLabel,
    /// `π_Γ` orientation sublabel.
    pub orient: Vec<Orient>,
}

/// The proof labeling scheme `π_mst` for the predicate *"the subgraph
/// induced by the states is a minimum spanning tree"* over `F(n, W)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MstScheme;

impl MstScheme {
    /// Creates the scheme.
    pub fn new() -> Self {
        MstScheme
    }

    /// The marker with every stage after the MST check fanned across a
    /// scoped thread pool: centroid decomposition, `γ` / orientation
    /// assembly, `MstLabel` construction, and bit encoding.
    ///
    /// The labeling (structured labels *and* encoded bits) is
    /// **byte-identical** to [`ProofLabelingScheme::marker`] for every
    /// thread count; the sequential marker is this method pinned to one
    /// worker.
    ///
    /// # Errors
    ///
    /// Returns [`MarkerError`] when the configuration does not satisfy
    /// the scheme's predicate, exactly as the sequential marker does.
    pub fn marker_parallel(
        &self,
        cfg: &ConfigGraph<TreeState>,
        config: ParallelConfig,
    ) -> Result<Labeling<MstLabel>, MarkerError> {
        let g = cfg.graph();
        let (tree, span) = span_labels(cfg)?;
        // The induced tree must be a *minimum* spanning tree; the offline
        // union-find check is the cache-friendly accept path.
        let tree_edges = cfg.induced_edges();
        match mstv_mst::check_mst_offline(g, &tree_edges) {
            mstv_mst::MstVerdict::Mst => {}
            mstv_mst::MstVerdict::NotSpanningTree => return Err(MarkerError::NotSpanning),
            mstv_mst::MstVerdict::CycleViolation { non_tree_edge, .. } => {
                return Err(MarkerError::NotMinimum {
                    witness_edge: non_tree_edge,
                })
            }
        }
        let sep = centroid_decomposition_parallel(&tree, config);
        let gammas = mstv_labels::max_labels_parallel(&tree, &sep, config);
        let orients = orient_fields_parallel(&tree, &sep, config);
        let threads = config.resolved_threads();
        // Assembly moves the sublabels into place — pure pointer traffic,
        // so it needs no fan-out and stays identical at every thread count.
        let labels: Vec<MstLabel> = span
            .iter()
            .zip(gammas)
            .zip(orients)
            .map(|((&span, gamma), orient)| MstLabel {
                span,
                gamma,
                orient,
            })
            .collect();
        let span_codec = SpanCodec::for_config(cfg);
        // ω fields must span the whole graph's weight range, not just the
        // tree's: the family is F(n, W).
        let gamma_codec = LabelCodec {
            sep_codec: SepFieldCodec::EliasGamma,
            omega_bits: g.max_weight().bit_width(),
        };
        let encoded = par_map_chunks(g.num_nodes(), threads, |lo, hi| {
            (lo..hi)
                .map(|i| encode_mst_label(&labels[i], span_codec, gamma_codec))
                .collect()
        });
        Ok(Labeling::new(labels, encoded))
    }
}

impl ProofLabelingScheme for MstScheme {
    type State = TreeState;
    type Label = MstLabel;

    fn marker(&self, cfg: &ConfigGraph<TreeState>) -> Result<Labeling<MstLabel>, MarkerError> {
        // One worker = the sequential pipeline (no pool is spawned); the
        // parallel marker is byte-identical at any thread count.
        self.marker_parallel(
            cfg,
            ParallelConfig::with_threads(std::num::NonZeroUsize::MIN),
        )
    }

    fn verify(&self, view: &LocalView<'_, TreeState, MstLabel>) -> bool {
        self.diagnose(view).is_none()
    }
}

/// Why a `π_mst` verifier rejected — diagnostics for operators debugging a
/// failing network (the boolean verdict alone says only *that* something
/// is wrong nearby).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MstRejectReason {
    /// The spanning-tree sublabel conditions failed (broken orientation,
    /// distance chain, or root agreement).
    SpanningTree,
    /// The `π_Γ` conditions failed: the `γ` sublabels are not consistent
    /// with any separator decomposition.
    GammaMembership,
    /// The cycle property failed at the given port: that edge is lighter
    /// than the decoded tree-path maximum between its endpoints.
    CycleProperty {
        /// The local port of the offending edge.
        port: mstv_graph::Port,
        /// The edge's weight.
        weight: Weight,
        /// The decoded `MAX` between the endpoints.
        max_on_path: Weight,
    },
    /// A neighbor's `γ` sublabel could not be decoded against this node's
    /// (no shared separator prefix — labels from different schemes).
    UndecodableNeighbor {
        /// The local port of the neighbor.
        port: mstv_graph::Port,
    },
}

impl MstScheme {
    /// Runs the verifier and reports *why* it rejects (`None` = accept).
    /// [`ProofLabelingScheme::verify`] is `diagnose(view).is_none()`.
    pub fn diagnose(&self, view: &LocalView<'_, TreeState, MstLabel>) -> Option<MstRejectReason> {
        // Step 1: the states induce a spanning tree.
        let spans: Vec<&SpanLabel> = view.neighbors.iter().map(|nb| &nb.label.span).collect();
        if !check_span(view.state, &view.label.span, &spans) {
            return Some(MstRejectReason::SpanningTree);
        }
        // Step 2: the γ sublabels come from some γ ∈ Γ (π_Γ conditions).
        match check_tree_neighbors::<MaxAggregate, _, _>(
            view,
            view.state.parent_port,
            view.state.id,
            |l| &l.span,
            |l| GammaParts::new(&l.orient, &l.gamma.sep, &l.gamma.omega),
        ) {
            None => return Some(MstRejectReason::SpanningTree),
            Some(false) => return Some(MstRejectReason::GammaMembership),
            Some(true) => {}
        }
        // Step 3: the cycle property at every incident edge.
        for nb in &view.neighbors {
            match try_decode_max(&view.label.gamma, &nb.label.gamma) {
                Some(max) => {
                    if nb.weight < max {
                        return Some(MstRejectReason::CycleProperty {
                            port: nb.port,
                            weight: nb.weight,
                            max_on_path: max,
                        });
                    }
                }
                None => return Some(MstRejectReason::UndecodableNeighbor { port: nb.port }),
            }
        }
        None
    }
}

/// Serializes a `π_mst` label exactly (spanning sublabel, `γ` sublabel,
/// two bits per orientation field).
pub fn encode_mst_label(
    label: &MstLabel,
    span_codec: SpanCodec,
    gamma_codec: LabelCodec,
) -> BitString {
    let mut out = BitString::new();
    span_codec.encode_into(&mut out, &label.span);
    gamma_codec.encode_max_into(&label.gamma, &mut out);
    for &o in &label.orient {
        out.push_bits(o.to_bits(), 2);
    }
    out
}

/// Deserializes a `π_mst` label produced by [`encode_mst_label`] with the
/// same codecs. The orientation-field count is not written on the wire —
/// it always equals the `γ` sublabel's separator level, which is how a
/// receiving node (knowing only the instance-wide codec parameters)
/// recovers the full label from bits. Returns `None` when `bits` is
/// truncated, has trailing garbage, or encodes an out-of-range
/// orientation — the wire-level rejects a malformed frame instead of
/// panicking mid-protocol.
pub fn decode_mst_label(
    bits: &BitString,
    span_codec: SpanCodec,
    gamma_codec: LabelCodec,
) -> Option<MstLabel> {
    let mut r = bits.reader();
    let span = span_codec.try_decode_from(&mut r)?;
    let gamma = gamma_codec.try_decode_max_from(&mut r)?;
    let mut orient = Vec::with_capacity(gamma.level());
    for _ in 0..gamma.level() {
        if r.remaining() < 2 {
            return None;
        }
        orient.push(Orient::try_from_bits(r.read_bits(2))?);
    }
    if r.remaining() != 0 {
        return None;
    }
    Some(MstLabel {
        span,
        gamma,
        orient,
    })
}

/// Convenience constructor: builds the MST configuration for a graph by
/// computing an MST and encoding it in the node states (rooted at node 0).
///
/// # Panics
///
/// Panics if the graph is not connected or has no node (no node hangs
/// no tree, although [`mstv_graph::Graph::is_connected`] holds for it).
pub fn mst_configuration(graph: mstv_graph::Graph) -> ConfigGraph<TreeState> {
    let mst = mstv_mst::kruskal(&graph);
    let root = NodeId(0);
    let states = mstv_graph::tree_states(&graph, &mst, root).expect("kruskal returns a tree");
    ConfigGraph::new(graph, states).expect("one state per node")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstv_graph::{gen, tree_states, EdgeId, Graph};
    use mstv_trees::centroid_decomposition;

    use crate::pi_gamma::orient_fields;
    use mstv_mst::{is_mst, kruskal, UnionFind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn config(n: usize, extra: usize, max_w: u64, seed: u64) -> ConfigGraph<TreeState> {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_connected(n, extra, gen::WeightDist::Uniform { max: max_w }, &mut rng);
        mst_configuration(g)
    }

    #[test]
    fn completeness_random_graphs() {
        for (n, extra, w, seed) in [
            (2usize, 0usize, 5u64, 1u64),
            (3, 1, 9, 2),
            (10, 15, 100, 3),
            (60, 120, 1000, 4),
            (150, 300, 1 << 20, 5),
        ] {
            let cfg = config(n, extra, w, seed);
            let scheme = MstScheme::new();
            let labeling = scheme.marker(&cfg).unwrap();
            let verdict = scheme.verify_all(&cfg, &labeling);
            assert!(verdict.accepted(), "n={n} extra={extra}: {verdict}");
        }
    }

    #[test]
    fn completeness_structured_topologies() {
        let mut rng = StdRng::seed_from_u64(6);
        let d = gen::WeightDist::Uniform { max: 64 };
        for g in [
            gen::cycle(9, d, &mut rng),
            gen::complete(12, d, &mut rng),
            gen::grid(5, 6, d, &mut rng),
            gen::star(14, d, &mut rng),
        ] {
            let cfg = mst_configuration(g);
            let scheme = MstScheme::new();
            let labeling = scheme.marker(&cfg).unwrap();
            assert!(scheme.verify_all(&cfg, &labeling).accepted());
        }
    }

    #[test]
    fn accepts_any_mst_under_ties() {
        // The paper stresses the scheme applies to any given MST even when
        // not unique: constant weights make every spanning tree an MST.
        let mut rng = StdRng::seed_from_u64(7);
        for seed in 0..5 {
            let g = gen::random_connected(25, 40, gen::WeightDist::Constant(6), &mut rng);
            // A random (non-Kruskal) spanning tree.
            use rand::seq::SliceRandom;
            let mut ids: Vec<EdgeId> = g.edge_ids().collect();
            ids.shuffle(&mut rng);
            let mut uf = UnionFind::new(g.num_nodes());
            let mut t = Vec::new();
            for e in ids {
                let edge = g.edge(e);
                if uf.union(edge.u.index(), edge.v.index()) {
                    t.push(e);
                }
            }
            let states = tree_states(&g, &t, NodeId(0)).unwrap();
            let cfg = ConfigGraph::new(g, states).unwrap();
            let scheme = MstScheme::new();
            let labeling = scheme.marker(&cfg).unwrap();
            assert!(scheme.verify_all(&cfg, &labeling).accepted(), "seed={seed}");
        }
    }

    #[test]
    fn marker_parallel_is_byte_identical_to_sequential() {
        use std::num::NonZeroUsize;
        // Three graphs below the decomposition's sequential cutoff, and
        // one past it, so that the workers split centroid components.
        let big = 3 * mstv_trees::SEQ_CUTOFF;
        let inputs = [
            (90, 200, 0u64),
            (90, 200, 1),
            (90, 200, 2),
            (big, 2 * big, 3),
        ];
        for (n, extra, seed) in inputs {
            let g = gen::random_connected(
                n,
                extra,
                gen::WeightDist::Uniform { max: 500 },
                &mut StdRng::seed_from_u64(seed),
            );
            let cfg = mst_configuration(g);
            let scheme = MstScheme::new();
            let seq = scheme.marker(&cfg).unwrap();
            for threads in [1usize, 2, 8] {
                let pc = ParallelConfig::with_threads(NonZeroUsize::new(threads).unwrap());
                let par = scheme.marker_parallel(&cfg, pc).unwrap();
                for v in cfg.graph().nodes() {
                    assert_eq!(par.label(v), seq.label(v), "seed={seed} threads={threads}");
                    assert_eq!(
                        par.encoded(v),
                        seq.encoded(v),
                        "encoded bits diverged: seed={seed} threads={threads} v={v}"
                    );
                }
            }
        }
    }

    #[test]
    fn marker_rejects_non_mst() {
        // Force a heavy edge into the tree.
        let mut g = Graph::new(3);
        let e0 = g.add_edge(NodeId(0), NodeId(1), Weight(1)).unwrap();
        let _mid = g.add_edge(NodeId(1), NodeId(2), Weight(2)).unwrap();
        let e2 = g.add_edge(NodeId(2), NodeId(0), Weight(9)).unwrap();
        let states = tree_states(&g, &[e0, e2], NodeId(0)).unwrap();
        let cfg = ConfigGraph::new(g, states).unwrap();
        assert!(MstScheme::new().marker(&cfg).is_err());
    }

    #[test]
    fn stale_proof_after_weight_drop_rejected() {
        // The self-stabilization scenario: a weight changes so the tree is
        // no longer minimum; the old labels must be rejected somewhere.
        let mut rng = StdRng::seed_from_u64(8);
        let mut detected = 0;
        let mut trials = 0;
        while trials < 25 {
            let g = gen::random_connected(20, 30, gen::WeightDist::Uniform { max: 100 }, &mut rng);
            let cfg = mst_configuration(g);
            let scheme = MstScheme::new();
            let labeling = scheme.marker(&cfg).unwrap();
            // Find a non-tree edge and drop its weight below the tree path
            // max so the tree stops being minimum.
            let tree_edges = cfg.induced_edges();
            let mut in_tree = vec![false; cfg.graph().num_edges()];
            for &e in &tree_edges {
                in_tree[e.index()] = true;
            }
            let tree =
                mstv_trees::RootedTree::from_graph_edges(cfg.graph(), &tree_edges, NodeId(0))
                    .unwrap();
            let Some((victim, new_w)) = cfg
                .graph()
                .edges()
                .filter(|(e, _)| !in_tree[e.index()])
                .find_map(|(e, edge)| {
                    let m = tree.max_on_path_naive(edge.u, edge.v);
                    (m > Weight(1)).then(|| (e, Weight(m.0 - 1)))
                })
            else {
                trials += 1;
                continue;
            };
            let mut bad = cfg.clone();
            bad.graph_mut().set_weight(victim, new_w);
            assert!(!is_mst(bad.graph(), &tree_edges));
            let verdict = scheme.verify_all(&bad, &labeling);
            assert!(!verdict.accepted(), "trial {trials}");
            detected += 1;
            trials += 1;
        }
        assert!(detected >= 10, "only {detected} usable trials");
    }

    #[test]
    fn swapped_tree_edge_rejected_even_with_refreshed_internal_labels() {
        // Replace a tree edge with a strictly heavier non-tree edge and let
        // the adversary RE-RUN the honest sub-markers on the new tree
        // (γ labels, orientation, spanning proof all self-consistent).
        // Only the cycle-property check can catch this — and it must.
        let mut rng = StdRng::seed_from_u64(9);
        let mut detected = 0;
        for _ in 0..20 {
            let g = gen::random_connected(18, 30, gen::WeightDist::Uniform { max: 500 }, &mut rng);
            let mst = kruskal(&g);
            let mut in_tree = vec![false; g.num_edges()];
            for &e in &mst {
                in_tree[e.index()] = true;
            }
            let tree = mstv_trees::RootedTree::from_graph_edges(&g, &mst, NodeId(0)).unwrap();
            // Pick a non-tree edge strictly heavier than its path max, and
            // the heaviest path edge to evict.
            let Some((f, evict)) =
                g.edges()
                    .filter(|(e, _)| !in_tree[e.index()])
                    .find_map(|(e, edge)| {
                        let m = tree.max_on_path_naive(edge.u, edge.v);
                        if edge.w <= m {
                            return None;
                        }
                        // Find a path edge with weight == m.
                        let evict = mst.iter().copied().find(|&te| {
                            let td = g.edge(te);
                            g.weight(te) == m && on_path(&tree, edge.u, edge.v, td.u, td.v)
                        })?;
                        Some((e, evict))
                    })
            else {
                continue;
            };
            let swapped: Vec<EdgeId> = mst
                .iter()
                .copied()
                .filter(|&e| e != evict)
                .chain([f])
                .collect();
            assert!(g.is_spanning_tree(&swapped));
            assert!(!is_mst(&g, &swapped));
            let states = tree_states(&g, &swapped, NodeId(0)).unwrap();
            let bad_cfg = ConfigGraph::new(g.clone(), states).unwrap();
            // Adversary runs the full honest marker pipeline on the bad
            // tree (bypassing the marker's own MST check).
            let (bad_tree, span) = span_labels(&bad_cfg).unwrap();
            let sep = centroid_decomposition(&bad_tree);
            let gammas = mstv_labels::max_labels(&bad_tree, &sep);
            let orients = orient_fields(&bad_tree, &sep);
            let labels: Vec<MstLabel> = (0..g.num_nodes())
                .map(|i| MstLabel {
                    span: span[i],
                    gamma: gammas[i].clone(),
                    orient: orients[i].clone(),
                })
                .collect();
            let labeling = Labeling::from_labels(labels);
            let scheme = MstScheme::new();
            let verdict = scheme.verify_all(&bad_cfg, &labeling);
            assert!(!verdict.accepted());
            detected += 1;
        }
        assert!(detected >= 5, "only {detected} usable trials");
    }

    fn on_path(tree: &mstv_trees::RootedTree, u: NodeId, v: NodeId, a: NodeId, b: NodeId) -> bool {
        let (mut x, mut y) = (u, v);
        while x != y {
            let step = if tree.depth(x) >= tree.depth(y) {
                let p = tree.parent(x).unwrap();
                let s = (x, p);
                x = p;
                s
            } else {
                let p = tree.parent(y).unwrap();
                let s = (y, p);
                y = p;
                s
            };
            if (step.0 == a && step.1 == b) || (step.0 == b && step.1 == a) {
                return true;
            }
        }
        false
    }

    #[test]
    fn random_label_corruptions_rejected() {
        let cfg = config(30, 60, 1000, 10);
        let scheme = MstScheme::new();
        let honest = scheme.marker(&cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut rejected = 0;
        let trials = 60;
        for _ in 0..trials {
            let mut labeling = Labeling::from_labels(honest.labels().to_vec());
            let v = NodeId(rng.gen_range(0..30));
            let label = labeling.label_mut(v);
            match rng.gen_range(0..4) {
                0 => label.span.dist = label.span.dist.wrapping_add(1),
                1 => label.span.root_id ^= 1,
                2 => {
                    let k = rng.gen_range(0..label.gamma.omega.len());
                    label.gamma.omega[k] = Weight(label.gamma.omega[k].0 ^ 0x55);
                }
                _ => {
                    let k = rng.gen_range(0..label.gamma.sep.len());
                    label.gamma.sep[k] ^= 1;
                }
            }
            if *labeling.label(v) == *honest.label(v) {
                continue; // corruption was a no-op
            }
            if !scheme.verify_all(&cfg, &labeling).accepted() {
                rejected += 1;
            }
        }
        // Not every corruption is harmful (e.g. inflating an unconstrained
        // ω field), but the overwhelming majority must be caught.
        assert!(
            rejected >= trials * 8 / 10,
            "only {rejected}/{trials} rejected"
        );
    }

    #[test]
    fn label_size_scales_as_log_n_log_w() {
        // Generous constant-factor check of Theorem 3.4.
        for (n, w, seed) in [(64usize, 255u64, 12u64), (256, 1 << 16, 13), (1024, 3, 14)] {
            let cfg = config(n, 2 * n, w, seed);
            let labeling = MstScheme::new().marker(&cfg).unwrap();
            let log_n = (usize::BITS - n.leading_zeros()) as usize;
            let log_w = Weight(w).bit_width() as usize;
            let bound = 8 * log_n * log_w + 16 * log_n + 64;
            assert!(
                labeling.max_label_bits() <= bound,
                "n={n} W={w}: {} > {bound}",
                labeling.max_label_bits()
            );
        }
    }

    #[test]
    fn diagnose_names_the_failing_check() {
        use crate::local_view;
        let cfg = config(25, 40, 500, 77);
        let scheme = MstScheme::new();
        let honest = scheme.marker(&cfg).unwrap();
        // Clean network: no reason anywhere.
        for v in cfg.graph().nodes() {
            let view = local_view(&cfg, honest.labels(), v);
            assert_eq!(scheme.diagnose(&view), None);
        }
        // Weight drop → some node reports a cycle-property violation.
        let mut rng = StdRng::seed_from_u64(78);
        let mut bad = cfg.clone();
        crate::faults::break_minimality(&mut bad, &mut rng).unwrap();
        let mut cycle_hits = 0;
        for v in bad.graph().nodes() {
            let view = local_view(&bad, honest.labels(), v);
            if let Some(MstRejectReason::CycleProperty {
                weight,
                max_on_path,
                ..
            }) = scheme.diagnose(&view)
            {
                assert!(weight < max_on_path);
                cycle_hits += 1;
            }
        }
        assert!(cycle_hits >= 1);
        // Distance corruption → spanning-tree reason.
        let mut labeling = Labeling::from_labels(honest.labels().to_vec());
        labeling.label_mut(NodeId(5)).span.dist += 7;
        let view = local_view(&cfg, labeling.labels(), NodeId(5));
        assert_eq!(scheme.diagnose(&view), Some(MstRejectReason::SpanningTree));
        // Orientation corruption → γ-membership reason at the victim.
        let mut labeling = Labeling::from_labels(honest.labels().to_vec());
        let victim = NodeId(9);
        let lv = labeling.label(victim).orient.len();
        labeling.label_mut(victim).orient[lv - 1] = Orient::Up;
        let view = local_view(&cfg, labeling.labels(), victim);
        assert_eq!(
            scheme.diagnose(&view),
            Some(MstRejectReason::GammaMembership)
        );
        // Foreign γ label (no shared prefix) → undecodable neighbor.
        let mut labeling = Labeling::from_labels(honest.labels().to_vec());
        labeling.label_mut(victim).gamma.sep[0] = 999;
        let neighbor = cfg.graph().neighbors(victim).next().unwrap().node;
        let view = local_view(&cfg, labeling.labels(), neighbor);
        assert!(matches!(
            scheme.diagnose(&view),
            Some(MstRejectReason::UndecodableNeighbor { .. } | MstRejectReason::GammaMembership)
        ));
    }

    #[test]
    fn wire_roundtrip_decodes_every_label() {
        let cfg = config(40, 80, 1000, 21);
        let scheme = MstScheme::new();
        let labeling = scheme.marker(&cfg).unwrap();
        let span_codec = SpanCodec::for_config(&cfg);
        let gamma_codec = LabelCodec {
            sep_codec: SepFieldCodec::EliasGamma,
            omega_bits: cfg.graph().max_weight().bit_width(),
        };
        for v in cfg.graph().nodes() {
            let decoded = decode_mst_label(labeling.encoded(v), span_codec, gamma_codec)
                .expect("honest encoding decodes");
            assert_eq!(&decoded, labeling.label(v), "v={v}");
        }
        // Truncated frames are rejected, not panicked on.
        let enc = labeling.encoded(NodeId(0));
        let mut cut = BitString::new();
        for i in 0..enc.len() - 3 {
            cut.push(enc.get(i));
        }
        assert_eq!(decode_mst_label(&cut, span_codec, gamma_codec), None);
        assert_eq!(
            decode_mst_label(&BitString::new(), span_codec, gamma_codec),
            None
        );
    }

    #[test]
    fn two_node_graph() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), Weight(5)).unwrap();
        let cfg = mst_configuration(g);
        let scheme = MstScheme::new();
        let labeling = scheme.marker(&cfg).unwrap();
        assert!(scheme.verify_all(&cfg, &labeling).accepted());
    }
}
