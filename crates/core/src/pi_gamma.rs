//! The proof labeling scheme `π_Γ` (Lemma 3.3): locally verifying that the
//! node states are the labels of *some* implicit `MAX` labeling scheme
//! `γ ∈ Γ`.
//!
//! This is the paper's key subtlety: we cannot cheaply prove that the
//! specific small scheme `γ_small` produced the labels, but we do not have
//! to — it suffices that *some* separator decomposition is consistent with
//! them, because the decoder is the same for every member of `Γ` and is
//! then guaranteed to return true `MAX` values. The marker nevertheless
//! uses `γ_small`, so the proof stays `O(log n log W)` bits.
//!
//! The label of a level-`l` separator `v` adds to (a copy of) its state an
//! orientation sublabel of `l` fields: field `k` says where `v`'s level-`k`
//! separator lies relative to `v` in the rooted tree — [`Orient::Down`]
//! (a descendant), [`Orient::Up`] (elsewhere), or [`Orient::SelfSep`]
//! (`k = l`, `v` itself). The verifier enforces the paper's conditions
//! 1–8, which (i) pin the orientation fields to *some* separator
//! decomposition and (ii) recompute every `ω` field transitively along the
//! path to the corresponding separator.
//!
//! Conditions that reference field `k` of a neighbor apply only when that
//! neighbor has a field `k` (its level exceeds `k`); a neighbor separated
//! at an earlier level carries no information about later levels — see the
//! worked example in this module's tests.

use mstv_graph::{ConfigGraph, NodeId, Port, Weight};
use mstv_labels::{BitString, LabelCodec, MaxAggregate, MaxLabel, PathAggregate, SepFieldCodec};
use mstv_trees::{LcaIndex, RootedTree, SeparatorDecomposition};

use crate::span::{check_span, SpanCodec, SpanLabel};
use crate::{Labeling, LocalView, MarkerError, ProofLabelingScheme};

/// Where a separator lies relative to a node in the rooted tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Orient {
    /// The separator is a proper descendant of the node (paper: `0`).
    Down,
    /// The separator is neither the node nor a descendant (paper: `1`).
    Up,
    /// The node is this separator itself (paper: `*`).
    SelfSep,
}

impl Orient {
    /// Two-bit encoding.
    pub fn to_bits(self) -> u64 {
        match self {
            Orient::Down => 0,
            Orient::Up => 1,
            Orient::SelfSep => 2,
        }
    }

    /// Decodes the two-bit encoding; `None` on the reserved pattern `3`.
    pub fn try_from_bits(v: u64) -> Option<Self> {
        match v {
            0 => Some(Orient::Down),
            1 => Some(Orient::Up),
            2 => Some(Orient::SelfSep),
            _ => None,
        }
    }
}

/// The pieces of a `Γ`-family proof label the condition checker
/// consumes: orientation fields plus the claimed label's separator-path
/// and aggregate fields (`ω` for `MAX`, `φ` for `FLOW`, `δ` for `DIST`).
#[derive(Debug, Clone, Copy)]
pub struct GammaParts<'a, T> {
    /// Orientation fields (length `l`).
    pub orient: &'a [Orient],
    /// Separator-path fields of the claimed label.
    pub sep: &'a [u64],
    /// Aggregate fields of the claimed label.
    pub values: &'a [T],
}

impl<'a, T> GammaParts<'a, T> {
    /// Assembles parts from an orientation sublabel and a label's
    /// separator-path and aggregate fields.
    pub fn new(orient: &'a [Orient], sep: &'a [u64], values: &'a [T]) -> Self {
        GammaParts {
            orient,
            sep,
            values,
        }
    }

    fn level(&self) -> usize {
        self.orient.len()
    }
}

/// The verifier conditions 2–8 of Lemma 3.3 at one node, for the label
/// family whose fields carry the path aggregate `A`, given the parts of
/// the node itself, of its tree parent (with the connecting weight), and
/// of its tree children (condition 1 — the label copies the state — is
/// the caller's responsibility, since compositions differ in where the
/// label lives).
///
/// Returns `true` iff every condition holds locally.
pub fn check_gamma_conditions<A: PathAggregate>(
    own: &GammaParts<'_, A::Value>,
    parent: Option<(Weight, GammaParts<'_, A::Value>)>,
    children: &[(Weight, GammaParts<'_, A::Value>)],
) -> bool {
    let l = own.level();
    // Structural consistency (condition 4): the three sublabels agree on
    // the field count, the last orientation field is `*`, and no other is.
    if l == 0 || own.sep.len() != l || own.values.len() != l {
        return false;
    }
    if own.orient[l - 1] != Orient::SelfSep {
        return false;
    }
    if own.orient[..l - 1].contains(&Orient::SelfSep) {
        return false;
    }
    // Condition 5: separator-path prefixes agree with every tree neighbor
    // up to the smaller level.
    let tree_neighbors = parent.iter().chain(children.iter());
    for (_, w) in tree_neighbors.clone() {
        let min = l.min(w.sep.len());
        if own.sep[..min] != w.sep[..min] {
            return false;
        }
    }
    // Conditions 7/8: field k of the node is field k of the next node
    // towards the level-k separator, extended by the connecting edge —
    // from the empty path when that next node is the separator itself.
    let accumulates = |next: &GammaParts<'_, A::Value>, w: Weight, k: usize| {
        if next.values.len() <= k {
            return false;
        }
        let from = if next.orient[k] == Orient::SelfSep {
            A::EMPTY
        } else {
            next.values[k]
        };
        own.values[k] == A::extend(from, w)
    };
    for k in 0..l {
        match own.orient[k] {
            Orient::Up => {
                // Condition 2: a separator above requires a parent that
                // still shares level k, and every child sharing level k
                // sees the separator above as well.
                let Some((pw, p)) = parent else {
                    return false;
                };
                if p.level() <= k {
                    return false;
                }
                if children
                    .iter()
                    .any(|(_, c)| c.level() > k && c.orient[k] != Orient::Up)
                {
                    return false;
                }
                // Condition 7: the field accumulates along the parent.
                if !accumulates(&p, pw, k) {
                    return false;
                }
            }
            Orient::Down => {
                // Condition 3: a parent still sharing level k must also see
                // the separator below it; exactly one child continues the
                // path down.
                if let Some((_, p)) = parent {
                    if p.level() > k && p.orient[k] != Orient::Down {
                        return false;
                    }
                }
                let mut unique: Option<(Weight, &GammaParts<'_, A::Value>)> = None;
                for (cw, c) in children {
                    if c.level() > k && matches!(c.orient[k], Orient::Down | Orient::SelfSep) {
                        if unique.is_some() {
                            return false;
                        }
                        unique = Some((*cw, c));
                    }
                }
                let Some((cw, c)) = unique else {
                    return false;
                };
                // Condition 8: the field accumulates along that child.
                if !accumulates(c, cw, k) {
                    return false;
                }
            }
            Orient::SelfSep => {
                // Condition 6 (k = l - 1, this node is the separator).
                // (a) No tree neighbor is a separator of the same level.
                if tree_neighbors.clone().any(|(_, w)| w.level() == l) {
                    return false;
                }
                // (b) A parent inside this node's region sees it below; a
                // child inside sees it above.
                if let Some((_, p)) = parent {
                    if p.level() > k && p.orient[k] != Orient::Down {
                        return false;
                    }
                }
                if children
                    .iter()
                    .any(|(_, c)| c.level() > k && c.orient[k] != Orient::Up)
                {
                    return false;
                }
                // (c) Subtrees formed by this separator carry distinct
                // numbers: the neighbors inside the region each start a
                // different subtree, so their field l (0-based) must be
                // pairwise distinct.
                let mut seen = Vec::new();
                for (_, w) in tree_neighbors.clone() {
                    if w.sep.len() > l {
                        if seen.contains(&w.sep[l]) {
                            return false;
                        }
                        seen.push(w.sep[l]);
                    }
                }
            }
        }
    }
    true
}

/// Runs [`check_gamma_conditions`] at a view's node against its tree
/// neighbors: the parent behind `parent_port`, and the children — the
/// neighbors whose span label names `id` as their parent. `parts` reads a
/// label's `Γ` parts and `span` its spanning sublabel. `None` when
/// `parent_port` names no neighbor.
pub(crate) fn check_tree_neighbors<'v, A: PathAggregate, S, L>(
    view: &'v LocalView<'_, S, L>,
    parent_port: Option<Port>,
    id: u64,
    span: impl Fn(&L) -> &SpanLabel,
    parts: impl Fn(&'v L) -> GammaParts<'v, A::Value>,
) -> Option<bool> {
    let parent = match parent_port {
        Some(port) => {
            let nb = view.neighbor_at(port)?;
            Some((nb.weight, parts(nb.label)))
        }
        None => None,
    };
    let children: Vec<(Weight, GammaParts<'v, A::Value>)> = view
        .neighbors
        .iter()
        .filter(|nb| span(nb.label).parent_id == Some(id))
        .map(|nb| (nb.weight, parts(nb.label)))
        .collect();
    Some(check_gamma_conditions::<A>(
        &parts(view.label),
        parent,
        &children,
    ))
}

/// Computes the honest orientation fields for every node, given the rooted
/// tree and the separator decomposition the marker used: the one-worker
/// `orient_fields_parallel`.
pub fn orient_fields(tree: &RootedTree, sep: &SeparatorDecomposition) -> Vec<Vec<Orient>> {
    orient_fields_parallel(
        tree,
        sep,
        crate::ParallelConfig::with_threads(std::num::NonZeroUsize::MIN),
    )
}

/// [`orient_fields`] with per-node assembly fanned across a scoped thread
/// pool (the LCA index is built once and shared read-only). Output is
/// identical for every thread count.
pub fn orient_fields_parallel(
    tree: &RootedTree,
    sep: &SeparatorDecomposition,
    config: crate::ParallelConfig,
) -> Vec<Vec<Orient>> {
    let lca = LcaIndex::new(tree);
    mstv_trees::par_map_chunks(tree.num_nodes(), config.resolved_threads(), |lo, hi| {
        let mut chain = Vec::new();
        (lo..hi)
            .map(|i| orient_field(&lca, sep, NodeId::from_index(i), &mut chain))
            .collect()
    })
}

/// The orientation field of a single node, with the separator chain
/// staged in a caller-owned buffer so the builder allocates one chain
/// per worker instead of one per node.
fn orient_field(
    lca: &LcaIndex,
    sep: &SeparatorDecomposition,
    v: NodeId,
    chain: &mut Vec<NodeId>,
) -> Vec<Orient> {
    sep.ancestors_into(v, chain);
    chain
        .iter()
        .map(|&a| {
            if a == v {
                Orient::SelfSep
            } else if lca.is_ancestor(v, a) {
                Orient::Down
            } else {
                Orient::Up
            }
        })
        .collect()
}

/// A node state for the standalone `π_Γ` problem `Prob(Γ)`: the node's
/// identity, its parent port in the tree, and the claimed `γ` label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PiGammaState {
    /// Unique node identity.
    pub id: u64,
    /// Parent port of the tree orientation (`None` at the root).
    pub parent_port: Option<Port>,
    /// The claimed `γ` label stored in the state.
    pub gamma: MaxLabel,
}

impl mstv_graph::ParentPointer for PiGammaState {
    fn parent_port(&self) -> Option<Port> {
        self.parent_port
    }

    fn set_parent_port(&mut self, port: Option<Port>) {
        self.parent_port = port;
    }
}

/// The `π_Γ` label: a spanning/orientation sublabel, the orientation
/// fields, and a copy of the state's `γ` label (condition 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PiGammaLabel {
    /// Orientation proof for the tree (root id, distance, parent id).
    pub span: SpanLabel,
    /// Orientation fields, one per separator level of the node.
    pub orient: Vec<Orient>,
    /// Copy of the state's `γ` label.
    pub copy: MaxLabel,
}

/// The standalone proof labeling scheme `π_Γ` over configuration trees
/// whose states claim to be `γ` labels.
#[derive(Debug, Clone, Copy, Default)]
pub struct PiGammaScheme;

impl PiGammaScheme {
    /// Creates the scheme.
    pub fn new() -> Self {
        PiGammaScheme
    }
}

/// Rebuilds the separator decomposition implied by per-node levels and
/// ranks (level = the state's field count; rank = the state's last
/// separator-path field), simulating the recursive removal process and
/// checking uniqueness at every step.
///
/// # Errors
///
/// Returns a description of the first inconsistency.
pub fn reconstruct_decomposition(
    tree: &RootedTree,
    levels: &[u32],
    ranks: &[u32],
) -> Result<SeparatorDecomposition, String> {
    let n = tree.num_nodes();
    if levels.len() != n || ranks.len() != n {
        return Err("levels/ranks length mismatch".to_owned());
    }
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for (c, p, _) in tree.edges() {
        adj[c.index()].push(p);
        adj[p.index()].push(c);
    }
    let mut removed = vec![false; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut component_size = vec![0usize; n];
    // Stack of (component representative, expected level, sep parent).
    let mut stack = vec![(NodeId(0), 1u32, None::<NodeId>)];
    let mut root = None;
    while let Some((rep, expected, sp)) = stack.pop() {
        // Collect the live component containing rep.
        let mut comp = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut dfs = vec![rep];
        seen.insert(rep);
        while let Some(v) = dfs.pop() {
            comp.push(v);
            for &nb in &adj[v.index()] {
                if !removed[nb.index()] && seen.insert(nb) {
                    dfs.push(nb);
                }
            }
        }
        // The separator must be the unique node at the expected level.
        let mut sep = None;
        for &v in &comp {
            if levels[v.index()] == expected {
                if sep.is_some() {
                    return Err(format!("two level-{expected} separators in one component"));
                }
                sep = Some(v);
            } else if levels[v.index()] < expected {
                return Err(format!("{v} has level below its component's level"));
            }
        }
        let sep = sep.ok_or_else(|| format!("component without level-{expected} separator"))?;
        parent[sep.index()] = sp;
        component_size[sep.index()] = comp.len();
        if sp.is_none() {
            root = Some(sep);
        }
        removed[sep.index()] = true;
        for &nb in &adj[sep.index()] {
            if removed[nb.index()] {
                continue;
            }
            stack.push((nb, expected + 1, Some(sep)));
        }
        // Rank distinctness among the subtrees formed by sep is enforced
        // globally after the simulation (sibling pass below).
    }
    let root = root.ok_or_else(|| "empty tree".to_owned())?;
    // Distinctness of sibling ranks.
    let mut sibling_ranks: std::collections::HashMap<NodeId, Vec<u32>> =
        std::collections::HashMap::new();
    for v in tree.nodes() {
        if let Some(p) = parent[v.index()] {
            sibling_ranks.entry(p).or_default().push(ranks[v.index()]);
        }
    }
    for (_, mut rs) in sibling_ranks {
        rs.sort_unstable();
        if rs.windows(2).any(|w| w[0] == w[1]) {
            return Err("duplicate sibling subtree ranks".to_owned());
        }
    }
    SeparatorDecomposition::from_parts(
        root,
        parent,
        levels.to_vec(),
        ranks.to_vec(),
        component_size,
    )
}

/// The decomposition that claimed separator paths imply — a node's level
/// is its path's length, its rank the path's last field — rebuilt by
/// [`reconstruct_decomposition`].
pub(crate) fn implied_decomposition<'a>(
    tree: &RootedTree,
    sep_path: impl Fn(NodeId) -> &'a [u64],
) -> Result<SeparatorDecomposition, MarkerError> {
    let (levels, ranks): (Vec<u32>, Vec<u32>) = tree
        .nodes()
        .map(|v| {
            let path = sep_path(v);
            (path.len() as u32, *path.last().unwrap_or(&0) as u32)
        })
        .unzip();
    reconstruct_decomposition(tree, &levels, &ranks).map_err(MarkerError::BadStates)
}

impl ProofLabelingScheme for PiGammaScheme {
    type State = PiGammaState;
    type Label = PiGammaLabel;

    fn marker(
        &self,
        cfg: &ConfigGraph<PiGammaState>,
    ) -> Result<Labeling<PiGammaLabel>, MarkerError> {
        let g = cfg.graph();
        let n = g.num_nodes();
        // The configuration graph must itself be a tree with a consistent
        // orientation in the states.
        let tree_cfg = cfg.map_states(|_, s| mstv_graph::TreeState {
            id: s.id,
            parent_port: s.parent_port,
        });
        let (tree, span) = crate::span::span_labels(&tree_cfg)?;
        if g.num_edges() != n - 1 {
            return Err(MarkerError::bad_states(
                "π_Γ operates on configuration trees",
            ));
        }
        // Reconstruct the decomposition the states imply and re-derive the
        // labels; the predicate holds iff they match the states.
        let sep = implied_decomposition(&tree, |v| &cfg.state(v).gamma.sep)?;
        let expected = mstv_labels::max_labels(&tree, &sep);
        for (i, exp) in expected.iter().enumerate() {
            let v = NodeId::from_index(i);
            let got = &cfg.state(v).gamma;
            // The shared first field is arbitrary but must be uniform; our
            // re-derivation uses 0, so compare modulo field 1 by aligning.
            if got.omega != exp.omega || got.sep[1..] != exp.sep[1..] {
                return Err(MarkerError::BadStates(format!(
                    "state of {v} is not a label of any γ ∈ Γ"
                )));
            }
        }
        let orients = orient_fields(&tree, &sep);
        let labels: Vec<PiGammaLabel> = (0..n)
            .map(|i| PiGammaLabel {
                span: span[i],
                orient: orients[i].clone(),
                copy: cfg.state(NodeId::from_index(i)).gamma.clone(),
            })
            .collect();
        let span_codec = SpanCodec::for_config(&tree_cfg);
        let gamma_codec = LabelCodec::for_tree(&tree, SepFieldCodec::EliasGamma);
        let encoded = labels
            .iter()
            .map(|l| encode_pi_gamma(l, span_codec, gamma_codec))
            .collect();
        Ok(Labeling::new(labels, encoded))
    }

    fn verify(&self, view: &LocalView<'_, PiGammaState, PiGammaLabel>) -> bool {
        // Orientation / spanning checks on the tree.
        let state = mstv_graph::TreeState {
            id: view.state.id,
            parent_port: view.state.parent_port,
        };
        let spans: Vec<&SpanLabel> = view.neighbors.iter().map(|nb| &nb.label.span).collect();
        if !check_span(&state, &view.label.span, &spans) {
            return false;
        }
        // Condition 1: the label copies the state.
        if view.label.copy != view.state.gamma {
            return false;
        }
        // Conditions 2–8 against tree parent and children.
        check_tree_neighbors::<MaxAggregate, _, _>(
            view,
            view.state.parent_port,
            view.state.id,
            |l| &l.span,
            |l| GammaParts::new(&l.orient, &l.copy.sep, &l.copy.omega),
        )
        .unwrap_or(false)
    }
}

/// Serializes a `π_Γ` label exactly.
pub fn encode_pi_gamma(
    label: &PiGammaLabel,
    span_codec: SpanCodec,
    gamma_codec: LabelCodec,
) -> BitString {
    let mut out = BitString::new();
    span_codec.encode_into(&mut out, &label.span);
    gamma_codec.encode_max_into(&label.copy, &mut out);
    // Orientation fields: 2 bits each; the count equals the γ label's
    // field count, already encoded above.
    for &o in &label.orient {
        out.push_bits(o.to_bits(), 2);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstv_graph::{gen, tree_states, Graph, TreeState};
    use mstv_labels::max_labels;
    use mstv_trees::{centroid_decomposition, random_decomposition};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds a π_Γ configuration: a random tree whose states hold honest
    /// γ labels for the given decomposition choice.
    fn gamma_config(
        n: usize,
        seed: u64,
        random_sep: bool,
    ) -> (ConfigGraph<PiGammaState>, RootedTree) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_tree(n, gen::WeightDist::Uniform { max: 50 }, &mut rng);
        let all: Vec<_> = g.edge_ids().collect();
        let states = tree_states(&g, &all, NodeId(0)).unwrap();
        let tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
        let sep = if random_sep {
            random_decomposition(&tree, &mut rng)
        } else {
            centroid_decomposition(&tree)
        };
        let gammas = max_labels(&tree, &sep);
        let full: Vec<PiGammaState> = states
            .iter()
            .zip(gammas)
            .map(|(ts, gamma)| PiGammaState {
                id: ts.id,
                parent_port: ts.parent_port,
                gamma,
            })
            .collect();
        (ConfigGraph::new(g, full).unwrap(), tree)
    }

    #[test]
    fn completeness_centroid() {
        for (n, seed) in [(2usize, 1u64), (3, 2), (17, 3), (80, 4), (200, 5)] {
            let (cfg, _) = gamma_config(n, seed, false);
            let scheme = PiGammaScheme::new();
            let labeling = scheme.marker(&cfg).unwrap();
            let verdict = scheme.verify_all(&cfg, &labeling);
            assert!(verdict.accepted(), "n={n}: {verdict}");
        }
    }

    #[test]
    fn completeness_arbitrary_gamma() {
        // π_Γ accepts states produced by ANY member of Γ.
        for (n, seed) in [(10usize, 11u64), (40, 12), (90, 13)] {
            let (cfg, _) = gamma_config(n, seed, true);
            let scheme = PiGammaScheme::new();
            let labeling = scheme.marker(&cfg).unwrap();
            assert!(scheme.verify_all(&cfg, &labeling).accepted(), "n={n}");
        }
    }

    #[test]
    fn marker_rejects_corrupted_states() {
        let (mut cfg, _) = gamma_config(30, 21, false);
        // Corrupt an ω field in a state: no γ ∈ Γ matches anymore.
        let s = cfg.state_mut(NodeId(7));
        if let Some(w) = s.gamma.omega.first_mut() {
            *w = Weight(w.0 + 1);
        }
        assert!(PiGammaScheme::new().marker(&cfg).is_err());
    }

    #[test]
    fn stale_labels_on_corrupted_states_rejected() {
        let (cfg, _) = gamma_config(40, 22, false);
        let scheme = PiGammaScheme::new();
        let labeling = scheme.marker(&cfg).unwrap();
        let mut bad = cfg.clone();
        let s = bad.state_mut(NodeId(9));
        if let Some(w) = s.gamma.omega.first_mut() {
            *w = Weight(w.0 + 3);
        }
        // Condition 1 (copy == state) must fire at node 9.
        let verdict = scheme.verify_all(&bad, &labeling);
        assert!(verdict.rejecting.contains(&NodeId(9)));
    }

    #[test]
    fn forged_omega_rejected() {
        // Tamper with an ω field in state AND label consistently: the
        // transitive ω recomputation (conditions 7/8) must catch it.
        let (cfg, _) = gamma_config(60, 23, false);
        let scheme = PiGammaScheme::new();
        let honest = scheme.marker(&cfg).unwrap();
        let mut detections = 0;
        for victim in 0..60 {
            let v = NodeId(victim);
            let lv = honest.label(v).copy.level();
            for k in 0..lv.saturating_sub(1) {
                let mut cfg2 = cfg.clone();
                let mut labeling = Labeling::from_labels(honest.labels().to_vec());
                // Lower the ω field (lying "this path is lighter").
                let old = labeling.label(v).copy.omega[k];
                if old == Weight::ZERO {
                    continue;
                }
                labeling.label_mut(v).copy.omega[k] = Weight(old.0 - 1);
                cfg2.state_mut(v).gamma.omega[k] = Weight(old.0 - 1);
                let verdict = scheme.verify_all(&cfg2, &labeling);
                assert!(!verdict.accepted(), "victim={victim} k={k}");
                detections += 1;
            }
        }
        assert!(detections > 50, "too few cases exercised: {detections}");
    }

    #[test]
    fn forged_orientation_rejected() {
        let (cfg, _) = gamma_config(50, 24, false);
        let scheme = PiGammaScheme::new();
        let honest = scheme.marker(&cfg).unwrap();
        let mut detections = 0;
        for victim in 0..50 {
            let v = NodeId(victim);
            let lv = honest.label(v).orient.len();
            for k in 0..lv {
                for flip in [Orient::Down, Orient::Up, Orient::SelfSep] {
                    if honest.label(v).orient[k] == flip {
                        continue;
                    }
                    let mut labeling = Labeling::from_labels(honest.labels().to_vec());
                    labeling.label_mut(v).orient[k] = flip;
                    let verdict = scheme.verify_all(&cfg, &labeling);
                    assert!(!verdict.accepted(), "victim={victim} k={k} flip={flip:?}");
                    detections += 1;
                }
            }
        }
        assert!(detections > 100);
    }

    #[test]
    fn orient_fields_shape() {
        let (_, tree) = gamma_config(40, 25, false);
        let sep = centroid_decomposition(&tree);
        let orients = orient_fields(&tree, &sep);
        for v in tree.nodes() {
            let o = &orients[v.index()];
            assert_eq!(o.len() as u32, sep.level(v));
            assert_eq!(*o.last().unwrap(), Orient::SelfSep);
            assert!(!o[..o.len() - 1].contains(&Orient::SelfSep));
        }
        // The decomposition root sees every separator below or at itself.
        let r = sep.root();
        assert_eq!(orients[r.index()], vec![Orient::SelfSep]);
    }

    #[test]
    fn path_example_with_guarded_parent() {
        // The worked example from the module docs: path r - v - w rooted at
        // r, decomposition levels r=1, w=2, v=3. v's level-2 separator (w)
        // is below it while v's parent r carries no level-2 field; the
        // guarded condition 3 must accept.
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), Weight(4)).unwrap(); // r - v
        g.add_edge(NodeId(1), NodeId(2), Weight(7)).unwrap(); // v - w
        let all: Vec<_> = g.edge_ids().collect();
        let states = tree_states(&g, &all, NodeId(0)).unwrap();
        let tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
        let levels = vec![1u32, 3, 2];
        let ranks = vec![0u32, 0, 0];
        let sep = reconstruct_decomposition(&tree, &levels, &ranks).unwrap();
        assert_eq!(sep.root(), NodeId(0));
        assert_eq!(sep.level(NodeId(1)), 3);
        let gammas = max_labels(&tree, &sep);
        let full: Vec<PiGammaState> = states
            .iter()
            .zip(gammas)
            .map(|(ts, gamma)| PiGammaState {
                id: ts.id,
                parent_port: ts.parent_port,
                gamma,
            })
            .collect();
        let cfg = ConfigGraph::new(g, full).unwrap();
        let scheme = PiGammaScheme::new();
        let labeling = scheme.marker(&cfg).unwrap();
        // v (node 1) has orientation [Up, Down, SelfSep].
        assert_eq!(
            labeling.label(NodeId(1)).orient,
            vec![Orient::Up, Orient::Down, Orient::SelfSep]
        );
        assert!(scheme.verify_all(&cfg, &labeling).accepted());
        let _ = TreeState::root(0); // keep import used
    }

    #[test]
    fn label_sizes_are_near_state_sizes() {
        // Lemma 3.3: the proof adds only a constant factor over the states.
        let (cfg, tree) = gamma_config(300, 26, false);
        let scheme = PiGammaScheme::new();
        let labeling = scheme.marker(&cfg).unwrap();
        let gamma_codec = LabelCodec::for_tree(&tree, SepFieldCodec::EliasGamma);
        let max_state_bits = (0..300)
            .map(|i| gamma_codec.encode_max(&cfg.state(NodeId(i)).gamma).len())
            .max()
            .unwrap();
        assert!(labeling.max_label_bits() <= 4 * max_state_bits + 64);
    }
}
