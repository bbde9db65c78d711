//! Incremental re-verification sessions.
//!
//! The paper's central observation is that verification is *local*: node
//! `v`'s verdict is a pure function of `N_L(v)` — its own state and
//! label, plus the port, weight, and neighbor **label** of each incident
//! edge. A small mutation therefore invalidates only a small **dirty
//! frontier** of cached verdicts:
//!
//! | mutation                    | who can see it             | frontier     |
//! |-----------------------------|----------------------------|--------------|
//! | edge weight change on `e`   | the two endpoints of `e`   | `{u, v}`     |
//! | label change at `v`         | `v` and everyone who reads | `{v} ∪ N(v)` |
//! |                             | `v`'s label — its neighbors|              |
//! | state change at `v` (e.g. a | only `v` itself — states   | `{v}`        |
//! | flipped parent pointer)     | are invisible to neighbors |              |
//!
//! [`VerifySession`] owns a configuration and a labeling, runs one full
//! pass, then keeps the [`Verdict`] current across a stream of
//! [`Mutation`]s by re-running verifiers on dirty frontiers only —
//! the mechanism the self-stabilizing follow-up work exploits, here as a
//! long-lived query-serving handle. Every pass is recorded in a
//! [`SessionMetrics`] block so experiments can report exactly how much
//! work incrementality avoided.

use std::collections::BTreeSet;
use std::time::Instant;

use mstv_graph::{ConfigGraph, EdgeId, GraphError, NodeId, ParentPointer, Port, Weight};

use crate::framework::{try_local_view, Labeling, MarkerError, ProofLabelingScheme, Verdict};
use crate::metrics::SessionMetrics;

/// A single replayable edit to the configuration or its labeling.
///
/// The label payload of [`Mutation::CorruptLabel`] is carried in the
/// mutation itself, so a mutation script is self-contained and can be
/// replayed against a fresh session.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation<L> {
    /// Replace the weight of an edge. Frontier: the two endpoints.
    SetWeight {
        /// The edge to reweight.
        edge: EdgeId,
        /// The new (positive) weight.
        weight: Weight,
    },
    /// Overwrite the label of a node — the adversary of the PLS
    /// soundness game. Frontier: the node and all its neighbors.
    CorruptLabel {
        /// The node whose label is replaced.
        node: NodeId,
        /// The replacement label.
        label: L,
    },
    /// Repoint a node's parent pointer (or make it a root), flipping
    /// which tree edge its state induces. Frontier: the node itself —
    /// states are invisible to neighboring verifiers.
    FlipTreeEdge {
        /// The node whose pointer moves.
        node: NodeId,
        /// The new parent port (`None` = become a root).
        new_parent: Option<Port>,
    },
    /// Restore a node's label to the marker's original assignment.
    /// Frontier: the node and all its neighbors.
    RestoreLabel {
        /// The node whose label is restored.
        node: NodeId,
    },
}

/// A long-lived incremental verification handle.
///
/// # Example
///
/// ```
/// use mstv_core::{mst_configuration, MstScheme, VerifySession};
/// use mstv_graph::{Graph, NodeId, Weight};
///
/// let mut g = Graph::new(3);
/// g.add_edge(NodeId(0), NodeId(1), Weight(1)).unwrap();
/// g.add_edge(NodeId(1), NodeId(2), Weight(2)).unwrap();
/// let cfg = mst_configuration(g);
///
/// let mut session = VerifySession::new(MstScheme::new(), cfg).unwrap();
/// assert!(session.verdict().accepted());
///
/// // Corrupt one label: only that node and its neighbors re-verify.
/// let forged = session.labeling().label(NodeId(2)).clone();
/// session.corrupt_label(NodeId(0), forged);
/// assert!(!session.verdict().accepted());
///
/// session.restore_label(NodeId(0));
/// assert!(session.verdict().accepted());
/// assert!(session.metrics().nodes_skipped > 0);
/// ```
pub struct VerifySession<P: ProofLabelingScheme> {
    scheme: P,
    cfg: ConfigGraph<P::State>,
    labeling: Labeling<P::Label>,
    pristine: Vec<P::Label>,
    passing: Vec<bool>,
    metrics: SessionMetrics,
}

impl<P: ProofLabelingScheme> VerifySession<P>
where
    P::Label: Clone,
{
    /// Labels `cfg` with the scheme's marker and runs the initial full
    /// verification pass.
    ///
    /// # Errors
    ///
    /// Returns the marker's [`MarkerError`] when `cfg` does not satisfy
    /// the scheme's predicate (no session exists in that case; use
    /// [`VerifySession::with_labeling`] to study arbitrary label
    /// assignments on arbitrary configurations).
    pub fn new(scheme: P, cfg: ConfigGraph<P::State>) -> Result<Self, MarkerError> {
        let mut metrics = SessionMetrics::new();
        let t0 = Instant::now();
        let labeling = scheme.marker(&cfg)?;
        metrics.add_marker_time(t0.elapsed());
        Ok(Self::start(scheme, cfg, labeling, metrics))
    }

    /// Starts a session from an externally produced labeling (possibly
    /// adversarial) and runs the initial full verification pass.
    ///
    /// # Panics
    ///
    /// Panics if the labeling does not have one label per node.
    pub fn with_labeling(
        scheme: P,
        cfg: ConfigGraph<P::State>,
        labeling: Labeling<P::Label>,
    ) -> Self {
        Self::start(scheme, cfg, labeling, SessionMetrics::new())
    }

    fn start(
        scheme: P,
        cfg: ConfigGraph<P::State>,
        labeling: Labeling<P::Label>,
        mut metrics: SessionMetrics,
    ) -> Self {
        assert_eq!(
            labeling.labels().len(),
            cfg.graph().num_nodes(),
            "one label per node required"
        );
        metrics.max_label_bits = labeling.max_label_bits() as u64;
        metrics.total_label_bits = labeling.total_bits() as u64;
        let pristine = labeling.labels().to_vec();
        let mut session = VerifySession {
            scheme,
            cfg,
            labeling,
            pristine,
            passing: Vec::new(),
            metrics,
        };
        session.full_verify();
        session
    }

    /// The current verdict, as maintained incrementally.
    pub fn verdict(&self) -> Verdict {
        Verdict {
            rejecting: self
                .passing
                .iter()
                .enumerate()
                .filter(|&(_, &ok)| !ok)
                .map(|(i, _)| NodeId::from_index(i))
                .collect(),
            num_nodes: self.passing.len(),
        }
    }

    /// The configuration under verification.
    pub fn config(&self) -> &ConfigGraph<P::State> {
        &self.cfg
    }

    /// The current (possibly corrupted) labeling.
    pub fn labeling(&self) -> &Labeling<P::Label> {
        &self.labeling
    }

    /// The scheme driving this session.
    pub fn scheme(&self) -> &P {
        &self.scheme
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &SessionMetrics {
        &self.metrics
    }

    /// Releases the configuration and labeling.
    pub fn into_parts(self) -> (ConfigGraph<P::State>, Labeling<P::Label>) {
        (self.cfg, self.labeling)
    }

    /// Re-runs the verifier at **every** node from scratch, refreshing
    /// every cached verdict. Called once at construction; callers can use
    /// it to cross-check the incremental state.
    pub fn full_verify(&mut self) -> Verdict {
        let n = self.cfg.graph().num_nodes();
        let t0 = Instant::now();
        self.passing = (0..n)
            .map(|i| self.check_node(NodeId::from_index(i)))
            .collect();
        self.metrics.add_verify_time(t0.elapsed());
        self.metrics.full_runs += 1;
        self.metrics.nodes_verified += n as u64;
        self.verdict()
    }

    /// Applies one [`Mutation`] and refreshes exactly its dirty frontier.
    ///
    /// Returns the updated verdict.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] (leaving configuration, labeling, and
    /// cached verdicts unchanged) when the mutation references an edge,
    /// node, or port that does not exist, or a zero weight.
    pub fn apply(&mut self, mutation: Mutation<P::Label>) -> Result<Verdict, GraphError>
    where
        P::State: ParentPointer,
    {
        match mutation {
            Mutation::SetWeight { edge, weight } => self.set_weight(edge, weight),
            Mutation::CorruptLabel { node, label } => {
                self.check_node_id(node)?;
                Ok(self.corrupt_label(node, label))
            }
            Mutation::FlipTreeEdge { node, new_parent } => self.flip_tree_edge(node, new_parent),
            Mutation::RestoreLabel { node } => {
                self.check_node_id(node)?;
                Ok(self.restore_label(node))
            }
        }
    }

    /// Replaces the weight of `edge` and re-verifies its two endpoints —
    /// the only verifiers whose view contains the weight.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if `edge` is out of range or `weight` is
    /// zero; nothing changes in that case.
    pub fn set_weight(&mut self, edge: EdgeId, weight: Weight) -> Result<Verdict, GraphError> {
        let m = self.cfg.graph().num_edges();
        if edge.index() >= m {
            return Err(GraphError::EdgeOutOfRange { edge, m });
        }
        if weight == Weight::ZERO {
            return Err(GraphError::ZeroWeight);
        }
        let e = self.cfg.graph().edge(edge);
        self.cfg.set_weight(edge, weight);
        Ok(self.finish_mutation([e.u, e.v].into_iter().collect()))
    }

    /// Overwrites the label of `node` (the PLS soundness adversary) and
    /// re-verifies the node plus every neighbor that reads the label.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn corrupt_label(&mut self, node: NodeId, label: P::Label) -> Verdict {
        *self.labeling.label_mut(node) = label;
        self.finish_mutation(self.label_frontier(node))
    }

    /// Restores the marker's original label at `node` and re-verifies the
    /// node plus its neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn restore_label(&mut self, node: NodeId) -> Verdict {
        *self.labeling.label_mut(node) = self.pristine[node.index()].clone();
        self.finish_mutation(self.label_frontier(node))
    }

    /// Edits the label of `node` in place through `f` and re-verifies the
    /// node plus its neighbors. This is the general form of
    /// [`VerifySession::corrupt_label`] for corruption loops that flip
    /// individual label fields.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn mutate_label(&mut self, node: NodeId, f: impl FnOnce(&mut P::Label)) -> Verdict {
        f(self.labeling.label_mut(node));
        self.finish_mutation(self.label_frontier(node))
    }

    /// Edits the **state** of `node` in place through `f` and re-verifies
    /// the node alone: states are invisible to neighboring verifiers, so
    /// the frontier is `{node}`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn mutate_state(&mut self, node: NodeId, f: impl FnOnce(&mut P::State)) -> Verdict {
        f(self.cfg.state_mut(node));
        self.finish_mutation([node].into_iter().collect())
    }

    /// Repoints the parent pointer of `node` and re-verifies the node
    /// alone (a state-only change).
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if `node` is out of range or the port
    /// does not exist at `node`; nothing changes in that case.
    pub fn flip_tree_edge(
        &mut self,
        node: NodeId,
        new_parent: Option<Port>,
    ) -> Result<Verdict, GraphError>
    where
        P::State: ParentPointer,
    {
        self.cfg.retarget_parent(node, new_parent)?;
        Ok(self.finish_mutation([node].into_iter().collect()))
    }

    /// `{node} ∪ N(node)` — the frontier of a label change.
    fn label_frontier(&self, node: NodeId) -> BTreeSet<NodeId> {
        let mut frontier: BTreeSet<NodeId> =
            self.cfg.graph().neighbors(node).map(|nb| nb.node).collect();
        frontier.insert(node);
        frontier
    }

    /// Re-verifies exactly `frontier`, reusing every other cached
    /// verdict, and updates the metrics.
    fn finish_mutation(&mut self, frontier: BTreeSet<NodeId>) -> Verdict {
        let n = self.cfg.graph().num_nodes();
        let t0 = Instant::now();
        for &v in &frontier {
            self.passing[v.index()] = self.check_node(v);
        }
        self.metrics.add_verify_time(t0.elapsed());
        self.metrics.mutations_applied += 1;
        self.metrics.incremental_runs += 1;
        self.metrics.nodes_verified += frontier.len() as u64;
        self.metrics.nodes_skipped += (n - frontier.len()) as u64;
        self.metrics.frontier_sizes.record(frontier.len() as u64);
        self.verdict()
    }

    fn check_node(&self, v: NodeId) -> bool {
        let view = try_local_view(&self.cfg, self.labeling.labels(), v)
            .unwrap_or_else(|e| panic!("cannot build local view: {e}"));
        self.scheme.verify(&view)
    }

    fn check_node_id(&self, v: NodeId) -> Result<(), GraphError> {
        let n = self.cfg.graph().num_nodes();
        if v.index() >= n {
            return Err(GraphError::NodeOutOfRange { node: v, n });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mst_configuration, MstScheme};
    use mstv_graph::{gen, Graph, TreeState};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn session_for(seed: u64, n: usize) -> VerifySession<MstScheme> {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_connected(n, 2 * n, gen::WeightDist::Uniform { max: 100 }, &mut rng);
        let cfg = mst_configuration(g);
        VerifySession::new(MstScheme::new(), cfg).unwrap()
    }

    #[test]
    fn initial_pass_accepts_and_counts() {
        let s = session_for(1, 20);
        assert!(s.verdict().accepted());
        assert_eq!(s.metrics().full_runs, 1);
        assert_eq!(s.metrics().nodes_verified, 20);
        assert_eq!(s.metrics().incremental_runs, 0);
        assert!(s.metrics().marker_nanos > 0);
        assert!(s.metrics().total_label_bits > 0);
    }

    #[test]
    fn corrupt_and_restore_round_trip() {
        let mut s = session_for(2, 25);
        let forged = s.labeling().label(NodeId(5)).clone();
        let v = s.corrupt_label(NodeId(0), forged);
        // Cross-check the incremental verdict against a scratch pass.
        let scheme = MstScheme::new();
        assert_eq!(v, scheme.verify_all(s.config(), s.labeling()));
        let v = s.restore_label(NodeId(0));
        assert!(v.accepted());
        assert_eq!(s.metrics().mutations_applied, 2);
        assert_eq!(s.metrics().incremental_runs, 2);
        assert!(s.metrics().nodes_skipped > 0);
    }

    #[test]
    fn set_weight_reverifies_endpoints_only() {
        let mut s = session_for(3, 30);
        let before = s.metrics().nodes_verified;
        let v = s.set_weight(EdgeId(0), Weight(1_000_000)).unwrap();
        let delta = s.metrics().nodes_verified - before;
        assert_eq!(delta, 2, "exactly the two endpoints re-verify");
        let scheme = MstScheme::new();
        assert_eq!(v, scheme.verify_all(s.config(), s.labeling()));
    }

    #[test]
    fn set_weight_rejects_bad_inputs_without_side_effects() {
        let mut s = session_for(4, 10);
        let m = s.config().graph().num_edges();
        let before = s.verdict();
        assert!(matches!(
            s.set_weight(EdgeId(m as u32), Weight(5)),
            Err(GraphError::EdgeOutOfRange { .. })
        ));
        assert!(matches!(
            s.set_weight(EdgeId(0), Weight::ZERO),
            Err(GraphError::ZeroWeight)
        ));
        assert_eq!(s.verdict(), before);
        assert_eq!(s.metrics().mutations_applied, 0);
    }

    #[test]
    fn flip_tree_edge_is_state_local() {
        let mut s = session_for(5, 30);
        let node = NodeId(3);
        let degree = s.config().graph().degree(node);
        let old = s.config().state(node).parent_port;
        // Point somewhere else (any port different from the current one).
        let new = (0..degree)
            .map(|p| Some(Port(p as u32)))
            .chain([None])
            .find(|&p| p != old)
            .unwrap();
        let before = s.metrics().nodes_verified;
        let v = s.apply(Mutation::FlipTreeEdge {
            node,
            new_parent: new,
        });
        let v = v.unwrap();
        assert_eq!(s.metrics().nodes_verified - before, 1);
        let scheme = MstScheme::new();
        assert_eq!(v, scheme.verify_all(s.config(), s.labeling()));
    }

    #[test]
    fn flip_tree_edge_rejects_missing_port() {
        let mut s = session_for(6, 10);
        let node = NodeId(0);
        let degree = s.config().graph().degree(node);
        assert!(s.flip_tree_edge(node, Some(Port(degree as u32))).is_err());
        assert!(s.verdict().accepted(), "failed mutation must not dirty");
    }

    #[test]
    fn mutation_script_replays_identically() {
        let make = || session_for(7, 20);
        let mut a = make();
        let mut b = make();
        let forged = a.labeling().label(NodeId(1)).clone();
        let script = vec![
            Mutation::SetWeight {
                edge: EdgeId(2),
                weight: Weight(77),
            },
            Mutation::CorruptLabel {
                node: NodeId(4),
                label: forged,
            },
            Mutation::RestoreLabel { node: NodeId(4) },
        ];
        for m in &script {
            let va = a.apply(m.clone()).unwrap();
            let vb = b.apply(m.clone()).unwrap();
            assert_eq!(va, vb);
        }
        // Every deterministic metric matches (wall-clock naturally varies).
        assert_eq!(a.metrics().nodes_verified, b.metrics().nodes_verified);
        assert_eq!(a.metrics().nodes_skipped, b.metrics().nodes_skipped);
        assert_eq!(a.metrics().frontier_sizes, b.metrics().frontier_sizes);
    }

    #[test]
    fn with_labeling_accepts_forged_input() {
        let mut rng = StdRng::seed_from_u64(8);
        let g1 = gen::random_connected(12, 20, gen::WeightDist::Uniform { max: 50 }, &mut rng);
        let g2 = gen::random_connected(12, 20, gen::WeightDist::Uniform { max: 50 }, &mut rng);
        let cfg1 = mst_configuration(g1);
        let cfg2 = mst_configuration(g2);
        let scheme = MstScheme::new();
        let forged = scheme.marker(&cfg2).unwrap();
        let s = VerifySession::with_labeling(MstScheme::new(), cfg1, forged);
        // A forged labeling for a different network is detected somewhere.
        assert!(!s.verdict().accepted());
        assert_eq!(s.metrics().full_runs, 1);
    }

    #[test]
    fn mutate_state_frontier_is_one() {
        let mut s = session_for(9, 15);
        let before = s.metrics().nodes_verified;
        s.mutate_state(NodeId(2), |st: &mut TreeState| st.id ^= 1);
        assert_eq!(s.metrics().nodes_verified - before, 1);
        let scheme = MstScheme::new();
        assert_eq!(s.verdict(), scheme.verify_all(s.config(), s.labeling()));
    }

    #[test]
    fn path_graph_frontier_sizes_recorded() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), Weight(1)).unwrap();
        g.add_edge(NodeId(1), NodeId(2), Weight(2)).unwrap();
        g.add_edge(NodeId(2), NodeId(3), Weight(3)).unwrap();
        let cfg = mst_configuration(g);
        let mut s = VerifySession::new(MstScheme::new(), cfg).unwrap();
        let forged = s.labeling().label(NodeId(3)).clone();
        s.corrupt_label(NodeId(0), forged); // frontier {0, 1} on a path
        let h = &s.metrics().frontier_sizes;
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 2);
        let json = s.metrics().to_json();
        assert!(json.contains("\"frontier_sizes\""));
    }
}
