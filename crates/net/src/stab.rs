//! The self-stabilizing maintenance loop on the concurrent runtime.
//!
//! Every cycle runs the one-round verification protocol on the wire,
//! under whatever fault schedule the supplied [`Link`] imposes. When a
//! node rejects, the network rebuilds its MST and labels with
//! [`run_compute`] — GHS, the distributed marker, and the embedded
//! verification — on the same link and worker pool. Detection and
//! recomputation are measured by one runtime in one unit, causal
//! rounds, which is the split the paper's self-stabilization argument
//! rests on: local verification costs one round, recomputation is a
//! global, many-round job.

use mstv_core::{
    mst_configuration, Labeling, MarkerError, MessageCost, MstLabel, MstScheme, ProofLabelingScheme,
};
use mstv_graph::{ConfigGraph, Graph, NodeId, TreeState};

use crate::compute::run_compute;
use crate::error::NetError;
use crate::link::Link;
use crate::machine::MstWireScheme;
use crate::runtime::{run_verification_with, Engine, NetConfig, NetRun};

/// What a maintenance cycle over the runtime observed and did.
#[derive(Debug, Clone)]
pub enum NetStabOutcome {
    /// Every verifier accepted; the labels stand.
    Clean {
        /// The verification run (verdict, wire cost, replayable log).
        verify: NetRun,
    },
    /// Some verifier rejected; the MST was recomputed and relabelled.
    Recovered {
        /// Nodes that raised the alarm.
        detectors: Vec<NodeId>,
        /// The verification run that caught the fault.
        verify: NetRun,
        /// Cost of the distributed recomputation: the whole
        /// [`run_compute`] run, its embedded verification included.
        recompute_cost: MessageCost,
    },
}

impl NetStabOutcome {
    /// Whether the cycle found a fault.
    pub fn fault_detected(&self) -> bool {
        matches!(self, NetStabOutcome::Recovered { .. })
    }
}

/// A network maintaining an MST with proof labels, verified over the
/// concurrent runtime.
#[derive(Debug, Clone)]
pub struct NetSelfStab {
    cfg: ConfigGraph<TreeState>,
    labeling: Labeling<MstLabel>,
}

impl NetSelfStab {
    /// Bootstraps the network: computes an MST of `graph`, installs the
    /// distributed representation rooted at node 0, and labels it.
    ///
    /// # Errors
    ///
    /// [`NetError::Marker`] with [`MarkerError::NotSpanning`] if the
    /// graph is empty or disconnected.
    pub fn new(graph: Graph) -> Result<Self, NetError> {
        if graph.num_nodes() == 0 || !graph.is_connected() {
            return Err(NetError::Marker(MarkerError::NotSpanning));
        }
        let cfg = mst_configuration(graph);
        let labeling = MstScheme::new().marker(&cfg).map_err(NetError::Marker)?;
        Ok(NetSelfStab { cfg, labeling })
    }

    /// Assembles a network from an existing configuration and labeling
    /// — the entry point for adversarial scenarios, where the starting
    /// state is a *forged* or otherwise corrupted labeling rather than
    /// a fresh marker run.
    pub fn from_parts(cfg: ConfigGraph<TreeState>, labeling: Labeling<MstLabel>) -> Self {
        NetSelfStab { cfg, labeling }
    }

    /// The current configuration (states + graph).
    pub fn config(&self) -> &ConfigGraph<TreeState> {
        &self.cfg
    }

    /// Mutable access for fault injection between cycles.
    pub fn config_mut(&mut self) -> &mut ConfigGraph<TreeState> {
        &mut self.cfg
    }

    /// The current labels.
    pub fn labeling(&self) -> &Labeling<MstLabel> {
        &self.labeling
    }

    /// Whether the current states encode an MST of the current graph.
    pub fn invariant_holds(&self) -> bool {
        mstv_mst::is_mst(self.cfg.graph(), &self.cfg.induced_edges())
    }

    /// One maintenance cycle: a live verification round over `link` on
    /// the host-sized worker pool; on rejection, distributed
    /// recomputation and relabeling over the same link.
    ///
    /// # Errors
    ///
    /// As [`NetSelfStab::cycle_with`].
    pub fn cycle(
        &mut self,
        link: &mut dyn Link,
        net: NetConfig,
    ) -> Result<NetStabOutcome, NetError> {
        self.cycle_with(link, net, Engine::default())
    }

    /// [`NetSelfStab::cycle`] on a worker pool of a chosen size. A
    /// rejection is answered by [`run_compute`] on the same link and
    /// pool, whose states and labels — bit-identical to the centralized
    /// marker's on the current graph — replace the network's.
    ///
    /// # Errors
    ///
    /// [`NetError::NoConvergence`] or [`NetError::WorkerDied`] from
    /// either run; [`NetError::Marker`] with
    /// [`MarkerError::NotSpanning`] if a rejection must be answered on a
    /// graph that has become disconnected, which has no spanning tree
    /// to rebuild.
    pub fn cycle_with(
        &mut self,
        link: &mut dyn Link,
        net: NetConfig,
        engine: Engine,
    ) -> Result<NetStabOutcome, NetError> {
        let wire = MstWireScheme::for_config(&self.cfg);
        let verify = run_verification_with(&wire, &self.cfg, &self.labeling, link, net, engine)?;
        if verify.verdict.accepted() {
            return Ok(NetStabOutcome::Clean { verify });
        }
        if !self.cfg.graph().is_connected() {
            return Err(NetError::Marker(MarkerError::NotSpanning));
        }
        let rebuilt = run_compute(self.cfg.graph(), link, net, engine)?;
        for (v, state) in rebuilt.states.into_iter().enumerate() {
            *self.cfg.state_mut(NodeId(v as u32)) = state;
        }
        self.labeling = rebuilt.labeling;
        Ok(NetStabOutcome::Recovered {
            detectors: verify.verdict.rejecting.clone(),
            verify,
            recompute_cost: rebuilt.net.cost,
        })
    }
}
