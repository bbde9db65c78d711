//! The self-stabilizing maintenance loop, ported onto the concurrent
//! runtime.
//!
//! Same shape as [`mstv_distsim::SelfStabilizingMst`], but the
//! verification round runs on the message-passing runtime — under
//! whatever fault schedule the supplied [`Link`] imposes — instead of
//! on the idealized shared-memory simulator. Detection cost is the
//! measured wire cost; recovery still uses the synchronous distributed
//! Borůvka (rebuilding a tree over lossy links is future work, and the
//! paper's split — cheap local verification, expensive global
//! recomputation — is what the numbers are meant to show anyway).

use mstv_core::{
    mst_configuration, Labeling, MessageCost, MstLabel, MstScheme, ProofLabelingScheme,
};
use mstv_distsim::distributed_boruvka;
use mstv_graph::{tree_states, ConfigGraph, Graph, NodeId, TreeState};

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
        /// Cost of the distributed recomputation.
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
    /// distributed representation, and labels it.
    ///
    /// # Panics
    ///
    /// Panics if the graph is not connected.
    pub fn new(graph: Graph) -> Self {
        let cfg = mst_configuration(graph);
        let labeling = MstScheme::new().marker(&cfg).expect("fresh MST must label");
        NetSelfStab { cfg, labeling }
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

    /// Mutable labels, so tests can corrupt a certificate.
    pub fn labeling_mut(&mut self) -> &mut Labeling<MstLabel> {
        &mut self.labeling
    }

    /// Whether the current states encode an MST of the current graph.
    pub fn invariant_holds(&self) -> bool {
        mstv_mst::is_mst(self.cfg.graph(), &self.cfg.induced_edges())
    }

    /// One maintenance cycle: a live verification round over `link` on
    /// the host-sized worker pool; on rejection, distributed
    /// recomputation plus relabeling.
    ///
    /// # Errors
    ///
    /// Propagates [`NetError::NoConvergence`] from the verification
    /// round.
    pub fn cycle(
        &mut self,
        link: &mut dyn Link,
        net: NetConfig,
    ) -> Result<NetStabOutcome, NetError> {
        self.cycle_with(link, net, Engine::default())
    }

    /// [`NetSelfStab::cycle`] with the verification round on a worker
    /// pool of a chosen size.
    ///
    /// # Errors
    ///
    /// Propagates [`NetError::NoConvergence`] from the verification
    /// round.
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
        let detectors = verify.verdict.rejecting.clone();
        let run = distributed_boruvka(self.cfg.graph());
        let states = tree_states(self.cfg.graph(), &run.edges, NodeId(0))
            .expect("Borůvka returns a spanning tree");
        let graph = self.cfg.graph().clone();
        self.cfg = ConfigGraph::new(graph, states).expect("state count matches");
        self.labeling = MstScheme::new()
            .marker(&self.cfg)
            .expect("recomputed MST must label");
        Ok(NetStabOutcome::Recovered {
            detectors,
            verify,
            recompute_cost: run.stats,
        })
    }
}
