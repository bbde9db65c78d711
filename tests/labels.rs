//! The label stack, pinned at the root: the snapshot bytes of the store's
//! golden tree, batch-versus-walk identity for every `Γ` family, and the
//! Lemma 3.3 checker accepting honest proofs and rejecting one forged
//! aggregate field per family.

use std::num::NonZeroUsize;

use mst_verification::core::{
    max_st_configuration, mst_configuration, Labeling, MaxStScheme, MstScheme, PiDistScheme,
    PiDistState, PiGammaScheme, PiGammaState, ProofLabelingScheme,
};
use mst_verification::graph::{gen, tree_states, ConfigGraph, Graph, NodeId, TreeState};
use mst_verification::labels::{
    dist_labels, dist_labels_parallel, flow_labels_parallel, max_labels, max_labels_parallel,
    walk_labels, SepFieldCodec,
};
use mst_verification::store::{Snapshot, SnapshotFormat};
use mst_verification::trees::{
    centroid_decomposition, first_vertex_decomposition, random_decomposition, ParallelConfig,
    RootedTree,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const GOLDEN_V1: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/crates/store/tests/fixtures/golden.snap"
);
const GOLDEN_V2: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/crates/store/tests/fixtures/golden_v2.snap"
);

fn tree_of(n: usize, max_w: u64, seed: u64) -> RootedTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::random_tree(n, gen::WeightDist::Uniform { max: max_w }, &mut rng);
    RootedTree::from_graph(&g, NodeId(0)).unwrap()
}

#[test]
fn snapshot_of_the_golden_tree_matches_both_fixtures() {
    // The tree of crates/store/tests/golden.rs; this test only reads the
    // committed fixtures.
    let mut rng = StdRng::seed_from_u64(0x00C0_FFEE);
    let g = gen::random_tree(96, gen::WeightDist::Uniform { max: 5000 }, &mut rng);
    let tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
    let snap = Snapshot::build(&tree, SepFieldCodec::EliasGamma);
    assert!(
        snap.to_bytes() == std::fs::read(GOLDEN_V1).unwrap(),
        "v1 snapshot bytes drifted from golden.snap"
    );
    assert!(
        snap.to_bytes_format(SnapshotFormat::V2) == std::fs::read(GOLDEN_V2).unwrap(),
        "v2 snapshot bytes drifted from golden_v2.snap"
    );
}

#[test]
fn batch_builders_equal_the_walk_for_every_family() {
    let mut rng = StdRng::seed_from_u64(5);
    for (n, seed) in [(1usize, 1u64), (2, 2), (29, 3), (150, 4)] {
        let t = tree_of(n, 900, seed);
        for sep in [
            centroid_decomposition(&t),
            first_vertex_decomposition(&t),
            random_decomposition(&t, &mut rng),
        ] {
            for threads in [1usize, 3] {
                let pc = ParallelConfig::with_threads(NonZeroUsize::new(threads).unwrap());
                let max = max_labels_parallel(&t, &sep, pc);
                let flow = flow_labels_parallel(&t, &sep, pc);
                let dist = dist_labels_parallel(&t, &sep, pc);
                for v in t.nodes() {
                    let (m, f, d) = walk_labels(&t, &sep, v);
                    let i = v.index();
                    assert_eq!(max[i], m, "MAX n={n} v={v} threads={threads}");
                    assert_eq!(flow[i], f, "FLOW n={n} v={v} threads={threads}");
                    assert_eq!(dist[i], d, "DIST n={n} v={v} threads={threads}");
                }
            }
        }
    }
}

/// A node with a field below its own level, and that field's index.
fn below_own_level(levels: impl Iterator<Item = usize>) -> (NodeId, usize) {
    let (v, _) = levels
        .enumerate()
        .find(|&(_, l)| l >= 2)
        .expect("some node sits below the decomposition root");
    (NodeId(v as u32), 0)
}

#[test]
fn mst_and_maxst_proofs_reject_one_forged_aggregate_field() {
    let mut rng = StdRng::seed_from_u64(8);
    let g = gen::random_connected(60, 90, gen::WeightDist::Uniform { max: 400 }, &mut rng);

    // π_mst: MAX fields.
    let cfg = mst_configuration(g.clone());
    let honest = MstScheme.marker(&cfg).unwrap();
    assert!(MstScheme.verify_all(&cfg, &honest).accepted());
    let (v, k) = below_own_level(honest.labels().iter().map(|l| l.gamma.level()));
    let mut forged = Labeling::from_labels(honest.labels().to_vec());
    forged.label_mut(v).gamma.omega[k].0 += 1;
    assert!(MstScheme.verify_all(&cfg, &forged).rejecting.contains(&v));

    // π_maxst: FLOW fields.
    let cfg = max_st_configuration(g);
    let honest = MaxStScheme.marker(&cfg).unwrap();
    assert!(MaxStScheme.verify_all(&cfg, &honest).accepted());
    let (v, k) = below_own_level(honest.labels().iter().map(|l| l.flow.level()));
    let mut forged = Labeling::from_labels(honest.labels().to_vec());
    forged.label_mut(v).flow.phi[k].0 += 1;
    assert!(MaxStScheme.verify_all(&cfg, &forged).rejecting.contains(&v));
}

/// A random weighted tree as a configuration graph, with the tree states
/// rooted at node 0.
fn tree_config(n: usize, seed: u64) -> (Graph, RootedTree, Vec<TreeState>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::random_tree(n, gen::WeightDist::Uniform { max: 70 }, &mut rng);
    let all: Vec<_> = g.edge_ids().collect();
    let states = tree_states(&g, &all, NodeId(0)).unwrap();
    let tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
    (g, tree, states)
}

#[test]
fn gamma_and_dist_proofs_reject_one_forged_aggregate_field() {
    // π_Γ: states claim MAX labels; the forgery edits state and label
    // copy alike, so condition 1 holds and conditions 7/8 must catch it.
    let (g, tree, states) = tree_config(50, 9);
    let sep = centroid_decomposition(&tree);
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
    let honest = PiGammaScheme.marker(&cfg).unwrap();
    assert!(PiGammaScheme.verify_all(&cfg, &honest).accepted());
    let (v, k) = below_own_level(honest.labels().iter().map(|l| l.copy.level()));
    let mut forged = Labeling::from_labels(honest.labels().to_vec());
    let mut forged_cfg = cfg.clone();
    forged.label_mut(v).copy.omega[k].0 += 1;
    forged_cfg.state_mut(v).gamma = forged.label(v).copy.clone();
    assert!(PiGammaScheme
        .verify_all(&forged_cfg, &forged)
        .rejecting
        .contains(&v));

    // π_dist: DIST fields, the same way.
    let (g, tree, states) = tree_config(50, 10);
    let sep = centroid_decomposition(&tree);
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
    let cfg = ConfigGraph::new(g, full).unwrap();
    let honest = PiDistScheme.marker(&cfg).unwrap();
    assert!(PiDistScheme.verify_all(&cfg, &honest).accepted());
    let (v, k) = below_own_level(honest.labels().iter().map(|l| l.copy.level()));
    let mut forged = Labeling::from_labels(honest.labels().to_vec());
    let mut forged_cfg = cfg.clone();
    forged.label_mut(v).copy.delta[k] += 1;
    forged_cfg.state_mut(v).dist = forged.label(v).copy.clone();
    assert!(PiDistScheme
        .verify_all(&forged_cfg, &forged)
        .rejecting
        .contains(&v));
}
