//! The label stack, pinned at the root: the snapshot bytes of the store's
//! golden tree, batch-versus-walk identity for every `Γ` family, the one
//! `Γ` pass against the per-family schemes' encodings, and the Lemma 3.3
//! checker accepting honest proofs and rejecting one forged aggregate
//! field per family.

use std::num::NonZeroUsize;

use mst_verification::core::{
    max_st_configuration, mst_configuration, Labeling, MaxStScheme, MstScheme, PiDistScheme,
    PiDistState, PiGammaScheme, PiGammaState, ProofLabelingScheme,
};
use mst_verification::graph::{gen, tree_states, ConfigGraph, Graph, NodeId, TreeState, Weight};
use mst_verification::labels::{
    dist_labels, dist_labels_parallel, flow_labels_parallel, max_labels, max_labels_parallel,
    walk_labels, GammaPass, ImplicitDistScheme, ImplicitFlowScheme, ImplicitMaxScheme, LabelCodec,
    SepFieldCodec,
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

/// A tree hung from node 0 with `parent(i)` and weight `weight(i)` for
/// every other node `i`.
fn tree_from(
    n: usize,
    parent: impl Fn(usize) -> usize,
    weight: impl Fn(usize) -> u64,
) -> RootedTree {
    let parents = (0..n)
        .map(|i| (i > 0).then(|| (NodeId(parent(i) as u32), Weight(weight(i)))))
        .collect();
    RootedTree::from_parents(NodeId(0), parents).unwrap()
}

#[test]
fn one_gamma_pass_encodes_what_the_per_family_schemes_encode() {
    let one = ParallelConfig::with_threads(NonZeroUsize::MIN);
    let mut rng = StdRng::seed_from_u64(18);
    let mut trees: Vec<(String, RootedTree)> = [(1usize, 21u64), (2, 22), (17, 23), (300, 24)]
        .into_iter()
        .map(|(n, seed)| (format!("random n={n}"), tree_of(n, 1 << 20, seed)))
        .collect();
    trees.push((
        "path".into(),
        tree_from(64, |i| i - 1, |i| 1 + (i as u64 * 37) % 500),
    ));
    trees.push((
        "star".into(),
        tree_from(40, |_| 0, |i| 1 + (i as u64 * 53) % 900),
    ));
    for (name, t) in &trees {
        let rank_bits = (usize::BITS - t.num_nodes().leading_zeros()).max(1);
        for sep in [
            centroid_decomposition(t),
            first_vertex_decomposition(t),
            random_decomposition(t, &mut rng),
        ] {
            for sep_codec in [
                SepFieldCodec::EliasGamma,
                SepFieldCodec::FixedWidth { bits: rank_bits },
            ] {
                let enc =
                    GammaPass::build(t, &sep, one).encode(LabelCodec::for_tree(t, sep_codec), one);
                let max = ImplicitMaxScheme::with_decomposition(t, &sep, sep_codec);
                let flow = ImplicitFlowScheme::with_decomposition(t, &sep, sep_codec);
                let dist = ImplicitDistScheme::with_decomposition(t, &sep, sep_codec);
                let (delta_bits, dist_enc) = enc.dist.expect("the tree has distance labels");
                assert_eq!(delta_bits, dist.delta_bits(), "{name} {sep_codec:?}");
                for v in t.nodes() {
                    let i = v.index();
                    assert_eq!(
                        &enc.max[i],
                        max.encoded(v),
                        "MAX {name} {sep_codec:?} v={v}"
                    );
                    assert_eq!(
                        &enc.flow[i],
                        flow.encoded(v),
                        "FLOW {name} {sep_codec:?} v={v}"
                    );
                    assert_eq!(
                        &dist_enc[i],
                        dist.encoded(v),
                        "DIST {name} {sep_codec:?} v={v}"
                    );
                }
            }
        }
    }

    // A tree whose total weight overflows u64 keeps its MAX and FLOW
    // records and has no DIST labels, in the pass and in the snapshot.
    let heavy = tree_from(3, |_| 0, |_| u64::MAX / 2 + 1);
    let sep = centroid_decomposition(&heavy);
    let pass = GammaPass::build(&heavy, &sep, one);
    let enc = pass.encode(LabelCodec::for_tree(&heavy, SepFieldCodec::EliasGamma), one);
    assert!(enc.dist.is_none());
    assert!(pass.into_labels().2.is_none());
    let max = ImplicitMaxScheme::with_decomposition(&heavy, &sep, SepFieldCodec::EliasGamma);
    let flow = ImplicitFlowScheme::with_decomposition(&heavy, &sep, SepFieldCodec::EliasGamma);
    let snap = Snapshot::build(&heavy, SepFieldCodec::EliasGamma);
    assert!(snap.dist().is_none());
    for v in heavy.nodes() {
        assert_eq!(&enc.max[v.index()], max.encoded(v));
        assert_eq!(&enc.flow[v.index()], flow.encoded(v));
        assert_eq!(&snap.max_labels()[v.index()], max.encoded(v));
        assert_eq!(&snap.flow_labels()[v.index()], flow.encoded(v));
    }

    // The snapshot builder fans the pass out without moving a byte; the
    // 3000-node tree is past the decomposition's sequential cutoff.
    let four = ParallelConfig::with_threads(NonZeroUsize::new(4).unwrap());
    for t in [&trees[3].1, &tree_of(3000, 1 << 20, 25)] {
        let a = Snapshot::build_parallel(t, SepFieldCodec::EliasGamma, one);
        let b = Snapshot::build_parallel(t, SepFieldCodec::EliasGamma, four);
        assert!(a.to_bytes() == b.to_bytes(), "v1 bytes differ at 4 workers");
        assert!(
            a.to_bytes_format(SnapshotFormat::V2) == b.to_bytes_format(SnapshotFormat::V2),
            "v2 bytes differ at 4 workers"
        );
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
