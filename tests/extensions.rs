//! Integration tests for the extension features: dynamic repair, the
//! distance/SPT schemes, and verification under asynchronous delivery —
//! exercised together across crates.

use mst_verification::core::{
    mst_configuration, spt_configuration, MstScheme, PiDistScheme, PiDistState,
    ProofLabelingScheme, SptScheme,
};
use mst_verification::graph::{gen, tree_states, ConfigGraph, EdgeId, NodeId, Weight};
use mst_verification::labels::{decode_dist, dist_labels, ImplicitDistScheme};
use mst_verification::mst::{is_mst, kruskal, repair_after_weight_change, Repair};
use mst_verification::net::{
    run_verification, FaultProfile, LossyLink, MstWireScheme, NetConfig, PerfectLink,
};
use mst_verification::trees::{centroid_decomposition, RootedTree};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn repair_then_relabel_then_verify() {
    // A weight change, a one-swap repair, fresh labels: clean verify.
    let mut rng = StdRng::seed_from_u64(1);
    for seed in 0..8 {
        let g = gen::random_connected(30, 60, gen::WeightDist::Uniform { max: 100 }, &mut rng);
        let mut cfg = mst_configuration(g);
        let before = cfg.induced_edges();
        // Drop a non-tree edge's weight below its path max.
        let Some(fault) = mst_verification::core::faults::break_minimality(&mut cfg, &mut rng)
        else {
            continue;
        };
        let edge = match fault {
            mst_verification::core::faults::Fault::WeightChange { edge, .. } => edge,
            other => panic!("unexpected {other:?}"),
        };
        let mut edges = before.clone();
        let repair = repair_after_weight_change(cfg.graph(), &mut edges, edge);
        assert!(matches!(repair, Repair::Swapped { .. }), "seed={seed}");
        let states = tree_states(cfg.graph(), &edges, NodeId(0)).unwrap();
        let cfg = ConfigGraph::new(cfg.graph().clone(), states).unwrap();
        let after = cfg.induced_edges();
        assert_ne!(before, after, "a swap changes the tree");
        assert!(is_mst(cfg.graph(), &after));
        let scheme = MstScheme::new();
        let labeling = scheme.marker(&cfg).unwrap();
        assert!(scheme.verify_all(&cfg, &labeling).accepted());
    }
}

#[test]
fn async_and_sync_verification_agree_under_faults() {
    // The same faulty instance on a perfect link and on one that holds
    // every frame back for up to 37 scheduler steps: same verdict as the
    // offline verifier, same messages, same causal depth.
    let mut rng = StdRng::seed_from_u64(2);
    for seed in 0..6 {
        let g = gen::random_connected(
            20,
            35,
            gen::WeightDist::Uniform { max: 80 },
            &mut StdRng::seed_from_u64(100 + seed),
        );
        let mut cfg = mst_configuration(g);
        let scheme = MstScheme::new();
        let labeling = scheme.marker(&cfg).unwrap();
        let wire = MstWireScheme::for_config(&cfg);
        let _ = mst_verification::core::faults::break_minimality(&mut cfg, &mut rng);
        let net = NetConfig::default();
        let sync = run_verification(&wire, &cfg, &labeling, &mut PerfectLink, net).unwrap();
        let profile = FaultProfile {
            max_delay: 37,
            ..FaultProfile::default()
        };
        let mut delaying = LossyLink::new(profile, seed);
        let asynchronous = run_verification(&wire, &cfg, &labeling, &mut delaying, net).unwrap();
        assert_eq!(sync.verdict, asynchronous.verdict, "seed={seed}");
        assert_eq!(
            sync.verdict,
            scheme.verify_all(&cfg, &labeling),
            "seed={seed}"
        );
        assert_eq!(sync.cost, asynchronous.cost, "seed={seed}");
    }
}

#[test]
fn dist_labels_power_spt_spot_checks() {
    // Distance labels answer root-distance queries that must agree with
    // the SPT scheme's certified fields.
    let mut rng = StdRng::seed_from_u64(3);
    let g = gen::random_tree(40, gen::WeightDist::Uniform { max: 50 }, &mut rng);
    let tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
    let dist_scheme = ImplicitDistScheme::gamma_small(&tree);
    // On a tree, the tree itself is the (unique) SPT.
    let cfg = spt_configuration(g, NodeId(0));
    let spt = SptScheme::new();
    let labeling = spt.marker(&cfg).unwrap();
    assert!(spt.verify_all(&cfg, &labeling).accepted());
    for v in tree.nodes() {
        assert_eq!(
            dist_scheme.query(NodeId(0), v),
            labeling.label(v).dist_to_root,
            "v={v}"
        );
    }
}

#[test]
fn pi_dist_full_pipeline() {
    let mut rng = StdRng::seed_from_u64(4);
    let g = gen::random_tree(60, gen::WeightDist::Uniform { max: 30 }, &mut rng);
    let all: Vec<EdgeId> = g.edge_ids().collect();
    let states = tree_states(&g, &all, NodeId(0)).unwrap();
    let tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
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
    let scheme = PiDistScheme::new();
    let labeling = scheme.marker(&cfg).unwrap();
    assert!(scheme.verify_all(&cfg, &labeling).accepted());
    // Certified states decode true distances between arbitrary pairs.
    for (u, v) in [(3u32, 57u32), (10, 11), (0, 42)] {
        let (u, v) = (NodeId(u), NodeId(v));
        let mut d = 0u64;
        let (mut a, mut b) = (u, v);
        while a != b {
            if tree.depth(a) >= tree.depth(b) {
                d += tree.parent_weight(a).0;
                a = tree.parent(a).unwrap();
            } else {
                d += tree.parent_weight(b).0;
                b = tree.parent(b).unwrap();
            }
        }
        assert_eq!(decode_dist(&cfg.state(u).dist, &cfg.state(v).dist), d);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn repair_restores_minimality(
        n in 4usize..30,
        extra in 1usize..40,
        w in 2u64..300,
        seed in any::<u64>(),
        new_w in 1u64..600,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = gen::random_connected(n, extra, gen::WeightDist::Uniform { max: w }, &mut rng);
        let mut t = kruskal(&g);
        let e = EdgeId((seed % g.num_edges() as u64) as u32);
        g.set_weight(e, Weight(new_w));
        let r = repair_after_weight_change(&g, &mut t, e);
        prop_assert!(g.is_spanning_tree(&t));
        prop_assert!(is_mst(&g, &t));
        if r == Repair::Unchanged {
            // Then the original tree was already optimal under the change.
            prop_assert!(t.contains(&e) || g.weight(e) >= Weight(1));
        }
    }

    #[test]
    fn dist_scheme_exact(n in 2usize..40, w in 1u64..200, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_tree(n, gen::WeightDist::Uniform { max: w }, &mut rng);
        let tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
        let scheme = ImplicitDistScheme::gamma_small(&tree);
        for u in tree.nodes() {
            for v in tree.nodes() {
                let mut d = 0u64;
                let (mut a, mut b) = (u, v);
                while a != b {
                    if tree.depth(a) >= tree.depth(b) {
                        d += tree.parent_weight(a).0;
                        a = tree.parent(a).unwrap();
                    } else {
                        d += tree.parent_weight(b).0;
                        b = tree.parent(b).unwrap();
                    }
                }
                prop_assert_eq!(scheme.query(u, v), d);
            }
        }
    }

    #[test]
    fn spt_scheme_complete(n in 2usize..40, extra in 0usize..60, w in 1u64..200, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_connected(n, extra, gen::WeightDist::Uniform { max: w }, &mut rng);
        let cfg = spt_configuration(g, NodeId(0));
        let scheme = SptScheme::new();
        let labeling = scheme.marker(&cfg).unwrap();
        prop_assert!(scheme.verify_all(&cfg, &labeling).accepted());
    }
}
