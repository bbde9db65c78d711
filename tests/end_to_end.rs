//! End-to-end integration: generator → MST → proof labels → distributed
//! verification → fault → detection → recovery, across every crate.

use mst_verification::core::{
    faults, mst_configuration, BoruvkaScheme, MstScheme, ProofLabelingScheme,
};
use mst_verification::graph::{gen, NodeId, Weight};
use mst_verification::hypertree::Hypertree;
use mst_verification::mst::{is_mst, kruskal, mst_weight, prim};
use mst_verification::net::{
    run_compute, run_verification, Engine, MstWireScheme, NetConfig, NetSelfStab, NetStabOutcome,
    PerfectLink,
};
use mst_verification::sensitivity::{sensitivity, SensitivityLabels};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn full_lifecycle_random_networks() {
    let mut rng = StdRng::seed_from_u64(1);
    for n in [8usize, 25, 70] {
        let g = gen::random_connected(n, 2 * n, gen::WeightDist::Uniform { max: 300 }, &mut rng);
        // Three MST algorithms agree on weight.
        let k = kruskal(&g);
        assert_eq!(mst_weight(&g, &k), mst_weight(&g, &prim(&g)));
        // The network builds the same tree on the wire, and labels it.
        let built = run_compute(
            &g,
            &mut PerfectLink,
            NetConfig::default(),
            Engine::default(),
        )
        .expect("a perfect link converges");
        assert_eq!(mst_weight(&g, &k), mst_weight(&g, &built.mst_edges));
        assert!(built.net.verdict.accepted());
        assert!(built.net.phases.ghs.rounds > 0 && built.net.phases.marker.rounds > 0);
        // Label + verify through the one-round protocol.
        let cfg = mst_configuration(g);
        let scheme = MstScheme::new();
        let labeling = scheme.marker(&cfg).unwrap();
        for v in cfg.graph().nodes() {
            assert_eq!(built.labeling.encoded(v), labeling.encoded(v), "n={n} {v}");
        }
        let wire = MstWireScheme::for_config(&cfg);
        let run = run_verification(
            &wire,
            &cfg,
            &labeling,
            &mut PerfectLink,
            NetConfig::default(),
        )
        .expect("a perfect link converges");
        assert!(run.verdict.accepted());
        assert_eq!(run.cost.rounds, 1);
        // Fault → detect → recover.
        let mut net = NetSelfStab::new(cfg.graph().clone()).expect("connected");
        if faults::break_minimality(net.config_mut(), &mut rng).is_some() {
            let cycle = net
                .cycle(&mut PerfectLink, NetConfig::default())
                .expect("a perfect link converges");
            assert!(cycle.fault_detected());
            assert!(net.invariant_holds());
        }
    }
}

#[test]
fn both_schemes_accept_and_reject_together() {
    let mut rng = StdRng::seed_from_u64(2);
    for seed in 0..10 {
        let g = gen::random_connected(30, 45, gen::WeightDist::Uniform { max: 100 }, &mut rng);
        let cfg = mst_configuration(g);
        let pi = MstScheme::new();
        let base = BoruvkaScheme::new();
        let pl = pi.marker(&cfg).unwrap();
        let bl = base.marker(&cfg).unwrap();
        assert!(pi.verify_all(&cfg, &pl).accepted(), "seed={seed}");
        assert!(base.verify_all(&cfg, &bl).accepted(), "seed={seed}");
        // Same fault, both stale proofs must fail.
        let mut bad = cfg.clone();
        if faults::break_minimality(&mut bad, &mut rng).is_some() {
            assert!(!pi.verify_all(&bad, &pl).accepted(), "seed={seed}");
            assert!(!base.verify_all(&bad, &bl).accepted(), "seed={seed}");
        }
    }
}

#[test]
fn sensitivity_consistent_with_verification() {
    // Perturbing an edge by exactly its sensitivity makes the stale
    // π_mst proof rejectable; one unit less keeps it verifiable.
    let mut rng = StdRng::seed_from_u64(3);
    let g = gen::random_connected(20, 30, gen::WeightDist::Uniform { max: 200 }, &mut rng);
    let t = kruskal(&g);
    let report = sensitivity(&g, &t);
    let cfg = mst_configuration(g.clone());
    let scheme = MstScheme::new();
    let labeling = scheme.marker(&cfg).unwrap();
    let mut exercised = 0;
    for (e, edge) in g.edges() {
        match report[e.index()] {
            mst_verification::sensitivity::EdgeSensitivity::NonTree { decrease } => {
                if edge.w.0 <= decrease {
                    continue;
                }
                let mut near = cfg.clone();
                near.graph_mut()
                    .set_weight(e, Weight(edge.w.0 - decrease + 1));
                assert!(scheme.verify_all(&near, &labeling).accepted(), "{e} near");
                let mut over = cfg.clone();
                over.graph_mut().set_weight(e, Weight(edge.w.0 - decrease));
                assert!(!scheme.verify_all(&over, &labeling).accepted(), "{e} over");
                exercised += 1;
            }
            mst_verification::sensitivity::EdgeSensitivity::Tree { .. } => {}
        }
    }
    assert!(exercised >= 3);
}

#[test]
fn hypertrees_flow_through_the_whole_stack() {
    let ht = Hypertree::legal(4, 4);
    let cfg = ht.config();
    // Sequential verification agrees the induced tree is an MST.
    let edges = cfg.induced_edges();
    assert!(is_mst(cfg.graph(), &edges));
    // π_mst labels it; a maintenance cycle accepts it on the wire in
    // one round.
    let labeling = MstScheme::new().marker(&cfg).unwrap();
    let mut net = NetSelfStab::from_parts(cfg.clone(), labeling);
    match net
        .cycle(&mut PerfectLink, NetConfig::default())
        .expect("a perfect link converges")
    {
        NetStabOutcome::Clean { verify } => assert_eq!(verify.cost.rounds, 1),
        NetStabOutcome::Recovered { .. } => panic!("a legal hypertree verifies clean"),
    }
    // The network builds a tree of the same weight on its own (ties
    // may pick other edges).
    let built = run_compute(
        cfg.graph(),
        &mut PerfectLink,
        NetConfig::default(),
        Engine::default(),
    )
    .expect("a perfect link converges");
    assert!(built.net.verdict.accepted());
    assert_eq!(
        mst_weight(cfg.graph(), &built.mst_edges),
        mst_weight(cfg.graph(), &edges)
    );
    // Sensitivity labels answer middle-edge queries with the class gap.
    let labels = SensitivityLabels::new(cfg.graph(), &edges);
    for p in &ht.paths {
        match labels.query(cfg.graph(), p.middle) {
            mst_verification::sensitivity::EdgeSensitivity::NonTree { decrease } => {
                // Legal paths have weight == MAX, so sensitivity 1.
                assert_eq!(decrease, 1, "path at level {}", p.level);
            }
            other => panic!("middle edges are non-tree: {other:?}"),
        }
    }
}

#[test]
fn structured_topologies_lifecycle() {
    let mut rng = StdRng::seed_from_u64(4);
    let d = gen::WeightDist::Uniform { max: 77 };
    for g in [
        gen::grid(6, 7, d, &mut rng),
        gen::complete(14, d, &mut rng),
        gen::cycle(21, d, &mut rng),
        gen::caterpillar(6, 3, d, &mut rng),
    ] {
        let cfg = mst_configuration(g);
        let scheme = MstScheme::new();
        let labeling = scheme.marker(&cfg).unwrap();
        assert!(scheme.verify_all(&cfg, &labeling).accepted());
    }
}

#[test]
fn rerooting_does_not_change_acceptance() {
    // The scheme accepts the same MST rooted anywhere.
    let mut rng = StdRng::seed_from_u64(5);
    let g = gen::random_connected(18, 25, gen::WeightDist::Uniform { max: 50 }, &mut rng);
    let t = kruskal(&g);
    let scheme = MstScheme::new();
    for root in [0u32, 5, 17] {
        let states = mst_verification::graph::tree_states(&g, &t, NodeId(root)).unwrap();
        let cfg = mst_verification::graph::ConfigGraph::new(g.clone(), states).unwrap();
        let labeling = scheme.marker(&cfg).unwrap();
        assert!(scheme.verify_all(&cfg, &labeling).accepted(), "root={root}");
    }
}
