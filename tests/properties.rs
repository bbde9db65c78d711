//! Property-based tests (proptest) over the core invariants.

use mst_verification::core::{mst_configuration, MstScheme, ProofLabelingScheme};
use mst_verification::dynmark::{DynError, DynMarker};
use mst_verification::graph::{
    gen, tree_states, EdgeId, Graph, GraphError, NodeId, TreeState, Weight,
};
use mst_verification::labels::{ImplicitFlowScheme, ImplicitMaxScheme, SepFieldCodec};
use mst_verification::mst::{
    check_mst_offline, is_mst, kruskal, mst_weight, prim, MstVerdict, UnionFind,
};
use mst_verification::sensitivity::{brute_force_sensitivity, sensitivity};
use mst_verification::store::{JournalMutation, Snapshot};
use mst_verification::trees::{
    brute_force_centroid_decomposition, centroid_decomposition, RootedTree, SeparatorDecomposition,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: seeds and sizes for a random connected graph.
fn graph_params() -> impl Strategy<Value = (usize, usize, u64, u64)> {
    (2usize..40, 0usize..60, 1u64..1000, any::<u64>())
}

fn make_graph(n: usize, extra: usize, w: u64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    gen::random_connected(n, extra, gen::WeightDist::Uniform { max: w }, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mst_algorithms_agree((n, extra, w, seed) in graph_params()) {
        let g = make_graph(n, extra, w, seed);
        let k = kruskal(&g);
        let p = prim(&g);
        prop_assert!(g.is_spanning_tree(&k));
        prop_assert!(g.is_spanning_tree(&p));
        prop_assert_eq!(mst_weight(&g, &k), mst_weight(&g, &p));
        prop_assert!(is_mst(&g, &k));
        prop_assert!(is_mst(&g, &p));
    }

    #[test]
    fn gamma_small_decodes_max((n, _extra, w, seed) in graph_params()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_tree(n, gen::WeightDist::Uniform { max: w }, &mut rng);
        let tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
        let scheme = ImplicitMaxScheme::gamma_small(&tree);
        for u in tree.nodes() {
            for v in tree.nodes() {
                if u != v {
                    prop_assert_eq!(scheme.query(u, v), tree.max_on_path_naive(u, v));
                }
            }
        }
    }

    #[test]
    fn flow_decodes_min((n, _extra, w, seed) in graph_params()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_tree(n, gen::WeightDist::Uniform { max: w }, &mut rng);
        let tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
        let scheme = ImplicitFlowScheme::gamma_small(&tree);
        for u in tree.nodes() {
            for v in tree.nodes() {
                if u != v {
                    prop_assert_eq!(scheme.query(u, v), tree.min_on_path_naive(u, v));
                }
            }
        }
    }

    #[test]
    fn pi_mst_complete_on_random_graphs((n, extra, w, seed) in graph_params()) {
        let g = make_graph(n, extra, w, seed);
        let cfg = mst_configuration(g);
        let scheme = MstScheme::new();
        let labeling = scheme.marker(&cfg).unwrap();
        prop_assert!(scheme.verify_all(&cfg, &labeling).accepted());
    }

    #[test]
    fn pi_mst_rejects_weight_drops((n, extra, w, seed) in graph_params()) {
        prop_assume!(extra > 0 && w > 2);
        let g = make_graph(n, extra, w, seed);
        let cfg = mst_configuration(g);
        let scheme = MstScheme::new();
        let labeling = scheme.marker(&cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
        let mut bad = cfg.clone();
        if mst_verification::core::faults::break_minimality(&mut bad, &mut rng).is_some() {
            prop_assert!(!scheme.verify_all(&bad, &labeling).accepted());
        }
    }

    #[test]
    fn sensitivity_solver_matches_brute_force((n, extra, w, seed) in graph_params()) {
        prop_assume!(n <= 25);
        let g = make_graph(n, extra, w, seed);
        let t = kruskal(&g);
        prop_assert_eq!(sensitivity(&g, &t), brute_force_sensitivity(&g, &t));
    }

    #[test]
    fn centroid_decomposition_is_perfect((n, _extra, w, seed) in graph_params()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_tree(n, gen::WeightDist::Uniform { max: w }, &mut rng);
        let tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
        let d = centroid_decomposition(&tree);
        prop_assert!(d.is_perfect());
        prop_assert!(d.validate(&tree).is_ok());
        let bound = (usize::BITS - n.leading_zeros()) + 1;
        prop_assert!(d.max_level() <= bound);
    }

    #[test]
    fn union_find_partition_refinement(ops in proptest::collection::vec((0usize..30, 0usize..30), 1..100)) {
        // Union-find agrees with a naive partition under arbitrary unions.
        let mut uf = UnionFind::new(30);
        let mut naive: Vec<usize> = (0..30).collect();
        for (a, b) in ops {
            uf.union(a, b);
            let (ra, rb) = (naive[a], naive[b]);
            if ra != rb {
                for x in naive.iter_mut() {
                    if *x == rb {
                        *x = ra;
                    }
                }
            }
        }
        for x in 0..30 {
            for y in 0..30 {
                prop_assert_eq!(uf.connected(x, y), naive[x] == naive[y]);
            }
        }
    }

    #[test]
    fn cycle_property_characterizes_msts((n, extra, w, seed) in graph_params()) {
        // For any spanning tree: is_mst == (weight equals the optimum).
        prop_assume!(n <= 20);
        let g = make_graph(n, extra, w, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        use rand::seq::SliceRandom;
        let mut ids: Vec<_> = g.edge_ids().collect();
        ids.shuffle(&mut rng);
        let mut uf = UnionFind::new(g.num_nodes());
        let mut t = Vec::new();
        for e in ids {
            let edge = g.edge(e);
            if uf.union(edge.u.index(), edge.v.index()) {
                t.push(e);
            }
        }
        let optimal = mst_weight(&g, &kruskal(&g));
        prop_assert_eq!(is_mst(&g, &t), mst_weight(&g, &t) == optimal);
    }

    #[test]
    fn pi_mst_soundness_vs_honest_pipeline_forgery((n, extra, w, seed) in graph_params()) {
        // The strongest natural adversary: take ANY spanning tree (maybe
        // not minimum) and run the full honest sub-marker pipeline on it
        // (consistent spanning proof, γ labels, orientation). The verdict
        // must equal the ground truth `is_mst` exactly: accepted iff MST.
        prop_assume!(n <= 25);
        let g = make_graph(n, extra, w, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
        use rand::seq::SliceRandom;
        let mut ids: Vec<_> = g.edge_ids().collect();
        ids.shuffle(&mut rng);
        let mut uf = UnionFind::new(g.num_nodes());
        let mut t = Vec::new();
        for e in ids {
            let edge = g.edge(e);
            if uf.union(edge.u.index(), edge.v.index()) {
                t.push(e);
            }
        }
        let states = mst_verification::graph::tree_states(&g, &t, NodeId(0)).unwrap();
        let cfg = mst_verification::graph::ConfigGraph::new(g.clone(), states).unwrap();
        let (tree, span) = mst_verification::core::span_labels(&cfg).unwrap();
        let sep = centroid_decomposition(&tree);
        let gammas = mst_verification::labels::max_labels(&tree, &sep);
        let orients = mst_verification::core::orient_fields(&tree, &sep);
        let labels: Vec<mst_verification::core::MstLabel> = (0..g.num_nodes())
            .map(|i| mst_verification::core::MstLabel {
                span: span[i],
                gamma: gammas[i].clone(),
                orient: orients[i].clone(),
            })
            .collect();
        let labeling = mst_verification::core::Labeling::from_labels(labels);
        let scheme = MstScheme::new();
        let verdict = scheme.verify_all(&cfg, &labeling);
        prop_assert_eq!(verdict.accepted(), is_mst(&g, &t));
    }

    #[test]
    fn weights_bounded_by_distribution((n, extra, w, seed) in graph_params()) {
        let g = make_graph(n, extra, w, seed);
        prop_assert!(g.max_weight() <= Weight(w.max(1)));
        for (_, edge) in g.edges() {
            prop_assert!(edge.w >= Weight(1));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Differential test of the incremental engine: after EVERY mutation
    /// in a random sequence, the session's maintained verdict equals a
    /// scratch `verify_all` over the session's current configuration and
    /// labeling, and each single-node mutation re-verifies at most
    /// `1 + max_degree` nodes.
    #[test]
    fn session_matches_scratch_verification((n, extra, w, seed) in graph_params()) {
        use mst_verification::core::{Mutation, VerifySession};
        use mst_verification::graph::{EdgeId, Port};
        use rand::Rng;

        let g = make_graph(n, extra, w.max(2), seed);
        let n_nodes = g.num_nodes();
        let max_degree = (0..n_nodes)
            .map(|i| g.degree(NodeId::from_index(i)))
            .max()
            .unwrap();
        let cfg = mst_configuration(g);
        let mut session = VerifySession::new(MstScheme::new(), cfg).unwrap();
        prop_assert!(session.verdict().accepted());
        let scheme = MstScheme::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
        for _ in 0..8 {
            let node = NodeId(rng.gen_range(0..n_nodes as u32));
            let mutation = match rng.gen_range(0..4u32) {
                0 => Mutation::SetWeight {
                    edge: EdgeId(rng.gen_range(0..session.config().graph().num_edges() as u32)),
                    weight: Weight(rng.gen_range(1..=1000u64)),
                },
                1 => Mutation::CorruptLabel {
                    node,
                    label: session
                        .labeling()
                        .label(NodeId(rng.gen_range(0..n_nodes as u32)))
                        .clone(),
                },
                2 => {
                    let deg = session.config().graph().degree(node) as u32;
                    let new_parent = if rng.gen_bool(0.2) {
                        None
                    } else {
                        Some(Port(rng.gen_range(0..deg)))
                    };
                    Mutation::FlipTreeEdge { node, new_parent }
                }
                _ => Mutation::RestoreLabel { node },
            };
            let verified_before = session.metrics().nodes_verified;
            let verdict = session.apply(mutation).unwrap();
            let verified_delta = session.metrics().nodes_verified - verified_before;
            prop_assert!(
                verified_delta <= 1 + max_degree as u64,
                "one mutation re-verified {verified_delta} nodes, max degree {max_degree}"
            );
            let scratch = scheme.verify_all(session.config(), session.labeling());
            prop_assert_eq!(verdict, scratch);
        }
    }
}

/// Same link seed and delay bound ⇒ identical cost, phases, verdicts
/// and event-log text from the wire runtime, across three topologies.
#[test]
fn alpha_synchronizer_is_deterministic() {
    use mst_verification::graph::gen as ggen;
    use mst_verification::net::{
        run_verification, FaultProfile, LossyLink, MstWireScheme, NetConfig, NetRun,
    };

    let topologies: Vec<(&str, Graph)> = vec![
        ("tree", {
            let mut rng = StdRng::seed_from_u64(0xA1);
            ggen::random_tree(24, ggen::WeightDist::Uniform { max: 50 }, &mut rng)
        }),
        ("sparse", {
            let mut rng = StdRng::seed_from_u64(0xA2);
            ggen::random_connected(24, 12, ggen::WeightDist::Uniform { max: 50 }, &mut rng)
        }),
        ("dense", {
            let mut rng = StdRng::seed_from_u64(0xA3);
            ggen::random_connected(24, 120, ggen::WeightDist::Uniform { max: 50 }, &mut rng)
        }),
    ];
    let profile = FaultProfile {
        max_delay: 17,
        ..FaultProfile::default()
    };
    for (name, g) in topologies {
        let cfg = mst_configuration(g);
        let labeling = MstScheme::new().marker(&cfg).unwrap();
        let wire = MstWireScheme::for_config(&cfg);
        let run = |seed: u64| -> NetRun {
            let mut link = LossyLink::new(profile, seed);
            run_verification(&wire, &cfg, &labeling, &mut link, NetConfig::default()).unwrap()
        };
        let (a, b) = (run(0xDE7E), run(0xDE7E));
        assert_eq!(a.cost, b.cost, "{name}: cost must be identical");
        assert_eq!(a.phases, b.phases, "{name}: phases must be identical");
        assert_eq!(a.verdict, b.verdict, "{name}: verdicts must be identical");
        assert_eq!(
            a.log.to_string(),
            b.log.to_string(),
            "{name}: logs must be identical"
        );
        assert!(a.verdict.accepted(), "{name}: honest run accepts");
        // A different link seed still accepts, in the same one round,
        // but schedules differently — determinism is per seed, not
        // vacuous.
        let other = run(0xBEEF);
        assert!(other.verdict.accepted());
        assert_eq!(other.cost, a.cost, "{name}: delays move no count");
        assert_ne!(
            other.log.to_string(),
            a.log.to_string(),
            "{name}: another seed must schedule differently"
        );
    }
}

#[test]
fn tree_membership_edge_cases_keep_their_verdicts() {
    // A triangle 0-1-2 with node 3 hanging off node 2.
    let mut g = Graph::new(4);
    let e01 = g.add_edge(NodeId(0), NodeId(1), Weight(1)).unwrap();
    let e12 = g.add_edge(NodeId(1), NodeId(2), Weight(2)).unwrap();
    let e20 = g.add_edge(NodeId(2), NodeId(0), Weight(3)).unwrap();
    let e23 = g.add_edge(NodeId(2), NodeId(3), Weight(4)).unwrap();
    let not_spanning = GraphError::NotASpanningTree {
        reason: "edge set fails spanning-tree check".to_owned(),
    };
    for (case, edges) in [
        ("duplicate id", vec![e01, e12, e01]),
        ("out-of-range id", vec![e01, e12, EdgeId(99)]),
        ("n - 1 edges closing a cycle", vec![e01, e12, e20]),
    ] {
        assert!(!g.is_spanning_tree(&edges), "{case}");
        assert_eq!(
            tree_states(&g, &edges, NodeId(0)),
            Err(not_spanning.clone()),
            "{case}"
        );
        assert_eq!(
            RootedTree::from_graph_edges(&g, &edges, NodeId(0)),
            Err(not_spanning.clone()),
            "{case}"
        );
        assert_eq!(
            check_mst_offline(&g, &edges),
            MstVerdict::NotSpanningTree,
            "{case}"
        );
    }
    assert!(g.is_spanning_tree(&[e01, e12, e23]));

    // One node and no edges: the empty edge set spans it.
    let single = Graph::new(1);
    assert!(single.is_spanning_tree(&[]));
    assert_eq!(
        tree_states(&single, &[], NodeId(0)),
        Ok(vec![TreeState::root(0)])
    );
    assert_eq!(
        RootedTree::from_graph_edges(&single, &[], NodeId(0))
            .unwrap()
            .num_nodes(),
        1
    );
    assert_eq!(check_mst_offline(&single, &[]), MstVerdict::Mst);

    // On random graphs an edge list and its membership slice hang the
    // same tree from any root.
    let mut rng = StdRng::seed_from_u64(31);
    for n in [2usize, 9, 60, 400] {
        let g = gen::random_connected(n, 2 * n, gen::WeightDist::Uniform { max: 1000 }, &mut rng);
        let mst = kruskal(&g);
        let in_tree = g.spanning_tree_membership(&mst).unwrap();
        for root in [NodeId(0), NodeId(n as u32 / 2), NodeId(n as u32 - 1)] {
            assert_eq!(
                RootedTree::from_graph_edges(&g, &mst, root),
                RootedTree::from_tree_membership(&g, &in_tree, root),
                "n={n} root={root}"
            );
        }
    }
}

#[test]
fn swap_redecomposition_equals_a_fresh_decomposition() {
    // Chains of MST swaps, each made by undercutting a chord's tree path
    // as `mstv-dyn` meets them: the rooted tree re-hangs in place and the
    // decomposition is patched in place (`SeparatorDecomposition::rehang`),
    // which after every swap must equal a from-scratch decomposition of
    // the new tree, rooted at node 0 (the marker's root), and list every
    // node whose record changed. Sparse graphs on a few hundred nodes are
    // where an equal-sized component can differ from the old one. The
    // from-scratch engine must also equal the exhaustive-search reference
    // on the same trees hung from other roots, up to 400 nodes.
    let cases = (0..4u64)
        .flat_map(|seed| [2usize, 9, 30, 60, 150, 400].map(|n| (seed, n)))
        .chain([(4, 3000)]);
    for (seed, n) in cases {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = gen::random_connected(n, n, gen::WeightDist::Uniform { max: 1000 }, &mut rng);
        let mut mst = kruskal(&g);
        let mut tree = RootedTree::from_graph_edges(&g, &mst, NodeId(0)).unwrap();
        let mut sep = centroid_decomposition(&tree);
        let mut swaps = 0;
        for step in 0..24 {
            let chord = EdgeId(rand::Rng::gen_range(&mut rng, 0..g.num_edges() as u32));
            g.set_weight(chord, Weight(1 + step % 3));
            let new_mst = kruskal(&g);
            let new_tree = RootedTree::from_graph_edges(&g, &new_mst, NodeId(0)).unwrap();
            let case = format!("seed {seed}, n = {n}, step {step}");
            // One weight change swaps at most one tree edge.
            let was = g.edge_membership(&mst).unwrap();
            let now = g.edge_membership(&new_mst).unwrap();
            let removed = mst.iter().find(|e| !now[e.index()]);
            let added = new_mst.iter().find(|e| !was[e.index()]);
            let old = sep.clone();
            let mut changed = Vec::new();
            if let (Some(&removed), Some(&added)) = (removed, added) {
                swaps += 1;
                let r = g.edge(removed);
                let cut = if tree.parent(r.u) == Some(r.v) {
                    r.u
                } else {
                    r.v
                };
                let p = tree.parent(cut).unwrap();
                let a = g.edge(added);
                let in_cut = |x: NodeId| tree.path_to_root(x).contains(&cut);
                let (inner, outer) = if in_cut(a.u) { (a.u, a.v) } else { (a.v, a.u) };
                tree.rehang(cut, inner, outer, a.w);
                sep.rehang(&tree, cut, inner, outer, p, &mut changed);
            }
            assert!(
                new_tree
                    .nodes()
                    .all(|v| tree.parent(v) == new_tree.parent(v)),
                "{case}: the re-hung tree"
            );
            let fresh = centroid_decomposition(&new_tree);
            assert_eq!(sep, fresh, "{case}");
            let record = |d: &SeparatorDecomposition, v: NodeId| {
                (
                    d.sep_parent(v),
                    d.level(v),
                    d.child_rank(v),
                    d.component_size(v),
                )
            };
            let mut listed = vec![false; n];
            changed.iter().for_each(|v| listed[v.index()] = true);
            for v in new_tree.nodes() {
                assert!(
                    listed[v.index()] || record(&old, v) == record(&fresh, v),
                    "{case}: {v} changed unlisted"
                );
            }
            if n <= 400 {
                let root = NodeId((step as u32 * 7919) % n as u32);
                let rerooted = RootedTree::from_graph_edges(&g, &new_mst, root).unwrap();
                assert_eq!(
                    centroid_decomposition(&rerooted),
                    brute_force_centroid_decomposition(&rerooted),
                    "{case}, root {root}"
                );
            }
            tree = new_tree;
            mst = new_mst;
        }
        assert!(
            n < 30 || swaps > 0,
            "seed {seed}, n = {n}: no step swapped a tree edge"
        );
    }
}

#[test]
fn incremental_marker_keeps_the_rebuilt_tree_and_snapshot() {
    // Chains of SetWeight and SwapWeights through `DynMarker`, which
    // patches its rooted tree in place on every repair swap: after each
    // apply the maintained tree must equal the one built from scratch off
    // canonical Kruskal, in every field, and the snapshot bytes must equal
    // `Snapshot::build`'s. Weights in 1..=6 make ties everywhere. A
    // pendant edge (a bridge, so always a tree edge) raised to u64::MAX
    // overflows the tree weight halfway through: refused, state untouched.
    for (seed, n, steps) in [
        (0u64, 2usize, 12usize),
        (1, 40, 80),
        (2, 600, 40),
        (3, 3000, 12),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let max_w = 6;
        let base =
            gen::random_connected(n - 1, n, gen::WeightDist::Uniform { max: max_w }, &mut rng);
        let mut g = Graph::new(n);
        for (_, e) in base.edges() {
            g.add_edge(e.u, e.v, e.w).unwrap();
        }
        let hub = NodeId(rand::Rng::gen_range(&mut rng, 0..n as u32 - 1));
        let pendant = g.add_edge(hub, NodeId(n as u32 - 1), Weight(1)).unwrap();
        let mut marker = DynMarker::new(g, SepFieldCodec::EliasGamma).unwrap();
        let edge = |g: &Graph, rng: &mut StdRng| {
            g.edge(EdgeId(rand::Rng::gen_range(rng, 0..g.num_edges() as u32)))
        };
        for step in 0..steps {
            let case = format!("seed {seed}, n = {n}, step {step}");
            let a = edge(marker.graph(), &mut rng);
            let mutation = if rand::Rng::gen_range(&mut rng, 0..4) == 0 {
                let b = edge(marker.graph(), &mut rng);
                JournalMutation::SwapWeights {
                    u1: a.u.0,
                    v1: a.v.0,
                    u2: b.u.0,
                    v2: b.v.0,
                }
            } else {
                JournalMutation::SetWeight {
                    u: a.u.0,
                    v: a.v.0,
                    w: rand::Rng::gen_range(&mut rng, 1..=max_w),
                }
            };
            marker.apply(mutation).unwrap();
            let g = marker.graph();
            let fresh = RootedTree::from_graph_edges(g, &kruskal(g), NodeId(0)).unwrap();
            assert_eq!(marker.tree(), &fresh, "{case}: {mutation:?}");
            assert_eq!(
                marker.snapshot().to_bytes(),
                Snapshot::build(&fresh, SepFieldCodec::EliasGamma).to_bytes(),
                "{case}: {mutation:?}"
            );
            if step == steps / 2 && n >= 3 {
                let (tree, bytes) = (marker.tree().clone(), marker.snapshot().to_bytes());
                let p = marker.graph().edge(pendant);
                assert_eq!(
                    marker.apply(JournalMutation::SetWeight {
                        u: p.u.0,
                        v: p.v.0,
                        w: u64::MAX,
                    }),
                    Err(DynError::TreeWeightOverflow),
                    "{case}"
                );
                assert_eq!(marker.tree(), &tree, "{case}: refused overflow");
                assert_eq!(
                    marker.snapshot().to_bytes(),
                    bytes,
                    "{case}: refused overflow"
                );
            }
        }
    }
}
