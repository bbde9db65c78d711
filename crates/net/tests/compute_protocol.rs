//! End-to-end tests of the distributed construction pipeline (GHS →
//! distributed marker → embedded verification): the tree must equal
//! Kruskal's, the labels must be bit-identical to the centralized
//! marker's, one worker and several must agree, logs must replay
//! exactly, and all of it must hold under lossy links.

use std::num::NonZeroUsize;

use mstv_core::{mst_configuration, ProofLabelingScheme};
use mstv_graph::{gen, Graph, NodeId};
use mstv_net::{
    replay_compute, run_compute, ComputeRun, Engine, FaultProfile, LossyLink, NetConfig,
    PerfectLink,
};
use mstv_trees::ParallelConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn make_graph(n: usize, extra: usize, max_w: u64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    gen::random_connected(n, extra, gen::WeightDist::Uniform { max: max_w }, &mut rng)
}

fn pool(workers: usize) -> Engine {
    Engine::Events {
        workers: ParallelConfig::with_threads(NonZeroUsize::new(workers).expect("nonzero")),
    }
}

/// Asserts a compute run built exactly the centralized artifacts:
/// Kruskal's edge set, `tree_states`' parent orientation, and the
/// centralized marker's labels — structured and encoded, bit for bit.
fn assert_matches_oracle(g: &Graph, run: &ComputeRun, context: &str) {
    assert!(
        run.net.verdict.accepted(),
        "{context}: network rejected its own construction"
    );
    let mut mst = run.mst_edges.clone();
    mst.sort_unstable();
    let mut oracle_edges = mstv_mst::kruskal(g);
    oracle_edges.sort_unstable();
    assert_eq!(mst, oracle_edges, "{context}: tree is not Kruskal's MST");

    let cfg = mst_configuration(g.clone());
    for v in 0..g.num_nodes() {
        let v = NodeId(v as u32);
        assert_eq!(
            run.states[v.index()],
            *cfg.state(v),
            "{context}: {v} disagrees with tree_states"
        );
    }
    let oracle = mstv_core::MstScheme::new()
        .marker(&cfg)
        .expect("centralized marker labels the MST");
    for v in 0..g.num_nodes() {
        let v = NodeId(v as u32);
        assert_eq!(
            run.labeling.label(v),
            oracle.label(v),
            "{context}: {v} structured label differs"
        );
        assert_eq!(
            run.labeling.encoded(v),
            oracle.encoded(v),
            "{context}: {v} encoded label differs"
        );
    }
}

#[test]
fn perfect_link_builds_oracle_labels_on_every_pool_size() {
    for (n, extra, max_w, seed) in [
        (1usize, 0usize, 10u64, 1u64),
        (2, 0, 10, 2),
        (3, 0, 7, 3),
        (8, 6, 32, 4),
        (24, 30, 64, 5),
        (40, 80, 128, 6),
    ] {
        let g = make_graph(n, extra, max_w, seed);
        for engine in [pool(1), pool(3), pool(4)] {
            let run = run_compute(&g, &mut PerfectLink, NetConfig::default(), engine)
                .unwrap_or_else(|e| panic!("n={n} seed={seed} {engine:?}: {e}"));
            assert_matches_oracle(&g, &run, &format!("n={n} seed={seed} {engine:?}"));
        }
    }
}

#[test]
fn lossy_links_do_not_change_what_gets_built() {
    let g = make_graph(20, 24, 50, 11);
    let profile = FaultProfile {
        drop: 0.2,
        duplicate: 0.1,
        max_delay: 3,
        crash: 0.02,
        max_crashes: 2,
    };
    for link_seed in [0u64, 1, 7] {
        for engine in [pool(1), pool(4)] {
            let mut link = LossyLink::new(profile, link_seed);
            let run = run_compute(&g, &mut link, NetConfig::default(), engine)
                .unwrap_or_else(|e| panic!("seed={link_seed} {engine:?}: {e}"));
            assert_matches_oracle(&g, &run, &format!("seed={link_seed} {engine:?}"));
        }
    }
}

#[test]
fn compute_log_replays_to_identical_artifacts() {
    let g = make_graph(18, 20, 40, 33);
    let profile = FaultProfile {
        drop: 0.25,
        duplicate: 0.1,
        max_delay: 3,
        crash: 0.03,
        max_crashes: 3,
    };
    let mut link = LossyLink::new(profile, 99);
    let live = run_compute(&g, &mut link, NetConfig::default(), pool(8))
        .expect("fair-lossy construction converges");
    let replayed = replay_compute(&g, &live.net.log).expect("construction log replays");
    assert_eq!(replayed.net.verdict, live.net.verdict);
    assert_eq!(replayed.net.cost, live.net.cost);
    assert_eq!(replayed.net.phases, live.net.phases);
    assert_eq!(replayed.net.crash_restarts, live.net.crash_restarts);
    assert_eq!(replayed.states, live.states);
    assert_eq!(replayed.mst_edges, live.mst_edges);
    for v in 0..g.num_nodes() {
        let v = NodeId(v as u32);
        assert_eq!(replayed.labeling.label(v), live.labeling.label(v), "{v}");
        assert_eq!(
            replayed.labeling.encoded(v),
            live.labeling.encoded(v),
            "{v}"
        );
    }
    // Through the text format, as a saved log file would travel.
    let parsed =
        mstv_net::EventLog::parse(&live.net.log.to_string()).expect("construction log parses");
    let reparsed = replay_compute(&g, &parsed).expect("parsed construction log replays");
    assert_eq!(reparsed.net.cost, live.net.cost);
    assert_eq!(reparsed.net.phases, live.net.phases);
}

#[test]
fn phase_costs_are_exhaustive_and_attributed() {
    let g = make_graph(24, 30, 64, 21);
    let run = run_compute(&g, &mut PerfectLink, NetConfig::default(), pool(1))
        .expect("perfect-link construction converges");
    let p = &run.net.phases;
    let total = run.net.cost;
    let parts = [p.ghs, p.marker, p.verify];
    let sum_msgs: u64 = parts.iter().map(|c| c.msgs).sum();
    let sum_bits: u128 = parts.iter().map(|c| c.bits).sum();
    let sum_rounds: u64 = parts.iter().map(|c| c.rounds).sum();
    assert_eq!(sum_msgs, total.msgs, "phase messages must sum to total");
    assert_eq!(sum_bits, total.bits, "phase bits must sum to total");
    assert_eq!(sum_rounds, total.rounds, "phase rounds must sum to total");
    for c in &parts {
        assert!(
            c.msgs > 0,
            "every phase exchanges messages on a 24-node instance: {p:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// GHS correctness under faults, across ≥16 generated cases: on one
    /// worker or four and under seeded lossy schedules, the distributed
    /// protocol must build exactly Kruskal's tree and the centralized
    /// marker's labels. `max_w` goes down to 1 (every weight equal), so
    /// the `(weight, edge id)` tie-break — not weight distinctness —
    /// carries uniqueness; large `max_w` covers the classic
    /// distinct-weight regime.
    #[test]
    fn distributed_construction_matches_kruskal_under_faults(
        n in 2usize..28,
        extra in 0usize..28,
        max_w in prop_oneof![Just(1u64), Just(7), Just(1 << 20)],
        graph_seed in any::<u64>(),
        link_seed in any::<u64>(),
        drop in 0u32..35,
        dup in 0u32..25,
        delay in 0u32..4,
        single_worker in any::<bool>(),
    ) {
        let g = make_graph(n, extra, max_w, graph_seed);
        let profile = FaultProfile {
            drop: f64::from(drop) / 100.0,
            duplicate: f64::from(dup) / 100.0,
            max_delay: delay,
            crash: 0.0,
            max_crashes: 0,
        };
        let engine = pool(if single_worker { 1 } else { 4 });
        let mut link = LossyLink::new(profile, link_seed);
        let run = run_compute(&g, &mut link, NetConfig::default(), engine)
            .expect("fair-lossy construction converges");
        let mut mst = run.mst_edges.clone();
        mst.sort_unstable();
        let mut oracle = mstv_mst::kruskal(&g);
        oracle.sort_unstable();
        prop_assert_eq!(mst, oracle, "tree is not Kruskal's MST");
        prop_assert!(run.net.verdict.accepted());
        let cfg = mst_configuration(g.clone());
        let labels = mstv_core::MstScheme::new().marker(&cfg).expect("oracle labels");
        for v in 0..n {
            let v = NodeId(v as u32);
            prop_assert_eq!(run.labeling.encoded(v), labels.encoded(v), "{} label bits differ", v);
        }
    }
}
