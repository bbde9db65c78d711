//! Integration tests for the adversarial fault layer: Byzantine
//! forgery soundness on one worker and on several, healing partitions
//! with self-stabilizing recovery, worst-case reordering (including the
//! phase-rounds attribution invariant), churn, and scripted
//! crash-restarts at the construction phase hand-off.

use std::num::NonZeroUsize;

use mstv_core::{mst_configuration, Labeling, MstLabel, MstScheme, ProofLabelingScheme, Verdict};
use mstv_graph::{gen, ConfigGraph, NodeId, TreeState};
use mstv_net::{
    forge_labeling, replay, replay_compute, run_compute, run_verification_with, AdversaryLink,
    AdversarySpec, Engine, FaultProfile, ForgeClass, LogEvent, MstWireScheme, NetConfig,
    NetSelfStab, NetStabOutcome, PhaseCost,
};
use mstv_trees::ParallelConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn make_instance(
    n: usize,
    extra: usize,
    max_w: u64,
    seed: u64,
) -> (ConfigGraph<TreeState>, Labeling<MstLabel>, MstWireScheme) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::random_connected(n, extra, gen::WeightDist::Uniform { max: max_w }, &mut rng);
    let cfg = mst_configuration(g);
    let labeling = MstScheme::new().marker(&cfg).expect("MST labels");
    let wire = MstWireScheme::for_config(&cfg);
    (cfg, labeling, wire)
}

fn offline_verdict(cfg: &ConfigGraph<TreeState>, labeling: &Labeling<MstLabel>) -> Verdict {
    MstScheme::new().verify_all(cfg, labeling)
}

fn pool(workers: usize) -> Engine {
    Engine::Events {
        workers: ParallelConfig::with_threads(NonZeroUsize::new(workers).expect("nonzero")),
    }
}

fn assert_phases_sum(phases: &PhaseCost, total: &mstv_core::MessageCost, context: &str) {
    assert_eq!(
        phases.ghs.msgs + phases.marker.msgs + phases.verify.msgs,
        total.msgs,
        "{context}: phase msgs do not sum"
    );
    assert_eq!(
        phases.ghs.bits + phases.marker.bits + phases.verify.bits,
        total.bits,
        "{context}: phase bits do not sum"
    );
    assert_eq!(
        phases.ghs.rounds + phases.marker.rounds + phases.verify.rounds,
        total.rounds,
        "{context}: phase rounds do not sum"
    );
}

// The soundness claim, adversarially: for random instances and
// k ∈ {1, 2, 4} colluding forgers of every class, the forged labeling
// is rejected by the wire protocol on one worker and on three with
// exactly the offline verifier's witness set, and replaying the
// recorded log reproduces the same reject witness.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn forged_labelings_reject_on_every_pool_size_and_replay(
        n in 8usize..36,
        extra in 0usize..24,
        seed in 0u64..1_000,
        forge_seed in 0u64..1_000,
        k_pick in 0usize..3,
        class_pick in 0usize..3,
    ) {
        let k = [1usize, 2, 4][k_pick];
        let class = ForgeClass::ALL[class_pick];
        prop_assume!(k < n);
        let (cfg, mut labeling, wire) = make_instance(n, extra, 64, seed);
        // Omega forgeries need separator level ≥ 2 somewhere; tiny or
        // path-degenerate instances may not host one.
        let Some(outcome) = forge_labeling(&cfg, &mut labeling, class, k, forge_seed) else {
            prop_assume!(class == ForgeClass::Omega);
            return Ok(());
        };
        prop_assert_eq!(outcome.forgers.len(), k);
        let offline = offline_verdict(&cfg, &labeling);
        prop_assert!(!offline.accepted(), "forgery must break the labeling");

        let mut runs = Vec::new();
        for engine in [pool(1), pool(3)] {
            let mut link = mstv_net::PerfectLink;
            let run = run_verification_with(
                &wire, &cfg, &labeling, &mut link, NetConfig::default(), engine,
            ).expect("perfect link converges");
            prop_assert!(!run.verdict.accepted(), "forged labeling accepted on {engine:?}");
            prop_assert_eq!(&run.verdict, &offline, "witness set diverged on {:?}", engine);
            let again = replay(&wire, &cfg, &labeling, &run.log).expect("log replays");
            prop_assert_eq!(&again.verdict, &run.verdict, "replay witness diverged");
            prop_assert_eq!(again.cost, run.cost);
            // A forged label is caught by its neighbours in the one round.
            prop_assert_eq!(run.first_reject, Some(1));
            prop_assert_eq!(again.first_reject, run.first_reject);
            runs.push(run);
        }
        prop_assert_eq!(
            runs[0].log.to_string(), runs[1].log.to_string(),
            "pool sizes diverged under forgery"
        );
    }
}

/// A partition that heals: cross-cut frames are blackholed for a round
/// window, the run must still converge to the offline verdict, and a
/// self-stabilization cycle starting from a forged labeling must
/// detect, recover, and come back clean — through the partition.
#[test]
fn partition_heals_and_selfstab_recovers_through_it() {
    let (cfg, mut labeling, wire) = make_instance(32, 40, 100, 21);
    let profile = FaultProfile {
        drop: 0.05,
        max_delay: 2,
        ..Default::default()
    };
    let spec: AdversarySpec = "partition:start=1,heal=4;seed=13".parse().expect("spec");
    let n = cfg.graph().num_nodes();

    // Honest labeling through the partition: still accepted.
    let mut link = AdversaryLink::new(spec, profile, 7, n);
    let clean = run_verification_with(
        &wire,
        &cfg,
        &labeling,
        &mut link,
        NetConfig::default(),
        pool(3),
    )
    .expect("healed partition converges");
    assert!(clean.verdict.accepted());
    let boundaries = clean
        .log
        .events
        .iter()
        .filter(|e| **e == LogEvent::Round)
        .count();
    assert!(
        boundaries >= 3,
        "the run should have outlived the partition window (retransmission boundaries={boundaries})"
    );

    // Forged labeling behind the same partition: detected, recovered,
    // and the next cycle is clean.
    forge_labeling(&cfg, &mut labeling, ForgeClass::Root, 2, 5).expect("forgery applies");
    let mut stab = NetSelfStab::from_parts(cfg, labeling);
    let mut link = AdversaryLink::new(spec, profile, 8, n);
    match stab
        .cycle_with(&mut link, NetConfig::default(), pool(3))
        .expect("cycle converges")
    {
        NetStabOutcome::Recovered { detectors, .. } => {
            assert!(!detectors.is_empty(), "recovery must name detectors")
        }
        NetStabOutcome::Clean { .. } => panic!("forged labeling went undetected"),
    }
    assert!(stab.invariant_holds(), "recovery must restore the MST");
    let mut link = AdversaryLink::new(spec, profile, 9, n);
    assert!(
        !stab
            .cycle_with(&mut link, NetConfig::default(), pool(3))
            .expect("cycle converges")
            .fault_detected(),
        "recovered labeling must verify clean"
    );
}

/// The reordering adversary releases every window of frames in reverse
/// offer order. Construction must still match the centralized oracle,
/// one worker and three must stay byte-identical, and — the attribution
/// invariant — per-phase rounds must still sum to the total.
#[test]
fn reorder_adversary_preserves_phase_attribution_and_equivalence() {
    let mut rng = StdRng::seed_from_u64(31);
    let g = gen::random_connected(24, 20, gen::WeightDist::Uniform { max: 64 }, &mut rng);
    let profile = FaultProfile {
        drop: 0.1,
        max_delay: 2,
        ..Default::default()
    };
    let spec: AdversarySpec = "reorder:window=7;seed=2".parse().expect("spec");

    let mut single_link = AdversaryLink::new(spec, profile, 42, g.num_nodes());
    let single = run_compute(&g, &mut single_link, NetConfig::default(), pool(1))
        .expect("one-worker run converges");
    let mut many_link = AdversaryLink::new(spec, profile, 42, g.num_nodes());
    let many = run_compute(&g, &mut many_link, NetConfig::default(), pool(3))
        .expect("three-worker run converges");

    assert_eq!(
        single.net.log.to_string(),
        many.net.log.to_string(),
        "pool sizes diverged under reordering"
    );
    assert_eq!(single.net.verdict, many.net.verdict);
    assert_eq!(single.net.cost, many.net.cost);
    assert_eq!(single.net.phases, many.net.phases);
    assert_phases_sum(&single.net.phases, &single.net.cost, "reorder compute");
    assert!(single.net.verdict.accepted());

    // The construction still matches the centralized oracle.
    let cfg = mst_configuration(g.clone());
    let oracle = MstScheme::new().marker(&cfg).expect("marker labels");
    for v in 0..g.num_nodes() {
        let v = NodeId(v as u32);
        assert_eq!(single.labeling.label(v), oracle.label(v));
        assert_eq!(single.labeling.encoded(v), oracle.encoded(v));
    }

    // And the log replays to the identical outcome, counters included.
    let again = replay_compute(&g, &single.net.log).expect("log replays");
    assert_eq!(again.net.verdict, single.net.verdict);
    assert_eq!(again.net.cost, single.net.cost);
    assert_eq!(again.net.phases, single.net.phases);

    // A pure verification run under the same adversary also keeps the
    // attribution exhaustive (everything in `verify`).
    let (cfg, labeling, wire) = make_instance(24, 20, 64, 31);
    let mut link = AdversaryLink::new(spec, profile, 42, cfg.graph().num_nodes());
    let run = run_verification_with(
        &wire,
        &cfg,
        &labeling,
        &mut link,
        NetConfig::default(),
        pool(3),
    )
    .expect("verification converges");
    assert_eq!(run.phases.verify.rounds, run.cost.rounds);
    assert_eq!(run.phases.ghs.rounds + run.phases.marker.rounds, 0);
}

/// Join/leave churn: departed nodes go silent in both directions and
/// rejoin through a crash-restart. Runs must converge to the offline
/// verdict with the churn actually exercised.
#[test]
fn churn_runs_converge_to_the_offline_verdict() {
    let (cfg, labeling, wire) = make_instance(28, 30, 64, 77);
    let profile = FaultProfile {
        drop: 0.05,
        max_delay: 1,
        ..Default::default()
    };
    let spec: AdversarySpec = "churn:rate=0.1,away=2,cap=6;seed=3".parse().expect("spec");
    let n = cfg.graph().num_nodes();
    let mut link = AdversaryLink::new(spec, profile, 11, n);
    let run = run_verification_with(
        &wire,
        &cfg,
        &labeling,
        &mut link,
        NetConfig::default(),
        pool(3),
    )
    .expect("churning run converges");
    assert!(link.departures() > 0, "churn never fired — test is vacuous");
    assert!(run.verdict.accepted());
    assert_eq!(run.verdict, offline_verdict(&cfg, &labeling));
    // Rejoins surface as crash-restarts (a node may still be away at
    // quiescence, so the counts need not match exactly).
    assert!(run.crash_restarts <= link.departures());

    // Same spec over a *forged* labeling still rejects: churn must not
    // mask a Byzantine forger.
    let (cfg, mut labeling, wire) = make_instance(28, 30, 64, 78);
    forge_labeling(&cfg, &mut labeling, ForgeClass::Bits, 2, 9).expect("forgery applies");
    let mut link = AdversaryLink::new(spec, profile, 12, n);
    let run = run_verification_with(
        &wire,
        &cfg,
        &labeling,
        &mut link,
        NetConfig::default(),
        pool(3),
    )
    .expect("churning run converges");
    assert!(!run.verdict.accepted());
    assert_eq!(run.verdict, offline_verdict(&cfg, &labeling));
}

/// Regression for the phase-B→C hand-off: crash-restarts scripted into
/// the rounds where construction hands off from marker to verification
/// must leave the convergecast, the phase attribution, and the built
/// labeling intact — on one worker and on three, with replay agreeing.
#[test]
fn scripted_crashes_at_the_phase_handoff_are_survived() {
    let mut rng = StdRng::seed_from_u64(53);
    let g = gen::random_connected(16, 14, gen::WeightDist::Uniform { max: 64 }, &mut rng);
    let profile = FaultProfile {
        drop: 0.15,
        max_delay: 2,
        ..Default::default()
    };
    let spec: AdversarySpec = "seed=0".parse().expect("spec");
    // Lossy construction on 16 nodes spends several rounds in phases
    // B/C; crashing nodes across rounds 2–4 lands restarts before,
    // at, and after each node's hand-off.
    let script = [(2u64, 1usize), (3, 5), (3, 9), (4, 13)];
    let build_link = |link_seed: u64| {
        let mut link = AdversaryLink::new(spec, profile, link_seed, g.num_nodes());
        for &(round, node) in &script {
            link.script_crash(round, node);
        }
        link
    };

    for link_seed in [4u64, 17, 99] {
        let mut single_link = build_link(link_seed);
        let single = run_compute(&g, &mut single_link, NetConfig::default(), pool(1))
            .expect("one-worker run converges");
        let mut many_link = build_link(link_seed);
        let many = run_compute(&g, &mut many_link, NetConfig::default(), pool(3))
            .expect("three-worker run converges");

        let context = format!("handoff crashes, link_seed={link_seed}");
        assert!(
            single.net.crash_restarts >= script.len() as u64,
            "{context}: scripted crashes did not fire"
        );
        assert_eq!(
            single.net.log.to_string(),
            many.net.log.to_string(),
            "{context}: pool sizes diverged"
        );
        assert!(single.net.verdict.accepted(), "{context}: network rejected");
        assert_phases_sum(&single.net.phases, &single.net.cost, &context);

        let cfg = mst_configuration(g.clone());
        let oracle = MstScheme::new().marker(&cfg).expect("marker labels");
        for v in 0..g.num_nodes() {
            let v = NodeId(v as u32);
            assert_eq!(
                single.labeling.encoded(v),
                oracle.encoded(v),
                "{context}: {v} built a different certificate"
            );
        }

        let again = replay_compute(&g, &single.net.log).expect("log replays");
        assert_eq!(again.net.verdict, single.net.verdict, "{context}");
        assert_eq!(again.net.cost, single.net.cost, "{context}");
        assert_eq!(again.net.phases, single.net.phases, "{context}");
    }
}

/// The full stack at once: forgery + partition + reorder + churn in a
/// single spec, one worker and three, replay cross-checked. The forged
/// labeling must still be rejected with the offline witness set.
#[test]
fn combined_adversary_is_still_sound() {
    let (cfg, mut labeling, wire) = make_instance(24, 24, 64, 41);
    forge_labeling(&cfg, &mut labeling, ForgeClass::Omega, 2, 7)
        .or_else(|| forge_labeling(&cfg, &mut labeling, ForgeClass::Root, 2, 7))
        .expect("some forgery applies");
    let offline = offline_verdict(&cfg, &labeling);
    assert!(!offline.accepted());

    let profile = FaultProfile {
        drop: 0.05,
        max_delay: 1,
        ..Default::default()
    };
    let spec: AdversarySpec =
        "partition:start=2,heal=4;reorder:window=5;churn:rate=0.05,away=2,cap=4;seed=6"
            .parse()
            .expect("spec");
    let n = cfg.graph().num_nodes();
    let mut logs = Vec::new();
    for engine in [pool(1), pool(3)] {
        let mut link = AdversaryLink::new(spec, profile, 23, n);
        let run = run_verification_with(
            &wire,
            &cfg,
            &labeling,
            &mut link,
            NetConfig::default(),
            engine,
        )
        .expect("combined adversary converges");
        assert!(!run.verdict.accepted(), "forgery accepted under {engine:?}");
        assert_eq!(run.verdict, offline, "witness set diverged on {engine:?}");
        let again = replay(&wire, &cfg, &labeling, &run.log).expect("log replays");
        assert_eq!(again.verdict, run.verdict);
        assert_eq!(again.cost, run.cost);
        let first = run
            .first_reject
            .expect("a rejecting run has a first rejection");
        assert!(first <= run.cost.rounds, "{first} > {}", run.cost.rounds);
        assert_eq!(again.first_reject, run.first_reject);
        logs.push(run.log.to_string());
    }
    assert_eq!(
        logs[0], logs[1],
        "pool sizes diverged under combined adversary"
    );
}
