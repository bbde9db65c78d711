//! Integration tests for the concurrent runtime: verdict stability
//! under lossy schedules, exact replay, and crash-restart behavior.

use std::num::NonZeroUsize;

use mstv_core::{
    encode_mst_label, mst_configuration, Labeling, MstLabel, MstScheme, ProofLabelingScheme,
    SpanCodec, Verdict,
};
use mstv_graph::{gen, ConfigGraph, Graph, NodeId, TreeState};
use mstv_labels::{LabelCodec, SepFieldCodec};
use mstv_net::{
    replay, run_verification, run_verification_with, Engine, FaultProfile, Link, LogEvent,
    LossyLink, MstWireScheme, NetConfig, PerfectLink,
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

/// Re-encodes a labeling after corrupting one structured label, so the
/// corrupted certificate still decodes but fails verification.
fn corrupt_label(
    cfg: &ConfigGraph<TreeState>,
    labeling: &Labeling<MstLabel>,
    v: NodeId,
) -> Labeling<MstLabel> {
    let mut labels = labeling.labels().to_vec();
    labels[v.index()].span.dist += 1;
    let span_codec = SpanCodec::for_config(cfg);
    let gamma_codec = LabelCodec {
        sep_codec: SepFieldCodec::EliasGamma,
        omega_bits: cfg.graph().max_weight().bit_width(),
    };
    let encoded = labels
        .iter()
        .map(|l| encode_mst_label(l, span_codec, gamma_codec))
        .collect();
    Labeling::new(labels, encoded)
}

fn offline_verdict(cfg: &ConfigGraph<TreeState>, labeling: &Labeling<MstLabel>) -> Verdict {
    MstScheme::new().verify_all(cfg, labeling)
}

#[test]
fn perfect_link_matches_offline_verifier() {
    let (cfg, labeling, wire) = make_instance(32, 48, 100, 11);
    let run = run_verification(
        &wire,
        &cfg,
        &labeling,
        &mut PerfectLink,
        NetConfig::default(),
    )
    .expect("perfect link converges");
    assert!(run.verdict.accepted());
    assert_eq!(run.verdict, offline_verdict(&cfg, &labeling));
    assert_eq!(run.first_reject, None, "nobody rejects an honest labeling");
    // One label per edge direction, all in round one: nothing is acked.
    let m = cfg.graph().num_edges() as u64;
    assert_eq!(run.cost.msgs, 2 * m);
    assert_eq!(run.cost.rounds, 1);
    assert_eq!(run.crash_restarts, 0);
    // The bit cost is dominated by label payloads: at least the total
    // certificate bits, once per direction.
    assert!(run.cost.bits >= 2 * m as u128);
}

#[test]
fn replay_reproduces_lossy_run_exactly() {
    let (cfg, labeling, wire) = make_instance(24, 36, 64, 5);
    let profile = FaultProfile {
        drop: 0.3,
        duplicate: 0.15,
        max_delay: 3,
        crash: 0.05,
        max_crashes: 4,
    };
    let mut link = LossyLink::new(profile, 99);
    let live = run_verification(&wire, &cfg, &labeling, &mut link, NetConfig::default())
        .expect("fair-lossy run converges");
    let replayed = replay(&wire, &cfg, &labeling, &live.log).expect("log replays");
    assert_eq!(replayed.verdict, live.verdict);
    assert_eq!(replayed.cost, live.cost);
    assert_eq!(replayed.crash_restarts, live.crash_restarts);
    // The round-trip through the text format preserves the schedule.
    let text = live.log.to_string();
    let parsed = mstv_net::EventLog::parse(&text).expect("text log parses");
    let reparsed = replay(&wire, &cfg, &labeling, &parsed).expect("parsed log replays");
    assert_eq!(reparsed.verdict, live.verdict);
    assert_eq!(reparsed.cost, live.cost);
}

/// Drops the first `drops` offered frames (forcing at least one
/// retransmission round), then delivers perfectly; crashes `victim`
/// at the first retransmission boundary.
struct ScriptedLink {
    drops_left: usize,
    victim: Option<usize>,
}

impl Link for ScriptedLink {
    fn offer(&mut self) -> Vec<u32> {
        if self.drops_left > 0 {
            self.drops_left -= 1;
            return Vec::new();
        }
        vec![0]
    }

    fn crash_picks(&mut self, _nodes: usize) -> Vec<usize> {
        self.victim.take().into_iter().collect()
    }
}

#[test]
fn crash_restarted_nonroot_node_still_rejects_corrupted_label() {
    let (cfg, labeling, wire) = make_instance(16, 20, 50, 3);
    // Corrupt a non-root node's certificate, then crash-restart that
    // same node mid-protocol: its persistent (corrupted) label
    // survives the restart, so the re-run verification still catches
    // the fault.
    let victim = NodeId(5);
    assert!(
        cfg.state(victim).parent_port.is_some(),
        "test needs a non-root victim"
    );
    let corrupted = corrupt_label(&cfg, &labeling, victim);
    let expected = offline_verdict(&cfg, &corrupted);
    assert!(!expected.accepted(), "corruption must be detectable");
    let mut link = ScriptedLink {
        drops_left: 8,
        victim: Some(victim.index()),
    };
    let run = run_verification(&wire, &cfg, &corrupted, &mut link, NetConfig::default())
        .expect("scripted link converges");
    assert_eq!(run.crash_restarts, 1);
    assert!(
        run.log.events.contains(&LogEvent::Round),
        "the scripted drops must force a retransmission round"
    );
    assert_eq!(run.verdict, expected);
}

/// Seed for the CI smoke loop: `scripts/ci.sh` runs this test 16 times
/// with distinct `MSTV_NET_SEED` values and fails on any verdict that
/// disagrees with the offline verifier.
fn env_seed() -> u64 {
    std::env::var("MSTV_NET_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// One half of the CI smoke sweep: clean and corrupted certificates
/// over a seeded lossy link on `engine`'s pool, each verdict checked
/// against the offline verifier.
fn lossy_smoke(engine: Engine) {
    let seed = env_seed();
    let (cfg, labeling, wire) = make_instance(48, 72, 128, seed ^ 0xa5a5);
    let profile = FaultProfile {
        drop: 0.25,
        duplicate: 0.1,
        max_delay: 2,
        crash: 0.02,
        max_crashes: 3,
    };
    let net = NetConfig::default();
    let mut link = LossyLink::new(profile, seed);
    let clean = run_verification_with(&wire, &cfg, &labeling, &mut link, net, engine)
        .expect("clean run converges");
    assert_eq!(clean.verdict, offline_verdict(&cfg, &labeling));

    let corrupted = corrupt_label(&cfg, &labeling, NodeId(7));
    let mut link = LossyLink::new(profile, seed.wrapping_add(1));
    let faulty = run_verification_with(&wire, &cfg, &corrupted, &mut link, net, engine)
        .expect("faulty run converges");
    assert_eq!(faulty.verdict, offline_verdict(&cfg, &corrupted));
}

fn pool(workers: usize) -> Engine {
    Engine::Events {
        workers: ParallelConfig::with_threads(NonZeroUsize::new(workers).expect("nonzero")),
    }
}

/// The one-worker half of the CI smoke sweep.
#[test]
fn lossy_smoke_verdicts_are_schedule_independent() {
    lossy_smoke(pool(1));
}

/// The wide-pool half of the CI smoke sweep: the same instances and
/// fault profile, scheduled on eight workers.
#[test]
fn lossy_smoke_events_engine_matches_offline() {
    lossy_smoke(pool(8));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under any seeded lossy schedule with eventual delivery and a few
    /// crash-restarts, the net verifier converges to the same verdict
    /// as the offline `verify_all` — on clean and on corrupted
    /// certificates alike. A crash-restart is the one path that opens
    /// with pulls on every port.
    #[test]
    fn lossy_schedules_converge_to_offline_verdict(
        n in 4usize..24,
        extra in 0usize..24,
        graph_seed in any::<u64>(),
        link_seed in any::<u64>(),
        drop in 0u32..40,
        dup in 0u32..30,
        delay in 0u32..4,
        crash in 0u32..=5,
        max_crashes in 0u32..=3,
        corrupt in any::<bool>(),
    ) {
        let (cfg, labeling, wire) = make_instance(n, extra, 64, graph_seed);
        let labeling = if corrupt {
            corrupt_label(&cfg, &labeling, NodeId((n as u32) / 2))
        } else {
            labeling
        };
        let profile = FaultProfile {
            drop: f64::from(drop) / 100.0,
            duplicate: f64::from(dup) / 100.0,
            max_delay: delay,
            crash: f64::from(crash) / 100.0,
            max_crashes: max_crashes.into(),
        };
        let mut link = LossyLink::new(profile, link_seed);
        let run = run_verification(&wire, &cfg, &labeling, &mut link, NetConfig::default())
            .expect("fair-lossy run converges");
        prop_assert_eq!(run.verdict, offline_verdict(&cfg, &labeling));
    }
}

/// The self-stabilizing loop on the runtime: detect over a lossy link,
/// recover, and come back clean.
#[test]
fn selfstab_cycle_recovers_over_lossy_link() {
    use mstv_core::faults;
    use mstv_net::{NetSelfStab, NetStabOutcome};

    let mut rng = StdRng::seed_from_u64(21);
    let g: Graph = gen::random_connected(20, 30, gen::WeightDist::Uniform { max: 80 }, &mut rng);
    let mut net = NetSelfStab::new(g).expect("connected graph");
    let profile = FaultProfile {
        drop: 0.2,
        duplicate: 0.05,
        max_delay: 2,
        crash: 0.0,
        max_crashes: 0,
    };

    let mut link = LossyLink::new(profile, 1);
    let outcome = net
        .cycle(&mut link, NetConfig::default())
        .expect("cycle converges");
    assert!(!outcome.fault_detected(), "clean network must verify clean");

    faults::break_minimality(net.config_mut(), &mut rng).expect("fault applies");
    assert!(!net.invariant_holds());
    let mut link = LossyLink::new(profile, 2);
    let outcome = net
        .cycle(&mut link, NetConfig::default())
        .expect("cycle converges");
    let NetStabOutcome::Recovered {
        verify,
        recompute_cost,
        ..
    } = outcome
    else {
        panic!("corruption must be caught on the wire");
    };
    assert!(net.invariant_holds(), "recovery must restore the MST");
    // Recovery is a construction run on the same clock: GHS and the
    // marker go far deeper than the label exchange that detected.
    assert!(
        recompute_cost.rounds > verify.cost.rounds,
        "recompute {recompute_cost:?} vs detect {:?}",
        verify.cost
    );
    let marker = MstScheme::new().marker(net.config()).expect("MST labels");
    for v in net.config().graph().nodes() {
        assert_eq!(net.labeling().encoded(v), marker.encoded(v), "{v}");
    }

    let mut link = LossyLink::new(profile, 3);
    let outcome = net
        .cycle(&mut link, NetConfig::default())
        .expect("cycle converges");
    assert!(
        !outcome.fault_detected(),
        "recovered network must verify clean"
    );
}

/// A disconnected graph has no spanning tree to maintain: bootstrapping
/// one is a typed error, not a panic.
#[test]
fn selfstab_refuses_a_disconnected_graph() {
    use mstv_core::MarkerError;
    use mstv_graph::Weight;
    use mstv_net::{NetError, NetSelfStab};

    let mut g = Graph::new(4);
    g.add_edge(NodeId(0), NodeId(1), Weight(3)).expect("edge");
    g.add_edge(NodeId(2), NodeId(3), Weight(5)).expect("edge");
    let err = NetSelfStab::new(g).expect_err("two components cannot span");
    assert_eq!(err, NetError::Marker(MarkerError::NotSpanning));
}
