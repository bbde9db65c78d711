//! Pool-size equivalence and regression tests: a run on one worker and
//! a run on several must be observably identical (verdict, MessageCost,
//! byte-identical EventLog), the single-threaded replay must reproduce
//! both from the log, and a worker that panics mid-run must surface as
//! a typed error — never a hang.

use std::num::NonZeroUsize;

use mstv_core::{
    mst_configuration, Labeling, LocalView, MstLabel, MstScheme, ProofLabelingScheme, Verdict,
};
use mstv_graph::{gen, ConfigGraph, TreeState};
use mstv_labels::BitString;
use mstv_net::{
    replay, run_verification_with, Engine, FaultProfile, LossyLink, MstWireScheme, NetConfig,
    NetError, PerfectLink, WireScheme,
};
use mstv_trees::ParallelConfig;
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

fn pool(workers: usize) -> Engine {
    Engine::Events {
        workers: ParallelConfig::with_threads(NonZeroUsize::new(workers).expect("nonzero")),
    }
}

fn offline_verdict(cfg: &ConfigGraph<TreeState>, labeling: &Labeling<MstLabel>) -> Verdict {
    MstScheme::new().verify_all(cfg, labeling)
}

/// Runs the same instance on one worker and on `workers` under the same
/// (re-seeded) link and asserts verdict, cost, crash count, and the
/// *entire event log* are identical — and that the single-threaded
/// replay of that log reproduces the verdict and cost.
fn assert_pools_agree(
    cfg: &ConfigGraph<TreeState>,
    labeling: &Labeling<MstLabel>,
    wire: &MstWireScheme,
    profile: FaultProfile,
    link_seed: u64,
    workers: usize,
) {
    let run_on = |engine: Engine| {
        let mut link = LossyLink::new(profile, link_seed);
        run_verification_with(wire, cfg, labeling, &mut link, NetConfig::default(), engine)
            .expect("fair-lossy run converges")
    };
    let single = run_on(pool(1));
    let many = run_on(pool(workers));
    assert_eq!(many.verdict, single.verdict, "seed {link_seed}");
    assert_eq!(many.cost, single.cost, "seed {link_seed}");
    assert_eq!(
        many.crash_restarts, single.crash_restarts,
        "seed {link_seed}"
    );
    assert_eq!(
        many.log.to_string(),
        single.log.to_string(),
        "seed {link_seed}: pool sizes recorded different schedules"
    );
    let replayed = replay(wire, cfg, labeling, &single.log).expect("log replays");
    assert_eq!(replayed.verdict, single.verdict, "seed {link_seed}");
    assert_eq!(replayed.cost, single.cost, "seed {link_seed}");
}

#[test]
fn pool_sizes_are_observably_identical_across_seeds() {
    let (cfg, labeling, wire) = make_instance(40, 60, 128, 17);
    let profile = FaultProfile {
        drop: 0.2,
        duplicate: 0.1,
        max_delay: 3,
        crash: 0.03,
        max_crashes: 3,
    };
    for link_seed in [0u64, 1, 2, 42, 0xdead_beef] {
        // Two workers: the router races one helper for the queue.
        for workers in [2, 4] {
            assert_pools_agree(&cfg, &labeling, &wire, profile, link_seed, workers);
        }
    }
    // A perfect link too: the degenerate single-round schedule.
    let run_on = |engine: Engine| {
        run_verification_with(
            &wire,
            &cfg,
            &labeling,
            &mut PerfectLink,
            NetConfig::default(),
            engine,
        )
        .expect("perfect link converges")
    };
    let single = run_on(pool(1));
    for workers in [2, 4] {
        let many = run_on(pool(workers));
        assert_eq!(many.cost, single.cost, "workers={workers}");
        assert_eq!(
            many.log.to_string(),
            single.log.to_string(),
            "workers={workers}"
        );
    }
}

#[test]
fn events_engine_is_deterministic_across_pool_sizes() {
    let (cfg, labeling, wire) = make_instance(32, 48, 100, 23);
    let profile = FaultProfile {
        drop: 0.25,
        duplicate: 0.1,
        max_delay: 2,
        crash: 0.0,
        max_crashes: 0,
    };
    let run_with = |workers: usize| {
        let mut link = LossyLink::new(profile, 7);
        run_verification_with(
            &wire,
            &cfg,
            &labeling,
            &mut link,
            NetConfig::default(),
            pool(workers),
        )
        .expect("fair-lossy run converges")
    };
    let one = run_with(1);
    for workers in [2, 3, 8] {
        let many = run_with(workers);
        assert_eq!(many.cost, one.cost, "workers={workers}");
        assert_eq!(
            many.log.to_string(),
            one.log.to_string(),
            "workers={workers}: pool size leaked into the schedule"
        );
    }
}

#[test]
fn events_engine_log_replays_to_exact_cost() {
    // Record on a wide pool under a lossy schedule, replay
    // single-threaded, and get the same verdict and the exact
    // MessageCost back.
    let (cfg, labeling, wire) = make_instance(28, 40, 80, 31);
    let profile = FaultProfile {
        drop: 0.3,
        duplicate: 0.15,
        max_delay: 3,
        crash: 0.05,
        max_crashes: 4,
    };
    let mut link = LossyLink::new(profile, 12345);
    let live = run_verification_with(
        &wire,
        &cfg,
        &labeling,
        &mut link,
        NetConfig::default(),
        pool(8),
    )
    .expect("fair-lossy run converges");
    let replayed = replay(&wire, &cfg, &labeling, &live.log).expect("log replays");
    assert_eq!(replayed.verdict, live.verdict);
    assert_eq!(replayed.cost, live.cost);
    assert_eq!(replayed.crash_restarts, live.crash_restarts);
    // And through the text format, as a saved log file would travel.
    let parsed = mstv_net::EventLog::parse(&live.log.to_string()).expect("log text parses");
    let reparsed = replay(&wire, &cfg, &labeling, &parsed).expect("parsed log replays");
    assert_eq!(reparsed.cost, live.cost);
}

#[test]
fn single_node_and_single_edge_instances_run_on_every_pool_size() {
    // n = 1: no edges, every pool must still dispatch Start and
    // collect the lone verdict (the machine decides on its own label
    // immediately). n = 2: one edge, the smallest real exchange.
    for (n, extra) in [(1usize, 0usize), (2, 0)] {
        let (cfg, labeling, wire) = make_instance(n, extra, 10, 91 + n as u64);
        let expected = offline_verdict(&cfg, &labeling);
        for engine in [pool(1), pool(3), pool(4)] {
            let run = run_verification_with(
                &wire,
                &cfg,
                &labeling,
                &mut PerfectLink,
                NetConfig::default(),
                engine,
            )
            .unwrap_or_else(|e| panic!("n={n} {engine:?}: {e}"));
            assert_eq!(run.verdict, expected, "n={n} {engine:?}");
            assert_eq!(run.cost.rounds, 1, "n={n} {engine:?}");
            let again = replay(&wire, &cfg, &labeling, &run.log).expect("edge-case log replays");
            assert_eq!(again.cost, run.cost, "n={n} {engine:?}");
        }
        // The lossy path exercises retransmission on the tiny instances.
        if n == 2 {
            let profile = FaultProfile {
                drop: 0.5,
                duplicate: 0.2,
                max_delay: 2,
                crash: 0.0,
                max_crashes: 0,
            };
            assert_pools_agree(&cfg, &labeling, &wire, profile, 5, 3);
        }
    }
}

#[test]
fn compute_pool_sizes_are_observably_identical() {
    // The construction protocol (GHS + marker + verify) through the
    // same lens as verification: one worker and four must produce the
    // same artifacts, the same total and per-phase counters, and the
    // same event schedule — and the log must replay to all of it
    // exactly.
    let mut rng = StdRng::seed_from_u64(29);
    let g = gen::random_connected(24, 32, gen::WeightDist::Uniform { max: 96 }, &mut rng);
    let profile = FaultProfile {
        drop: 0.2,
        duplicate: 0.1,
        max_delay: 3,
        crash: 0.02,
        max_crashes: 2,
    };
    for link_seed in [0u64, 3, 11] {
        let run_on = |engine: Engine| {
            let mut link = LossyLink::new(profile, link_seed);
            mstv_net::run_compute(&g, &mut link, NetConfig::default(), engine)
                .expect("fair-lossy construction converges")
        };
        let single = run_on(pool(1));
        let many = run_on(pool(4));
        assert_eq!(many.net.verdict, single.net.verdict, "seed {link_seed}");
        assert_eq!(many.net.cost, single.net.cost, "seed {link_seed}");
        assert_eq!(many.net.phases, single.net.phases, "seed {link_seed}");
        assert_eq!(
            many.net.crash_restarts, single.net.crash_restarts,
            "seed {link_seed}"
        );
        assert_eq!(many.states, single.states, "seed {link_seed}");
        assert_eq!(many.mst_edges, single.mst_edges, "seed {link_seed}");
        assert_eq!(
            many.net.log.to_string(),
            single.net.log.to_string(),
            "seed {link_seed}: pool sizes recorded different construction schedules"
        );
        let replayed =
            mstv_net::replay_compute(&g, &single.net.log).expect("construction log replays");
        assert_eq!(replayed.net.verdict, single.net.verdict, "seed {link_seed}");
        assert_eq!(replayed.net.cost, single.net.cost, "seed {link_seed}");
        assert_eq!(replayed.net.phases, single.net.phases, "seed {link_seed}");
        assert_eq!(replayed.states, single.states, "seed {link_seed}");
    }
}

/// A scheme rigged to panic whenever a label is decoded: on an n = 1
/// instance the lone node decodes its own certificate while handling
/// `Start`; on larger instances the first delivered label frame blows
/// up its receiver while every other worker stays alive, keeping its
/// end of the shared report channel open — the router must still not
/// wait forever.
#[derive(Clone)]
struct PanicOnDecode;

impl WireScheme for PanicOnDecode {
    type State = TreeState;
    type Label = ();

    fn decode_label(&self, _bits: &BitString) -> Option<()> {
        panic!("rigged decode")
    }

    fn verify(&self, _view: &LocalView<'_, TreeState, ()>) -> bool {
        true
    }
}

/// Re-types an MST labeling for [`PanicOnDecode`]: same encoded bits,
/// unit structured labels (never inspected — decode panics first).
fn unit_labeling(labeling: &Labeling<MstLabel>, n: usize) -> Labeling<()> {
    let encoded: Vec<BitString> = (0..n)
        .map(|v| labeling.encoded(mstv_graph::NodeId(v as u32)).clone())
        .collect();
    Labeling::new(vec![(); n], encoded)
}

#[test]
fn panicking_worker_is_a_typed_error_not_a_hang() {
    // n = 1: the machine panics while handling its Start event, with no
    // other worker to notice.
    let (cfg1, labeling1, _) = make_instance(1, 0, 10, 7);
    let unit1 = unit_labeling(&labeling1, 1);
    // n = 8: one receiver panics on the first label delivery while the
    // live helpers (one at two workers, three at four) keep their ends
    // of the shared report channel open.
    let (cfg8, labeling8, _) = make_instance(8, 10, 10, 8);
    let unit8 = unit_labeling(&labeling8, 8);

    for engine in [pool(1), pool(2), pool(4)] {
        let err = run_verification_with(
            &PanicOnDecode,
            &cfg1,
            &unit1,
            &mut PerfectLink,
            NetConfig::default(),
            engine,
        )
        .expect_err("a panicked worker must fail the run");
        assert_eq!(
            err,
            NetError::WorkerDied {
                node: mstv_graph::NodeId(0)
            },
            "{engine:?}"
        );

        let err = run_verification_with(
            &PanicOnDecode,
            &cfg8,
            &unit8,
            &mut PerfectLink,
            NetConfig::default(),
            engine,
        )
        .expect_err("a panicked worker must fail the run");
        assert!(
            matches!(err, NetError::WorkerDied { .. }),
            "{engine:?}: got {err}"
        );
    }
}

#[test]
fn record_log_off_changes_nothing_but_the_log() {
    let (cfg, labeling, wire) = make_instance(24, 36, 64, 55);
    let profile = FaultProfile {
        drop: 0.2,
        duplicate: 0.1,
        max_delay: 2,
        crash: 0.0,
        max_crashes: 0,
    };
    for engine in [pool(1), pool(4)] {
        let mut link = LossyLink::new(profile, 3);
        let recorded = run_verification_with(
            &wire,
            &cfg,
            &labeling,
            &mut link,
            NetConfig::default(),
            engine,
        )
        .expect("run converges");
        let mut link = LossyLink::new(profile, 3);
        let bare = run_verification_with(
            &wire,
            &cfg,
            &labeling,
            &mut link,
            NetConfig {
                record_log: false,
                ..NetConfig::default()
            },
            engine,
        )
        .expect("run converges");
        assert_eq!(bare.verdict, recorded.verdict, "{engine:?}");
        assert_eq!(bare.cost, recorded.cost, "{engine:?}");
        assert!(bare.log.events.is_empty(), "{engine:?}");
        // The summary trailer still records the outcome.
        assert_eq!(
            bare.log.summary.as_ref().map(|s| s.cost),
            Some(recorded.cost),
            "{engine:?}"
        );
    }
}
