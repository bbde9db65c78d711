//! The wire, pinned at the root: construction over a lossy link builds
//! the centralized marker's labels bit for bit, a labeling forged at one
//! node is rejected on the wire for every forgery class, the schedule a
//! run records is the same on one worker as on four and replays to the
//! same verdict and cost, a one-worker run steps every machine on the
//! calling thread, and every run is counted in causal rounds that the
//! log carries and replay recomputes.

use std::collections::HashSet;
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

use mst_verification::core::{
    mst_configuration, LocalView, MstLabel, MstScheme, ProofLabelingScheme,
};
use mst_verification::graph::{gen, Graph, NodeId, TreeState};
use mst_verification::labels::BitString;
use mst_verification::net::{
    forge_labeling, replay, replay_compute, run_compute, run_verification, run_verification_with,
    Engine, EventLog, FaultProfile, ForgeClass, LossyLink, MstWireScheme, NetConfig, NetError,
    PerfectLink, WireScheme,
};
use mst_verification::trees::ParallelConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Drops, duplicates, delays and a few crash-restarts: every fault the
/// link can inject.
const PROFILE: FaultProfile = FaultProfile {
    drop: 0.2,
    duplicate: 0.1,
    max_delay: 2,
    crash: 0.02,
    max_crashes: 2,
};

fn graph(n: usize, extra: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    gen::random_connected(n, extra, gen::WeightDist::Uniform { max: 500 }, &mut rng)
}

fn pool(workers: usize) -> Engine {
    Engine::Events {
        workers: ParallelConfig::with_threads(NonZeroUsize::new(workers).expect("nonzero")),
    }
}

#[test]
fn construction_over_a_lossy_link_builds_the_markers_labels() {
    for (n, extra, seed) in [(1usize, 0usize, 1u64), (2, 0, 2), (17, 20, 3), (64, 120, 4)] {
        let g = graph(n, extra, seed);
        let mut link = LossyLink::new(PROFILE, seed);
        let run = run_compute(&g, &mut link, NetConfig::default(), Engine::default())
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
        assert!(run.net.verdict.accepted(), "n={n}: {}", run.net.verdict);
        let cfg = mst_configuration(g);
        let oracle = MstScheme::new()
            .marker(&cfg)
            .expect("marker labels the MST");
        for v in (0..n).map(|v| NodeId(v as u32)) {
            assert_eq!(
                run.labeling.encoded(v),
                oracle.encoded(v),
                "n={n}: {v} built a different certificate"
            );
        }
    }
}

#[test]
fn a_labeling_forged_at_one_node_is_rejected_on_the_wire() {
    let cfg = mst_configuration(graph(48, 80, 11));
    let honest = MstScheme::new()
        .marker(&cfg)
        .expect("marker labels the MST");
    let wire = MstWireScheme::for_config(&cfg);
    for class in ForgeClass::ALL {
        let mut forged = honest.clone();
        let outcome = forge_labeling(&cfg, &mut forged, class, 1, 7)
            .unwrap_or_else(|| panic!("no {class:?} forgery on this instance"));
        assert_eq!(outcome.forgers.len(), 1);
        let mut link = LossyLink::new(PROFILE, 5);
        let run = run_verification(&wire, &cfg, &forged, &mut link, NetConfig::default())
            .expect("fair-lossy run converges");
        assert!(!run.verdict.accepted(), "{class:?} forgery accepted");
        assert_eq!(
            run.verdict,
            MstScheme::new().verify_all(&cfg, &forged),
            "{class:?}: the wire and the offline verifier disagree"
        );
    }
}

#[test]
fn one_worker_and_four_record_the_same_replayable_log() {
    let g = graph(40, 60, 21);
    let cfg = mst_configuration(g.clone());
    let labeling = MstScheme::new()
        .marker(&cfg)
        .expect("marker labels the MST");
    let wire = MstWireScheme::for_config(&cfg);

    let verify_on = |workers: usize| {
        let mut link = LossyLink::new(PROFILE, 9);
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
    let (one, four) = (verify_on(1), verify_on(4));
    let text = one.log.to_string();
    assert_eq!(
        text,
        four.log.to_string(),
        "the pool size leaked into the log"
    );
    assert_eq!((&one.verdict, one.cost), (&four.verdict, four.cost));
    let again = replay(&wire, &cfg, &labeling, &EventLog::parse(&text).unwrap()).unwrap();
    assert_eq!((again.verdict, again.cost), (one.verdict, one.cost));

    let build_on = |workers: usize| {
        let mut link = LossyLink::new(PROFILE, 9);
        run_compute(&g, &mut link, NetConfig::default(), pool(workers))
            .expect("fair-lossy construction converges")
    };
    let (one, four) = (build_on(1), build_on(4));
    let text = one.net.log.to_string();
    assert_eq!(
        text,
        four.net.log.to_string(),
        "the pool size leaked into the log"
    );
    assert_eq!(
        (&one.net.verdict, one.net.cost),
        (&four.net.verdict, four.net.cost)
    );
    let again = replay_compute(&g, &EventLog::parse(&text).unwrap()).unwrap();
    assert_eq!(
        (again.net.verdict, again.net.cost),
        (one.net.verdict, one.net.cost)
    );
}

/// [`MstWireScheme`] that records which threads decode labels and run
/// the local verifier, the two steps where a machine does its work.
#[derive(Clone)]
struct ThreadRecorder {
    inner: MstWireScheme,
    threads: Arc<Mutex<HashSet<ThreadId>>>,
}

impl ThreadRecorder {
    fn record(&self) {
        self.threads.lock().unwrap().insert(thread::current().id());
    }
}

impl WireScheme for ThreadRecorder {
    type State = TreeState;
    type Label = MstLabel;

    fn decode_label(&self, bits: &BitString) -> Option<MstLabel> {
        self.record();
        self.inner.decode_label(bits)
    }

    fn verify(&self, view: &LocalView<'_, TreeState, MstLabel>) -> bool {
        self.record();
        self.inner.verify(view)
    }
}

#[test]
fn one_worker_steps_every_machine_on_the_calling_thread() {
    let cfg = mst_configuration(graph(40, 60, 31));
    let labeling = MstScheme::new()
        .marker(&cfg)
        .expect("marker labels the MST");
    let run_on = |workers: usize| {
        let scheme = ThreadRecorder {
            inner: MstWireScheme::for_config(&cfg),
            threads: Arc::default(),
        };
        let mut link = LossyLink::new(PROFILE, 13);
        let run = run_verification_with(
            &scheme,
            &cfg,
            &labeling,
            &mut link,
            NetConfig::default(),
            pool(workers),
        )
        .expect("fair-lossy run converges");
        let threads = scheme.threads.lock().unwrap().clone();
        (run, threads)
    };
    let (one, threads) = run_on(1);
    assert!(one.verdict.accepted(), "{}", one.verdict);
    assert_eq!(
        threads,
        HashSet::from([thread::current().id()]),
        "a one-worker run stepped a machine off the calling thread"
    );
    let (two, _) = run_on(2);
    assert_eq!((&two.verdict, two.cost), (&one.verdict, one.cost));
    assert_eq!(
        two.log.to_string(),
        one.log.to_string(),
        "the router racing one helper recorded a different schedule"
    );
}

#[test]
fn the_wire_counts_causal_rounds() {
    for (n, extra, seed) in [(2usize, 0usize, 21u64), (17, 20, 22), (64, 120, 23)] {
        let g = graph(n, extra, seed);
        let run = run_compute(&g, &mut PerfectLink, NetConfig::default(), pool(1))
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
        let p = run.net.phases;
        assert!(p.ghs.rounds > 0, "n={n}: GHS took no round: {p:?}");
        assert!(
            p.marker.rounds > 0,
            "n={n}: the marker took no round: {p:?}"
        );
        assert_eq!(p.verify.rounds, 1, "n={n}: {p:?}");
        assert_eq!(
            p.ghs.rounds + p.marker.rounds + p.verify.rounds,
            run.net.cost.rounds,
            "n={n}: the phases must sum to the total"
        );
        // The log carries the clock: replay recomputes it from the text.
        let log = EventLog::parse(&run.net.log.to_string()).expect("the log parses");
        let again = replay_compute(&g, &log).expect("the log replays");
        assert_eq!(again.net.cost, run.net.cost, "n={n}");
        assert_eq!(again.net.phases, run.net.phases, "n={n}");
        // Verifying what was built is one round on a perfect link.
        let cfg = mst_configuration(g);
        let wire = MstWireScheme::for_config(&cfg);
        let verify = run_verification(
            &wire,
            &cfg,
            &run.labeling,
            &mut PerfectLink,
            NetConfig::default(),
        )
        .expect("a perfect link converges");
        assert!(verify.verdict.accepted());
        assert_eq!(verify.cost.rounds, 1, "n={n}");
    }
    // A log written before the clock counted depth is refused by name.
    let err = EventLog::parse("mstv-net-log v1\ns 0\n").expect_err("v1 is refused");
    assert_eq!(
        err,
        NetError::LogVersion {
            found: "v1".to_string()
        }
    );
    assert!(err.to_string().contains("v1"), "{err}");
}
