//! The wire, pinned at the root: construction over a lossy link builds
//! the centralized marker's labels bit for bit, a labeling forged at one
//! node is rejected on the wire for every forgery class, the schedule a
//! run records is the same on one worker as on four and replays to the
//! same verdict and cost, a one-worker run steps every machine on the
//! calling thread, and every run is counted in causal rounds that the
//! log carries and replay recomputes. On a perfect link verification is
//! the paper's one round: `2m` frames, one per edge direction, and the
//! distributed marker stays within its depth envelope. A replayed
//! delivery that no live run could have made is refused naming the
//! line of the log's text.

use std::collections::HashSet;
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

use mst_verification::core::{
    mst_configuration, Labeling, LocalView, MstLabel, MstScheme, ProofLabelingScheme,
};
use mst_verification::graph::{gen, ConfigGraph, Graph, NodeId, TreeState};
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

/// The MST's height from node 0 and the number of decomposition
/// levels, read off a `π_mst` labeling: the largest root distance and
/// the longest orientation list.
fn height_and_levels(labeling: &Labeling<MstLabel>) -> (u64, u64) {
    let labels = labeling.labels();
    let height = labels.iter().map(|l| l.span.dist).max().unwrap_or(0);
    let levels = labels
        .iter()
        .map(|l| l.orient.len() as u64)
        .max()
        .unwrap_or(0);
    (height, levels)
}

#[test]
fn the_wire_counts_causal_rounds() {
    let mut rng = StdRng::seed_from_u64(24);
    let star = gen::star(64, gen::WeightDist::Uniform { max: 500 }, &mut rng);
    let instances = [
        ("n=2", graph(2, 0, 21)),
        ("n=17", graph(17, 20, 22)),
        ("n=64", graph(64, 120, 23)),
        ("star64", star),
    ];
    for (n, g) in instances {
        let run = run_compute(&g, &mut PerfectLink, NetConfig::default(), pool(1))
            .unwrap_or_else(|e| panic!("{n}: {e}"));
        let p = run.net.phases;
        let m = g.num_edges() as u64;
        assert!(p.ghs.rounds > 0, "{n}: GHS took no round: {p:?}");
        assert!(p.marker.rounds > 0, "{n}: the marker took no round: {p:?}");
        assert_eq!(p.verify.rounds, 1, "{n}: {p:?}");
        assert_eq!(p.verify.msgs, 2 * m, "{n}: {p:?}");
        assert_eq!(
            p.ghs.rounds + p.marker.rounds + p.verify.rounds,
            run.net.cost.rounds,
            "{n}: the phases must sum to the total"
        );
        // The marker's depth follows the tree's height H times the
        // number of decomposition levels L: per level the size
        // convergecast takes at most 4H rounds, the descent 2H, the
        // announce one hop; the rooting and the hand-off add 2H each.
        let (height, levels) = height_and_levels(&run.labeling);
        let envelope = 4 * height + levels * (6 * height + 1);
        assert!(
            p.marker.rounds <= envelope,
            "{n}: the marker took {} rounds, over its envelope {envelope} (H = {height}, L = {levels})",
            p.marker.rounds
        );
        if n == "star64" {
            assert_eq!((height, levels, envelope), (1, 2, 18));
        }
        // The log carries the clock: replay recomputes it from the text.
        let log = EventLog::parse(&run.net.log.to_string()).expect("the log parses");
        let again = replay_compute(&g, &log).expect("the log replays");
        assert_eq!(again.net.cost, run.net.cost, "{n}");
        assert_eq!(again.net.phases, run.net.phases, "{n}");
        // Verifying what was built is one round of 2m frames on a
        // perfect link.
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
        assert_eq!(verify.cost.rounds, 1, "{n}");
        assert_eq!(verify.cost.msgs, 2 * m, "{n}");
    }
    // Logs written before the clock counted depth (v1), while labels
    // were acked (v2) or while the marker walked its components (v3)
    // are refused by name.
    for old in ["v1", "v2", "v3"] {
        let err = EventLog::parse(&format!("mstv-net-log {old}\ns 0\n"))
            .expect_err("an old log is refused");
        assert_eq!(
            err,
            NetError::LogVersion {
                found: old.to_string()
            }
        );
        assert!(err.to_string().contains(old), "{err}");
    }
}

/// `log` in its text form with provenance headers ahead of the events,
/// as `mstv net --log` writes it, after `edit` rewrote the fields of
/// the first delivery line that `pick` accepts. Returns that line's
/// 1-based number and the edited log, parsed.
fn edit_first_delivery(
    log: &EventLog,
    pick: impl Fn(&[String]) -> bool,
    edit: impl FnOnce(&mut Vec<String>),
) -> (usize, EventLog) {
    let mut log = log.clone();
    for (key, value) in [("nodes", "64"), ("extra", "120"), ("seed", "41")] {
        log.push_header(key, value);
    }
    let mut lines: Vec<String> = log.to_string().lines().map(str::to_owned).collect();
    let at = lines
        .iter()
        .position(|line| {
            let fields: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
            fields[0] == "d" && pick(&fields)
        })
        .expect("the log holds such a delivery");
    let mut fields: Vec<String> = lines[at].split_whitespace().map(str::to_owned).collect();
    edit(&mut fields);
    lines[at] = fields.join(" ");
    let text = lines.join("\n");
    (
        at + 1,
        EventLog::parse(&text).expect("the edited log parses"),
    )
}

/// A 64-node verification run on a perfect link, with what replaying
/// its log needs.
fn verification_at_64() -> (
    MstWireScheme,
    ConfigGraph<TreeState>,
    Labeling<MstLabel>,
    EventLog,
) {
    let cfg = mst_configuration(graph(64, 120, 41));
    let labeling = MstScheme::new()
        .marker(&cfg)
        .expect("marker labels the MST");
    let wire = MstWireScheme::for_config(&cfg);
    let run = run_verification(
        &wire,
        &cfg,
        &labeling,
        &mut PerfectLink,
        NetConfig::default(),
    )
    .expect("a perfect link converges");
    (wire, cfg, labeling, run.log)
}

#[test]
fn a_replay_error_names_the_line_of_the_file() {
    let (wire, cfg, labeling, log) = verification_at_64();
    let (line, edited) = edit_first_delivery(&log, |_| true, |f| f[3] = "7".to_owned());
    assert_eq!(
        replay(&wire, &cfg, &labeling, &edited).map(|run| run.verdict),
        Err(NetError::BadLog {
            line,
            reason: "delivery at depth 7 was never sent".to_owned()
        })
    );
}

#[test]
fn a_replayed_delivery_on_a_port_beyond_the_degree_is_a_bad_log() {
    let (wire, cfg, labeling, log) = verification_at_64();
    let (line, edited) = edit_first_delivery(&log, |_| true, |f| f[2] = "99".to_owned());
    match replay(&wire, &cfg, &labeling, &edited) {
        Err(NetError::BadLog { line: at, reason }) => {
            assert_eq!(at, line, "{reason}");
            assert!(reason.contains("p99"), "{reason}");
        }
        other => panic!("expected a bad log at line {line}, got {other:?}"),
    }
}

#[test]
fn a_replayed_construction_payload_that_does_not_decode_is_a_bad_log() {
    let g = graph(64, 120, 42);
    let run = run_compute(&g, &mut PerfectLink, NetConfig::default(), pool(1))
        .expect("a perfect link converges");
    // Five bits of tag 31, which names no payload kind.
    let (line, edited) = edit_first_delivery(
        &run.net.log,
        |f| f[4] == "g" || f[4] == "m",
        |f| {
            f[6] = "5".to_owned();
            f[7] = "1f".to_owned();
        },
    );
    assert_eq!(
        replay_compute(&g, &edited).map(|run| run.net.verdict),
        Err(NetError::BadLog {
            line,
            reason: "construction payload does not decode".to_owned()
        })
    );
}
