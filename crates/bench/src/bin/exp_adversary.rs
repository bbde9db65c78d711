//! E20 — adversarial fault engine: detection latency and recovery cost
//! per fault class, plus the compact-machine memory point.
//!
//! Six fault classes attack the protocol. The three forgery classes
//! rewrite a `π_mst` component at `k` colluding nodes — the spanning
//! root (`root`), a sub-root `ω` field (`omega`), or raw certificate
//! bits (`bits`) — each swept over `k ∈ {1, 2, 4}`. The three schedule
//! classes keep a fixed `root, k=2` collusion and additionally attack
//! the *link*: a healing partition, worst-case frame reordering, and
//! join/leave churn. Every scenario runs the full self-stabilization
//! loop over the concurrent runtime: a live verification cycle must
//! *reject* (detection), the distributed recomputation — `run_compute`
//! on the same link — must restore the MST invariant (recovery), and a
//! second cycle on a clean link must come back clean. The run aborts if
//! even one forged labeling is accepted anywhere — "zero forged
//! accepted" is an assertion, not a column.
//!
//! Reported per scenario, both in causal rounds: detection latency (the
//! causal depth at which the first node rejected, reproduced by a
//! replay of the verification's log), the detector count, and recovery
//! cost (the depth of the construction run: GHS, marker, and its
//! embedded verification).
//!
//! The memory point reruns the 100k-node cell of the retired E15 scaling
//! experiment against the compact per-node machine layout: certificates
//! enter as shared `Arc<BitString>`s via `run_verification_encoded_with`,
//! no structured `Labeling` exists during the run, and received frames
//! live bit-packed in per-node arenas. It runs in a child process of
//! this binary (started with [`RSS_CHILD_ENV`] set), so its peak RSS
//! (`VmHWM` from `/proc/self/status`) covers that cell alone with no
//! counter to reset; it is asserted at least [`RSS_REDUCTION_FLOOR`]×
//! below the layout E15 recorded ([`E15_BASELINE_RSS_KB`]) on the
//! identical instance, profile, and link seed.
//!
//! Besides the greppable per-scenario JSON lines, the whole series is
//! written to `BENCH_adversary.json` (override the path with the first
//! positional argument).

use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use mstv_bench::{mst_workload, print_table};
use mstv_core::{MstScheme, ParallelConfig, ProofLabelingScheme};
use mstv_graph::NodeId;
use mstv_labels::BitString;
use mstv_net::{
    forge_labeling, replay, run_verification_encoded_with, AdversaryLink, AdversarySpec, ChurnSpec,
    Engine, FaultProfile, ForgeClass, ForgeSpec, MstWireScheme, NetConfig, NetSelfStab,
    NetStabOutcome, PartitionSpec, PerfectLink, ReorderSpec,
};

/// Instance size for the fault-class scenarios.
const FAULT_NODES: usize = 512;
/// Adversary/link seeds per scenario; every cell must reject on all.
const SEEDS: [u64; 3] = [11, 47, 101];
/// Collusion sweep for the forgery classes.
const K_SWEEP: [usize; 3] = [1, 2, 4];
/// Instance size for the memory point — E15's largest cell.
const RSS_NODES: usize = 100_000;
/// `peak_rss_kb` of E15's 100k cell on the worker pool, measured on the
/// pre-compaction machine layout (the README keeps E15's table).
const E15_BASELINE_RSS_KB: u64 = 570_904;
/// The memory point must land at least this factor below the baseline.
const RSS_REDUCTION_FLOOR: f64 = 3.0;
/// Set in the environment of the child process that measures the
/// memory point; the child prints one [`RssPoint`] line and exits.
const RSS_CHILD_ENV: &str = "MSTV_E20_RSS_CHILD";

/// E15's link profile, reused for every run in this experiment.
const PROFILE: FaultProfile = FaultProfile {
    drop: 0.05,
    duplicate: 0.02,
    max_delay: 1,
    crash: 0.0,
    max_crashes: 0,
};

/// One fault class: a forgery to plant plus a link schedule to run it
/// under.
struct Scenario {
    /// Fault-class name, the aggregation key of the output table.
    class: &'static str,
    /// Which `π_mst` component the collusion rewrites.
    forge: ForgeClass,
    /// Collusion size.
    k: usize,
    /// Link schedule (partition/reorder/churn sections; the forge
    /// section is applied offline, not by the link).
    partition: Option<PartitionSpec>,
    reorder: Option<ReorderSpec>,
    churn: Option<ChurnSpec>,
}

struct Outcome {
    class: &'static str,
    k: usize,
    seed: u64,
    detection_rounds: u64,
    detectors: usize,
    recovery_rounds: u64,
}

fn main() {
    if std::env::var_os(RSS_CHILD_ENV).is_some() {
        let rss = measure_rss_point();
        println!(
            "{} {:.6} {} {}",
            rss.peak_rss_kb, rss.secs, rss.msgs, rss.rounds
        );
        return;
    }
    println!("E20: adversarial faults (detection latency, recovery rounds, compact-state RSS)");
    println!(
        "profile: drop={} dup={} delay={}; n={FAULT_NODES}, seeds={SEEDS:?}",
        PROFILE.drop, PROFILE.duplicate, PROFILE.max_delay
    );

    let mut scenarios: Vec<Scenario> = Vec::new();
    for class in ForgeClass::ALL {
        for &k in &K_SWEEP {
            scenarios.push(Scenario {
                class: class.name(),
                forge: class,
                k,
                partition: None,
                reorder: None,
                churn: None,
            });
        }
    }
    scenarios.push(Scenario {
        class: "partition",
        forge: ForgeClass::Root,
        k: 2,
        partition: Some(PartitionSpec { start: 2, heal: 6 }),
        reorder: None,
        churn: None,
    });
    scenarios.push(Scenario {
        class: "reorder",
        forge: ForgeClass::Root,
        k: 2,
        partition: None,
        reorder: Some(ReorderSpec { window: 8 }),
        churn: None,
    });
    scenarios.push(Scenario {
        class: "churn",
        forge: ForgeClass::Root,
        k: 2,
        partition: None,
        reorder: None,
        churn: Some(ChurnSpec {
            rate: 0.02,
            away: 2,
            cap: 8,
        }),
    });

    let mut outcomes: Vec<Outcome> = Vec::new();
    for sc in &scenarios {
        for &seed in &SEEDS {
            outcomes.push(run_scenario(sc, seed));
        }
    }

    let rss = rss_point();
    println!(
        "{{\"experiment\":\"adversary\",\"point\":\"rss\",\"nodes\":{RSS_NODES},\
         \"engine\":\"events\",\"secs\":{:.6},\"peak_rss_kb\":{},\
         \"baseline_e15_kb\":{E15_BASELINE_RSS_KB},\"reduction\":{:.3},\"msgs\":{},\
         \"rounds\":{}}}",
        rss.secs, rss.peak_rss_kb, rss.reduction, rss.msgs, rss.rounds
    );

    let mut rows: Vec<Vec<String>> = Vec::new();
    for sc in &scenarios {
        let cell: Vec<&Outcome> = outcomes
            .iter()
            .filter(|o| o.class == sc.class && o.k == sc.k)
            .collect();
        let mean = |f: &dyn Fn(&Outcome) -> u64| {
            cell.iter().map(|o| f(o) as f64).sum::<f64>() / cell.len() as f64
        };
        rows.push(vec![
            sc.class.to_owned(),
            sc.k.to_string(),
            format!("{:.1}", mean(&|o| o.detection_rounds)),
            format!("{:.1}", mean(&|o| o.detectors as u64)),
            format!("{:.1}", mean(&|o| o.recovery_rounds)),
            "0".to_owned(),
        ]);
    }
    print_table(
        &format!(
            "adversarial faults at n={FAULT_NODES} (means over {} seeds)",
            SEEDS.len()
        ),
        &[
            "class",
            "k",
            "detect rounds",
            "detectors",
            "recover rounds",
            "accepted",
        ],
        &rows,
    );
    println!(
        "rss: n={RSS_NODES} events peak_rss_kb={} baseline={E15_BASELINE_RSS_KB} reduction={:.2}x",
        rss.peak_rss_kb, rss.reduction
    );

    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_adversary.json".to_owned());
    std::fs::write(&out, series_json(&outcomes, &rss)).expect("write benchmark series");
    println!("series written to {out}");
}

/// Plants the scenario's forgery, runs a maintenance cycle under its
/// link schedule, and asserts detection and recovery. Aborts the
/// experiment if the forged labeling is accepted.
fn run_scenario(sc: &Scenario, seed: u64) -> Outcome {
    let cfg = mst_workload(FAULT_NODES, 1 << 12, 0xE20 ^ seed);
    let mut labeling = MstScheme::new().marker(&cfg).expect("workload is an MST");
    let outcome = forge_labeling(&cfg, &mut labeling, sc.forge, sc.k, seed)
        .expect("workload instances host every forgery class");

    let spec = AdversarySpec {
        forge: Some(ForgeSpec {
            class: sc.forge,
            k: sc.k,
        }),
        partition: sc.partition,
        reorder: sc.reorder,
        churn: sc.churn,
        seed,
    };
    let n = cfg.graph().num_nodes();
    let mut link = AdversaryLink::new(spec, PROFILE, seed ^ 0x51ab, n);
    let mut stab = NetSelfStab::from_parts(cfg.clone(), labeling.clone());
    let cycle = stab
        .cycle(&mut link, NetConfig::default())
        .expect("adversarial cycles converge");
    let NetStabOutcome::Recovered {
        detectors,
        verify,
        recompute_cost,
    } = cycle
    else {
        panic!(
            "class={} k={} seed={seed}: forged labeling ACCEPTED — soundness violated",
            sc.class, sc.k
        );
    };
    assert!(
        !verify.verdict.accepted(),
        "recovered cycle must carry a rejecting verdict"
    );
    let detection_rounds = verify
        .first_reject
        .expect("a rejecting verification has a first rejection");
    let wire = MstWireScheme::for_config(&cfg);
    let replayed =
        replay(&wire, &cfg, &labeling, &verify.log).expect("the verification's log replays");
    assert_eq!(
        replayed.first_reject, verify.first_reject,
        "class={} k={} seed={seed}: replay moved the first rejection",
        sc.class, sc.k
    );
    assert!(
        stab.invariant_holds(),
        "class={} k={} seed={seed}: recomputation did not restore the MST",
        sc.class,
        sc.k
    );
    let clean = stab
        .cycle(&mut PerfectLink, NetConfig::default())
        .expect("clean cycle converges");
    assert!(
        !clean.fault_detected(),
        "class={} k={} seed={seed}: recovered labels must verify clean",
        sc.class,
        sc.k
    );

    let o = Outcome {
        class: sc.class,
        k: sc.k,
        seed,
        detection_rounds,
        detectors: detectors.len(),
        recovery_rounds: recompute_cost.rounds,
    };
    println!(
        "{{\"experiment\":\"adversary\",\"class\":\"{}\",\"k\":{},\"seed\":{},\
         \"forgers\":{},\"detection_rounds\":{},\"detectors\":{},\
         \"recovery_rounds\":{},\"accepted\":false}}",
        o.class,
        o.k,
        o.seed,
        outcome.forgers.len(),
        o.detection_rounds,
        o.detectors,
        o.recovery_rounds
    );
    o
}

struct RssPoint {
    peak_rss_kb: u64,
    reduction: f64,
    secs: f64,
    msgs: u64,
    rounds: u64,
}

/// Runs [`measure_rss_point`] in a fresh child process of this binary
/// and asserts its peak RSS against the E15 baseline.
fn rss_point() -> RssPoint {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let out = Command::new(exe)
        .env(RSS_CHILD_ENV, "1")
        .output()
        .expect("the memory-point child starts");
    assert!(
        out.status.success(),
        "memory-point child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = String::from_utf8(out.stdout).expect("the child prints text");
    let fields: Vec<&str> = line.split_whitespace().collect();
    let [peak, secs, msgs, rounds] = fields[..] else {
        panic!("memory-point child printed {line:?}");
    };
    let number = |s: &str| s.parse::<u64>().expect("the child prints numbers");
    let mut rss = RssPoint {
        peak_rss_kb: number(peak),
        reduction: 0.0,
        secs: secs.parse().expect("the child prints seconds"),
        msgs: number(msgs),
        rounds: number(rounds),
    };
    // Outside Linux there is no VmHWM; report 0 and do not fail an
    // assertion the platform cannot measure.
    if rss.peak_rss_kb != 0 {
        rss.reduction = E15_BASELINE_RSS_KB as f64 / rss.peak_rss_kb as f64;
        assert!(
            rss.reduction >= RSS_REDUCTION_FLOOR,
            "compact layout regressed: {} kB vs {E15_BASELINE_RSS_KB} kB baseline \
             is only {:.2}x (need >= {RSS_REDUCTION_FLOOR}x)",
            rss.peak_rss_kb,
            rss.reduction
        );
    }
    rss
}

/// E15's 100k events cell on the compact machine layout: identical
/// instance (`0xE15 + n` workload seed), profile, link seed, and
/// `record_log: false`, but certificates enter as `Arc<BitString>`s
/// and the structured labeling is dropped before the run starts. Runs
/// in the child process, whose `VmHWM` is the cell's peak.
fn measure_rss_point() -> RssPoint {
    // The worker pool allocates report and send buffers on worker
    // threads and frees them on the router thread; under glibc's
    // default per-thread arenas that cross-thread churn strands freed
    // blocks in arenas that never reuse them, and measured RSS becomes
    // allocator retention, not protocol state. Cap the arena count
    // before any worker spawns so the memory point measures the
    // runtime's layout.
    #[cfg(target_os = "linux")]
    {
        unsafe extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: glibc's `mallopt` takes two integers and only changes
        // allocator tuning; it runs here before this process spawns a
        // thread, so no allocation races the change.
        unsafe {
            mallopt(M_ARENA_MAX, 2);
        }
    }
    let n = RSS_NODES;
    let cfg = mst_workload(n, 1 << 16, 0xE15 + n as u64);
    let wire = MstWireScheme::for_config(&cfg);
    let encoded: Vec<Arc<BitString>> = {
        let labeling = MstScheme::new()
            .marker_parallel(&cfg, ParallelConfig::default())
            .expect("workload is an MST");
        (0..n)
            .map(|v| Arc::new(labeling.encoded(NodeId(v as u32)).clone()))
            .collect()
        // `labeling` (n structured labels plus a second copy of every
        // certificate) drops here — the run must not need it.
    };
    let net = NetConfig {
        record_log: false,
        ..NetConfig::default()
    };
    let mut link = mstv_net::LossyLink::new(PROFILE, 0x51ab ^ n as u64);

    let t0 = Instant::now();
    let run =
        run_verification_encoded_with(&wire, &cfg, encoded, &mut link, net, Engine::default())
            .expect("fair-lossy run converges");
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    assert!(run.verdict.accepted(), "clean labels must verify");
    RssPoint {
        peak_rss_kb: peak_rss_kb(),
        reduction: 0.0,
        secs,
        msgs: run.cost.msgs,
        rounds: run.cost.rounds,
    }
}

/// `VmHWM` in kB from `/proc/self/status`, 0 where unavailable.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches(" kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The committed `BENCH_adversary.json` schema: experiment id, the
/// fault profile, one object per (scenario, seed) run, the aggregate
/// soundness count, and the compact-state memory point.
fn series_json(outcomes: &[Outcome], rss: &RssPoint) -> String {
    let mut out = String::from("{\n  \"experiment\": \"adversary\",\n");
    out.push_str(&format!("  \"nodes\": {FAULT_NODES},\n"));
    out.push_str(&format!(
        "  \"profile\": {{\"drop\": {}, \"duplicate\": {}, \"max_delay\": {}}},\n",
        PROFILE.drop, PROFILE.duplicate, PROFILE.max_delay
    ));
    out.push_str("  \"scenarios\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"class\": \"{}\", \"k\": {}, \"seed\": {}, \"detection_rounds\": {}, \
             \"detectors\": {}, \"recovery_rounds\": {}, \"accepted\": false}}{}\n",
            o.class,
            o.k,
            o.seed,
            o.detection_rounds,
            o.detectors,
            o.recovery_rounds,
            if i + 1 == outcomes.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"forged_accepted\": 0,\n");
    out.push_str(&format!(
        "  \"rss\": {{\"nodes\": {RSS_NODES}, \"engine\": \"events\", \"secs\": {:.6}, \
         \"peak_rss_kb\": {}, \"baseline_e15_kb\": {E15_BASELINE_RSS_KB}, \
         \"reduction\": {:.3}, \"msgs\": {}, \"rounds\": {}}}\n",
        rss.secs, rss.peak_rss_kb, rss.reduction, rss.msgs, rss.rounds
    ));
    out.push_str("}\n");
    out
}
