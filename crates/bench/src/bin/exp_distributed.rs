//! E9 — the paper's motivation, in numbers: distributed verification is
//! one local round, recomputation is a global affair; self-stabilizing
//! networks therefore verify repeatedly and recompute only on rejection.
//!
//! Both sides run on the wire runtime over a perfect link, so both are
//! counted in causal rounds: a frame's depth is one more than the
//! deepest frame its sender had received. Verification is the one-round
//! label exchange, asserted on every row to cost the paper's `2m`
//! messages in one round, in a verification run and in the embedded
//! verification that ends a construction; construction is
//! `run_compute` (GHS, then the distributed marker, then the embedded
//! verification).

use std::num::NonZeroUsize;

use mstv_bench::{print_table, workload};
use mstv_core::{faults, mst_configuration, MstScheme, ParallelConfig, ProofLabelingScheme};
use mstv_net::{
    run_compute, run_verification_with, Engine, MstWireScheme, NetConfig, NetSelfStab,
    NetStabOutcome, PerfectLink,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("E9: verification vs construction, and self-stabilization");
    println!("link: perfect; rounds are causal depth on the wire runtime");
    // The pool size changes no count; one worker starts no thread.
    let engine = Engine::Events {
        workers: ParallelConfig::with_threads(NonZeroUsize::MIN),
    };

    let mut rows = Vec::new();
    for &n in &[32usize, 128, 512, 2048] {
        let g = workload(n, 10_000, 0xE9 + n as u64);
        let m = g.num_edges();
        let build = run_compute(&g, &mut PerfectLink, NetConfig::default(), engine)
            .expect("perfect-link construction converges");
        assert!(build.net.verdict.accepted());
        let embedded = build.net.phases.verify;
        assert_eq!(
            embedded.msgs,
            2 * m as u64,
            "n={n}: one label per edge direction"
        );
        assert_eq!(
            embedded.rounds, 1,
            "n={n}: the embedded verification is one round"
        );
        let cfg = mst_configuration(g);
        let labeling = MstScheme::new().marker(&cfg).expect("MST instance");
        let wire = MstWireScheme::for_config(&cfg);
        let verify = run_verification_with(
            &wire,
            &cfg,
            &labeling,
            &mut PerfectLink,
            NetConfig::default(),
            engine,
        )
        .expect("perfect-link verification converges");
        assert!(verify.verdict.accepted());
        assert_eq!(verify.cost.rounds, 1, "n={n}: verification is one round");
        assert_eq!(
            verify.cost.msgs,
            2 * m as u64,
            "n={n}: one label per edge direction"
        );
        let (ghs, marker) = (build.net.phases.ghs, build.net.phases.marker);
        rows.push(vec![
            n.to_string(),
            m.to_string(),
            verify.cost.rounds.to_string(),
            verify.cost.msgs.to_string(),
            verify.cost.bits.to_string(),
            ghs.rounds.to_string(),
            ghs.msgs.to_string(),
            marker.rounds.to_string(),
            marker.msgs.to_string(),
            (ghs.bits + marker.bits).to_string(),
        ]);
    }
    print_table(
        "one-round verification vs distributed construction (GHS + marker)",
        &[
            "n",
            "m",
            "verify rounds",
            "verify msgs",
            "verify bits",
            "ghs rounds",
            "ghs msgs",
            "marker rounds",
            "marker msgs",
            "build bits",
        ],
        &rows,
    );
    println!("(verify msgs are 2m: one label per edge direction, none acked.)");

    // Self-stabilization: inject faults, measure detection and recovery.
    let mut rng = StdRng::seed_from_u64(0x5E1F);
    let mut detected = 0usize;
    let mut injected = 0usize;
    let mut clean_false_alarms = 0usize;
    let (mut detect_rounds, mut recover_rounds) = (0u64, 0u64);
    let trials = 40;
    for seed in 0..trials {
        let g = workload(60, 1000, 9000 + seed);
        let mut net = NetSelfStab::new(g).expect("workloads are connected");
        let cycle = |net: &mut NetSelfStab| {
            net.cycle_with(&mut PerfectLink, NetConfig::default(), engine)
                .expect("perfect-link cycles converge")
        };
        // A clean cycle must not raise an alarm.
        if cycle(&mut net).fault_detected() {
            clean_false_alarms += 1;
        }
        // Inject a minimality-breaking fault.
        if faults::break_minimality(net.config_mut(), &mut rng).is_none() {
            continue;
        }
        injected += 1;
        if let NetStabOutcome::Recovered {
            verify,
            recompute_cost,
            ..
        } = cycle(&mut net)
        {
            detected += 1;
            detect_rounds += verify.cost.rounds;
            recover_rounds += recompute_cost.rounds;
        }
        assert!(net.invariant_holds(), "recovery must restore the MST");
    }
    let mean = |total: u64| format!("{:.1}", total as f64 / detected.max(1) as f64);
    print_table(
        "self-stabilization at n = 60 (detection must be 100%, false alarms 0)",
        &[
            "injected faults",
            "detected",
            "false alarms",
            "detect rounds",
            "recover rounds",
        ],
        &[vec![
            injected.to_string(),
            format!(
                "{detected} ({:.0}%)",
                100.0 * detected as f64 / injected as f64
            ),
            clean_false_alarms.to_string(),
            mean(detect_rounds),
            mean(recover_rounds),
        ]],
    );
    println!("\npaper claim: local verification lets self-stabilizing algorithms");
    println!("avoid recomputation unless a fault occurred; measured on one clock:");
    println!("detection in 1 round at 100%, recomputation (GHS + marker + verify)");
    println!("only after real faults, at the depth in the last column.");
}
