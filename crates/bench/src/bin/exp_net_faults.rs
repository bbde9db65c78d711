//! E12 — verification cost on a faulty network: how much do message
//! loss, duplication, delay, and crash-restarts inflate the one-round
//! protocol's wire cost over the ideal run?
//!
//! The idealized simulators charge exactly one label per edge
//! direction. On the concurrent runtime every lost frame costs a
//! retransmission round and every crash-restart re-runs a node's whole
//! exchange, so the overhead factor (messages vs the perfect-link run
//! of the same instance) is the price of self-stabilizing over an
//! unreliable network — still worlds away from the cost of
//! reconstruction, which is the paper's point.

use mstv_bench::{print_table, workload};
use mstv_core::{mst_configuration, MstScheme, ProofLabelingScheme};
use mstv_net::{run_verification, FaultProfile, LossyLink, MstWireScheme, NetConfig, PerfectLink};

fn main() {
    println!("E12: one-round verification over lossy links");

    let mut rows = Vec::new();
    for &n in &[64usize, 128, 256] {
        // The seed base predates the experiment's E12 number; kept so
        // the table stays comparable with earlier runs.
        let g = workload(n, 10_000, 0xE10 + n as u64);
        let m = g.num_edges();
        let cfg = mst_configuration(g);
        let scheme = MstScheme::new();
        let labeling = scheme.marker(&cfg).expect("MST instance");
        let wire = MstWireScheme::for_config(&cfg);

        let ideal = run_verification(
            &wire,
            &cfg,
            &labeling,
            &mut PerfectLink,
            NetConfig::default(),
        )
        .expect("perfect link converges");
        assert!(ideal.verdict.accepted());

        for &drop in &[0.0f64, 0.1, 0.2, 0.3] {
            let profile = FaultProfile {
                drop,
                duplicate: drop / 2.0,
                max_delay: 2,
                crash: if drop > 0.0 { 0.01 } else { 0.0 },
                max_crashes: 4,
            };
            let run = if profile.is_perfect() {
                ideal.clone()
            } else {
                let mut link = LossyLink::new(profile, 0xF417 + n as u64);
                run_verification(&wire, &cfg, &labeling, &mut link, NetConfig::default())
                    .expect("fair-lossy run converges")
            };
            assert!(run.verdict.accepted());
            rows.push(vec![
                n.to_string(),
                m.to_string(),
                format!("{drop:.2}"),
                run.cost.rounds.to_string(),
                run.cost.msgs.to_string(),
                run.cost.bits.to_string(),
                run.crash_restarts.to_string(),
                format!("{:.2}", run.cost.msgs as f64 / ideal.cost.msgs as f64),
            ]);
        }
    }
    print_table(
        "verification wire cost vs drop probability",
        &[
            "n",
            "m",
            "drop",
            "rounds",
            "msgs",
            "bits",
            "crashes",
            "msg overhead",
        ],
        &rows,
    );
}
