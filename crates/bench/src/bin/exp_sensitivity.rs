//! E7 — the relaxed sensitivity problem (Section 1.1): auxiliary labels
//! with constant-time queries.
//!
//! Checks the labeled scheme against the exact solver and the brute-force
//! oracle, measures per-node label bits (`O(log n log W)`, versus the
//! `Ω(m log W)` any explicit output needs), and runs seeded query loops on
//! larger graphs whose checksums pin their answers. Every line is a count,
//! so the output is deterministic; query time is measured by perfbench,
//! not here.

use mstv_bench::{lg, print_table, workload};
use mstv_core::faults::{inject, plan_break_minimality};
use mstv_core::{mst_configuration, MstScheme, VerifySession};
use mstv_mst::kruskal;
use mstv_sensitivity::{brute_force_sensitivity, sensitivity, SensitivityLabels};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("E7: relaxed sensitivity — O(1) queries from per-node labels");

    // Correctness: labeled queries == exact == brute force.
    let g = workload(60, 500, 0xE7);
    let t = kruskal(&g);
    let exact = sensitivity(&g, &t);
    let brute = brute_force_sensitivity(&g, &t);
    assert_eq!(exact, brute);
    let labels = SensitivityLabels::new(&g, &t);
    for e in g.edge_ids() {
        assert_eq!(labels.query(&g, e), exact[e.index()]);
    }
    println!(
        "labeled queries match exact solver and brute force on all {} edges (n = 60)",
        g.num_edges()
    );

    // Label size vs explicit output size.
    let mut rows = Vec::new();
    for &(n, w) in &[(128usize, 255u64), (1024, 65_535), (8192, u32::MAX as u64)] {
        let g = workload(n, w, n as u64 ^ w);
        let t = kruskal(&g);
        let labels = SensitivityLabels::new(&g, &t);
        let per_node = labels.max_label_bits();
        let explicit = g.num_edges() * (lg(w) as usize);
        rows.push(vec![
            n.to_string(),
            w.to_string(),
            per_node.to_string(),
            format!("{:.2}", per_node as f64 / (lg(n as u64) * lg(w))),
            explicit.to_string(),
        ]);
    }
    print_table(
        "per-node label bits vs explicit whole-output bits",
        &[
            "n",
            "W",
            "bits/node",
            "bits/(lg n·lg W)",
            "explicit Ω(m log W)",
        ],
        &rows,
    );

    // Query loops on larger graphs: the checksum of every answer.
    let mut rows = Vec::new();
    for &n in &[256usize, 2048, 16_384] {
        let g = workload(n, 1 << 20, n as u64);
        let t = kruskal(&g);
        let labels = SensitivityLabels::new(&g, &t);
        let edges: Vec<_> = g.edge_ids().collect();
        let mut acc = 0u64;
        for _ in 0..20 {
            for &e in &edges {
                match labels.query(&g, e) {
                    mstv_sensitivity::EdgeSensitivity::Tree { increase } => {
                        acc = acc.wrapping_add(increase.unwrap_or(0));
                    }
                    mstv_sensitivity::EdgeSensitivity::NonTree { decrease } => {
                        acc = acc.wrapping_add(decrease);
                    }
                }
            }
        }
        rows.push(vec![
            n.to_string(),
            (20 * edges.len()).to_string(),
            format!("{acc:x}"),
        ]);
    }
    print_table(
        "seeded sensitivity query loops",
        &["n", "queries", "checksum"],
        &rows,
    );

    // Weight-perturbation loop through `VerifySession`: each sensitivity
    // fault (a non-tree edge dropped below its cycle maximum) is applied
    // and undone as an incremental mutation; only the two endpoints
    // re-verify per step instead of all n nodes.
    let mut rows = Vec::new();
    for &n in &[64usize, 256, 1024] {
        let g = workload(n, 1 << 16, 0x5E45 ^ n as u64);
        let cfg = mst_configuration(g);
        let mut session = VerifySession::new(MstScheme::new(), cfg).expect("MST configuration");
        assert!(session.verdict().accepted());
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut detected = 0usize;
        let faults = 50usize;
        for _ in 0..faults {
            let Some(fault) = plan_break_minimality(session.config(), &mut rng) else {
                break;
            };
            if !inject(&mut session, &fault).expect("fault fits").accepted() {
                detected += 1;
            }
            let restored = session.apply(fault.to_undo_mutation()).expect("undo fits");
            assert!(restored.accepted(), "undo restores acceptance");
        }
        let m = session.metrics();
        rows.push(vec![
            n.to_string(),
            format!("{detected}/{faults}"),
            m.nodes_verified.to_string(),
            m.nodes_skipped.to_string(),
            format!("{:.1}%", m.skip_ratio() * 100.0),
        ]);
    }
    print_table(
        "incremental re-verification of weight faults (VerifySession)",
        &["n", "detected", "nodes verified", "nodes skipped", "skip"],
        &rows,
    );
    println!("\nper fault only the perturbed edge's endpoints re-verify; the skip");
    println!("column is the work locality saves over scratch re-verification.");
}
