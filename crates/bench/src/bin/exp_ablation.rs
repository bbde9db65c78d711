//! E10 (extension) — ablations of the design choices called out in
//! DESIGN.md:
//!
//! 1. **label composition** — how π_mst's bits split across its three
//!    sublabels (span / γ / orientation), showing the γ sublabel is the
//!    `log n log W` term and the other two are the additive `log n`;
//! 2. **subtree-code ablation** — size-ordered Elias-gamma ranks vs
//!    fixed-width ranks (why `γ_small` beats the old bound);
//! 3. **repair vs rebuild** — after a single weight change, one-swap
//!    repair (`O(n + m)`) vs full distributed recomputation
//!    (`run_compute` on a perfect link);
//! 4. **asynchrony** — the verification protocol on the wire under
//!    random per-frame delays: messages, causal rounds and verdicts are
//!    all delay-independent.

use std::num::NonZeroUsize;
use std::time::Instant;

use mstv_bench::{mst_workload, print_table, workload};
use mstv_core::{
    encode_mst_label, faults, mst_configuration, MstScheme, ParallelConfig, ProofLabelingScheme,
    SpanCodec,
};
use mstv_labels::{ImplicitMaxScheme, LabelCodec, SepFieldCodec};
use mstv_mst::{kruskal, repair_after_weight_change};
use mstv_net::{
    run_compute, run_verification_with, Engine, FaultProfile, LossyLink, MstWireScheme, NetConfig,
    PerfectLink,
};
use mstv_trees::RootedTree;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("E10 (extension): ablations");
    // The pool size changes no count; one worker starts no thread.
    let engine = Engine::Events {
        workers: ParallelConfig::with_threads(NonZeroUsize::MIN),
    };

    // 1. Label composition.
    let mut rows = Vec::new();
    for &(n, w) in &[(256usize, 255u64), (4096, 255), (4096, u32::MAX as u64)] {
        let cfg = mst_workload(n, w, n as u64 ^ w);
        let scheme = MstScheme::new();
        let labeling = scheme.marker(&cfg).unwrap();
        let span_codec = SpanCodec::for_config(&cfg);
        let gamma_codec = LabelCodec {
            sep_codec: SepFieldCodec::EliasGamma,
            omega_bits: cfg.graph().max_weight().bit_width(),
        };
        // Decompose the worst label.
        let worst = cfg
            .graph()
            .nodes()
            .max_by_key(|&v| encode_mst_label(labeling.label(v), span_codec, gamma_codec).len())
            .unwrap();
        let l = labeling.label(worst);
        let mut span_bits = mstv_labels::BitString::new();
        span_codec.encode_into(&mut span_bits, &l.span);
        let gamma_bits = gamma_codec.encode_max(&l.gamma).len();
        let orient_bits = 2 * l.orient.len();
        rows.push(vec![
            n.to_string(),
            w.to_string(),
            labeling.max_label_bits().to_string(),
            span_bits.len().to_string(),
            gamma_bits.to_string(),
            orient_bits.to_string(),
        ]);
    }
    print_table(
        "π_mst label composition (worst node)",
        &[
            "n",
            "W",
            "total",
            "span (log n)",
            "γ (log n·log W)",
            "orient (log n)",
        ],
        &rows,
    );

    // 2. Subtree-code ablation on the γ sublabel alone.
    let mut rows = Vec::new();
    for &n in &[512usize, 8192] {
        let g = workload(n, 255, n as u64);
        let mst = kruskal(&g);
        let tree = RootedTree::from_graph_edges(&g, &mst, mstv_graph::NodeId(0)).unwrap();
        let small = ImplicitMaxScheme::gamma_small(&tree);
        let wide = ImplicitMaxScheme::fixed_width_baseline(&tree);
        rows.push(vec![
            n.to_string(),
            small.max_label_bits().to_string(),
            wide.max_label_bits().to_string(),
        ]);
    }
    print_table(
        "subtree codes: size-ordered Elias-γ vs fixed-width (W = 255)",
        &["n", "γ_small", "fixed-width"],
        &rows,
    );

    // 3. Repair vs rebuild.
    let mut rows = Vec::new();
    let mut rng = StdRng::seed_from_u64(0xAB1);
    for &n in &[128usize, 512, 2048] {
        let g = workload(n, 1000, 0xAB + n as u64);
        // Sequential: one-swap repair vs Kruskal-from-scratch.
        let mut g2 = g.clone();
        let mut t = kruskal(&g2);
        let mut cfg = mst_configuration(g);
        let fault = faults::break_minimality(&mut cfg, &mut rng);
        let (edge, new_w) = match fault {
            Some(faults::Fault::WeightChange { edge, new, .. }) => (edge, new),
            _ => continue,
        };
        g2.set_weight(edge, new_w);
        let start = Instant::now();
        let _ = repair_after_weight_change(&g2, &mut t, edge);
        let repair_us = start.elapsed().as_micros();
        let start = Instant::now();
        let _ = kruskal(&g2);
        let rebuild_us = start.elapsed().as_micros();
        // Distributed: the whole construction run on the wire.
        let dist = run_compute(&g2, &mut PerfectLink, NetConfig::default(), engine)
            .expect("perfect-link construction converges");
        rows.push(vec![
            n.to_string(),
            format!("{repair_us}"),
            format!("{rebuild_us}"),
            dist.net.cost.msgs.to_string(),
            dist.net.cost.rounds.to_string(),
        ]);
    }
    print_table(
        "after one weight change: one-swap repair vs recomputation",
        &[
            "n",
            "repair µs",
            "kruskal µs",
            "dist rebuild msgs",
            "dist rebuild rounds",
        ],
        &rows,
    );
    println!("(sequentially both are cheap — the saving that matters is distributed:");
    println!(" a hinted one-swap repair avoids the entire rebuild message storm.)");

    // 4. Asynchrony: the same labels over a link that holds every
    // frame back for a random 0..=D scheduler steps.
    let mut rows = Vec::new();
    for &max_delay in &[1u32, 10, 100] {
        let g = workload(200, 500, 0xA57);
        let mut cfg = mst_configuration(g);
        let scheme = MstScheme::new();
        let labeling = scheme.marker(&cfg).unwrap();
        let profile = FaultProfile {
            max_delay,
            ..FaultProfile::default()
        };
        // The codecs are instance-wide, fixed before the fault.
        let wire = MstWireScheme::for_config(&cfg);
        let verify = |cfg: &mstv_graph::ConfigGraph<mstv_graph::TreeState>, seed: u64| {
            let mut link = LossyLink::new(profile, seed);
            let run = run_verification_with(
                &wire,
                cfg,
                &labeling,
                &mut link,
                NetConfig::default(),
                engine,
            )
            .expect("delay-only links converge");
            assert_eq!(
                run.verdict,
                scheme.verify_all(cfg, &labeling),
                "D={max_delay}"
            );
            run
        };
        let clean = verify(&cfg, u64::from(max_delay));
        assert!(clean.verdict.accepted());
        let injected = faults::break_minimality(&mut cfg, &mut rng).is_some();
        let faulty = verify(&cfg, u64::from(max_delay) + 1);
        rows.push(vec![
            max_delay.to_string(),
            clean.cost.msgs.to_string(),
            clean.cost.rounds.to_string(),
            faulty.cost.msgs.to_string(),
            faulty.cost.rounds.to_string(),
            if injected {
                faulty.verdict.rejecting.len().to_string()
            } else {
                "-".to_string()
            },
        ]);
    }
    print_table(
        "wire verification under random per-frame delays in 0..=D",
        &[
            "D",
            "clean msgs",
            "clean rounds",
            "faulty msgs",
            "faulty rounds",
            "rejecting nodes",
        ],
        &rows,
    );
    println!("\nverdicts equal the offline verifier's under every delay bound (labels");
    println!("are static data), and delays move neither the message count nor the");
    println!("causal depth: frames arrive later, never deeper.");
}
