//! E17 — distributed construction cost: per-phase message/bit counts
//! and causal rounds of `run_compute` (GHS fragments → distributed
//! marker → embedded verification) as the instance grows, on a perfect
//! link so the counts are the protocol's own, not the retransmission
//! layer's. Each phase's rounds are the depth it adds over the phases
//! before it, so the three sum to the run's total.
//!
//! Three things are *asserted*, so the table cannot be fast-but-wrong:
//!
//! * **Oracle diff** — at every size, the labeling the network builds
//!   is bit-identical to the centralized marker's on the same graph,
//!   and the tree is Kruskal's.
//! * **GHS message bound** — phase-A messages stay within a constant
//!   factor of the classic `O(m + n log n)` GHS bound (acks included;
//!   the reliable channel acks every frame, which at most doubles the
//!   constant).
//! * **Marker depth envelope** — the distributed marker's rounds stay
//!   within `4H + L·(6H + 1)`, `H` the MST's height from node 0 and `L`
//!   the number of decomposition levels ([`marker_envelope`]).
//!
//! Every figure is a count from fixed seeds, so the output reproduces
//! byte for byte (`experiment-results/exp_compute.txt`); wall time is
//! `perfbench/`'s to measure. Besides the greppable per-point JSON
//! lines, the whole series is written to `BENCH_compute.json` (override
//! the path with the first positional argument).

use mstv_bench::{lg, marker_envelope, print_table, workload};
use mstv_core::{mst_configuration, MessageCost, MstScheme, ProofLabelingScheme};
use mstv_graph::NodeId;
use mstv_net::{run_compute, Engine, NetConfig, PerfectLink};

const SIZES: [usize; 4] = [64, 256, 1024, 4096];

/// Admissible constant for the GHS bound check: our phase-A count is
/// `≤ GHS_FACTOR · (m + n log₂ n)`. Classic GHS sends `≤ 5n log n +
/// 2m` protocol messages; per-frame acks double that, and the
/// tie-broken wakeup pattern costs a small constant more.
const GHS_FACTOR: f64 = 16.0;

struct Point {
    nodes: usize,
    edges: usize,
    ghs: MessageCost,
    marker: MessageCost,
    verify: MessageCost,
    total: MessageCost,
    /// `ghs.msgs / (m + n log₂ n)` — the measured GHS constant.
    ghs_ratio: f64,
    /// The MST's height from node 0, the number of decomposition
    /// levels, and the marker's depth envelope over them.
    envelope: (u64, u64, u64),
}

fn main() {
    println!("E17: distributed construction (per-phase cost vs. instance size)");
    println!("link: perfect (counts are the protocol's, not retransmission)");

    let mut points: Vec<Point> = Vec::new();
    for &n in &SIZES {
        let g = workload(n, 1 << 16, 0xE17 + n as u64);
        let m = g.num_edges();

        let run = run_compute(
            &g,
            &mut PerfectLink,
            NetConfig::default(),
            Engine::default(),
        )
        .expect("perfect-link construction converges");
        assert!(
            run.net.verdict.accepted(),
            "n={n}: network rejected its own construction"
        );

        // Oracle diff: Kruskal's tree, centralized marker's bits.
        let mut mst = run.mst_edges.clone();
        mst.sort_unstable();
        let mut oracle_edges = mstv_mst::kruskal(&g);
        oracle_edges.sort_unstable();
        assert_eq!(mst, oracle_edges, "n={n}: tree is not Kruskal's MST");
        let cfg = mst_configuration(g.clone());
        let oracle = MstScheme::new().marker(&cfg).expect("oracle labels");
        for v in 0..n {
            let v = NodeId(v as u32);
            assert_eq!(
                run.labeling.encoded(v),
                oracle.encoded(v),
                "n={n}: {v} label differs from the centralized marker"
            );
        }

        // GHS message bound.
        let budget = m as f64 + n as f64 * lg(n as u64);
        let ghs_ratio = run.net.phases.ghs.msgs as f64 / budget;
        assert!(
            ghs_ratio <= GHS_FACTOR,
            "n={n}: GHS sent {} messages, {ghs_ratio:.1}x the O(m + n log n) budget {budget:.0}",
            run.net.phases.ghs.msgs
        );

        // Marker depth envelope.
        let envelope = marker_envelope(&run.labeling);
        let (height, levels, bound) = envelope;
        assert!(
            run.net.phases.marker.rounds <= bound,
            "n={n}: the marker took {} rounds, over 4H + L(6H + 1) = {bound} \
             (H = {height}, L = {levels})",
            run.net.phases.marker.rounds
        );

        let p = Point {
            nodes: n,
            edges: m,
            ghs: run.net.phases.ghs,
            marker: run.net.phases.marker,
            verify: run.net.phases.verify,
            total: run.net.cost,
            ghs_ratio,
            envelope,
        };
        println!(
            "{{\"experiment\":\"compute\",\"nodes\":{},\"edges\":{},\
             \"ghs_msgs\":{},\"marker_msgs\":{},\"verify_msgs\":{},\"total_msgs\":{},\
             \"total_bits\":{},\"rounds\":{},\"ghs_ratio\":{:.2}}}",
            p.nodes,
            p.edges,
            p.ghs.msgs,
            p.marker.msgs,
            p.verify.msgs,
            p.total.msgs,
            p.total.bits,
            p.total.rounds,
            p.ghs_ratio
        );
        points.push(p);
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.nodes.to_string(),
                p.edges.to_string(),
                format!("{} / {}", p.ghs.msgs, p.ghs.bits),
                format!("{} / {}", p.marker.msgs, p.marker.bits),
                format!("{} / {}", p.verify.msgs, p.verify.bits),
                format!(
                    "{} / {} / {}",
                    p.ghs.rounds, p.marker.rounds, p.verify.rounds
                ),
                format!("{} / {} / {}", p.envelope.0, p.envelope.1, p.envelope.2),
                p.total.msgs.to_string(),
                format!("{:.2}", p.ghs_ratio),
            ]
        })
        .collect();
    print_table(
        "distributed construction cost (labels asserted bit-identical to the centralized marker)",
        &[
            "nodes",
            "edges",
            "ghs msgs/bits",
            "marker msgs/bits",
            "verify msgs/bits",
            "rounds ghs/marker/verify",
            "H / L / marker envelope",
            "total msgs",
            "ghs/(m+nlgn)",
        ],
        &rows,
    );

    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_compute.json".to_owned());
    std::fs::write(&out, series_json(&points)).expect("write benchmark series");
}

/// The committed `BENCH_compute.json` schema: experiment id, the
/// asserted invariants, and one object per instance size with the full
/// per-phase cost split.
fn series_json(points: &[Point]) -> String {
    let phase = |c: &MessageCost| {
        format!(
            "{{\"msgs\": {}, \"bits\": {}, \"rounds\": {}}}",
            c.msgs, c.bits, c.rounds
        )
    };
    let mut out = String::from("{\n  \"experiment\": \"compute\",\n");
    out.push_str("  \"link\": \"perfect\",\n");
    out.push_str(&format!("  \"ghs_bound_factor\": {GHS_FACTOR},\n"));
    out.push_str(
        "  \"asserted\": [\"labels bit-identical to centralized marker\", \
         \"tree equals Kruskal's\", \"ghs msgs within bound factor of m + n log2 n\", \
         \"marker rounds within 4H + L(6H + 1)\"],\n",
    );
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"nodes\": {}, \"edges\": {}, \"ghs\": {}, \"marker\": {}, \
             \"verify\": {}, \"total\": {}, \"ghs_ratio\": {:.3}, \"height\": {}, \
             \"levels\": {}, \"marker_envelope\": {}}}{}\n",
            p.nodes,
            p.edges,
            phase(&p.ghs),
            phase(&p.marker),
            phase(&p.verify),
            phase(&p.total),
            p.ghs_ratio,
            p.envelope.0,
            p.envelope.1,
            p.envelope.2,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
