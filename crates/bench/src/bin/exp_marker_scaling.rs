//! E14 — marker pipeline scaling: labels per second of the end-to-end
//! parallel marker (centroid decomposition, per-node label assembly,
//! bit-level encoding) as the worker count grows, on 10k- and 100k-node
//! instances.
//!
//! The stages are timed separately so the table shows where the time
//! goes: the `π_mst` marker (`MstScheme::marker_parallel`), the full
//! snapshot pipeline (`Snapshot::build_parallel`, which additionally
//! builds `FLOW` and `DIST` labels and serializes nothing), and the two
//! single-threaded steps that turn the MST's edge list into what those
//! consume: the distributed tree states (`tree_states`) and the rooted
//! tree (`RootedTree::from_graph_edges`). Every
//! parallel run is cross-checked bit-for-bit against the single-worker
//! baseline on the same instance, so the table cannot be
//! fast-but-wrong; timings themselves are reported, never asserted.
//!
//! Thread counts above the host's available parallelism measure
//! scheduler contention, not the pipeline — on a 1-core box a
//! `threads=8` row reads as a parallel regression when it is only
//! oversubscription. Such counts are therefore **skipped by default**
//! (pass `--all-threads` to run them anyway), and every emitted point
//! carries `host_parallelism` and an `oversubscribed` flag so a series
//! recorded on one machine cannot be misread on another.
//!
//! Two throughput rates are reported per point. `labels_per_sec` divides
//! the node count by the marker time; because label sizes grow as
//! Θ(log n) — the paper's lower bound, not an implementation artifact —
//! this rate carries a gentle negative slope in `n` even at perfect
//! efficiency. `fields_per_sec` divides the total number of `γ` fields
//! assembled and encoded (`Σ_v level(v)`) by the same time: it is the
//! size-independent measure of pipeline speed, the one that should stay
//! flat or rise as `n` grows. Each configuration is timed `REPS`
//! times and the fastest repetition kept, so a scheduler hiccup on a
//! small box cannot masquerade as a scaling cliff.
//!
//! Besides the greppable per-point JSON lines, the whole series is
//! written to `BENCH_marker.json` (override the path with the first
//! positional argument).

use std::num::NonZeroUsize;
use std::time::Instant;

use mstv_bench::{mst_workload, print_table};
use mstv_core::{MstScheme, ParallelConfig};
use mstv_graph::{tree_states, NodeId};
use mstv_labels::SepFieldCodec;
use mstv_mst::kruskal;
use mstv_store::Snapshot;
use mstv_trees::RootedTree;

const SIZES: [usize; 2] = [10_000, 100_000];
const THREADS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 3;

struct Point {
    nodes: usize,
    threads: usize,
    total_fields: usize,
    marker_secs: f64,
    snapshot_secs: f64,
    tree_states_secs: f64,
    rooted_tree_secs: f64,
    host_parallelism: usize,
}

impl Point {
    fn labels_per_sec(&self) -> f64 {
        self.nodes as f64 / self.marker_secs
    }

    fn fields_per_sec(&self) -> f64 {
        self.total_fields as f64 / self.marker_secs
    }

    fn oversubscribed(&self) -> bool {
        self.threads > self.host_parallelism
    }
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(0, NonZeroUsize::get)
}

fn main() {
    let all_threads = std::env::args().any(|a| a == "--all-threads");
    let host = host_parallelism();
    println!("E14: parallel marker scaling (labels/sec vs worker count)");
    println!("host parallelism: {host}");

    let mut points: Vec<Point> = Vec::new();
    let mut rows = Vec::new();
    for &n in &SIZES {
        let cfg = mst_workload(n, 1 << 20, 0xE14 + n as u64);
        let mst = kruskal(cfg.graph());
        let tree =
            RootedTree::from_graph_edges(cfg.graph(), &mst, NodeId(0)).expect("kruskal spans");
        let scheme = MstScheme::new();

        // Single-worker baselines: the reference bits every parallel run
        // must reproduce, and the denominator of the speedup column.
        let baseline_labeling = scheme
            .marker_parallel(&cfg, one_worker())
            .expect("workload is an MST");
        let baseline_snap =
            Snapshot::build_parallel(&tree, SepFieldCodec::EliasGamma, one_worker());
        let total_fields: usize = baseline_labeling
            .labels()
            .iter()
            .map(|l| l.gamma.level())
            .sum();

        for &threads in &THREADS {
            if threads > host.max(1) && !all_threads {
                println!(
                    "skipping threads={threads} at n={n}: oversubscribed on a \
                     host with parallelism {host} (--all-threads runs it anyway)"
                );
                continue;
            }
            let pc = ParallelConfig::with_threads(NonZeroUsize::new(threads).unwrap());

            // Fastest of REPS interleaved repetitions per stage; the last
            // repetition's outputs feed the bit-identity checks below.
            let mut marker_secs = f64::INFINITY;
            let mut snapshot_secs = f64::INFINITY;
            let mut tree_states_secs = f64::INFINITY;
            let mut rooted_tree_secs = f64::INFINITY;
            let mut last = None;
            for _ in 0..REPS {
                let t = Instant::now();
                let states = tree_states(cfg.graph(), &mst, NodeId(0)).expect("kruskal spans");
                tree_states_secs = tree_states_secs.min(t.elapsed().as_secs_f64().max(1e-9));
                assert_eq!(states, cfg.states(), "tree states diverged");

                let t = Instant::now();
                let rooted = RootedTree::from_graph_edges(cfg.graph(), &mst, NodeId(0))
                    .expect("kruskal spans");
                rooted_tree_secs = rooted_tree_secs.min(t.elapsed().as_secs_f64().max(1e-9));
                assert_eq!(rooted, tree, "rooted tree diverged");

                let t0 = Instant::now();
                let labeling = scheme
                    .marker_parallel(&cfg, pc)
                    .expect("workload is an MST");
                marker_secs = marker_secs.min(t0.elapsed().as_secs_f64().max(1e-9));

                let t1 = Instant::now();
                let snap = Snapshot::build_parallel(&tree, SepFieldCodec::EliasGamma, pc);
                snapshot_secs = snapshot_secs.min(t1.elapsed().as_secs_f64().max(1e-9));
                last = Some((labeling, snap));
            }
            let (labeling, snap) = last.expect("REPS >= 1");

            for v in tree.nodes() {
                assert_eq!(
                    labeling.encoded(v),
                    baseline_labeling.encoded(v),
                    "marker bits diverged at {v} with {threads} workers"
                );
            }
            assert_eq!(
                snap, baseline_snap,
                "snapshot diverged from the single-worker build at {threads} workers"
            );

            let p = Point {
                nodes: n,
                threads,
                total_fields,
                marker_secs,
                snapshot_secs,
                tree_states_secs,
                rooted_tree_secs,
                host_parallelism: host,
            };
            println!(
                "{{\"experiment\":\"marker_scaling\",\"nodes\":{},\"threads\":{},\
                 \"total_fields\":{},\"marker_secs\":{:.6},\"snapshot_secs\":{:.6},\
                 \"tree_states_secs\":{:.6},\"rooted_tree_secs\":{:.6},\
                 \"labels_per_sec\":{:.1},\"fields_per_sec\":{:.1},\
                 \"host_parallelism\":{},\"oversubscribed\":{}}}",
                p.nodes,
                p.threads,
                p.total_fields,
                p.marker_secs,
                p.snapshot_secs,
                p.tree_states_secs,
                p.rooted_tree_secs,
                p.labels_per_sec(),
                p.fields_per_sec(),
                p.host_parallelism,
                p.oversubscribed(),
            );
            points.push(p);
        }
    }

    for &n in &SIZES {
        let base = points
            .iter()
            .find(|p| p.nodes == n && p.threads == 1)
            .expect("baseline point exists");
        let base_lps = base.labels_per_sec();
        rows.extend(points.iter().filter(|p| p.nodes == n).map(|p| {
            vec![
                p.nodes.to_string(),
                p.threads.to_string(),
                format!("{:.0}", p.labels_per_sec()),
                format!("{:.0}", p.fields_per_sec()),
                format!("{:.2}x", p.labels_per_sec() / base_lps),
                format!("{:.3}", p.snapshot_secs),
                format!("{:.3}", p.tree_states_secs),
                format!("{:.3}", p.rooted_tree_secs),
                if p.oversubscribed() { "yes" } else { "" }.to_owned(),
            ]
        }));
    }
    print_table(
        "parallel marker scaling (all runs bit-checked against 1 worker)",
        &[
            "nodes",
            "threads",
            "labels/sec",
            "fields/sec",
            "speedup",
            "snapshot secs",
            "states secs",
            "tree secs",
            "oversub",
        ],
        &rows,
    );

    let out = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .unwrap_or_else(|| "BENCH_marker.json".to_owned());
    std::fs::write(&out, series_json(&points)).expect("write benchmark series");
    println!("series written to {out}");
}

fn one_worker() -> ParallelConfig {
    ParallelConfig::with_threads(NonZeroUsize::MIN)
}

/// The committed `BENCH_marker.json` schema: experiment id, host
/// parallelism, and one object per (nodes, threads) point — each point
/// repeating the host parallelism it was recorded under, with an
/// explicit `oversubscribed` flag.
fn series_json(points: &[Point]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"marker_scaling\",\n");
    out.push_str(&format!(
        "  \"host_parallelism\": {},\n  \"points\": [\n",
        host_parallelism()
    ));
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"nodes\": {}, \"threads\": {}, \"total_fields\": {}, \
             \"marker_secs\": {:.6}, \"snapshot_secs\": {:.6}, \
             \"tree_states_secs\": {:.6}, \"rooted_tree_secs\": {:.6}, \
             \"labels_per_sec\": {:.1}, \"fields_per_sec\": {:.1}, \
             \"host_parallelism\": {}, \"oversubscribed\": {}}}{}\n",
            p.nodes,
            p.threads,
            p.total_fields,
            p.marker_secs,
            p.snapshot_secs,
            p.tree_states_secs,
            p.rooted_tree_secs,
            p.labels_per_sec(),
            p.fields_per_sec(),
            p.host_parallelism,
            p.oversubscribed(),
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
