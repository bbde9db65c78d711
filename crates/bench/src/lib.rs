//! Shared harness utilities for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one experiment of
//! `EXPERIMENTS.md` or the README (E1–E12, E17, E20), printing the
//! measured rows next to the paper's claim so the reproduction is
//! auditable at a glance. Run them with
//! `cargo run --release -p mstv-bench --bin <exp_name>`. Wall-clock
//! timing of the pipeline is `perfbench/`'s job; these binaries count.

use mstv_core::{Labeling, MstLabel};
use mstv_graph::{gen, ConfigGraph, Graph, TreeState};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Prints a fixed-width ASCII table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// A standard random connected workload: `n` nodes, `2n` extra edges,
/// weights uniform in `1..=max_w`.
pub fn workload(n: usize, max_w: u64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    gen::random_connected(n, 2 * n, gen::WeightDist::Uniform { max: max_w }, &mut rng)
}

/// The standard workload with its MST installed in node states.
pub fn mst_workload(n: usize, max_w: u64, seed: u64) -> ConfigGraph<TreeState> {
    mstv_core::mst_configuration(workload(n, max_w, seed))
}

/// The distributed marker's depth envelope on a `π_mst` labeling:
/// `(H, L, 4H + L·(6H + 1))`, where `H` is the MST's height from node 0
/// (the largest root distance) and `L` the number of decomposition
/// levels (the longest orientation list). Per level the size
/// convergecast takes at most `2·ecc ≤ 4H` rounds, the descent to the
/// centroid at most `2H`, then one announce hop; the rooting and the
/// `LabelDone` + `StartVerify` hand-off add `2H` each.
pub fn marker_envelope(labeling: &Labeling<MstLabel>) -> (u64, u64, u64) {
    let labels = labeling.labels();
    let height = labels.iter().map(|l| l.span.dist).max().unwrap_or(0);
    let levels = labels
        .iter()
        .map(|l| l.orient.len() as u64)
        .max()
        .unwrap_or(0);
    (height, levels, 4 * height + levels * (6 * height + 1))
}

/// `⌈log₂(x + 1)⌉` as f64 (≥ 1), the paper's `log` of a size/weight.
pub fn lg(x: u64) -> f64 {
    ((x + 1) as f64).log2().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_shapes() {
        let g = workload(50, 100, 1);
        assert_eq!(g.num_nodes(), 50);
        assert_eq!(g.num_edges(), 49 + 100);
        assert!(g.is_connected());
        let cfg = mst_workload(20, 9, 2);
        assert!(cfg.induces_spanning_tree());
    }

    #[test]
    fn lg_values() {
        assert!((lg(1) - 1.0).abs() < 1e-9);
        assert!((lg(7) - 3.0).abs() < 1e-9);
        assert!(lg(0) >= 1.0);
    }

    #[test]
    fn table_prints() {
        print_table(
            "demo",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["30".into(), "4".into()]],
        );
    }
}
