//! E3 — Lemma 3.2: `γ_small` supports `MAX` with `O(log n log W)`-bit
//! labels and constant-time decoding.
//!
//! Verifies decoder correctness exhaustively against the naive oracle,
//! reports exact label sizes next to the fixed-width ablation (the
//! `O(log² n + log n log W)` member of `Γ`), and runs seeded decode loops
//! on larger trees whose checksums pin their answers. Every line is a
//! count, so the output is deterministic; decode time is measured by
//! perfbench, not here.

use mstv_bench::{lg, print_table};
use mstv_graph::{gen, NodeId};
use mstv_labels::ImplicitMaxScheme;
use mstv_trees::RootedTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    println!("E3 (Lemma 3.2): γ_small — correctness, size, O(1) decode");

    // Correctness: exhaustive against the naive path walker.
    let mut rng = StdRng::seed_from_u64(0xE3);
    let g = gen::random_tree(300, gen::WeightDist::Uniform { max: 10_000 }, &mut rng);
    let tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
    let scheme = ImplicitMaxScheme::gamma_small(&tree);
    let mut checked = 0u64;
    for u in tree.nodes() {
        for v in tree.nodes() {
            if u != v {
                assert_eq!(scheme.query(u, v), tree.max_on_path_naive(u, v));
                checked += 1;
            }
        }
    }
    println!("decoder exhaustively correct on {checked} vertex pairs (n = 300)");

    // Size sweep: γ_small vs the fixed-width ablation.
    let mut rows = Vec::new();
    for &n in &[64usize, 512, 4096, 32_768] {
        for &w in &[2u64, 65_535, u32::MAX as u64] {
            let mut rng = StdRng::seed_from_u64(n as u64 ^ w);
            let g = gen::random_tree(n, gen::WeightDist::Uniform { max: w }, &mut rng);
            let tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
            let small = ImplicitMaxScheme::gamma_small(&tree);
            let wide = ImplicitMaxScheme::fixed_width_baseline(&tree);
            rows.push(vec![
                n.to_string(),
                w.to_string(),
                small.max_label_bits().to_string(),
                wide.max_label_bits().to_string(),
                format!(
                    "{:.2}",
                    small.max_label_bits() as f64 / (lg(n as u64) * lg(w))
                ),
            ]);
        }
    }
    print_table(
        "γ_small vs fixed-width ablation (max label bits)",
        &["n", "W", "γ_small", "fixed-width", "γ_small/(lg n·lg W)"],
        &rows,
    );

    // Decode loops on larger trees: the checksum of every answer.
    let mut rows = Vec::new();
    for &n in &[256usize, 4096, 65_536] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g = gen::random_tree(n, gen::WeightDist::Uniform { max: 1 << 20 }, &mut rng);
        let tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
        let scheme = ImplicitMaxScheme::gamma_small(&tree);
        let pairs: Vec<(NodeId, NodeId)> = (0..100_000)
            .map(|_| {
                (
                    NodeId(rng.gen_range(0..n as u32)),
                    NodeId(rng.gen_range(0..n as u32)),
                )
            })
            .filter(|(u, v)| u != v)
            .collect();
        let mut acc = 0u64;
        for &(u, v) in &pairs {
            acc = acc.wrapping_add(scheme.query(u, v).0);
        }
        rows.push(vec![
            n.to_string(),
            pairs.len().to_string(),
            format!("{acc:x}"),
        ]);
    }
    print_table(
        "seeded MAX decode loops",
        &["n", "queries", "checksum"],
        &rows,
    );
}
