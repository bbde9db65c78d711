//! E13 — serving throughput from stored labels: queries per second of
//! the snapshot-backed query engine as shards scale, on a 10k-node
//! instance.
//!
//! The implicit schemes' contract — any `MAX(u, v)` from the two labels
//! alone — turns the label stack into a standalone database. This
//! experiment measures what that buys operationally: the snapshot is
//! built once, serialized, reloaded through the checked container path,
//! and then served under a fixed 100k-query workload at every shard
//! count. Every answer (not just a sample) is
//! cross-checked against an in-memory path oracle on the same tree, so
//! the table cannot be fast-but-wrong; timings themselves are reported,
//! never asserted.

use mstv_bench::{print_table, workload};
use mstv_graph::{NodeId, Weight};
use mstv_labels::{SepFieldCodec, FLOW_INFINITY};
use mstv_mst::kruskal;
use mstv_store::{Answer, EngineConfig, Query, QueryEngine, Snapshot};
use mstv_trees::{PathMaxIndex, RootedTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 10_000;
const QUERIES: usize = 100_000;
const BATCH: usize = 1024;

fn main() {
    println!("E13: snapshot serving throughput vs shards");

    let g = workload(NODES, 100_000, 0xE13);
    let mst = kruskal(&g);
    let tree = RootedTree::from_graph_edges(&g, &mst, NodeId(0)).expect("kruskal spans");
    let bytes = Snapshot::build(&tree, SepFieldCodec::EliasGamma).to_bytes();
    println!(
        "instance: {NODES} nodes, snapshot {} bytes ({:.1} bits/node)",
        bytes.len(),
        bytes.len() as f64 * 8.0 / NODES as f64
    );

    // The fixed query workload, shared by every engine configuration.
    let n = NODES as u32;
    let max_w = tree.edges().map(|(_, _, w)| w.0).max().unwrap_or(1);
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let queries: Vec<Query> = (0..QUERIES)
        .map(|i| {
            let u = NodeId(rng.gen_range(0..n));
            let v = NodeId(rng.gen_range(0..n));
            match i % 4 {
                0 => Query::Max { u, v },
                1 => Query::Flow { u, v },
                2 => Query::Dist { u, v },
                _ => Query::VerifyEdge {
                    u,
                    v,
                    w: Weight(rng.gen_range(0..=max_w)),
                },
            }
        })
        .collect();

    let idx = PathMaxIndex::new(&tree);
    let mut wdepth = vec![0u64; tree.num_nodes()];
    for &v in tree.order() {
        if let Some(p) = tree.parent(v) {
            wdepth[v.index()] = wdepth[p.index()] + tree.parent_weight(v).0;
        }
    }

    let mut rows = Vec::new();
    for &shards in &[1usize, 2, 4, 8] {
        let snap = Snapshot::from_bytes(&bytes).expect("own snapshot reloads");
        let config = EngineConfig::new(shards).expect("bench shard counts are valid");
        let engine = QueryEngine::new(snap, config);
        let mut answers = Vec::with_capacity(QUERIES);
        for chunk in queries.chunks(BATCH) {
            answers.extend(engine.run_batch_response(chunk).results);
        }
        check_against_oracle(&queries, &answers, &idx, &wdepth);
        let m = engine.metrics();
        // One JSON series point per configuration, greppable.
        println!(
            "{{\"experiment\":\"serve\",\"nodes\":{NODES},{}",
            m.to_json()
                .strip_prefix('{')
                .expect("metrics JSON is an object")
        );
        rows.push(vec![
            shards.to_string(),
            m.queries.to_string(),
            m.cache_misses.to_string(),
            format!("{:.0}", m.queries_per_sec()),
        ]);
    }
    print_table(
        "serving 100k mixed queries (all answers oracle-checked)",
        &["shards", "queries", "label decodes", "queries/sec"],
        &rows,
    );
}

fn check_against_oracle(
    queries: &[Query],
    answers: &[Result<Answer, mstv_store::proto::ErrorCode>],
    idx: &PathMaxIndex,
    wdepth: &[u64],
) {
    assert_eq!(queries.len(), answers.len());
    for (q, a) in queries.iter().zip(answers) {
        let a = a.as_ref().expect("in-range queries succeed");
        let ok = match (*q, *a) {
            (Query::Max { u, v }, Answer::Max(w)) => w == oracle_max(idx, u, v),
            (Query::Flow { u, v }, Answer::Flow(w)) => {
                w == if u == v {
                    FLOW_INFINITY
                } else {
                    idx.min_on_path(u, v)
                }
            }
            (Query::Dist { u, v }, Answer::Dist(d)) => {
                let x = idx.lca(u, v);
                d == wdepth[u.index()] + wdepth[v.index()] - 2 * wdepth[x.index()]
            }
            (
                Query::VerifyEdge { u, v, w },
                Answer::VerifyEdge {
                    accept,
                    max_on_path,
                },
            ) => {
                let want = oracle_max(idx, u, v);
                max_on_path == want && accept == (w >= want)
            }
            _ => false,
        };
        assert!(ok, "{q:?} answered {a:?}, contradicting the path oracle");
    }
}

fn oracle_max(idx: &PathMaxIndex, u: NodeId, v: NodeId) -> Weight {
    if u == v {
        Weight::ZERO
    } else {
        idx.max_on_path(u, v)
    }
}
