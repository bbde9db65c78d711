//! The serving invariant across crates: a `QueryEngine` fed the delta
//! records of a live `DynMarker` answers every query exactly like a
//! path oracle on the marker's current tree, mutation after mutation,
//! and a memory-mapped v2 snapshot of the result answers exactly like
//! the owned engine it came from.

use std::collections::HashSet;

use mst_verification::dynmark::DynMarker;
use mst_verification::graph::{gen, NodeId, Weight};
use mst_verification::labels::{SepFieldCodec, FLOW_INFINITY};
use mst_verification::store::{
    Answer, DeltaOutcome, EngineConfig, JournalMutation, Query, QueryEngine, Snapshot,
    SnapshotFormat,
};
use mst_verification::trees::{PathMaxIndex, RootedTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 200;
const MUTATIONS: usize = 60;
const MAX_WEIGHT: u64 = 1000;

/// Tree-side truth for every query kind.
struct Oracle {
    idx: PathMaxIndex,
    wdepth: Vec<u64>,
}

impl Oracle {
    fn of(tree: &RootedTree) -> Oracle {
        let idx = PathMaxIndex::new(tree);
        let mut wdepth = vec![0u64; tree.num_nodes()];
        for &v in tree.order() {
            if let Some(p) = tree.parent(v) {
                wdepth[v.index()] = wdepth[p.index()] + tree.parent_weight(v).0;
            }
        }
        Oracle { idx, wdepth }
    }

    fn max(&self, u: NodeId, v: NodeId) -> Weight {
        if u == v {
            Weight::ZERO
        } else {
            self.idx.max_on_path(u, v)
        }
    }

    fn answer(&self, q: Query) -> Answer {
        match q {
            Query::Max { u, v } => Answer::Max(self.max(u, v)),
            Query::Flow { u, v } => Answer::Flow(if u == v {
                FLOW_INFINITY
            } else {
                self.idx.min_on_path(u, v)
            }),
            Query::Dist { u, v } => {
                let x = self.idx.lca(u, v);
                Answer::Dist(
                    self.wdepth[u.index()] + self.wdepth[v.index()] - 2 * self.wdepth[x.index()],
                )
            }
            Query::VerifyEdge { u, v, w } => {
                let max_on_path = self.max(u, v);
                Answer::VerifyEdge {
                    accept: w >= max_on_path,
                    max_on_path,
                }
            }
        }
    }
}

/// Every query kind over seeded endpoint pairs, `u == v` included.
fn query_mix(rng: &mut StdRng) -> Vec<Query> {
    let n = NODES as u32;
    let mut queries = Vec::new();
    for i in 0..48 {
        let u = NodeId(rng.gen_range(0..n));
        let v = if i % 12 == 0 {
            u
        } else {
            NodeId(rng.gen_range(0..n))
        };
        queries.push(Query::Max { u, v });
        queries.push(Query::Flow { u, v });
        queries.push(Query::Dist { u, v });
        queries.push(Query::VerifyEdge {
            u,
            v,
            w: Weight(rng.gen_range(1..=MAX_WEIGHT)),
        });
    }
    queries
}

/// One seeded mutation: a tree-edge reweight, a non-tree edge made
/// light (the usual way a tree swap happens), or a tree/non-tree
/// weight exchange.
fn next_mutation(marker: &DynMarker, rng: &mut StdRng) -> JournalMutation {
    let g = marker.graph();
    let tree: HashSet<_> = marker.tree_edges().iter().copied().collect();
    let non_tree: Vec<_> = g.edge_ids().filter(|e| !tree.contains(e)).collect();
    let t = g.edge(marker.tree_edges()[rng.gen_range(0..marker.tree_edges().len())]);
    let o = g.edge(non_tree[rng.gen_range(0..non_tree.len())]);
    match rng.gen_range(0..3) {
        0 => JournalMutation::SetWeight {
            u: t.u.0,
            v: t.v.0,
            w: rng.gen_range(1..=MAX_WEIGHT),
        },
        1 => JournalMutation::SetWeight {
            u: o.u.0,
            v: o.v.0,
            w: rng.gen_range(1..=MAX_WEIGHT / 10),
        },
        _ => JournalMutation::SwapWeights {
            u1: t.u.0,
            v1: t.v.0,
            u2: o.u.0,
            v2: o.v.0,
        },
    }
}

#[test]
fn live_deltas_keep_every_answer_on_the_current_tree() {
    let mut rng = StdRng::seed_from_u64(0x5E4E);
    let graph = gen::random_connected(
        NODES,
        2 * NODES,
        gen::WeightDist::Uniform { max: MAX_WEIGHT },
        &mut rng,
    );
    let mut marker = DynMarker::new(graph, SepFieldCodec::EliasGamma).unwrap();
    let engine = QueryEngine::new(marker.snapshot(), EngineConfig::default());
    let queries = query_mix(&mut rng);

    let mut swaps = 0;
    for step in 1..=MUTATIONS as u64 {
        let mutation = next_mutation(&marker, &mut rng);
        let record = marker.apply(mutation).unwrap();
        if record.outcome == DeltaOutcome::TreeSwap {
            swaps += 1;
        }
        assert_eq!(engine.apply_delta(&record).unwrap(), step);

        let oracle = Oracle::of(marker.tree());
        let resp = engine.run_batch_response(&queries);
        assert_eq!(resp.delta_seq, step);
        for (q, a) in queries.iter().zip(&resp.results) {
            assert_eq!(
                a.as_ref().copied(),
                Ok(oracle.answer(*q)),
                "{q:?} after mutation {step} ({mutation:?})"
            );
        }
    }
    assert!(swaps > 0, "the stream must include tree swaps");

    // The same state served from a memory-mapped v2 file answers alike.
    let path = std::env::temp_dir().join(format!("mstv-serving-{}.snap", std::process::id()));
    engine
        .with_snapshot(|s| s.write_file_format(&path, SnapshotFormat::V2))
        .unwrap();
    let mapped = Snapshot::open_mmap(&path).unwrap();
    let mapped = QueryEngine::new_mapped(mapped);
    assert_eq!(
        mapped.run_batch_response(&queries).results,
        engine.run_batch_response(&queries).results
    );
    let _ = std::fs::remove_file(&path);
}
