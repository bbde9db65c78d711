//! `serve-zipf`: label queries over loopback TCP against a 100k-node v2
//! snapshot served straight from its memory map.
//!
//! The server is `ServerHandle::spawn_store` with `ServeConfig::default()`
//! (2 workers, 4 shards, 1024-entry label cache). The client is a closed
//! loop on one connection: one op sends a batch of [`BATCH`] queries that
//! cycle MAX/FLOW/DIST/VerifyEdge, with zipf-distributed endpoints over a
//! seeded node permutation, and waits for the response. Every answer is
//! compared with a path oracle built in setup, outside the timed
//! interval, and the server's ledger must show every batch and no error.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mstv_core::ServeMetrics;
use mstv_graph::{gen, NodeId, Weight};
use mstv_labels::{SepFieldCodec, FLOW_INFINITY};
use mstv_mst::kruskal;
use mstv_serve::{Client, ServeConfig, ServerHandle};
use mstv_store::proto::{Frame, Request, Response};
use mstv_store::{Answer, Query, Snapshot, SnapshotFormat, SnapshotStore};
use mstv_trees::{PathMaxIndex, RootedTree};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::trace::Tracer;
use crate::{Halves, Opts, Report, Samples};

const NODES: usize = 100_000;
const EXTRA: usize = 2 * NODES;
const MAX_WEIGHT: u64 = 1 << 20;
const BATCH: usize = 64;
/// Distinct batches the client cycles through.
const POOL: usize = 2048;
/// Zipf exponent of query endpoints.
const ZIPF_S: f64 = 1.1;
/// Batches sent in setup, to fill the label caches.
const WARMUP_BATCHES: usize = 1024;
/// Ops per throughput window.
const WINDOW: usize = 1024;

struct Instance {
    pool: Vec<Vec<Query>>,
    expected: Vec<Vec<Answer>>,
    label_bits_max: usize,
    request_bytes: f64,
    response_bytes: f64,
    client: Option<Client>,
    server: Option<ServerHandle>,
    /// Batches sent so far, for the ledger check.
    sent: u64,
}

impl Drop for Instance {
    fn drop(&mut self) {
        drop(self.client.take());
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Tree-side truth for every query kind.
struct Oracle {
    idx: PathMaxIndex,
    wdepth: Vec<u64>,
}

impl Oracle {
    fn new(tree: &RootedTree) -> Oracle {
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

/// Zipf(`ZIPF_S`) ranks over a seeded permutation of the nodes.
fn query_pool(rng: &mut StdRng) -> Vec<Vec<Query>> {
    let mut perm: Vec<u32> = (0..NODES as u32).collect();
    perm.shuffle(rng);
    let mut cdf = Vec::with_capacity(NODES);
    let mut acc = 0.0;
    for k in 1..=NODES {
        acc += (k as f64).powf(-ZIPF_S);
        cdf.push(acc);
    }
    let node = |rng: &mut StdRng| {
        let r = rng.gen::<f64>() * acc;
        NodeId(perm[cdf.partition_point(|&c| c < r).min(NODES - 1)])
    };
    (0..POOL)
        .map(|_| {
            (0..BATCH)
                .map(|i| {
                    let (u, v) = (node(rng), node(rng));
                    match i % 4 {
                        0 => Query::Max { u, v },
                        1 => Query::Flow { u, v },
                        2 => Query::Dist { u, v },
                        _ => Query::VerifyEdge {
                            u,
                            v,
                            w: Weight(rng.gen_range(1..=MAX_WEIGHT)),
                        },
                    }
                })
                .collect()
        })
        .collect()
}

/// Whether `resp` answers request `id` with exactly `expected`.
fn answers_match(resp: &Response, id: u64, expected: &[Answer]) -> bool {
    resp.id == id
        && resp.results.len() == expected.len()
        && resp
            .results
            .iter()
            .zip(expected)
            .all(|(got, want)| got.as_ref().ok() == Some(want))
}

fn frame_len(frame: Frame) -> Result<usize, String> {
    frame.encode().map(|b| b.len()).map_err(|e| e.to_string())
}

fn setup(opts: &Opts, tr: &mut Tracer) -> Result<Instance, String> {
    let (g, pool) = tr.span("setup.instance", || {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let g = gen::random_connected(
            NODES,
            EXTRA,
            gen::WeightDist::Uniform { max: MAX_WEIGHT },
            &mut rng,
        );
        (g, query_pool(&mut rng))
    });
    let path = opts.tmp_dir.join("serve.snap");
    let (mapped, expected, label_bits_max) = tr.span("setup.build", || {
        let mst = kruskal(&g);
        let tree = RootedTree::from_graph_edges(&g, &mst, NodeId(0)).map_err(|e| e.to_string())?;
        // One thread: a parallel build's peak memory depends on how its
        // workers interleave, and this setup sets the run's peak.
        let snap = Snapshot::build(&tree, SepFieldCodec::EliasGamma);
        let dist = snap.dist().ok_or("snapshot lost its DIST section")?;
        let label_bits_max = (0..NODES)
            .map(|v| {
                snap.max_labels()[v]
                    .len()
                    .max(snap.flow_labels()[v].len())
                    .max(dist.labels[v].len())
            })
            .max()
            .unwrap_or(0);
        std::fs::write(&path, snap.to_bytes_format(SnapshotFormat::V2))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        drop(snap);
        let mapped = Snapshot::open_mmap(&path).map_err(|e| e.to_string())?;
        let oracle = Oracle::new(&tree);
        let expected: Vec<Vec<Answer>> = pool
            .iter()
            .map(|b| b.iter().map(|&q| oracle.answer(q)).collect())
            .collect();
        Ok::<_, String>((mapped, expected, label_bits_max))
    })?;
    drop(g);
    let (mut request_bytes, mut response_bytes) = (0usize, 0usize);
    for (batch, answers) in pool.iter().zip(&expected) {
        request_bytes += frame_len(Frame::Request(Request {
            id: 1,
            batch: batch.clone(),
        }))?;
        response_bytes += frame_len(Frame::Response(Response {
            id: 1,
            server_epoch: 1,
            results: answers.iter().map(|&a| Ok(a)).collect(),
        }))?;
    }
    let (server, client) = tr.span("setup.server_start", || {
        let server =
            ServerHandle::spawn_store(SnapshotStore::Mapped(mapped), ServeConfig::default(), 0)
                .map_err(|e| e.to_string())?;
        let client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
        Ok::<_, String>((server, client))
    })?;
    let mut inst = Instance {
        pool,
        expected,
        label_bits_max,
        request_bytes: request_bytes as f64 / POOL as f64,
        response_bytes: response_bytes as f64 / POOL as f64,
        client: Some(client),
        server: Some(server),
        sent: 0,
    };
    let h = tr.open("setup.warmup");
    for i in 0..WARMUP_BATCHES {
        let (_, ok) = inst.request(i % POOL, tr);
        if !ok {
            return Err("warm-up batch answered wrongly".to_owned());
        }
    }
    tr.close(h);
    Ok(inst)
}

impl Instance {
    /// Sends pool batch `k` and waits for its response: the timed
    /// interval in nanoseconds, then whether every answer matched.
    fn request(&mut self, k: usize, tr: &mut Tracer) -> (u64, bool) {
        let batch = self.pool[k].clone();
        let client = self
            .client
            .as_mut()
            .expect("client lives as long as the instance");
        self.sent += 1;
        tr.next_op();
        let h = tr.open("op");
        let t = Instant::now();
        let resp = tr.span("serve.request", || {
            client
                .send(batch)
                .and_then(|id| client.recv().map(|r| (id, r)))
        });
        let ns = t.elapsed().as_nanos() as u64;
        tr.close(h);
        let ok = matches!(&resp, Ok((id, r)) if answers_match(r, *id, &self.expected[k]));
        (ns, ok)
    }

    fn server(&self) -> &ServerHandle {
        self.server
            .as_ref()
            .expect("server lives as long as the instance")
    }
}

fn phase(inst: &mut Instance, tr: &mut Tracer, budget: Duration, min_ops: usize) -> Samples {
    crate::closed_loop(budget, min_ops, |i| {
        let (ns, ok) = inst.request(i as usize % POOL, tr);
        (ns, BATCH as u64, ok)
    })
}

/// The checker's negative control: a served response with one answer
/// corrupted must fail the oracle comparison.
fn corrupted_answer_fails(inst: &mut Instance) -> Result<bool, String> {
    let client = inst.client.as_mut().ok_or("no client")?;
    let id = client
        .send(inst.pool[0].clone())
        .map_err(|e| e.to_string())?;
    let mut resp = client.recv().map_err(|e| e.to_string())?;
    inst.sent += 1;
    if !answers_match(&resp, id, &inst.expected[0]) {
        return Ok(false);
    }
    resp.results[0] = match resp.results[0] {
        Ok(Answer::Max(w)) => Ok(Answer::Max(Weight(w.0 ^ 1))),
        _ => return Ok(false),
    };
    Ok(!answers_match(&resp, id, &inst.expected[0]))
}

fn delta(after: &ServeMetrics, before: &ServeMetrics) -> ServeMetrics {
    ServeMetrics {
        queries: after.queries - before.queries,
        batches: after.batches - before.batches,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        errors: after.errors - before.errors,
        elapsed_nanos: after.elapsed_nanos - before.elapsed_nanos,
        ..ServeMetrics::new()
    }
}

pub fn run(opts: &Opts, tr: &mut Tracer) -> Result<Report, String> {
    let (mut inst, setups) = crate::timed_setups(tr, |tr| setup(opts, tr))?;
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut notes = Vec::new();
    let (samples, metrics) = if tr.on() {
        // Server and engine counters over the traced half only.
        let mut counted = None;
        let halves = Halves::run(tr, budget, |tr, budget, min_ops| {
            let before = (inst.server().metrics(), inst.server().engine_metrics());
            let s = phase(&mut inst, tr, budget, min_ops);
            if tr.on() {
                counted = Some((
                    delta(&inst.server().metrics(), &before.0),
                    delta(&inst.server().engine_metrics(), &before.1),
                ));
            }
            s
        });
        let (server, engine) = counted.expect("the traced half ran");
        let client_ms: Vec<f64> = tr
            .total_ns("serve.request")
            .into_iter()
            .filter(|(op, _)| halves.traced_op(*op))
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect();
        let client_mean = client_ms.iter().sum::<f64>() / client_ms.len().max(1) as f64;
        let per_batch = |m: &ServeMetrics| m.elapsed_nanos as f64 / 1e6 / m.batches.max(1) as f64;
        let (server_ms, engine_ms) = (per_batch(&server), per_batch(&engine));
        notes.push(format!(
            "per batch: client mean {client_mean:.4} ms, server {server_ms:.4} ms, engine \
             {engine_ms:.4} ms"
        ));
        let mut metrics = BTreeMap::from([
            (
                "serve.client_request_ms",
                crate::stats::percentile(&client_ms, 0.5)?,
            ),
            (
                "serve.client_request_p99_ms",
                crate::stats::percentile(&client_ms, 0.99)?,
            ),
            ("serve.server_request_ms", server_ms),
            ("store.engine_batch_ms", engine_ms),
            ("serve.queue_wait_ms", server_ms - engine_ms),
            ("serve.transport_ms", client_mean - server_ms),
            ("store.cache_hit_ratio", engine.hit_ratio()),
            (
                "store.decodes_per_query",
                engine.cache_misses as f64 / engine.queries.max(1) as f64,
            ),
            ("serve.request_bytes", inst.request_bytes),
            ("serve.response_bytes", inst.response_bytes),
        ]);
        (halves.finish(tr, &mut metrics, &mut notes)?, metrics)
    } else {
        let s = phase(&mut inst, tr, budget, crate::MIN_OPS);
        let m = crate::end_to_end(
            &s,
            WINDOW,
            &setups,
            inst.label_bits_max as f64,
            (inst.request_bytes + inst.response_bytes) / BATCH as f64,
            &mut notes,
        )?;
        (s, m)
    };
    let mut checks_ok = true;
    if !corrupted_answer_fails(&mut inst)? {
        notes.push("negative control: a corrupted answer passed the oracle".to_owned());
        checks_ok = false;
    }
    let ledger = inst.server().metrics();
    if ledger.errors != 0 || ledger.batches != inst.sent {
        notes.push(format!(
            "server ledger: {} batches, {} errors; client sent {}",
            ledger.batches, ledger.errors, inst.sent
        ));
        checks_ok = false;
    }
    Ok(Report::new(&samples, checks_ok, metrics, notes))
}
