//! E16 — networked serving throughput: queries per second and
//! client-observed latency percentiles of the `mstv-serve` TCP tier on
//! a 100k-node snapshot, over loopback, as server workers and client
//! connections scale.
//!
//! The engine answers each batch inline on a server worker, so the
//! worker count is the tier's query parallelism. On top of the decoding
//! that `mstv query --bench` times in-process, this experiment adds the
//! whole wire path — v1 frame encoding, loopback TCP, the
//! per-connection FIFO queue, the worker pool — and reports what the
//! network tier costs. Each client pipelines fixed-size query batches (a bounded
//! number of requests in flight) and records the latency of every
//! request from send to response; per-point histograms are merged
//! across clients for p50/p99/p999. Every 16th query of every batch is
//! cross-checked against an in-memory path oracle on the same tree, and
//! the server must finish each point with zero errors and exactly the
//! number of batches the clients sent — so the table cannot be
//! fast-but-wrong. Timings themselves are reported, never asserted.
//!
//! Besides the greppable per-point JSON lines, the whole series is
//! written to `BENCH_serve_net.json` (override the path with the first
//! positional argument).

use std::num::NonZeroUsize;
use std::time::Instant;

use mstv_bench::{print_table, workload};
use mstv_core::LatencyHistogram;
use mstv_graph::{NodeId, Weight};
use mstv_labels::{SepFieldCodec, FLOW_INFINITY};
use mstv_mst::kruskal;
use mstv_serve::{Client, ServeConfig, ServerHandle};
use mstv_store::{Answer, Query, Snapshot};
use mstv_trees::{ParallelConfig, PathMaxIndex, RootedTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 100_000;
const BATCH: usize = 256;
/// Requests each client keeps in flight (pipelining depth).
const DEPTH: usize = 4;
/// Requests per point, split across that point's clients.
const REQUESTS: usize = 384;
/// One query in every `CHECK_EVERY` is oracle-checked.
const CHECK_EVERY: usize = 16;

/// (server workers, client connections) sweep.
const SWEEP: [(usize, usize); 3] = [(1, 1), (2, 2), (4, 4)];

struct Point {
    workers: usize,
    clients: usize,
    queries: u64,
    checked: u64,
    secs: f64,
    latency: LatencyHistogram,
}

impl Point {
    fn qps(&self) -> f64 {
        self.queries as f64 / self.secs
    }
}

/// The tree-side truth every sampled answer is checked against.
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

    fn check(&self, q: &Query, a: &Answer) {
        let ok = match (*q, *a) {
            (Query::Max { u, v }, Answer::Max(w)) => w == self.max(u, v),
            (Query::Flow { u, v }, Answer::Flow(w)) => {
                w == if u == v {
                    FLOW_INFINITY
                } else {
                    self.idx.min_on_path(u, v)
                }
            }
            (Query::Dist { u, v }, Answer::Dist(d)) => {
                let x = self.idx.lca(u, v);
                d == self.wdepth[u.index()] + self.wdepth[v.index()] - 2 * self.wdepth[x.index()]
            }
            (
                Query::VerifyEdge { u, v, w },
                Answer::VerifyEdge {
                    accept,
                    max_on_path,
                },
            ) => {
                let want = self.max(u, v);
                max_on_path == want && accept == (w >= want)
            }
            _ => false,
        };
        assert!(ok, "{q:?} answered {a:?}, contradicting the path oracle");
    }
}

fn random_batch(rng: &mut StdRng, n: u32, max_w: u64) -> Vec<Query> {
    (0..BATCH)
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
        .collect()
}

/// One client connection: pipelines `requests` batches with at most
/// [`DEPTH`] in flight, timing each request send-to-response and
/// oracle-checking every [`CHECK_EVERY`]th query.
fn client_run(
    addr: std::net::SocketAddr,
    seed: u64,
    requests: usize,
    max_w: u64,
    oracle: &Oracle,
) -> (LatencyHistogram, u64, u64) {
    let mut client = Client::connect(addr).expect("loopback connect");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hist = LatencyHistogram::new();
    let mut inflight: std::collections::VecDeque<(u64, Instant, Vec<Query>)> =
        std::collections::VecDeque::new();
    let (mut queries, mut checked) = (0u64, 0u64);

    let drain_one = |client: &mut Client,
                     inflight: &mut std::collections::VecDeque<(u64, Instant, Vec<Query>)>,
                     hist: &mut LatencyHistogram,
                     checked: &mut u64| {
        let (id, sent, batch) = inflight.pop_front().expect("drain with work in flight");
        let resp = client.recv().expect("server answers every request");
        // Per-connection FIFO is part of the serving contract: the
        // oldest in-flight request is the one this response answers.
        assert_eq!(resp.id, id, "responses arrived out of order");
        hist.record_duration(sent.elapsed());
        assert_eq!(resp.results.len(), batch.len());
        for (i, (q, r)) in batch.iter().zip(&resp.results).enumerate() {
            let a = r.as_ref().expect("in-range queries succeed");
            if i % CHECK_EVERY == 0 {
                oracle.check(q, a);
                *checked += 1;
            }
        }
    };

    for _ in 0..requests {
        let batch = random_batch(&mut rng, NODES as u32, max_w);
        queries += batch.len() as u64;
        let sent = Instant::now();
        let id = client.send(batch.clone()).expect("loopback send");
        inflight.push_back((id, sent, batch));
        if inflight.len() >= DEPTH {
            drain_one(&mut client, &mut inflight, &mut hist, &mut checked);
        }
    }
    while !inflight.is_empty() {
        drain_one(&mut client, &mut inflight, &mut hist, &mut checked);
    }
    (hist, queries, checked)
}

fn main() {
    println!("E16: networked serving throughput over loopback TCP");
    let host = std::thread::available_parallelism().map_or(0, NonZeroUsize::get);
    println!("host parallelism: {host}");

    let g = workload(NODES, 200_000, 0xE16);
    let mst = kruskal(&g);
    let tree = RootedTree::from_graph_edges(&g, &mst, NodeId(0)).expect("kruskal spans");
    let max_w = tree.edges().map(|(_, _, w)| w.0).max().unwrap_or(1);
    let pc =
        ParallelConfig::with_threads(NonZeroUsize::new(host.max(1)).expect("max(1) is nonzero"));
    let t0 = Instant::now();
    let snap = Snapshot::build_parallel(&tree, SepFieldCodec::EliasGamma, pc);
    println!(
        "instance: {NODES} nodes, snapshot built in {:.2}s",
        t0.elapsed().as_secs_f64()
    );
    let oracle = Oracle::new(&tree);
    let snap_bytes = snap.to_bytes();

    let mut points: Vec<Point> = Vec::new();
    for &(workers, clients) in &SWEEP {
        let snap = Snapshot::from_bytes(&snap_bytes).expect("own snapshot reloads");
        let config = ServeConfig {
            workers,
            ..ServeConfig::default()
        };
        let server = ServerHandle::spawn(snap, config, 0).expect("loopback bind");
        let addr = server.addr();
        let per_client = REQUESTS / clients;

        let t = Instant::now();
        let merged = std::thread::scope(|s| {
            let oracle = &oracle;
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    s.spawn(move || {
                        client_run(addr, 0xC0FFEE + c as u64, per_client, max_w, oracle)
                    })
                })
                .collect();
            let mut hist = LatencyHistogram::new();
            let (mut queries, mut checked) = (0u64, 0u64);
            for h in handles {
                let (ch, cq, cc) = h.join().expect("client thread");
                hist.merge(&ch);
                queries += cq;
                checked += cc;
            }
            (hist, queries, checked)
        });
        let secs = t.elapsed().as_secs_f64().max(1e-9);
        let (latency, queries, checked) = merged;

        // The server's own ledger must agree with what the clients saw:
        // every request accounted for, nothing rejected or failed.
        let m = server.metrics();
        assert_eq!(m.batches, (per_client * clients) as u64, "dropped requests");
        assert_eq!(m.queries, queries, "query count mismatch");
        assert_eq!(m.errors, 0, "server reported errors");
        server.shutdown();

        let p = Point {
            workers,
            clients,
            queries,
            checked,
            secs,
            latency,
        };
        println!(
            "{{\"experiment\":\"serve_net\",\"nodes\":{NODES},\"workers\":{},\"clients\":{},\
             \"batch\":{BATCH},\"queries\":{},\"checked\":{},\"secs\":{:.4},\"qps\":{:.0},\
             \"lat_p50_nanos\":{},\"lat_p99_nanos\":{},\"lat_p999_nanos\":{}}}",
            p.workers,
            p.clients,
            p.queries,
            p.checked,
            p.secs,
            p.qps(),
            p.latency.p50(),
            p.latency.p99(),
            p.latency.p999(),
        );
        points.push(p);
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.workers.to_string(),
                p.clients.to_string(),
                p.queries.to_string(),
                format!("{:.0}", p.qps()),
                format!("{:.1}", p.latency.p50() as f64 / 1e6),
                format!("{:.1}", p.latency.p99() as f64 / 1e6),
                format!("{:.1}", p.latency.p999() as f64 / 1e6),
            ]
        })
        .collect();
    print_table(
        "loopback TCP serving, 256-query batches (sampled answers oracle-checked)",
        &[
            "workers",
            "clients",
            "queries",
            "queries/sec",
            "p50 ms",
            "p99 ms",
            "p999 ms",
        ],
        &rows,
    );

    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve_net.json".to_owned());
    std::fs::write(&out, series_json(&points)).expect("write benchmark series");
    println!("series written to {out}");
}

/// The committed `BENCH_serve_net.json` schema: experiment id, host
/// parallelism, instance size, and one object per (workers, clients)
/// point with throughput and client-observed latency percentiles.
fn series_json(points: &[Point]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"serve_net\",\n");
    out.push_str(&format!(
        "  \"host_parallelism\": {},\n  \"nodes\": {NODES},\n  \"batch\": {BATCH},\n  \"points\": [\n",
        std::thread::available_parallelism().map_or(0, NonZeroUsize::get)
    ));
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"clients\": {}, \"queries\": {}, \"checked\": {}, \
             \"secs\": {:.4}, \"qps\": {:.0}, \"lat_p50_nanos\": {}, \"lat_p99_nanos\": {}, \
             \"lat_p999_nanos\": {}}}{}\n",
            p.workers,
            p.clients,
            p.queries,
            p.checked,
            p.secs,
            p.qps(),
            p.latency.p50(),
            p.latency.p99(),
            p.latency.p999(),
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
