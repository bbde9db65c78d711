//! End-to-end tests of the serving tier over real loopback sockets:
//! oracle-checked answers, typed overload rejection, refused zero
//! sizes, the hot-swap
//! guarantee (no dropped or torn queries), admin operations, and
//! malformed-frame handling.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};

use mstv_graph::{gen, NodeId, Weight};
use mstv_labels::{SepFieldCodec, FLOW_INFINITY};
use mstv_serve::{Client, ServeConfig, ServeError, ServerHandle};
use mstv_store::proto::{
    header_payload_len, ErrorCode, Frame, Request, Response, FRAME_HEADER_LEN, PROTO_MAGIC,
    PROTO_VERSION,
};
use mstv_store::{Answer, Query, Snapshot};
use mstv_trees::{PathMaxIndex, RootedTree};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A tree plus the oracles every answer is checked against.
struct Oracle {
    idx: PathMaxIndex,
    wdepth: Vec<u64>,
}

impl Oracle {
    fn max(&self, u: NodeId, v: NodeId) -> Weight {
        if u == v {
            Weight::ZERO
        } else {
            self.idx.max_on_path(u, v)
        }
    }

    fn dist(&self, u: NodeId, v: NodeId) -> u64 {
        let x = self.idx.lca(u, v);
        self.wdepth[u.index()] + self.wdepth[v.index()] - 2 * self.wdepth[x.index()]
    }

    fn flow(&self, u: NodeId, v: NodeId) -> Weight {
        if u == v {
            FLOW_INFINITY
        } else {
            self.idx.min_on_path(u, v)
        }
    }

    /// Asserts that `resp` answers every query of `batch`, in order,
    /// with the oracle's value.
    fn check(&self, batch: &[Query], resp: &Response) {
        assert_eq!(resp.results.len(), batch.len());
        for (q, r) in batch.iter().zip(&resp.results) {
            let a = r.as_ref().expect("in-range queries succeed over the wire");
            match (*q, *a) {
                (Query::Max { u, v }, Answer::Max(w)) => assert_eq!(w, self.max(u, v)),
                (Query::Dist { u, v }, Answer::Dist(d)) => assert_eq!(d, self.dist(u, v)),
                (Query::Flow { u, v }, Answer::Flow(w)) => assert_eq!(w, self.flow(u, v)),
                (
                    Query::VerifyEdge { u, v, w },
                    Answer::VerifyEdge {
                        accept,
                        max_on_path,
                    },
                ) => {
                    assert_eq!(max_on_path, self.max(u, v));
                    assert_eq!(accept, w >= max_on_path);
                }
                other => panic!("answer kind mismatch: {other:?}"),
            }
        }
    }
}

fn tree_of(n: usize, max_w: u64, seed: u64) -> RootedTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::random_tree(n, gen::WeightDist::Uniform { max: max_w }, &mut rng);
    RootedTree::from_graph(&g, NodeId(0)).unwrap()
}

fn oracle_of(tree: &RootedTree) -> Oracle {
    let idx = PathMaxIndex::new(tree);
    let mut wdepth = vec![0u64; tree.num_nodes()];
    for &v in tree.order() {
        if let Some(p) = tree.parent(v) {
            wdepth[v.index()] = wdepth[p.index()] + tree.parent_weight(v).0;
        }
    }
    Oracle { idx, wdepth }
}

fn snapshot_of(tree: &RootedTree) -> Snapshot {
    Snapshot::build(tree, SepFieldCodec::EliasGamma)
}

fn mixed_batch(n: u32, rounds: u32) -> Vec<Query> {
    let mut batch = Vec::new();
    for i in 0..rounds {
        let u = NodeId((i * 17 + 3) % n);
        let v = NodeId((i * 29 + 11) % n);
        batch.push(Query::Max { u, v });
        batch.push(Query::Dist { u, v });
        batch.push(Query::Flow { u, v });
        batch.push(Query::VerifyEdge {
            u,
            v,
            w: Weight(u64::from(i) * 7 % 500),
        });
    }
    batch
}

#[test]
fn roundtrip_matches_in_process_oracle() {
    let tree = tree_of(200, 500, 41);
    let oracle = oracle_of(&tree);
    let server = ServerHandle::spawn(snapshot_of(&tree), ServeConfig::default(), 0).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let batch = mixed_batch(200, 50);
    let resp = client.request(batch.clone()).unwrap();
    assert_eq!(resp.server_epoch, 1);
    oracle.check(&batch, &resp);

    // Pipelined on the same connection: a window of batches in flight
    // comes back in send order, each under its own id. The batches
    // differ in length, so a response matched to the wrong one fails.
    let window: Vec<Vec<Query>> = (0..6).map(|k| mixed_batch(200, 10 + k)).collect();
    let ids: Vec<u64> = window
        .iter()
        .map(|batch| client.send(batch.clone()).unwrap())
        .collect();
    for (&id, batch) in ids.iter().zip(&window) {
        let resp = client.recv().unwrap();
        assert_eq!(resp.id, id, "responses came back out of send order");
        oracle.check(batch, &resp);
    }

    // Errors arrive as the same typed codes the in-process API reports.
    let resp = client
        .request(vec![Query::Max {
            u: NodeId(999),
            v: NodeId(0),
        }])
        .unwrap();
    assert_eq!(
        resp.results[0],
        Err(ErrorCode::UnknownNode {
            node: 999,
            nodes: 200
        })
    );

    let m = server.metrics();
    assert_eq!(m.batches, 2 + window.len() as u64);
    assert_eq!(m.errors, 1);
    assert_eq!(m.latency.count(), 2 + window.len() as u64);
    server.shutdown();
}

/// Reads one response frame off a raw connection.
fn read_response(raw: &mut TcpStream) -> Response {
    let mut frame = vec![0u8; FRAME_HEADER_LEN];
    raw.read_exact(&mut frame).unwrap();
    let header: &[u8; FRAME_HEADER_LEN] = frame[..].try_into().unwrap();
    let len = header_payload_len(header).unwrap();
    frame.resize(FRAME_HEADER_LEN + len, 0);
    raw.read_exact(&mut frame[FRAME_HEADER_LEN..]).unwrap();
    match Frame::decode(&frame).unwrap() {
        Frame::Response(resp) => resp,
        other => panic!("expected a response, got {other:?}"),
    }
}

#[test]
fn overload_is_a_typed_rejection_not_a_hang() {
    let tree = tree_of(50, 100, 42);
    let oracle = oracle_of(&tree);
    // One worker and room for one waiting request. The three requests
    // reach the server's reader in one write; while the worker is busy
    // with the large first batch, the second request fills the inbox and
    // the third is refused. The first batch is sized so the worker
    // cannot finish it in the moment the reader takes to parse two
    // small frames.
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    };
    let server = ServerHandle::spawn(snapshot_of(&tree), config, 0).unwrap();
    let big = mixed_batch(50, 25_000);
    let small = vec![
        Query::Max {
            u: NodeId(1),
            v: NodeId(2),
        },
        Query::Dist {
            u: NodeId(3),
            v: NodeId(4),
        },
    ];
    let mut bytes = Vec::new();
    for (id, batch) in [(1, big.clone()), (2, small.clone()), (3, small.clone())] {
        bytes.extend(Frame::Request(Request { id, batch }).encode().unwrap());
    }
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(&bytes).unwrap();

    let mut overloaded = 0;
    for _ in 0..3 {
        let resp = read_response(&mut raw);
        assert_eq!(resp.server_epoch, 1);
        let batch = if resp.id == 1 { &big } else { &small };
        assert_eq!(resp.results.len(), batch.len(), "request {}", resp.id);
        if resp.results[0]
            == Err(ErrorCode::Overloaded {
                pending: 1,
                limit: 1,
            })
        {
            assert_ne!(resp.id, 1, "an idle server refused the first request");
            assert!(
                resp.results.iter().all(|r| *r == resp.results[0]),
                "a refusal covers the whole batch"
            );
            overloaded += 1;
            continue;
        }
        for (q, r) in batch.iter().zip(&resp.results) {
            match (*q, r) {
                (Query::Max { u, v }, Ok(Answer::Max(w))) => assert_eq!(*w, oracle.max(u, v)),
                (Query::Dist { u, v }, Ok(Answer::Dist(d))) => assert_eq!(*d, oracle.dist(u, v)),
                (Query::Flow { .. }, Ok(Answer::Flow(_)))
                | (Query::VerifyEdge { .. }, Ok(Answer::VerifyEdge { .. })) => {}
                other => panic!("request {}: unexpected answer {other:?}", resp.id),
            }
        }
    }
    assert!(overloaded >= 1, "no request was refused");
    // Rejections are visible in the server metrics as errors.
    let m = server.metrics();
    assert_eq!(m.errors, overloaded * small.len() as u64);
    server.shutdown();
}

#[test]
fn zero_sizes_are_refused() {
    let tree = tree_of(20, 100, 3);
    let zeroed = [
        ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        },
        ServeConfig {
            max_connections: 0,
            ..ServeConfig::default()
        },
        ServeConfig {
            queue_depth: 0,
            ..ServeConfig::default()
        },
    ];
    for (config, field) in zeroed
        .into_iter()
        .zip(["workers", "max_connections", "queue_depth"])
    {
        let err = ServerHandle::spawn(snapshot_of(&tree), config, 0)
            .err()
            .unwrap_or_else(|| panic!("a server with zero {field} started"));
        let ServeError::Io(io) = &err else {
            panic!("zero {field}: {err}");
        };
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidInput, "{field}");
        assert!(err.to_string().contains(field), "{err}");
    }
}

/// The acceptance-criteria test: hammer the server from concurrent
/// clients while the snapshot is swapped under them. Every response
/// must carry a single epoch whose oracle its answers match exactly —
/// zero errors, zero torn batches, zero drops.
#[test]
fn hot_swap_under_hammer_drops_nothing() {
    let tree_a = tree_of(300, 400, 1);
    let tree_b = tree_of(300, 900, 2);
    let oracles = [oracle_of(&tree_a), oracle_of(&tree_b)];
    let snap_b = snapshot_of(&tree_b);

    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server = ServerHandle::spawn(snapshot_of(&tree_a), config, 0).unwrap();
    let addr = server.addr();
    assert_eq!(server.epoch(), 1);

    let check = |resp: &mstv_store::proto::Response, batch: &[Query]| {
        assert!(
            resp.server_epoch == 1 || resp.server_epoch == 2,
            "epoch {} is neither generation",
            resp.server_epoch
        );
        let oracle = &oracles[(resp.server_epoch - 1) as usize];
        assert_eq!(resp.results.len(), batch.len());
        for (q, r) in batch.iter().zip(&resp.results) {
            let a = r.as_ref().expect("hammer queries never error");
            match (*q, *a) {
                (Query::Max { u, v }, Answer::Max(w)) => assert_eq!(
                    w,
                    oracle.max(u, v),
                    "MAX({u},{v}) wrong for epoch {} — torn or mixed snapshot",
                    resp.server_epoch
                ),
                (Query::Dist { u, v }, Answer::Dist(d)) => assert_eq!(
                    d,
                    oracle.dist(u, v),
                    "DIST({u},{v}) wrong for epoch {}",
                    resp.server_epoch
                ),
                other => panic!("answer kind mismatch: {other:?}"),
            }
        }
    };

    let stop = AtomicBool::new(false);
    let responses: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u32)
            .map(|c| {
                let (stop, check) = (&stop, &check);
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut batch = Vec::new();
                    for i in 0..40u32 {
                        let u = NodeId((i * 13 + c) % 300);
                        let v = NodeId((i * 31 + 2 * c + 1) % 300);
                        batch.push(Query::Max { u, v });
                        batch.push(Query::Dist { u, v });
                    }
                    let mut served = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let resp = client.request(batch.clone()).unwrap();
                        check(&resp, &batch);
                        served += 1;
                    }
                    // One final request after the swap settled: it must
                    // be answered — the swap may not drop queries — and
                    // from the new generation.
                    let resp = client.request(batch.clone()).unwrap();
                    assert_eq!(resp.server_epoch, 2, "post-swap request on old epoch");
                    check(&resp, &batch);
                    served + 1
                })
            })
            .collect();

        // Let the hammer run, swap mid-flight, let it run some more.
        std::thread::sleep(std::time::Duration::from_millis(150));
        assert_eq!(server.swap(snap_b), 2);
        assert_eq!(server.epoch(), 2);
        std::thread::sleep(std::time::Duration::from_millis(150));
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    // Every request that was sent came back answered: the server-side
    // request count matches what the clients got, and none errored.
    let m = server.metrics();
    assert_eq!(
        m.batches, responses as u64,
        "dropped or duplicated requests"
    );
    assert_eq!(m.errors, 0);
    assert!(responses >= 4, "hammer barely ran ({responses} responses)");
    server.shutdown();
}

/// The live-mutation counterpart of the hot-swap hammer: concurrent
/// clients query while an admin connection streams a burst of
/// `mstv-dyn` delta records into the serving engine in place. Every
/// response must carry an epoch whose oracle its answers match exactly
/// — a batch torn across a delta, or one tagged with the wrong delta
/// sequence, would answer from the wrong generation.
#[test]
fn delta_burst_under_hammer_serves_each_generation_exactly() {
    const N: usize = 200;
    const BURST: usize = 12;
    let mut rng = StdRng::seed_from_u64(0xDE17A);
    let graph = gen::random_connected(N, 320, gen::WeightDist::Uniform { max: 400 }, &mut rng);
    let mut marker = mstv_dyn::DynMarker::new(graph, SepFieldCodec::EliasGamma).unwrap();
    let base = marker.snapshot();

    // Script the burst up front: a parent-edge reweight per step (always
    // a tree edge, so MAX/DIST answers actually move), plus the oracle
    // after each step. Epoch k+1 on the wire serves oracles[k].
    let mut records = Vec::with_capacity(BURST);
    let mut oracles = Vec::with_capacity(BURST + 1);
    oracles.push(oracle_of(marker.tree()));
    use rand::Rng;
    for _ in 0..BURST {
        let v = NodeId(rng.gen_range(1..N as u32));
        let u = marker.tree().parent(v).unwrap();
        let w = rng.gen_range(1..=400u64);
        let record = marker
            .apply(mstv_store::JournalMutation::SetWeight { u: u.0, v: v.0, w })
            .unwrap();
        records.push(record.to_bytes());
        oracles.push(oracle_of(marker.tree()));
    }

    let server = ServerHandle::spawn(base, ServeConfig::default(), 0).unwrap();
    let addr = server.addr();
    assert_eq!(server.epoch(), 1);

    let check = |resp: &mstv_store::proto::Response, batch: &[Query]| {
        let epoch = resp.server_epoch;
        assert!(
            (1..=1 + BURST as u64).contains(&epoch),
            "epoch {epoch} is no generation of the burst"
        );
        let oracle = &oracles[(epoch - 1) as usize];
        assert_eq!(resp.results.len(), batch.len());
        for (q, r) in batch.iter().zip(&resp.results) {
            let a = r.as_ref().expect("hammer queries never error");
            match (*q, *a) {
                (Query::Max { u, v }, Answer::Max(w)) => assert_eq!(
                    w,
                    oracle.max(u, v),
                    "MAX({u},{v}) wrong for epoch {epoch} — torn or mis-tagged delta"
                ),
                (Query::Dist { u, v }, Answer::Dist(d)) => assert_eq!(
                    d,
                    oracle.dist(u, v),
                    "DIST({u},{v}) wrong for epoch {epoch}"
                ),
                other => panic!("answer kind mismatch: {other:?}"),
            }
        }
    };

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (stop, check) = (&stop, &check);
        let handles: Vec<_> = (0..2u32)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    // Repeat the same batch across requests, so every
                    // generation answers the same questions.
                    let mut batch = Vec::new();
                    for i in 0..50u32 {
                        let u = NodeId((i * 11 + c) % N as u32);
                        let v = NodeId((i * 23 + 3 * c + 1) % N as u32);
                        batch.push(Query::Max { u, v });
                        batch.push(Query::Dist { u, v });
                    }
                    while !stop.load(Ordering::Relaxed) {
                        let resp = client.request(batch.clone()).unwrap();
                        check(&resp, &batch);
                    }
                    // After the burst settled, answers must come from
                    // the final generation.
                    let resp = client.request(batch.clone()).unwrap();
                    assert_eq!(
                        resp.server_epoch,
                        1 + BURST as u64,
                        "post-burst request served a stale generation"
                    );
                    check(&resp, &batch);
                })
            })
            .collect();

        // Stream the burst from an admin connection while the hammer
        // runs. Each apply must advance the epoch by exactly one.
        let mut admin = Client::connect(addr).unwrap();
        for (k, bytes) in records.iter().enumerate() {
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(admin.apply_delta(bytes).unwrap(), 2 + k as u64);
        }
        // Replaying the last record is out of sequence: a typed server
        // error, and the epoch stays put.
        assert!(matches!(
            admin.apply_delta(records.last().unwrap()),
            Err(mstv_serve::ServeError::Server { .. })
        ));
        assert_eq!(server.epoch(), 1 + BURST as u64);

        std::thread::sleep(std::time::Duration::from_millis(50));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    });

    // No query errored anywhere in the burst.
    assert_eq!(server.metrics().errors, 0);

    // A hot swap after live deltas keeps the epoch monotonic: the new
    // base starts past base + deltas.
    let swapped = server.swap(marker.snapshot());
    assert_eq!(swapped, 1 + BURST as u64 + 1);
    let mut client = Client::connect(addr).unwrap();
    let resp = client
        .request(vec![Query::Max {
            u: NodeId(3),
            v: NodeId(77),
        }])
        .unwrap();
    assert_eq!(resp.server_epoch, swapped);
    assert_eq!(
        resp.results[0],
        Ok(Answer::Max(oracles[BURST].max(NodeId(3), NodeId(77))))
    );
    server.shutdown();
}

#[test]
fn admin_stats_swap_and_shutdown_over_the_wire() {
    let tree_a = tree_of(80, 200, 5);
    let tree_b = tree_of(80, 800, 6);
    let oracle_b = oracle_of(&tree_b);

    let dir = std::env::temp_dir().join(format!("mstv_serve_swap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("b.snap");
    snapshot_of(&tree_b).write_file(&snap_path).unwrap();

    let server = ServerHandle::spawn(snapshot_of(&tree_a), ServeConfig::default(), 0).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let stats = client.stats().unwrap();
    assert!(stats.starts_with("{\"epoch\":1,"), "stats: {stats}");
    assert!(stats.contains("\"server\":{"));
    assert!(stats.contains("\"engine\":{"));

    // A bad path is a server-reported error, not a dead connection.
    let err = client.swap_snapshot("/nonexistent/path.snap");
    assert!(matches!(err, Err(mstv_serve::ServeError::Server { .. })));

    // The real swap bumps the epoch and serves the new snapshot.
    assert_eq!(
        client.swap_snapshot(snap_path.to_str().unwrap()).unwrap(),
        2
    );
    let (u, v) = (NodeId(7), NodeId(61));
    let resp = client.request(vec![Query::Max { u, v }]).unwrap();
    assert_eq!(resp.server_epoch, 2);
    assert_eq!(resp.results[0], Ok(Answer::Max(oracle_b.max(u, v))));

    client.shutdown_server().unwrap();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn garbage_and_oversized_frames_close_the_connection() {
    let tree = tree_of(40, 100, 9);
    let server = ServerHandle::spawn(snapshot_of(&tree), ServeConfig::default(), 0).unwrap();

    // A dropped connection surfaces as clean EOF or as a reset,
    // depending on whether unread bytes were still buffered server-side
    // when it closed the socket.
    let assert_closed = |raw: &mut TcpStream| {
        let mut sink = Vec::new();
        match raw.read_to_end(&mut sink) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("server answered {n} bytes instead of dropping the connection"),
        }
    };

    // Garbage magic: the server drops the connection.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"NOT A PROTOCOL FRAME AT ALL").unwrap();
    assert_closed(&mut raw);

    // A valid header claiming an over-bound payload is refused before
    // any allocation; connection dropped likewise.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let mut header = Vec::new();
    header.extend_from_slice(&PROTO_MAGIC);
    header.extend_from_slice(&PROTO_VERSION.to_le_bytes());
    header.push(1);
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    raw.write_all(&header).unwrap();
    assert_closed(&mut raw);

    // The server survives both and keeps serving fresh connections.
    let mut client = Client::connect(server.addr()).unwrap();
    let resp = client
        .request(vec![Query::Max {
            u: NodeId(1),
            v: NodeId(2),
        }])
        .unwrap();
    assert!(resp.results[0].is_ok());
    server.shutdown();
}
