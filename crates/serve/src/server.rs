//! The TCP serving tier: connection slots, a bounded worker pool, and
//! the atomic hot snapshot swap.
//!
//! # Architecture
//!
//! The server is built from the workspace's existing concurrency
//! primitives rather than an async runtime:
//!
//! * **[`mstv_trees::KeyedQueue`]** — one key per connection slot. A
//!   connection's requests are posted to its slot, so the per-key FIFO
//!   lease guarantees in-order responses per connection while a bounded
//!   pool of workers serves all connections. A worker answers its
//!   request's whole batch itself ([`QueryEngine::run_batch_response`]
//!   runs inline), so the pool is the server's only query concurrency
//!   and `workers` sizes it. `try_post` with the
//!   configured queue depth is the admission-control point: a request
//!   arriving at a full inbox is answered immediately with
//!   [`ErrorCode::Overloaded`] instead of buffering without bound.
//! * **Epoch-tagged serving state** — the active snapshot lives behind
//!   `RwLock<Arc<Serving>>`. A worker clones the `Arc` once per
//!   request, so every answer of a response comes from exactly one
//!   snapshot generation (no torn batches), and
//!   [`ServerHandle::swap`] replaces the `Arc` under a brief write
//!   lock without dropping a single in-flight query. For small changes
//!   a full swap is unnecessary: the admin `ApplyDelta` frame folds a
//!   `MSTVJRNL` journal record into the serving engine *in place*
//!   ([`QueryEngine::apply_delta`]), rewriting only the record's rows;
//!   the reported epoch advances by the engine's delta sequence so
//!   clients can still attribute every answer to one exact
//!   post-mutation state.
//! * **Interruptible blocking reads** — each connection gets a reader
//!   thread with a short read timeout, re-checking the shutdown flag
//!   between polls, so shutdown never hangs on an idle socket.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mstv_core::ServeMetrics;
use mstv_store::proto::{
    header_payload_len, AdminReply, AdminRequest, ErrorCode, Frame, ProtoError, Request, Response,
    FRAME_HEADER_LEN,
};
use mstv_store::{DeltaRecord, QueryEngine, Snapshot, SnapshotStore};
use mstv_trees::KeyedQueue;

use crate::io::write_frame;
use crate::ServeError;

/// Sizing knobs for [`ServerHandle::spawn`]. The three sizes must be
/// positive: a server with no worker, no connection slot, or no room
/// for one waiting request could never answer.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads answering queued requests, one request's whole
    /// batch at a time: the server's only query concurrency, since the
    /// [`QueryEngine`] answers each batch on the worker that submits it.
    pub workers: usize,
    /// Concurrent connections the server accepts; further connections
    /// are refused (dropped at accept time) until a slot frees up.
    pub max_connections: usize,
    /// Requests one connection may have waiting (beyond the one being
    /// served) before new ones are rejected with
    /// [`ErrorCode::Overloaded`].
    pub queue_depth: usize,
    /// Serve label bytes straight from memory-mapped snapshot files.
    /// Applies to hot swaps by path (`AdminRequest::SwapSnapshot`):
    /// the replacement file is opened with [`Snapshot::open_mmap`]
    /// instead of being decoded into owned buffers. Mapped generations
    /// reject `ApplyDelta` as read-only.
    pub mmap: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_connections: 64,
            queue_depth: 64,
            mmap: false,
        }
    }
}

/// One snapshot generation: the engine serving it and its epoch tag.
struct Serving {
    epoch: u64,
    engine: QueryEngine,
}

/// Write side of one connection, shared between its reader thread (for
/// inline overload/admin replies) and the workers (for responses).
struct ConnState {
    writer: Mutex<TcpStream>,
}

/// A request waiting in a connection slot's inbox. It carries its own
/// [`ConnState`] so a slot reused by a later connection can never
/// misroute a response.
struct Job {
    conn: Arc<ConnState>,
    request: Request,
    received: Instant,
}

struct Shared {
    serving: RwLock<Arc<Serving>>,
    queue: KeyedQueue<Job>,
    metrics: Mutex<ServeMetrics>,
    shutdown: AtomicBool,
    config: ServeConfig,
    free_slots: Mutex<Vec<usize>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// The externally visible epoch: the generation's base epoch plus
    /// how many live deltas have been folded into it. Both a hot swap
    /// and an applied delta therefore advance what clients observe, and
    /// [`Shared::swap_in`]'s accounting keeps the sequence monotonic
    /// across mixed histories of swaps and deltas.
    fn epoch(&self) -> u64 {
        let serving = self.current();
        serving.epoch + serving.engine.delta_seq()
    }

    fn current(&self) -> Arc<Serving> {
        Arc::clone(&self.serving.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Builds an engine around `snap` and swaps it in as the new
    /// serving generation. The engine is constructed *outside* the
    /// write lock, so queries keep flowing off the old generation for
    /// the whole build; only the `Arc` replacement itself excludes
    /// readers. The new base epoch starts past everything the old
    /// generation reported (its base plus its applied deltas), so the
    /// epoch a client sees never goes backwards.
    fn swap_in(&self, store: SnapshotStore) -> u64 {
        let engine = QueryEngine::from_store(store);
        let mut guard = self.serving.write().unwrap_or_else(|e| e.into_inner());
        let epoch = guard.epoch + guard.engine.delta_seq() + 1;
        *guard = Arc::new(Serving { epoch, engine });
        epoch
    }

    fn record_request(&self, queries: u64, errors: u64, latency: Duration) {
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        m.queries += queries;
        m.batches += 1;
        m.errors += errors;
        m.add_elapsed(latency);
        m.latency.record_duration(latency);
    }
}

/// A running server and the means to control it.
///
/// Dropping the handle without calling [`ServerHandle::shutdown`]
/// signals the threads to stop but does not wait for them.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// Binds `127.0.0.1:port` (`0` picks an ephemeral port), wraps
    /// `snap` in a [`QueryEngine`] at epoch 1, and starts the accept
    /// loop plus `config.workers` worker threads.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the listener cannot bind, or with
    /// [`io::ErrorKind::InvalidInput`] if a size in `config` is zero.
    pub fn spawn(
        snap: Snapshot,
        config: ServeConfig,
        port: u16,
    ) -> Result<ServerHandle, ServeError> {
        Self::spawn_store(SnapshotStore::Owned(snap), config, port)
    }

    /// Like [`ServerHandle::spawn`], but over any [`SnapshotStore`] —
    /// in particular a memory-mapped one (`Snapshot::open_mmap`), whose
    /// label bytes stay in the page cache instead of owned buffers.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the listener cannot bind, or with
    /// [`io::ErrorKind::InvalidInput`] if a size in `config` is zero.
    pub fn spawn_store(
        store: SnapshotStore,
        config: ServeConfig,
        port: u16,
    ) -> Result<ServerHandle, ServeError> {
        for (name, size) in [
            ("workers", config.workers),
            ("max_connections", config.max_connections),
            ("queue_depth", config.queue_depth),
        ] {
            if size == 0 {
                return Err(ServeError::Io(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("ServeConfig::{name} must be positive"),
                )));
            }
        }
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let engine = QueryEngine::from_store(store);
        let shared = Arc::new(Shared {
            serving: RwLock::new(Arc::new(Serving { epoch: 1, engine })),
            queue: KeyedQueue::new(config.max_connections),
            metrics: Mutex::new(ServeMetrics::new()),
            shutdown: AtomicBool::new(false),
            config,
            free_slots: Mutex::new((0..config.max_connections).rev().collect()),
            readers: Mutex::new(Vec::new()),
        });
        let mut threads = Vec::with_capacity(config.workers + 1);
        for _ in 0..config.workers {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || accept_loop(&shared, listener)));
        }
        Ok(ServerHandle {
            shared,
            addr,
            threads,
        })
    }

    /// The bound address (the actual port when spawned with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current snapshot epoch (1 until the first swap).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch()
    }

    /// Server-level metrics: requests served, per-request latency
    /// percentiles, admission-control rejections (counted as errors).
    pub fn metrics(&self) -> ServeMetrics {
        *self
            .shared
            .metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Engine-level metrics of the *current* serving generation (a
    /// swap starts a fresh engine block).
    pub fn engine_metrics(&self) -> ServeMetrics {
        self.shared.current().engine.metrics()
    }

    /// Atomically replaces the serving snapshot, returning the new
    /// epoch. In-flight requests finish against whichever generation
    /// they started on; no query is dropped or answered from a mix.
    pub fn swap(&self, snap: Snapshot) -> u64 {
        self.shared.swap_in(SnapshotStore::Owned(snap))
    }

    /// [`ServerHandle::swap`] over any [`SnapshotStore`], e.g. a
    /// memory-mapped replacement generation.
    pub fn swap_store(&self, store: SnapshotStore) -> u64 {
        self.shared.swap_in(store)
    }

    /// Signals every thread to stop, then joins them all: workers, the
    /// accept loop, and per-connection readers.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        self.join_all();
    }

    /// Blocks until the server stops on its own — a client sending the
    /// admin `Shutdown` frame — then joins every thread. The foreground
    /// counterpart of [`ServerHandle::shutdown`]: it waits for the stop
    /// instead of initiating it.
    pub fn wait(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let readers = std::mem::take(
            &mut *self
                .shared
                .readers
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for t in readers {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.close();
    }
}

fn worker_loop(shared: &Shared) {
    while let Some((slot, job)) = shared.queue.next() {
        // One Arc clone pins this request to a single snapshot
        // generation for its whole lifetime — the no-torn-batches
        // guarantee.
        let serving = shared.current();
        let batch = serving.engine.run_batch_response(&job.request.batch);
        // The epoch a response reports is the generation's base epoch
        // plus the delta sequence its batch actually ran at (captured
        // under the engine's state lock) — so a client can map every
        // answer to the exact post-delta snapshot that produced it.
        let response = Frame::Response(Response {
            id: job.request.id,
            server_epoch: serving.epoch + batch.delta_seq,
            results: batch.results,
        });
        // Counters are recorded before the response leaves, so a client
        // that has a response in hand is guaranteed to see its request
        // in the server metrics.
        shared.record_request(
            batch.metrics.queries,
            batch.metrics.errors,
            job.received.elapsed(),
        );
        {
            let mut w = job.conn.writer.lock().unwrap_or_else(|e| e.into_inner());
            // A dead peer is not a server failure: the connection's
            // reader notices EOF and retires the slot.
            let _ = write_frame(&mut w, &response);
        }
        shared.queue.done(slot);
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let slot = shared
                    .free_slots
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .pop();
                match slot {
                    Some(slot) => {
                        let shared2 = Arc::clone(shared);
                        let handle = std::thread::spawn(move || {
                            serve_connection(&shared2, stream, slot);
                            shared2
                                .free_slots
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push(slot);
                        });
                        shared
                            .readers
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push(handle);
                    }
                    // Connection table full: refuse at accept time.
                    None => drop(stream),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// The per-connection reader: parses frames, posts requests to the
/// connection's slot, answers overload and admin inline. Returns (and
/// thereby frees the slot) on EOF, shutdown, or the first unparseable
/// frame — after garbage there is no way to find the next frame
/// boundary, so the connection is dropped rather than guessed at.
fn serve_connection(shared: &Arc<Shared>, mut stream: TcpStream, slot: usize) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let conn = Arc::new(ConnState {
        writer: Mutex::new(writer),
    });
    loop {
        let frame = match read_frame_interruptible(&mut stream, &shared.shutdown) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => return,
        };
        match frame {
            Frame::Request(request) => {
                let received = Instant::now();
                let job = Job {
                    conn: Arc::clone(&conn),
                    request,
                    received,
                };
                if let Err(job) = shared.queue.try_post(slot, job, shared.config.queue_depth) {
                    // Admission control: answer immediately with a
                    // typed rejection carrying the epoch and the bound
                    // the client ran into. `pending` reports the
                    // configured limit — the inbox held at least that
                    // many requests when this one was refused.
                    let limit = shared.config.queue_depth as u32;
                    let reject = Frame::Response(Response {
                        id: job.request.id,
                        server_epoch: shared.epoch(),
                        results: job
                            .request
                            .batch
                            .iter()
                            .map(|_| {
                                Err(ErrorCode::Overloaded {
                                    pending: limit,
                                    limit,
                                })
                            })
                            .collect(),
                    });
                    let queries = job.request.batch.len() as u64;
                    shared.record_request(queries, queries, received.elapsed());
                    {
                        let mut w = conn.writer.lock().unwrap_or_else(|e| e.into_inner());
                        let _ = write_frame(&mut w, &reject);
                    }
                }
            }
            Frame::Admin(req) => {
                let shutdown_after = matches!(req, AdminRequest::Shutdown);
                let reply = Frame::AdminReply(handle_admin(shared, req));
                {
                    let mut w = conn.writer.lock().unwrap_or_else(|e| e.into_inner());
                    let _ = write_frame(&mut w, &reply);
                }
                if shutdown_after {
                    shared.shutdown.store(true, Ordering::SeqCst);
                    shared.queue.close();
                    return;
                }
            }
            // A client has no business sending server-to-client frames.
            Frame::Response(_) | Frame::AdminReply(_) => return,
        }
    }
}

fn handle_admin(shared: &Shared, req: AdminRequest) -> AdminReply {
    match req {
        AdminRequest::Stats => {
            let serving = shared.current();
            let server = shared
                .metrics
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .to_json();
            AdminReply::Stats {
                json: format!(
                    "{{\"epoch\":{},\"server\":{server},\"engine\":{}}}",
                    serving.epoch,
                    serving.engine.metrics().to_json()
                ),
            }
        }
        AdminRequest::SwapSnapshot { path } => {
            // In mmap mode the replacement generation serves straight
            // from the new file's pages; otherwise it is decoded into
            // owned buffers as before. Validation (CRCs, framing,
            // structure) happens in either open path.
            let store = if shared.config.mmap {
                Snapshot::open_mmap(&path).map(SnapshotStore::Mapped)
            } else {
                Snapshot::read_file(&path).map(SnapshotStore::Owned)
            };
            match store {
                Ok(store) => AdminReply::Ok {
                    epoch: shared.swap_in(store),
                },
                Err(e) => AdminReply::Err {
                    message: format!("swap of {path} failed: {e}"),
                },
            }
        }
        AdminRequest::ApplyDelta { bytes } => {
            // Pin the serving generation for the whole apply: the read
            // lock keeps a concurrent swap from retiring the engine
            // between the parse (which needs its node count) and the
            // fold, so the delta lands on the generation whose epoch
            // the reply reports — or fails typed, changing nothing.
            let guard = shared.serving.read().unwrap_or_else(|e| e.into_inner());
            let n = guard
                .engine
                .with_store(mstv_store::SnapshotStore::num_nodes);
            match DeltaRecord::from_bytes(&bytes, n)
                .and_then(|record| guard.engine.apply_delta(&record))
            {
                Ok(seq) => AdminReply::Ok {
                    epoch: guard.epoch + seq,
                },
                Err(e) => AdminReply::Err {
                    message: format!("delta apply failed: {e}"),
                },
            }
        }
        AdminRequest::Shutdown => AdminReply::Ok {
            epoch: shared.epoch(),
        },
    }
}

/// Reads one frame off a timeout-equipped socket, polling the shutdown
/// flag between timeouts. `Ok(None)` means the connection (or the
/// server) is done: clean EOF at a frame boundary, or shutdown.
fn read_frame_interruptible(
    stream: &mut TcpStream,
    shutdown: &AtomicBool,
) -> Result<Option<Frame>, ServeError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    if !read_exact_interruptible(stream, &mut header, shutdown, true)? {
        return Ok(None);
    }
    let payload_len = header_payload_len(&header)?;
    let mut buf = vec![0u8; FRAME_HEADER_LEN + payload_len];
    buf[..FRAME_HEADER_LEN].copy_from_slice(&header);
    if !read_exact_interruptible(stream, &mut buf[FRAME_HEADER_LEN..], shutdown, false)? {
        return Ok(None);
    }
    Ok(Some(Frame::decode(&buf)?))
}

/// Fills `buf` from the socket, treating timeouts as shutdown polls.
/// Returns `Ok(false)` on shutdown, or on EOF when `at_frame_start`
/// and nothing was consumed; EOF mid-frame is a truncation error.
fn read_exact_interruptible(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
    at_frame_start: bool,
) -> Result<bool, ServeError> {
    let mut filled = 0;
    while filled < buf.len() {
        if shutdown.load(Ordering::Relaxed) {
            return Ok(false);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if at_frame_start && filled == 0 {
                    return Ok(false);
                }
                return Err(ServeError::Proto(ProtoError::Truncated {
                    context: "connection closed mid-frame",
                }));
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
}
