//! The query engine over a loaded snapshot.
//!
//! One [`QueryEngine`] owns a [`Snapshot`] and answers `MAX`, `FLOW`,
//! `DIST`, and `VerifyEdge` queries purely from the stored label stack —
//! the point of the paper's implicit schemes is that two labels suffice,
//! so the engine never materialises the tree. Every answer comes from
//! the codec's fused pair decoders ([`LabelCodec::try_decode_max_pair`]
//! and its `FLOW`/`DIST` twins), which read the two encoded windows in
//! place without allocating; the engine keeps no decoded labels.
//!
//! A batch is answered inline, by the caller that submits it, in input
//! order. An answer costs two window reads, far less than handing the
//! batch to a worker would, so serving concurrency comes from the
//! callers instead: the `mstv-serve` worker pool, or any number of
//! callers sharing one engine by reference. All failures are typed:
//! unknown node ids, undecodable records, and foreign label pairs are
//! answers, not panics — the pair decoders return `None` on any window
//! they cannot read.
//!
//! The batch entry point is [`QueryEngine::run_batch_response`], which
//! returns a [`BatchResponse`]: per-query results carrying the wire
//! protocol's [`ErrorCode`]s plus batch-level [`BatchMetrics`] — the
//! same vocabulary the `mstv-serve` network tier sends to clients, so
//! in-process and remote callers see identical failure taxonomies.

use std::sync::{Mutex, PoisonError, RwLock};
use std::time::Instant;

use mstv_core::ServeMetrics;
use mstv_graph::{NodeId, Weight};
use mstv_labels::{BitSlice, LabelCodec, FLOW_INFINITY};

use crate::proto::ErrorCode;
use crate::{DeltaRecord, MappedSnapshot, Snapshot, StoreError};

/// Engine construction settings. It carries none: every batch is
/// answered inline by its caller, so there is nothing left to size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineConfig {}

/// A single query against the label store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// `MAX(u, v)`: the heaviest edge on the tree path.
    Max {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
    },
    /// `FLOW(u, v)`: the lightest edge on the tree path.
    Flow {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
    },
    /// `DIST(u, v)`: the weighted path length.
    Dist {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
    },
    /// The MST cycle check for a non-tree edge `(u, v)` of weight `w`:
    /// accepted iff `w ≥ MAX(u, v)`.
    VerifyEdge {
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
        /// The non-tree edge's weight.
        w: Weight,
    },
}

/// A successful query result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// The path maximum (`Weight::ZERO` for `u == v`).
    Max(Weight),
    /// The path minimum ([`FLOW_INFINITY`] for `u == v`).
    Flow(Weight),
    /// The weighted distance.
    Dist(u64),
    /// The cycle-check verdict.
    VerifyEdge {
        /// Whether the edge passed (`w ≥ MAX(u, v)`).
        accept: bool,
        /// The path maximum the weight was compared against.
        max_on_path: Weight,
    },
}

/// What one batch cost, measured inside
/// [`QueryEngine::run_batch_response`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchMetrics {
    /// Queries in the batch.
    pub queries: u64,
    /// Queries that surfaced an error instead of an answer.
    pub errors: u64,
    /// Wall-clock from batch entry to last answer, in nanoseconds.
    pub elapsed_nanos: u64,
}

/// The result of one batch: per-query statuses in input order, plus
/// what the batch cost.
///
/// The error type is the wire protocol's [`ErrorCode`] — the same codes
/// a network client of `mstv-serve` receives — so migrating a call site
/// between in-process and remote serving changes transport, not error
/// handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchResponse {
    /// One entry per query, in input order.
    pub results: Vec<Result<Answer, ErrorCode>>,
    /// Batch-level cost counters.
    pub metrics: BatchMetrics,
    /// The engine's delta sequence number when this batch ran — how many
    /// [`DeltaRecord`]s had been applied to the serving snapshot. All
    /// answers of one batch come from a single delta generation, never a
    /// mix: the batch holds the state lock until its last answer.
    pub delta_seq: u64,
}

impl BatchResponse {
    /// Number of queries that errored.
    pub fn error_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_err()).count()
    }
}

/// The snapshot an engine serves from: either a fully materialized
/// [`Snapshot`] (mutable via the delta journal) or a read-only
/// [`MappedSnapshot`] whose encoded labels stay in the file's memory
/// map until a query touches them.
///
/// Every serving path reads labels through the borrowed-slice accessors
/// here, so the engine's answer path is identical for both backings;
/// the only behavioral difference is that
/// [`QueryEngine::apply_delta`] refuses mapped stores with
/// [`StoreError::ReadOnlySnapshot`].
pub enum SnapshotStore {
    /// An owned, in-memory snapshot — the journal-mutable backing.
    Owned(Snapshot),
    /// A read-only memory-mapped snapshot — the zero-copy backing.
    Mapped(MappedSnapshot),
}

impl SnapshotStore {
    /// Number of labelled nodes.
    pub fn num_nodes(&self) -> u32 {
        match self {
            SnapshotStore::Owned(s) => s.num_nodes(),
            SnapshotStore::Mapped(s) => s.num_nodes(),
        }
    }

    /// The codec all stored `MAX`/`FLOW` labels were encoded under.
    pub fn codec(&self) -> LabelCodec {
        match self {
            SnapshotStore::Owned(s) => s.codec(),
            SnapshotStore::Mapped(s) => s.codec(),
        }
    }

    /// The largest tree-edge weight (`W`), as recorded in the header.
    pub fn max_weight(&self) -> Weight {
        match self {
            SnapshotStore::Owned(s) => s.max_weight(),
            SnapshotStore::Mapped(s) => s.max_weight(),
        }
    }

    /// Whether the snapshot carries a dist section.
    pub fn has_dist(&self) -> bool {
        match self {
            SnapshotStore::Owned(s) => s.dist().is_some(),
            SnapshotStore::Mapped(s) => s.dist_delta_bits().is_some(),
        }
    }

    fn max_slice(&self, v: usize) -> BitSlice<'_> {
        match self {
            SnapshotStore::Owned(s) => s.max_labels()[v].as_slice(),
            SnapshotStore::Mapped(s) => s.max_slice(v),
        }
    }

    fn flow_slice(&self, v: usize) -> BitSlice<'_> {
        match self {
            SnapshotStore::Owned(s) => s.flow_labels()[v].as_slice(),
            SnapshotStore::Mapped(s) => s.flow_slice(v),
        }
    }

    /// The encoded dist label of `v` and the section's `δ` width, or
    /// `None` without a dist section.
    fn dist_slice(&self, v: usize) -> Option<(BitSlice<'_>, u32)> {
        match self {
            SnapshotStore::Owned(s) => {
                let d = s.dist()?;
                Some((d.labels[v].as_slice(), d.delta_bits))
            }
            SnapshotStore::Mapped(s) => {
                let bits = s.dist_delta_bits()?;
                Some((s.dist_slice(v)?, bits))
            }
        }
    }
}

impl From<Snapshot> for SnapshotStore {
    fn from(snap: Snapshot) -> Self {
        SnapshotStore::Owned(snap)
    }
}

impl From<MappedSnapshot> for SnapshotStore {
    fn from(snap: MappedSnapshot) -> Self {
        SnapshotStore::Mapped(snap)
    }
}

/// The mutable serving state: the snapshot store plus how many deltas
/// have been folded into it. One `RwLock` guards both so a batch can
/// never observe a snapshot from one delta generation tagged with
/// another's sequence number.
struct EngineState {
    store: SnapshotStore,
    delta_seq: u64,
}

/// A query service over one loaded [`Snapshot`], shared by reference
/// among its callers.
///
/// The snapshot is not immutable for the engine's lifetime:
/// [`QueryEngine::apply_delta`] folds a journal [`DeltaRecord`] into the
/// serving state in place — the live-mutation path that makes a hot
/// swap unnecessary for small changes.
pub struct QueryEngine {
    state: RwLock<EngineState>,
    agg: Mutex<ServeMetrics>,
}

impl QueryEngine {
    /// Wraps a loaded snapshot in a serving engine (delta sequence 0).
    /// The [`EngineConfig`] carries no settings.
    pub fn new(snap: Snapshot, _config: EngineConfig) -> QueryEngine {
        Self::from_store(SnapshotStore::Owned(snap))
    }

    /// Wraps a memory-mapped snapshot in a serving engine. Labels decode
    /// lazily out of the map on first touch; [`QueryEngine::apply_delta`]
    /// reports [`StoreError::ReadOnlySnapshot`].
    pub fn new_mapped(snap: MappedSnapshot) -> QueryEngine {
        Self::from_store(SnapshotStore::Mapped(snap))
    }

    /// Wraps either snapshot backing in a serving engine (delta
    /// sequence 0).
    pub fn from_store(store: SnapshotStore) -> QueryEngine {
        QueryEngine {
            state: RwLock::new(EngineState {
                store,
                delta_seq: 0,
            }),
            agg: Mutex::new(ServeMetrics::new()),
        }
    }

    /// Runs `f` against the owned snapshot currently being served.
    ///
    /// The read lock is held only for the call — the replacement for the
    /// old `snapshot(&self) -> &Snapshot` accessor, which cannot exist
    /// now that [`QueryEngine::apply_delta`] mutates the state in place.
    ///
    /// # Panics
    ///
    /// Panics if the engine serves a memory-mapped snapshot, which has
    /// no owned [`Snapshot`] to borrow — mapped-compatible callers
    /// should use [`QueryEngine::with_store`].
    pub fn with_snapshot<R>(&self, f: impl FnOnce(&Snapshot) -> R) -> R {
        match &self.read_state().store {
            SnapshotStore::Owned(snap) => f(snap),
            SnapshotStore::Mapped(_) => {
                panic!("with_snapshot on a memory-mapped engine; use with_store")
            }
        }
    }

    /// Runs `f` against the serving [`SnapshotStore`], whichever backing
    /// it has. The read lock is held only for the call.
    pub fn with_store<R>(&self, f: impl FnOnce(&SnapshotStore) -> R) -> R {
        f(&self.read_state().store)
    }

    /// How many [`DeltaRecord`]s have been applied since construction.
    pub fn delta_seq(&self) -> u64 {
        self.read_state().delta_seq
    }

    /// Folds one journal [`DeltaRecord`] into the serving snapshot and
    /// returns the new delta sequence number.
    ///
    /// The write lock excludes every in-flight batch, so the record's row
    /// updates are atomic with respect to queries: a batch sees the
    /// snapshot entirely before or entirely after the delta, never a torn
    /// mix of old and new rows.
    ///
    /// # Errors
    ///
    /// [`StoreError::ReadOnlySnapshot`] if the engine serves a
    /// memory-mapped snapshot (its label bytes live in a read-only
    /// map), [`StoreError::Malformed`] if `record.seq` is not the next
    /// in sequence (the engine applies journals in order, gap-free), or
    /// any error of [`DeltaRecord::apply_to`] — in all cases the
    /// snapshot and the sequence number are left untouched.
    pub fn apply_delta(&self, record: &DeltaRecord) -> Result<u64, StoreError> {
        let mut state = self.state.write().unwrap_or_else(PoisonError::into_inner);
        if record.seq != state.delta_seq + 1 {
            return Err(StoreError::Malformed {
                context: "delta record",
                reason: format!(
                    "record seq {} applied to engine at delta seq {} (want {})",
                    record.seq,
                    state.delta_seq,
                    state.delta_seq + 1
                ),
            });
        }
        let snap = match &mut state.store {
            SnapshotStore::Owned(snap) => snap,
            SnapshotStore::Mapped(_) => return Err(StoreError::ReadOnlySnapshot),
        };
        record.apply_to(snap)?;
        state.delta_seq = record.seq;
        Ok(state.delta_seq)
    }

    /// Locks the serving state for reading, recovering from poisoning
    /// (writers mutate nothing on the failure paths that could panic
    /// mid-update; see [`QueryEngine::apply_delta`]).
    fn read_state(&self) -> std::sync::RwLockReadGuard<'_, EngineState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the aggregate metrics, recovering from poisoning: the
    /// counters are plain integers, meaningful under any interleaving.
    fn lock_metrics(&self) -> std::sync::MutexGuard<'_, ServeMetrics> {
        self.agg.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Answers one query.
    ///
    /// # Errors
    ///
    /// The per-query errors of [`QueryEngine::run_batch_response`], as
    /// their underlying [`StoreError`]s.
    pub fn query(&self, q: Query) -> Result<Answer, StoreError> {
        self.run_batch_inner(std::slice::from_ref(&q))
            .0
            .pop()
            .expect("one query in, one answer out")
    }

    /// Answers a batch inline; results come back in input order with the
    /// wire protocol's typed [`ErrorCode`]s, plus the batch's cost
    /// counters.
    ///
    /// The batch itself never fails — per-query statuses are:
    /// [`ErrorCode::UnknownNode`] for an endpoint the snapshot carries
    /// no label for, [`ErrorCode::CorruptLabel`] when a stored record
    /// does not decode, [`ErrorCode::LabelMismatch`] when two labels
    /// come from different schemes, and [`ErrorCode::MissingSection`]
    /// for `Dist` queries against a snapshot without a dist section.
    pub fn run_batch_response(&self, queries: &[Query]) -> BatchResponse {
        let (results, metrics, delta_seq) = self.run_batch_inner(queries);
        BatchResponse {
            results: results
                .into_iter()
                .map(|r| r.map_err(|e| ErrorCode::from(&e)))
                .collect(),
            metrics,
            delta_seq,
        }
    }

    /// The shared batch executor behind [`QueryEngine::query`] and
    /// [`QueryEngine::run_batch_response`].
    ///
    /// The state read lock is held for the whole batch, so every
    /// answer of the batch comes from one delta generation (the returned
    /// sequence number); an [`QueryEngine::apply_delta`] waits for the
    /// batch rather than tearing it.
    ///
    /// Admission-first counting: `queries` and `batches` are bumped
    /// under the aggregate lock *before* the batch runs, and the
    /// remaining counters (errors, label decodes, elapsed, latency)
    /// after it. A concurrent [`QueryEngine::metrics`] reader therefore
    /// sees every in-flight batch's queries already counted, so derived
    /// invariants (decodes ≤ 2 per counted query, errors ≤ counted
    /// queries) hold at every instant, not just between batches.
    fn run_batch_inner(
        &self,
        queries: &[Query],
    ) -> (Vec<Result<Answer, StoreError>>, BatchMetrics, u64) {
        let start = Instant::now();
        {
            let mut agg = self.lock_metrics();
            agg.queries += queries.len() as u64;
            agg.batches += 1;
        }
        let mut decodes = 0u64;
        let state = self.read_state();
        let results: Vec<Result<Answer, StoreError>> = queries
            .iter()
            .map(|q| Self::answer(&state.store, q, &mut decodes))
            .collect();
        let delta_seq = state.delta_seq;
        drop(state);
        let errors = results.iter().filter(|r| r.is_err()).count() as u64;
        let elapsed = start.elapsed();
        {
            let mut agg = self.lock_metrics();
            agg.errors += errors;
            agg.cache_misses += decodes;
            agg.add_elapsed(elapsed);
            agg.latency.record_duration(elapsed);
        }
        let batch = BatchMetrics {
            queries: queries.len() as u64,
            errors,
            elapsed_nanos: elapsed.as_nanos() as u64,
        };
        (results, batch, delta_seq)
    }

    /// A point-in-time snapshot of the serving counters.
    ///
    /// Every counter lives in one block under one lock, so the returned
    /// block is a consistent cut. `cache_misses` counts label decodes:
    /// each `u ≠ v` query decodes its two endpoints' windows, and a
    /// `u == v` query decodes none. `cache_hits` is always 0, since the
    /// engine keeps no decoded labels to hit; both names are kept for
    /// the `ServeMetrics` JSON schema.
    pub fn metrics(&self) -> ServeMetrics {
        *self.lock_metrics()
    }

    fn check_node(store: &SnapshotStore, v: NodeId) -> Result<(), StoreError> {
        if v.0 >= store.num_nodes() {
            return Err(StoreError::UnknownNode {
                node: v.0,
                nodes: store.num_nodes(),
            });
        }
        Ok(())
    }

    /// Checks both endpoints of a `u ≠ v` query and counts the two label
    /// decodes its answer costs.
    fn check_pair(
        store: &SnapshotStore,
        u: NodeId,
        v: NodeId,
        decodes: &mut u64,
    ) -> Result<(), StoreError> {
        Self::check_node(store, u)?;
        Self::check_node(store, v)?;
        *decodes += 2;
        Ok(())
    }

    fn answer(store: &SnapshotStore, q: &Query, decodes: &mut u64) -> Result<Answer, StoreError> {
        let codec = store.codec();
        match *q {
            Query::Max { u, v } => Ok(Answer::Max(Self::max_of(store, u, v, decodes)?)),
            Query::Flow { u, v } => {
                if u == v {
                    Self::check_node(store, u)?;
                    return Ok(Answer::Flow(FLOW_INFINITY));
                }
                Self::check_pair(store, u, v, decodes)?;
                let flow = |n: NodeId| store.flow_slice(n.0 as usize);
                let w = codec
                    .try_decode_flow_pair(flow(u), flow(v))
                    .ok_or_else(|| {
                        Self::corrupt_label("flow", u, v, |n| {
                            codec.try_decode_flow_pair(flow(n), flow(n)).is_some()
                        })
                    })?;
                Ok(Answer::Flow(w))
            }
            Query::Dist { u, v } => {
                if !store.has_dist() {
                    return Err(StoreError::MissingSection { section: "dist" });
                }
                if u == v {
                    Self::check_node(store, u)?;
                    return Ok(Answer::Dist(0));
                }
                Self::check_pair(store, u, v, decodes)?;
                let dist = |n: NodeId| {
                    store
                        .dist_slice(n.0 as usize)
                        .ok_or(StoreError::MissingSection { section: "dist" })
                };
                let (a, delta_bits) = dist(u)?;
                let (b, _) = dist(v)?;
                let d = codec
                    .try_decode_dist_pair(a, b, delta_bits)
                    .ok_or_else(|| {
                        Self::corrupt_label("dist", u, v, |n| {
                            dist(n).is_ok_and(|(x, _)| {
                                codec.try_decode_dist_pair(x, x, delta_bits).is_some()
                            })
                        })
                    })?
                    // `None` is a u64 overflow of the summed half-distances —
                    // only possible when the two labels came from different
                    // schemes: honest distances are bounded by the tree's
                    // total weight, and a tree whose total overflows u64
                    // gets no dist section at all.
                    .ok_or(StoreError::LabelMismatch { u: u.0, v: v.0 })?;
                Ok(Answer::Dist(d))
            }
            Query::VerifyEdge { u, v, w } => {
                let max_on_path = Self::max_of(store, u, v, decodes)?;
                Ok(Answer::VerifyEdge {
                    accept: w >= max_on_path,
                    max_on_path,
                })
            }
        }
    }

    fn max_of(
        store: &SnapshotStore,
        u: NodeId,
        v: NodeId,
        decodes: &mut u64,
    ) -> Result<Weight, StoreError> {
        if u == v {
            Self::check_node(store, u)?;
            return Ok(Weight::ZERO);
        }
        Self::check_pair(store, u, v, decodes)?;
        let codec = store.codec();
        let max = |n: NodeId| store.max_slice(n.0 as usize);
        codec.try_decode_max_pair(max(u), max(v)).ok_or_else(|| {
            Self::corrupt_label("max", u, v, |n| {
                codec.try_decode_max_pair(max(n), max(n)).is_some()
            })
        })
    }

    /// A failed pair decode cannot tell which of the two windows is the
    /// broken one, so the error path checks `u`'s window alone (paired
    /// with itself, which validates just that window) and blames `v` if
    /// it decodes — slow, but only ever reached on corrupt data.
    fn corrupt_label(
        section: &'static str,
        u: NodeId,
        v: NodeId,
        decodes_alone: impl Fn(NodeId) -> bool,
    ) -> StoreError {
        StoreError::CorruptLabel {
            section,
            node: if decodes_alone(u) { v.0 } else { u.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstv_labels::SepFieldCodec;
    use mstv_trees::{PathMaxIndex, RootedTree};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tree_of(n: usize, max_w: u64, seed: u64) -> RootedTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = mstv_graph::gen::random_tree(
            n,
            mstv_graph::gen::WeightDist::Uniform { max: max_w },
            &mut rng,
        );
        RootedTree::from_graph(&g, NodeId(0)).unwrap()
    }

    fn engine_of(tree: &RootedTree) -> QueryEngine {
        QueryEngine::new(
            Snapshot::build(tree, SepFieldCodec::EliasGamma),
            EngineConfig::default(),
        )
    }

    #[test]
    fn answers_match_tree_oracle() {
        let t = tree_of(150, 700, 11);
        let idx = PathMaxIndex::new(&t);
        let mut wdepth = vec![0u64; t.num_nodes()];
        for &v in t.order() {
            if let Some(p) = t.parent(v) {
                wdepth[v.index()] = wdepth[p.index()] + t.parent_weight(v).0;
            }
        }
        let mut queries = Vec::new();
        // Label decodes the batch costs: two per u != v query.
        let mut decodes = 0u64;
        for i in (0..150u32).step_by(4) {
            for j in (1..150u32).step_by(7) {
                let (u, v) = (NodeId(i), NodeId(j));
                queries.push(Query::Max { u, v });
                queries.push(Query::Flow { u, v });
                queries.push(Query::Dist { u, v });
                queries.push(Query::VerifyEdge {
                    u,
                    v,
                    w: Weight(u64::from(i) * 13 % 700),
                });
                if u != v {
                    decodes += 4 * 2;
                }
            }
        }
        let engine = engine_of(&t);
        let response = engine.run_batch_response(&queries);
        assert_eq!(response.results.len(), queries.len());
        assert_eq!(response.metrics.queries, queries.len() as u64);
        assert_eq!(response.metrics.errors, 0);
        assert_eq!(response.error_count(), 0);
        for (q, a) in queries.iter().zip(&response.results) {
            let a = a.as_ref().expect("in-range queries succeed");
            match (*q, *a) {
                (Query::Max { u, v }, Answer::Max(w)) => {
                    let want = if u == v {
                        Weight::ZERO
                    } else {
                        idx.max_on_path(u, v)
                    };
                    assert_eq!(w, want, "MAX({u}, {v})");
                }
                (Query::Flow { u, v }, Answer::Flow(w)) => {
                    let want = if u == v {
                        FLOW_INFINITY
                    } else {
                        idx.min_on_path(u, v)
                    };
                    assert_eq!(w, want, "FLOW({u}, {v})");
                }
                (Query::Dist { u, v }, Answer::Dist(d)) => {
                    let x = idx.lca(u, v);
                    let want = wdepth[u.index()] + wdepth[v.index()] - 2 * wdepth[x.index()];
                    assert_eq!(d, want, "DIST({u}, {v})");
                }
                (
                    Query::VerifyEdge { u, v, w },
                    Answer::VerifyEdge {
                        accept,
                        max_on_path,
                    },
                ) => {
                    let want = if u == v {
                        Weight::ZERO
                    } else {
                        idx.max_on_path(u, v)
                    };
                    assert_eq!(max_on_path, want);
                    assert_eq!(accept, w >= want, "verify({u}, {v}, {w})");
                }
                other => panic!("answer kind mismatch: {other:?}"),
            }
        }
        let m = engine.metrics();
        assert_eq!(m.queries, queries.len() as u64);
        assert_eq!(m.batches, 1);
        assert_eq!(m.errors, 0);
        assert_eq!(m.latency.count(), 1, "one batch, one latency sample");
        assert_eq!(m.cache_misses, decodes);
        assert_eq!(m.cache_hits, 0);
    }

    #[test]
    fn unknown_nodes_are_typed_errors_not_panics() {
        let t = tree_of(10, 50, 12);
        let engine = engine_of(&t);
        for q in [
            Query::Max {
                u: NodeId(10),
                v: NodeId(0),
            },
            Query::Flow {
                u: NodeId(0),
                v: NodeId(u32::MAX),
            },
            Query::Dist {
                u: NodeId(99),
                v: NodeId(99),
            },
            Query::VerifyEdge {
                u: NodeId(3),
                v: NodeId(11),
                w: Weight(1),
            },
        ] {
            assert!(
                matches!(engine.query(q), Err(StoreError::UnknownNode { .. })),
                "{q:?} should name the unknown node"
            );
            // The wire-facing API reports the same failure as a typed code.
            let resp = engine.run_batch_response(&[q]);
            assert!(
                matches!(resp.results[0], Err(ErrorCode::UnknownNode { .. })),
                "{q:?} should map to ErrorCode::UnknownNode"
            );
            assert_eq!(resp.metrics.errors, 1);
        }
        assert_eq!(engine.metrics().errors, 8);
    }

    #[test]
    fn dist_without_section_is_missing_section() {
        let t = tree_of(20, 50, 13);
        let mut snap = Snapshot::build(&t, SepFieldCodec::EliasGamma);
        snap.strip_dist();
        let engine = QueryEngine::new(snap, EngineConfig::default());
        assert!(matches!(
            engine.query(Query::Dist {
                u: NodeId(1),
                v: NodeId(2)
            }),
            Err(StoreError::MissingSection { section: "dist" })
        ));
        // The mandatory sections still serve.
        assert!(engine
            .query(Query::Max {
                u: NodeId(1),
                v: NodeId(2)
            })
            .is_ok());
    }

    #[test]
    fn corrupt_record_is_reported_per_query() {
        let t = tree_of(30, 90, 14);
        let mut snap = Snapshot::build(&t, SepFieldCodec::EliasGamma);
        snap.corrupt_max_label_for_test(NodeId(7));
        let engine = QueryEngine::new(snap, EngineConfig::default());
        assert!(matches!(
            engine.query(Query::Max {
                u: NodeId(7),
                v: NodeId(2)
            }),
            Err(StoreError::CorruptLabel {
                section: "max",
                node: 7
            })
        ));
        // The bad record is named whichever endpoint it is.
        assert!(matches!(
            engine.query(Query::VerifyEdge {
                u: NodeId(2),
                v: NodeId(7),
                w: Weight(5)
            }),
            Err(StoreError::CorruptLabel {
                section: "max",
                node: 7
            })
        ));
        // Other nodes are unaffected.
        assert!(engine
            .query(Query::Max {
                u: NodeId(3),
                v: NodeId(2)
            })
            .is_ok());
    }

    /// The full row-diff between two same-shape snapshots, as a journal
    /// record — the sound-by-construction delta the serving tests use.
    fn diff_record(
        seq: u64,
        mutation: crate::JournalMutation,
        prev: &Snapshot,
        next: &Snapshot,
    ) -> DeltaRecord {
        use mstv_labels::BitString;
        let (pt, nt) = (prev.tree().unwrap(), next.tree().unwrap());
        let tree = (0..prev.num_nodes())
            .filter_map(|i| {
                let v = NodeId(i);
                let entry = nt.parent(v).map(|p| (p.0, nt.parent_weight(v).0));
                let old = pt.parent(v).map(|p| (p.0, pt.parent_weight(v).0));
                (entry != old).then_some(crate::TreeDelta {
                    node: i,
                    parent: entry,
                })
            })
            .collect();
        let diff_labels = |a: &[BitString], b: &[BitString]| -> Vec<crate::LabelDelta> {
            a.iter()
                .zip(b)
                .enumerate()
                .filter(|(_, (x, y))| x != y)
                .map(|(i, (_, y))| crate::LabelDelta {
                    node: i as u32,
                    bits: y.clone(),
                })
                .collect()
        };
        DeltaRecord {
            seq,
            mutation,
            outcome: crate::DeltaOutcome::WeightsOnly,
            new_max_weight: next.max_weight(),
            new_omega_bits: next.codec().omega_bits,
            new_delta_bits: next.dist().map_or(1, |d| d.delta_bits),
            tree,
            max: diff_labels(prev.max_labels(), next.max_labels()),
            flow: diff_labels(prev.flow_labels(), next.flow_labels()),
            dist: diff_labels(&prev.dist().unwrap().labels, &next.dist().unwrap().labels),
        }
    }

    #[test]
    fn apply_delta_serves_the_new_generation() {
        // Two trees over the same node set, differing in one parent-edge
        // weight: after the delta, every answer must match the *new*
        // oracle.
        let t_old = tree_of(90, 300, 31);
        let mut parents: Vec<Option<(NodeId, Weight)>> = (0..90u32)
            .map(|i| {
                let v = NodeId(i);
                t_old.parent(v).map(|p| (p, t_old.parent_weight(v)))
            })
            .collect();
        let (victim, bumped) = (NodeId(41), Weight(299_999));
        parents[victim.index()] = Some((parents[victim.index()].unwrap().0, bumped));
        let t_new = RootedTree::from_parents(NodeId(0), parents).unwrap();

        let snap_old = Snapshot::build(&t_old, SepFieldCodec::EliasGamma);
        let snap_new = Snapshot::build(&t_new, SepFieldCodec::EliasGamma);
        let mutation = crate::JournalMutation::SetWeight {
            u: t_old.parent(victim).unwrap().0,
            v: victim.0,
            w: bumped.0,
        };
        let record = diff_record(1, mutation, &snap_old, &snap_new);
        assert!(!record.max.is_empty(), "a reweight must move MAX labels");

        let engine = QueryEngine::new(snap_old, EngineConfig::default());
        // Serve the pre-delta generation.
        let mut queries = Vec::new();
        for u in 0..90u32 {
            queries.push(Query::Max {
                u: NodeId(u),
                v: NodeId((u + 45) % 90),
            });
        }
        let warm = engine.run_batch_response(&queries);
        assert_eq!(warm.error_count(), 0);
        assert_eq!(warm.delta_seq, 0);
        assert_eq!(engine.delta_seq(), 0);

        // Out-of-sequence records are refused and change nothing.
        let mut skipped = record.clone();
        skipped.seq = 2;
        assert!(matches!(
            engine.apply_delta(&skipped),
            Err(StoreError::Malformed {
                context: "delta record",
                ..
            })
        ));
        assert_eq!(engine.delta_seq(), 0);

        assert_eq!(engine.apply_delta(&record).unwrap(), 1);
        assert_eq!(engine.delta_seq(), 1);
        assert_eq!(
            engine.with_snapshot(Snapshot::to_bytes),
            snap_new.to_bytes(),
            "the delta must land the serving snapshot exactly on the rebuild"
        );

        // Every answer now matches the new oracle.
        let idx = PathMaxIndex::new(&t_new);
        let resp = engine.run_batch_response(&queries);
        assert_eq!(resp.delta_seq, 1);
        for (q, a) in queries.iter().zip(&resp.results) {
            if let (Query::Max { u, v }, Answer::Max(w)) = (*q, a.as_ref().unwrap()) {
                assert_eq!(
                    *w,
                    idx.max_on_path(u, v),
                    "MAX({u},{v}) served the old generation after the delta"
                );
            }
        }
        // Replaying the same record is out of sequence now.
        assert!(engine.apply_delta(&record).is_err());
    }

    #[test]
    fn metrics_snapshot_is_consistent_under_concurrent_batches() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let t = tree_of(120, 500, 17);
        let engine = engine_of(&t);
        let stop = AtomicBool::new(false);
        // Max-only batches with u != v: each query decodes two labels
        // and never errors. Admission-first counting makes the
        // invariants below hold at *every instant*: a reader can never
        // observe decodes from queries it has not yet counted.
        let batch_of = |w: u32| {
            let mut batch = Vec::new();
            for i in 0..60u32 {
                let u = NodeId((i * 7 + w) % 120);
                let mut v = NodeId((i * 13 + w + 1) % 120);
                // Keep u != v so both endpoints always cost a decode.
                if u == v {
                    v = NodeId((v.0 + 1) % 120);
                }
                batch.push(Query::Max { u, v });
            }
            batch
        };
        // One batch up front from this thread: on a single-core host the
        // reader below can finish before the writers are ever scheduled,
        // and the invariants need at least one counted batch.
        assert_eq!(engine.run_batch_response(&batch_of(7)).metrics.errors, 0);
        std::thread::scope(|s| {
            for w in 0..2u32 {
                let (engine, stop, batch_of) = (&engine, &stop, &batch_of);
                s.spawn(move || {
                    let batch = batch_of(w);
                    while !stop.load(Ordering::Relaxed) {
                        let resp = engine.run_batch_response(&batch);
                        assert_eq!(resp.metrics.errors, 0);
                    }
                });
            }
            for _ in 0..200 {
                let m = engine.metrics();
                let decodes = m.cache_hits + m.cache_misses;
                assert!(
                    decodes <= 2 * m.queries,
                    "saw {decodes} decodes against {} counted queries — \
                     the snapshot mixed counters from different instants",
                    m.queries
                );
                assert!(m.errors <= m.queries);
                assert!(m.latency.count() <= m.batches);
            }
            stop.store(true, Ordering::Relaxed);
        });
        let m = engine.metrics();
        assert!(m.queries > 0);
        assert_eq!(m.queries % 60, 0, "each batch admits exactly 60 queries");
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "mstv-engine-test-{}-{name}.snap",
            std::process::id()
        ));
        p
    }

    #[test]
    fn mapped_engine_answers_match_owned_engine() {
        use crate::SnapshotFormat;
        let t = tree_of(120, 300, 23);
        let snap = Snapshot::build(&t, SepFieldCodec::EliasGamma);
        let path = tmp_path("mapped-vs-owned");
        snap.write_file_format(&path, SnapshotFormat::V2).unwrap();
        let mapped = Snapshot::open_mmap(&path).unwrap();
        assert!(mapped.is_zero_copy());

        let owned = QueryEngine::new(snap, EngineConfig::default());
        let engine = QueryEngine::new_mapped(mapped);
        assert!(engine.with_store(|s| matches!(s, SnapshotStore::Mapped(_))));

        let mut queries = Vec::new();
        for i in (0..120u32).step_by(3) {
            for j in (1..120u32).step_by(11) {
                let (u, v) = (NodeId(i), NodeId(j));
                queries.push(Query::Max { u, v });
                queries.push(Query::Flow { u, v });
                queries.push(Query::Dist { u, v });
                queries.push(Query::VerifyEdge {
                    u,
                    v,
                    w: Weight(150),
                });
            }
        }
        let expect = owned.run_batch_response(&queries).results;
        let got = engine.run_batch_response(&queries).results;
        for (i, (e, g)) in expect.iter().zip(&got).enumerate() {
            assert_eq!(
                e.as_ref().unwrap(),
                g.as_ref().unwrap(),
                "query {i} diverged between owned and mapped engines"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mapped_engine_rejects_deltas_as_read_only() {
        use crate::SnapshotFormat;
        let t = tree_of(40, 90, 31);
        let snap = Snapshot::build(&t, SepFieldCodec::EliasGamma);
        let path = tmp_path("mapped-readonly");
        snap.write_file_format(&path, SnapshotFormat::V2).unwrap();
        let mapped = Snapshot::open_mmap(&path).unwrap();

        // A legitimate one-edge reweight delta; the mapped engine must
        // reject it before touching any label.
        let mut parents: Vec<Option<(NodeId, Weight)>> = (0..40u32)
            .map(|i| {
                let v = NodeId(i);
                t.parent(v).map(|p| (p, t.parent_weight(v)))
            })
            .collect();
        let (victim, bumped) = (NodeId(7), Weight(89_999));
        parents[victim.index()] = Some((parents[victim.index()].unwrap().0, bumped));
        let t_new = RootedTree::from_parents(NodeId(0), parents).unwrap();
        let snap_new = Snapshot::build(&t_new, SepFieldCodec::EliasGamma);
        let mutation = crate::JournalMutation::SetWeight {
            u: t.parent(victim).unwrap().0,
            v: victim.0,
            w: bumped.0,
        };
        let record = diff_record(1, mutation, &snap, &snap_new);

        let engine = QueryEngine::new_mapped(mapped);
        match engine.apply_delta(&record) {
            Err(StoreError::ReadOnlySnapshot) => {}
            other => panic!("expected ReadOnlySnapshot, got {other:?}"),
        }
        assert_eq!(engine.delta_seq(), 0, "rejected delta must not advance seq");
        // The engine still serves reads after the rejected mutation.
        let ans = engine
            .query(Query::Max {
                u: NodeId(1),
                v: NodeId(2),
            })
            .unwrap();
        assert!(matches!(ans, Answer::Max(_)));
        let _ = std::fs::remove_file(&path);
    }
}
