//! `mstv-store`: persistent label snapshots and a query service over them.
//!
//! The paper's labeling schemes ([`mstv_labels`]) assign every vertex a
//! short label such that `MAX(u, v)` — the heaviest edge on the tree
//! path — is computable from the two labels alone. That definition is
//! *made for serving*: once the marker has run, the labels are the whole
//! database. This crate takes that observation to its operational
//! conclusion in three layers:
//!
//! 1. **[`Snapshot`]** — a versioned little-endian container
//!    (`MSTVSNAP`) persisting one marked tree plus its full label stack
//!    (`MAX`, `FLOW`, and optionally `DIST` labels) with a CRC32 per
//!    section. The reader is paranoid: bad magic, future versions,
//!    truncation, bit flips, duplicate sections, trailing bytes, and
//!    undecodable records each surface as their own typed
//!    [`StoreError`]. `Snapshot::fsck` goes further and cross-checks
//!    decoded answers against a fresh path oracle on the stored tree,
//!    catching the one corruption CRCs cannot: intact labels belonging
//!    to a *different* tree.
//!
//! 2. **[`QueryEngine`]** — a serving layer that answers
//!    `Max`/`Flow`/`Dist`/`VerifyEdge` batches inline, in input order,
//!    each query straight from its two encoded labels through the fused
//!    pair decoders of [`mstv_labels::LabelCodec`]. Callers share one
//!    engine by reference; the `mstv-serve` worker pool is one such
//!    caller. Serving counters
//!    (queries, label decodes, throughput, latency percentiles) are
//!    reported as [`mstv_core::ServeMetrics`].
//!
//! 3. **[`proto`]** — the versioned wire protocol over the same
//!    [`Query`]/[`Answer`] vocabulary: length-prefixed
//!    [`proto::Request`]/[`proto::Response`] frames with typed
//!    per-query [`proto::ErrorCode`]s, shared by the in-process
//!    [`QueryEngine::run_batch_response`] and the `mstv-serve` network
//!    tier.
//!
//! ```
//! use mstv_graph::{gen, NodeId, Weight};
//! use mstv_labels::SepFieldCodec;
//! use mstv_store::{EngineConfig, Query, QueryEngine, Snapshot};
//! use mstv_trees::RootedTree;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let g = gen::random_tree(64, gen::WeightDist::Uniform { max: 100 }, &mut rng);
//! let tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
//!
//! // Marker side: label once, persist.
//! let snap = Snapshot::build(&tree, SepFieldCodec::EliasGamma);
//! let bytes = snap.to_bytes();
//!
//! // Serving side: load, verify integrity, answer queries.
//! let snap = Snapshot::from_bytes(&bytes).unwrap();
//! snap.fsck(100).unwrap();
//! let engine = QueryEngine::new(snap, EngineConfig::default());
//! let response = engine.run_batch_response(&[Query::VerifyEdge {
//!     u: NodeId(3),
//!     v: NodeId(42),
//!     w: Weight(1_000),
//! }]);
//! assert!(response.results[0].is_ok());
//! assert_eq!(response.metrics.queries, 1);
//! ```

mod crc;
mod engine;
mod error;
mod format;
mod journal;
mod mmap;
pub mod proto;

pub use crc::crc32;
pub use engine::{
    Answer, BatchMetrics, BatchResponse, EngineConfig, Query, QueryEngine, SnapshotStore,
};
pub use error::StoreError;
pub use format::{
    fsck_pair, DistSection, FsckReport, Snapshot, SnapshotFormat, MAGIC, VERSION, VERSION_V2,
};
pub use journal::{
    DeltaOutcome, DeltaRecord, Journal, JournalMutation, LabelDelta, TreeDelta, JOURNAL_MAGIC,
    JOURNAL_VERSION,
};
pub use mmap::MappedSnapshot;
