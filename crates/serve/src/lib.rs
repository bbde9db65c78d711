//! `mstv-serve`: the networked label-serving tier.
//!
//! The paper's observation that two labels answer any `MAX`/`FLOW`/
//! `DIST` query makes the label store a natural network service: tiny
//! requests, tiny answers, no server-side tree walk. This crate puts a
//! TCP front end over `mstv-store`'s [`QueryEngine`](mstv_store::QueryEngine) using the
//! versioned wire protocol of [`mstv_store::proto`] — the same
//! `Request`/`Response`/[`ErrorCode`](mstv_store::proto::ErrorCode)
//! vocabulary the in-process `run_batch_response` API speaks, so a
//! call site migrates between local and remote serving by changing
//! transport, not types.
//!
//! * [`ServerHandle`] — spawn, hot-swap snapshots ([`ServerHandle::swap`]),
//!   inspect metrics, shut down. Built on `mstv_trees::KeyedQueue`
//!   (per-connection FIFO over a bounded worker pool) and the
//!   `mstv-net` framing discipline (length-prefixed frames guarded by
//!   the shared `MAX_FRAME_BYTES` bound); see [`server`] for the
//!   architecture notes.
//! * [`Client`] — blocking call-and-wait or pipelined requests, plus
//!   the admin operations (stats, snapshot swap, shutdown).
//!
//! ```
//! use mstv_graph::{gen, NodeId};
//! use mstv_labels::SepFieldCodec;
//! use mstv_serve::{Client, ServeConfig, ServerHandle};
//! use mstv_store::{Query, Snapshot};
//! use mstv_trees::RootedTree;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(3);
//! let g = gen::random_tree(32, gen::WeightDist::Uniform { max: 50 }, &mut rng);
//! let tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
//! let snap = Snapshot::build(&tree, SepFieldCodec::EliasGamma);
//!
//! let server = ServerHandle::spawn(snap, ServeConfig::default(), 0)?;
//! let mut client = Client::connect(server.addr())?;
//! let resp = client.request(vec![Query::Max { u: NodeId(1), v: NodeId(20) }])?;
//! assert_eq!(resp.server_epoch, 1);
//! assert!(resp.results[0].is_ok());
//! server.shutdown();
//! # Ok::<(), mstv_serve::ServeError>(())
//! ```

mod client;
mod error;
mod io;
pub mod server;

pub use client::Client;
pub use error::ServeError;
pub use server::{ServeConfig, ServerHandle};
