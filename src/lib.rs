//! # mst-verification
//!
//! A full reproduction of Korman & Kutten, *Distributed Verification of
//! Minimum Spanning Trees* (PODC 2006): proof labeling schemes that let
//! every node of a network check, from its own label and its neighbors'
//! labels alone, that the locally marked edges form a minimum spanning
//! tree — with labels of only `O(log n · log W)` bits.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`graph`] — port-numbered weighted graphs and configuration graphs,
//! * [`trees`] — LCA / path-maxima / separator-decomposition utilities,
//! * [`mst`] — MST construction and sequential verification,
//! * [`labels`] — bit-exact implicit labeling schemes (`MAX`, `FLOW`),
//! * [`core`] — the proof labeling schemes (`π_mst`, `π_Γ`, baselines),
//! * [`distsim`] — a synchronous message-passing network simulator,
//! * [`net`] — a concurrent runtime with lossy links, crash-restarts,
//!   and deterministic event-log replay,
//! * [`sensitivity`] — Tarjan's tree-sensitivity problem,
//! * [`hypertree`] — the `(h, µ)`-hypertree lower-bound construction,
//! * [`store`] — persistent label snapshots (CRC-checked binary
//!   container), a sharded query engine serving
//!   `MAX`/`FLOW`/`DIST`/`VerifyEdge` straight from stored labels, and
//!   the versioned query wire protocol ([`store::proto`]),
//! * [`serve`] — the networked serving tier: a TCP server over
//!   snapshot query engines with per-connection FIFO scheduling,
//!   admission control, and atomic hot snapshot swap.
//!
//! # Quickstart
//!
//! ```
//! use mst_verification::graph::{gen, tree_states, ConfigGraph};
//! use mst_verification::mst::kruskal;
//! use mst_verification::core::{MstScheme, ProofLabelingScheme};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let g = gen::random_connected(64, 128, gen::WeightDist::Uniform { max: 1000 }, &mut rng);
//! let mst = kruskal(&g);
//! let states = tree_states(&g, &mst, mst_verification::graph::NodeId(0)).unwrap();
//! let cfg = ConfigGraph::new(g, states).unwrap();
//!
//! let scheme = MstScheme::new();
//! let labels = scheme.marker(&cfg).unwrap();
//! assert!(scheme.verify_all(&cfg, &labels).accepted());
//! ```
//!
//! # Incremental re-verification
//!
//! Verification is local, so after a small mutation only the **dirty
//! frontier** needs re-checking. [`core::VerifySession`] owns a
//! configuration plus its labeling, keeps the verdict current across a
//! stream of [`core::Mutation`]s, and counts exactly how much work
//! incrementality saved:
//!
//! ```
//! use mst_verification::core::{mst_configuration, MstScheme, VerifySession};
//! use mst_verification::graph::{gen, NodeId};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(2);
//! let g = gen::random_connected(64, 128, gen::WeightDist::Uniform { max: 1000 }, &mut rng);
//! let mut session = VerifySession::new(MstScheme::new(), mst_configuration(g)).unwrap();
//! assert!(session.verdict().accepted());
//!
//! // An adversary forges node 0's label: only node 0 and its neighbors
//! // re-verify; every other cached verdict is reused.
//! let forged = session.labeling().label(NodeId(5)).clone();
//! let verdict = session.corrupt_label(NodeId(0), forged);
//! assert!(!verdict.accepted());
//! assert!(session.metrics().nodes_skipped > 0);
//!
//! session.restore_label(NodeId(0));
//! assert!(session.verdict().accepted());
//! println!("{}", session.metrics().to_json());
//! ```
//!
//! # Verification over a faulty network
//!
//! The [`net`] runtime runs the one-round protocol with one thread per
//! node and real serialized frames on the wire. A seeded
//! [`net::LossyLink`] injects drops, delays, duplicates, and
//! crash-restarts; the run's event log replays deterministically:
//!
//! ```
//! use mst_verification::core::{mst_configuration, MstScheme, ProofLabelingScheme};
//! use mst_verification::graph::gen;
//! use mst_verification::net::{
//!     replay, run_verification, FaultProfile, LossyLink, MstWireScheme, NetConfig,
//! };
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(3);
//! let g = gen::random_connected(24, 30, gen::WeightDist::Uniform { max: 64 }, &mut rng);
//! let cfg = mst_configuration(g);
//! let labeling = MstScheme::new().marker(&cfg).unwrap();
//! let wire = MstWireScheme::for_config(&cfg);
//!
//! let profile = FaultProfile { drop: 0.2, max_delay: 3, ..Default::default() };
//! let mut link = LossyLink::new(profile, 7);
//! let live = run_verification(&wire, &cfg, &labeling, &mut link, NetConfig::default()).unwrap();
//! assert!(live.verdict.accepted());
//!
//! let again = replay(&wire, &cfg, &labeling, &live.log).unwrap();
//! assert_eq!((again.verdict, again.cost), (live.verdict, live.cost));
//! ```
//!
//! # Errors
//!
//! The framework reports failures through typed errors rather than
//! panics: [`core::MarkerError`] (`NotSpanning`, `NotMinimum` with its
//! witness edge, or `BadStates`) when a marker is asked to label a
//! configuration violating its predicate, and [`core::ViewError`] from
//! [`core::try_local_view`] when a local view cannot be assembled.
//! `Labeling::try_label` / `try_encoded` are the non-panicking accessors
//! behind the classic `label` / `encoded`.

pub use mstv_core as core;
pub use mstv_distsim as distsim;
pub use mstv_dyn as dynmark;
pub use mstv_graph as graph;
pub use mstv_hypertree as hypertree;
pub use mstv_labels as labels;
pub use mstv_mst as mst;
pub use mstv_net as net;
pub use mstv_sensitivity as sensitivity;
pub use mstv_serve as serve;
pub use mstv_store as store;
pub use mstv_trees as trees;
