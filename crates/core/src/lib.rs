//! Proof labeling schemes for distributed MST verification — the primary
//! contribution of Korman & Kutten, *Distributed Verification of Minimum
//! Spanning Trees* (PODC 2006).
//!
//! A proof labeling scheme lets every node of a network check a global
//! predicate by comparing its own `O(log n log W)`-bit label with its
//! neighbors' labels, in a single communication round. This crate
//! provides:
//!
//! * the generic framework ([`ProofLabelingScheme`], [`LocalView`],
//!   [`Labeling`], [`Verdict`]);
//! * [`MstScheme`] (`π_mst`, Theorem 3.4) — the paper's
//!   `O(log n log W)`-bit scheme for *"the marked edges form an MST"*;
//! * [`PiGammaScheme`] (`π_Γ`, Lemma 3.3) — verifying that node states are
//!   the labels of some implicit `MAX` labeling scheme;
//! * [`SpanningTreeScheme`] — the `O(log n)` spanning-tree proof;
//! * [`BoruvkaScheme`] — the previous `O(log² n + log n log W)` fragment
//!   hierarchy scheme, as the comparison baseline;
//! * [`AgreementScheme`] (Lemma 2.2) — the `Θ(m)` warm-up example with an
//!   executable pigeonhole lower bound;
//! * fault injection ([`faults`]) for the soundness and self-stabilization
//!   experiments.
//!
//! ```
//! use mstv_graph::gen;
//! use mstv_core::{mst_configuration, MstScheme, ProofLabelingScheme};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let g = gen::random_connected(32, 64, gen::WeightDist::Uniform { max: 100 }, &mut rng);
//! let cfg = mst_configuration(g);
//! let scheme = MstScheme::new();
//! let labels = scheme.marker(&cfg)?;
//! assert!(scheme.verify_all(&cfg, &labels).accepted());
//! println!("proof size: {} bits per node", labels.max_label_bits());
//! # Ok::<(), mstv_core::MarkerError>(())
//! ```

mod agreement;
mod boruvka_scheme;
mod combine;
pub mod faults;
mod framework;
pub mod metrics;
mod mst_scheme;
mod pi_dist;
mod pi_flow;
mod pi_gamma;
pub mod session;
mod span;
mod spt_scheme;
mod universal;

pub use agreement::{forge_agreement, AgreementForgery, AgreementScheme};
pub use boruvka_scheme::{encode_boruvka_label, BoruvkaLabel, BoruvkaScheme, PhaseInfo};
pub use combine::BothSchemes;
pub use framework::{
    local_view, try_local_view, Labeling, LocalView, MarkerError, NeighborView, ParallelConfig,
    ProofLabelingScheme, Verdict, ViewError,
};
pub use metrics::{Histogram, LatencyHistogram, MessageCost, ServeMetrics, SessionMetrics};
pub use mst_scheme::{
    decode_mst_label, encode_mst_label, mst_configuration, MstLabel, MstRejectReason, MstScheme,
};
pub use pi_dist::{PiDistLabel, PiDistScheme, PiDistState};
pub use pi_flow::{max_st_configuration, MaxStLabel, MaxStScheme};
pub use pi_gamma::{
    check_gamma_conditions, encode_pi_gamma, orient_fields, reconstruct_decomposition, GammaParts,
    Orient, PiGammaLabel, PiGammaScheme, PiGammaState,
};
pub use session::{Mutation, VerifySession};
pub use span::{check_span, span_labels, SpanCodec, SpanLabel, SpanningTreeScheme};
pub use spt_scheme::{spt_configuration, SptLabel, SptScheme};
pub use universal::{encode_map, UniversalLabel, UniversalScheme};
