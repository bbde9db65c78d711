//! A concurrent message-passing runtime for distributed MST
//! construction and verification, with pluggable lossy links and
//! deterministic replay — the workspace's one distributed stack.
//!
//! Labels do not move between nodes as shared-memory references here,
//! rounds are not global barriers, and frames can be lost. Each graph
//! node runs as a mailbox-driven state machine, all nodes multiplexed over a bounded worker pool whose size
//! [`Engine`] sets (`min(workers, n)` workers, the calling thread among
//! them, so a 100k-node instance needs no 100k threads and one worker
//! spawns none); everything that crosses a link is a serialized
//! [`WireMsg`] — real bits, encoded with the instance-wide codecs, so
//! the measured per-message cost is exactly the label size the paper
//! bounds by `O(log n · log W)`. Time is counted in the paper's unit,
//! causal rounds: a frame's depth is one more than the deepest frame
//! its sender had received, so one-round verification costs one round
//! on a perfect link and construction ([`run_compute`]) reports how
//! deep GHS and the marker go. A pluggable [`Link`] decides each
//! frame's fate: the [`PerfectLink`] delivers everything immediately,
//! while a [`LossyLink`] driven by a seeded RNG injects drops,
//! bounded delays (hence reordering), duplicates, and crash-restarts.
//!
//! # Concurrency vs. determinism
//!
//! A live run on more than one worker is genuinely concurrent — workers
//! race on OS threads — but the router consumes reports in *dispatch
//! order*, so the schedule it builds (and logs) is a deterministic
//! function of the instance and the link seed. Three properties follow:
//!
//! * **Pool-size independence**: one worker and many produce the same
//!   verdict, the same [`MessageCost`](mstv_core::MessageCost), and
//!   byte-identical [`EventLog`]s for the same inputs — the scheduler
//!   is unobservable. The equivalence tests assert this on every seed.
//! * **Replay** ([`replay`]): the router logs every dispatched event
//!   ([`EventLog`]); node machines are pure functions of their event
//!   sequence; so re-feeding the log on a single thread reproduces the
//!   live run's verdict *and* its message/bit counters exactly —
//!   whatever pool size recorded the log.
//! * **Verdict stability**: whatever schedule the router and the
//!   fault injector produce, a run that converges must end in the same
//!   verdict as the offline `verify_all` — the protocol's outcome is
//!   schedule-independent. The property tests and the CI smoke loop
//!   check this across seeds and pool sizes.
//!
//! # Fault knobs vs. the Korman–Kutten self-stabilization model
//!
//! The knobs of [`FaultProfile`] map onto the assumptions the paper's
//! self-stabilization application (and the Afek–Kutten–Yung line of
//! work it builds on) makes about the adversary:
//!
//! * **`drop`** — links are fair-lossy: any message may vanish, but
//!   eventual delivery holds (an undecided node pulls its missing
//!   labels at every retransmission boundary, which supplies the
//!   eventual part). Verification stays correct because a verdict is
//!   only emitted once a label arrived on *every* port.
//! * **`max_delay`** — full asynchrony: there is no bound the protocol
//!   relies on, only quiescence detection. Reordering falls out of
//!   unequal delays, matching the non-FIFO link assumption.
//! * **`duplicate`** — at-least-once delivery: the one-round protocol
//!   is idempotent (a second copy of a label is ignored, a second copy
//!   of a pull draws a second copy of the same answer), as
//!   self-stabilizing protocols must be, since a restarted node cannot
//!   know what it already sent.
//! * **`crash`/`max_crashes`** — transient state corruption, the
//!   model's signature fault: a crash-restart wipes *volatile*
//!   protocol memory but keeps *persistent* state and label, exactly
//!   the split the paper assumes when it argues labels survive in
//!   non-volatile storage and faults are detected by re-verification.
//!   The cap bounds the adversary so runs quiesce, mirroring the
//!   "finitely many transient faults" premise.
//!
//! What a node's verifier sees here is still precisely `N_L(v)` — own
//! state and label plus per-port weight and neighbor label — only now
//! the neighbor labels arrive as bits over a faulty link instead of by
//! reference, and a frame the codecs cannot parse is a rejection, not
//! a panic.
//!
//! Beyond the probabilistic knobs, the [`adversary`](AdversarySpec)
//! layer scripts *worst-case* faults from a compact seeded spec:
//! Byzantine label forgery at k colluding nodes (rewriting root
//! pointers, ω fields, or raw certificate bits — see
//! [`forge_labeling`]), a partition that heals at a chosen round,
//! windowed worst-case reordering, and join/leave churn. The spec
//! rides the [`EventLog`] header, so an adversarial run replays from
//! the log alone, forgery included. E20 (`BENCH_adversary.json`)
//! drives every class through detect → recompute → re-verify with
//! [`NetSelfStab`], whose recovery is a [`run_compute`] on the same
//! link, and pins the headline soundness claim: zero forged labelings
//! accepted.
//!
//! # Example
//!
//! ```
//! use mstv_graph::gen;
//! use mstv_core::{mst_configuration, MstScheme, ProofLabelingScheme};
//! use mstv_net::{replay, run_verification, FaultProfile, LossyLink, MstWireScheme, NetConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(3);
//! let g = gen::random_connected(24, 30, gen::WeightDist::Uniform { max: 64 }, &mut rng);
//! let cfg = mst_configuration(g);
//! let labeling = MstScheme::new().marker(&cfg)?;
//! let wire = MstWireScheme::for_config(&cfg);
//!
//! let profile = FaultProfile { drop: 0.2, max_delay: 3, ..Default::default() };
//! let mut link = LossyLink::new(profile, 7);
//! let live = run_verification(&wire, &cfg, &labeling, &mut link, NetConfig::default())
//!     .expect("fair-lossy runs converge");
//! assert!(live.verdict.accepted());
//!
//! let again = replay(&wire, &cfg, &labeling, &live.log).expect("log replays");
//! assert_eq!(again.verdict, live.verdict);
//! assert_eq!(again.cost, live.cost);
//! # Ok::<(), mstv_core::MarkerError>(())
//! ```

mod adversary;
mod compute;
mod error;
mod link;
mod log;
mod machine;
mod replay;
mod runtime;
mod stab;
mod wire;

pub use adversary::{
    forge_labeling, AdversaryLink, AdversarySpec, ChurnSpec, ForgeClass, ForgeOutcome, ForgeSpec,
    PartitionSpec, ReorderSpec,
};
pub use compute::{replay_compute, run_compute, ComputeMachine, ComputeRun};
pub use error::NetError;
pub use link::{FaultProfile, Link, LossyLink, PerfectLink};
pub use log::{EventLog, LogEvent, RunSummary};
pub use machine::{MstWireScheme, NodeEvent, ProtocolMachine, VerifierMachine, WireScheme};
pub use replay::replay;
pub use runtime::{
    run_verification, run_verification_encoded_with, run_verification_with, Engine, NetConfig,
    NetRun, PhaseCost,
};
pub use stab::{NetSelfStab, NetStabOutcome};
pub use wire::{WireMsg, MAX_FRAME_BITS};
