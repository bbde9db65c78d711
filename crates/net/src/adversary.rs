//! The adversarial fault layer: Byzantine label forgery, healing
//! partitions, worst-case reordering, and join/leave churn.
//!
//! The [`FaultProfile`](crate::FaultProfile) adversary is *oblivious* —
//! it flips coins per frame, blind to topology and time. The paper's
//! soundness claim is stronger: **no** forged `π_mst` labeling is
//! accepted, whatever the adversary does. This module supplies the
//! stronger adversaries:
//!
//! * **Forgery** ([`forge_labeling`]): `k` colluding nodes rewrite
//!   components of their certificates — the spanning sublabel's root
//!   pointer, a `γ` sublabel `ω` field, or raw label bits — before the
//!   verification round. The collusion is coordinated (all forgers
//!   agree on the same lie), which is the hard case for a *local*
//!   verifier: any single node's view can be internally consistent, and
//!   only the seam between forgers and honest nodes betrays the forgery.
//! * **Partitions** ([`AdversarySpec::partition`]): a seeded cut whose
//!   cross frames are blackholed for a round window, then healed —
//!   fair-lossiness violated *temporarily*, which the pull
//!   retransmission must absorb.
//! * **Reordering** ([`AdversarySpec::reorder`]): frame delays are
//!   rewritten so each window of consecutive frames is released in
//!   reverse offer order — the deterministic worst case for any
//!   protocol that leans on FIFO arrival.
//! * **Churn** ([`AdversarySpec::churn`]): nodes leave (all their
//!   traffic blackholed, both directions) and later rejoin through a
//!   crash-restart — the volatile wipe *is* the rejoin under the
//!   self-stabilization model, since a returning node cannot trust any
//!   protocol memory from before its absence.
//!
//! Everything is a deterministic function of the
//! [`AdversarySpec`] (which round-trips through its string form, so a
//! spec can ride an [`EventLog`](crate::EventLog) header) plus the base
//! link's `(profile, seed)`. Replay itself never consults a link —
//! logs replay schedule-free — so recorded adversarial runs replay
//! with the existing machinery unchanged.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mstv_core::{encode_mst_label, Labeling, MstLabel, MstScheme, ProofLabelingScheme, SpanCodec};
use mstv_graph::{ConfigGraph, NodeId, TreeState};
use mstv_labels::{BitString, LabelCodec, SepFieldCodec};

use crate::error::NetError;
use crate::link::{FaultProfile, Link, LossyLink};

/// Which component of `π_mst` a forgery rewrites. Each class attacks a
/// distinct leg of the paper's soundness argument (see DESIGN.md):
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForgeClass {
    /// Rewrites the spanning sublabel's root pointer at every forger to
    /// the same bogus identity — attacks the "all nodes agree on one
    /// root" invariant that makes the marked structure a single tree.
    Root,
    /// Inflates one pre-own-level `ω` field — attacks the maximality
    /// chain `ω_k = MAX(v, v_{k+1})` that the verifier checks against
    /// its neighbors' fields edge by edge. (The *own-level* field is
    /// `MAX(v,v) = 0` by convention and deliberately not targeted: the
    /// verifier constrains it only through neighbors, so an inflated
    /// final field can be legitimately accepted — not a forgery.)
    Omega,
    /// Flips raw bits of the encoded certificate (redrawn until the
    /// result still decodes) — attacks nothing in particular, which is
    /// the point: soundness must hold for *arbitrary* corrupted
    /// memory, not just semantically meaningful lies.
    Bits,
}

impl ForgeClass {
    /// The spec-string name of the class.
    pub fn name(self) -> &'static str {
        match self {
            ForgeClass::Root => "root",
            ForgeClass::Omega => "omega",
            ForgeClass::Bits => "bits",
        }
    }

    /// Every forgery class, for scenario sweeps.
    pub const ALL: [ForgeClass; 3] = [ForgeClass::Root, ForgeClass::Omega, ForgeClass::Bits];
}

/// Byzantine forgery: `k` colluding nodes with a coordinated rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForgeSpec {
    /// Which `π_mst` component the collusion rewrites.
    pub class: ForgeClass,
    /// Number of colluding forgers.
    pub k: usize,
}

/// A healing partition: frames crossing the cut are blackholed during
/// retransmission rounds `start..heal` (the link's clock, see
/// [`Link::round_start`](crate::Link::round_start) — not the causal
/// rounds a run's cost counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSpec {
    /// First round the partition is active.
    pub start: u64,
    /// First round after the heal (exclusive end of the window).
    pub heal: u64,
}

/// Worst-case reordering: every window of `window` consecutively
/// offered frames is released in reverse order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReorderSpec {
    /// Window size; 1 is a no-op, larger is nastier.
    pub window: u32,
}

/// Continuous join/leave churn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    /// Per-node, per-round probability of leaving.
    pub rate: f64,
    /// Rounds a departed node stays away before rejoining.
    pub away: u64,
    /// Hard cap on departures across the run, so runs still quiesce
    /// (the "finitely many transient faults" premise).
    pub cap: u64,
}

/// A complete adversary schedule, deterministic from this value alone
/// (plus the base link's `(profile, seed)`).
///
/// Round-trips through a canonical string form —
/// `forge:class=root,k=2;partition:start=2,heal=6;reorder:window=8;`
/// `churn:rate=0.01,away=3,cap=16;seed=7` — sections optional,
/// `seed` always present, so the CLI can pass it with `--adversary`
/// and a log header can carry it for replay-side reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdversarySpec {
    /// Byzantine label forgery, applied before the run.
    pub forge: Option<ForgeSpec>,
    /// A healing partition window.
    pub partition: Option<PartitionSpec>,
    /// Worst-case frame reordering.
    pub reorder: Option<ReorderSpec>,
    /// Join/leave churn.
    pub churn: Option<ChurnSpec>,
    /// Seed for every adversary decision (forger picks, cut sides,
    /// churn draws) — deliberately separate from the link seed, so the
    /// same fault schedule can be combined with different adversaries.
    pub seed: u64,
}

impl fmt::Display for AdversarySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(fs) = &self.forge {
            write!(f, "forge:class={},k={};", fs.class.name(), fs.k)?;
        }
        if let Some(p) = &self.partition {
            write!(f, "partition:start={},heal={};", p.start, p.heal)?;
        }
        if let Some(r) = &self.reorder {
            write!(f, "reorder:window={};", r.window)?;
        }
        if let Some(c) = &self.churn {
            write!(f, "churn:rate={},away={},cap={};", c.rate, c.away, c.cap)?;
        }
        write!(f, "seed={}", self.seed)
    }
}

fn bad(reason: impl Into<String>) -> NetError {
    NetError::BadAdversarySpec {
        reason: reason.into(),
    }
}

/// Splits `body` into `key=value` pairs and hands each to `put`.
fn parse_fields(
    section: &str,
    body: &str,
    mut put: impl FnMut(&str, &str) -> Result<(), NetError>,
) -> Result<(), NetError> {
    for field in body.split(',') {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| bad(format!("{section}: field {field:?} is not key=value")))?;
        put(key, value)?;
    }
    Ok(())
}

fn num<T: std::str::FromStr>(section: &str, key: &str, value: &str) -> Result<T, NetError> {
    value
        .parse()
        .map_err(|_| bad(format!("{section}: bad value {value:?} for {key}")))
}

impl std::str::FromStr for AdversarySpec {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, NetError> {
        let mut spec = AdversarySpec::default();
        let mut saw_seed = false;
        for section in s.split(';').filter(|s| !s.is_empty()) {
            if let Some(value) = section.strip_prefix("seed=") {
                spec.seed = num("seed", "seed", value)?;
                saw_seed = true;
                continue;
            }
            let (name, body) = section
                .split_once(':')
                .ok_or_else(|| bad(format!("section {section:?} has no body")))?;
            match name {
                "forge" => {
                    let (mut class, mut k) = (None, None);
                    parse_fields(name, body, |key, value| {
                        match key {
                            "class" => {
                                class = Some(match value {
                                    "root" => ForgeClass::Root,
                                    "omega" => ForgeClass::Omega,
                                    "bits" => ForgeClass::Bits,
                                    other => {
                                        return Err(bad(format!("unknown forge class {other:?}")))
                                    }
                                })
                            }
                            "k" => k = Some(num(name, key, value)?),
                            other => return Err(bad(format!("forge: unknown field {other:?}"))),
                        }
                        Ok(())
                    })?;
                    spec.forge = Some(ForgeSpec {
                        class: class.ok_or_else(|| bad("forge: missing class"))?,
                        k: k.ok_or_else(|| bad("forge: missing k"))?,
                    });
                }
                "partition" => {
                    let (mut start, mut heal) = (None, None);
                    parse_fields(name, body, |key, value| {
                        match key {
                            "start" => start = Some(num(name, key, value)?),
                            "heal" => heal = Some(num(name, key, value)?),
                            other => {
                                return Err(bad(format!("partition: unknown field {other:?}")))
                            }
                        }
                        Ok(())
                    })?;
                    let p = PartitionSpec {
                        start: start.ok_or_else(|| bad("partition: missing start"))?,
                        heal: heal.ok_or_else(|| bad("partition: missing heal"))?,
                    };
                    if p.heal <= p.start {
                        return Err(bad("partition: heal must come after start"));
                    }
                    spec.partition = Some(p);
                }
                "reorder" => {
                    let mut window = None;
                    parse_fields(name, body, |key, value| {
                        match key {
                            "window" => window = Some(num(name, key, value)?),
                            other => return Err(bad(format!("reorder: unknown field {other:?}"))),
                        }
                        Ok(())
                    })?;
                    let r = ReorderSpec {
                        window: window.ok_or_else(|| bad("reorder: missing window"))?,
                    };
                    if r.window == 0 {
                        return Err(bad("reorder: window must be at least 1"));
                    }
                    spec.reorder = Some(r);
                }
                "churn" => {
                    let (mut rate, mut away, mut cap) = (None, None, None);
                    parse_fields(name, body, |key, value| {
                        match key {
                            "rate" => rate = Some(num(name, key, value)?),
                            "away" => away = Some(num(name, key, value)?),
                            "cap" => cap = Some(num(name, key, value)?),
                            other => return Err(bad(format!("churn: unknown field {other:?}"))),
                        }
                        Ok(())
                    })?;
                    let c = ChurnSpec {
                        rate: rate.ok_or_else(|| bad("churn: missing rate"))?,
                        away: away.ok_or_else(|| bad("churn: missing away"))?,
                        cap: cap.ok_or_else(|| bad("churn: missing cap"))?,
                    };
                    if !(0.0..=1.0).contains(&c.rate) {
                        return Err(bad("churn: rate must be in [0, 1]"));
                    }
                    spec.churn = Some(c);
                }
                other => return Err(bad(format!("unknown section {other:?}"))),
            }
        }
        if !saw_seed {
            return Err(bad("missing seed=…"));
        }
        Ok(spec)
    }
}

/// What [`forge_labeling`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForgeOutcome {
    /// The colluding nodes, ascending.
    pub forgers: Vec<NodeId>,
    /// Rewrites attempted before one provably broke the labeling
    /// (almost always 1; `> 1` means an early draw landed on a value
    /// the verifier legitimately tolerates and was redrawn).
    pub attempts: u32,
}

/// Upper bound on forgery redraws before giving up.
const MAX_FORGE_ATTEMPTS: u32 = 64;

/// Applies a coordinated Byzantine forgery of `class` at `k` colluding
/// nodes to `labeling`, in place.
///
/// Structured labels and encoded certificates are rewritten *together*
/// (re-encoded for [`ForgeClass::Root`]/[`ForgeClass::Omega`], decoded
/// back for [`ForgeClass::Bits`]), so the offline verifier and the wire
/// protocol — which decodes certificates off the wire — judge the same
/// forged labeling and must produce the same witness set.
///
/// Candidate rewrites are drawn from `seed` and *redrawn* until the
/// offline verifier provably rejects the result: a draw the verifier
/// tolerates (e.g. an `ω` inflation that happens to match a true
/// subtree maximum) is not a forgery, and returning it would make a
/// "zero forged labelings accepted" assertion vacuous. Returns `None`
/// if no rejecting forgery is found within the redraw budget or the
/// instance cannot host the class (e.g. [`ForgeClass::Omega`] on a
/// graph whose every node has separator level < 2).
///
/// # Panics
///
/// Panics if `k == 0` or `k >= n`.
pub fn forge_labeling(
    cfg: &ConfigGraph<TreeState>,
    labeling: &mut Labeling<MstLabel>,
    class: ForgeClass,
    k: usize,
    seed: u64,
) -> Option<ForgeOutcome> {
    let n = cfg.graph().num_nodes();
    assert!(k > 0, "a forgery needs at least one forger");
    assert!(k < n, "colluders must leave at least one honest node");
    let mut rng = StdRng::seed_from_u64(seed);
    let span_codec = SpanCodec::for_config(cfg);
    let gamma_codec = LabelCodec {
        sep_codec: SepFieldCodec::EliasGamma,
        omega_bits: cfg.graph().max_weight().bit_width(),
    };
    let scheme = MstScheme::new();

    for attempt in 1..=MAX_FORGE_ATTEMPTS {
        // Draw the collusion: k distinct nodes. Omega forgers need a
        // separator level of at least 2 — below that, every ω field is
        // the unconstrained own-level one.
        let eligible: Vec<usize> = (0..n)
            .filter(|&v| class != ForgeClass::Omega || labeling.labels()[v].gamma.sep.len() >= 2)
            .collect();
        if eligible.len() < k {
            return None;
        }
        let mut forgers = Vec::with_capacity(k);
        while forgers.len() < k {
            let v = eligible[rng.gen_range(0..eligible.len())];
            if !forgers.contains(&v) {
                forgers.push(v);
            }
        }
        forgers.sort_unstable();

        let mut labels = labeling.labels().to_vec();
        let mut encoded: Vec<BitString> = (0..n)
            .map(|v| labeling.encoded(NodeId(v as u32)).clone())
            .collect();
        let applied = match class {
            ForgeClass::Root => {
                // All colluders point at the same bogus root: a real
                // node's identity (so it encodes in `id_bits`) that is
                // not the current root.
                let true_root = labels[forgers[0]].span.root_id;
                let fake = (0..n)
                    .map(|v| cfg.state(NodeId(v as u32)).id)
                    .find(|&id| id != true_root);
                fake.is_some_and(|fake| {
                    for &v in &forgers {
                        labels[v].span.root_id = fake;
                        encoded[v] = encode_mst_label(&labels[v], span_codec, gamma_codec);
                    }
                    true
                })
            }
            ForgeClass::Omega => {
                // Same field index at every forger (the coordinated
                // lie), a fresh in-range value per forger.
                let max_omega = if gamma_codec.omega_bits >= 64 {
                    u64::MAX
                } else {
                    (1u64 << gamma_codec.omega_bits) - 1
                };
                for &v in &forgers {
                    let level = labels[v].gamma.sep.len();
                    let idx = rng.gen_range(0..level - 1);
                    let old = labels[v].gamma.omega[idx].0;
                    let mut fresh = rng.gen_range(0..=max_omega);
                    if fresh == old {
                        fresh = old ^ 1;
                    }
                    labels[v].gamma.omega[idx] = mstv_graph::Weight(fresh & max_omega);
                    encoded[v] = encode_mst_label(&labels[v], span_codec, gamma_codec);
                }
                true
            }
            ForgeClass::Bits => {
                // Flip one random certificate bit per forger, redrawing
                // positions until the mutation still *decodes* — a
                // frame the codecs reject is caught trivially (and is
                // already covered by the malformed-label tests); the
                // interesting forgery is a well-formed lie. The
                // structured label is then the decode of the flipped
                // bits, keeping offline and wire views identical.
                let mut ok = true;
                for &v in &forgers {
                    let mut found = false;
                    for _ in 0..256 {
                        let mut bytes = encoded[v].to_bytes();
                        let bit = rng.gen_range(0..encoded[v].len());
                        bytes[bit / 8] ^= 1 << (bit % 8);
                        let Some(flipped) = BitString::from_bytes(&bytes, encoded[v].len()) else {
                            continue;
                        };
                        if let Some(label) =
                            mstv_core::decode_mst_label(&flipped, span_codec, gamma_codec)
                        {
                            labels[v] = label;
                            encoded[v] = flipped;
                            found = true;
                            break;
                        }
                    }
                    ok &= found;
                }
                ok
            }
        };
        if !applied {
            continue;
        }
        let forged = Labeling::new(labels, encoded);
        if !scheme.verify_all(cfg, &forged).accepted() {
            *labeling = forged;
            return Some(ForgeOutcome {
                forgers: forgers.into_iter().map(|v| NodeId(v as u32)).collect(),
                attempts: attempt,
            });
        }
    }
    None
}

/// A [`Link`] executing an [`AdversarySpec`]'s schedule on top of a
/// [`LossyLink`] base.
///
/// Composition order per offered frame: partition blackhole, then churn
/// blackhole, then the base link's drop/delay/duplicate decision, then
/// the reorder transform on the surviving copies' delays. Blackholed
/// frames consume **no** base RNG draws — the cut is absolute, not a
/// probability — so the base stream stays aligned with the frames the
/// adversary actually lets through.
#[derive(Debug, Clone)]
pub struct AdversaryLink {
    base: LossyLink,
    spec: AdversarySpec,
    rng: StdRng,
    /// Partition side per node (drawn once; both sides non-empty).
    side: Vec<bool>,
    /// Current round, advanced by [`Link::round_start`].
    round: u64,
    /// Frames offered so far, for the reorder window position.
    offered: u64,
    /// Per node: first round the node is back, 0 = present.
    away_until: Vec<u64>,
    /// Departures so far, against `churn.cap`.
    departures: u64,
    /// Nodes owed a crash-restart at the next boundary (rejoins and
    /// scripted crashes).
    restarts: Vec<usize>,
    /// Scripted `(round, node)` crash-restarts, a test hook for
    /// boundary-targeted fault injection (e.g. the phase-B→C hand-off
    /// regression); fires via [`Link::crash_picks`] like any crash.
    crash_at: Vec<(u64, usize)>,
}

impl AdversaryLink {
    /// An adversary over `n` nodes executing `spec`, with frame-level
    /// faults from `(profile, link_seed)` underneath.
    pub fn new(spec: AdversarySpec, profile: FaultProfile, link_seed: u64, n: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        // The cut: each node draws a side; degenerate all-one-side cuts
        // are repaired deterministically so a partition spec always
        // means a real partition (for n ≥ 2).
        let mut side: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        if n >= 2 && side.iter().all(|&s| s == side[0]) {
            side[0] = !side[0];
        }
        AdversaryLink {
            base: LossyLink::new(profile, link_seed),
            spec,
            rng,
            side,
            round: 0,
            offered: 0,
            away_until: vec![0; n],
            departures: 0,
            restarts: Vec::new(),
            crash_at: Vec::new(),
        }
    }

    /// Scripts a crash-restart of `node` at the boundary opening round
    /// `round`, on top of whatever the spec does.
    pub fn script_crash(&mut self, round: u64, node: usize) {
        self.crash_at.push((round, node));
    }

    /// Whether the partition is blackholing cross-cut frames right now.
    fn partition_active(&self) -> bool {
        self.spec
            .partition
            .is_some_and(|p| (p.start..p.heal).contains(&self.round))
    }

    /// Whether `v` is currently away under churn.
    fn is_away(&self, v: usize) -> bool {
        self.away_until[v] > self.round
    }

    /// Total departures drawn so far (each costs one crash-restart at
    /// rejoin time).
    pub fn departures(&self) -> u64 {
        self.departures
    }
}

impl Link for AdversaryLink {
    fn offer(&mut self) -> Vec<u32> {
        // Only reachable through a router older than `offer_edge`;
        // degrade to the base behavior plus reordering.
        self.offer_edge(usize::MAX, usize::MAX)
    }

    fn offer_edge(&mut self, from: usize, to: usize) -> Vec<u32> {
        let endpoints_known = from < self.side.len() && to < self.side.len();
        if endpoints_known {
            if self.partition_active() && self.side[from] != self.side[to] {
                return Vec::new();
            }
            if self.is_away(from) || self.is_away(to) {
                return Vec::new();
            }
        }
        let mut copies = self.base.offer();
        if let Some(r) = self.spec.reorder {
            // Reverse each window of `window` consecutive offers: the
            // `pos`-th frame of a window gets `window-1-pos` extra
            // holdback, so later frames in the window are released
            // first. Duplicate copies share the frame's extra delay.
            let pos = (self.offered % u64::from(r.window)) as u32;
            let extra = r.window - 1 - pos;
            for delay in &mut copies {
                *delay += extra;
            }
        }
        self.offered += 1;
        copies
    }

    fn round_start(&mut self, round: u64) {
        self.round = round;
        // Rejoins owed from earlier departures.
        for v in 0..self.away_until.len() {
            if self.away_until[v] != 0 && self.away_until[v] <= round {
                self.away_until[v] = 0;
                self.restarts.push(v);
            }
        }
        // Scripted crashes for this round.
        let mut k = 0;
        while k < self.crash_at.len() {
            if self.crash_at[k].0 == round {
                self.restarts.push(self.crash_at.swap_remove(k).1);
            } else {
                k += 1;
            }
        }
        // Fresh departures.
        if let Some(c) = self.spec.churn {
            for v in 0..self.away_until.len() {
                if self.departures >= c.cap {
                    break;
                }
                if !self.is_away(v) && c.rate > 0.0 && self.rng.gen_bool(c.rate) {
                    self.away_until[v] = round + c.away.max(1);
                    self.departures += 1;
                }
            }
        }
    }

    fn crash_picks(&mut self, nodes: usize) -> Vec<usize> {
        let mut picks = std::mem::take(&mut self.restarts);
        picks.retain(|&v| v < nodes);
        picks.sort_unstable();
        picks.dedup();
        for v in self.base.crash_picks(nodes) {
            if !picks.contains(&v) {
                picks.push(v);
            }
        }
        picks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstv_core::mst_configuration;
    use mstv_graph::gen;

    fn spec_roundtrip(s: &str) {
        let spec: AdversarySpec = s.parse().expect("spec parses");
        assert_eq!(spec.to_string(), s, "canonical form round-trips");
        let again: AdversarySpec = spec.to_string().parse().expect("display parses");
        assert_eq!(again, spec);
    }

    #[test]
    fn adversary_spec_round_trips() {
        spec_roundtrip("seed=7");
        spec_roundtrip("forge:class=root,k=2;seed=0");
        spec_roundtrip("partition:start=2,heal=6;seed=3");
        spec_roundtrip("reorder:window=8;seed=1");
        spec_roundtrip("churn:rate=0.01,away=3,cap=16;seed=5");
        spec_roundtrip(
            "forge:class=bits,k=4;partition:start=1,heal=4;reorder:window=3;\
             churn:rate=0.5,away=2,cap=8;seed=99",
        );
    }

    #[test]
    fn adversary_spec_rejects_garbage() {
        for bad in [
            "",                                   // no seed
            "forge:class=root,k=2",               // still no seed
            "forge:class=nope,k=1;seed=0",        // unknown class
            "forge:k=1;seed=0",                   // missing class
            "partition:start=5,heal=5;seed=0",    // empty window
            "reorder:window=0;seed=0",            // zero window
            "churn:rate=1.5,away=1,cap=1;seed=0", // rate out of range
            "gremlins:on=1;seed=0",               // unknown section
            "seed=banana",                        // non-numeric
        ] {
            assert!(
                bad.parse::<AdversarySpec>().is_err(),
                "{bad:?} should not parse"
            );
        }
    }

    #[test]
    fn forgery_rewrites_structured_and_encoded_consistently() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = gen::random_connected(40, 30, gen::WeightDist::Uniform { max: 64 }, &mut rng);
        let cfg = mst_configuration(g);
        let honest = MstScheme::new().marker(&cfg).expect("marker");
        let span_codec = SpanCodec::for_config(&cfg);
        let gamma_codec = LabelCodec {
            sep_codec: SepFieldCodec::EliasGamma,
            omega_bits: cfg.graph().max_weight().bit_width(),
        };
        for class in ForgeClass::ALL {
            let mut labeling = honest.clone();
            let outcome =
                forge_labeling(&cfg, &mut labeling, class, 2, 17).expect("forgery applies");
            assert_eq!(outcome.forgers.len(), 2);
            // The forged labeling is rejected offline…
            assert!(!MstScheme::new().verify_all(&cfg, &labeling).accepted());
            // …and every node's structured label matches its encoded
            // bits, so the wire protocol judges the same labeling.
            for v in 0..cfg.graph().num_nodes() {
                let v = NodeId(v as u32);
                assert_eq!(
                    encode_mst_label(&labeling.labels()[v.index()], span_codec, gamma_codec),
                    *labeling.encoded(v),
                    "label/bits divergence at {v} under {class:?}"
                );
            }
        }
    }

    #[test]
    fn partition_blackholes_cross_cut_frames_then_heals() {
        let spec: AdversarySpec = "partition:start=1,heal=3;seed=4".parse().unwrap();
        let mut link = AdversaryLink::new(spec, FaultProfile::default(), 0, 8);
        let (a, b) = {
            let cut = link.side.clone();
            let a = 0;
            let b = (0..8).find(|&v| cut[v] != cut[a]).expect("both sides live");
            (a, b)
        };
        link.round_start(1);
        assert!(link.offer_edge(a, b).is_empty(), "cross-cut frame dies");
        assert_eq!(link.offer_edge(a, a).len(), 1, "same-side frame lives");
        link.round_start(3);
        assert_eq!(link.offer_edge(a, b).len(), 1, "healed cut delivers");
    }

    #[test]
    fn reorder_reverses_each_window() {
        let spec: AdversarySpec = "reorder:window=4;seed=0".parse().unwrap();
        let mut link = AdversaryLink::new(spec, FaultProfile::default(), 0, 2);
        link.round_start(1);
        let delays: Vec<u32> = (0..8).map(|_| link.offer_edge(0, 1)[0]).collect();
        // Two windows of four, each released in reverse offer order.
        assert_eq!(delays, vec![3, 2, 1, 0, 3, 2, 1, 0]);
    }

    #[test]
    fn churn_departures_respect_cap_and_rejoin_as_restarts() {
        let spec: AdversarySpec = "churn:rate=1,away=2,cap=3;seed=9".parse().unwrap();
        let mut link = AdversaryLink::new(spec, FaultProfile::default(), 0, 10);
        link.round_start(1);
        assert_eq!(link.departures(), 3, "cap binds immediately at rate 1");
        let away: Vec<usize> = (0..10).filter(|&v| link.is_away(v)).collect();
        assert_eq!(away.len(), 3);
        for &v in &away {
            assert!(link.offer_edge(v, 9).is_empty(), "away node is silent");
            assert!(link.offer_edge(9, v).is_empty(), "and unreachable");
        }
        assert!(link.crash_picks(10).is_empty(), "no rejoin owed yet");
        link.round_start(2);
        assert!(link.crash_picks(10).is_empty());
        link.round_start(3);
        assert_eq!(link.crash_picks(10), away, "rejoins land as restarts");
        for &v in &away {
            assert_eq!(link.offer_edge(v, 9).len(), 1, "rejoined node talks");
        }
    }

    #[test]
    fn scripted_crash_fires_at_its_round() {
        let spec: AdversarySpec = "seed=0".parse().unwrap();
        let mut link = AdversaryLink::new(spec, FaultProfile::default(), 0, 4);
        link.script_crash(2, 3);
        link.round_start(1);
        assert!(link.crash_picks(4).is_empty());
        link.round_start(2);
        assert_eq!(link.crash_picks(4), vec![3]);
        link.round_start(3);
        assert!(link.crash_picks(4).is_empty(), "scripted crash fires once");
    }
}
