//! Pluggable network layer: perfect and lossy links.
//!
//! A [`Link`] decides the fate of every offered frame — delivered,
//! dropped, delayed, or duplicated — and which nodes crash-restart at
//! each retransmission boundary. Decisions are content-independent
//! (the adversary of the self-stabilization model is oblivious), so a
//! link never inspects frames; it only answers scheduling questions
//! from a seeded random stream, which makes a whole fault schedule
//! reproducible from `(profile, seed)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Knobs of the fault injector, all off by default.
///
/// See the crate docs for how each knob maps onto an assumption of the
/// Korman–Kutten self-stabilization model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability that an offered frame is silently dropped.
    pub drop: f64,
    /// Probability that a delivered frame is delivered twice (the copy
    /// gets an independent delay, so duplicates can also reorder).
    pub duplicate: f64,
    /// Maximum holdback, in scheduler steps, applied uniformly at
    /// random to each delivered copy. Any value above zero lets frames
    /// overtake each other, i.e. enables reordering.
    pub max_delay: u32,
    /// Per-node probability of a crash-restart at each retransmission
    /// boundary.
    pub crash: f64,
    /// Hard cap on the total number of crash-restarts across the run,
    /// so a run with `crash > 0` still quiesces.
    pub max_crashes: u64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            drop: 0.0,
            duplicate: 0.0,
            max_delay: 0,
            crash: 0.0,
            max_crashes: 0,
        }
    }
}

impl FaultProfile {
    /// Whether the profile injects no faults at all.
    pub fn is_perfect(&self) -> bool {
        self.drop == 0.0 && self.duplicate == 0.0 && self.max_delay == 0 && self.crash == 0.0
    }
}

/// The network layer seen by the runtime's router.
///
/// Implementations must be deterministic functions of their own state:
/// the runtime calls them from a single thread in a well-defined order,
/// and the event log (not the link) is what replays capture — so a
/// custom link may be as exotic as it likes (scripted partitions,
/// targeted crashes) and replay still reproduces the run.
pub trait Link: Send {
    /// The fate of one offered frame: one entry per delivered copy,
    /// giving the copy's holdback in scheduler steps. An empty vector
    /// drops the frame; two entries duplicate it.
    fn offer(&mut self) -> Vec<u32>;

    /// [`Link::offer`] with the frame's endpoints visible: `from` is
    /// the sending node, `to` the receiving one. Topology-aware
    /// adversaries (partitions, churn — see
    /// [`AdversaryLink`](crate::AdversaryLink)) override this; the
    /// default ignores the endpoints and defers to [`Link::offer`], so
    /// every pre-existing link keeps its exact RNG stream and schedule.
    /// The router always calls this entry point.
    fn offer_edge(&mut self, from: usize, to: usize) -> Vec<u32> {
        let _ = (from, to);
        self.offer()
    }

    /// Indices of nodes to crash-restart at a retransmission boundary
    /// (called once per boundary with the node count).
    fn crash_picks(&mut self, _nodes: usize) -> Vec<usize> {
        Vec::new()
    }

    /// Notification that retransmission round `round` is starting:
    /// fired once with round 1 before the initial `Start` dispatches,
    /// then at each retransmission boundary before
    /// [`Link::crash_picks`]. This is the router's internal clock, which
    /// [`NetConfig::max_rounds`](crate::NetConfig::max_rounds) bounds;
    /// a run's cost counts causal rounds instead.
    /// Time-scheduled adversaries (partition windows, churn leases)
    /// advance their clocks here; the default is a no-op.
    fn round_start(&mut self, _round: u64) {}
}

/// The ideal in-process transport: every frame is delivered exactly
/// once, immediately, and nobody crashes.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfectLink;

impl Link for PerfectLink {
    fn offer(&mut self) -> Vec<u32> {
        vec![0]
    }
}

/// A link driven by a [`FaultProfile`] and a seeded RNG.
#[derive(Debug, Clone)]
pub struct LossyLink {
    profile: FaultProfile,
    rng: StdRng,
    crashes_done: u64,
}

impl LossyLink {
    /// A lossy link with the given fault profile and RNG seed.
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        LossyLink {
            profile,
            rng: StdRng::seed_from_u64(seed),
            crashes_done: 0,
        }
    }

    /// Crash-restarts issued so far.
    pub fn crashes_done(&self) -> u64 {
        self.crashes_done
    }

    fn delay(&mut self) -> u32 {
        if self.profile.max_delay == 0 {
            0
        } else {
            self.rng.gen_range(0..=self.profile.max_delay)
        }
    }
}

impl Link for LossyLink {
    /// The per-frame decision order is part of the format contract:
    /// **drop first** (a dropped frame is dead — the duplicate path
    /// cannot resurrect it, and no further RNG draws are consumed for
    /// it), then the primary copy's delay, then the duplicate check,
    /// then the duplicate's delay. Old event logs replay link-free, but
    /// the CLI rebuilds *live* fault schedules from `(profile, seed)`
    /// headers, so reordering these draws would silently detach
    /// recorded headers from the schedules they name. Pinned by
    /// `drop_dup_delay_decision_order_is_pinned`.
    fn offer(&mut self) -> Vec<u32> {
        if self.profile.drop > 0.0 && self.rng.gen_bool(self.profile.drop) {
            return Vec::new();
        }
        let mut copies = vec![self.delay()];
        if self.profile.duplicate > 0.0 && self.rng.gen_bool(self.profile.duplicate) {
            copies.push(self.delay());
        }
        copies
    }

    fn crash_picks(&mut self, nodes: usize) -> Vec<usize> {
        let mut picks = Vec::new();
        if self.profile.crash == 0.0 {
            return picks;
        }
        for v in 0..nodes {
            if self.crashes_done >= self.profile.max_crashes {
                break;
            }
            if self.rng.gen_bool(self.profile.crash) {
                picks.push(v);
                self.crashes_done += 1;
            }
        }
        picks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_link_delivers_once_immediately() {
        let mut link = PerfectLink;
        for _ in 0..10 {
            assert_eq!(link.offer(), vec![0]);
        }
        assert!(link.crash_picks(8).is_empty());
    }

    #[test]
    fn lossy_link_is_reproducible_from_seed() {
        let profile = FaultProfile {
            drop: 0.3,
            duplicate: 0.2,
            max_delay: 4,
            crash: 0.1,
            max_crashes: 5,
        };
        let mut a = LossyLink::new(profile, 42);
        let mut b = LossyLink::new(profile, 42);
        for _ in 0..200 {
            assert_eq!(a.offer(), b.offer());
        }
        assert_eq!(a.crash_picks(16), b.crash_picks(16));
    }

    /// Regression test for the drop/dup/delay decision order: a frame
    /// selected for drop must not be resurrectable by the duplicate
    /// path in the same delivery step, and the RNG draw sequence
    /// (drop → primary delay → dup → dup delay) must stay exactly as
    /// recorded runs assume, or `(profile, seed)` headers in old event
    /// logs would name different fault schedules than the ones they
    /// were recorded under.
    #[test]
    fn drop_dup_delay_decision_order_is_pinned() {
        let profile = FaultProfile {
            drop: 0.4,
            duplicate: 0.9,
            max_delay: 5,
            crash: 0.0,
            max_crashes: 0,
        };
        let mut link = LossyLink::new(profile, 123);
        // The oracle mirrors the contract draw by draw on an
        // identically seeded RNG.
        let mut rng = StdRng::seed_from_u64(123);
        let mut saw_drop = false;
        let mut saw_dup = false;
        for step in 0..500 {
            let expected = if rng.gen_bool(profile.drop) {
                // Dropped: dead immediately, no delay or duplicate
                // draws consumed, and — the dup-after-drop guarantee —
                // no copy of the frame survives.
                Vec::new()
            } else {
                let mut copies = vec![rng.gen_range(0..=profile.max_delay)];
                if rng.gen_bool(profile.duplicate) {
                    copies.push(rng.gen_range(0..=profile.max_delay));
                }
                copies
            };
            let got = link.offer();
            assert_eq!(got, expected, "decision order diverged at step {step}");
            saw_drop |= got.is_empty();
            saw_dup |= got.len() == 2;
        }
        // The sweep exercised both the drop path and the dup path, so
        // the equality above really pinned their ordering.
        assert!(saw_drop && saw_dup);
    }

    #[test]
    fn default_offer_edge_defers_to_offer() {
        // The topology-aware entry point must not perturb existing
        // links: for a LossyLink it consumes the same RNG stream as
        // plain `offer`, whatever endpoints the router passes.
        let profile = FaultProfile {
            drop: 0.3,
            duplicate: 0.25,
            max_delay: 3,
            crash: 0.0,
            max_crashes: 0,
        };
        let mut a = LossyLink::new(profile, 9);
        let mut b = LossyLink::new(profile, 9);
        for i in 0..200 {
            assert_eq!(a.offer(), b.offer_edge(i % 7, (i + 1) % 7));
        }
        a.round_start(1); // default no-op must not disturb the stream
        b.round_start(1);
        assert_eq!(a.offer(), b.offer());
    }

    #[test]
    fn crash_cap_is_respected() {
        let profile = FaultProfile {
            crash: 1.0,
            max_crashes: 3,
            ..Default::default()
        };
        let mut link = LossyLink::new(profile, 7);
        let mut total = 0;
        for _ in 0..10 {
            total += link.crash_picks(100).len();
        }
        assert_eq!(total, 3);
    }
}
