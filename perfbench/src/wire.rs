//! `wire-lossy`: the paper's one-round verification on the wire, with
//! retransmission under loss, duplication and reordering.
//!
//! One op is one `run_verification_encoded_with` call on the events
//! engine with one worker (a router plus one worker thread) over a
//! `LossyLink`, whose seed cycles through [`LINK_SEEDS`]. The
//! certificates are encoded once in setup. An op passes when the verdict
//! accepts and its `MessageCost` equals the warm-up run's for the same
//! link seed. A certificate forged at one node must fail that same check.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mstv_core::{
    mst_configuration, Labeling, MessageCost, MstLabel, MstScheme, ProofLabelingScheme,
};
use mstv_graph::{gen, ConfigGraph, NodeId, TreeState};
use mstv_labels::BitString;
use mstv_net::{
    forge_labeling, run_verification_encoded_with, Engine, FaultProfile, ForgeClass, Link,
    LossyLink, MstWireScheme, NetConfig,
};
use mstv_trees::ParallelConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Tracer;
use crate::{Halves, Opts, Report, Samples};

const NODES: usize = 4096;
const EXTRA: usize = 2 * NODES;
const MAX_WEIGHT: u64 = 1 << 20;
const PROFILE: FaultProfile = FaultProfile {
    drop: 0.05,
    duplicate: 0.02,
    max_delay: 1,
    crash: 0.0,
    max_crashes: 0,
};
/// The fixed link-seed sequence ops cycle through.
const LINK_SEEDS: [u64; 4] = [0x51AB, 0x51AC, 0x51AD, 0x51AE];
/// Ops per throughput window: two passes over the link seeds.
const WINDOW: usize = 8;

struct Instance {
    cfg: ConfigGraph<TreeState>,
    wire: MstWireScheme,
    labeling: Labeling<MstLabel>,
    encoded: Vec<Arc<BitString>>,
    /// The warm-up run's cost per link seed.
    reference: Vec<MessageCost>,
}

/// [`LossyLink`] behind a timer and counters: every call the router
/// makes into the [`Link`] trait is timed, and every offered frame's
/// fate counted. It forwards each call unchanged, so the link's random
/// stream and therefore the run are identical to the bare link's.
struct TimedLink {
    inner: LossyLink,
    nanos: u64,
    offers: u64,
    drops: u64,
    dups: u64,
    copies: u64,
}

impl TimedLink {
    fn new(seed: u64) -> TimedLink {
        TimedLink {
            inner: LossyLink::new(PROFILE, seed),
            nanos: 0,
            offers: 0,
            drops: 0,
            dups: 0,
            copies: 0,
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut LossyLink) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut self.inner);
        self.nanos += t.elapsed().as_nanos() as u64;
        r
    }
}

impl Link for TimedLink {
    fn offer(&mut self) -> Vec<u32> {
        self.offer_edge(usize::MAX, usize::MAX)
    }

    fn offer_edge(&mut self, from: usize, to: usize) -> Vec<u32> {
        let fate = self.timed(|l| l.offer_edge(from, to));
        self.offers += 1;
        self.copies += fate.len() as u64;
        match fate.len() {
            0 => self.drops += 1,
            1 => {}
            _ => self.dups += 1,
        }
        fate
    }

    fn crash_picks(&mut self, nodes: usize) -> Vec<usize> {
        self.timed(|l| l.crash_picks(nodes))
    }

    fn round_start(&mut self, round: u64) {
        self.timed(|l| l.round_start(round));
    }
}

fn verify(
    inst: &Instance,
    encoded: Vec<Arc<BitString>>,
    link: &mut dyn Link,
) -> Option<MessageCost> {
    let net = NetConfig {
        record_log: false,
        ..NetConfig::default()
    };
    let engine = Engine::Events {
        workers: ParallelConfig::with_threads(NonZeroUsize::MIN),
    };
    run_verification_encoded_with(&inst.wire, &inst.cfg, encoded, link, net, engine)
        .ok()
        .filter(|run| run.verdict.accepted())
        .map(|run| run.cost)
}

fn encode(labeling: &Labeling<MstLabel>) -> Vec<Arc<BitString>> {
    (0..labeling.labels().len())
        .map(|v| Arc::new(labeling.encoded(NodeId(v as u32)).clone()))
        .collect()
}

fn setup(opts: &Opts, tr: &mut Tracer) -> Result<Instance, String> {
    let g = tr.span("setup.instance", || {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        gen::random_connected(
            NODES,
            EXTRA,
            gen::WeightDist::Uniform { max: MAX_WEIGHT },
            &mut rng,
        )
    });
    let (cfg, labeling) = tr.span("setup.build", || {
        let cfg = mst_configuration(g);
        // The sequential marker: same labels, and a peak memory that does
        // not depend on how parallel workers interleave.
        let labeling = MstScheme::new().marker(&cfg).map_err(|e| e.to_string())?;
        Ok::<_, String>((cfg, labeling))
    })?;
    let mut inst = Instance {
        wire: MstWireScheme::for_config(&cfg),
        encoded: encode(&labeling),
        cfg,
        labeling,
        reference: Vec::new(),
    };
    let h = tr.open("setup.warmup");
    for &seed in &LINK_SEEDS {
        let cost = verify(
            &inst,
            inst.encoded.clone(),
            &mut LossyLink::new(PROFILE, seed),
        )
        .ok_or("warm-up run rejected the marker's certificates")?;
        inst.reference.push(cost);
    }
    tr.close(h);
    Ok(inst)
}

/// Per-op link accounting from the traced phase.
struct LinkStats {
    nanos: Vec<u64>,
    /// Counters of the latest traced op per link seed (identical for
    /// every op on that seed).
    per_seed: BTreeMap<usize, (u64, u64, u64, u64)>,
}

fn phase(
    inst: &Instance,
    tr: &mut Tracer,
    budget: Duration,
    min_ops: usize,
    mut links: Option<&mut LinkStats>,
) -> Samples {
    crate::closed_loop(budget, min_ops, |i| {
        let k = i as usize % LINK_SEEDS.len();
        let encoded = inst.encoded.clone();
        let mut timed = TimedLink::new(LINK_SEEDS[k]);
        let mut bare = LossyLink::new(PROFILE, LINK_SEEDS[k]);
        let link: &mut dyn Link = if links.is_some() {
            &mut timed
        } else {
            &mut bare
        };
        tr.next_op();
        let h = tr.open("op");
        let t = Instant::now();
        let cost = tr.span("net.run", || verify(inst, encoded, link));
        let ns = t.elapsed().as_nanos() as u64;
        tr.close(h);
        if let Some(stats) = links.as_deref_mut() {
            stats.nanos.push(timed.nanos);
            stats
                .per_seed
                .insert(k, (timed.offers, timed.drops, timed.dups, timed.copies));
        }
        (ns, NODES as u64, cost == Some(inst.reference[k]))
    })
}

/// The checker's negative control: certificates forged at one node must
/// fail the op check.
fn forged_op_fails(inst: &Instance) -> Result<bool, String> {
    let mut forged = inst.labeling.clone();
    forge_labeling(&inst.cfg, &mut forged, ForgeClass::Bits, 1, 0xF0)
        .ok_or("forge_labeling found no rejecting forgery")?;
    let cost = verify(
        inst,
        encode(&forged),
        &mut LossyLink::new(PROFILE, LINK_SEEDS[0]),
    );
    Ok(cost != Some(inst.reference[0]))
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

pub fn run(opts: &Opts, tr: &mut Tracer) -> Result<Report, String> {
    let (inst, setups) = crate::timed_setups(tr, |tr| setup(opts, tr))?;
    let budget = Duration::from_secs_f64(opts.seconds);
    let m = inst.cfg.graph().num_edges() as f64;
    let msgs = mean(inst.reference.iter().map(|c| c.msgs as f64));
    let mut notes = vec![format!(
        "msgs/edge {:.4}: label and ack frames in both directions, retransmissions included",
        msgs / m
    )];
    let (samples, metrics) = if tr.on() {
        let mut links = LinkStats {
            nanos: Vec::new(),
            per_seed: BTreeMap::new(),
        };
        let halves = Halves::run(tr, budget, |tr, budget, min_ops| {
            let stats = tr.on().then_some(&mut links);
            phase(&inst, tr, budget, min_ops, stats)
        });
        let run_ms: Vec<f64> = tr
            .total_ns("net.run")
            .into_iter()
            .filter(|(op, _)| halves.traced_op(*op))
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect();
        let link_ms: Vec<f64> = links.nanos.iter().map(|&ns| ns as f64 / 1e6).collect();
        let engine_ms: Vec<f64> = run_ms.iter().zip(&link_ms).map(|(r, l)| r - l).collect();
        let per_seed = |f: fn(&(u64, u64, u64, u64)) -> u64| {
            mean(links.per_seed.values().map(|c| f(c) as f64))
        };
        let p50 = |v: &[f64]| crate::stats::percentile(v, 0.5);
        let mut metrics = BTreeMap::from([
            ("net.run_ms", p50(&run_ms)?),
            ("net.link_ms", p50(&link_ms)?),
            ("net.engine_ms", p50(&engine_ms)?),
            ("net.us_per_msg", p50(&run_ms)? * 1e3 / msgs),
            ("net.msgs", msgs),
            (
                "net.bits",
                mean(inst.reference.iter().map(|c| c.bits as f64)),
            ),
            (
                "net.rounds",
                mean(inst.reference.iter().map(|c| c.rounds as f64)),
            ),
            ("net.link_offers", per_seed(|c| c.0)),
            ("net.link_drops", per_seed(|c| c.1)),
            ("net.link_dups", per_seed(|c| c.2)),
            ("net.delivered_ratio", per_seed(|c| c.3) / per_seed(|c| c.0)),
            ("net.msgs_per_edge", msgs / m),
        ]);
        (halves.finish(tr, &mut metrics, &mut notes)?, metrics)
    } else {
        let s = phase(&inst, tr, budget, crate::MIN_OPS, None);
        let wire_bytes = mean(inst.reference.iter().map(|c| c.bits as f64 / 8.0));
        let m = crate::end_to_end(
            &s,
            WINDOW,
            &setups,
            inst.labeling.max_label_bits() as f64,
            wire_bytes / NODES as f64,
            &mut notes,
        )?;
        (s, m)
    };
    let caught = forged_op_fails(&inst)?;
    if !caught {
        notes.push("negative control: a forged certificate passed the op check".to_owned());
    }
    Ok(Report::new(&samples, caught, metrics, notes))
}
