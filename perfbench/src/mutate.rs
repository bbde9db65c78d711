//! `mutate`: live weight changes through the incremental marker into a
//! serving engine, each followed by a read of the changed edge.
//!
//! One op takes one seeded `SetWeight` through `DynMarker::apply` →
//! `DeltaRecord::to_bytes` → `QueryEngine::apply_delta`, then asks the
//! engine `VerifyEdge` on the changed edge at its new weight, which must
//! accept. The stream is [`STREAM`] ops of forward/restore pairs: each
//! pair moves one edge to a seeded weight and then back, so every
//! forward mutation meets the same base tree and its outcome class is
//! fixed when the stream is drawn (see [`stream`]). Ops run in passes
//! over the stream; after each pass, outside the timed interval, the
//! engine's snapshot must be byte-identical to `Snapshot::build` on a
//! fresh Kruskal tree of the graph.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mstv_dyn::DynMarker;
use mstv_graph::{gen, EdgeId, Graph, NodeId, Weight};
use mstv_labels::SepFieldCodec;
use mstv_mst::kruskal;
use mstv_store::{
    Answer, DeltaOutcome, EngineConfig, JournalMutation, Query, QueryEngine, Snapshot,
};
use mstv_trees::{centroid_decomposition, PathMaxIndex, RootedTree, SeparatorDecomposition};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::trace::Tracer;
use crate::{Halves, Opts, Report, Samples};

const NODES: usize = 10_000;
const EXTRA: usize = 2 * NODES;
const MAX_WEIGHT: u64 = 1 << 20;
/// Ops per pass: forward/restore pairs.
const STREAM: usize = 400;
/// Pairs per forward kind: no-op, weights-only, light tree swap, heavy
/// tree swap. In ops that is 35% / 35% / 28.5% / 1.5%, so the median op
/// lies inside the weights-only kind and the p90 inside the light swaps,
/// away from the kind boundaries. A heavy swap's cost depends on the
/// instance (20–120 ms): at 5% of ops the heavy swaps took 40–52% of a
/// pass and items/s spread 15.5% over five seeds, at 1.5% it spread 7.5%.
const PAIR_MIX: [usize; 4] = [70, 70, 57, 3];
/// A light swap re-hangs at most this many nodes.
const LEAF_SIDE: usize = 16;
/// A light swap changes at most this many separator chains, half of
/// `DynMarker`'s cut-over from per-node walks to whole-tree relabelling
/// (1024 dirty nodes at this n)...
const LIGHT_CHAINS: usize = 512;
/// ...and a heavy one at least this many, well past the cut-over.
const HEAVY_CHAINS: usize = NODES / 8;
/// Swap candidates classified per kind (light, heavy): a fixed count, so
/// drawing the stream costs the same on every instance.
const SWAP_TRIES: [usize; 2] = [60, 12];
/// Stream prefix run in setup (whole pairs, so the state returns to base).
const WARMUP_OPS: usize = 40;
const CLASSES: [&str; 4] = ["noop", "weights_only", "tree_swap", "reencode"];

/// What a pass did, summed over its ops: identical for every pass.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct PassCounts {
    classes: [u64; 4],
    /// Median `DeltaRecord::to_bytes` length. The mean is set by the few
    /// heavy swaps, whose records carry thousands of labels.
    delta_bytes_median: u64,
    rows: u64,
    dirty: u64,
    label_bits_max: usize,
}

struct Instance {
    stream: Vec<JournalMutation>,
    dm: DynMarker,
    engine: QueryEngine,
}

/// Nodes whose separator chain differs between two decompositions of the
/// same node set: the chains `DynMarker` must relabel after a swap.
fn changed_chains(a: &SeparatorDecomposition, b: &SeparatorDecomposition) -> usize {
    const UNKNOWN: u8 = 0;
    const SAME: u8 = 1;
    const CHANGED: u8 = 2;
    let mut state = vec![UNKNOWN; a.num_nodes()];
    let mut chain = Vec::new();
    for v0 in 0..a.num_nodes() {
        let mut cur = NodeId(v0 as u32);
        let verdict = loop {
            if state[cur.index()] != UNKNOWN {
                break state[cur.index()];
            }
            chain.push(cur);
            match (a.sep_parent(cur), b.sep_parent(cur)) {
                (None, None) => break SAME,
                (Some(pa), Some(pb)) if pa == pb && a.child_rank(cur) == b.child_rank(cur) => {
                    cur = pa
                }
                _ => break CHANGED,
            }
        };
        for c in chain.drain(..) {
            state[c.index()] = verdict;
        }
    }
    state.iter().filter(|&&s| s == CHANGED).count()
}

/// Draws the stream over the base graph `g`: forward/restore pairs in
/// [`PAIR_MIX`] proportions and seeded order. Each forward mutation's
/// kind is fixed against the base MST when it is drawn:
///
/// * no-op: a non-tree edge moves above the maximum of its tree path;
/// * weights-only: a leaf's tree edge, lighter than the heaviest tree
///   edge, gets lighter still, so the tree and the `ω` width stay and the
///   record rewrites the few labels whose paths cross that edge;
/// * tree swap: a non-tree edge drops below the maximum of its tree path
///   (itself below the heaviest tree edge) and enters the tree. The swap
///   is light when it re-hangs at most [`LEAF_SIDE`] nodes and changes at
///   most [`LIGHT_CHAINS`] separator chains, heavy when it changes at
///   least [`HEAVY_CHAINS`]; other draws are skipped. [`SWAP_TRIES`]
///   candidates of each swap kind are classified, and the accepted ones
///   fill that kind's pairs in turn.
///
/// Each restore returns the edge to its base weight, and the canonical
/// tree with it. A `δ` width change can still make an op a re-encode;
/// the count is fixed per seed and reported.
fn stream(g: &Graph, rng: &mut StdRng) -> Result<Vec<JournalMutation>, String> {
    let mst = kruskal(g);
    let tree = RootedTree::from_graph_edges(g, &mst, NodeId(0)).map_err(|e| e.to_string())?;
    let sep = centroid_decomposition(&tree);
    let paths = PathMaxIndex::new(&tree);
    let sizes = tree.subtree_sizes();
    let mut in_tree = vec![false; g.num_edges()];
    for e in &mst {
        in_tree[e.index()] = true;
    }
    let top = mst.iter().map(|&e| g.weight(e).0).max().unwrap_or(1);
    let parent_edge = |v: NodeId| {
        let p = tree.parent(v).expect("not the root");
        g.edge_between(v, p).expect("tree edges are graph edges")
    };
    // The tree edge a swap of (u, v) evicts — the heaviest of the path
    // under the (weight, edge id) order — and the node below it.
    let evicted = |mut a: NodeId, mut b: NodeId| {
        let mut best: Option<(Weight, EdgeId, NodeId)> = None;
        while a != b {
            if tree.depth(a) < tree.depth(b) {
                std::mem::swap(&mut a, &mut b);
            }
            let key = (tree.parent_weight(a), parent_edge(a), a);
            best = best.max(Some(key));
            a = tree.parent(a).expect("the deeper node has a parent");
        }
        best.map(|(_, e, below)| (e, below))
            .expect("distinct endpoints")
    };
    let mut drawn: [Vec<(EdgeId, u64)>; 4] = Default::default();
    let mut tried = [0usize; 2];
    for _ in 0..200_000 {
        let open = [
            drawn[0].len() < PAIR_MIX[0],
            drawn[1].len() < PAIR_MIX[1],
            tried[0] < SWAP_TRIES[0],
            tried[1] < SWAP_TRIES[1],
        ];
        if !open.contains(&true) {
            break;
        }
        let id = EdgeId(rng.gen_range(0..g.num_edges() as u32));
        let e = g.edge(id);
        if in_tree[id.index()] {
            let below = if tree.parent(e.u) == Some(e.v) {
                e.u
            } else {
                e.v
            };
            if open[1] && e.w.0 >= 2 && e.w.0 < top && sizes[below.index()] == 1 {
                drawn[1].push((id, rng.gen_range(1..e.w.0)));
            }
            continue;
        }
        let path_max = paths.max_on_path(e.u, e.v).0;
        if open[0] {
            if path_max < MAX_WEIGHT {
                drawn[0].push((id, rng.gen_range(path_max + 1..=MAX_WEIGHT)));
            }
            continue;
        }
        if !(2..top).contains(&path_max) {
            continue;
        }
        // Only a small re-hung subtree can make a light swap and only a
        // large one a heavy swap; the chain count decides.
        let (out, below) = evicted(e.u, e.v);
        let kind = match sizes[below.index()] {
            s if s <= LEAF_SIDE && open[2] => 2,
            s if s >= HEAVY_CHAINS && open[3] => 3,
            _ => continue,
        };
        tried[kind - 2] += 1;
        in_tree[out.index()] = false;
        in_tree[id.index()] = true;
        let swapped = RootedTree::from_tree_membership(g, &in_tree, NodeId(0));
        in_tree[out.index()] = true;
        in_tree[id.index()] = false;
        let changed = changed_chains(
            &sep,
            &centroid_decomposition(&swapped.map_err(|e| e.to_string())?),
        );
        if (kind == 2 && changed <= LIGHT_CHAINS) || (kind == 3 && changed >= HEAVY_CHAINS) {
            drawn[kind].push((id, rng.gen_range(1..path_max)));
        }
    }
    let short = drawn[..2]
        .iter()
        .zip(PAIR_MIX)
        .any(|(d, want)| d.len() < want);
    if short || drawn[2..].iter().any(Vec::is_empty) {
        let got: Vec<usize> = drawn.iter().map(Vec::len).collect();
        return Err(format!("drew {got:?} mutation pairs for {PAIR_MIX:?}"));
    }
    let mut kinds: Vec<usize> = PAIR_MIX
        .iter()
        .enumerate()
        .flat_map(|(kind, &pairs)| std::iter::repeat_n(kind, pairs))
        .collect();
    kinds.shuffle(rng);
    let mut next = [0usize; 4];
    let mut out = Vec::with_capacity(STREAM);
    for kind in kinds {
        let (id, w) = drawn[kind][next[kind] % drawn[kind].len()];
        next[kind] += 1;
        let e = g.edge(id);
        let (u, v) = (e.u.0, e.v.0);
        out.push(JournalMutation::SetWeight { u, v, w });
        out.push(JournalMutation::SetWeight { u, v, w: e.w.0 });
    }
    Ok(out)
}

impl Instance {
    /// One op; `None` when a stage errors or the read does not accept.
    fn op(&mut self, k: usize, tr: &mut Tracer) -> (u64, Option<(DeltaOutcome, usize, u64, u64)>) {
        let mutation = self.stream[k];
        let JournalMutation::SetWeight { u, v, w } = mutation else {
            unreachable!("the stream holds SetWeight mutations only")
        };
        let (dm, engine) = (&mut self.dm, &self.engine);
        tr.next_op();
        let h = tr.open("op");
        let t = Instant::now();
        let out = tr
            .span("dyn.apply", || dm.apply(mutation))
            .ok()
            .and_then(|rec| {
                let bytes = tr.span("store.delta_encode", || rec.to_bytes());
                tr.span("store.apply_delta", || engine.apply_delta(&rec))
                    .ok()?;
                let read = tr.span("store.read", || {
                    engine.query(Query::VerifyEdge {
                        u: NodeId(u),
                        v: NodeId(v),
                        w: Weight(w),
                    })
                });
                matches!(read, Ok(Answer::VerifyEdge { accept: true, .. }))
                    .then_some((rec, bytes.len()))
            });
        let ns = t.elapsed().as_nanos() as u64;
        tr.close(h);
        let counted = out.map(|(rec, bytes)| {
            let rows = rec.tree.len() + rec.max.len() + rec.flow.len() + rec.dist.len();
            (
                rec.outcome,
                bytes,
                rows as u64,
                rec.dirty_nodes().len() as u64,
            )
        });
        (ns, counted)
    }

    /// The checkpoint: the engine's bytes against a fresh build.
    fn checkpoint(&self) -> Result<usize, String> {
        let g = self.dm.graph();
        let tree =
            RootedTree::from_graph_edges(g, &kruskal(g), NodeId(0)).map_err(|e| e.to_string())?;
        let fresh = Snapshot::build(&tree, SepFieldCodec::EliasGamma);
        let (same, bits) = self.engine.with_snapshot(|s| {
            let bits = (0..s.num_nodes() as usize)
                .map(|v| {
                    let dist = s.dist().map_or(0, |d| d.labels[v].len());
                    s.max_labels()[v]
                        .len()
                        .max(s.flow_labels()[v].len())
                        .max(dist)
                })
                .max()
                .unwrap_or(0);
            (s.to_bytes() == fresh.to_bytes(), bits)
        });
        if same {
            Ok(bits)
        } else {
            Err("engine snapshot differs from a fresh build".to_owned())
        }
    }
}

fn setup(opts: &Opts, tr: &mut Tracer) -> Result<Instance, String> {
    let (graph, stream) = tr.span("setup.instance", || {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let g = gen::random_connected(
            NODES,
            EXTRA,
            gen::WeightDist::Uniform { max: MAX_WEIGHT },
            &mut rng,
        );
        let stream = stream(&g, &mut rng);
        (g, stream)
    });
    let stream = stream?;
    let mut inst = tr.span("setup.build", || {
        let dm = DynMarker::new(graph, SepFieldCodec::EliasGamma).map_err(|e| e.to_string())?;
        let engine = QueryEngine::new(dm.snapshot(), EngineConfig::default());
        Ok::<_, String>(Instance { stream, dm, engine })
    })?;
    let h = tr.open("setup.warmup");
    for k in 0..WARMUP_OPS {
        if inst.op(k, tr).1.is_none() {
            return Err(format!("warm-up mutation {k} failed"));
        }
    }
    tr.close(h);
    Ok(inst)
}

/// Whole passes until `budget` has passed; per-op classes by op id.
fn phase(
    inst: &mut Instance,
    tr: &mut Tracer,
    budget: Duration,
    passes: &mut Vec<Result<PassCounts, String>>,
    classes: &mut BTreeMap<u64, usize>,
) -> Samples {
    let start = Instant::now();
    let mut s = Samples::default();
    while s.ops() == 0 || start.elapsed() < budget {
        let mut counts = PassCounts::default();
        let mut bytes_each = Vec::with_capacity(STREAM);
        for k in 0..STREAM {
            crate::host::tick();
            let at = Instant::now();
            let (ns, out) = inst.op(k, tr);
            s.push(at, ns, 1, out.is_some());
            if let Some((outcome, bytes, rows, dirty)) = out {
                counts.classes[outcome as usize] += 1;
                bytes_each.push(bytes as u64);
                counts.rows += rows;
                counts.dirty += dirty;
                classes.insert(tr.current_op(), outcome as usize);
            }
        }
        bytes_each.sort_unstable();
        counts.delta_bytes_median = bytes_each.get(bytes_each.len() / 2).copied().unwrap_or(0);
        passes.push(inst.checkpoint().map(|bits| PassCounts {
            label_bits_max: bits,
            ..counts
        }));
    }
    s
}

pub fn run(opts: &Opts, tr: &mut Tracer) -> Result<Report, String> {
    let (mut inst, setups) = crate::timed_setups(tr, |tr| setup(opts, tr))?;
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut passes = Vec::new();
    let mut classes = BTreeMap::new();
    let (halves, untraced) = if tr.on() {
        let halves = Halves::run(tr, budget, |tr, budget, _| {
            phase(&mut inst, tr, budget, &mut passes, &mut classes)
        });
        (Some(halves), None)
    } else {
        let s = phase(&mut inst, tr, budget, &mut passes, &mut classes);
        (None, Some(s))
    };

    // Every pass replays the same stream from the same instance, so its
    // counts must repeat exactly.
    let mut notes = Vec::new();
    let first = match passes.first() {
        Some(Ok(c)) => *c,
        _ => PassCounts::default(),
    };
    for (i, pass) in passes.iter().enumerate() {
        match pass {
            Ok(c) if *c == first => {}
            Ok(c) => notes.push(format!(
                "pass {i} counts {c:?} differ from pass 0's {first:?}"
            )),
            Err(e) => notes.push(format!("pass {i} checkpoint: {e}")),
        }
    }
    let checks_ok = notes.is_empty();
    notes.push(format!(
        "{} passes of {STREAM} mutations; outcome mix per pass: {}",
        passes.len(),
        CLASSES
            .iter()
            .zip(first.classes)
            .map(|(name, n)| format!("{name} {n}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    let mut metrics = BTreeMap::new();
    let samples = match (halves, untraced) {
        (Some(halves), _) => {
            let traced = |op: u64| halves.traced_op(op);
            for (span, metric) in [
                ("dyn.apply", "dyn.apply_ms"),
                ("store.delta_encode", "store.delta_encode_ms"),
                ("store.apply_delta", "store.apply_delta_ms"),
                ("store.read", "store.read_ms"),
            ] {
                metrics.insert(metric, crate::span_median_ms(tr, span, traced)?);
            }
            let by_class = [
                ("dyn.apply_noop_ms", "dyn.noop_count"),
                ("dyn.apply_weights_only_ms", "dyn.weights_only_count"),
                ("dyn.apply_tree_swap_ms", "dyn.tree_swap_count"),
                ("dyn.apply_reencode_ms", "dyn.reencode_count"),
            ];
            for (class, (time, count)) in by_class.into_iter().enumerate() {
                let in_class = |op: u64| traced(op) && classes.get(&op) == Some(&class);
                metrics.insert(time, crate::span_center_ms(tr, "dyn.apply", in_class));
                metrics.insert(count, first.classes[class] as f64);
            }
            metrics.insert("dyn.rows_per_delta", first.rows as f64 / STREAM as f64);
            metrics.insert(
                "store.dirty_nodes_per_delta",
                first.dirty as f64 / STREAM as f64,
            );
            halves.finish(tr, &mut metrics, &mut notes)?
        }
        (None, Some(s)) => {
            metrics = crate::end_to_end(
                &s,
                STREAM,
                &setups,
                first.label_bits_max as f64,
                first.delta_bytes_median as f64,
                &mut notes,
            )?;
            s
        }
        (None, None) => unreachable!("one of the two modes ran"),
    };
    Ok(Report::new(&samples, checks_ok, metrics, notes))
}
