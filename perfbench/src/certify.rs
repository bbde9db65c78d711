//! `certify`: the paper's marker and local verifier plus the persistence
//! chain, from edge-list text to a memory-mapped v2 snapshot.
//!
//! One op: `parse_edge_list` → `kruskal` → `tree_states` +
//! `ConfigGraph::new` → `MstScheme::marker_parallel` → `verify_all` →
//! `RootedTree::from_graph_edges` → `Snapshot::build_parallel` →
//! `to_bytes_format(V2)` → file write → `Snapshot::open_mmap`, with every
//! parallel stage at its default worker count: the CPUs the process may
//! use, which is one under the benchmark's pin. An op passes when
//! `verify_all` accepts, the v2 bytes equal the first warm-up op's, and
//! the mapped file holds every node. `MappedSnapshot::fsck` checks the
//! mapped labels against the path oracle on the warm-up op and on the
//! last timed op, outside the timed interval.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mstv_core::{MstScheme, ProofLabelingScheme};
use mstv_graph::io::{parse_edge_list, to_edge_list};
use mstv_graph::{gen, tree_states, ConfigGraph, NodeId};
use mstv_labels::SepFieldCodec;
use mstv_mst::kruskal;
use mstv_store::{MappedSnapshot, Snapshot, SnapshotFormat};
use mstv_trees::{ParallelConfig, RootedTree};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Tracer;
use crate::{Halves, Opts, Report, Samples};

const NODES: usize = 10_000;
/// Extra edges beyond the spanning tree: m ≈ 3n.
const EXTRA: usize = 2 * NODES;
const MAX_WEIGHT: u64 = 1 << 20;
/// Warm-up ops per setup; the first one's bytes are the reference.
const WARMUP_OPS: usize = 2;
/// Sampled answer pairs per fsck.
const FSCK_PAIRS: usize = 2048;
/// Ops per throughput window.
const WINDOW: usize = 10;

struct Instance {
    text: String,
    path: PathBuf,
    reference: Vec<u8>,
    labels: LabelStats,
}

/// Sizes of the π_mst labeling, counted on a warm-up op.
#[derive(Default)]
struct LabelStats {
    max_bits: usize,
    total_bits: usize,
    /// Span, separator, ω and orientation fields over all labels.
    fields: usize,
}

/// What one op produced, for its check.
struct Certified {
    accepted: bool,
    bytes: Vec<u8>,
    mapped: MappedSnapshot,
}

/// One op; fills `stats` when given (warm-up ops only, as the count is
/// not part of the measured work).
fn op(
    text: &str,
    path: &Path,
    tr: &mut Tracer,
    stats: Option<&mut LabelStats>,
) -> Result<Certified, String> {
    let pc = ParallelConfig::default();
    let g = tr
        .span("graph.parse", || parse_edge_list(text))
        .map_err(|e| e.to_string())?;
    let mst = tr.span("mst.kruskal", || kruskal(&g));
    let cfg = tr
        .span("core.configure", || {
            tree_states(&g, &mst, NodeId(0)).and_then(|states| ConfigGraph::new(g, states))
        })
        .map_err(|e| e.to_string())?;
    let scheme = MstScheme::new();
    let labeling = tr
        .span("core.marker", || scheme.marker_parallel(&cfg, pc))
        .map_err(|e| e.to_string())?;
    let verdict = tr.span("core.verify_all", || scheme.verify_all(&cfg, &labeling));
    let tree = tr
        .span("trees.rooted_tree", || {
            RootedTree::from_graph_edges(cfg.graph(), &mst, NodeId(0))
        })
        .map_err(|e| e.to_string())?;
    let snap = tr.span("store.snapshot_build", || {
        Snapshot::build_parallel(&tree, SepFieldCodec::EliasGamma, pc)
    });
    let bytes = tr.span("store.encode", || snap.to_bytes_format(SnapshotFormat::V2));
    tr.span("store.write", || std::fs::write(path, &bytes))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let mapped = tr
        .span("store.open_mmap", || Snapshot::open_mmap(path))
        .map_err(|e| e.to_string())?;
    if let Some(stats) = stats {
        *stats = LabelStats {
            max_bits: labeling.max_label_bits(),
            total_bits: labeling.total_bits(),
            fields: labeling
                .labels()
                .iter()
                .map(|l| 4 + l.gamma.sep.len() + l.gamma.omega.len() + l.orient.len())
                .sum(),
        };
    }
    Ok(Certified {
        accepted: verdict.accepted(),
        bytes,
        mapped,
    })
}

fn fsck(mapped: &MappedSnapshot) -> Result<(), String> {
    let report = mapped.fsck(FSCK_PAIRS).map_err(|e| format!("fsck: {e}"))?;
    if report.nodes as usize != NODES || report.pairs_checked == 0 {
        return Err(format!(
            "fsck covered {} nodes and {} pairs",
            report.nodes, report.pairs_checked
        ));
    }
    Ok(())
}

fn setup(opts: &Opts, tr: &mut Tracer) -> Result<Instance, String> {
    let text = tr.span("setup.instance", || {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let g = gen::random_connected(
            NODES,
            EXTRA,
            gen::WeightDist::Uniform { max: MAX_WEIGHT },
            &mut rng,
        );
        to_edge_list(&g)
    });
    let path = opts.tmp_dir.join("certify.snap");
    let h = tr.open("setup.warmup");
    let mut labels = LabelStats::default();
    let first = op(&text, &path, tr, Some(&mut labels))?;
    if !first.accepted {
        return Err("warm-up op: verify_all rejected the marker's labels".to_owned());
    }
    fsck(&first.mapped)?;
    let reference = first.bytes;
    drop(first.mapped);
    for _ in 1..WARMUP_OPS {
        if op(&text, &path, tr, None)?.bytes != reference {
            return Err("warm-up ops disagree on the snapshot bytes".to_owned());
        }
    }
    tr.close(h);
    Ok(Instance {
        text,
        path,
        reference,
        labels,
    })
}

/// Runs timed ops for `budget`; the last op's mapped snapshot is kept
/// for the closing fsck.
fn phase(
    inst: &Instance,
    tr: &mut Tracer,
    budget: Duration,
    min_ops: usize,
    last: &mut Option<MappedSnapshot>,
) -> Samples {
    crate::closed_loop(budget, min_ops, |_| {
        // The previous op's map must be gone before its file is rewritten.
        drop(last.take());
        tr.next_op();
        let h = tr.open("op");
        let t = Instant::now();
        let out = op(&inst.text, &inst.path, tr, None);
        let ns = t.elapsed().as_nanos() as u64;
        tr.close(h);
        match out {
            Ok(c) => {
                let ok = c.accepted
                    && c.bytes == inst.reference
                    && c.mapped.num_nodes() as usize == NODES;
                *last = Some(c.mapped);
                (ns, NODES as u64, ok)
            }
            Err(_) => (ns, NODES as u64, false),
        }
    })
}

pub fn run(opts: &Opts, tr: &mut Tracer) -> Result<Report, String> {
    let (inst, setups) = crate::timed_setups(tr, |tr| setup(opts, tr))?;
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut last = None;
    let mut notes = Vec::new();
    let (samples, metrics) = if tr.on() {
        let halves = Halves::run(tr, budget, |tr, budget, min_ops| {
            phase(&inst, tr, budget, min_ops, &mut last)
        });
        let mut metrics = BTreeMap::new();
        for (span, metric) in [
            ("graph.parse", "graph.parse_ms"),
            ("mst.kruskal", "mst.kruskal_ms"),
            ("core.configure", "core.configure_ms"),
            ("core.marker", "core.marker_ms"),
            ("core.verify_all", "core.verify_all_ms"),
            ("trees.rooted_tree", "trees.rooted_tree_ms"),
            ("store.snapshot_build", "store.snapshot_build_ms"),
            ("store.encode", "store.encode_ms"),
            ("store.write", "store.write_ms"),
            ("store.open_mmap", "store.open_mmap_ms"),
        ] {
            let median = crate::span_median_ms(tr, span, |op| halves.traced_op(op))?;
            metrics.insert(metric, median);
        }
        metrics.insert("labels.bits_total", inst.labels.total_bits as f64);
        metrics.insert("labels.fields_total", inst.labels.fields as f64);
        metrics.insert("store.snapshot_bytes", inst.reference.len() as f64);
        (halves.finish(tr, &mut metrics, &mut notes)?, metrics)
    } else {
        let s = phase(&inst, tr, budget, crate::MIN_OPS, &mut last);
        let m = crate::end_to_end(
            &s,
            WINDOW,
            &setups,
            inst.labels.max_bits as f64,
            inst.reference.len() as f64 / NODES as f64,
            &mut notes,
        )?;
        (s, m)
    };
    let fsck = last
        .as_ref()
        .map_or(Err("no op produced a snapshot".to_owned()), fsck);
    if let Err(e) = &fsck {
        notes.push(format!("closing fsck: {e}"));
    }
    Ok(Report::new(&samples, fsck.is_ok(), metrics, notes))
}
