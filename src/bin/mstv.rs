//! `mstv` — command-line front end for the MST verification toolkit.
//!
//! ```text
//! mstv gen --nodes 64 --extra 128 --max-weight 1000 --seed 7 > net.txt
//! mstv mst net.txt > tree.txt
//! mstv label net.txt
//! mstv verify net.txt tree.txt
//! mstv sensitivity net.txt
//! mstv session net.txt script.txt
//! mstv dot net.txt
//! ```
//!
//! Graphs are plain edge lists (`u v w` per line, `#` comments, optional
//! `nodes N` header); trees are endpoint pairs (`u v` per line).
//! Mutation scripts are one mutation per line (see `mstv session`).

use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use mst_verification::core::{MstScheme, Mutation, ProofLabelingScheme, VerifySession};
use mst_verification::dynmark::DynMarker;
use mst_verification::graph::io::{parse_edge_list, parse_tree_file, to_edge_list};
use mst_verification::graph::{
    dot::to_dot, gen, tree_states, ConfigGraph, EdgeId, NodeId, Port, Weight,
};
use mst_verification::labels::SepFieldCodec;
use mst_verification::mst::{check_mst, kruskal, mst_weight, MstVerdict};
use mst_verification::sensitivity::{sensitivity, EdgeSensitivity};
use mst_verification::serve::{Client, ServeConfig, ServerHandle};
use mst_verification::store::proto::ErrorCode;
use mst_verification::store::{
    Answer, DeltaOutcome, EngineConfig, Journal, JournalMutation, Query, QueryEngine, Snapshot,
    SnapshotFormat, JOURNAL_MAGIC,
};
use mst_verification::trees::{ParallelConfig, PathMaxIndex, RootedTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `print!` for command output. Once stdout is found closed
/// (`mstv gen … | head -1`: the reader has all it wants), the rest of
/// the output is dropped where `print!` would panic, and the command
/// runs to its end (a `--log` or snapshot file is still written) and
/// exits with its own status. Any other write error exits with status 1
/// and one `mstv:` line.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// [`out!`] with a trailing newline, for `println!`.
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Set once a write finds stdout closed; it publishes no other data.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
            return;
        }
        eprintln!("mstv: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

const USAGE: &str = "usage:
  mstv gen --nodes N [--extra M] [--max-weight W] [--seed S]
      generate a random connected graph (edge list on stdout)
  mstv mst <graph-file>
      compute an MST (endpoint pairs on stdout)
  mstv label <graph-file>
      compute an MST, assign π_mst proof labels, report sizes
  mstv verify <graph-file> <tree-file>
      check whether the tree is an MST, sequentially and via labels
  mstv sensitivity <graph-file>
      per-edge sensitivity report
  mstv session <graph-file> <script-file>
      label the graph's MST, replay a mutation script through an
      incremental VerifySession, print per-step verdicts and metrics
      JSON; script lines are one of
        setweight <edge> <weight>
        corrupt <node> <from-node>   (forge <node>'s label from another)
        flip <node> <port|root>
        restore <node>
  mstv net --nodes N [--extra M] [--max-weight W] [--seed S]
           [--drop P] [--dup P] [--delay D] [--crash P] [--max-crashes K]
           [--fault none|weight|pointer|label] [--adversary SPEC]
           [--max-rounds R] [--log FILE] [--workers N]
      run the one-round verification protocol on the concurrent
      runtime: serialized label frames on a lossy link (drop/duplicate
      probabilities, bounded random delay, crash-restarts). Every node
      runs on a pool of --workers workers (default: the host's
      parallelism), the calling thread among them, so --workers 1
      starts no thread; the pool size changes no verdict, cost, or log.
      --adversary layers an adversarial schedule on the link: sections of
        forge:class=root|omega|bits,k=K   Byzantine forgery at K nodes
        partition:start=R,heal=R          healing partition window
        reorder:window=W                  worst-case frame reordering
        churn:rate=P,away=R,cap=K         join/leave churn
      joined by ';' plus a mandatory seed=S, e.g.
      --adversary 'forge:class=root,k=2;reorder:window=8;seed=7'.
      --max-rounds bounds the retransmission boundaries (default 10000)
      before the run gives up. Prints the verdict and the MessageCost
      JSON, whose rounds are causal depth (1 on a perfect link); --log
      saves a replayable event log (the spec rides a header, so replays
      reconstruct forged labelings exactly)
  mstv net --compute --nodes N [--extra M] [--max-weight W] [--seed S]
           [--drop P] [--dup P] [--delay D] [--crash P] [--max-crashes K]
           [--adversary SPEC] [--max-rounds R] [--log FILE] [--workers N]
      build the MST and its π_mst labels *on the network*: GHS
      fragments merge into the tree, a distributed marker labels it,
      and every node verifies what was built — no centralized step.
      Prints the verdict, the MessageCost JSON, and the per-phase
      (ghs/marker/verify) split, each phase charged the causal rounds
      it adds; --log saves a replayable event log
  mstv net --replay <log-file>
      re-run a saved event log deterministically on one thread and
      cross-check verdict and counts against the recorded run; logs of
      another format version (mstv-net-log v1, v2 or v3) are refused
      (verification and construction logs alike; construction logs
      also rebuild the tree and labels)
  mstv snapshot write <graph-file> <out.snap> [--codec gamma|fixed] [--threads N]
           [--no-dist] [--format v1|v2]
      compute the graph's MST and persist the marked tree plus its full
      MAX/FLOW/DIST label stack as a CRC-checked binary snapshot;
      --format v2 writes columnar label sections (an offsets table plus
      one contiguous bit payload per section) that mmap-mode readers
      serve zero-copy
  mstv snapshot write --from-net <log-file> <out.snap> [--codec gamma|fixed]
           [--threads N] [--no-dist] [--format v1|v2]
      same, but from a `mstv net --compute --log` event log: replay the
      construction run and snapshot the tree the network built —
      byte-identical to the snapshot of the same graph's local MST
  mstv snapshot inspect <file.snap>
      print the snapshot header and per-section statistics
  mstv snapshot fsck <file.snap> [--pairs N]
      deep-check a snapshot: CRCs, framing, every label record decoded,
      and N decoded answers cross-checked against a fresh path oracle.
      Given a delta journal instead (detected by magic), --base <file.snap>
      names its base snapshot; fsck then walks every record and
      deep-checks the compacted result
  mstv mutate <graph-file> --gen N [--seed S] [--max-weight W]
      emit a seeded random mutation stream for the graph (one per line:
      `set u v w` reweights the edge (u, v); `swap u1 v1 u2 v2`
      exchanges two edges' weights)
  mstv mutate <graph-file> --stream <muts-file> --journal <out.jrnl>
           [--codec gamma|fixed] [--emit-graph <out-file>] [--verify-rebuild]
      run the stream through the incremental marker and write the
      MSTVSNAP delta journal: a base-snapshot anchor plus one
      CRC-framed record per mutation. --emit-graph saves the mutated
      edge list; --verify-rebuild asserts after every mutation that the
      incremental snapshot is byte-identical to a from-scratch rebuild
  mstv mutate --compact <base.snap> <journal.jrnl> <out.snap>
      fold a delta journal into its base snapshot; the output is
      byte-identical to `mstv snapshot write` on the mutated graph
  mstv query <file.snap> max|flow|dist <u> <v>
  mstv query <file.snap> verify <u> <v> <w>
      answer one query from the stored labels alone (verify runs the
      MST cycle check: accept iff w ≥ MAX(u, v)); --mmap serves label
      bytes straight from a memory map of the file (fastest with
      --format v2 snapshots, which need no load-time repacking)
  mstv query <file.snap> --batch <query-file> [--mmap]
      one query per line (same syntax), answers in order, then serving
      metrics JSON
  mstv query <file.snap> --bench [--queries N] [--seed X]
           [--verify-against <graph-file>] [--mmap]
      throughput benchmark over seeded random queries; prints
      ServeMetrics JSON; --verify-against cross-checks every answer
      against an in-memory oracle rebuilt from the graph
  mstv serve --snapshot <file.snap> [--port P] [--workers N]
           [--queue-depth D] [--max-conns M] [--mmap]
      serve the snapshot's labels over TCP (wire protocol v1) on
      127.0.0.1; --port 0 picks an ephemeral port. --workers threads
      answer queued requests, one batch each. Prints the bound
      address, then runs until a client sends --shutdown-server.
      --mmap memory-maps the snapshot (and every hot-swapped
      replacement); mapped generations reject delta applies as
      read-only
  mstv query --connect <host:port> max|flow|dist <u> <v>
  mstv query --connect <host:port> verify <u> <v> <w>
  mstv query --connect <host:port> --batch <query-file>
      answer queries from a running `mstv serve` instead of a local
      snapshot (same query syntax and output line format)
  mstv query --connect <host:port> --stats|--swap <file.snap>|--shutdown-server
      admin operations: stats JSON, atomic hot snapshot swap (path is
      on the server's filesystem), clean shutdown
  mstv dot <graph-file> [<tree-file>]
      Graphviz DOT rendering (tree edges bold)";

/// Runs the named command. A missing or unknown command is the one
/// error that prints the usage text: every other error is about the
/// command's input, and its one line says all there is to say.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("mstv: missing command\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let run = match cmd.as_str() {
        "gen" => cmd_gen,
        "mst" => cmd_mst,
        "label" => cmd_label,
        "verify" => cmd_verify,
        "sensitivity" => cmd_sensitivity,
        "session" => cmd_session,
        "net" => cmd_net,
        "snapshot" => cmd_snapshot,
        "mutate" => cmd_mutate,
        "query" => cmd_query,
        "serve" => cmd_serve,
        "dot" => cmd_dot,
        other => {
            eprintln!("mstv: unknown command {other:?}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args[1..]) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mstv: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Parses a number at the width it is used at, so a value that does not
/// fit (`4294967297` for a node id, `65536` for a port) is refused with
/// an error naming `what` instead of being truncated into another value.
fn parse_num<T>(word: &str, what: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    word.parse()
        .map_err(|e| format!("{what}: bad number {word:?}: {e}"))
}

/// The value of flag `name`, parsed by [`parse_num`], or `None` if the
/// flag is absent.
fn flag_value<T>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    match args.iter().position(|a| a == name) {
        Some(i) => {
            let raw = args
                .get(i + 1)
                .ok_or_else(|| format!("{name} needs a value"))?;
            parse_num(raw, name).map(Some)
        }
        None => Ok(None),
    }
}

/// The value of flag `name` as a count that must be positive, or `None`
/// if the flag is absent; zero fails with an error naming the flag.
fn flag_positive(args: &[String], name: &str) -> Result<Option<NonZeroUsize>, String> {
    flag_value(args, name)?
        .map(|v| NonZeroUsize::new(v).ok_or_else(|| format!("{name} must be a positive integer")))
        .transpose()
}

fn load_graph(path: &str) -> Result<mst_verification::graph::Graph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let g = parse_edge_list(&text).map_err(|e| format!("{path}: {e}"))?;
    // `is_connected` holds vacuously for no node, but no node hangs no
    // tree, and every caller needs one.
    if g.num_nodes() == 0 {
        return Err(format!("{path}: graph has no nodes"));
    }
    if !g.is_connected() {
        return Err(format!("{path}: graph is not connected"));
    }
    Ok(g)
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    reject_unknown_flags(args, &["--nodes", "--extra", "--max-weight", "--seed"], &[])?;
    let n: usize = flag_value(args, "--nodes")?.ok_or("--nodes is required")?;
    if n == 0 {
        return Err("--nodes must be positive".to_owned());
    }
    let extra = flag_value(args, "--extra")?.unwrap_or(2 * n);
    let max_w = flag_value(args, "--max-weight")?.unwrap_or(1000);
    let seed = flag_value(args, "--seed")?.unwrap_or(0);
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::random_connected(n, extra, gen::WeightDist::Uniform { max: max_w }, &mut rng);
    out!("{}", to_edge_list(&g));
    Ok(())
}

fn cmd_mst(args: &[String]) -> Result<(), String> {
    reject_unknown_flags(args, &[], &[])?;
    let path = args.first().ok_or("missing graph file")?;
    let g = load_graph(path)?;
    let t = kruskal(&g);
    outln!(
        "# MST: {} edges, total weight {}",
        t.len(),
        mst_weight(&g, &t)
    );
    for &e in &t {
        let edge = g.edge(e);
        outln!("{} {}", edge.u.0, edge.v.0);
    }
    Ok(())
}

fn cmd_label(args: &[String]) -> Result<(), String> {
    reject_unknown_flags(args, &[], &[])?;
    let path = args.first().ok_or("missing graph file")?;
    let g = load_graph(path)?;
    let n = g.num_nodes();
    let cfg = mst_verification::core::mst_configuration(g);
    let scheme = MstScheme::new();
    let labeling = scheme.marker(&cfg).map_err(|e| e.to_string())?;
    let verdict = scheme.verify_all(&cfg, &labeling);
    outln!("π_mst labels for {} nodes:", n);
    outln!("  max label: {} bits", labeling.max_label_bits());
    outln!("  total:     {} bits", labeling.total_bits());
    outln!("  self-check: {verdict}");
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    reject_unknown_flags(args, &[], &[])?;
    let gpath = args.first().ok_or("missing graph file")?;
    let tpath = args.get(1).ok_or("missing tree file")?;
    let g = load_graph(gpath)?;
    let ttext = std::fs::read_to_string(tpath).map_err(|e| format!("cannot read {tpath}: {e}"))?;
    let t = parse_tree_file(&g, &ttext).map_err(|e| format!("{tpath}: {e}"))?;
    // Sequential verdict.
    match check_mst(&g, &t) {
        MstVerdict::Mst => outln!("sequential check: MST ✓"),
        MstVerdict::NotSpanningTree => {
            outln!("sequential check: not a spanning tree ✗");
            return Ok(());
        }
        MstVerdict::CycleViolation {
            non_tree_edge,
            weight,
            max_on_path,
        } => {
            let e = g.edge(non_tree_edge);
            outln!(
                "sequential check: not minimum ✗ (edge {} {} of weight {weight} undercuts path max {max_on_path})",
                e.u.0, e.v.0
            );
        }
    }
    // Distributed verdict through the labels.
    let states = tree_states(&g, &t, NodeId(0)).map_err(|e| e.to_string())?;
    let cfg = ConfigGraph::new(g, states).map_err(|e| e.to_string())?;
    let scheme = MstScheme::new();
    match scheme.marker(&cfg) {
        Ok(labeling) => {
            let verdict = scheme.verify_all(&cfg, &labeling);
            outln!("distributed check: {verdict}");
        }
        Err(e) => outln!("distributed check: marker refuses — {e}"),
    }
    Ok(())
}

fn cmd_sensitivity(args: &[String]) -> Result<(), String> {
    reject_unknown_flags(args, &[], &[])?;
    let path = args.first().ok_or("missing graph file")?;
    let g = load_graph(path)?;
    let t = kruskal(&g);
    let report = sensitivity(&g, &t);
    outln!("# u v weight kind slack");
    for (e, edge) in g.edges() {
        match report[e.index()] {
            EdgeSensitivity::Tree { increase: Some(c) } => {
                outln!("{} {} {} tree +{c}", edge.u.0, edge.v.0, edge.w);
            }
            EdgeSensitivity::Tree { increase: None } => {
                outln!("{} {} {} bridge inf", edge.u.0, edge.v.0, edge.w);
            }
            EdgeSensitivity::NonTree { decrease } => {
                outln!("{} {} {} alt -{decrease}", edge.u.0, edge.v.0, edge.w);
            }
        }
    }
    Ok(())
}

fn cmd_session(args: &[String]) -> Result<(), String> {
    reject_unknown_flags(args, &[], &[])?;
    let gpath = args.first().ok_or("missing graph file")?;
    let spath = args.get(1).ok_or("missing script file")?;
    let g = load_graph(gpath)?;
    let script = std::fs::read_to_string(spath).map_err(|e| format!("cannot read {spath}: {e}"))?;
    let cfg = mst_verification::core::mst_configuration(g);
    let mut session =
        VerifySession::new(MstScheme::new(), cfg).map_err(|e| format!("marker: {e}"))?;
    outln!("initial: {}", session.verdict());
    for (lineno, line) in script.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let loc = format!("{spath}:{}", lineno + 1);
        let words: Vec<&str> = line.split_whitespace().collect();
        let mutation = match words.as_slice() {
            ["setweight", e, w] => Mutation::SetWeight {
                edge: EdgeId(parse_num(e, &loc)?),
                weight: Weight(parse_num(w, &loc)?),
            },
            ["corrupt", v, from] => {
                let from = NodeId(parse_num(from, &loc)?);
                let label = session
                    .labeling()
                    .try_label(from)
                    .ok_or_else(|| format!("{loc}: node {from} out of range"))?
                    .clone();
                Mutation::CorruptLabel {
                    node: NodeId(parse_num(v, &loc)?),
                    label,
                }
            }
            ["flip", v, "root"] => Mutation::FlipTreeEdge {
                node: NodeId(parse_num(v, &loc)?),
                new_parent: None,
            },
            ["flip", v, p] => Mutation::FlipTreeEdge {
                node: NodeId(parse_num(v, &loc)?),
                new_parent: Some(Port(parse_num(p, &loc)?)),
            },
            ["restore", v] => Mutation::RestoreLabel {
                node: NodeId(parse_num(v, &loc)?),
            },
            _ => return Err(format!("{loc}: cannot parse mutation {line:?}")),
        };
        let verdict = session.apply(mutation).map_err(|e| format!("{loc}: {e}"))?;
        outln!("{line}: {verdict}");
    }
    outln!("{}", session.metrics().to_json());
    Ok(())
}

/// Parameters a net run needs to rebuild its instance, as recorded in
/// (and recovered from) the event log's provenance headers.
struct NetInstanceParams {
    nodes: usize,
    extra: usize,
    max_weight: u64,
    seed: u64,
    fault: String,
}

impl NetInstanceParams {
    fn to_headers(&self, log: &mut mst_verification::net::EventLog) {
        log.push_header("nodes", self.nodes);
        log.push_header("extra", self.extra);
        log.push_header("max-weight", self.max_weight);
        log.push_header("seed", self.seed);
        log.push_header("fault", &self.fault);
    }

    fn from_headers(log: &mst_verification::net::EventLog) -> Result<Self, String> {
        fn get<T: std::str::FromStr>(
            log: &mst_verification::net::EventLog,
            key: &str,
        ) -> Result<T, String> {
            log.header(key)
                .ok_or_else(|| format!("log lacks header {key:?}"))?
                .parse()
                .map_err(|_| format!("log header {key:?} is malformed"))
        }
        Ok(NetInstanceParams {
            nodes: get(log, "nodes")?,
            extra: get(log, "extra")?,
            max_weight: get(log, "max-weight")?,
            seed: get(log, "seed")?,
            fault: get(log, "fault")?,
        })
    }

    /// The instance topology alone — what a construction run starts
    /// from. `rng` continues past the graph so [`Self::build`] can draw
    /// fault targets from the same stream.
    fn graph(&self, rng: &mut StdRng) -> mst_verification::graph::Graph {
        gen::random_connected(
            self.nodes,
            self.extra,
            gen::WeightDist::Uniform {
                max: self.max_weight,
            },
            rng,
        )
    }

    /// Rebuilds the instance: graph, configuration, labels, and the
    /// injected fault — all deterministic functions of the parameters,
    /// so a replay reconstructs exactly what the live run verified.
    fn build(
        &self,
    ) -> Result<
        (
            ConfigGraph<mst_verification::graph::TreeState>,
            mst_verification::core::Labeling<mst_verification::core::MstLabel>,
        ),
        String,
    > {
        use mst_verification::core::{encode_mst_label, faults, SpanCodec};
        use mst_verification::labels::{LabelCodec, SepFieldCodec};

        let mut rng = StdRng::seed_from_u64(self.seed);
        let g = self.graph(&mut rng);
        let mut cfg = mst_verification::core::mst_configuration(g);
        // Labels certify the pre-fault MST: state/weight faults are
        // what the certificate is supposed to catch.
        let mut labeling = MstScheme::new()
            .marker(&cfg)
            .map_err(|e| format!("marker: {e}"))?;
        match self.fault.as_str() {
            "none" => {}
            "weight" => {
                faults::break_minimality(&mut cfg, &mut rng)
                    .ok_or("graph admits no minimality-breaking weight fault")?;
            }
            "pointer" => {
                faults::retarget_pointer(&mut cfg, &mut rng)
                    .ok_or("graph admits no pointer fault")?;
            }
            "label" => {
                let victim = NodeId(self.nodes as u32 / 2);
                let mut labels = labeling.labels().to_vec();
                labels[victim.index()].span.dist += 1;
                let span_codec = SpanCodec::for_config(&cfg);
                let gamma_codec = LabelCodec {
                    sep_codec: SepFieldCodec::EliasGamma,
                    omega_bits: cfg.graph().max_weight().bit_width(),
                };
                let encoded = labels
                    .iter()
                    .map(|l| encode_mst_label(l, span_codec, gamma_codec))
                    .collect();
                labeling = mst_verification::core::Labeling::new(labels, encoded);
            }
            other => return Err(format!("unknown fault kind {other:?}")),
        }
        Ok((cfg, labeling))
    }
}

fn flag_f64(args: &[String], name: &str) -> Result<Option<f64>, String> {
    match args.iter().position(|a| a == name) {
        Some(i) => {
            let raw = args
                .get(i + 1)
                .ok_or_else(|| format!("{name} needs a value"))?;
            let v: f64 = raw
                .parse()
                .map_err(|e| format!("bad value for {name}: {e}"))?;
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be a probability in [0, 1]"));
            }
            Ok(Some(v))
        }
        None => Ok(None),
    }
}

fn flag_str(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn print_net_run(run: &mst_verification::net::NetRun) {
    outln!("verdict: {}", run.verdict);
    outln!("cost: {}", run.cost.to_json());
    if run.crash_restarts > 0 {
        outln!("crash-restarts: {}", run.crash_restarts);
    }
}

/// Flags shared by every live `mstv net` run (verification or
/// construction): the instance, the fault schedule, round budget, and
/// worker-pool size.
struct NetRunFlags {
    params: NetInstanceParams,
    profile: mst_verification::net::FaultProfile,
    net: mst_verification::net::NetConfig,
    engine: mst_verification::net::Engine,
    /// Decoupled from the instance RNG so the same topology can be
    /// rerun under different fault schedules.
    link_seed: u64,
    /// Adversarial schedule (`--adversary`), if any.
    adversary: Option<mst_verification::net::AdversarySpec>,
}

fn parse_net_run_flags(args: &[String]) -> Result<NetRunFlags, String> {
    use mst_verification::net::{Engine, FaultProfile, NetConfig};

    let nodes: usize = flag_value(args, "--nodes")?.ok_or("--nodes is required")?;
    if nodes == 0 {
        return Err("--nodes must be positive".to_owned());
    }
    let params = NetInstanceParams {
        nodes,
        extra: flag_value(args, "--extra")?.unwrap_or(2 * nodes),
        max_weight: flag_value(args, "--max-weight")?.unwrap_or(1000),
        seed: flag_value(args, "--seed")?.unwrap_or(0),
        fault: flag_str(args, "--fault").unwrap_or_else(|| "none".to_owned()),
    };
    let profile = FaultProfile {
        drop: flag_f64(args, "--drop")?.unwrap_or(0.0),
        duplicate: flag_f64(args, "--dup")?.unwrap_or(0.0),
        max_delay: flag_value(args, "--delay")?.unwrap_or(0),
        crash: flag_f64(args, "--crash")?.unwrap_or(0.0),
        max_crashes: flag_value(args, "--max-crashes")?.unwrap_or(8),
    };
    let net = NetConfig {
        max_rounds: flag_value(args, "--max-rounds")?.unwrap_or(10_000),
        record_log: true,
    };
    let engine = Engine::Events {
        workers: flag_positive(args, "--workers")?
            .map_or_else(ParallelConfig::default, ParallelConfig::with_threads),
    };
    let link_seed = params.seed ^ 0x9e37_79b9_7f4a_7c15;
    let adversary = flag_str(args, "--adversary")
        .map(|s| s.parse().map_err(|e| format!("--adversary: {e}")))
        .transpose()?;
    Ok(NetRunFlags {
        params,
        profile,
        net,
        engine,
        link_seed,
        adversary,
    })
}

impl NetRunFlags {
    /// Records run provenance in the log: instance parameters, fault
    /// knobs, link seed. The pool size is not recorded: every size
    /// records the identical log.
    fn to_headers(&self, log: &mut mst_verification::net::EventLog) {
        self.params.to_headers(log);
        log.push_header("drop", self.profile.drop);
        log.push_header("dup", self.profile.duplicate);
        log.push_header("delay", self.profile.max_delay);
        log.push_header("crash", self.profile.crash);
        log.push_header("max-crashes", self.profile.max_crashes);
        log.push_header("link-seed", self.link_seed);
        if let Some(spec) = &self.adversary {
            log.push_header("adversary", spec);
        }
    }

    /// The link this run's flags describe: the adversary schedule over
    /// the lossy base when `--adversary` was given, else the plain
    /// profile-driven link (perfect profiles shortcut to
    /// [`PerfectLink`](mst_verification::net::PerfectLink)).
    fn build_link(&self, n: usize) -> Box<dyn mst_verification::net::Link> {
        use mst_verification::net::{AdversaryLink, LossyLink, PerfectLink};
        match &self.adversary {
            Some(spec) => Box::new(AdversaryLink::new(*spec, self.profile, self.link_seed, n)),
            None if self.profile.is_perfect() => Box::new(PerfectLink),
            None => Box::new(LossyLink::new(self.profile, self.link_seed)),
        }
    }
}

/// Applies an adversary spec's forgery (if any) to a freshly built
/// labeling, reporting what was forged. Deterministic from the spec,
/// so a replay that re-runs this (from the `adversary` log header)
/// reconstructs the identical forged certificates the live run
/// verified.
fn apply_spec_forgery(
    spec: Option<&mst_verification::net::AdversarySpec>,
    cfg: &mst_verification::graph::ConfigGraph<mst_verification::graph::TreeState>,
    labeling: &mut mst_verification::core::Labeling<mst_verification::core::MstLabel>,
) -> Result<(), String> {
    let Some(spec) = spec else { return Ok(()) };
    let Some(forge) = spec.forge else {
        return Ok(());
    };
    let outcome =
        mst_verification::net::forge_labeling(cfg, labeling, forge.class, forge.k, spec.seed)
            .ok_or_else(|| {
                format!(
                    "no rejecting {} forgery with k={} exists on this instance \
                     (try another class, k, or seed)",
                    forge.class.name(),
                    forge.k
                )
            })?;
    outln!(
        "adversary: forged class={} at {} colluding node(s) {:?}",
        forge.class.name(),
        outcome.forgers.len(),
        outcome.forgers.iter().map(|v| v.0).collect::<Vec<_>>(),
    );
    Ok(())
}

/// Checks a replay's outcome against the log's recorded summary
/// trailer, reporting divergence as a hard error.
fn check_replay_summary(
    log: &mst_verification::net::EventLog,
    run: &mst_verification::net::NetRun,
) -> Result<(), String> {
    match &log.summary {
        Some(summary) => {
            if summary.rejecting == run.verdict.rejecting && summary.cost == run.cost {
                outln!("replay: matches the recorded run (verdict and counts identical)");
                Ok(())
            } else {
                Err(format!(
                    "replay diverges from the recorded run: recorded rejecting={:?} {}, \
                     replayed rejecting={:?} {}",
                    summary.rejecting,
                    summary.cost.to_json(),
                    run.verdict.rejecting,
                    run.cost.to_json(),
                ))
            }
        }
        None => {
            outln!("replay: log has no recorded summary to cross-check");
            Ok(())
        }
    }
}

fn save_log_flag(args: &[String], log: &mst_verification::net::EventLog) -> Result<(), String> {
    if let Some(path) = flag_str(args, "--log") {
        std::fs::write(&path, log.to_string()).map_err(|e| format!("cannot write {path}: {e}"))?;
        outln!("log: {path} ({} events)", log.events.len());
    }
    Ok(())
}

fn cmd_net(args: &[String]) -> Result<(), String> {
    use mst_verification::net::{replay, run_verification_with, EventLog, MstWireScheme};

    const VALUE_FLAGS: [&str; 15] = [
        "--nodes",
        "--extra",
        "--max-weight",
        "--seed",
        "--drop",
        "--dup",
        "--delay",
        "--crash",
        "--max-crashes",
        "--fault",
        "--adversary",
        "--max-rounds",
        "--log",
        "--workers",
        "--replay",
    ];
    reject_unknown_flags(args, &VALUE_FLAGS, &["--compute"])?;
    if let Some(log_path) = flag_str(args, "--replay") {
        let text = std::fs::read_to_string(&log_path)
            .map_err(|e| format!("cannot read {log_path}: {e}"))?;
        let log = EventLog::parse(&text).map_err(|e| e.to_string())?;
        if log.header("mode") == Some("compute") {
            return cmd_net_replay_compute(&log);
        }
        let params = NetInstanceParams::from_headers(&log)?;
        let (cfg, mut labeling) = params.build()?;
        // A recorded adversary schedule: re-apply the (deterministic)
        // forgery so the replayed machines hold the same certificates
        // the live run's did. Partition/reorder/churn need nothing —
        // replay is link-free.
        let adversary = log
            .header("adversary")
            .map(|s| {
                s.parse::<mst_verification::net::AdversarySpec>()
                    .map_err(|e| format!("adversary header: {e}"))
            })
            .transpose()?;
        apply_spec_forgery(adversary.as_ref(), &cfg, &mut labeling)?;
        let wire = MstWireScheme::for_config(&cfg);
        let run = replay(&wire, &cfg, &labeling, &log).map_err(|e| e.to_string())?;
        print_net_run(&run);
        check_replay_summary(&log, &run)
    } else if args.iter().any(|a| a == "--compute") {
        cmd_net_compute(args)
    } else {
        let flags = parse_net_run_flags(args)?;
        let (cfg, mut labeling) = flags.params.build()?;
        apply_spec_forgery(flags.adversary.as_ref(), &cfg, &mut labeling)?;
        let wire = MstWireScheme::for_config(&cfg);
        let mut link = flags.build_link(cfg.graph().num_nodes());
        let mut run = run_verification_with(
            &wire,
            &cfg,
            &labeling,
            link.as_mut(),
            flags.net,
            flags.engine,
        )
        .map_err(|e| e.to_string())?;
        flags.to_headers(&mut run.log);
        print_net_run(&run);
        save_log_flag(args, &run.log)
    }
}

/// Prints what the construction run built and what it cost, phase by
/// phase.
fn print_compute_run(g: &mst_verification::graph::Graph, run: &mst_verification::net::ComputeRun) {
    outln!("verdict: {}", run.net.verdict);
    outln!(
        "mst: {} edges, total weight {}",
        run.mst_edges.len(),
        mst_weight(g, &run.mst_edges)
    );
    outln!(
        "labels: max {} bits, total {} bits",
        run.labeling.max_label_bits(),
        run.labeling.total_bits()
    );
    outln!("cost: {}", run.net.cost.to_json());
    outln!(
        "phases: {{\"ghs\":{},\"marker\":{},\"verify\":{}}}",
        run.net.phases.ghs.to_json(),
        run.net.phases.marker.to_json(),
        run.net.phases.verify.to_json(),
    );
    if run.net.crash_restarts > 0 {
        outln!("crash-restarts: {}", run.net.crash_restarts);
    }
}

/// `mstv net --compute`: build the MST and its labels on the network.
fn cmd_net_compute(args: &[String]) -> Result<(), String> {
    use mst_verification::net::run_compute;

    let flags = parse_net_run_flags(args)?;
    if flags.params.fault != "none" {
        return Err(
            "--fault injects faults into a prebuilt labeling; a construction run has none to \
             corrupt — use --drop/--dup/--delay/--crash to fault the links instead"
                .to_owned(),
        );
    }
    if flags.adversary.as_ref().is_some_and(|a| a.forge.is_some()) {
        return Err(
            "forge adversaries rewrite a prebuilt labeling; a construction run builds its own — \
             use the partition/reorder/churn sections to attack the construction instead"
                .to_owned(),
        );
    }
    let mut rng = StdRng::seed_from_u64(flags.params.seed);
    let g = flags.params.graph(&mut rng);
    let mut link = flags.build_link(g.num_nodes());
    let mut run =
        run_compute(&g, link.as_mut(), flags.net, flags.engine).map_err(|e| e.to_string())?;
    run.net.log.push_header("mode", "compute");
    flags.to_headers(&mut run.net.log);
    print_compute_run(&g, &run);
    save_log_flag(args, &run.net.log)
}

/// Replays a `mstv net --compute --log` event log: rebuilds the
/// instance from the provenance headers, re-runs the recorded schedule
/// on one thread, and cross-checks the recorded summary.
fn cmd_net_replay_compute(log: &mst_verification::net::EventLog) -> Result<(), String> {
    use mst_verification::net::replay_compute;

    let params = NetInstanceParams::from_headers(log)?;
    let mut rng = StdRng::seed_from_u64(params.seed);
    let g = params.graph(&mut rng);
    let run = replay_compute(&g, log).map_err(|e| e.to_string())?;
    print_compute_run(&g, &run);
    check_replay_summary(log, &run.net)
}

/// The snapshot-side half of the serving tier: the marker runs once,
/// here, and everything the query side needs goes into one file.
fn cmd_snapshot(args: &[String]) -> Result<(), String> {
    let sub = args
        .first()
        .ok_or("snapshot needs a subcommand: write, inspect, or fsck")?;
    match sub.as_str() {
        "write" => {
            const VALUE_FLAGS: [&str; 4] = ["--from-net", "--codec", "--threads", "--format"];
            reject_unknown_flags(&args[1..], &VALUE_FLAGS, &["--no-dist"])?;
            let positionals = positional_words(&args[1..], &VALUE_FLAGS);
            let (g, mst) = if let Some(log_path) = flag_str(args, "--from-net") {
                // The tree the network built: replay the construction
                // log and snapshot its MST. Replay is exact, so this
                // file is byte-identical to `snapshot write` on the
                // same graph.
                use mst_verification::net::{replay_compute, EventLog};
                let text = std::fs::read_to_string(&log_path)
                    .map_err(|e| format!("cannot read {log_path}: {e}"))?;
                let log = EventLog::parse(&text).map_err(|e| format!("{log_path}: {e}"))?;
                if log.header("mode") != Some("compute") {
                    return Err(format!(
                        "{log_path}: not a construction log (recorded by `mstv net` without \
                         --compute); only construction runs carry a tree to snapshot"
                    ));
                }
                let params = NetInstanceParams::from_headers(&log)?;
                let mut rng = StdRng::seed_from_u64(params.seed);
                let g = params.graph(&mut rng);
                let run = replay_compute(&g, &log).map_err(|e| format!("{log_path}: {e}"))?;
                if !run.net.verdict.accepted() {
                    return Err(format!(
                        "{log_path}: the recorded run rejected its own construction; refusing \
                         to snapshot an unverified tree"
                    ));
                }
                (g, run.mst_edges)
            } else {
                let gpath = positionals.first().ok_or("missing graph file")?;
                let g = load_graph(gpath)?;
                let mst = kruskal(&g);
                (g, mst)
            };
            let out = match (
                flag_str(args, "--from-net").is_some(),
                positionals.as_slice(),
            ) {
                (true, [out]) => *out,
                (false, [_, out]) => *out,
                _ => return Err("missing output file".to_owned()),
            };
            let tree = RootedTree::from_graph_edges(&g, &mst, NodeId(0))
                .map_err(|e| format!("snapshot write: {e}"))?;
            let codec = match flag_str(args, "--codec").as_deref() {
                None | Some("gamma") => SepFieldCodec::EliasGamma,
                Some("fixed") => SepFieldCodec::FixedWidth {
                    bits: (usize::BITS - tree.num_nodes().leading_zeros()).max(1),
                },
                Some(other) => return Err(format!("unknown codec {other:?} (gamma|fixed)")),
            };
            // --threads N fans the whole labeling pipeline (decomposition,
            // label assembly, bit encoding) across N workers; output bytes
            // are identical for every thread count.
            let config = flag_positive(args, "--threads")?
                .map_or_else(ParallelConfig::default, ParallelConfig::with_threads);
            let format = match flag_str(args, "--format") {
                None => SnapshotFormat::V1,
                Some(f) => f.parse::<SnapshotFormat>()?,
            };
            let mut snap = Snapshot::build_parallel(&tree, codec, config);
            if args.iter().any(|a| a == "--no-dist") {
                snap.strip_dist();
            }
            let bytes = snap.to_bytes_format(format);
            std::fs::write(out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
            outln!(
                "wrote {out}: {} nodes, {} bytes, container v{} ({} label bits, max label {} bits)",
                snap.num_nodes(),
                bytes.len(),
                format.version(),
                snap.total_label_bits(),
                snap.max_label_bits(),
            );
            Ok(())
        }
        "inspect" => {
            reject_unknown_flags(&args[1..], &[], &[])?;
            let path = *positional_words(&args[1..], &[])
                .first()
                .ok_or("missing snapshot file")?;
            let snap = Snapshot::read_file(path).map_err(|e| format!("{path}: {e}"))?;
            let codec = snap.codec();
            // The container version lives in the file prelude (bytes
            // 8..10); the parsed Snapshot is version-agnostic.
            let version = std::fs::read(path)
                .ok()
                .and_then(|b| b.get(8..10).map(|v| u16::from_le_bytes([v[0], v[1]])))
                .unwrap_or(mst_verification::store::VERSION);
            let layout = if version >= mst_verification::store::VERSION_V2 {
                "columnar"
            } else {
                "row"
            };
            outln!("{path}: snapshot version {version} ({layout} label sections)");
            outln!("  nodes:      {} (root {})", snap.num_nodes(), snap.root());
            outln!("  max weight: {}", snap.max_weight());
            outln!(
                "  codec:      {:?}, ω = {} bits",
                codec.sep_codec,
                codec.omega_bits
            );
            outln!(
                "  labels:     {} bits total, largest {} bits",
                snap.total_label_bits(),
                snap.max_label_bits(),
            );
            match snap.dist() {
                Some(d) => outln!("  dist:       present (δ = {} bits)", d.delta_bits),
                None => outln!("  dist:       absent"),
            }
            Ok(())
        }
        "fsck" => {
            const VALUE_FLAGS: [&str; 2] = ["--pairs", "--base"];
            reject_unknown_flags(&args[1..], &VALUE_FLAGS, &[])?;
            let path = *positional_words(&args[1..], &VALUE_FLAGS)
                .first()
                .ok_or("missing snapshot file")?;
            let pairs = flag_value(args, "--pairs")?.unwrap_or(256);
            let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            if bytes.starts_with(&JOURNAL_MAGIC) {
                let journal = Journal::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
                let base_path = flag_str(args, "--base")
                    .ok_or("fsck of a delta journal needs --base <file.snap>")?;
                let base =
                    Snapshot::read_file(&base_path).map_err(|e| format!("{base_path}: {e}"))?;
                let (records, report) = journal
                    .fsck(&base, pairs)
                    .map_err(|e| format!("{path}: {e}"))?;
                outln!(
                    "{path}: ok — {records} records over base {base_path}, compacted result \
                     fscks clean ({} nodes, {} sampled answers match the tree oracle)",
                    report.nodes,
                    report.pairs_checked,
                );
                return Ok(());
            }
            let snap = Snapshot::read_file(path).map_err(|e| format!("{path}: {e}"))?;
            let report = snap.fsck(pairs).map_err(|e| format!("{path}: {e}"))?;
            outln!(
                "{path}: ok — {} nodes, every label decodes, {} sampled answers match the tree \
                 oracle{}",
                report.nodes,
                report.pairs_checked,
                if report.has_dist {
                    ""
                } else {
                    " (no dist section)"
                },
            );
            Ok(())
        }
        other => Err(format!("unknown snapshot subcommand {other:?}")),
    }
}

/// The dynamic half of the store: generate mutation streams, run them
/// through the incremental marker into an MSTVSNAP delta journal, and
/// fold journals back into snapshots.
fn cmd_mutate(args: &[String]) -> Result<(), String> {
    if args.first().map(String::as_str) == Some("--compact") {
        return cmd_mutate_compact(&args[1..]);
    }
    const VALUE_FLAGS: [&str; 7] = [
        "--gen",
        "--seed",
        "--max-weight",
        "--stream",
        "--journal",
        "--codec",
        "--emit-graph",
    ];
    reject_unknown_flags(args, &VALUE_FLAGS, &["--verify-rebuild"])?;
    let positionals = positional_words(args, &VALUE_FLAGS);
    let gpath = positionals.first().ok_or("missing graph file")?;
    let g = load_graph(gpath)?;

    if let Some(count) = flag_value(args, "--gen")? {
        return cmd_mutate_gen(args, &g, count);
    }

    let stream_path = flag_str(args, "--stream").ok_or("--stream (or --gen/--compact) needed")?;
    let journal_path = flag_str(args, "--journal").ok_or("--stream needs --journal <out.jrnl>")?;
    let codec = match flag_str(args, "--codec").as_deref() {
        None | Some("gamma") => SepFieldCodec::EliasGamma,
        Some("fixed") => SepFieldCodec::FixedWidth {
            bits: (usize::BITS - g.num_nodes().leading_zeros()).max(1),
        },
        Some(other) => return Err(format!("unknown codec {other:?} (gamma|fixed)")),
    };
    let verify_rebuild = args.iter().any(|a| a == "--verify-rebuild");

    let text = std::fs::read_to_string(&stream_path)
        .map_err(|e| format!("cannot read {stream_path}: {e}"))?;
    let mut marker = DynMarker::new(g, codec).map_err(|e| format!("{gpath}: {e}"))?;
    let mut journal = Journal::new(&marker.snapshot());
    let mut outcomes = [0usize; 4];
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let loc = format!("{stream_path}:{}", lineno + 1);
        let mutation = parse_mutation(line, &loc)?;
        let record = marker.apply(mutation).map_err(|e| format!("{loc}: {e}"))?;
        outcomes[record.outcome as usize] += 1;
        if verify_rebuild {
            let fresh = DynMarker::new(marker.graph().clone(), codec)
                .expect("mutations preserve connectivity")
                .snapshot();
            if marker.snapshot().to_bytes() != fresh.to_bytes() {
                return Err(format!(
                    "{loc}: incremental snapshot diverged from a from-scratch rebuild"
                ));
            }
        }
        journal.append(record);
    }
    journal
        .write_file(&journal_path)
        .map_err(|e| format!("cannot write {journal_path}: {e}"))?;
    if let Some(out) = flag_str(args, "--emit-graph") {
        std::fs::write(&out, to_edge_list(marker.graph()))
            .map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    outln!(
        "wrote {journal_path}: {} records over {} nodes ({} no-op, {} weights-only, {} tree-swap, \
         {} re-encode){}",
        journal.records().len(),
        journal.base_nodes(),
        outcomes[DeltaOutcome::NoOp as usize],
        outcomes[DeltaOutcome::WeightsOnly as usize],
        outcomes[DeltaOutcome::TreeSwap as usize],
        outcomes[DeltaOutcome::Reencode as usize],
        if verify_rebuild {
            ", every step byte-identical to a rebuild"
        } else {
            ""
        },
    );
    Ok(())
}

/// `mstv mutate --gen`: a seeded stream of valid mutations against the
/// graph's edge set, mostly reweights with some weight swaps mixed in.
fn cmd_mutate_gen(
    args: &[String],
    g: &mst_verification::graph::Graph,
    count: usize,
) -> Result<(), String> {
    let seed = flag_value(args, "--seed")?.unwrap_or(0);
    let max_w = match flag_value(args, "--max-weight")? {
        Some(0) => return Err("--max-weight must be positive".to_owned()),
        Some(w) => w,
        None => g.edges().map(|(_, e)| e.w.0).max().unwrap_or(1),
    };
    let m = g.num_edges();
    if m == 0 {
        return Err("graph has no edges to mutate".to_owned());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..count {
        if m >= 2 && rng.gen_range(0..4) == 0 {
            let a = rng.gen_range(0..m);
            let b = (a + rng.gen_range(1..m)) % m;
            let (ea, eb) = (g.edge(EdgeId(a as u32)), g.edge(EdgeId(b as u32)));
            outln!("swap {} {} {} {}", ea.u.0, ea.v.0, eb.u.0, eb.v.0);
        } else {
            let e = g.edge(EdgeId(rng.gen_range(0..m) as u32));
            outln!("set {} {} {}", e.u.0, e.v.0, rng.gen_range(1..=max_w));
        }
    }
    Ok(())
}

/// `mstv mutate --compact`: fold a journal into its base snapshot.
fn cmd_mutate_compact(args: &[String]) -> Result<(), String> {
    reject_unknown_flags(args, &[], &[])?;
    let [base_path, journal_path, out] =
        positional_words(args, &[])
            .try_into()
            .map_err(|_: Vec<&str>| {
                "--compact needs <base.snap> <journal.jrnl> <out.snap>".to_owned()
            })?;
    let base = Snapshot::read_file(base_path).map_err(|e| format!("{base_path}: {e}"))?;
    let journal = Journal::read_file(journal_path).map_err(|e| format!("{journal_path}: {e}"))?;
    let snap = journal
        .compact(&base)
        .map_err(|e| format!("{journal_path}: {e}"))?;
    let bytes = snap.to_bytes();
    std::fs::write(out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    outln!(
        "wrote {out}: {} records folded into {} nodes, {} bytes",
        journal.records().len(),
        snap.num_nodes(),
        bytes.len(),
    );
    Ok(())
}

/// Parses one mutation-stream line: `set u v w` or `swap u1 v1 u2 v2`.
fn parse_mutation(line: &str, loc: &str) -> Result<JournalMutation, String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    match words.as_slice() {
        ["set", u, v, w] => Ok(JournalMutation::SetWeight {
            u: parse_num(u, loc)?,
            v: parse_num(v, loc)?,
            w: parse_num(w, loc)?,
        }),
        ["swap", u1, v1, u2, v2] => Ok(JournalMutation::SwapWeights {
            u1: parse_num(u1, loc)?,
            v1: parse_num(v1, loc)?,
            u2: parse_num(u2, loc)?,
            v2: parse_num(v2, loc)?,
        }),
        _ => Err(format!(
            "{loc}: cannot parse mutation (expected `set u v w` or `swap u1 v1 u2 v2`)"
        )),
    }
}

fn parse_query(words: &[&str], loc: &str) -> Result<Query, String> {
    let node = |w: &str| parse_num(w, loc).map(NodeId);
    match words {
        ["max", u, v] => Ok(Query::Max {
            u: node(u)?,
            v: node(v)?,
        }),
        ["flow", u, v] => Ok(Query::Flow {
            u: node(u)?,
            v: node(v)?,
        }),
        ["dist", u, v] => Ok(Query::Dist {
            u: node(u)?,
            v: node(v)?,
        }),
        ["verify", u, v, w] => Ok(Query::VerifyEdge {
            u: node(u)?,
            v: node(v)?,
            w: Weight(parse_num(w, loc)?),
        }),
        _ => Err(format!(
            "{loc}: cannot parse query (expected max|flow|dist U V or verify U V W)"
        )),
    }
}

/// One answer as printed. `FLOW(u, u)` — the empty path — prints as
/// `inf`; between distinct nodes the path minimum prints as a number
/// even when it is `u64::MAX`, the `FLOW_INFINITY` value.
fn show_answer(q: &Query, a: &Answer) -> String {
    match *a {
        Answer::Max(w) => format!("{w}"),
        Answer::Flow(_) if matches!(*q, Query::Flow { u, v } if u == v) => "inf".to_owned(),
        Answer::Flow(w) => format!("{w}"),
        Answer::Dist(d) => format!("{d}"),
        Answer::VerifyEdge {
            accept,
            max_on_path,
        } => {
            if accept {
                format!("accept (path max {max_on_path})")
            } else {
                format!("reject (path max {max_on_path})")
            }
        }
    }
}

/// Parses a query file: one query per line (`#` comments and blank
/// lines skipped), returning the surviving source lines alongside the
/// parsed queries so answers can be echoed next to their questions.
fn read_batch_file(batch_path: &str) -> Result<(Vec<String>, Vec<Query>), String> {
    let text = std::fs::read_to_string(batch_path)
        .map_err(|e| format!("cannot read {batch_path}: {e}"))?;
    let mut lines = Vec::new();
    let mut queries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        queries.push(parse_query(
            &words,
            &format!("{batch_path}:{}", lineno + 1),
        )?);
        lines.push(line.to_owned());
    }
    Ok((lines, queries))
}

fn print_batch_answers(lines: &[String], queries: &[Query], results: &[Result<Answer, ErrorCode>]) {
    for ((line, q), result) in lines.iter().zip(queries).zip(results) {
        match result {
            Ok(a) => outln!("{line}: {}", show_answer(q, a)),
            Err(e) => outln!("{line}: error — {e}"),
        }
    }
}

/// The serving-side half: load a snapshot once, answer queries from the
/// labels alone — or, with `--connect`, forward them to a running
/// `mstv serve` over the wire protocol.
fn cmd_query(args: &[String]) -> Result<(), String> {
    if flag_str(args, "--connect").is_some() {
        return cmd_query_remote(args);
    }
    const VALUE_FLAGS: [&str; 4] = ["--batch", "--queries", "--seed", "--verify-against"];
    reject_unknown_flags(args, &VALUE_FLAGS, &["--mmap", "--bench"])?;
    let words = positional_words(args, &VALUE_FLAGS);
    let (&path, query_words) = words
        .split_first()
        .ok_or("missing snapshot file (or --connect)")?;
    // --mmap serves label bytes straight from the page cache: the file
    // is validated once at open, then every label decode slices the
    // mapped bytes instead of owned copies.
    let engine = if args.iter().any(|a| a == "--mmap") {
        let mapped = Snapshot::open_mmap(path).map_err(|e| format!("{path}: {e}"))?;
        QueryEngine::new_mapped(mapped)
    } else {
        let snap = Snapshot::read_file(path).map_err(|e| format!("{path}: {e}"))?;
        QueryEngine::new(snap, EngineConfig::default())
    };

    if let Some(batch_path) = flag_str(args, "--batch") {
        let (lines, queries) = read_batch_file(&batch_path)?;
        let response = engine.run_batch_response(&queries);
        print_batch_answers(&lines, &queries, &response.results);
        outln!("{}", engine.metrics().to_json());
        Ok(())
    } else if args.iter().any(|a| a == "--bench") {
        cmd_query_bench(args, &engine)
    } else {
        if query_words.is_empty() {
            return Err("missing query (or --batch/--bench)".to_owned());
        }
        let q = parse_query(query_words, "query")?;
        let a = engine.query(q).map_err(|e| e.to_string())?;
        outln!("{}", show_answer(&q, &a));
        Ok(())
    }
}

/// Fails with `unknown flag --X` on the first flag that is neither in
/// `value_flags` (flags followed by a value) nor in `switches`, so a
/// mistyped or retired flag is an error instead of being skipped while
/// its value is read as a positional word.
fn reject_unknown_flags(
    args: &[String],
    value_flags: &[&str],
    switches: &[&str],
) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if value_flags.contains(&a) {
            i += 2;
        } else if a.starts_with("--") && !switches.contains(&a) {
            return Err(format!("unknown flag {a}"));
        } else {
            i += 1;
        }
    }
    Ok(())
}

/// Positional (non-flag) words of an invocation: every argument that
/// is neither a flag nor the value of one of `value_flags`.
fn positional_words<'a>(args: &'a [String], value_flags: &[&str]) -> Vec<&'a str> {
    let mut words = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if value_flags.contains(&a) {
            i += 2;
        } else if a.starts_with("--") {
            i += 1;
        } else {
            words.push(a);
            i += 1;
        }
    }
    words
}

/// `mstv query --connect`: the network client side of the wire
/// protocol. Queries produce exactly the same output lines as local
/// mode (minus the trailing metrics JSON, which lives on the server —
/// see `--stats`), so the two modes can be diffed against each other.
fn cmd_query_remote(args: &[String]) -> Result<(), String> {
    const VALUE_FLAGS: [&str; 3] = ["--connect", "--batch", "--swap"];
    reject_unknown_flags(args, &VALUE_FLAGS, &["--stats", "--shutdown-server"])?;
    let addr = flag_str(args, "--connect").ok_or("--connect needs host:port")?;
    let mut client = Client::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;

    if args.iter().any(|a| a == "--stats") {
        outln!("{}", client.stats().map_err(|e| e.to_string())?);
        return Ok(());
    }
    if let Some(snap_path) = flag_str(args, "--swap") {
        let epoch = client
            .swap_snapshot(&snap_path)
            .map_err(|e| e.to_string())?;
        outln!("swapped: epoch {epoch}");
        return Ok(());
    }
    if args.iter().any(|a| a == "--shutdown-server") {
        client.shutdown_server().map_err(|e| e.to_string())?;
        outln!("server shut down");
        return Ok(());
    }

    if let Some(batch_path) = flag_str(args, "--batch") {
        let (lines, queries) = read_batch_file(&batch_path)?;
        let response = client.request(queries.clone()).map_err(|e| e.to_string())?;
        if response.results.len() != lines.len() {
            return Err(format!(
                "server answered {} of {} queries",
                response.results.len(),
                lines.len()
            ));
        }
        print_batch_answers(&lines, &queries, &response.results);
        Ok(())
    } else {
        let words = positional_words(args, &VALUE_FLAGS);
        if words.is_empty() {
            return Err("missing query (or --batch/--stats/--swap/--shutdown-server)".to_owned());
        }
        let q = parse_query(&words, "query")?;
        let response = client.request(vec![q]).map_err(|e| e.to_string())?;
        match response.results.first() {
            Some(Ok(a)) => {
                outln!("{}", show_answer(&q, a));
                Ok(())
            }
            Some(Err(e)) => Err(e.to_string()),
            None => Err("server returned an empty response".to_owned()),
        }
    }
}

/// `mstv serve`: bind the networked serving tier around a snapshot and
/// run until a client asks for shutdown.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use mst_verification::store::SnapshotStore;
    reject_unknown_flags(
        args,
        &[
            "--snapshot",
            "--port",
            "--workers",
            "--queue-depth",
            "--max-conns",
        ],
        &["--mmap"],
    )?;
    let snap_path = flag_str(args, "--snapshot").ok_or("--snapshot is required")?;
    let port = flag_value(args, "--port")?.unwrap_or(0);
    let mut config = ServeConfig::default();
    if let Some(w) = flag_positive(args, "--workers")? {
        config.workers = w.get();
    }
    if let Some(d) = flag_positive(args, "--queue-depth")? {
        config.queue_depth = d.get();
    }
    if let Some(m) = flag_positive(args, "--max-conns")? {
        config.max_connections = m.get();
    }
    config.mmap = args.iter().any(|a| a == "--mmap");
    let store = if config.mmap {
        SnapshotStore::Mapped(
            Snapshot::open_mmap(&snap_path).map_err(|e| format!("{snap_path}: {e}"))?,
        )
    } else {
        SnapshotStore::Owned(
            Snapshot::read_file(&snap_path).map_err(|e| format!("{snap_path}: {e}"))?,
        )
    };
    let server = ServerHandle::spawn_store(store, config, port).map_err(|e| e.to_string())?;
    // Parseable by scripts that background the server and need the
    // actual port (stdout is line-buffered, so this arrives promptly).
    outln!("listening on {}", server.addr());
    server.wait();
    Ok(())
}

fn cmd_query_bench(args: &[String], engine: &QueryEngine) -> Result<(), String> {
    const BATCH: usize = 1024;
    let count = flag_value(args, "--queries")?.unwrap_or(100_000);
    let seed = flag_value(args, "--seed")?.unwrap_or(0);
    let (n, has_dist, max_w) =
        engine.with_store(|s| (s.num_nodes(), s.has_dist(), s.max_weight().0));
    if n == 0 {
        return Err("snapshot is empty".to_owned());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let queries: Vec<Query> = (0..count)
        .map(|i| {
            let u = NodeId(rng.gen_range(0..n));
            let v = NodeId(rng.gen_range(0..n));
            match i % 4 {
                0 => Query::Max { u, v },
                1 => Query::Flow { u, v },
                2 if has_dist => Query::Dist { u, v },
                _ => Query::VerifyEdge {
                    u,
                    v,
                    w: Weight(rng.gen_range(0..=max_w)),
                },
            }
        })
        .collect();
    let mut answers = Vec::with_capacity(count);
    for chunk in queries.chunks(BATCH) {
        answers.extend(engine.run_batch_response(chunk).results);
    }
    outln!("{}", engine.metrics().to_json());

    if let Some(gpath) = flag_str(args, "--verify-against") {
        let g = load_graph(&gpath)?;
        let mst = kruskal(&g);
        let tree = RootedTree::from_graph_edges(&g, &mst, NodeId(0))
            .map_err(|e| format!("{gpath}: {e}"))?;
        if tree.num_nodes() != n as usize {
            return Err(format!(
                "{gpath} has {} nodes but the snapshot holds {n}",
                tree.num_nodes()
            ));
        }
        let idx = PathMaxIndex::new(&tree);
        // Distances mod 2^64: exact whenever the snapshot has DIST labels
        // (the tree's total weight fits), and no panic when it has none.
        let mut wdepth = vec![0u64; tree.num_nodes()];
        for &v in tree.order() {
            if let Some(p) = tree.parent(v) {
                wdepth[v.index()] = wdepth[p.index()].wrapping_add(tree.parent_weight(v).0);
            }
        }
        for (q, a) in queries.iter().zip(&answers) {
            let a = a
                .as_ref()
                .map_err(|e| format!("oracle check: query {q:?} failed: {e}"))?;
            let ok = match (*q, *a) {
                (Query::Max { u, v }, Answer::Max(w)) => {
                    w == if u == v {
                        mst_verification::graph::Weight::ZERO
                    } else {
                        idx.max_on_path(u, v)
                    }
                }
                (Query::Flow { u, v }, Answer::Flow(w)) => {
                    w == if u == v {
                        mst_verification::labels::FLOW_INFINITY
                    } else {
                        idx.min_on_path(u, v)
                    }
                }
                (Query::Dist { u, v }, Answer::Dist(d)) => {
                    let x = idx.lca(u, v);
                    d == wdepth[u.index()]
                        .wrapping_add(wdepth[v.index()])
                        .wrapping_sub(wdepth[x.index()].wrapping_mul(2))
                }
                (
                    Query::VerifyEdge { u, v, w },
                    Answer::VerifyEdge {
                        accept,
                        max_on_path,
                    },
                ) => {
                    let want = if u == v {
                        mst_verification::graph::Weight::ZERO
                    } else {
                        idx.max_on_path(u, v)
                    };
                    max_on_path == want && accept == (w >= want)
                }
                _ => false,
            };
            if !ok {
                return Err(format!(
                    "oracle check: {q:?} answered {a:?}, which contradicts the in-memory oracle"
                ));
            }
        }
        outln!("oracle: ok ({} answers match)", answers.len());
    }
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    reject_unknown_flags(args, &[], &[])?;
    let path = args.first().ok_or("missing graph file")?;
    let g = load_graph(path)?;
    let highlight = match args.get(1) {
        Some(tpath) => {
            let ttext =
                std::fs::read_to_string(tpath).map_err(|e| format!("cannot read {tpath}: {e}"))?;
            parse_tree_file(&g, &ttext).map_err(|e| format!("{tpath}: {e}"))?
        }
        None => kruskal(&g),
    };
    out!("{}", to_dot(&g, &highlight));
    Ok(())
}
