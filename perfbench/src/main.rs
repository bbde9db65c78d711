//! The repository's benchmark: four closed-loop workloads over the
//! certify, verify, serve and mutate paths of the workspace, each timing
//! many short operations per run, plus a traced mode that times every
//! call the benchmark makes into a layer crate.
//!
//! ```text
//! perfbench --workload <certify|wire-lossy|serve-zipf|mutate> --seed N
//!           --seconds S --trace <0|1> [--revision R]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! name every metric with its unit. `README.md` beside this crate
//! documents the workloads and metrics, and `run.py` builds and runs it.

mod certify;
mod host;
mod mutate;
mod serve;
mod stats;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use trace::Tracer;

/// End-to-end metrics, reported by every workload when tracing is off.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "1"),
    ("label_bits_max", "bits"),
    ("bytes_per_item", "bytes"),
];

/// Per-layer metrics, reported by every workload when tracing is on.
/// A layer a workload does not run reports 0 there. Times here are as
/// measured; `host.calib_ms` gives the host speed they were measured at.
const PER_LAYER: [(&str, &str); 56] = [
    ("host.calib_ms", "ms"),
    ("setup.instance_ms", "ms"),
    ("setup.build_ms", "ms"),
    ("setup.server_start_ms", "ms"),
    ("setup.warmup_ms", "ms"),
    ("trace.overhead_ratio", "1"),
    ("trace.coverage_ratio", "1"),
    ("graph.parse_ms", "ms"),
    ("mst.kruskal_ms", "ms"),
    ("core.configure_ms", "ms"),
    ("core.marker_ms", "ms"),
    ("core.verify_all_ms", "ms"),
    ("trees.rooted_tree_ms", "ms"),
    ("store.snapshot_build_ms", "ms"),
    ("store.encode_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.open_mmap_ms", "ms"),
    ("labels.bits_total", "bits"),
    ("labels.fields_total", "count"),
    ("store.snapshot_bytes", "bytes"),
    ("net.run_ms", "ms"),
    ("net.link_ms", "ms"),
    ("net.engine_ms", "ms"),
    ("net.us_per_msg", "us"),
    ("net.msgs", "count"),
    ("net.bits", "bits"),
    ("net.rounds", "count"),
    ("net.link_offers", "count"),
    ("net.link_drops", "count"),
    ("net.link_dups", "count"),
    ("net.delivered_ratio", "1"),
    ("net.msgs_per_edge", "1"),
    ("serve.client_request_ms", "ms"),
    ("serve.client_request_p99_ms", "ms"),
    ("serve.server_request_ms", "ms"),
    ("store.engine_batch_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("store.cache_hit_ratio", "1"),
    ("store.decodes_per_query", "1"),
    ("serve.request_bytes", "bytes"),
    ("serve.response_bytes", "bytes"),
    ("dyn.apply_ms", "ms"),
    ("dyn.apply_noop_ms", "ms"),
    ("dyn.apply_weights_only_ms", "ms"),
    ("dyn.apply_tree_swap_ms", "ms"),
    ("dyn.apply_reencode_ms", "ms"),
    ("store.delta_encode_ms", "ms"),
    ("store.apply_delta_ms", "ms"),
    ("store.read_ms", "ms"),
    ("dyn.noop_count", "count"),
    ("dyn.weights_only_count", "count"),
    ("dyn.tree_swap_count", "count"),
    ("dyn.reencode_count", "count"),
    ("dyn.rows_per_delta", "count"),
    ("store.dirty_nodes_per_delta", "count"),
];

/// Setup repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Ops a phase runs at least, past its time budget if need be: the p90
/// of 100 samples is the first with ten samples beyond it...
pub const MIN_OPS: usize = 100;
/// ...and the median of 20 the first with ten beyond it.
const TRACE_MIN_OPS: usize = 20;

/// Parsed command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub revision: String,
    /// Per-run directory for files the ops write, inside the working directory.
    pub tmp_dir: PathBuf,
}

/// The timed ops of one phase.
#[derive(Default)]
pub struct Samples {
    /// When each op started, to find the host's speed at the time.
    pub at: Vec<Instant>,
    /// Latency of each op's timed interval, in nanoseconds.
    pub lat_ns: Vec<u64>,
    /// Items each op completed.
    pub items: Vec<u64>,
    /// Ops that errored or failed their check.
    pub failed: u64,
}

impl Samples {
    pub fn push(&mut self, at: Instant, ns: u64, items: u64, ok: bool) {
        self.at.push(at);
        self.lat_ns.push(ns);
        self.items.push(items);
        if !ok {
            self.failed += 1;
        }
    }

    pub fn ops(&self) -> usize {
        self.lat_ns.len()
    }

    fn timed_wall_s(&self) -> f64 {
        self.lat_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Each op's latency in milliseconds: as measured, or `scaled` to the
    /// reference host speed by the kernel runs around it (see [`host`]).
    fn lat_ms(&self, scaled: bool) -> Vec<f64> {
        let factors = if scaled {
            host::factors(&self.at)
        } else {
            vec![1.0; self.ops()]
        };
        self.lat_ns
            .iter()
            .zip(factors)
            .map(|(&ns, f)| ns as f64 / 1e6 * f)
            .collect()
    }

    /// `items ÷ timed wall`, as the median over consecutive windows of
    /// `window` ops (a trailing partial window is left out unless it is
    /// the only one), so one host stall moves one window, not the rate.
    pub fn items_per_s(&self, window: usize, scaled: bool) -> f64 {
        let window = window.clamp(1, self.ops().max(1));
        let rates: Vec<f64> = self
            .lat_ms(scaled)
            .chunks_exact(window)
            .zip(self.items.chunks_exact(window))
            .map(|(ms, items)| items.iter().sum::<u64>() as f64 * 1e3 / ms.iter().sum::<f64>())
            .collect();
        stats::median(&rates)
    }

    fn p50_ms(&self) -> Result<f64, String> {
        stats::percentile(&self.lat_ms(true), 0.5)
    }

    /// The ops of two phases as one sample.
    fn concat(mut a: Samples, b: Samples) -> Samples {
        a.at.extend(b.at);
        a.lat_ns.extend(b.lat_ns);
        a.items.extend(b.items);
        a.failed += b.failed;
        a
    }
}

/// Runs `op` in a closed loop (the next op starts when the previous one
/// is done) until `budget` has passed and at least `min_ops` ops ran.
/// `op(i)` returns its timed interval in nanoseconds, the items it did
/// and whether its check passed; work outside the timed interval (the
/// checks, the host-speed kernel) still counts against the budget.
pub fn closed_loop(
    budget: Duration,
    min_ops: usize,
    mut op: impl FnMut(u64) -> (u64, u64, bool),
) -> Samples {
    let start = Instant::now();
    let mut s = Samples::default();
    while start.elapsed() < budget || s.ops() < min_ops {
        host::tick();
        let at = Instant::now();
        let (ns, items, ok) = op(s.ops() as u64);
        s.push(at, ns, items, ok);
    }
    s
}

/// A traced run: half the budget with the recorder off, then half on.
pub struct Halves {
    pub plain: Samples,
    pub traced: Samples,
    first_traced: u64,
}

impl Halves {
    /// Runs `phase(tr, budget, min_ops)` once per half.
    pub fn run(
        tr: &mut Tracer,
        budget: Duration,
        mut phase: impl FnMut(&mut Tracer, Duration, usize) -> Samples,
    ) -> Halves {
        tr.set_on(false);
        let plain = phase(tr, budget / 2, TRACE_MIN_OPS);
        tr.set_on(true);
        let first_traced = tr.current_op() + 1;
        let traced = phase(tr, budget / 2, TRACE_MIN_OPS);
        Halves {
            plain,
            traced,
            first_traced,
        }
    }

    /// Whether op `op` ran in the traced half.
    pub fn traced_op(&self, op: u64) -> bool {
        op >= self.first_traced
    }

    /// Adds the setup, overhead and coverage metrics, notes the two op
    /// medians, and returns both halves' ops as one sample.
    pub fn finish(
        self,
        tr: &Tracer,
        metrics: &mut BTreeMap<&'static str, f64>,
        notes: &mut Vec<String>,
    ) -> Result<Samples, String> {
        setup_layers(tr, metrics);
        let (plain, traced) = (self.plain.p50_ms()?, self.traced.p50_ms()?);
        let covered = coverage(tr, |op| self.traced_op(op));
        metrics.insert("host.calib_ms", host::median_ms().0);
        metrics.insert("trace.overhead_ratio", traced / plain - 1.0);
        metrics.insert("trace.coverage_ratio", covered);
        notes.push(format!(
            "op p50 at reference host speed untraced {plain:.4} ms, traced {traced:.4} ms \
             (overhead {:+.2}%); layer spans cover {:.2}% of traced op time",
            (traced / plain - 1.0) * 100.0,
            covered * 100.0
        ));
        Ok(Samples::concat(self.plain, self.traced))
    }
}

/// Times of the setup repetitions of a run, in seconds.
pub struct Setups(Vec<f64>);

impl Setups {
    /// Median setup time in seconds: as measured, or `scaled` to the
    /// reference host speed by the run's median kernel time. (The kernel
    /// runs next to one setup are too few to scale it by; they run just
    /// after the previous setup's teardown.)
    fn median_s(&self, scaled: bool) -> f64 {
        let k = if scaled { host::run_factor() } else { 1.0 };
        stats::median(&self.0) * k
    }
}

/// Times [`SETUP_REPS`] setups, dropping each before building the next, and
/// returns the last one with the times of all. Each repetition is a root
/// span `setup` with its own op id.
pub fn timed_setups<S>(
    tr: &mut Tracer,
    mut build: impl FnMut(&mut Tracer) -> Result<S, String>,
) -> Result<(S, Setups), String> {
    let mut setups = Setups(Vec::with_capacity(SETUP_REPS));
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        release_freed_memory();
        host::burst();
        tr.next_op();
        let h = tr.open("setup");
        let t = Instant::now();
        last = Some(build(tr)?);
        setups.0.push(t.elapsed().as_secs_f64());
        tr.close(h);
    }
    Ok((last.expect("SETUP_REPS > 0"), setups))
}

/// Median over setup repetitions of each `setup.*` span's duration.
fn setup_layers(tr: &Tracer, out: &mut BTreeMap<&'static str, f64>) {
    for (name, metric) in [
        ("setup.instance", "setup.instance_ms"),
        ("setup.build", "setup.build_ms"),
        ("setup.server_start", "setup.server_start_ms"),
        ("setup.warmup", "setup.warmup_ms"),
    ] {
        let ms: Vec<f64> = tr
            .total_ns(name)
            .values()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        if !ms.is_empty() {
            out.insert(metric, stats::median(&ms));
        }
    }
}

/// Median over ops of a span's self time, in milliseconds, over the ops
/// `keep` admits. 0 when the span never ran.
pub fn span_median_ms(tr: &Tracer, name: &str, keep: impl Fn(u64) -> bool) -> Result<f64, String> {
    let selfs = tr.self_ns();
    let ms: Vec<f64> = selfs
        .get(name)
        .map(|per_op| {
            per_op
                .iter()
                .filter(|(op, _)| keep(**op))
                .map(|(_, &ns)| ns as f64 / 1e6)
                .collect()
        })
        .unwrap_or_default();
    if ms.is_empty() {
        return Ok(0.0);
    }
    stats::percentile(&ms, 0.5).map_err(|e| format!("{name}: {e}"))
}

/// Like [`span_median_ms`], but for a rare op class: the mean when too
/// few ops ran for a median with ten samples beyond it.
pub fn span_center_ms(tr: &Tracer, name: &str, keep: impl Fn(u64) -> bool + Copy) -> f64 {
    span_median_ms(tr, name, keep).unwrap_or_else(|_| {
        let ms: Vec<f64> = tr
            .self_ns()
            .get(name)
            .into_iter()
            .flatten()
            .filter(|(op, _)| keep(**op))
            .map(|(_, &ns)| ns as f64 / 1e6)
            .collect();
        ms.iter().sum::<f64>() / ms.len().max(1) as f64
    })
}

/// Share of the `op` root spans' time covered by their child spans,
/// over the ops `keep` admits.
fn coverage(tr: &Tracer, keep: impl Fn(u64) -> bool) -> f64 {
    let roots = tr.total_ns("op");
    let own = tr.self_ns();
    let own_op = own.get("op");
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (op, &ns) in roots.iter().filter(|(op, _)| keep(**op)) {
        total += ns;
        uncovered += own_op.and_then(|m| m.get(op)).copied().unwrap_or(0);
    }
    if total == 0 {
        0.0
    } else {
        1.0 - uncovered as f64 / total as f64
    }
}

/// What a workload hands back.
pub struct Report {
    /// Timed ops attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// False when a negative control or a run-level check failed.
    pub checks_ok: bool,
    /// Metrics by name (end-to-end or per-layer, by mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Timed wall of the measured ops, for the run record.
    pub timed_wall_s: f64,
}

impl Report {
    pub fn new(
        samples: &Samples,
        checks_ok: bool,
        metrics: BTreeMap<&'static str, f64>,
        notes: Vec<String>,
    ) -> Report {
        Report {
            attempted: samples.ops() as u64,
            failed: samples.failed,
            checks_ok,
            metrics,
            notes,
            timed_wall_s: samples.timed_wall_s(),
        }
    }
}

/// The end-to-end block common to every workload. Times and rates are
/// scaled to the reference host speed (see [`host`]), and noted as
/// measured; the rest is as counted.
pub fn end_to_end(
    s: &Samples,
    window: usize,
    setups: &Setups,
    label_bits_max: f64,
    bytes_per_item: f64,
    notes: &mut Vec<String>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let (lat, raw) = (s.lat_ms(true), s.lat_ms(false));
    notes.push(format!(
        "as measured: setup_s {:.6}, items_per_s {:.3}, op_p50_ms {:.6}, op_p90_ms {:.6}",
        setups.median_s(false),
        s.items_per_s(window, false),
        stats::percentile(&raw, 0.5)?,
        stats::percentile(&raw, 0.9)?,
    ));
    let attempted = s.ops().max(1) as f64;
    Ok(BTreeMap::from([
        ("setup_s", setups.median_s(true)),
        ("items_per_s", s.items_per_s(window, true)),
        ("op_p50_ms", stats::percentile(&lat, 0.5)?),
        ("op_p90_ms", stats::percentile(&lat, 0.9)?),
        ("peak_rss_mb", peak_rss_mb()),
        ("ok_ratio", (attempted - s.failed as f64) / attempted),
        ("label_bits_max", label_bits_max),
        ("bytes_per_item", bytes_per_item),
    ]))
}

/// Hands memory freed by an earlier setup back to the system, so that the
/// process's peak resident set reflects one setup, not how the allocator
/// happened to reuse the space of the ones before it.
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a plain integer, touches
        // only the allocator's own free lists, and is thread-safe.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Restricts the calling thread, and every thread it spawns from then
/// on, to the first CPU it may run on, and returns that CPU.
///
/// Every workload runs pinned, before it spawns any thread. Its threads
/// hand work to each other (wire-lossy's router and worker some 58k
/// times an op, serve-zipf's client, server and shards every batch,
/// certify's parallel stages at each fork and join); across two virtual
/// CPUs each hand-off can wake a halted CPU through the hypervisor,
/// whose latency follows the load of the whole host. Pinned, a hand-off
/// is a context switch, and the host-speed kernel runs on the same CPU
/// as the ops it scales. With the pin, the parallel stages' default
/// worker count is 1.
fn pin_to_one_cpu() -> Result<usize, String> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        // A `cpu_set_t`: 1024 CPUs, one bit each.
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer and pid 0
        // names the calling thread.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        let cpu = (0..mask.len() * 64)
            .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .ok_or("empty CPU affinity mask")?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: as above; `one` names a CPU the thread may already use.
        if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
            return Err(format!(
                "sched_setaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    {
        Err("pinning to one CPU needs Linux".to_owned())
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPUs this process may use; the run record takes it before the pin.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| value(flag).ok_or_else(|| format!("{flag} is required"));
    let workload = need("--workload")?.to_owned();
    if !["certify", "wire-lossy", "serve-zipf", "mutate"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_owned());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let revision = value("--revision").unwrap_or("unknown").to_owned();
    let tmp_dir = Path::new(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        revision,
        tmp_dir,
    })
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn run(opts: &Opts) -> Result<Report, String> {
    stats::self_check()?;
    let cpu = pin_to_one_cpu()?;
    std::fs::create_dir_all(&opts.tmp_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.tmp_dir.display()))?;
    let mut tr = Tracer::new(opts.trace);
    let report = match opts.workload.as_str() {
        "certify" => certify::run(opts, &mut tr),
        "wire-lossy" => wire::run(opts, &mut tr),
        "serve-zipf" => serve::run(opts, &mut tr),
        _ => mutate::run(opts, &mut tr),
    };
    let _ = std::fs::remove_dir_all(&opts.tmp_dir);
    let _ = std::fs::remove_dir(".bench_tmp");
    let mut report = report?;
    report
        .notes
        .insert(0, format!("every thread pinned to CPU {cpu}"));
    if opts.trace {
        let out = Path::new(".bench_out");
        let path = out.join(format!("trace-{}-seed{}.tsv", opts.workload, opts.seed));
        std::fs::create_dir_all(out)
            .and_then(|()| std::fs::write(&path, tr.to_tsv()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        report
            .notes
            .push(format!("spans written to {}", path.display()));
    }
    Ok(report)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host_cpus = nproc();
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            std::process::exit(1);
        }
    };
    let declared: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    if let Some(stray) = report
        .metrics
        .keys()
        .find(|k| !declared.iter().any(|(name, _)| name == *k))
    {
        eprintln!(
            "perfbench: {}: metric {stray} is not declared",
            opts.workload
        );
        std::process::exit(1);
    }
    println!(
        "# run: {{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"nproc\":{},\"revision\":\"{}\",\
         \"ops\":{},\"timed_wall_s\":{},\"seconds\":{}}}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        host_cpus,
        opts.revision,
        report.attempted,
        json_num(report.timed_wall_s),
        json_num(opts.seconds),
    );
    let (calib_ms, calib_runs) = host::median_ms();
    println!(
        "# host: kernel median {calib_ms:.4} ms over {calib_runs} runs, reference {} ms; \
         end-to-end times are scaled to the reference speed",
        host::REFERENCE_MS
    );
    for note in &report.notes {
        println!("# {note}");
    }
    let mut fields = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name:<30} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(value)
        ));
    }
    let correct = report.checks_ok && report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
}
