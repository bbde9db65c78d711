//! Host speed, measured by a fixed calibration kernel run between ops.
//!
//! The benchmark runs on shared virtual CPUs whose speed drifts by a
//! quarter or more within minutes, with no CPU steal and few page faults
//! to show for it: in one 150-s certify run, the op median of 25-s
//! blocks spread 14% and their p90 23%. That drift sets the spread of
//! any raw time across runs, however long a run is. A kernel that never
//! changes slows down with the host (on two CPUs, its 25-s medians
//! correlated 0.90–0.96 with the op medians of all four workloads), so
//! every time metric reported end to end is scaled to the reference
//! speed, op by op:
//!
//! ```text
//! reported = measured × REFERENCE_MS ÷ median of the NEAREST kernel runs
//! ```
//!
//! which took those certify spreads to 4% and 8%. Setup times are
//! scaled by the median over the whole run instead. The kernel runs
//! outside every timed interval, at most once per [`INTERVAL`] of wall
//! time during the ops and a few times before each setup, so it measures
//! the host, not the program.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The kernel's median time on the reference host, a 2-vCPU Xeon VM.
pub const REFERENCE_MS: f64 = 4.2;
/// Least wall time between two kernel runs during the ops.
const INTERVAL: Duration = Duration::from_millis(100);
/// Kernel runs before each setup.
const SETUP_BURST: usize = 4;
/// Kernel runs an op's speed is taken from: the three last before it
/// started and the two first after.
const NEAREST: usize = 5;

struct Host {
    /// Every kernel run so far: when it ended and how long it took, in ms.
    samples: Vec<(Instant, f64)>,
    /// The kernel's buffers, kept between runs so that it never waits on
    /// the allocator or on page faults (the setups hand freed memory back
    /// to the system just before their kernel runs).
    perm: Vec<u32>,
    keys: Vec<u64>,
}

static HOST: Mutex<Host> = Mutex::new(Host {
    samples: Vec::new(),
    perm: Vec::new(),
    keys: Vec::new(),
});

fn host() -> std::sync::MutexGuard<'static, Host> {
    HOST.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Random-access and sort work on about a MiB, of the character of the
/// ops: shuffle a 1 MiB permutation, chase it, sort 256 KiB of keys.
/// Returns its time in milliseconds.
fn kernel(perm: &mut Vec<u32>, keys: &mut Vec<u64>) -> f64 {
    const N: usize = 1 << 18;
    let t = Instant::now();
    perm.clear();
    perm.extend(0..N as u32);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in (1..N).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        perm.swap(i, (x % (i as u64 + 1)) as usize);
    }
    let (mut p, mut acc) = (0u32, 0u64);
    for _ in 0..N {
        p = perm[p as usize];
        acc = acc.wrapping_add(u64::from(p));
    }
    keys.clear();
    keys.extend((0..1u64 << 15).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ acc));
    keys.sort_unstable();
    black_box(&keys);
    t.elapsed().as_secs_f64() * 1e3
}

fn record(h: &mut Host) {
    let ms = kernel(&mut h.perm, &mut h.keys);
    h.samples.push((Instant::now(), ms));
}

/// Runs the kernel if [`INTERVAL`] has passed since its last run.
/// Called between ops, outside their timed intervals.
pub fn tick() {
    let mut h = host();
    if h.samples
        .last()
        .is_none_or(|(t, _)| t.elapsed() >= INTERVAL)
    {
        record(&mut h);
    }
}

/// Runs the kernel a few times; called before each setup.
pub fn burst() {
    let mut h = host();
    for _ in 0..SETUP_BURST {
        record(&mut h);
    }
}

/// Median kernel time over the run so far, and how many runs it is over.
pub fn median_ms() -> (f64, usize) {
    let h = host();
    let ms: Vec<f64> = h.samples.iter().map(|&(_, ms)| ms).collect();
    (crate::stats::median(&ms), ms.len())
}

/// [`REFERENCE_MS`] over the median kernel time of the whole run.
pub fn run_factor() -> f64 {
    match median_ms() {
        (ms, n) if n > 0 && ms > 0.0 => REFERENCE_MS / ms,
        _ => 1.0,
    }
}

/// For each instant in `at` (ascending), the factor that takes a time
/// measured then to the reference speed: [`REFERENCE_MS`] over the median
/// of the [`NEAREST`] kernel runs around it. A rate divides by it.
pub fn factors(at: &[Instant]) -> Vec<f64> {
    let s = &host().samples;
    let mut cached: Option<(usize, f64)> = None;
    at.iter()
        .map(|&t| {
            // Kernel runs that ended by `t`.
            let before = s.partition_point(|&(end, _)| end <= t);
            if let Some((_, f)) = cached.filter(|&(i, _)| i == before) {
                return f;
            }
            let lo = before.saturating_sub(NEAREST - NEAREST / 2);
            let hi = (lo + NEAREST).min(s.len());
            let lo = hi.saturating_sub(NEAREST);
            let ms: Vec<f64> = s[lo..hi].iter().map(|&(_, ms)| ms).collect();
            let median = crate::stats::median(&ms);
            let f = if median > 0.0 {
                REFERENCE_MS / median
            } else {
                1.0
            };
            cached = Some((before, f));
            f
        })
        .collect()
}
