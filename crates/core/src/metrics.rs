//! Dependency-free instrumentation for verification sessions.
//!
//! [`SessionMetrics`] is a plain struct of counters and
//! power-of-two-bucket [`Histogram`]s — no atomics, no external crates —
//! that [`crate::session::VerifySession`] fills in as it runs. The
//! one-line [`SessionMetrics::to_json`] export is what the `mstv session`
//! subcommand prints, so experiment scripts can scrape machine-readable
//! numbers without a serde dependency.

use std::fmt;
use std::ops::AddAssign;
use std::time::Duration;

/// Communication costs of one protocol run: point-to-point messages
/// offered to the links, total payload bits carried by them, and rounds
/// (synchronous rounds, or retransmission generations on a lossy
/// runtime).
///
/// This is the single cost vocabulary shared by the synchronous simulator
/// (`mstv-distsim`), the asynchronous engines, and the concurrent runtime
/// (`mstv-net`), so experiment tables stay comparable across execution
/// models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MessageCost {
    /// Point-to-point messages sent (one per edge direction per send,
    /// retransmissions included).
    pub msgs: u64,
    /// Total payload bits carried by those messages.
    pub bits: u128,
    /// Rounds elapsed: lockstep rounds in the synchronous model,
    /// `1 + retransmission generations` on a lossy runtime.
    pub rounds: u64,
}

impl MessageCost {
    /// The zero cost.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `count` messages of `bits_each` bits within the current
    /// round structure.
    pub fn add_messages(&mut self, count: u64, bits_each: u64) {
        self.msgs += count;
        self.bits += u128::from(count) * u128::from(bits_each);
    }

    /// One-line JSON export, for scripts and the `mstv net` subcommand.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"msgs\":{},\"bits\":{},\"rounds\":{}}}",
            self.msgs, self.bits, self.rounds
        )
    }
}

impl AddAssign for MessageCost {
    fn add_assign(&mut self, rhs: MessageCost) {
        self.msgs += rhs.msgs;
        self.bits += rhs.bits;
        self.rounds += rhs.rounds;
    }
}

impl fmt::Display for MessageCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rounds, {} messages, {} bits",
            self.rounds, self.msgs, self.bits
        )
    }
}

/// A histogram over `u64` samples with power-of-two buckets.
///
/// Bucket `i` counts samples whose value has bit length `i` — bucket 0
/// holds the value 0, bucket 1 the value 1, bucket 2 values 2–3, bucket 3
/// values 4–7, and so on. Exact min/max/sum/count are tracked alongside,
/// so coarse buckets never lose the headline statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The non-empty buckets as `(bucket_lower_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| {
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                (lo, c)
            })
            .collect()
    }

    /// Renders the histogram as a JSON object fragment.
    fn json_into(&self, out: &mut String) {
        use fmt::Write;
        let _ = write!(
            out,
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.2},\"buckets\":[",
            self.count,
            self.sum,
            self.min,
            self.max,
            self.mean()
        );
        for (i, (lo, c)) in self.nonzero_buckets().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{lo},{c}]");
        }
        out.push_str("]}");
    }
}

/// A log-linear histogram over `u64` nanosecond samples, sized for
/// latency tails.
///
/// Each power-of-two octave is split into 8 linear sub-buckets, so any
/// recorded value lands in a bucket whose width is at most 1/8th of the
/// value (≤ 12.5% relative error) — fine enough for honest p50/p99/p999
/// quantiles without storing raw samples. The struct is a plain `Copy`
/// array (no atomics, no allocation), matching the rest of this module:
/// each recorder fills a private block, and blocks merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; Self::BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; Self::BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// 8 sub-buckets per octave; values below 8 get exact buckets, so
    /// the top octave (bit length 64) ends at index `8 + 61 * 8 - 1`.
    const BUCKETS: usize = 8 + 61 * 8;

    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// The bucket index for `value`: exact below 8, log-linear above.
    fn bucket_of(value: u64) -> usize {
        if value < 8 {
            return value as usize;
        }
        let g = 63 - value.leading_zeros() as usize; // g ≥ 3
        8 * (g - 2) + ((value >> (g - 3)) & 7) as usize
    }

    /// The inclusive value range `[lo, hi]` a bucket covers.
    fn bucket_range(bucket: usize) -> (u64, u64) {
        if bucket < 8 {
            return (bucket as u64, bucket as u64);
        }
        let g = bucket / 8 + 2;
        let sub = (bucket % 8) as u64;
        let lo = (1u64 << g) + (sub << (g - 3));
        (lo, lo + (1u64 << (g - 3)) - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Records a [`Duration`] in nanoseconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_nanos() as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The quantile `q ∈ [0, 1]`: the midpoint of the bucket holding
    /// the `⌈q · count⌉`-th smallest sample, clamped to the exact
    /// min/max so the tails never overshoot reality. Returns 0 when
    /// empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = Self::bucket_range(i);
                return lo.midpoint(hi).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median latency.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// 99.9th-percentile latency.
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }

    /// Adds another histogram's samples into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Counters and gauges for a label-serving tier: label decodes and
/// throughput of a batch query engine answering `MAX`/`FLOW`/`VerifyEdge`
/// from stored labels (the `mstv-store` query engine, the `mstv-serve`
/// server and `mstv query --bench` all report through this block).
///
/// Like [`SessionMetrics`], this is a plain struct — no atomics — that the
/// engine fills in per batch under one lock; the one-line
/// [`ServeMetrics::to_json`] export keeps experiment scripts serde-free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Queries answered (errors included — every routed query counts).
    pub queries: u64,
    /// Batches executed.
    pub batches: u64,
    /// Decoded-label cache hits. The `mstv-store` query engine answers
    /// every query from the two encoded labels and keeps no decoded
    /// ones, so it always reports 0.
    pub cache_hits: u64,
    /// Label decodes, each a miss of the (empty) decoded-label cache: the
    /// query engine counts two per `u ≠ v` query, one per endpoint, and
    /// none for `u == v`.
    pub cache_misses: u64,
    /// Queries that surfaced a typed error instead of an answer.
    pub errors: u64,
    /// Wall-clock spent inside batch execution, in nanoseconds.
    pub elapsed_nanos: u64,
    /// Per-batch (engine) or per-request (server) latency samples, in
    /// nanoseconds; the source of the exported p50/p99/p999 gauges.
    pub latency: LatencyHistogram,
}

impl ServeMetrics {
    /// A zeroed metrics block.
    pub fn new() -> Self {
        ServeMetrics::default()
    }

    /// Adds `d` to the batch-execution wall-clock.
    pub fn add_elapsed(&mut self, d: Duration) {
        self.elapsed_nanos = self.elapsed_nanos.saturating_add(d.as_nanos() as u64);
    }

    /// Cache hit ratio in `[0, 1]` (0.0 before any lookup, and always 0.0
    /// for the query engine, which caches nothing).
    ///
    /// Always finite: a zero-lookup block (empty batch, no decodes)
    /// reports 0.0 rather than dividing by zero, so the JSON export can
    /// never contain `NaN`.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            finite_or_zero(self.cache_hits as f64 / total as f64)
        }
    }

    /// The throughput gauge: queries per second of batch wall-clock
    /// (0.0 before any timed batch runs).
    ///
    /// Always finite: a zero-elapsed block (a batch so small the clock
    /// did not tick, or no batch at all) reports 0.0 rather than `inf`,
    /// so tiny `mstv query --bench` runs emit valid JSON.
    pub fn queries_per_sec(&self) -> f64 {
        if self.elapsed_nanos == 0 {
            0.0
        } else {
            finite_or_zero(self.queries as f64 / (self.elapsed_nanos as f64 / 1e9))
        }
    }

    /// One-line JSON export of every counter plus the derived gauges.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"queries\":{},\"batches\":{},\"cache_hits\":{},\
             \"cache_misses\":{},\"hit_ratio\":{:.4},\"errors\":{},\
             \"elapsed_nanos\":{},\"queries_per_sec\":{:.1},\
             \"lat_p50_nanos\":{},\"lat_p99_nanos\":{},\"lat_p999_nanos\":{},\
             \"lat_max_nanos\":{}}}",
            self.queries,
            self.batches,
            self.cache_hits,
            self.cache_misses,
            self.hit_ratio(),
            self.errors,
            self.elapsed_nanos,
            self.queries_per_sec(),
            self.latency.p50(),
            self.latency.p99(),
            self.latency.p999(),
            self.latency.max(),
        )
    }
}

/// Clamps a derived gauge to 0.0 if a pathological counter combination
/// ever produced a non-finite value — the JSON line must stay parseable
/// no matter what the counters hold.
fn finite_or_zero(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

impl fmt::Display for ServeMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} queries in {} batches: {:.0} q/s, {} label decodes, {} errors",
            self.queries,
            self.batches,
            self.queries_per_sec(),
            self.cache_misses,
            self.errors,
        )
    }
}

/// Counters and timings collected over the lifetime of one
/// [`crate::session::VerifySession`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionMetrics {
    /// Full (every-node) verification passes run.
    pub full_runs: u64,
    /// Incremental (dirty-frontier-only) verification passes run.
    pub incremental_runs: u64,
    /// Mutations applied through the session.
    pub mutations_applied: u64,
    /// Individual node verifications executed, across all passes.
    pub nodes_verified: u64,
    /// Node verifications *skipped* by incremental passes — the cache-hit
    /// count: clean nodes whose cached verdict was reused.
    pub nodes_skipped: u64,
    /// Size of the dirty frontier at each incremental pass.
    pub frontier_sizes: Histogram,
    /// Wall-clock spent inside the marker, in nanoseconds.
    pub marker_nanos: u64,
    /// Wall-clock spent inside verifiers, in nanoseconds.
    pub verify_nanos: u64,
    /// Largest encoded label, in bits (0 if the labeling carries no
    /// encodings).
    pub max_label_bits: u64,
    /// Total encoded label volume across all nodes, in bits.
    pub total_label_bits: u64,
}

impl SessionMetrics {
    /// A zeroed metrics block.
    pub fn new() -> Self {
        SessionMetrics::default()
    }

    /// Adds `d` to the marker wall-clock.
    pub fn add_marker_time(&mut self, d: Duration) {
        self.marker_nanos = self.marker_nanos.saturating_add(d.as_nanos() as u64);
    }

    /// Adds `d` to the verifier wall-clock.
    pub fn add_verify_time(&mut self, d: Duration) {
        self.verify_nanos = self.verify_nanos.saturating_add(d.as_nanos() as u64);
    }

    /// The fraction of node verifications avoided by incremental reuse,
    /// in `[0, 1]` (0.0 before any pass runs).
    pub fn skip_ratio(&self) -> f64 {
        let total = self.nodes_verified + self.nodes_skipped;
        if total == 0 {
            0.0
        } else {
            self.nodes_skipped as f64 / total as f64
        }
    }

    /// One-line JSON export of every field, for scripts and logs.
    pub fn to_json(&self) -> String {
        use fmt::Write;
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"full_runs\":{},\"incremental_runs\":{},\"mutations_applied\":{},\
             \"nodes_verified\":{},\"nodes_skipped\":{},\"skip_ratio\":{:.4},\
             \"marker_nanos\":{},\"verify_nanos\":{},\
             \"max_label_bits\":{},\"total_label_bits\":{},\"frontier_sizes\":",
            self.full_runs,
            self.incremental_runs,
            self.mutations_applied,
            self.nodes_verified,
            self.nodes_skipped,
            self.skip_ratio(),
            self.marker_nanos,
            self.verify_nanos,
            self.max_label_bits,
            self.total_label_bits,
        );
        self.frontier_sizes.json_into(&mut out);
        out.push('}');
        out
    }
}

impl fmt::Display for SessionMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} full + {} incremental runs, {} mutations, {} verified / {} skipped ({:.1}% reuse), frontier mean {:.1}",
            self.full_runs,
            self.incremental_runs,
            self.mutations_applied,
            self.nodes_verified,
            self.nodes_skipped,
            self.skip_ratio() * 100.0,
            self.frontier_sizes.mean(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_cost_accumulates_and_exports() {
        let mut c = MessageCost::new();
        c.add_messages(10, 32);
        c.rounds += 1;
        assert_eq!(c.msgs, 10);
        assert_eq!(c.bits, 320);
        let mut t = MessageCost {
            msgs: 5,
            bits: 50,
            rounds: 2,
        };
        t += c;
        assert_eq!(t.msgs, 15);
        assert_eq!(t.bits, 370);
        assert_eq!(t.rounds, 3);
        assert_eq!(t.to_string(), "3 rounds, 15 messages, 370 bits");
        assert_eq!(t.to_json(), "{\"msgs\":15,\"bits\":370,\"rounds\":3}");
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1025);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 128.125).abs() < 1e-9);
        // 0 → bucket lo 0; 1 → lo 1; 2,3 → lo 2; 4,7 → lo 4; 8 → lo 8;
        // 1000 → lo 512.
        assert_eq!(
            h.nonzero_buckets(),
            vec![(0, 1), (1, 1), (2, 2), (4, 2), (8, 1), (512, 1)]
        );
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn json_is_one_line_and_balanced() {
        let mut m = SessionMetrics::new();
        m.full_runs = 1;
        m.incremental_runs = 3;
        m.mutations_applied = 3;
        m.nodes_verified = 10;
        m.nodes_skipped = 90;
        m.frontier_sizes.record(2);
        m.frontier_sizes.record(5);
        m.add_marker_time(Duration::from_micros(15));
        let json = m.to_json();
        assert!(!json.contains('\n'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert!(json.contains("\"full_runs\":1"));
        assert!(json.contains("\"nodes_skipped\":90"));
        assert!(json.contains("\"skip_ratio\":0.9000"));
        assert!(json.contains("\"marker_nanos\":15000"));
        assert!(json.contains("\"frontier_sizes\":{\"count\":2"));
    }

    #[test]
    fn serve_metrics_gauges_and_json() {
        let mut m = ServeMetrics::new();
        m.queries = 1000;
        m.batches = 2;
        m.cache_hits = 750;
        m.cache_misses = 250;
        m.add_elapsed(Duration::from_millis(500));
        assert!((m.hit_ratio() - 0.75).abs() < 1e-9);
        assert!((m.queries_per_sec() - 2000.0).abs() < 1e-6);
        let json = m.to_json();
        assert!(!json.contains('\n'));
        assert!(json.contains("\"queries\":1000"));
        assert!(json.contains("\"hit_ratio\":0.7500"));
        assert!(json.contains("\"queries_per_sec\":2000.0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(m.to_string().contains("q/s"));
    }

    #[test]
    fn serve_metrics_zero_safe() {
        let m = ServeMetrics::new();
        assert_eq!(m.hit_ratio(), 0.0);
        assert_eq!(m.queries_per_sec(), 0.0);
        assert!(m.to_json().contains("\"queries_per_sec\":0.0"));
    }

    #[test]
    fn serve_metrics_empty_batch_emits_finite_json() {
        // The empty-batch path: a batch was routed but carried no queries
        // and completed before the clock ticked. Zero lookups and zero
        // elapsed must not reach the gauges as divisions by zero.
        let m = ServeMetrics {
            queries: 0,
            batches: 1,
            cache_hits: 0,
            cache_misses: 0,
            errors: 0,
            elapsed_nanos: 0,
            latency: LatencyHistogram::new(),
        };
        assert_eq!(m.hit_ratio(), 0.0);
        assert_eq!(m.queries_per_sec(), 0.0);
        let json = m.to_json();
        assert!(
            !json.contains("NaN") && !json.contains("inf"),
            "non-finite gauge leaked into JSON: {json}"
        );
        assert!(json.contains("\"hit_ratio\":0.0000"));
        assert!(json.contains("\"queries_per_sec\":0.0"));
        // Queries recorded against a zero-elapsed clock (batch faster than
        // the timer resolution) must also stay finite.
        let fast = ServeMetrics {
            queries: 17,
            batches: 1,
            elapsed_nanos: 0,
            ..ServeMetrics::new()
        };
        assert_eq!(fast.queries_per_sec(), 0.0);
        assert!(!fast.to_json().contains("inf"));
    }

    #[test]
    fn latency_histogram_buckets_are_tight() {
        // Exact buckets below 8, ≤ 12.5% relative error above.
        for v in [0u64, 1, 7, 8, 9, 100, 1_000, 123_456, u64::MAX / 2] {
            let mut h = LatencyHistogram::new();
            h.record(v);
            let p = h.percentile(0.5);
            let err = p.abs_diff(v) as f64;
            assert!(
                err <= (v as f64 / 8.0).max(0.0) + 1.0,
                "p50 of a single sample {v} came back as {p}"
            );
        }
    }

    #[test]
    fn latency_histogram_percentiles_and_merge() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        let p50 = h.p50();
        let p99 = h.p99();
        let p999 = h.p999();
        // True quantiles are 500 / 990 / 1000; buckets are ≤ 12.5% wide.
        assert!((430..=570).contains(&p50), "p50 = {p50}");
        assert!((860..=1000).contains(&p99), "p99 = {p99}");
        assert!(p999 >= p99 && p999 <= 1000, "p999 = {p999}");
        assert!(h.percentile(1.0) <= 1000);

        let mut lo = LatencyHistogram::new();
        lo.record(10);
        let mut hi = LatencyHistogram::new();
        hi.record(1_000_000);
        lo.merge(&hi);
        assert_eq!(lo.count(), 2);
        assert_eq!(lo.min(), 10);
        assert_eq!(lo.max(), 1_000_000);
        // Merging into an empty block copies the other side verbatim.
        let mut empty = LatencyHistogram::new();
        empty.merge(&lo);
        assert_eq!(empty, lo);
        // Empty percentile is 0, not a panic.
        assert_eq!(LatencyHistogram::new().p999(), 0);
    }

    #[test]
    fn serve_metrics_json_carries_latency_gauges() {
        let mut m = ServeMetrics::new();
        m.latency.record(1_000);
        m.latency.record(2_000);
        let json = m.to_json();
        assert!(json.contains("\"lat_p50_nanos\":"));
        assert!(json.contains("\"lat_p999_nanos\":"));
        assert!(json.contains("\"lat_max_nanos\":2000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn skip_ratio_handles_zero() {
        assert_eq!(SessionMetrics::new().skip_ratio(), 0.0);
    }

    #[test]
    fn display_is_humane() {
        let mut m = SessionMetrics::new();
        m.full_runs = 1;
        m.nodes_verified = 4;
        let s = m.to_string();
        assert!(s.contains("1 full"));
        assert!(s.contains("4 verified"));
    }
}
