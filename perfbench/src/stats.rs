//! Order statistics over measured samples.
//!
//! Every latency percentile the benchmark reports goes through
//! [`percentile`], which refuses a percentile that fewer than
//! [`MIN_TAIL`] samples lie beyond: a "p90" of 40 ops is the fourth
//! largest sample, not a tail estimate.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1)`) of `samples`.
///
/// # Errors
///
/// When fewer than [`MIN_TAIL`] samples lie beyond the percentile's
/// rank, or `samples` is empty.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_TAIL {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it (need {MIN_TAIL})",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The middle of a handful of aggregate values (setup repetitions,
/// throughput windows): the mean of the two middle values when even.
/// Not a tail statistic, so [`MIN_TAIL`] does not apply.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The percentile helper's own negative control: it must refuse every
/// percentile with too thin a tail and accept one with enough.
pub fn self_check() -> Result<(), String> {
    let fifty: Vec<f64> = (0..50).map(f64::from).collect();
    for q in [0.9, 0.99] {
        if percentile(&fifty, q).is_ok() {
            return Err(format!("percentile accepted p{} of 50 samples", q * 100.0));
        }
    }
    let p50 = percentile(&fifty, 0.5)?;
    if p50 != 24.0 {
        return Err(format!("p50 of 0..50 gave {p50}, want 24"));
    }
    Ok(())
}
