//! Order statistics over raw samples.  Timings are reported as a median
//! and a stated percentile together with the sample count.

/// The `q`-quantile (`0.0..=1.0`) of already sorted samples by the
/// nearest-rank rule; `None` when there are no samples.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts the samples in place and returns their `q`-quantile.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    quantile_sorted(samples, q)
}

/// The median of the samples (sorts in place).
pub fn median(samples: &mut [f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The `q`-quantile of every consecutive window of `(time, value)` samples
/// `window` time units long, then the median over the windows.
///
/// A tail percentile of a whole run is set by its one or two worst
/// scheduling stalls; the median of per-window tails is what the tail looks
/// like in a typical second, and repeats between runs.  Windows with fewer
/// than `min_samples` samples (the ragged last one) are skipped.
pub fn windowed_quantile(
    samples: &[(u64, f64)],
    window: u64,
    q: f64,
    min_samples: usize,
) -> Option<f64> {
    let first = samples.iter().map(|s| s.0).min()?;
    let mut buckets: Vec<Vec<f64>> = Vec::new();
    for &(t, v) in samples {
        let b = ((t - first) / window) as usize;
        if buckets.len() <= b {
            buckets.resize_with(b + 1, Vec::new);
        }
        buckets[b].push(v);
    }
    let mut tails: Vec<f64> = buckets
        .iter_mut()
        .filter(|b| b.len() >= min_samples)
        .filter_map(|b| quantile(b, q))
        .collect();
    median(&mut tails)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50.0));
        assert_eq!(quantile(&mut v, 0.99), Some(99.0));
        assert_eq!(quantile(&mut v, 1.0), Some(100.0));
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn windowed_tail_ignores_one_bad_window() {
        // Ten windows of 100 samples at value 1.0; one window holds a stall.
        let mut samples = Vec::new();
        for w in 0..10u64 {
            for i in 0..100u64 {
                let v = if w == 3 && i > 90 { 500.0 } else { 1.0 };
                samples.push((w * 1_000 + i, v));
            }
        }
        assert_eq!(windowed_quantile(&samples, 1_000, 0.99, 50), Some(1.0));
    }
}
