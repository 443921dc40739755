//! Order statistics over per-op wall times.
//!
//! The gated estimator is the 10th percentile, not the median: noise on a
//! shared host is one-sided (a run only ever gets slower) and arrives in
//! spells that can cover half of a run, which moves the median by tens of
//! percent and the low percentiles by a few (see README.md, "Noise study").

/// Nearest-rank percentile of `samples` (`q` in `(0, 1]`): the smallest
/// value with at least `q·n` samples at or below it.
///
/// # Panics
///
/// Panics if `samples` is empty or holds a NaN.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("wall times are never NaN"));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The gated wall-time estimator (see the module docs).
pub fn p10(samples: &[f64]) -> f64 {
    percentile(samples, 0.10)
}

/// Nearest-rank median: the lower middle value of an even-sized set.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(p10(&v), 10.0);
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        // Fewer than ten samples: p10 is the minimum.
        assert_eq!(p10(&[7.0, 3.0, 5.0]), 3.0);
        assert_eq!(median(&[7.0, 3.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(p10(&[42.0]), 42.0);
    }

    #[test]
    fn p10_ignores_a_slow_spell_the_median_does_not() {
        // 60 % of the ops ran in a slow mode 40 % slower.
        let mut v = vec![100.0; 40];
        v.extend(vec![140.0; 60]);
        assert_eq!(p10(&v), 100.0);
        assert_eq!(median(&v), 140.0);
    }
}
