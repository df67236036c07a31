//! Order statistics over timing samples.

/// The nearest-rank position (1-based) of the `p`-quantile among `n`
/// samples, when at least ten samples lie beyond it.
fn rank(n: usize, p: f64) -> Option<usize> {
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n >= 1 && n - rank >= 10).then_some(rank)
}

/// The nearest-rank `p`-quantile (`0 < p <= 1`) of `samples`, or `None` when
/// fewer than ten samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    rank(sorted.len(), p).map(|r| sorted[r - 1])
}

/// The median of `samples` (mean of the middle two for an even count);
/// `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Each request keeps the fastest `1 / KEEP_ONE_IN` of its repetitions.
pub const KEEP_ONE_IN: usize = 8;

/// Kept repetitions per request after `epochs` epochs.
pub fn kept(epochs: usize) -> usize {
    (epochs / KEEP_ONE_IN).max(1)
}

/// The fewest epochs after which a `p`-quantile over the kept repetitions
/// of `per_epoch` requests has ten samples beyond it (0 for no requests).
pub fn epochs_for(per_epoch: usize, p: f64) -> usize {
    if per_epoch == 0 {
        return 0;
    }
    let rounds = (1..)
        .find(|k| rank(k * per_epoch, p).is_some())
        .expect("enough rounds always exist");
    if rounds == 1 {
        1
    } else {
        rounds * KEEP_ONE_IN
    }
}

/// Latency samples from repeated measurements, where `epochs[e][i]` is
/// request `i`'s time in epoch `e` and every epoch replays identical
/// requests on identical state. Host interference only ever adds time, so
/// each request keeps its fastest [`kept`] repetitions: the low tail of
/// repeated identical work is what the code costs, the rest is what the
/// host added. Returns one list per kept rank, each with one sample per
/// request.
pub fn fastest_share(epochs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let Some(first) = epochs.first() else {
        return Vec::new();
    };
    let kept = kept(epochs.len());
    let per_request: Vec<Vec<f64>> = (0..first.len())
        .map(|i| {
            let mut times: Vec<f64> = epochs.iter().map(|e| e[i]).collect();
            times.sort_by(f64::total_cmp);
            times.truncate(kept);
            times
        })
        .collect();
    (0..kept)
        .map(|rank| per_request.iter().map(|t| t[rank]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_share_keeps_each_requests_low_tail() {
        // Sixteen epochs of two requests; request 0 is slow in most.
        let epochs: Vec<Vec<f64>> = (0..16)
            .map(|e| {
                vec![
                    if e % 5 == 0 { 1.0 + e as f64 } else { 100.0 },
                    5.0 + e as f64,
                ]
            })
            .collect();
        // Keep one in eight: the two fastest repetitions of each request.
        assert_eq!(fastest_share(&epochs), vec![vec![1.0, 5.0], vec![6.0, 6.0]]);
        // Fewer epochs than that: the fastest of all.
        assert_eq!(fastest_share(&epochs[..3]), vec![vec![1.0, 5.0]]);
        assert!(fastest_share(&[]).is_empty());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(100.0));
        assert_eq!(percentile(&samples, 0.95), Some(190.0));
        assert_eq!(percentile(&samples, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn epochs_for_gives_each_tail_ten_samples() {
        // 17 requests an epoch: a p95 needs 204 kept samples, 12 rounds.
        assert_eq!(epochs_for(17, 0.95), 12 * KEEP_ONE_IN);
        let rounds = kept(epochs_for(17, 0.95));
        assert!(percentile(&vec![1.0; 17 * rounds], 0.95).is_some());
        assert!(percentile(&vec![1.0; 17 * (rounds - 1)], 0.95).is_none());
        // One epoch is enough when an epoch alone has the samples.
        assert_eq!(epochs_for(200, 0.95), 1);
        assert_eq!(epochs_for(0, 0.99), 0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
