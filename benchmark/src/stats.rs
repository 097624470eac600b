//! Order statistics: medians over rounds, quartile spread, and the latency
//! percentile picker.

/// Median of `values` (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of `values`, interpolating linearly between order
/// statistics; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = q * (v.len().checked_sub(1)? as f64);
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (at - lo as f64))
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method), which is what the acceptance rule
/// for this benchmark is written against. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The `q`-quantile (nearest rank) of `samples`, reordering them.
pub fn percentile(samples: &mut [u32], q: f64) -> u32 {
    if samples.is_empty() {
        return 0;
    }
    // The epsilon keeps `n * q` products that are whole in exact arithmetic
    // (1000 * 0.99) from rounding up a rank through float error.
    let rank = ((samples.len() as f64 * q - 1e-9).ceil() as usize).clamp(1, samples.len());
    *samples.select_nth_unstable(rank - 1).1
}

/// A tail percentile a sample of a given size can support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Label, e.g. `p99.99`.
    pub label: &'static str,
    pub q: f64,
    /// Samples that lie beyond the percentile.
    pub beyond: usize,
}

/// Samples that must lie beyond a percentile before it is reported
/// (`choosing-metrics` section 1).
pub const MIN_BEYOND: usize = 10;

/// The highest of p99.99 / p99.9 / p99 / p90 that has at least `min_beyond`
/// of `n` samples beyond it; p50 when even p90 has not.
pub fn tail_for(n: usize, min_beyond: usize) -> Tail {
    // (label, d): the percentile 1 - 1/d has floor(n / d) samples beyond
    // its nearest rank.
    const LADDER: [(&str, usize); 4] = [
        ("p99.99", 10_000),
        ("p99.9", 1_000),
        ("p99", 100),
        ("p90", 10),
    ];
    for (label, d) in LADDER {
        let beyond = n / d;
        if beyond >= min_beyond {
            return Tail {
                label,
                q: 1.0 - 1.0 / d as f64,
                beyond,
            };
        }
    }
    Tail {
        label: "p50",
        q: 0.5,
        beyond: n / 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn quantile_interpolates_between_rounds() {
        let v: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), Some(10.0));
        assert_eq!(quantile(&v, 0.5), Some(6.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.9), Some(1.9));
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
        assert_eq!(quantile(&[], 0.9), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=1000).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 500);
        assert_eq!(percentile(&mut v, 0.99), 990);
        assert_eq!(percentile(&mut v, 1.0), 1000);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }

    #[test]
    fn tail_needs_enough_samples_beyond_and_reports_the_count() {
        // 1M samples: 100 lie beyond p99.99.
        let t = tail_for(1_000_000, MIN_BEYOND);
        assert_eq!((t.label, t.beyond), ("p99.99", 100));
        // 100k samples: exactly 10 beyond p99.99 still qualifies ...
        assert_eq!(tail_for(100_000, MIN_BEYOND).label, "p99.99");
        // ... one sample fewer does not, and the picker steps down.
        let t = tail_for(99_999, MIN_BEYOND);
        assert_eq!((t.label, t.beyond), ("p99.9", 99));
        assert_eq!(tail_for(4_000, MIN_BEYOND).label, "p99");
        assert_eq!(tail_for(999, MIN_BEYOND).label, "p90");
        assert_eq!(tail_for(50, MIN_BEYOND).label, "p50");
        // The end-to-end tail asks for 100 beyond: the same sizes step down.
        assert_eq!(tail_for(1_000_000, 100).label, "p99.99");
        assert_eq!(tail_for(300_000, 100).label, "p99.9");
        let t = tail_for(5_000, 100);
        assert_eq!((t.label, t.beyond), ("p90", 500));
        for n in [100usize, 1_000, 12_345, 99_999, 1_000_000] {
            for min in [MIN_BEYOND, 100] {
                let t = tail_for(n, min);
                assert!(t.label == "p50" || t.beyond >= min, "{n}: {t:?}");
            }
        }
    }
}
