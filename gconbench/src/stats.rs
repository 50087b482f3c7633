//! Order statistics over latency samples.

use std::time::Instant;

/// Nearest-rank percentile of an ascending-sorted, non-empty sample:
/// the smallest value with at least `p`% of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile {p} outside [0, 100]");
    // The small offset keeps decimal percentiles such as 99.9 from rounding
    // up a rank through binary representation error.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank, so always a measured value) of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).p50
}

/// Arithmetic mean of a non-empty sample.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median nanoseconds of `f` over `reps` calls after one warm-up call.
pub fn time_ns(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    f(0);
    let times: Vec<f64> = (0..reps)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

/// Median, tail percentiles and sample count of one latency series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    pub p999: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            p99: percentile(&sorted, 99.0),
            p999: percentile(&sorted, 99.9),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_cases() {
        let four = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&four), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);

        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 99.9), 100.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile(&hundred, 0.0), 1.0);

        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&thousand);
        assert_eq!((s.n, s.p50, s.p99, s.p999), (1000, 500.0, 990.0, 999.0));
    }

    #[test]
    fn summary_ignores_input_order() {
        let a = Summary::of(&[5.0, 9.0, 1.0, 7.0, 3.0]);
        let b = Summary::of(&[1.0, 3.0, 5.0, 7.0, 9.0]);
        assert_eq!(a, b);
        assert_eq!(a.p50, 5.0);
        assert_eq!(a.p99, 9.0);
    }
}
