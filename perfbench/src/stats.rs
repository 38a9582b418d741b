//! Sample statistics: the median and the tail rule.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Fewest samples for which [`TAIL_BEYOND`] samples beyond still leave
/// the tail at or above p75.
pub const TAIL_MIN_SAMPLES: usize = 4 * TAIL_BEYOND;

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail of one run's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Which percentile `value` is.
    pub percentile: f64,
    pub samples: usize,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the 11th-largest sample, which is the `100·(n−10)/n`-th
/// percentile. A run with fewer than [`TAIL_MIN_SAMPLES`] samples has no
/// such percentile at or above p75; it leaves a quarter of its samples
/// beyond instead (about p75), which one slow sample cannot move. The
/// two rules meet at [`TAIL_MIN_SAMPLES`], so the percentile never drops
/// when a run gets one sample more.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of no samples");
    let s = sorted(xs);
    let n = s.len();
    let beyond = if n < TAIL_MIN_SAMPLES {
        n / 4
    } else {
        TAIL_BEYOND
    };
    Tail {
        value: s[n - 1 - beyond],
        percentile: 100.0 * (n - beyond) as f64 / n as f64,
        samples: n,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn the_two_rules_meet_at_the_threshold() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.percentile, 75.0);
        let below = tail(&xs[..39]);
        assert_eq!(below.percentile, 100.0 * 30.0 / 39.0);
    }

    #[test]
    fn short_runs_leave_a_quarter_beyond() {
        let xs = [5.0, 9.0, 7.0, 6.0, 8.0, 30.0, 4.0, 3.0];
        let t = tail(&xs);
        assert_eq!(t.value, 8.0);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(t.samples, 8);
        assert_eq!(tail(&[5.0, 9.0, 7.0]).value, 9.0);
    }
}
