//! Order statistics over the timed repetitions of one run.

/// Linearly interpolated quantile of an ascending slice (`p` in 0..=1).
fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let h = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    sorted[lo] + (h - h.floor()) * (sorted[hi] - sorted[lo])
}

/// Five-number summary of the repetitions of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            n: s.len(),
            min: s[0],
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
            max: s[s.len() - 1],
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.min, s.q1, s.median, s.q3, s.max), (1.0, 2.0, 3.0, 4.0, 5.0));
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (17.5, 25.0, 32.5));
        assert_eq!(s.n, 4);
    }

    #[test]
    fn one_slow_outlier_does_not_move_the_median() {
        assert_eq!(median(&[1.0, 1.0, 1.0, 1.0, 50.0]), 1.0);
    }
}
