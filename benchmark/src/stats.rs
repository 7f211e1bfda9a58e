//! Order statistics over rep samples.

/// Linear-interpolated percentile (`p` in 0..=100) of `sorted` (ascending).
/// Empty input reads as 0.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    percentile_sorted(&sorted(samples), 50.0)
}

/// A sample set reduced to what the result files carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        let s = sorted(samples);
        Summary {
            median: percentile_sorted(&s, 50.0),
            q1: percentile_sorted(&s, 25.0),
            q3: percentile_sorted(&s, 75.0),
            n: s.len(),
        }
    }

    /// The same samples in another unit (`k` > 0).
    pub fn scaled(self, k: f64) -> Self {
        Summary {
            median: self.median * k,
            q1: self.q1 * k,
            q3: self.q3 * k,
            n: self.n,
        }
    }

    /// A metric measured once per run: no spread to report.
    pub fn single(value: f64) -> Self {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        let s = Summary::of(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (12.5, 15.0, 17.5));
    }

    #[test]
    fn percentiles_hit_the_ends_and_the_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert!((percentile_sorted(&v, 99.0) - 99.01).abs() < 1e-9);
    }
}
