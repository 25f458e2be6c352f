//! The one statistics helper: medians, nearest-rank percentiles, and
//! the "highest percentile with at least ten samples beyond it" rule.

/// Percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 4] = [0.90, 0.99, 0.999, 0.9999];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// A sorted sample set.
#[derive(Debug, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Sort `values` (NaN-free by construction: they are durations and
    /// rates) into a sample set.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Samples(values)
    }

    pub fn n(&self) -> usize {
        self.0.len()
    }

    /// Median (mean of the two middle samples when `n` is even); 0 for
    /// an empty set.
    pub fn median(&self) -> f64 {
        let n = self.0.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => self.0[n / 2],
            _ => (self.0[n / 2 - 1] + self.0[n / 2]) / 2.0,
        }
    }

    /// Nearest-rank percentile, `q` in (0, 1]; 0 for an empty set.
    pub fn percentile(&self, q: f64) -> f64 {
        let n = self.0.len();
        if n == 0 {
            return 0.0;
        }
        let rank = (q * n as f64).ceil() as usize;
        self.0[rank.clamp(1, n) - 1]
    }

    pub fn max(&self) -> f64 {
        self.0.last().copied().unwrap_or(0.0)
    }

    /// The highest percentile of the ladder that still has at least
    /// ten samples beyond it, with its value; `None` when even p90 has
    /// fewer (n < 100).
    pub fn top_percentile(&self) -> Option<(f64, f64)> {
        let n = self.0.len();
        TAIL_LADDER
            .iter()
            .rev()
            .find(|&&q| n - ((q * n as f64).ceil() as usize).min(n) >= MIN_BEYOND)
            .map(|&q| (q, self.percentile(q)))
    }

    /// `median, p<top> (n=<count>)` for the human-readable report.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.top_percentile() {
            Some((q, v)) => format!(", p{} {v:.4} {unit}", q * 100.0),
            None => String::new(),
        };
        format!("median {:.4} {unit}{tail} (n={})", self.median(), self.n())
    }
}

/// Median of an unsorted slice.
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = Samples::new((1..=100).map(f64::from).collect());
        assert_eq!(s.percentile(0.5), 50.0);
        assert_eq!(s.percentile(0.9), 90.0);
        assert_eq!(s.percentile(0.99), 99.0);
        assert_eq!(s.percentile(1.0), 100.0);
        assert_eq!(s.max(), 100.0);
        assert_eq!(Samples::new(vec![7.0]).percentile(0.9), 7.0);
    }

    #[test]
    fn top_percentile_needs_ten_samples_beyond() {
        let of = |n: u32| Samples::new((0..n).map(f64::from).collect()).top_percentile();
        assert_eq!(of(99), None);
        assert_eq!(of(100).map(|t| t.0), Some(0.90));
        assert_eq!(of(999).map(|t| t.0), Some(0.90));
        assert_eq!(of(1000).map(|t| t.0), Some(0.99));
        assert_eq!(of(10_000).map(|t| t.0), Some(0.999));
        // The reported value is the percentile of the same samples.
        assert_eq!(of(1000).map(|t| t.1), Some(989.0));
    }

    #[test]
    fn describe_prints_the_sample_count() {
        let s = Samples::new((0..200).map(f64::from).collect());
        let text = s.describe("ms");
        assert!(text.contains("n=200"), "{text}");
        assert!(text.contains("p90"), "{text}");
    }
}
