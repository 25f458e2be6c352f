//! Small statistics helpers used by tests, metrics and the harness.

use crate::kahan::KahanSum;

/// Arithmetic mean (`NaN` for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().copied().collect::<KahanSum>().mean()
}

/// Unbiased (n−1) sample variance (`NaN` for fewer than two samples).
pub fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    let ss: KahanSum = xs.iter().map(|&x| (x - m) * (x - m)).collect();
    ss.sum() / (xs.len() as f64 - 1.0)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of an unsorted slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_nan() {
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn mean_and_variance_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((sample_variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn variance_needs_two_samples() {
        assert!(sample_variance(&[1.0]).is_nan());
    }

    #[test]
    fn quantile_endpoints_and_median() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((quantile(&xs, 0.25) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_invalid_inputs() {
        assert!(quantile(&[], 0.5).is_nan());
        assert!(quantile(&[1.0], -0.1).is_nan());
        assert!(quantile(&[1.0], 1.1).is_nan());
    }
}
