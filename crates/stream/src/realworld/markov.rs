//! Aggregate-level Markov evolution of cell counts.

use ldp_util::binomial::{sample_binomial, sample_multinomial_weighted};
use rand::Rng;

/// Deterministically allocate `n` users over cells proportionally to
/// `weights`, using largest-remainder rounding so the counts sum to `n`
/// exactly.
pub fn largest_remainder_allocation(n: u64, weights: &[f64]) -> Vec<u64> {
    assert!(!weights.is_empty(), "weights must be non-empty");
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must have positive mass");
    let exact: Vec<f64> = weights.iter().map(|&w| w / total * n as f64).collect();
    let mut counts: Vec<u64> = exact.iter().map(|&e| e.floor() as u64).collect();
    let mut assigned: u64 = counts.iter().sum();
    // Hand out the shortfall to the largest fractional remainders.
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = exact[a] - exact[a].floor();
        let rb = exact[b] - exact[b].floor();
        rb.partial_cmp(&ra).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut i = 0;
    while assigned < n {
        counts[order[i % order.len()]] += 1;
        assigned += 1;
        i += 1;
    }
    counts
}

/// One aggregate Markov step: from each cell `k`, `Bin(counts[k],
/// leave_prob)` users leave; the pooled leavers re-land on cells drawn
/// from `dest_weights` (a weighted multinomial). Exactly equivalent to
/// `N` users independently applying the same per-user kernel.
///
/// The population is conserved.
pub fn markov_step<R: Rng + ?Sized>(
    counts: &mut [u64],
    leave_prob: f64,
    dest_weights: &[f64],
    rng: &mut R,
) {
    debug_assert_eq!(counts.len(), dest_weights.len());
    let mut pooled: u64 = 0;
    for c in counts.iter_mut() {
        let leave = sample_binomial(rng, *c, leave_prob).expect("leave_prob in [0,1]");
        *c -= leave;
        pooled += leave;
    }
    if pooled == 0 {
        return;
    }
    let landed = sample_multinomial_weighted(rng, pooled, dest_weights)
        .expect("dest_weights validated by caller");
    for (c, l) in counts.iter_mut().zip(landed) {
        *c += l;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn allocation_sums_to_n() {
        for n in [0u64, 1, 7, 100, 10_357] {
            let counts = largest_remainder_allocation(n, &[0.1, 0.2, 0.3, 0.4]);
            assert_eq!(counts.iter().sum::<u64>(), n);
        }
    }

    #[test]
    fn allocation_is_proportional() {
        let counts = largest_remainder_allocation(1000, &[1.0, 3.0]);
        assert_eq!(counts, vec![250, 750]);
    }

    #[test]
    fn allocation_handles_remainders() {
        // 10 users over 3 equal cells: 4/3/3 (largest remainders first).
        let counts = largest_remainder_allocation(10, &[1.0, 1.0, 1.0]);
        assert_eq!(counts.iter().sum::<u64>(), 10);
        assert!(counts.iter().all(|&c| c == 3 || c == 4));
    }

    #[test]
    #[should_panic(expected = "positive mass")]
    fn allocation_rejects_zero_mass() {
        largest_remainder_allocation(10, &[0.0, 0.0]);
    }

    #[test]
    fn markov_step_conserves_population() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![100u64, 200, 300];
        let weights = [0.5, 0.3, 0.2];
        for _ in 0..100 {
            markov_step(&mut counts, 0.1, &weights, &mut rng);
            assert_eq!(counts.iter().sum::<u64>(), 600);
        }
    }

    #[test]
    fn markov_step_converges_to_weights() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = vec![600_000u64, 0, 0];
        let weights = [0.2, 0.3, 0.5];
        for _ in 0..400 {
            markov_step(&mut counts, 0.2, &weights, &mut rng);
        }
        let n: u64 = counts.iter().sum();
        for (k, &w) in weights.iter().enumerate() {
            let f = counts[k] as f64 / n as f64;
            assert!((f - w).abs() < 0.02, "cell {k}: {f} vs {w}");
        }
    }

    #[test]
    fn zero_leave_prob_freezes_stream() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![10u64, 20];
        markov_step(&mut counts, 0.0, &[0.5, 0.5], &mut rng);
        assert_eq!(counts, vec![10, 20]);
    }
}
