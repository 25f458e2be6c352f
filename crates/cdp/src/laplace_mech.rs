//! Unit tests of the Laplace histogram release.

mod tests {
    use crate::mechanism::laplace_release;
    use ldp_stream::TrueHistogram;
    use ldp_util::stats::{mean, sample_variance};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_zero_epsilon() {
        laplace_release(
            &TrueHistogram::new(vec![1, 1]),
            0.0,
            &mut StdRng::seed_from_u64(0),
        );
    }

    #[test]
    fn release_is_unbiased() {
        let truth = TrueHistogram::new(vec![700, 300]);
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 20_000;
        let mut acc = [0.0f64; 2];
        for _ in 0..trials {
            let r = laplace_release(&truth, 1.0, &mut rng);
            acc[0] += r[0];
            acc[1] += r[1];
        }
        assert!((acc[0] / trials as f64 - 0.7).abs() < 0.001);
        assert!((acc[1] / trials as f64 - 0.3).abs() < 0.001);
    }

    #[test]
    fn release_variance_matches_formula() {
        let truth = TrueHistogram::new(vec![500, 500]);
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<f64> = (0..40_000)
            .map(|_| laplace_release(&truth, 0.5, &mut rng)[0])
            .collect();
        let v = sample_variance(&samples);
        // Lap(1/ε) on a count over n users: 2/(nε)² on the frequency.
        let theory = 2.0 / (1000.0f64 * 0.5).powi(2);
        assert!((v - theory).abs() / theory < 0.05, "{v} vs {theory}");
        assert!((mean(&samples) - 0.5).abs() < 0.001);
    }
}
