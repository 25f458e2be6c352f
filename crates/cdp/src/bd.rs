//! Unit tests of Budget Distribution; [`crate::mechanism`] implements it.

mod tests {
    use crate::CdpKind;
    use ldp_stream::TrueHistogram;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn static_truth(n: u64) -> TrueHistogram {
        TrueHistogram::new(vec![n * 7 / 10, n - n * 7 / 10])
    }

    #[test]
    fn first_timestamp_publishes() {
        let mut m = CdpKind::Bd.build(1.0, 5, 2);
        let mut rng = StdRng::seed_from_u64(1);
        m.step(&static_truth(1000), &mut rng);
        assert_eq!(m.publications(), 1);
    }

    #[test]
    fn static_stream_approximates_sometimes() {
        // The policy is stochastic (noisy dissimilarity vs. noisy last
        // release); on a static stream it must at least *not* publish
        // every timestamp.
        let mut m = CdpKind::Bd.build(1.0, 10, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let truth = static_truth(100_000);
        for _ in 0..100 {
            m.step(&truth, &mut rng);
        }
        assert!(
            m.publications() < 80,
            "static stream should approximate part of the time, got {}",
            m.publications()
        );
    }

    #[test]
    fn volatile_stream_publishes_more_than_static() {
        let run = |volatile: bool| {
            let mut m = CdpKind::Bd.build(1.0, 10, 2);
            let mut rng = StdRng::seed_from_u64(3);
            let n = 100_000u64;
            for t in 0..100u64 {
                let ones = if volatile {
                    // Swing between 10% and 50%.
                    if t % 2 == 0 {
                        n / 10
                    } else {
                        n / 2
                    }
                } else {
                    n / 10
                };
                m.step(&TrueHistogram::new(vec![n - ones, ones]), &mut rng);
            }
            m.publications()
        };
        assert!(run(true) > run(false));
    }

    #[test]
    fn budget_never_violated_over_long_run() {
        // Ledger panics internally on violation.
        let mut m = CdpKind::Bd.build(0.5, 7, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let n = 10_000u64;
        for t in 0..500u64 {
            let a = (n / 4) + (t % 13) * 100;
            let b = n / 3;
            let truth = TrueHistogram::new(vec![a, b, n - a - b]);
            m.step(&truth, &mut rng);
        }
    }

    #[test]
    fn releases_are_frequency_scaled() {
        let mut m = CdpKind::Bd.build(2.0, 5, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let r = m.step(&static_truth(1_000_000), &mut rng);
        assert!((r[0] - 0.7).abs() < 0.05, "release {r:?}");
    }
}
