//! Unit tests of Budget Absorption; [`crate::mechanism`] implements it.

mod tests {
    use crate::mechanism::{absorbable, Rule};
    use crate::CdpKind;
    use ldp_stream::TrueHistogram;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn truth_with(n: u64, ones: u64) -> TrueHistogram {
        TrueHistogram::new(vec![n - ones, ones])
    }

    #[test]
    fn first_timestamp_publishes_with_one_unit() {
        let mut m = CdpKind::Ba.build(1.0, 5, 2);
        let mut rng = StdRng::seed_from_u64(1);
        m.step(&truth_with(1000, 300), &mut rng);
        assert_eq!(m.publications(), 1);
        assert!(matches!(m.rule, Rule::Absorption { last: 1, units: 1 }));
    }

    #[test]
    fn absorption_arithmetic() {
        // No publication yet (the origin): everything since the start is
        // absorbable, capped at w.
        assert_eq!(absorbable(0, 1, 3, 10), Some(3));
        assert_eq!(absorbable(0, 1, 25, 10), Some(10));
        // After a publication at t = 5 that absorbed 3 units, the 2 steps
        // 6 and 7 are nullified:
        assert_eq!(absorbable(5, 3, 6, 10), None);
        assert_eq!(absorbable(5, 3, 7, 10), None, "still inside nullification");
        assert_eq!(absorbable(5, 3, 8, 10), Some(1));
        assert_eq!(absorbable(5, 3, 12, 10), Some(5));
    }

    #[test]
    fn nullification_blocks_publication_deterministically() {
        let mut m = CdpKind::Ba.build(1.0, 10, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 1_000_000u64;
        // Force state: a publication at t = 4 that absorbed 4 units.
        for _ in 0..4 {
            m.step(&truth_with(n, n / 10), &mut rng);
        }
        m.rule = Rule::Absorption {
            last: m.t,
            units: 4,
        };
        m.last = Some(vec![0.9, 0.1]);
        let pubs = m.publications();
        // The next 3 steps are nullified: even a huge change cannot
        // publish.
        for _ in 0..3 {
            m.step(&truth_with(n, n / 2), &mut rng);
            assert_eq!(m.publications(), pubs, "publication during nullification");
        }
        // After nullification, the change can publish again.
        m.step(&truth_with(n, n / 2), &mut rng);
        assert_eq!(m.publications(), pubs + 1);
    }

    #[test]
    fn budget_never_violated_over_long_volatile_run() {
        let mut m = CdpKind::Ba.build(0.7, 6, 2);
        let mut rng = StdRng::seed_from_u64(4);
        let n = 500_000u64;
        for t in 0..600u64 {
            let ones = n / 10 + (t % 17) * (n / 200);
            m.step(&truth_with(n, ones), &mut rng);
        }
    }

    #[test]
    fn volatile_stream_publishes_at_least_as_much_as_static() {
        // The adaptive policy is stochastic (the dissimilarity estimate is
        // itself noisy), so only the relative ordering is stable.
        let run = |volatile: bool, seed: u64| {
            let mut m = CdpKind::Ba.build(1.0, 10, 2);
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 1_000_000u64;
            for t in 0..200u64 {
                let ones = if volatile {
                    if t % 2 == 0 {
                        n / 10
                    } else {
                        n / 2
                    }
                } else {
                    n / 10
                };
                m.step(&truth_with(n, ones), &mut rng);
            }
            m.publications()
        };
        let volatile: u64 = (0..5).map(|s| run(true, s)).sum();
        let static_: u64 = (0..5).map(|s| run(false, s)).sum();
        assert!(
            volatile > static_,
            "volatile {volatile} vs static {static_}"
        );
    }
}
