//! Unit tests of the budget-division mechanisms (paper §5), one module
//! per mechanism; [`crate::schedule`] implements them.

use crate::collector::RoundCollector;
use crate::config::MechanismConfig;
use crate::release::Release;
use crate::schedule::{Adaptive, Division, Fixed};
use crate::traits::{MechanismKind, StreamMechanism};

mod lbu {
    mod tests {
        use crate::budget::*;
        use crate::collector::AggregateCollector;
        use ldp_stream::source::ConstantSource;
        use ldp_stream::TrueHistogram;

        fn setup(eps: f64, w: usize, n: u64) -> (Fixed, AggregateCollector) {
            let hist = TrueHistogram::new(vec![n * 7 / 10, n - n * 7 / 10]);
            let config = MechanismConfig::new(eps, w, 2, n);
            let collector =
                AggregateCollector::new(Box::new(ConstantSource::new(hist)), &config, 11);
            (Fixed::new(MechanismKind::Lbu, config).unwrap(), collector)
        }

        #[test]
        fn publishes_every_timestamp() {
            let (mut mech, mut collector) = setup(1.0, 5, 10_000);
            for t in 0..12u64 {
                collector.begin_step().unwrap();
                let r = mech.step(&mut collector).unwrap();
                assert_eq!(r.t, t);
                assert!(r.kind.is_publication());
            }
            assert_eq!(mech.publications(), 12);
        }

        #[test]
        fn spends_exactly_epsilon_per_window() {
            let (mut mech, mut collector) = setup(2.0, 4, 10_000);
            for _ in 0..8 {
                collector.begin_step().unwrap();
                mech.step(&mut collector).unwrap();
            }
            assert!((mech.ledger().window_total() - 2.0).abs() < 1e-9);
            assert!((mech.ledger().max_window_total() - 2.0).abs() < 1e-9);
        }

        #[test]
        fn estimates_track_truth_at_large_population() {
            let (mut mech, mut collector) = setup(5.0, 2, 100_000);
            collector.begin_step().unwrap();
            let r = mech.step(&mut collector).unwrap();
            assert!((r.frequencies[0] - 0.7).abs() < 0.05, "{r:?}");
        }

        #[test]
        fn cfpu_is_one() {
            let (mut mech, mut collector) = setup(1.0, 5, 1000);
            for _ in 0..10 {
                collector.begin_step().unwrap();
                mech.step(&mut collector).unwrap();
            }
            assert!((collector.stats().cfpu(1000) - 1.0).abs() < 1e-12);
        }
    }
}

mod lsp {
    mod tests {
        use crate::budget::*;
        use crate::collector::AggregateCollector;
        use ldp_stream::source::ConstantSource;
        use ldp_stream::TrueHistogram;

        fn setup(w: usize, n: u64) -> (Fixed, AggregateCollector) {
            let hist = TrueHistogram::new(vec![n / 2, n - n / 2]);
            let config = MechanismConfig::new(1.0, w, 2, n);
            let collector =
                AggregateCollector::new(Box::new(ConstantSource::new(hist)), &config, 3);
            (Fixed::new(MechanismKind::Lsp, config).unwrap(), collector)
        }

        #[test]
        fn samples_once_per_window() {
            let (mut mech, mut collector) = setup(4, 10_000);
            let mut kinds = Vec::new();
            for _ in 0..9 {
                collector.begin_step().unwrap();
                let r = mech.step(&mut collector).unwrap();
                kinds.push(r.kind.is_publication());
            }
            assert_eq!(
                kinds,
                vec![true, false, false, false, true, false, false, false, true]
            );
            assert_eq!(mech.publications(), 3);
        }

        #[test]
        fn approximations_repeat_last_release() {
            let (mut mech, mut collector) = setup(3, 10_000);
            collector.begin_step().unwrap();
            let first = mech.step(&mut collector).unwrap();
            collector.begin_step().unwrap();
            let second = mech.step(&mut collector).unwrap();
            assert_eq!(first.frequencies, second.frequencies);
        }

        #[test]
        fn cfpu_is_inverse_window() {
            let (mut mech, mut collector) = setup(5, 2000);
            for _ in 0..10 {
                collector.begin_step().unwrap();
                mech.step(&mut collector).unwrap();
            }
            assert!((collector.stats().cfpu(2000) - 1.0 / 5.0).abs() < 1e-12);
        }

        #[test]
        fn freshness_accounting_accepts_window_spacing() {
            // The collector would reject Fresh(N) rounds closer than w apart;
            // running many windows exercises that invariant.
            let (mut mech, mut collector) = setup(2, 500);
            for _ in 0..20 {
                collector.begin_step().unwrap();
                mech.step(&mut collector).unwrap();
            }
        }
    }
}

mod lbd {
    mod tests {
        use crate::budget::*;
        use crate::collector::AggregateCollector;
        use ldp_stream::source::{ConstantSource, ReplaySource};
        use ldp_stream::TrueHistogram;

        fn run(
            source: Box<dyn ldp_stream::StreamSource>,
            config: MechanismConfig,
            steps: usize,
            seed: u64,
        ) -> (Adaptive, Vec<Release>, AggregateCollector) {
            let mut collector = AggregateCollector::new(source, &config, seed);
            let mut mech = Adaptive::new(MechanismKind::Lbd, config).unwrap();
            let mut out = Vec::with_capacity(steps);
            for _ in 0..steps {
                collector.begin_step().unwrap();
                out.push(mech.step(&mut collector).unwrap());
            }
            (mech, out, collector)
        }

        #[test]
        fn static_stream_publishes_less_than_volatile() {
            // The adaptive rule cannot be expected to be silent on a static
            // stream (the dissimilarity estimate is itself noisy — that noise
            // is what Table 2's CFPU ≈ 1.27 reflects), but it must publish
            // strictly less than on a stream that genuinely changes.
            let n = 100_000u64;
            let hist = TrueHistogram::new(vec![n / 2, n / 2]);
            let config = MechanismConfig::new(1.0, 10, 2, n);
            let (static_mech, releases, _) =
                run(Box::new(ConstantSource::new(hist)), config.clone(), 60, 5);
            let volatile: Vec<TrueHistogram> = (0..60)
                .map(|i| {
                    if i % 2 == 0 {
                        TrueHistogram::new(vec![n * 9 / 10, n / 10])
                    } else {
                        TrueHistogram::new(vec![n / 10, n * 9 / 10])
                    }
                })
                .collect();
            let (volatile_mech, _, _) = run(
                Box::new(ReplaySource::new("volatile", volatile)),
                config,
                60,
                5,
            );
            assert!(
                static_mech.publications() < volatile_mech.publications(),
                "static {} vs volatile {}",
                static_mech.publications(),
                volatile_mech.publications()
            );
            // Releases still track the truth through the early publication.
            let last = releases.last().unwrap();
            assert!((last.frequencies[0] - 0.5).abs() < 0.2);
        }

        #[test]
        fn level_shift_triggers_publication() {
            // 30 steps at 20%, jump to 80% for 30 more.
            let n = 200_000u64;
            let mut seq = Vec::new();
            for _ in 0..30 {
                seq.push(TrueHistogram::new(vec![n * 8 / 10, n * 2 / 10]));
            }
            for _ in 0..30 {
                seq.push(TrueHistogram::new(vec![n * 2 / 10, n * 8 / 10]));
            }
            let config = MechanismConfig::new(2.0, 10, 2, n);
            let (_, releases, _) = run(Box::new(ReplaySource::new("shift", seq)), config, 60, 7);
            // After the shift the release must have moved toward the new level.
            let after = &releases[45];
            assert!(
                after.frequencies[1] > 0.5,
                "release failed to follow the level shift: {:?}",
                after.frequencies
            );
        }

        #[test]
        fn window_budget_never_exceeds_epsilon() {
            let hist = TrueHistogram::new(vec![10_000, 90_000]);
            let config = MechanismConfig::new(1.0, 7, 2, 100_000);
            let (mech, _, _) = run(Box::new(ConstantSource::new(hist)), config, 50, 9);
            assert!(mech.ledger().max_window_total() <= 1.0 + 1e-9);
        }

        #[test]
        fn publication_budgets_decay_exponentially() {
            // Force publications by making the stream very volatile.
            let n = 1_000_000u64;
            let seq: Vec<TrueHistogram> = (0..20)
                .map(|i| {
                    if i % 2 == 0 {
                        TrueHistogram::new(vec![n * 9 / 10, n / 10])
                    } else {
                        TrueHistogram::new(vec![n / 10, n * 9 / 10])
                    }
                })
                .collect();
            let config = MechanismConfig::new(2.0, 10, 2, n);
            let (_, releases, _) = run(Box::new(ReplaySource::new("volatile", seq)), config, 20, 1);
            let budgets: Vec<f64> = releases
                .iter()
                .filter_map(|r| match r.kind {
                    crate::release::ReleaseKind::Published { epsilon, .. } => Some(epsilon),
                    _ => None,
                })
                .collect();
            assert!(!budgets.is_empty());
            // First publication gets ε/4 = 0.5.
            assert!((budgets[0] - 0.5).abs() < 1e-12, "{budgets:?}");
            // Subsequent publications inside one window get at most half the
            // previous remainder.
            for pair in budgets.windows(2).take(4) {
                assert!(pair[1] <= pair[0] + 1e-12, "{budgets:?}");
            }
        }

        #[test]
        fn decision_is_observable() {
            let hist = TrueHistogram::new(vec![500, 500]);
            let config = MechanismConfig::new(1.0, 5, 2, 1000);
            let (mech, _, _) = run(Box::new(ConstantSource::new(hist)), config, 3, 2);
            let d = mech.last_decision().unwrap();
            assert!(d.err > 0.0);
            assert!(d.provisional > 0.0);
        }

        #[test]
        fn cfpu_is_one_plus_publication_rate() {
            let hist = TrueHistogram::new(vec![600, 400]);
            let config = MechanismConfig::new(1.0, 5, 2, 1000);
            let steps = 40;
            let (mech, _, collector) = run(Box::new(ConstantSource::new(hist)), config, steps, 3);
            let expected = 1.0 + mech.publications() as f64 / steps as f64;
            assert!((collector.stats().cfpu(1000) - expected).abs() < 1e-9);
        }

        #[test]
        fn window_of_one_gets_fresh_half_budget_every_step() {
            let hist = TrueHistogram::new(vec![600, 400]);
            let config = MechanismConfig::new(1.0, 1, 2, 1000);
            let (mech, _, _) = run(Box::new(ConstantSource::new(hist)), config, 10, 4);
            assert!(mech.ledger().max_window_total() <= 1.0 + 1e-9);
        }
    }
}

mod lba {
    mod tests {
        use crate::budget::*;
        use crate::collector::AggregateCollector;
        use crate::release::ReleaseKind;
        use ldp_stream::source::{ConstantSource, ReplaySource};
        use ldp_stream::{StreamSource, TrueHistogram};

        fn run(
            source: Box<dyn StreamSource>,
            config: MechanismConfig,
            steps: usize,
            seed: u64,
        ) -> (Adaptive, Vec<Release>, AggregateCollector) {
            let mut collector = AggregateCollector::new(source, &config, seed);
            let mut mech = Adaptive::new(MechanismKind::Lba, config).unwrap();
            let mut out = Vec::with_capacity(steps);
            for _ in 0..steps {
                collector.begin_step().unwrap();
                out.push(mech.step(&mut collector).unwrap());
            }
            (mech, out, collector)
        }

        fn alternating(n: u64, steps: usize) -> Box<ReplaySource> {
            let seq: Vec<TrueHistogram> = (0..steps)
                .map(|i| {
                    if i % 2 == 0 {
                        TrueHistogram::new(vec![n * 9 / 10, n / 10])
                    } else {
                        TrueHistogram::new(vec![n / 10, n * 9 / 10])
                    }
                })
                .collect();
            Box::new(ReplaySource::new("alternating", seq))
        }

        #[test]
        fn window_budget_never_exceeds_epsilon() {
            let config = MechanismConfig::new(1.0, 7, 2, 1_000_000);
            let (mech, _, _) = run(alternating(1_000_000, 60), config, 60, 5);
            assert!(mech.ledger().max_window_total() <= 1.0 + 1e-9);
            assert!(mech.publications() > 0, "volatile stream must publish");
        }

        #[test]
        fn publication_nullifies_following_slots() {
            // Force an early publication, then check the released kinds: a
            // publication that absorbed k > 1 slots is followed by k − 1
            // nullified steps.
            let config = MechanismConfig::new(2.0, 10, 2, 1_000_000);
            let (_, releases, _) = run(alternating(1_000_000, 40), config, 40, 3);
            for (i, r) in releases.iter().enumerate() {
                if let ReleaseKind::Published { epsilon, .. } = r.kind {
                    let slot = 2.0 / 20.0;
                    let slots = (epsilon / slot).round() as usize;
                    if slots > 1 {
                        for j in 1..slots.min(releases.len() - i) {
                            assert_eq!(
                                releases[i + j].kind,
                                ReleaseKind::Nullified,
                                "step {} after a {}-slot publication at {}",
                                i + j,
                                slots,
                                i
                            );
                        }
                    }
                }
            }
        }

        #[test]
        fn static_stream_rarely_publishes() {
            let hist = TrueHistogram::new(vec![50_000, 50_000]);
            let config = MechanismConfig::new(1.0, 10, 2, 100_000);
            let (mech, _, _) = run(Box::new(ConstantSource::new(hist)), config, 60, 11);
            assert!(mech.publications() <= 12, "got {}", mech.publications());
        }

        #[test]
        fn absorbed_budget_grows_with_skipped_steps() {
            // On a static stream the provisional budget grows as slots pile
            // up, capped at w slots = ε/2.
            let hist = TrueHistogram::new(vec![70_000, 30_000]);
            let config = MechanismConfig::new(1.0, 5, 2, 100_000);
            let mut collector =
                AggregateCollector::new(Box::new(ConstantSource::new(hist)), &config, 2);
            let mut mech = Adaptive::new(MechanismKind::Lba, config).unwrap();
            let mut provisionals = Vec::new();
            for _ in 0..12 {
                collector.begin_step().unwrap();
                mech.step(&mut collector).unwrap();
                if let Some(d) = mech.last_decision() {
                    if !d.published {
                        provisionals.push(d.provisional);
                    }
                }
            }
            // Cap: w slots of ε/(2w) = 0.5.
            for p in &provisionals {
                assert!(*p <= 0.5 + 1e-12);
            }
            assert!(
                provisionals.windows(2).any(|p| p[1] > p[0]),
                "provisional budget should grow while approximating: {provisionals:?}"
            );
        }

        #[test]
        fn level_shift_is_tracked() {
            let n = 500_000u64;
            let mut seq = Vec::new();
            for _ in 0..25 {
                seq.push(TrueHistogram::new(vec![n * 8 / 10, n * 2 / 10]));
            }
            for _ in 0..25 {
                seq.push(TrueHistogram::new(vec![n * 2 / 10, n * 8 / 10]));
            }
            let config = MechanismConfig::new(2.0, 10, 2, n);
            let (_, releases, _) = run(Box::new(ReplaySource::new("shift", seq)), config, 50, 13);
            let after = &releases[40];
            assert!(
                after.frequencies[1] > 0.5,
                "LBA failed to track the shift: {:?}",
                after.frequencies
            );
        }

        #[test]
        fn first_step_can_publish() {
            let config = MechanismConfig::new(1.0, 10, 2, 1_000_000);
            let (_, releases, _) = run(alternating(1_000_000, 3), config, 3, 17);
            assert!(
                releases[0].kind.is_publication(),
                "strong initial drift from the zero release should publish"
            );
        }
    }
}

mod tests {
    use crate::budget::*;
    use ldp_fo::variance::PqPair;
    use ldp_fo::FoKind;

    #[test]
    fn publication_error_is_infinite_for_zero_budget() {
        let config = MechanismConfig::new(1.0, 10, 4, 1000);
        assert!(Division::Budget.err(&config, 0.0).is_infinite());
        assert!(Division::Budget.err(&config, 0.5).is_finite());
    }

    #[test]
    fn publication_error_decreases_with_budget() {
        let config = MechanismConfig::new(1.0, 10, 4, 1000);
        let hi = Division::Budget.err(&config, 0.1);
        let lo = Division::Budget.err(&config, 1.0);
        assert!(lo < hi);
    }

    #[test]
    fn pq_for_matches_oracle_kinds() {
        // The pair every variance model prices is the built oracle's own,
        // bit for bit, on both sides of the adaptive crossover.
        for kind in [FoKind::Grr, FoKind::Oue, FoKind::Olh, FoKind::Adaptive] {
            for eps in [0.05, 0.5, 1.0, 1.1, 2.0, 4.5] {
                for d in [2usize, 5, 10, 20, 117, 1024] {
                    let want = ldp_fo::build_oracle(kind, eps, d).unwrap().pq();
                    let got = PqPair::of(kind, eps, d);
                    assert_eq!(
                        (got.p.to_bits(), got.q.to_bits()),
                        (want.p.to_bits(), want.q.to_bits()),
                        "{kind:?} eps={eps} d={d}"
                    );
                }
            }
        }
    }
}
