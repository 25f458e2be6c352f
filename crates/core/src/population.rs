//! Unit tests of the population-division mechanisms (paper §6), one
//! module per mechanism; [`crate::schedule`] implements them.

use crate::collector::RoundCollector;
use crate::config::MechanismConfig;
use crate::error::CoreError;
use crate::release::Release;
use crate::schedule::{Adaptive, Division, Fixed};
use crate::traits::{MechanismKind, StreamMechanism};

mod lpu {
    mod tests {
        use crate::collector::AggregateCollector;
        use crate::population::*;
        use ldp_stream::source::ConstantSource;
        use ldp_stream::TrueHistogram;

        fn setup(eps: f64, w: usize, n: u64) -> (Fixed, AggregateCollector) {
            let hist = TrueHistogram::new(vec![n * 3 / 10, n - n * 3 / 10]);
            let config = MechanismConfig::new(eps, w, 2, n);
            let collector =
                AggregateCollector::new(Box::new(ConstantSource::new(hist)), &config, 19);
            (Fixed::new(MechanismKind::Lpu, config).unwrap(), collector)
        }

        #[test]
        fn publishes_every_step_with_group() {
            let (mut mech, mut collector) = setup(1.0, 4, 10_000);
            for _ in 0..10 {
                collector.begin_step().unwrap();
                let r = mech.step(&mut collector).unwrap();
                match r.kind {
                    crate::release::ReleaseKind::Published { reporters, epsilon } => {
                        assert_eq!(reporters, 2500);
                        assert!((epsilon - 1.0).abs() < 1e-12);
                    }
                    other => panic!("expected publication, got {other:?}"),
                }
            }
            assert_eq!(mech.publications(), 10);
        }

        #[test]
        fn rotation_never_exhausts_pool() {
            // The pool accounting would fail if groups overlapped a window.
            let (mut mech, mut collector) = setup(1.0, 7, 7001);
            for _ in 0..50 {
                collector.begin_step().unwrap();
                mech.step(&mut collector).unwrap();
            }
        }

        #[test]
        fn cfpu_is_group_fraction() {
            let (mut mech, mut collector) = setup(1.0, 5, 10_000);
            for _ in 0..10 {
                collector.begin_step().unwrap();
                mech.step(&mut collector).unwrap();
            }
            // ⌊N/w⌋/N = 0.2 reports per user-step.
            assert!((collector.stats().cfpu(10_000) - 0.2).abs() < 1e-12);
        }

        #[test]
        fn estimates_track_truth() {
            let (mut mech, mut collector) = setup(2.0, 4, 400_000);
            collector.begin_step().unwrap();
            let r = mech.step(&mut collector).unwrap();
            assert!((r.frequencies[0] - 0.3).abs() < 0.05, "{r:?}");
        }

        #[test]
        fn rejects_population_below_w() {
            let config = MechanismConfig::new(1.0, 10, 2, 9);
            assert!(matches!(
                Fixed::new(MechanismKind::Lpu, config),
                Err(CoreError::PopulationTooSmall { required: 10, .. })
            ));
        }
    }
}

mod lpd {
    mod tests {
        use crate::collector::AggregateCollector;
        use crate::population::*;
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
            let mut mech = Adaptive::new(MechanismKind::Lpd, config).unwrap();
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
        fn group_sizes_decay_exponentially() {
            let n = 1_024_000u64;
            let config = MechanismConfig::new(2.0, 10, 2, n);
            let (_, releases, _) = run(alternating(n, 20), config, 20, 23);
            let groups: Vec<u64> = releases
                .iter()
                .filter_map(|r| match r.kind {
                    ReleaseKind::Published { reporters, .. } => Some(reporters),
                    _ => None,
                })
                .collect();
            assert!(!groups.is_empty());
            // First publication uses N/4.
            assert_eq!(groups[0], n / 4, "{groups:?}");
            // Within the first window, groups halve (monotone non-increasing).
            for pair in groups.windows(2).take(3) {
                assert!(pair[1] <= pair[0], "{groups:?}");
            }
        }

        #[test]
        fn pool_is_never_exhausted() {
            let n = 40_000u64;
            let config = MechanismConfig::new(1.0, 8, 2, n);
            // Any PoolExhausted error would surface as a panic in run().
            let (_, _, collector) = run(alternating(n, 100), config, 100, 29);
            // CFPU below the 1/w + headroom bound of §6.3.3.
            let cfpu = collector.stats().cfpu(n);
            assert!(cfpu <= 1.0 / 8.0 + 1e-9, "CFPU {cfpu}");
        }

        #[test]
        fn static_stream_publishes_less_than_volatile() {
            let n = 100_000u64;
            let hist = TrueHistogram::new(vec![n / 2, n / 2]);
            let config = MechanismConfig::new(1.0, 10, 2, n);
            let (static_mech, _, _) =
                run(Box::new(ConstantSource::new(hist)), config.clone(), 60, 31);
            let (volatile_mech, _, _) = run(alternating(n, 60), config, 60, 31);
            assert!(
                static_mech.publications() < volatile_mech.publications(),
                "static {} vs volatile {}",
                static_mech.publications(),
                volatile_mech.publications()
            );
        }

        #[test]
        fn u_min_starvation_forces_approximation() {
            // With u_min greater than N/4 the provisional group can never
            // reach the threshold, so LPD never publishes.
            let n = 4_000u64;
            let config = MechanismConfig::new(1.0, 5, 2, n).with_u_min(n);
            let (mech, releases, _) = run(alternating(n, 30), config, 30, 37);
            assert_eq!(mech.publications(), 0);
            assert!(releases.iter().all(|r| !r.kind.is_publication()));
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
            let config = MechanismConfig::new(1.0, 10, 2, n);
            let (_, releases, _) = run(Box::new(ReplaySource::new("shift", seq)), config, 50, 41);
            let after = &releases[40];
            assert!(
                after.frequencies[1] > 0.5,
                "LPD failed to track the shift: {:?}",
                after.frequencies
            );
        }

        #[test]
        fn rejects_population_below_two_w() {
            let config = MechanismConfig::new(1.0, 10, 2, 19);
            assert!(Adaptive::new(MechanismKind::Lpd, config).is_err());
        }
    }
}

mod lpa {
    mod tests {
        use crate::collector::AggregateCollector;
        use crate::population::*;
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
            let mut mech = Adaptive::new(MechanismKind::Lpa, config).unwrap();
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
        fn pool_is_never_exhausted_on_volatile_stream() {
            let n = 80_000u64;
            let config = MechanismConfig::new(1.0, 8, 2, n);
            let (mech, _, collector) = run(alternating(n, 120), config, 120, 43);
            assert!(mech.publications() > 0);
            // §6.3.3: CFPU = 1/(2w) + (w+m)/(4w²) ≤ 1/(2w) + 2w/(4w²) = 1/w.
            let cfpu = collector.stats().cfpu(n);
            assert!(cfpu <= 1.0 / 8.0 + 1e-9, "CFPU {cfpu}");
        }

        #[test]
        fn publication_nullifies_following_slots() {
            let n = 1_000_000u64;
            let config = MechanismConfig::new(2.0, 10, 2, n);
            let (_, releases, _) = run(alternating(n, 40), config, 40, 47);
            let slot = n / 20;
            for (i, r) in releases.iter().enumerate() {
                if let ReleaseKind::Published { reporters, .. } = r.kind {
                    let slots = (reporters / slot) as usize;
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
        fn absorbed_groups_grow_while_approximating() {
            let n = 100_000u64;
            let hist = TrueHistogram::new(vec![n * 7 / 10, n * 3 / 10]);
            let config = MechanismConfig::new(1.0, 5, 2, n);
            let mut collector =
                AggregateCollector::new(Box::new(ConstantSource::new(hist)), &config, 53);
            let mut mech = Adaptive::new(MechanismKind::Lpa, config).unwrap();
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
            // Cap: w slots of ⌊N/(2w)⌋ = 50 000 users.
            for p in &provisionals {
                assert!(*p <= 50_000.0 + 1e-9);
            }
            assert!(
                provisionals.windows(2).any(|p| p[1] > p[0]),
                "groups should grow while approximating: {provisionals:?}"
            );
        }

        #[test]
        fn static_stream_rarely_publishes() {
            let n = 100_000u64;
            let hist = TrueHistogram::new(vec![n / 2, n / 2]);
            // Averaged over seeds: a single-seed absolute bound is knife-edge
            // sensitive to the RNG stream. A static stream publishes in ~25% of
            // steps (population-division noise still trips the threshold
            // occasionally), while a volatile stream publishes in >90% of them.
            let mut static_total = 0u64;
            let mut volatile_total = 0u64;
            let seeds = [59u64, 60, 61, 62, 63];
            for &seed in &seeds {
                let config = MechanismConfig::new(1.0, 10, 2, n);
                let (mech, _, _) = run(
                    Box::new(ConstantSource::new(hist.clone())),
                    config,
                    60,
                    seed,
                );
                static_total += mech.publications();
                let config = MechanismConfig::new(1.0, 10, 2, n);
                let (mech, _, _) = run(alternating(n, 60), config, 60, seed);
                volatile_total += mech.publications();
            }
            let static_mean = static_total as f64 / seeds.len() as f64;
            let volatile_mean = volatile_total as f64 / seeds.len() as f64;
            assert!(static_mean <= 24.0, "static mean {static_mean}");
            assert!(
                static_mean < volatile_mean / 2.0,
                "static {static_mean} vs volatile {volatile_mean}"
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
            let config = MechanismConfig::new(1.0, 10, 2, n);
            let (_, releases, _) = run(Box::new(ReplaySource::new("shift", seq)), config, 50, 61);
            let after = &releases[40];
            assert!(
                after.frequencies[1] > 0.5,
                "LPA failed to track the shift: {:?}",
                after.frequencies
            );
        }

        #[test]
        fn first_step_can_publish_with_two_slots() {
            let n = 1_000_000u64;
            let config = MechanismConfig::new(1.0, 10, 2, n);
            let (_, releases, _) = run(alternating(n, 3), config, 3, 67);
            match releases[0].kind {
                ReleaseKind::Published { reporters, .. } => {
                    // Virtual origin: t_A = 2 slots of N/(2w) = 50 000 each.
                    assert_eq!(reporters, 2 * (n / 20));
                }
                ref other => panic!("expected first-step publication, got {other:?}"),
            }
        }
    }
}

mod tests {
    use crate::population::*;

    #[test]
    fn publication_error_infinite_without_users() {
        let config = MechanismConfig::new(1.0, 10, 4, 10_000);
        assert!(Division::Population.err(&config, 0.0).is_infinite());
        assert!(Division::Population.err(&config, 100.0).is_finite());
    }

    #[test]
    fn publication_error_decreases_with_group_size() {
        let config = MechanismConfig::new(1.0, 10, 4, 10_000);
        let small = Division::Population.err(&config, 100.0);
        let large = Division::Population.err(&config, 1000.0);
        assert!(large < small);
        // And scales as 1/n.
        assert!((small / large - 10.0).abs() < 1e-9);
    }

    /// Theorem 6.1 in miniature: full-ε small-group beats split-ε
    /// full-population for the same "resource division" factor w.
    #[test]
    fn population_division_beats_budget_division() {
        let n = 100_000;
        let w = 20usize;
        let config = MechanismConfig::new(1.0, w, 4, n);
        let pop_err = Division::Population.err(&config, (n / w as u64) as f64);
        let budget_err = Division::Budget.err(&config, config.epsilon / w as f64);
        assert!(
            pop_err < budget_err,
            "V(ε, N/w) = {pop_err} must beat V(ε/w, N) = {budget_err}"
        );
    }
}
