//! LPU — LDP Population Uniform (paper §6.1).
//!
//! The uniform population-division baseline: the population is cut into
//! `w` disjoint groups of `⌊N/w⌋` users; at each timestamp the next group
//! reports with the *full* budget ε; after `w` timestamps the rotation
//! wraps and the first group is fresh again. Every release is a fresh
//! publication from `⌊N/w⌋` reporters, so the MSE is the constant
//! `V(ε, N/w)` — smaller than LBU's `V(ε/w, N)` (Theorem 6.1) — and the
//! communication cost is `1/w` of LBU's.

use crate::collector::{ReportScope, RoundCollector};
use crate::config::MechanismConfig;
use crate::error::CoreError;
use crate::release::Release;
use crate::traits::{MechanismKind, StreamMechanism};

/// The uniform population-division baseline.
#[derive(Debug)]
pub struct Lpu {
    config: MechanismConfig,
    t: u64,
    publications: u64,
}

impl Lpu {
    /// Build for `config`. Requires `N ≥ w` so every group is non-empty.
    pub fn new(config: MechanismConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let required = config.w as u64;
        if config.population < required {
            return Err(CoreError::PopulationTooSmall {
                population: config.population,
                required,
            });
        }
        Ok(Lpu {
            config,
            t: 0,
            publications: 0,
        })
    }

    /// The per-timestamp group size `⌊N/w⌋`.
    pub fn group_size(&self) -> u64 {
        self.config.population / self.config.w as u64
    }
}

impl StreamMechanism for Lpu {
    fn kind(&self) -> MechanismKind {
        MechanismKind::Lpu
    }

    fn config(&self) -> &MechanismConfig {
        &self.config
    }

    fn step(&mut self, collector: &mut dyn RoundCollector) -> Result<Release, CoreError> {
        let round =
            collector.collect(ReportScope::Fresh(self.group_size()), self.config.epsilon)?;
        let t = self.t;
        self.t += 1;
        self.publications += 1;
        Ok(Release::published(
            t,
            round.frequencies,
            self.config.epsilon,
            round.reporters,
        ))
    }

    fn publications(&self) -> u64 {
        self.publications
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::AggregateCollector;
    use ldp_stream::source::ConstantSource;
    use ldp_stream::TrueHistogram;

    fn setup(eps: f64, w: usize, n: u64) -> (Lpu, AggregateCollector) {
        let hist = TrueHistogram::new(vec![n * 3 / 10, n - n * 3 / 10]);
        let config = MechanismConfig::new(eps, w, 2, n);
        let collector = AggregateCollector::new(Box::new(ConstantSource::new(hist)), &config, 19);
        (Lpu::new(config).unwrap(), collector)
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
            Lpu::new(config),
            Err(CoreError::PopulationTooSmall { required: 10, .. })
        ));
    }
}
