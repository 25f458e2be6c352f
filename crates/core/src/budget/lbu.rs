//! LBU — LDP Budget Uniform (paper §5.2.1).
//!
//! The straightforward baseline: assign ε/w to every timestamp; every
//! user reports through the FO every timestamp; every release is a fresh
//! publication. MSE is the constant `V(ε/w, N)` — small per-step budget,
//! large noise, but no data dependence.

use crate::accountant::BudgetLedger;
use crate::collector::{ReportScope, RoundCollector};
use crate::config::MechanismConfig;
use crate::error::CoreError;
use crate::release::Release;
use crate::traits::{MechanismKind, StreamMechanism};

/// The uniform budget-division baseline.
#[derive(Debug)]
pub struct Lbu {
    config: MechanismConfig,
    ledger: BudgetLedger,
    t: u64,
    publications: u64,
}

impl Lbu {
    /// Build for `config`.
    pub fn new(config: MechanismConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let ledger = BudgetLedger::new(config.epsilon, config.w);
        Ok(Lbu {
            config,
            ledger,
            t: 0,
            publications: 0,
        })
    }

    /// The fixed per-timestamp budget ε/w.
    pub fn step_epsilon(&self) -> f64 {
        self.config.epsilon / self.config.w as f64
    }
}

impl StreamMechanism for Lbu {
    fn kind(&self) -> MechanismKind {
        MechanismKind::Lbu
    }

    fn config(&self) -> &MechanismConfig {
        &self.config
    }

    fn step(&mut self, collector: &mut dyn RoundCollector) -> Result<Release, CoreError> {
        let eps = self.step_epsilon();
        let round = collector.collect(ReportScope::All, eps)?;
        self.ledger.spend(eps);
        self.t += 1;
        self.publications += 1;
        Ok(Release::published(
            self.t - 1,
            round.frequencies,
            eps,
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

    fn setup(eps: f64, w: usize, n: u64) -> (Lbu, AggregateCollector) {
        let hist = TrueHistogram::new(vec![n * 7 / 10, n - n * 7 / 10]);
        let config = MechanismConfig::new(eps, w, 2, n);
        let collector = AggregateCollector::new(Box::new(ConstantSource::new(hist)), &config, 11);
        (Lbu::new(config).unwrap(), collector)
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
        assert!((mech.ledger.window_total() - 2.0).abs() < 1e-9);
        assert!((mech.ledger.max_window_total() - 2.0).abs() < 1e-9);
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
