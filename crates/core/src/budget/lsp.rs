//! LSP — LDP Sampling (paper §5.2.2).
//!
//! Invest the whole window budget at one *sampling timestamp*, then
//! approximate with that release for the following `w − 1` timestamps.
//! Excellent on near-static streams, arbitrarily bad on volatile ones —
//! the skipped timestamps inherit the drift `(c_t − c_l)²` as error.
//!
//! The paper groups LSP with population division when accounting
//! communication (§6.1): at the sampling timestamp *all* users report
//! with the full ε and then stay silent, so every user reports exactly
//! once per window (CFPU = 1/w), and the w-event guarantee follows from
//! parallel composition over timestamps rather than budget splitting.
//! We implement that reading: the round is a `Fresh(N)` request, which
//! also lets the collector's freshness accounting cross-check that
//! sampling timestamps are at least `w` apart.

use crate::collector::{ReportScope, RoundCollector};
use crate::config::MechanismConfig;
use crate::error::CoreError;
use crate::release::Release;
use crate::traits::{MechanismKind, StreamMechanism};

/// The sampling baseline.
#[derive(Debug)]
pub struct Lsp {
    config: MechanismConfig,
    t: u64,
    publications: u64,
    last: Vec<f64>,
}

impl Lsp {
    /// Build for `config`.
    pub fn new(config: MechanismConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let last = vec![0.0; config.domain_size];
        Ok(Lsp {
            config,
            t: 0,
            publications: 0,
            last,
        })
    }

    /// Whether `t` (0-based) is a sampling timestamp.
    pub fn is_sampling_step(&self, t: u64) -> bool {
        t.is_multiple_of(self.config.w as u64)
    }
}

impl StreamMechanism for Lsp {
    fn kind(&self) -> MechanismKind {
        MechanismKind::Lsp
    }

    fn config(&self) -> &MechanismConfig {
        &self.config
    }

    fn step(&mut self, collector: &mut dyn RoundCollector) -> Result<Release, CoreError> {
        let t = self.t;
        self.t += 1;
        if self.is_sampling_step(t) {
            let round = collector.collect(
                ReportScope::Fresh(self.config.population),
                self.config.epsilon,
            )?;
            self.last = round.frequencies.clone();
            self.publications += 1;
            Ok(Release::published(
                t,
                round.frequencies,
                self.config.epsilon,
                round.reporters,
            ))
        } else {
            Ok(Release::approximated(t, self.last.clone()))
        }
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

    fn setup(w: usize, n: u64) -> (Lsp, AggregateCollector) {
        let hist = TrueHistogram::new(vec![n / 2, n - n / 2]);
        let config = MechanismConfig::new(1.0, w, 2, n);
        let collector = AggregateCollector::new(Box::new(ConstantSource::new(hist)), &config, 3);
        (Lsp::new(config).unwrap(), collector)
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
