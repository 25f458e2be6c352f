//! LPD — LDP Population Distribution (paper Algorithm 3).
//!
//! The population-division translation of [`crate::budget::Lbd`]: the
//! `⌊N/2⌋` *dissimilarity users* are spread uniformly over the window
//! (`⌊N/(2w)⌋` per timestamp, reporting with full ε), while the `⌊N/2⌋`
//! *publication users* are assigned adaptively — every publication claims
//! half of the publication users still unclaimed in the active window,
//! giving the exponentially decaying group series `N/4, N/8, …`.
//!
//! Two guards not present in LBD:
//!
//! * `u_min` (Alg. 3 line 10): once the provisional group would fall
//!   below `u_min` users the mechanism approximates regardless of
//!   dissimilarity, because a tiny group's estimate is all sampling
//!   noise;
//! * user recycling is the collector's job — groups used at `t − w + 1`
//!   return to the pool automatically as the window slides.

use crate::budget::Decision;
use crate::collector::{ReportScope, RoundCollector};
use crate::config::MechanismConfig;
use crate::error::CoreError;
use crate::population::{population_dissimilarity_round, population_publication_error};
use crate::release::Release;
use crate::traits::{MechanismKind, StreamMechanism};
use ldp_stream::RingWindow;

/// Adaptive population distribution (Algorithm 3).
#[derive(Debug)]
pub struct Lpd {
    config: MechanismConfig,
    /// Publication-group sizes |U_{i,2}| of the last `w − 1` closed steps.
    pub_window: RingWindow<u64>,
    t: u64,
    publications: u64,
    last: Vec<f64>,
    last_decision: Option<Decision>,
}

impl Lpd {
    /// Build for `config`. Requires `N ≥ 2w` (one dissimilarity user per
    /// timestamp).
    pub fn new(config: MechanismConfig) -> Result<Self, CoreError> {
        config.validate_population_division()?;
        let last = vec![0.0; config.domain_size];
        let pub_window = RingWindow::new(config.w.max(2) - 1);
        Ok(Lpd {
            config,
            pub_window,
            t: 0,
            publications: 0,
            last,
            last_decision: None,
        })
    }

    /// Publication users consumed in the active window
    /// (`Σ_{i=t−w+1}^{t−1} |U_{i,2}|`, Alg. 3 line 7).
    fn window_publication_users(&self) -> u64 {
        if self.config.w == 1 {
            0
        } else {
            self.pub_window.sum_u64()
        }
    }

    /// The most recent step's decision, if a step has run.
    pub fn last_decision(&self) -> Option<Decision> {
        self.last_decision
    }
}

impl StreamMechanism for Lpd {
    fn kind(&self) -> MechanismKind {
        MechanismKind::Lpd
    }

    fn config(&self) -> &MechanismConfig {
        &self.config
    }

    fn step(&mut self, collector: &mut dyn RoundCollector) -> Result<Release, CoreError> {
        let t = self.t;
        self.t += 1;

        // M_{t,1}: dissimilarity from ⌊N/(2w)⌋ fresh users at full ε.
        let dis = population_dissimilarity_round(&self.config, collector, &self.last)?;

        // M_{t,2}: provisional group = half the remaining publication users.
        let n_rm = self
            .config
            .publication_pool_size()
            .saturating_sub(self.window_publication_users());
        let n_pp = n_rm / 2;
        let err = population_publication_error(&self.config, n_pp);

        let publish = dis > err && n_pp >= self.config.u_min;
        let (release, used) = if publish {
            let round = collector.collect(ReportScope::Fresh(n_pp), self.config.epsilon)?;
            self.last = round.frequencies.clone();
            self.publications += 1;
            (
                Release::published(t, round.frequencies, self.config.epsilon, round.reporters),
                n_pp,
            )
        } else {
            (Release::approximated(t, self.last.clone()), 0)
        };

        if self.config.w > 1 {
            self.pub_window.push(used);
        }
        self.last_decision = Some(Decision {
            dis,
            err,
            provisional: n_pp as f64,
            published: publish,
        });
        Ok(release)
    }

    fn publications(&self) -> u64 {
        self.publications
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::AggregateCollector;
    use crate::release::ReleaseKind;
    use ldp_stream::source::{ConstantSource, ReplaySource};
    use ldp_stream::{StreamSource, TrueHistogram};

    fn run(
        source: Box<dyn StreamSource>,
        config: MechanismConfig,
        steps: usize,
        seed: u64,
    ) -> (Lpd, Vec<Release>, AggregateCollector) {
        let mut collector = AggregateCollector::new(source, &config, seed);
        let mut mech = Lpd::new(config).unwrap();
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
        let (static_mech, _, _) = run(Box::new(ConstantSource::new(hist)), config.clone(), 60, 31);
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
        assert!(Lpd::new(config).is_err());
    }
}
