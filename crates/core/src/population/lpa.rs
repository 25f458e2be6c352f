//! LPA — LDP Population Absorption (paper Algorithm 4).
//!
//! The population-division translation of [`crate::budget::Lba`]:
//! publication users are laid out uniformly, one `⌊N/(2w)⌋` group slot
//! per timestamp. A publication absorbs the slots of the timestamps
//! skipped since the last publication (capped at `w` slots) and then
//! nullifies the same number of following slots to repay them, keeping
//! every window's publication-user total at `⌊N/2⌋` or below
//! (Theorem 6.2).
//!
//! The slot arithmetic matches LBA exactly (including the virtual origin
//! `l = 0, |U_{0,2}| = 0` ⇒ `t_N = −1`); only the resource differs:
//! groups of users at full ε instead of budget fractions.

use crate::budget::Decision;
use crate::collector::{ReportScope, RoundCollector};
use crate::config::MechanismConfig;
use crate::error::CoreError;
use crate::population::{population_dissimilarity_round, population_publication_error};
use crate::release::Release;
use crate::traits::{MechanismKind, StreamMechanism};

/// Adaptive population absorption (Algorithm 4).
#[derive(Debug)]
pub struct Lpa {
    config: MechanismConfig,
    /// 1-based current timestamp (0 before the first step).
    t: u64,
    /// Last publication timestamp `l` (0 = the virtual origin).
    l: u64,
    /// Slots (multiples of ⌊N/(2w)⌋) the last publication absorbed.
    slots_l: u64,
    publications: u64,
    last: Vec<f64>,
    last_decision: Option<Decision>,
}

impl Lpa {
    /// Build for `config`. Requires `N ≥ 2w`.
    pub fn new(config: MechanismConfig) -> Result<Self, CoreError> {
        config.validate_population_division()?;
        let last = vec![0.0; config.domain_size];
        Ok(Lpa {
            config,
            t: 0,
            l: 0,
            slots_l: 0,
            publications: 0,
            last,
            last_decision: None,
        })
    }

    /// One publication-user slot, `⌊⌊N·(1−share)⌋/w⌋` users
    /// (⌊N/(2w)⌋ at the paper's split).
    fn slot(&self) -> u64 {
        self.config.publication_pool_size() / self.config.w as u64
    }

    /// Timestamps nullified after the last publication.
    fn nullified(&self) -> i64 {
        self.slots_l as i64 - 1
    }

    /// The most recent step's decision, if any non-nullified step ran.
    pub fn last_decision(&self) -> Option<Decision> {
        self.last_decision
    }
}

impl StreamMechanism for Lpa {
    fn kind(&self) -> MechanismKind {
        MechanismKind::Lpa
    }

    fn config(&self) -> &MechanismConfig {
        &self.config
    }

    fn step(&mut self, collector: &mut dyn RoundCollector) -> Result<Release, CoreError> {
        self.t += 1;
        let t = self.t;

        // M_{t,1} runs at every timestamp, nullified or not.
        let dis = population_dissimilarity_round(&self.config, collector, &self.last)?;

        let t_n = self.nullified();
        if (t - self.l) as i64 <= t_n {
            return Ok(Release::nullified(t - 1, self.last.clone()));
        }

        // Absorbable slots since the nullified stretch ended, capped at w.
        let t_a = (t as i64 - (self.l as i64 + t_n)) as u64;
        let slots = t_a.min(self.config.w as u64);
        let n_pp = self.slot() * slots;
        let err = population_publication_error(&self.config, n_pp);

        let publish = dis > err && n_pp >= self.config.u_min;
        let release = if publish {
            let round = collector.collect(ReportScope::Fresh(n_pp), self.config.epsilon)?;
            self.last = round.frequencies.clone();
            self.publications += 1;
            self.l = t;
            self.slots_l = slots;
            Release::published(
                t - 1,
                round.frequencies,
                self.config.epsilon,
                round.reporters,
            )
        } else {
            Release::approximated(t - 1, self.last.clone())
        };
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
    ) -> (Lpa, Vec<Release>, AggregateCollector) {
        let mut collector = AggregateCollector::new(source, &config, seed);
        let mut mech = Lpa::new(config).unwrap();
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
        let mut mech = Lpa::new(config).unwrap();
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
