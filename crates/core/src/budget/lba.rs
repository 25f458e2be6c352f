//! LBA — LDP Budget Absorption (paper Algorithm 2).
//!
//! The absorption counterpart of [`super::Lbd`]. Publication budget is
//! laid out uniformly, one `ε/(2w)` slot per timestamp; a publication
//! *absorbs* the slots of the skipped (approximated) timestamps since the
//! last publication, and must then *nullify* the following slots to pay
//! the absorbed budget back — guaranteeing no window ever holds more than
//! `ε/2` of publication spend (Theorem 5.3's second half).
//!
//! Bookkeeping, following the paper exactly (1-based timestamps):
//!
//! * `t_N = ε_{l,2} / (ε/(2w)) − 1` slots after the last publication `l`
//!   are nullified; while `t − l ≤ t_N` the mechanism may only
//!   approximate.
//! * Past the nullified stretch, `t_A = t − (l + t_N)` slots are
//!   absorbable, capped at `w`, giving the provisional budget
//!   `ε_{t,2} = (ε/(2w))·min(t_A, w)`.
//!
//! The initial state `l = 0, ε_{l,2} = 0` makes `t_N = −1`, so the first
//! timestamp may absorb two slots (its own and the virtual slot 0) —
//! Appendix A.3 shows the window invariant still holds with equality at
//! worst.

use crate::accountant::BudgetLedger;
use crate::budget::{budget_dissimilarity_round, budget_publication_error, Decision};
use crate::collector::{ReportScope, RoundCollector};
use crate::config::MechanismConfig;
use crate::error::CoreError;
use crate::release::Release;
use crate::traits::{MechanismKind, StreamMechanism};

/// Adaptive budget absorption (Algorithm 2).
#[derive(Debug)]
pub struct Lba {
    config: MechanismConfig,
    ledger: BudgetLedger,
    /// 1-based current timestamp (0 before the first step).
    t: u64,
    /// Last publication timestamp `l` (0 = the virtual origin).
    l: u64,
    /// Slots (multiples of ε/(2w)) the last publication absorbed; the
    /// paper's `ε_{l,2}` is `slots_l · ε/(2w)`.
    slots_l: u64,
    publications: u64,
    last: Vec<f64>,
    last_decision: Option<Decision>,
}

impl Lba {
    /// Build for `config`.
    pub fn new(config: MechanismConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let ledger = BudgetLedger::new(config.epsilon, config.w);
        let last = vec![0.0; config.domain_size];
        Ok(Lba {
            config,
            ledger,
            t: 0,
            l: 0,
            slots_l: 0,
            publications: 0,
            last,
            last_decision: None,
        })
    }

    /// One publication-budget slot, `(1−share)·ε/w` (ε/(2w) at the
    /// paper's split).
    fn slot(&self) -> f64 {
        self.config.publication_budget_pool() / self.config.w as f64
    }

    /// Timestamps nullified after the last publication
    /// (`t_N = ε_{l,2}/(ε/(2w)) − 1`, −1 before any publication).
    fn nullified(&self) -> i64 {
        self.slots_l as i64 - 1
    }

    /// The most recent step's decision, if any non-nullified step ran.
    pub fn last_decision(&self) -> Option<Decision> {
        self.last_decision
    }
}

impl StreamMechanism for Lba {
    fn kind(&self) -> MechanismKind {
        MechanismKind::Lba
    }

    fn config(&self) -> &MechanismConfig {
        &self.config
    }

    fn step(&mut self, collector: &mut dyn RoundCollector) -> Result<Release, CoreError> {
        self.t += 1;
        let t = self.t;
        let eps_1 = self.config.dissimilarity_budget_per_step();

        // M_{t,1} runs at every timestamp, nullified or not: the
        // dissimilarity budget is uniformly committed (Alg. 2 line 3).
        let dis = budget_dissimilarity_round(&self.config, collector, &self.last)?;

        let t_n = self.nullified();
        if (t - self.l) as i64 <= t_n {
            // Nullified stretch: pay back the absorbed slots.
            self.ledger.spend(eps_1);
            return Ok(Release::nullified(t - 1, self.last.clone()));
        }

        // Absorbable slots since the nullified stretch ended, capped at w.
        let t_a = (t as i64 - (self.l as i64 + t_n)) as u64;
        let slots = t_a.min(self.config.w as u64);
        let eps_2 = self.slot() * slots as f64;
        let err = budget_publication_error(&self.config, eps_2);

        let publish = dis > err;
        let release = if publish {
            let round = collector.collect(ReportScope::All, eps_2)?;
            self.last = round.frequencies.clone();
            self.publications += 1;
            self.l = t;
            self.slots_l = slots;
            self.ledger.spend(eps_1 + eps_2);
            Release::published(t - 1, round.frequencies, eps_2, round.reporters)
        } else {
            self.ledger.spend(eps_1);
            Release::approximated(t - 1, self.last.clone())
        };
        self.last_decision = Some(Decision {
            dis,
            err,
            provisional: eps_2,
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
    ) -> (Lba, Vec<Release>, AggregateCollector) {
        let mut collector = AggregateCollector::new(source, &config, seed);
        let mut mech = Lba::new(config).unwrap();
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
        assert!(mech.ledger.max_window_total() <= 1.0 + 1e-9);
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
        let mut mech = Lba::new(config).unwrap();
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
