//! LBD — LDP Budget Distribution (paper Algorithm 1).
//!
//! The adaptive translation of Kellaris et al.'s BD to the local model.
//! Each timestamp runs two sub-mechanisms:
//!
//! * **M_{t,1}** (dissimilarity): all users report with the fixed budget
//!   `ε/(2w)`; the server forms the Theorem 5.2 estimate `dis` of the
//!   drift from the previous release.
//! * **M_{t,2}** (publication): half of the publication budget still
//!   unspent in the active window, `ε_{t,2} = ε_rm/2`, is provisionally
//!   assigned. If the potential publication error `err = V(ε_{t,2}, N)`
//!   beats `dis`, nothing is published (approximate, ε_{t,2} := 0);
//!   otherwise all users report *again* with `ε_{t,2}` and the fresh
//!   estimate is released.
//!
//! Distributing half of the remainder yields the exponentially decaying
//! publication series `ε/4, ε/8, …` — quick to react, but starving late
//! publications in change-heavy windows (the failure mode Fig. 5 shows
//! at large `w`, and the motivation for [`super::Lba`]).

use crate::accountant::BudgetLedger;
use crate::budget::{budget_dissimilarity_round, budget_publication_error};
use crate::collector::{ReportScope, RoundCollector};
use crate::config::MechanismConfig;
use crate::error::CoreError;
use crate::release::Release;
use crate::traits::{MechanismKind, StreamMechanism};
use ldp_stream::RingWindow;

/// Adaptive budget distribution (Algorithm 1).
#[derive(Debug)]
pub struct Lbd {
    config: MechanismConfig,
    ledger: BudgetLedger,
    /// Publication budgets ε_{i,2} of the last `w − 1` closed timestamps.
    pub_window: RingWindow<f64>,
    t: u64,
    publications: u64,
    last: Vec<f64>,
    /// The most recent step's decision inputs, for observability.
    last_decision: Option<Decision>,
}

/// The inputs and outcome of one adaptive publish-or-approximate choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Estimated dissimilarity (Theorem 5.2); may be negative.
    pub dis: f64,
    /// Potential publication error `V`.
    pub err: f64,
    /// Provisional publication resource (budget here, users in LPD/LPA).
    pub provisional: f64,
    /// Whether the mechanism published.
    pub published: bool,
}

impl Lbd {
    /// Build for `config`.
    pub fn new(config: MechanismConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let ledger = BudgetLedger::new(config.epsilon, config.w);
        let last = vec![0.0; config.domain_size];
        let pub_window = RingWindow::new(config.w.max(2) - 1);
        Ok(Lbd {
            config,
            ledger,
            pub_window,
            t: 0,
            publications: 0,
            last,
            last_decision: None,
        })
    }

    /// Publication budget already spent in the active window (the
    /// `Σ_{i=t−w+1}^{t−1} ε_{i,2}` of Alg. 1 line 7).
    fn window_publication_spend(&self) -> f64 {
        if self.config.w == 1 {
            0.0
        } else {
            self.pub_window.sum()
        }
    }

    /// The most recent step's decision, if a step has run.
    pub fn last_decision(&self) -> Option<Decision> {
        self.last_decision
    }
}

impl StreamMechanism for Lbd {
    fn kind(&self) -> MechanismKind {
        MechanismKind::Lbd
    }

    fn config(&self) -> &MechanismConfig {
        &self.config
    }

    fn step(&mut self, collector: &mut dyn RoundCollector) -> Result<Release, CoreError> {
        let t = self.t;
        self.t += 1;
        let eps_1 = self.config.dissimilarity_budget_per_step();

        // M_{t,1}: private dissimilarity estimation.
        let dis = budget_dissimilarity_round(&self.config, collector, &self.last)?;

        // M_{t,2}: provisional budget = half the window remainder.
        let eps_rm =
            (self.config.publication_budget_pool() - self.window_publication_spend()).max(0.0);
        let eps_2 = eps_rm / 2.0;
        let err = budget_publication_error(&self.config, eps_2);

        let publish = dis > err && eps_2 > 0.0;
        let (release, spent_2) = if publish {
            let round = collector.collect(ReportScope::All, eps_2)?;
            self.last = round.frequencies.clone();
            self.publications += 1;
            (
                Release::published(t, round.frequencies, eps_2, round.reporters),
                eps_2,
            )
        } else {
            (Release::approximated(t, self.last.clone()), 0.0)
        };

        if self.config.w > 1 {
            self.pub_window.push(spent_2);
        }
        self.ledger.spend(eps_1 + spent_2);
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
    use ldp_stream::source::{ConstantSource, ReplaySource};
    use ldp_stream::TrueHistogram;

    fn run(
        source: Box<dyn ldp_stream::StreamSource>,
        config: MechanismConfig,
        steps: usize,
        seed: u64,
    ) -> (Lbd, Vec<Release>, AggregateCollector) {
        let mut collector = AggregateCollector::new(source, &config, seed);
        let mut mech = Lbd::new(config).unwrap();
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
        assert!(mech.ledger.max_window_total() <= 1.0 + 1e-9);
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
        assert!(mech.ledger.max_window_total() <= 1.0 + 1e-9);
    }
}
