//! The collector seam between mechanisms and users.
//!
//! Mechanisms never see raw data. At each timestamp they issue one or two
//! *collection rounds* against a [`RoundCollector`]: "have this scope of
//! users report through an ε-LDP frequency oracle; give me the unbiased
//! histogram estimate". Everything below that line — who the users are,
//! how their reports travel, how the aggregator tallies them — is the
//! collector's business.
//!
//! Two implementations exist:
//!
//! * [`AggregateCollector`] (here) — samples the *exact* distribution of
//!   the aggregated perturbed counts directly from per-timestamp true
//!   counts. Group formation for population division is a multivariate
//!   hypergeometric draw (a uniformly random `k`-subset of users);
//!   perturbation is the oracle's aggregate sampler. Statistically
//!   identical to simulating every user, and fast enough for the paper's
//!   10⁶-user grids.
//! * [`crate::protocol::ClientCollector`] — drives real per-user client
//!   state machines through an explicit message protocol. Slower, used by
//!   examples, fidelity tests and communication-accounting experiments.

use crate::config::MechanismConfig;
use crate::error::CoreError;
use crate::protocol::UserResponse;
use ldp_fo::{build_oracle, FoKind};
use ldp_stream::{RingWindow, StreamSource, TrueHistogram};
use ldp_util::sample_multivariate_hypergeometric;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which users a mechanism wants to hear from in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportScope {
    /// Every user reports (budget-division rounds). Permitted at every
    /// timestamp; privacy comes from the per-round budget, which the
    /// mechanism's [`ldp_stream::WindowBudget`] bounds.
    All,
    /// `k` users who have not reported within the current window report
    /// (population-division rounds). The collector enforces freshness: a
    /// request that would require a user to report twice in a window
    /// fails with [`CoreError::PoolExhausted`].
    Fresh(u64),
}

/// The outcome of one collection round.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RoundEstimate {
    /// Unbiased per-cell frequency estimates for the reporting group.
    pub frequencies: Vec<f64>,
    /// How many users reported.
    pub reporters: u64,
    /// Budget each reporter spent.
    pub epsilon: f64,
}

/// Communication counters maintained by every collector.
///
/// `uplink_reports` is the quantity behind the paper's CFPU metric
/// (communication frequency per user): reports ÷ (population × steps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollectorStats {
    /// User → server report messages.
    pub uplink_reports: u64,
    /// Total bytes of those reports (oracle wire format).
    pub uplink_bytes: u64,
    /// Server → user report requests (0 for the aggregate collector,
    /// which does not simulate downlink traffic).
    pub downlink_requests: u64,
    /// Timestamps processed.
    pub steps: u64,
}

impl CollectorStats {
    /// Communication frequency per user per timestamp.
    pub fn cfpu(&self, population: u64) -> f64 {
        if self.steps == 0 || population == 0 {
            return 0.0;
        }
        self.uplink_reports as f64 / (population as f64 * self.steps as f64)
    }
}

/// The mechanisms' window onto the user population.
///
/// Contract, in call order per timestamp:
/// 1. [`begin_step`](RoundCollector::begin_step) exactly once — advances
///    the underlying true stream;
/// 2. zero, one or two [`collect`](RoundCollector::collect) calls;
/// 3. the next `begin_step` closes the timestamp.
pub trait RoundCollector {
    /// Population size `N`.
    fn population(&self) -> u64;

    /// Domain cardinality `d`.
    fn domain_size(&self) -> usize;

    /// Advance to the next timestamp.
    fn begin_step(&mut self) -> Result<(), CoreError>;

    /// Run one collection round with per-report budget `epsilon`.
    fn collect(&mut self, scope: ReportScope, epsilon: f64) -> Result<RoundEstimate, CoreError>;

    /// Communication counters so far.
    fn stats(&self) -> CollectorStats;
}

/// Exact-distribution aggregate-level collector.
///
/// Holds the true stream source, draws group truth by sampling without
/// replacement, perturbs through the oracle's aggregate sampler, and
/// estimates. Tracks fresh-user consumption per window so that
/// over-requesting is an error, mirroring what a real user pool allows.
pub struct AggregateCollector {
    source: Box<dyn StreamSource>,
    fo: FoKind,
    w: usize,
    population: u64,
    rng: StdRng,
    /// Truth at the current timestamp.
    current: Option<TrueHistogram>,
    /// Counts still unclaimed by `Fresh` rounds at the current timestamp.
    remaining: Vec<u64>,
    /// Fresh users consumed in each of the last `w − 1` closed steps.
    past_fresh: RingWindow<u64>,
    /// Fresh users consumed in the open step.
    fresh_this_step: u64,
    stats: CollectorStats,
}

impl AggregateCollector {
    /// A collector over `source`, using the oracle and window size from
    /// `config`, with all randomness derived from `seed`.
    pub fn new(source: Box<dyn StreamSource>, config: &MechanismConfig, seed: u64) -> Self {
        let population = source.population();
        AggregateCollector {
            source,
            fo: config.fo,
            w: config.w,
            population,
            rng: StdRng::seed_from_u64(seed),
            current: None,
            remaining: Vec::new(),
            past_fresh: RingWindow::new(config.w.max(2) - 1),
            fresh_this_step: 0,
            stats: CollectorStats::default(),
        }
    }

    /// Fresh users still available in the open step's window.
    pub fn fresh_available(&self) -> u64 {
        let used = self.past_fresh.sum_u64() + self.fresh_this_step;
        self.population.saturating_sub(used)
    }
}

impl RoundCollector for AggregateCollector {
    fn population(&self) -> u64 {
        self.population
    }

    fn domain_size(&self) -> usize {
        self.source.domain().size()
    }

    fn begin_step(&mut self) -> Result<(), CoreError> {
        // Close the previous step: its fresh consumption enters the
        // window that constrains the next w − 1 steps (w = 1 keeps the
        // window logically empty: every step starts with a full pool).
        if self.current.is_some() {
            if self.w > 1 {
                self.past_fresh.push(self.fresh_this_step);
            }
            self.fresh_this_step = 0;
        }
        let hist = self.source.next_histogram();
        if hist.population() != self.population {
            return Err(CoreError::PopulationDrift {
                expected: self.population,
                got: hist.population(),
            });
        }
        self.remaining = hist.counts().to_vec();
        self.current = Some(hist);
        self.stats.steps += 1;
        Ok(())
    }

    fn collect(&mut self, scope: ReportScope, epsilon: f64) -> Result<RoundEstimate, CoreError> {
        let truth = self
            .current
            .as_ref()
            .expect("collect called before begin_step")
            .clone();
        let oracle = build_oracle(self.fo, epsilon, self.source.domain().size())?;
        let (group_counts, reporters) = match scope {
            ReportScope::All => (truth.counts().to_vec(), self.population),
            ReportScope::Fresh(k) => {
                let available = self.fresh_available();
                if k > available {
                    return Err(CoreError::PoolExhausted {
                        requested: k,
                        available,
                    });
                }
                let in_step: u64 = self.remaining.iter().sum();
                debug_assert!(
                    k <= in_step,
                    "step-level remaining {in_step} below window availability"
                );
                let draw = sample_multivariate_hypergeometric(&mut self.rng, &self.remaining, k)
                    .expect("k validated against remaining");
                for (r, &g) in self.remaining.iter_mut().zip(&draw) {
                    *r -= g;
                }
                self.fresh_this_step += k;
                (draw, k)
            }
        };
        let support = oracle.perturb_aggregate(&group_counts, &mut self.rng);
        let frequencies = oracle.estimate(&support, reporters);
        self.stats.uplink_reports += reporters;
        // One response per user, all of the size the client path would
        // count for the oracle this round resolved to.
        self.stats.uplink_bytes +=
            reporters * UserResponse::report_wire_size(oracle.kind(), self.domain_size()) as u64;
        Ok(RoundEstimate {
            frequencies,
            reporters,
            epsilon,
        })
    }

    fn stats(&self) -> CollectorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_stream::source::ConstantSource;

    fn constant_collector(w: usize, counts: Vec<u64>) -> AggregateCollector {
        let source = ConstantSource::new(TrueHistogram::new(counts));
        let config = MechanismConfig::new(1.0, w, source.domain().size(), source.population());
        AggregateCollector::new(Box::new(source), &config, 7)
    }

    #[test]
    fn all_scope_reports_whole_population() {
        let mut c = constant_collector(4, vec![600, 400]);
        c.begin_step().unwrap();
        let est = c.collect(ReportScope::All, 1.0).unwrap();
        assert_eq!(est.reporters, 1000);
        assert_eq!(est.frequencies.len(), 2);
        assert_eq!(c.stats().uplink_reports, 1000);
    }

    #[test]
    fn fresh_scope_draws_without_replacement_within_step() {
        let mut c = constant_collector(4, vec![600, 400]);
        c.begin_step().unwrap();
        let a = c.collect(ReportScope::Fresh(300), 1.0).unwrap();
        let b = c.collect(ReportScope::Fresh(700), 1.0).unwrap();
        assert_eq!(a.reporters, 300);
        assert_eq!(b.reporters, 700);
        // Whole population consumed: nothing left this window.
        assert_eq!(c.fresh_available(), 0);
    }

    #[test]
    fn fresh_scope_enforces_window_freshness() {
        let mut c = constant_collector(3, vec![600, 400]);
        c.begin_step().unwrap();
        c.collect(ReportScope::Fresh(600), 1.0).unwrap();
        c.begin_step().unwrap();
        // 600 of 1000 used in the active window: only 400 remain fresh.
        let err = c.collect(ReportScope::Fresh(500), 1.0).unwrap_err();
        assert!(matches!(
            err,
            CoreError::PoolExhausted {
                requested: 500,
                available: 400
            }
        ));
        c.collect(ReportScope::Fresh(400), 1.0).unwrap();
    }

    #[test]
    fn fresh_users_recycle_after_w_steps() {
        let mut c = constant_collector(3, vec![600, 400]);
        // Step 1: use everyone.
        c.begin_step().unwrap();
        c.collect(ReportScope::Fresh(1000), 1.0).unwrap();
        // Steps 2 and 3: pool empty.
        c.begin_step().unwrap();
        assert_eq!(c.fresh_available(), 0);
        c.begin_step().unwrap();
        assert_eq!(c.fresh_available(), 0);
        // Step 4: the window slid past step 1; everyone is fresh again.
        c.begin_step().unwrap();
        assert_eq!(c.fresh_available(), 1000);
        c.collect(ReportScope::Fresh(1000), 1.0).unwrap();
    }

    #[test]
    fn window_of_one_resets_every_step() {
        let mut c = constant_collector(1, vec![600, 400]);
        for _ in 0..4 {
            c.begin_step().unwrap();
            c.collect(ReportScope::Fresh(1000), 1.0).unwrap();
        }
    }

    #[test]
    fn estimates_are_near_truth_with_many_users() {
        let mut c = constant_collector(2, vec![80_000, 20_000]);
        c.begin_step().unwrap();
        let est = c.collect(ReportScope::All, 2.0).unwrap();
        assert!((est.frequencies[0] - 0.8).abs() < 0.05, "{est:?}");
        assert!((est.frequencies[1] - 0.2).abs() < 0.05, "{est:?}");
    }

    #[test]
    fn fresh_subgroup_estimate_unbiased() {
        let mut c = constant_collector(2, vec![70_000, 30_000]);
        c.begin_step().unwrap();
        let est = c.collect(ReportScope::Fresh(50_000), 2.0).unwrap();
        assert!((est.frequencies[0] - 0.7).abs() < 0.05, "{est:?}");
    }

    #[test]
    fn cfpu_accounts_reports_per_user_step() {
        let mut c = constant_collector(2, vec![500, 500]);
        c.begin_step().unwrap();
        c.collect(ReportScope::All, 1.0).unwrap();
        c.begin_step().unwrap();
        c.collect(ReportScope::All, 1.0).unwrap();
        c.collect(ReportScope::All, 1.0).unwrap();
        // 3 all-user rounds over 2 steps: CFPU = 3/2.
        assert!((c.stats().cfpu(1000) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn stats_track_bytes_and_steps() {
        let mut c = constant_collector(2, vec![500, 500]);
        c.begin_step().unwrap();
        c.collect(ReportScope::All, 1.0).unwrap();
        let s = c.stats();
        assert_eq!(s.steps, 1);
        assert_eq!(
            s.uplink_bytes,
            1000 * (8 + 4),
            "a GRR response is the 8-byte round echo and a 4-byte value"
        );
    }
}
