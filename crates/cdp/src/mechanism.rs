//! BD and BA (Kellaris et al., VLDB'14; paper §3.2) as one controller.
//!
//! Every timestamp spends `ε/(2w)` on a private dissimilarity between the
//! true counts and the last release: the mean absolute difference per
//! cell, perturbed with `Lap(2/(d·ε₁))` (one user changes two cells by
//! one). The publication half of the budget is provisioned by a [`Rule`],
//! and the mechanism publishes a Laplace histogram when the dissimilarity
//! beats the expected error `1/ε₂` of one (always at the first
//! timestamp, which has nothing to approximate with):
//!
//! * distribution (BD) provisions half of the publication budget the
//!   window has left, so publications decay as `ε/4, ε/8, …` and recycle
//!   as they expire;
//! * absorption (BA) lays the budget out in units of `ε/(2w)`, one per
//!   timestamp; a publication absorbs the units skipped since the last
//!   one (at most `w`) and nullifies as many following timestamps minus
//!   one to pay them back.
//!
//! A [`WindowBudget`] asserts `Σ_{i∈window} ε_i ≤ ε` as the mechanism runs.

use ldp_stream::{RingWindow, StreamSource, TrueHistogram, WindowBudget};
use ldp_util::Laplace;
use rand::RngCore;

/// Minimum usable publication budget: below this, publishing is worse
/// than any plausible approximation (guards against vanishing ε after
/// many consecutive publications).
const MIN_PUB_EPS: f64 = 1e-9;

/// Which centralized baseline to construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CdpKind {
    /// Budget Distribution (Kellaris et al.).
    Bd,
    /// Budget Absorption (Kellaris et al.).
    Ba,
}

impl CdpKind {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            CdpKind::Bd => "cdp-bd",
            CdpKind::Ba => "cdp-ba",
        }
    }

    /// Build the mechanism for window budget `ε` over windows of `w`
    /// timestamps and a domain of size `d`.
    pub fn build(self, epsilon: f64, w: usize, d: usize) -> CdpMechanism {
        assert!(w >= 1, "window must be at least 1");
        assert!(d >= 2, "domain must have at least 2 cells");
        let rule = match self {
            CdpKind::Bd => Rule::Distribution(RingWindow::new(w)),
            CdpKind::Ba => Rule::Absorption { last: 0, units: 1 },
        };
        CdpMechanism {
            epsilon,
            w,
            d,
            rule,
            ledger: WindowBudget::new(epsilon, w),
            t: 0,
            last: None,
            publications: 0,
        }
    }
}

/// How the publication budget is provisioned.
#[derive(Debug)]
pub(crate) enum Rule {
    /// Half of `ε/2` minus what the last `w` timestamps published; the
    /// window holds those publication budgets.
    Distribution(RingWindow<f64>),
    /// `last` is the 1-based timestamp of the last publication and
    /// `units` the units it absorbed; the `units − 1` timestamps after
    /// `last` are nullified. The origin is a publication at 0 that
    /// absorbed one unit, so at `t` nothing is nullified and `t` units
    /// are absorbable.
    Absorption { last: u64, units: u64 },
}

/// Under absorption, at 1-based timestamp `t`: `None` while nullified,
/// else the units a publication may absorb (at most `w`).
pub(crate) fn absorbable(last: u64, units: u64, t: u64, w: usize) -> Option<u64> {
    let since = t - last;
    (since >= units).then(|| (since + 1 - units).min(w as u64))
}

/// A w-event CDP stream-release mechanism: consumes the true histogram of
/// each timestamp (trusted aggregator) and releases a frequency vector.
#[derive(Debug)]
pub struct CdpMechanism {
    epsilon: f64,
    w: usize,
    d: usize,
    pub(crate) rule: Rule,
    ledger: WindowBudget,
    /// Timestamps processed.
    pub(crate) t: u64,
    /// The last release, `None` before the first.
    pub(crate) last: Option<Vec<f64>>,
    publications: u64,
}

impl CdpMechanism {
    /// Process one timestamp and return the released frequencies.
    pub fn step(&mut self, truth: &TrueHistogram, rng: &mut dyn RngCore) -> Vec<f64> {
        self.t += 1;
        // M₁: private dissimilarity with ε/(2w), at every timestamp.
        let eps1 = self.epsilon / (2.0 * self.w as f64);
        let dis = self.noisy_dissimilarity(truth, eps1, rng);

        // M₂: the provisional publication budget.
        let (eps2, absorbed) = match self.rule {
            Rule::Distribution(ref window) => {
                ((self.epsilon / 2.0 - window.sum()).max(0.0) / 2.0, 0)
            }
            Rule::Absorption { last, units } => match absorbable(last, units, self.t, self.w) {
                Some(absorbed) => (eps1 * absorbed as f64, absorbed),
                None => {
                    self.ledger.spend(eps1);
                    return self.last.clone().expect("nullified after a publication");
                }
            },
        };
        let err = if eps2 > MIN_PUB_EPS {
            1.0 / eps2
        } else {
            f64::INFINITY
        };
        let publish = self.last.is_none() || dis > err;

        let spent = if publish { eps2 } else { 0.0 };
        match &mut self.rule {
            Rule::Distribution(window) => {
                window.push(spent);
            }
            Rule::Absorption { last, units } if publish => (*last, *units) = (self.t, absorbed),
            Rule::Absorption { .. } => {}
        }
        self.ledger.spend(eps1 + spent);
        if !publish {
            return self.last.clone().expect("published at the first timestamp");
        }
        self.publications += 1;
        let fresh = laplace_release(truth, eps2.max(MIN_PUB_EPS), rng);
        self.last = Some(fresh.clone());
        fresh
    }

    /// Number of fresh publications so far (approximations excluded).
    pub fn publications(&self) -> u64 {
        self.publications
    }

    /// The mean absolute difference per cell between the true counts and
    /// the last release's, plus `Lap(2/(d·ε₁))`.
    fn noisy_dissimilarity(&self, truth: &TrueHistogram, eps1: f64, rng: &mut dyn RngCore) -> f64 {
        let n = truth.population() as f64;
        let zeros;
        let last = match &self.last {
            Some(release) => release,
            None => {
                zeros = vec![0.0; self.d];
                &zeros
            }
        };
        let raw = truth
            .counts()
            .iter()
            .zip(last)
            .map(|(&c, &f)| (c as f64 - f * n).abs())
            .sum::<f64>()
            / self.d as f64;
        let noise = Laplace::for_budget(2.0 / self.d as f64, eps1).expect("valid budget");
        raw + noise.sample(rng)
    }
}

/// The ε-DP histogram release: `c_t + ⟨Lap(1/ε)⟩^d` on the count scale
/// (sensitivity 1, as in Kellaris et al.), normalized by the population.
pub(crate) fn laplace_release(
    truth: &TrueHistogram,
    epsilon: f64,
    rng: &mut dyn RngCore,
) -> Vec<f64> {
    let lap = Laplace::for_budget(1.0, epsilon).expect("epsilon must be finite and > 0");
    let n = truth.population().max(1) as f64;
    truth
        .counts()
        .iter()
        .map(|&c| (c as f64 + lap.sample(rng)) / n)
        .collect()
}

/// Drive a mechanism over `t_max` timestamps of a source; returns the
/// released frequency matrix.
pub fn run_cdp(
    mechanism: &mut CdpMechanism,
    source: &mut dyn StreamSource,
    t_max: usize,
    rng: &mut dyn RngCore,
) -> Vec<Vec<f64>> {
    (0..t_max)
        .map(|_| {
            let truth = source.next_histogram();
            mechanism.step(&truth, rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_stream::source::ConstantSource;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kinds_build_and_run() {
        let mut rng = StdRng::seed_from_u64(1);
        for kind in [CdpKind::Bd, CdpKind::Ba] {
            let mut mech = kind.build(1.0, 5, 2);
            assert_eq!(
                matches!(mech.rule, Rule::Absorption { .. }),
                kind == CdpKind::Ba
            );
            assert_eq!(mech.w, 5);
            assert!((mech.epsilon - 1.0).abs() < 1e-12);
            let mut src = ConstantSource::new(TrueHistogram::new(vec![800, 200]));
            let released = run_cdp(&mut mech, &mut src, 20, &mut rng);
            assert_eq!(released.len(), 20);
            assert_eq!(released[0].len(), 2);
        }
    }

    #[test]
    fn releases_track_truth_roughly() {
        // With a large population and static stream, every baseline's
        // release should land near the truth.
        let mut rng = StdRng::seed_from_u64(2);
        for kind in [CdpKind::Bd, CdpKind::Ba] {
            let mut mech = kind.build(1.0, 5, 2);
            let mut src = ConstantSource::new(TrueHistogram::new(vec![80_000, 20_000]));
            let released = run_cdp(&mut mech, &mut src, 50, &mut rng);
            let mean_cell1: f64 =
                released.iter().map(|r| r[1]).sum::<f64>() / released.len() as f64;
            assert!(
                (mean_cell1 - 0.2).abs() < 0.02,
                "{}: mean {mean_cell1}",
                kind.name()
            );
        }
    }
}
