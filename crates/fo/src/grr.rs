//! Generalized Randomized Response (paper §3.4, Eq. 1).
//!
//! A user holding `v` reports `v` with probability
//! `p = e^ε / (e^ε + d − 1)` and any *other* value uniformly with total
//! probability `1 − p` (each specific other value with
//! `q = 1 / (e^ε + d − 1)`). This is the paper's default oracle: all
//! mechanism-level formulas (dissimilarity correction, publication error)
//! instantiate Eq. (2) through it.

use crate::oracle::{validate_params, FoError, FoKind, FrequencyOracle};
use crate::report::Report;
use crate::variance::PqPair;
use ldp_util::binomial::{sample_multinomial_uniform, split_binomial};
use rand::{Rng, RngCore};

/// GRR oracle for a fixed `(ε, d)`.
#[derive(Debug, Clone)]
pub struct Grr {
    epsilon: f64,
    d: usize,
    p: f64,
    q: f64,
}

impl Grr {
    /// Create a GRR oracle; requires finite `ε > 0` and `d ≥ 2`.
    pub fn new(epsilon: f64, d: usize) -> Result<Self, FoError> {
        validate_params(epsilon, d)?;
        let PqPair { p, q } = PqPair::grr(epsilon, d);
        Ok(Grr { epsilon, d, p, q })
    }

    /// Truth-telling probability `p`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Per-other-value lie probability `q`.
    pub fn q(&self) -> f64 {
        self.q
    }
}

impl FrequencyOracle for Grr {
    fn kind(&self) -> FoKind {
        FoKind::Grr
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn domain_size(&self) -> usize {
        self.d
    }

    fn pq(&self) -> PqPair {
        PqPair {
            p: self.p,
            q: self.q,
        }
    }

    fn perturb(&self, value: usize, rng: &mut dyn RngCore) -> Report {
        debug_assert!(value < self.d, "value {value} outside domain {}", self.d);
        let value = value.min(self.d - 1);
        if rng.gen::<f64>() < self.p {
            Report::Grr(value as u32)
        } else {
            // Uniform over the d−1 other values: draw from 0..d−1 and skip
            // the true value by shifting.
            let r = rng.gen_range(0..self.d - 1);
            let lied = if r >= value { r + 1 } else { r };
            Report::Grr(lied as u32)
        }
    }

    fn accumulate(&self, report: &Report, counts: &mut [u64]) {
        debug_assert_eq!(counts.len(), self.d);
        match report {
            Report::Grr(v) => {
                let v = *v as usize;
                if v < counts.len() {
                    counts[v] += 1;
                }
            }
            _ => debug_assert!(false, "GRR oracle received non-GRR report"),
        }
    }

    /// Exact aggregate sampling: for each true cell `k` with `n_k` users,
    /// `keep ~ Bin(n_k, p)` stays at `k` and the `n_k − keep` liars
    /// scatter as a uniform multinomial over the other `d − 1` cells.
    /// The resulting joint distribution over support counts is identical
    /// to summing `n` independent per-user reports.
    fn perturb_aggregate(&self, true_counts: &[u64], rng: &mut dyn RngCore) -> Vec<u64> {
        debug_assert_eq!(true_counts.len(), self.d);
        let mut support = vec![0u64; self.d];
        for (k, &n_k) in true_counts.iter().enumerate() {
            if n_k == 0 {
                continue;
            }
            let (kept, lied) =
                split_binomial(rng, n_k, self.p).expect("p validated at construction");
            support[k] += kept;
            if lied > 0 {
                let scattered = sample_multinomial_uniform(rng, lied, self.d - 1)
                    .expect("d >= 2 validated at construction");
                // Map bins [0, d−2] onto domain cells skipping k.
                for (bin, &cnt) in scattered.iter().enumerate() {
                    if cnt == 0 {
                        continue;
                    }
                    let cell = if bin >= k { bin + 1 } else { bin };
                    support[cell] += cnt;
                }
            }
        }
        support
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn probabilities_match_eq1() {
        let g = Grr::new(1.0, 5).unwrap();
        let e = 1.0f64.exp();
        assert!((g.p() - e / (e + 4.0)).abs() < 1e-12);
        assert!((g.q() - 1.0 / (e + 4.0)).abs() < 1e-12);
        // Eq. (1) normalizes: p + (d−1)q = 1.
        assert!((g.p() + 4.0 * g.q() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perturb_respects_domain() {
        let g = Grr::new(0.5, 7);
        let g = g.unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for v in 0..7 {
            for _ in 0..100 {
                match g.perturb(v, &mut rng) {
                    Report::Grr(out) => assert!((out as usize) < 7),
                    _ => panic!("wrong report kind"),
                }
            }
        }
    }

    #[test]
    fn perturb_empirical_keep_rate_matches_p() {
        let g = Grr::new(1.5, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 100_000;
        let kept = (0..n)
            .filter(|_| matches!(g.perturb(2, &mut rng), Report::Grr(2)))
            .count() as f64;
        assert!((kept / n as f64 - g.p()).abs() < 0.01);
    }

    #[test]
    fn perturb_lies_are_uniform_over_others() {
        let g = Grr::new(0.1, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u64; 4];
        let n = 200_000;
        for _ in 0..n {
            if let Report::Grr(out) = g.perturb(0, &mut rng) {
                counts[out as usize] += 1;
            }
        }
        // Cells 1..3 should be nearly equal.
        let others: Vec<f64> = counts[1..].iter().map(|&c| c as f64 / n as f64).collect();
        for &f in &others {
            assert!((f - g.q()).abs() < 0.01, "lie freq {f} vs q {}", g.q());
        }
    }

    #[test]
    fn accumulate_counts_reports() {
        let g = Grr::new(1.0, 3).unwrap();
        let mut counts = vec![0u64; 3];
        g.accumulate(&Report::Grr(1), &mut counts);
        g.accumulate(&Report::Grr(1), &mut counts);
        g.accumulate(&Report::Grr(2), &mut counts);
        assert_eq!(counts, vec![0, 2, 1]);
    }

    #[test]
    fn aggregate_conserves_population() {
        let g = Grr::new(1.0, 6).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let truth = [100u64, 0, 2500, 17, 0, 383];
        let n: u64 = truth.iter().sum();
        for _ in 0..50 {
            let support = g.perturb_aggregate(&truth, &mut rng);
            assert_eq!(support.iter().sum::<u64>(), n);
        }
    }

    #[test]
    fn aggregate_matches_per_user_mean() {
        let g = Grr::new(1.0, 3).unwrap();
        let truth = [6000u64, 3000, 1000];
        let n: u64 = truth.iter().sum();
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 400;
        let mut mean_support0 = 0.0;
        for _ in 0..trials {
            let support = g.perturb_aggregate(&truth, &mut rng);
            mean_support0 += support[0] as f64 / trials as f64;
        }
        // E[support_0] = n_0·p + (n − n_0)·q.
        let expected = truth[0] as f64 * g.p() + (n - truth[0]) as f64 * g.q();
        assert!(
            (mean_support0 - expected).abs() / expected < 0.01,
            "{mean_support0} vs {expected}"
        );
    }

    #[test]
    fn binary_domain_reduces_to_randomized_response() {
        let g = Grr::new(1.0, 2).unwrap();
        let e = 1.0f64.exp();
        assert!((g.p() - e / (e + 1.0)).abs() < 1e-12);
        assert!((g.q() - 1.0 / (e + 1.0)).abs() < 1e-12);
    }
}
