//! Optimized Unary Encoding (Wang et al., USENIX Security '17).
//!
//! The user one-hot encodes their value into a `d`-bit vector and flips
//! each bit independently: the set bit survives with `p = 1/2`, every
//! clear bit turns on with `q = 1/(e^ε + 1)`. OUE's variance
//! `4e^ε/(n(e^ε−1)²)` is independent of `d`, which makes it the better
//! oracle for large domains (`d ≥ 3e^ε + 2`).

use crate::kernels::{self, ReportColumns};
use crate::oracle::{validate_params, FoError, FoKind, FrequencyOracle};
use crate::report::{iter_set_bits, BitVec, Report};
use crate::variance::PqPair;
use ldp_util::binomial::sample_binomial;
use rand::{Rng, RngCore};

/// OUE oracle for a fixed `(ε, d)`.
#[derive(Debug, Clone)]
pub struct Oue {
    epsilon: f64,
    d: usize,
    q: f64,
}

impl Oue {
    /// Create an OUE oracle; requires finite `ε > 0` and `d ≥ 2`.
    pub fn new(epsilon: f64, d: usize) -> Result<Self, FoError> {
        validate_params(epsilon, d)?;
        Ok(Oue {
            epsilon,
            d,
            q: 1.0 / (epsilon.exp() + 1.0),
        })
    }

    /// Probability a clear bit flips on.
    pub fn q(&self) -> f64 {
        self.q
    }
}

impl FrequencyOracle for Oue {
    fn kind(&self) -> FoKind {
        FoKind::Oue
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn domain_size(&self) -> usize {
        self.d
    }

    fn pq(&self) -> PqPair {
        PqPair::oue(self.epsilon)
    }

    fn perturb(&self, value: usize, rng: &mut dyn RngCore) -> Report {
        debug_assert!(value < self.d);
        let value = value.min(self.d - 1);
        let mut bits = BitVec::zeros(self.d);
        for j in 0..self.d {
            let on = if j == value {
                rng.gen::<f64>() < 0.5
            } else {
                rng.gen::<f64>() < self.q
            };
            if on {
                bits.set(j, true);
            }
        }
        bits.into_report()
    }

    fn accumulate(&self, report: &Report, counts: &mut [u64]) {
        debug_assert_eq!(counts.len(), self.d);
        match report {
            Report::Oue { bits, len } => {
                debug_assert_eq!(*len as usize, self.d);
                // One clamp at entry; `iter_set_bits` already stops at
                // the logical length, so every yielded index is in
                // bounds without a per-bit check.
                let len = (*len).min(counts.len() as u32);
                for j in iter_set_bits(bits, len) {
                    counts[j] += 1;
                }
            }
            _ => debug_assert!(false, "OUE oracle received non-OUE report"),
        }
    }

    fn accumulate_columns(&self, columns: &ReportColumns, counts: &mut [u64]) {
        debug_assert_eq!(counts.len(), self.d);
        match columns {
            ReportColumns::Oue { words, len } if *len as usize == self.d => {
                kernels::oue_accumulate_columns(words, self.d, counts);
            }
            other => other.for_each_report(|r| self.accumulate_lenient(&r, counts)),
        }
    }

    /// Exact aggregate sampling: OUE bit-columns are independent given
    /// the true counts, so column `j` collects
    /// `Bin(n_j, 1/2) + Bin(n − n_j, q)` set bits. This reproduces the
    /// *joint* distribution of summed per-user reports exactly.
    fn perturb_aggregate(&self, true_counts: &[u64], rng: &mut dyn RngCore) -> Vec<u64> {
        debug_assert_eq!(true_counts.len(), self.d);
        let n: u64 = true_counts.iter().sum();
        true_counts
            .iter()
            .map(|&n_j| {
                let holders = sample_binomial(rng, n_j, 0.5).expect("p = 1/2 is valid");
                let others =
                    sample_binomial(rng, n - n_j, self.q).expect("q validated at construction");
                holders + others
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn q_formula() {
        let o = Oue::new(1.0, 10).unwrap();
        assert!((o.q() - 1.0 / (1.0f64.exp() + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn perturb_produces_correct_length() {
        let o = Oue::new(1.0, 100).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        match o.perturb(42, &mut rng) {
            Report::Oue { len, bits } => {
                assert_eq!(len, 100);
                assert_eq!(bits.len(), 2);
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn perturb_bit_rates_match_p_and_q() {
        let o = Oue::new(1.0, 8).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 50_000;
        let mut own = 0u64;
        let mut other = 0u64;
        for _ in 0..trials {
            if let Report::Oue { bits, len } = o.perturb(3, &mut rng) {
                for j in iter_set_bits(&bits, len) {
                    if j == 3 {
                        own += 1;
                    } else {
                        other += 1;
                    }
                }
            }
        }
        let own_rate = own as f64 / trials as f64;
        let other_rate = other as f64 / (trials as f64 * 7.0);
        assert!((own_rate - 0.5).abs() < 0.01, "own rate {own_rate}");
        assert!((other_rate - o.q()).abs() < 0.01, "other rate {other_rate}");
    }

    #[test]
    fn accumulate_sums_set_bits() {
        let o = Oue::new(1.0, 4).unwrap();
        let mut bits = BitVec::zeros(4);
        bits.set(0, true);
        bits.set(3, true);
        let mut counts = vec![0u64; 4];
        o.accumulate(&bits.into_report(), &mut counts);
        assert_eq!(counts, vec![1, 0, 0, 1]);
    }

    #[test]
    fn aggregate_mean_matches_theory() {
        let o = Oue::new(1.0, 3).unwrap();
        let truth = [5000u64, 3000, 2000];
        let n: u64 = truth.iter().sum();
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 500;
        let mut mean1 = 0.0;
        for _ in 0..trials {
            let support = o.perturb_aggregate(&truth, &mut rng);
            mean1 += support[1] as f64 / trials as f64;
        }
        let expected = truth[1] as f64 * 0.5 + (n - truth[1]) as f64 * o.q();
        assert!((mean1 - expected).abs() / expected < 0.02);
    }

    #[test]
    fn variance_is_domain_independent() {
        let o_small = Oue::new(1.0, 4).unwrap();
        let o_large = Oue::new(1.0, 400).unwrap();
        let v_small = crate::variance::base_variance(o_small.pq(), 1000);
        let v_large = crate::variance::base_variance(o_large.pq(), 1000);
        assert!((v_small - v_large).abs() < 1e-15);
    }
}
