//! Optimized Unary Encoding (Wang et al., USENIX Security '17).
//!
//! The user one-hot encodes their value into a `d`-bit vector and flips
//! each bit independently: the set bit survives with `p = 1/2`, every
//! clear bit turns on with `q = 1/(e^ε + 1)`. OUE's variance
//! `4e^ε/(n(e^ε−1)²)` is independent of `d`, which makes it the better
//! oracle for large domains (`d ≥ 3e^ε + 2`).
//!
//! `perturb` fills whole report words from [`BernoulliWords`]: 64 lanes
//! compare lazily revealed uniforms against the binary expansion of `q`,
//! one random word per digit, until every lane is decided (≈ 7.3 words
//! per 64 bits instead of 64 draws). The expansion is the `f64` `q`
//! itself, digit for digit, so `P(bit = 1)` is exactly the dyadic
//! rational [`Oue::q`] returns and `estimate`, `perturb_aggregate` and
//! the variance formulas describe what clients do without adjustment.
//! All `d` lanes are drawn as noise first and only then is the true
//! value's bit overwritten with one fair coin, so the number of RNG
//! draws and the work done never depend on the value being hidden.

use crate::kernels::{self, ReportColumns};
use crate::oracle::{validate_params, FoError, FoKind, FrequencyOracle};
use crate::report::{iter_set_bits, Report};
use crate::variance::PqPair;
use ldp_util::bernoulli::BernoulliWords;
use ldp_util::binomial::sample_binomial;
use rand::RngCore;

/// OUE oracle for a fixed `(ε, d)`.
#[derive(Debug, Clone)]
pub struct Oue {
    epsilon: f64,
    d: usize,
    q: f64,
    /// 64 `Bernoulli(q)` lanes per call, over `q`'s exact expansion.
    noise: BernoulliWords,
}

impl Oue {
    /// Create an OUE oracle; requires finite `ε > 0` and `d ≥ 2`.
    pub fn new(epsilon: f64, d: usize) -> Result<Self, FoError> {
        validate_params(epsilon, d)?;
        let q = 1.0 / (epsilon.exp() + 1.0);
        Ok(Oue {
            epsilon,
            d,
            q,
            noise: BernoulliWords::new(q).expect("1/(e^ε + 1) lies in [0, 1/2) for ε > 0"),
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
        let mut bits: Vec<u64> = (0..self.d.div_ceil(64))
            .map(|_| self.noise.sample(rng))
            .collect();
        let tail_bits = self.d % 64;
        if tail_bits != 0 {
            let last = bits.len() - 1;
            bits[last] &= (1u64 << tail_bits) - 1;
        }
        // The only value-dependent step: one bit replaced by a fair coin.
        let coin = rng.next_u64() >> 63;
        let (word, bit) = (value / 64, value % 64);
        bits[word] = bits[word] & !(1u64 << bit) | coin << bit;
        Report::Oue {
            bits,
            len: self.d as u32,
        }
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
    use crate::report::BitVec;
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
        // d = 70 puts the true value in the second word.
        for (d, value, seed) in [(8usize, 3usize, 2u64), (70, 66, 4)] {
            let o = Oue::new(1.0, d).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let trials = 50_000u64;
            let mut on = vec![0u64; d];
            for _ in 0..trials {
                o.accumulate(&o.perturb(value, &mut rng), &mut on);
            }
            let sigma = |p: f64, n: u64| (p * (1.0 - p) / n as f64).sqrt();
            let own_rate = on[value] as f64 / trials as f64;
            assert!(
                (own_rate - 0.5).abs() < 4.5 * sigma(0.5, trials),
                "d = {d}: own rate {own_rate}"
            );
            let others = trials * (d as u64 - 1);
            let other_rate = (on.iter().sum::<u64>() - on[value]) as f64 / others as f64;
            assert!(
                (other_rate - o.q()).abs() < 4.5 * sigma(o.q(), others),
                "d = {d}: other rate {other_rate} vs q = {}",
                o.q()
            );
        }
    }

    #[test]
    fn epsilon_past_exp_overflow_reports_only_the_coin() {
        // e^710 = ∞ in f64, so q = 0.0: no noise bit may ever be set.
        let o = Oue::new(710.0, 130).unwrap();
        assert_eq!(o.q(), 0.0);
        let mut rng = StdRng::seed_from_u64(6);
        let mut on = vec![0u64; 130];
        for _ in 0..1_000 {
            o.accumulate(&o.perturb(129, &mut rng), &mut on);
        }
        assert_eq!(on.iter().sum::<u64>(), on[129]);
        assert!(
            (400..600).contains(&on[129]),
            "coin landed {} of 1000",
            on[129]
        );
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
