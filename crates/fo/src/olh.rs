//! Optimized Local Hashing (Wang et al., USENIX Security '17).
//!
//! Each user draws a random hash seed, hashes their value into
//! `g = ⌊e^ε⌋ + 1` buckets, and runs GRR over the buckets. The report is
//! the pair `(seed, perturbed bucket)`; its constant size makes OLH the
//! communication-optimal oracle for large domains.
//!
//! The aggregator counts, for each value `v`, the users whose reported
//! bucket equals `H(seed, v)` ("support"). Holders support their value
//! with `p = e^ε/(e^ε + g − 1)`; non-holders with exactly `q = 1/g` under
//! an idealized hash family.
//!
//! **Aggregate-simulation caveat** (recorded in DESIGN.md): per-cell
//! support counts are sampled from the exact marginals
//! `Bin(n_v, p) + Bin(n − n_v, 1/g)`, but the slight cross-cell
//! correlation induced by shared seeds is not reproduced. GRR/OUE, the
//! oracles used in the paper's experiments, have exact joint samplers.

use crate::kernels::{self, ReportColumns};
use crate::oracle::{validate_params, FoError, FoKind, FrequencyOracle};
use crate::report::Report;
use crate::variance::{olh_buckets, PqPair};
use ldp_util::binomial::sample_binomial;
use ldp_util::rng::child_seed;
use rand::{Rng, RngCore};

/// OLH oracle for a fixed `(ε, d)`.
#[derive(Debug, Clone)]
pub struct Olh {
    epsilon: f64,
    d: usize,
    g: usize,
    p: f64,
}

impl Olh {
    /// Create an OLH oracle; requires finite `ε > 0` and `d ≥ 2`.
    pub fn new(epsilon: f64, d: usize) -> Result<Self, FoError> {
        validate_params(epsilon, d)?;
        let g = olh_buckets(epsilon);
        Ok(Olh {
            epsilon,
            d,
            g,
            p: PqPair::olh(epsilon, g).p,
        })
    }

    /// Number of hash buckets `g`.
    pub fn buckets(&self) -> usize {
        self.g
    }

    /// Hash `value` into a bucket under `seed`.
    #[inline]
    pub fn hash(&self, seed: u64, value: usize) -> u32 {
        (child_seed(seed, value as u64) % self.g as u64) as u32
    }
}

impl FrequencyOracle for Olh {
    fn kind(&self) -> FoKind {
        FoKind::Olh
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn domain_size(&self) -> usize {
        self.d
    }

    fn pq(&self) -> PqPair {
        PqPair::olh(self.epsilon, self.g)
    }

    fn perturb(&self, value: usize, rng: &mut dyn RngCore) -> Report {
        debug_assert!(value < self.d);
        let value = value.min(self.d - 1);
        let seed: u64 = rng.gen();
        let true_bucket = self.hash(seed, value);
        let bucket = if rng.gen::<f64>() < self.p {
            true_bucket
        } else {
            // Uniform over the other g−1 buckets.
            let r = rng.gen_range(0..self.g as u32 - 1);
            if r >= true_bucket {
                r + 1
            } else {
                r
            }
        };
        Report::Olh { seed, bucket }
    }

    fn accumulate(&self, report: &Report, counts: &mut [u64]) {
        debug_assert_eq!(counts.len(), self.d);
        match report {
            Report::Olh { seed, bucket } => {
                for (v, c) in counts.iter_mut().enumerate() {
                    if self.hash(*seed, v) == *bucket {
                        *c += 1;
                    }
                }
            }
            _ => debug_assert!(false, "OLH oracle received non-OLH report"),
        }
    }

    fn accumulate_columns(&self, columns: &ReportColumns, counts: &mut [u64]) {
        debug_assert_eq!(counts.len(), self.d);
        match columns {
            ReportColumns::Olh { seeds, buckets } => {
                kernels::olh_accumulate_columns(seeds, buckets, self.g as u64, counts);
            }
            other => other.for_each_report(|r| self.accumulate_lenient(&r, counts)),
        }
    }

    fn perturb_aggregate(&self, true_counts: &[u64], rng: &mut dyn RngCore) -> Vec<u64> {
        debug_assert_eq!(true_counts.len(), self.d);
        let n: u64 = true_counts.iter().sum();
        let q = 1.0 / self.g as f64;
        true_counts
            .iter()
            .map(|&n_v| {
                let holders = sample_binomial(rng, n_v, self.p).expect("valid p");
                let others = sample_binomial(rng, n - n_v, q).expect("valid q");
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
    fn bucket_count_grows_with_epsilon() {
        assert_eq!(Olh::new(0.5, 10).unwrap().buckets(), 2);
        assert_eq!(Olh::new(1.0, 10).unwrap().buckets(), 3);
        assert_eq!(Olh::new(2.0, 10).unwrap().buckets(), 8);
    }

    #[test]
    fn hash_is_deterministic_and_in_range() {
        let o = Olh::new(1.0, 20).unwrap();
        for seed in 0..50u64 {
            for v in 0..20 {
                let b = o.hash(seed, v);
                assert_eq!(b, o.hash(seed, v));
                assert!((b as usize) < o.buckets());
            }
        }
    }

    #[test]
    fn hash_spreads_values_roughly_uniformly() {
        let o = Olh::new(1.0, 4).unwrap();
        let g = o.buckets();
        let mut counts = vec![0u64; g];
        for seed in 0..30_000u64 {
            counts[o.hash(seed, 2) as usize] += 1;
        }
        for &c in &counts {
            let rel = (c as f64 - 30_000.0 / g as f64).abs() / (30_000.0 / g as f64);
            assert!(rel < 0.05, "bucket count {c}");
        }
    }

    #[test]
    fn nonholder_support_rate_is_one_over_g() {
        let o = Olh::new(1.0, 6).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 60_000;
        let mut support_other = 0u64;
        for _ in 0..trials {
            // User holds value 0; measure support for value 5.
            if let Report::Olh { seed, bucket } = o.perturb(0, &mut rng) {
                if o.hash(seed, 5) == bucket {
                    support_other += 1;
                }
            }
        }
        let rate = support_other as f64 / trials as f64;
        let expected = 1.0 / o.buckets() as f64;
        assert!((rate - expected).abs() < 0.01, "rate {rate} vs {expected}");
    }

    #[test]
    fn holder_support_rate_is_p() {
        let o = Olh::new(1.0, 6).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 60_000;
        let mut support_own = 0u64;
        for _ in 0..trials {
            if let Report::Olh { seed, bucket } = o.perturb(4, &mut rng) {
                if o.hash(seed, 4) == bucket {
                    support_own += 1;
                }
            }
        }
        let rate = support_own as f64 / trials as f64;
        assert!(
            (rate - o.pq().p).abs() < 0.01,
            "rate {rate} vs {}",
            o.pq().p
        );
    }

    #[test]
    fn accumulate_counts_colliding_values() {
        let o = Olh::new(1.0, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let rep = o.perturb(1, &mut rng);
        let mut counts = vec![0u64; 5];
        o.accumulate(&rep, &mut counts);
        if let Report::Olh { seed, bucket } = rep {
            for (v, &c) in counts.iter().enumerate() {
                let expected = u64::from(o.hash(seed, v) == bucket);
                assert_eq!(c, expected);
            }
        }
    }

    #[test]
    fn aggregate_conserves_nothing_but_matches_marginal_mean() {
        let o = Olh::new(1.0, 4).unwrap();
        let truth = [4000u64, 3000, 2000, 1000];
        let n: u64 = truth.iter().sum();
        let mut rng = StdRng::seed_from_u64(4);
        let trials = 400;
        let mut mean0 = 0.0;
        for _ in 0..trials {
            let s = o.perturb_aggregate(&truth, &mut rng);
            mean0 += s[0] as f64 / trials as f64;
        }
        let pq = o.pq();
        let expected = truth[0] as f64 * pq.p + (n - truth[0]) as f64 * pq.q;
        assert!((mean0 - expected).abs() / expected < 0.02);
    }

    #[test]
    fn report_is_constant_size() {
        let o = Olh::new(1.0, 10_000).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let rep = o.perturb(9_999, &mut rng);
        assert_eq!(rep.wire_size(), 12);
    }
}
