//! Frequency oracles under ε-local differential privacy.
//!
//! A frequency oracle (FO, paper §3.4) lets an untrusted aggregator
//! estimate the frequency of every value in a categorical domain
//! `Ω = {ω_1, …, ω_d}` from locally perturbed user reports. This crate
//! provides the three standard pure-LDP oracles plus an adaptive selector:
//!
//! * [`Grr`] — Generalized Randomized Response (the paper's default);
//! * [`Oue`] — Optimized Unary Encoding;
//! * [`Olh`] — Optimized Local Hashing;
//! * [`AdaptiveOracle`] — picks GRR vs OUE by the Wang et al. variance
//!   crossover `d < 3e^ε + 2`.
//!
//! All oracles expose the same three views of the protocol:
//!
//! 1. **per-user**: [`FrequencyOracle::perturb`] /
//!    [`FrequencyOracle::accumulate`] — what a real deployment runs;
//! 2. **estimation**: [`FrequencyOracle::estimate`] — unbiased frequency
//!    recovery from raw support counts;
//! 3. **aggregate simulation**: [`FrequencyOracle::perturb_aggregate`] —
//!    samples the aggregated support counts directly from the true counts
//!    (binomial/multinomial splitting). For GRR and OUE this is *exactly*
//!    the distribution of summed per-user reports; for OLH it is exact
//!    marginally per cell (see `olh.rs`). This is what makes the paper's
//!    10⁶-user experiments tractable on one machine.
//!
//! The closed-form estimation variance (paper Eq. 2) lives in
//! [`variance`], parameterized by each oracle's `(p, q)` pair.
//!
//! The aggregation hot path is [`FrequencyOracle::accumulate_columns`]
//! over [`kernels::ReportColumns`], the layout the service's batches
//! carry — the word-parallel kernels in [`kernels`] are bit-identical to
//! the scalar `accumulate` fold (u64 tallies make the reordering exact).

#![warn(missing_docs)]

pub mod adaptive;
pub mod grr;
pub mod kernels;
pub mod olh;
pub mod oracle;
pub mod oue;
pub mod report;
pub mod variance;

pub use adaptive::AdaptiveOracle;
pub use grr::Grr;
pub use kernels::ReportColumns;
pub use olh::Olh;
pub use oracle::{build_oracle, FoError, FoKind, FrequencyOracle, OracleHandle};
pub use oue::Oue;
pub use report::Report;
pub use variance::{avg_variance, cell_variance, PqPair};

#[cfg(test)]
mod crosscheck_tests {
    //! Cross-oracle statistical checks: every oracle must produce unbiased
    //! estimates with variance matching its closed form, through both the
    //! per-user and the aggregate path.

    use super::*;
    use ldp_util::stats::mean;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// True counts for a small skewed distribution over `d` cells.
    fn true_counts(d: usize, n: u64) -> Vec<u64> {
        let mut counts = vec![0u64; d];
        // Half the mass on cell 0, the rest spread evenly.
        counts[0] = n / 2;
        let rest = n - counts[0];
        for (i, c) in counts.iter_mut().enumerate().skip(1) {
            *c = rest / (d as u64 - 1) + u64::from((i as u64) <= rest % (d as u64 - 1));
        }
        let total: u64 = counts.iter().sum();
        counts[0] += n - total;
        counts
    }

    fn check_unbiased_per_user(kind: FoKind, eps: f64, d: usize) {
        let oracle = build_oracle(kind, eps, d).unwrap();
        let n: u64 = 4000;
        let counts = true_counts(d, n);
        let truth: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
        let trials = 60;
        let mut rng = StdRng::seed_from_u64(1000 + d as u64);
        let mut est_mean = vec![0.0; d];
        for _ in 0..trials {
            let mut support = vec![0u64; d];
            for (value, &cnt) in counts.iter().enumerate() {
                for _ in 0..cnt {
                    let rep = oracle.perturb(value, &mut rng);
                    oracle.accumulate(&rep, &mut support);
                }
            }
            let est = oracle.estimate(&support, n);
            for (m, e) in est_mean.iter_mut().zip(est) {
                *m += e / trials as f64;
            }
        }
        for k in 0..d {
            let tol = 4.0 * (oracle.cell_variance(n, truth[k]) / trials as f64).sqrt();
            assert!(
                (est_mean[k] - truth[k]).abs() < tol.max(0.01),
                "{kind:?} cell {k}: est {} vs truth {} (tol {tol})",
                est_mean[k],
                truth[k]
            );
        }
    }

    fn check_aggregate_matches_per_user(kind: FoKind, eps: f64, d: usize) {
        let oracle = build_oracle(kind, eps, d).unwrap();
        let n: u64 = 5000;
        let counts = true_counts(d, n);
        let trials = 200;
        let mut rng = StdRng::seed_from_u64(77);
        let mut agg_cell0 = Vec::with_capacity(trials);
        for _ in 0..trials {
            let support = oracle.perturb_aggregate(&counts, &mut rng);
            let est = oracle.estimate(&support, n);
            agg_cell0.push(est[0]);
        }
        let truth = counts[0] as f64 / n as f64;
        let m = mean(&agg_cell0);
        let tol = 4.0 * (oracle.cell_variance(n, truth) / trials as f64).sqrt();
        assert!(
            (m - truth).abs() < tol.max(0.01),
            "{kind:?} aggregate est mean {m} vs truth {truth}"
        );
    }

    #[test]
    fn grr_unbiased_small_domain() {
        check_unbiased_per_user(FoKind::Grr, 1.0, 2);
        check_unbiased_per_user(FoKind::Grr, 1.0, 5);
    }

    #[test]
    fn oue_unbiased_small_domain() {
        check_unbiased_per_user(FoKind::Oue, 1.0, 5);
    }

    #[test]
    fn olh_unbiased_small_domain() {
        check_unbiased_per_user(FoKind::Olh, 1.0, 5);
    }

    #[test]
    fn aggregate_path_unbiased_all_oracles() {
        check_aggregate_matches_per_user(FoKind::Grr, 0.5, 5);
        check_aggregate_matches_per_user(FoKind::Oue, 0.5, 5);
        check_aggregate_matches_per_user(FoKind::Olh, 0.5, 5);
    }

    #[test]
    fn grr_empirical_variance_matches_closed_form() {
        let oracle = build_oracle(FoKind::Grr, 1.0, 5).unwrap();
        let n: u64 = 10_000;
        let counts = true_counts(5, n);
        let truth0 = counts[0] as f64 / n as f64;
        let trials = 600;
        let mut rng = StdRng::seed_from_u64(123);
        let ests: Vec<f64> = (0..trials)
            .map(|_| {
                let support = oracle.perturb_aggregate(&counts, &mut rng);
                oracle.estimate(&support, n)[0]
            })
            .collect();
        let emp_var = ldp_util::stats::sample_variance(&ests);
        let theory = oracle.cell_variance(n, truth0);
        let rel = (emp_var - theory).abs() / theory;
        assert!(
            rel < 0.25,
            "empirical var {emp_var} vs theory {theory} (rel {rel})"
        );
    }
}
