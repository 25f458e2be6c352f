//! Closed-form estimation variance of pure LDP frequency oracles.
//!
//! Every pure protocol in this crate reports "support" for each value `k`
//! as a Bernoulli with probability `p` for holders of `k` and `q` for
//! non-holders, and estimates `f̂_k = (ĉ_k / n − q) / (p − q)`. The exact
//! variance of that estimator from `n` independent users is
//!
//! ```text
//! Var[f̂_k] = [ f_k·p(1−p) + (1−f_k)·q(1−q) ] / ( n (p−q)² )
//! ```
//!
//! For GRR's `(p, q)` this expands to the paper's Eq. (2):
//! `(d−2+e^ε)/(n(e^ε−1)²) + f_k(d−2)/(n(e^ε−1))`.
//!
//! The paper's mechanisms use the *average* variance over the `d` cells
//! with `Σ_k f_k = 1` (their `V(ε, n)`). Note §5.3.2 of the paper writes
//! the second term of the averaged GRR variance without the `1/d` factor;
//! averaging Eq. (2) exactly gives `(d−2)/(d·n(e^ε−1))`, which is what we
//! implement (the README lists this paper typo among the departures).

use crate::oracle::FoKind;

/// OLH's bucket count at budget ε: `g = ⌊e^ε⌋ + 1`, at least 2 so GRR
/// over the buckets is defined.
pub fn olh_buckets(epsilon: f64) -> usize {
    ((epsilon.exp().floor() as usize) + 1).max(2)
}

/// The adaptive crossover: GRR's variance beats OUE's when `d < 3e^ε + 2`.
pub fn prefers_grr(epsilon: f64, d: usize) -> bool {
    (d as f64) < 3.0 * epsilon.exp() + 2.0
}

/// The `(p, q)` response-probability pair of a pure LDP protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PqPair {
    /// Probability that a holder of value `k` supports `k`.
    pub p: f64,
    /// Probability that a non-holder of value `k` supports `k`.
    pub q: f64,
}

impl PqPair {
    /// The pair of the oracle `kind` at budget ε over `d` values — what
    /// `build_oracle(kind, ε, d)?.pq()` returns, without building it.
    pub fn of(kind: FoKind, epsilon: f64, d: usize) -> PqPair {
        match kind {
            FoKind::Grr => PqPair::grr(epsilon, d),
            FoKind::Oue => PqPair::oue(epsilon),
            FoKind::Olh => PqPair::olh(epsilon, olh_buckets(epsilon)),
            FoKind::Adaptive if prefers_grr(epsilon, d) => PqPair::grr(epsilon, d),
            FoKind::Adaptive => PqPair::oue(epsilon),
        }
    }

    /// GRR over a domain of size `d`:
    /// `p = e^ε/(e^ε + d − 1)`, `q = 1/(e^ε + d − 1)`.
    pub fn grr(epsilon: f64, d: usize) -> PqPair {
        let e = epsilon.exp();
        PqPair {
            p: e / (e + d as f64 - 1.0),
            q: 1.0 / (e + d as f64 - 1.0),
        }
    }

    /// OUE: `p = 1/2`, `q = 1/(e^ε + 1)`.
    pub fn oue(epsilon: f64) -> PqPair {
        PqPair {
            p: 0.5,
            q: 1.0 / (epsilon.exp() + 1.0),
        }
    }

    /// OLH with `g` hash buckets: `p = e^ε/(e^ε + g − 1)`, `q = 1/g`.
    ///
    /// `q = 1/g` because a non-holder's reported bucket collides with the
    /// queried value's bucket uniformly under an idealized hash family.
    pub fn olh(epsilon: f64, g: usize) -> PqPair {
        let e = epsilon.exp();
        PqPair {
            p: e / (e + g as f64 - 1.0),
            q: 1.0 / g as f64,
        }
    }
}

/// Exact per-cell variance of the unbiased estimate for a cell with true
/// frequency `f`, from `n` users.
pub fn cell_variance(pq: PqPair, n: u64, f: f64) -> f64 {
    if n == 0 {
        return f64::INFINITY;
    }
    let PqPair { p, q } = pq;
    let num = f * p * (1.0 - p) + (1.0 - f) * q * (1.0 - q);
    num / (n as f64 * (p - q) * (p - q))
}

/// Average per-cell variance over a `d`-cell histogram with `Σf = 1`
/// (the paper's `V(ε, n)`): plug `f = 1/d` into [`cell_variance`].
pub fn avg_variance(pq: PqPair, n: u64, d: usize) -> f64 {
    cell_variance(pq, n, 1.0 / d as f64)
}

/// The f-independent first term of the variance,
/// `q(1−q)/(n(p−q)²)` — the paper's simplified approximation
/// `(d−2+e^ε)/(n(e^ε−1)²)` for GRR.
pub fn base_variance(pq: PqPair, n: u64) -> f64 {
    cell_variance(pq, n, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1.0;

    #[test]
    fn grr_pq_sums() {
        let d = 5;
        let pq = PqPair::grr(EPS, d);
        // p + (d−1)q = 1: the response distribution is a distribution.
        assert!((pq.p + (d as f64 - 1.0) * pq.q - 1.0).abs() < 1e-12);
        // Privacy: p/q = e^ε.
        assert!((pq.p / pq.q - EPS.exp()).abs() < 1e-9);
    }

    #[test]
    fn grr_base_variance_matches_paper_eq2_first_term() {
        for d in [2usize, 5, 77, 117] {
            let pq = PqPair::grr(EPS, d);
            let n = 1000;
            let expected = (d as f64 - 2.0 + EPS.exp()) / (n as f64 * (EPS.exp() - 1.0).powi(2));
            let got = base_variance(pq, n);
            assert!(
                (got - expected).abs() / expected < 1e-9,
                "d={d}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn grr_cell_variance_matches_paper_eq2() {
        let d = 10usize;
        let n = 5000u64;
        let f = 0.3;
        let e = EPS.exp();
        let expected = (d as f64 - 2.0 + e) / (n as f64 * (e - 1.0).powi(2))
            + f * (d as f64 - 2.0) / (n as f64 * (e - 1.0));
        let got = cell_variance(PqPair::grr(EPS, d), n, f);
        assert!((got - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn oue_base_variance_is_4e_over_n_em1_sq() {
        let n = 2000u64;
        let expected = 4.0 * EPS.exp() / (n as f64 * (EPS.exp() - 1.0).powi(2));
        let got = base_variance(PqPair::oue(EPS), n);
        assert!((got - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn variance_decreases_with_n() {
        let pq = PqPair::grr(EPS, 5);
        assert!(cell_variance(pq, 100, 0.1) > cell_variance(pq, 1000, 0.1));
        assert!((cell_variance(pq, 100, 0.1) / cell_variance(pq, 1000, 0.1) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn variance_decreases_with_epsilon() {
        let d = 5;
        let n = 1000;
        assert!(
            cell_variance(PqPair::grr(0.5, d), n, 0.1) > cell_variance(PqPair::grr(2.0, d), n, 0.1)
        );
    }

    #[test]
    fn zero_population_is_infinite_variance() {
        assert!(cell_variance(PqPair::grr(EPS, 5), 0, 0.1).is_infinite());
    }

    #[test]
    fn avg_variance_is_cell_variance_at_uniform_f() {
        let pq = PqPair::grr(EPS, 8);
        assert_eq!(avg_variance(pq, 500, 8), cell_variance(pq, 500, 1.0 / 8.0));
    }

    #[test]
    fn population_division_beats_budget_division_theorem_6_1() {
        // Theorem 6.1 / Lemma A.4 of the paper:
        // V(ε/w, N) > V(ε, N/w) for GRR, any w > 1.
        for w in [2u64, 5, 10, 20, 50] {
            for d in [2usize, 5, 117] {
                let n = 100_000u64;
                let budget_div = avg_variance(PqPair::grr(EPS / w as f64, d), n, d);
                let pop_div = avg_variance(PqPair::grr(EPS, d), n / w, d);
                assert!(
                    budget_div > pop_div,
                    "w={w} d={d}: budget {budget_div} <= pop {pop_div}"
                );
            }
        }
    }

    #[test]
    fn olh_q_is_one_over_g() {
        let pq = PqPair::olh(EPS, 4);
        assert_eq!(pq.q, 0.25);
    }
}
