//! Closed-form utility analysis (paper §5.4.2 and §6.3.2).
//!
//! The paper bounds each mechanism's window MSE under a common
//! simplification: `m < w` publications per window, evenly spaced, no
//! budget recycled from outside the window. The publication-noise parts
//! (the first bracket of Eq. 7) are:
//!
//! | mechanism | per-window publication variance |
//! |---|---|
//! | LBU | `w · V(ε/w, N)` (every step publishes) |
//! | LSP | `V(ε, N)` + data drift |
//! | LBD | `Σ_{i=1..m} V(ε/2^{i+1}, N)` (Eq. 8) |
//! | LBA | `m · V((w+m)·ε/(4wm), N)` (Eq. 9) |
//! | LPD | `Σ_{i=1..m} V(ε, N/2^{i+1})` (Eq. 10) |
//! | LPA | `m · V(ε, (w+m)·N/(4wm))` (Eq. 11) |
//!
//! These are *decision aids*, not guarantees — the adaptive mechanisms'
//! real error is data-dependent. Their value is comparative: Theorem 6.1
//! generalizes cell-by-cell to `V(ε, N/2^{i+1}) < V(ε/2^{i+1}, N)`, so
//! each population expression beats its budget twin term-wise, which the
//! tests here verify across a parameter grid. The bench crate uses the
//! same functions to sanity-check measured errors.

use crate::config::MechanismConfig;
use ldp_fo::variance::{avg_variance, PqPair};

/// `V(ε, n)` for the configured oracle: average per-cell estimation
/// variance of one FO round with budget `eps` over `n` reporters.
pub fn v(config: &MechanismConfig, eps: f64, n: u64) -> f64 {
    if n == 0 || eps <= 0.0 {
        return f64::INFINITY;
    }
    let pq = PqPair::of(config.fo, eps, config.domain_size);
    avg_variance(pq, n, config.domain_size)
}

/// LBU: every timestamp publishes with ε/w over the full population.
pub fn mse_lbu(config: &MechanismConfig) -> f64 {
    v(config, config.epsilon / config.w as f64, config.population)
}

/// LPU: every timestamp publishes with full ε over `⌊N/w⌋` users.
pub fn mse_lpu(config: &MechanismConfig) -> f64 {
    v(config, config.epsilon, config.population / config.w as u64)
}

/// LSP's window MSE: one full-ε publication plus the data-dependent
/// drift term `(1/w)·Σ_k (c_t − c_{t+k})²`, supplied by the caller.
pub fn mse_lsp(config: &MechanismConfig, mean_drift: f64) -> f64 {
    v(config, config.epsilon, config.population) + mean_drift
}

/// Eq. (8): LBD's summed publication variance for `m` publications.
pub fn publication_variance_lbd(config: &MechanismConfig, m: u32) -> f64 {
    (1..=m)
        .map(|i| {
            v(
                config,
                config.epsilon / 2f64.powi(i as i32 + 1),
                config.population,
            )
        })
        .sum()
}

/// Eq. (9): LBA's summed publication variance for `m` publications.
pub fn publication_variance_lba(config: &MechanismConfig, m: u32) -> f64 {
    if m == 0 {
        return 0.0;
    }
    let (w, mf) = (config.w as f64, m as f64);
    let eps = (w + mf) * config.epsilon / (4.0 * w * mf);
    mf * v(config, eps, config.population)
}

/// Eq. (10): LPD's summed publication variance for `m` publications.
pub fn publication_variance_lpd(config: &MechanismConfig, m: u32) -> f64 {
    (1..=m)
        .map(|i| v(config, config.epsilon, config.population / 2u64.pow(i + 1)))
        .sum()
}

/// Eq. (11): LPA's summed publication variance for `m` publications.
pub fn publication_variance_lpa(config: &MechanismConfig, m: u32) -> f64 {
    if m == 0 {
        return 0.0;
    }
    let (w, mf) = (config.w as f64, m as f64);
    let group = ((w + mf) * config.population as f64 / (4.0 * w * mf)) as u64;
    mf * v(config, config.epsilon, group)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(eps: f64, w: usize, d: usize, n: u64) -> MechanismConfig {
        MechanismConfig::new(eps, w, d, n)
    }

    /// Theorem 6.1: LPU beats LBU for every (ε, w, d, N) on a grid.
    #[test]
    fn theorem_6_1_lpu_beats_lbu() {
        for eps in [0.25, 0.5, 1.0, 2.0, 4.0] {
            for w in [2usize, 5, 20, 50] {
                for d in [2usize, 5, 117] {
                    let c = config(eps, w, d, 200_000);
                    assert!(
                        mse_lpu(&c) < mse_lbu(&c),
                        "LPU {} !< LBU {} at eps={eps} w={w} d={d}",
                        mse_lpu(&c),
                        mse_lbu(&c)
                    );
                }
            }
        }
    }

    /// The population expressions beat their budget twins term-wise
    /// (the generalized Lemma 6.1 the paper's §6.3.2 relies on).
    #[test]
    fn population_variance_dominates_budget_variance() {
        for m in 1..=10u32 {
            for eps in [0.5, 1.0, 2.0] {
                let c = config(eps, 20, 5, 1_000_000);
                assert!(
                    publication_variance_lpd(&c, m) < publication_variance_lbd(&c, m),
                    "LPD !< LBD at m={m} eps={eps}"
                );
                assert!(
                    publication_variance_lpa(&c, m) < publication_variance_lba(&c, m),
                    "LPA !< LBA at m={m} eps={eps}"
                );
            }
        }
    }

    /// §5.4.2: LBD's error explodes with m (exponentially halved
    /// budgets) while LBA's grows mildly. The ratio is non-monotone for
    /// the first couple of publications (LBA's per-publication budget
    /// also shrinks early), but from m ≥ 2 it must climb steeply.
    #[test]
    fn lbd_degrades_faster_than_lba() {
        let c = config(1.0, 20, 2, 200_000);
        let ratio = |m: u32| publication_variance_lbd(&c, m) / publication_variance_lba(&c, m);
        assert!(ratio(4) > ratio(2), "{} !> {}", ratio(4), ratio(2));
        assert!(ratio(8) > ratio(4), "{} !> {}", ratio(8), ratio(4));
        assert!(ratio(8) > 10.0, "at m=8 LBD should be ≫ LBA: {}", ratio(8));
    }

    /// Same comparison on the population side: LPD vs LPA. The gap is
    /// much milder than LBD vs LBA (variance is 1/n, not exp, in the
    /// divided resource) but still grows with m.
    #[test]
    fn lpd_degrades_faster_than_lpa() {
        let c = config(1.0, 20, 2, 1_000_000);
        let r2 = publication_variance_lpd(&c, 2) / publication_variance_lpa(&c, 2);
        let r8 = publication_variance_lpd(&c, 8) / publication_variance_lpa(&c, 8);
        assert!(r8 > r2, "LPD/LPA ratio should grow with m: {r2} -> {r8}");
    }

    /// LSP's closed form: noise of a full-ε full-population round plus
    /// drift. With zero drift it is the floor of every method.
    #[test]
    fn lsp_floor_beats_uniform_methods() {
        let c = config(1.0, 20, 2, 200_000);
        let lsp = mse_lsp(&c, 0.0);
        assert!(lsp < mse_lpu(&c));
        assert!(lsp < mse_lbu(&c));
        // But realistic drift erases the advantage.
        let drifty = mse_lsp(&c, 0.05);
        assert!(drifty > mse_lpu(&c));
    }

    /// Degenerate inputs.
    #[test]
    fn zero_publications_and_zero_users() {
        let c = config(1.0, 20, 2, 1000);
        assert_eq!(publication_variance_lbd(&c, 0), 0.0);
        assert_eq!(publication_variance_lba(&c, 0), 0.0);
        assert_eq!(publication_variance_lpd(&c, 0), 0.0);
        assert_eq!(publication_variance_lpa(&c, 0), 0.0);
        assert!(v(&c, 1.0, 0).is_infinite());
        assert!(v(&c, 0.0, 1000).is_infinite());
    }

    /// With many publications LPD's groups underflow to zero users and
    /// the expression correctly diverges (the u_min guard's raison
    /// d'être).
    #[test]
    fn lpd_group_underflow_diverges() {
        let c = config(1.0, 20, 2, 100);
        // N/2^{m+1} = 0 for m ≥ 6 with N = 100.
        assert!(publication_variance_lpd(&c, 10).is_infinite());
    }
}
