//! Population-division mechanisms (paper §6).
//!
//! The paper's central observation: FO variance is `O((e^ε − 1)^{-2})` in
//! the budget but only `O(n^{-1})` in the reporting population. Splitting
//! the *population* across a window — every reporting user spends the
//! full ε, but reports at most once per window — therefore dominates
//! splitting the budget (Theorem 6.1), and as a bonus cuts communication
//! by ~w× because only one group reports per timestamp.
//!
//! Members:
//!
//! * [`Lpu`] — uniform `⌊N/w⌋` fresh users per timestamp (§6.1);
//! * [`Lpd`] — adaptive population *distribution*: exponentially decaying
//!   publication groups (Alg. 3);
//! * [`Lpa`] — adaptive population *absorption*: uniform group slots,
//!   absorbed by publications, nullified afterwards (Alg. 4).
//!
//! ([`crate::budget::Lsp`] belongs to this family for accounting
//! purposes — all users report once per window — and is implemented with
//! the same `Fresh` scope.)
//!
//! The adaptive members mirror Alg. 1/2 with the substitution
//! `ε_{t,2} → |U_{t,2}|`: the provisional *resource* is a user group, and
//! the publication error is `V(ε, |U_{t,2}|)`. Freshness (no user twice
//! per window) is enforced by the collector; these mechanisms only choose
//! group sizes.

mod lpa;
mod lpd;
mod lpu;

pub use lpa::Lpa;
pub use lpd::Lpd;
pub use lpu::Lpu;

use crate::collector::{ReportScope, RoundCollector};
use crate::config::{MechanismConfig, VarianceModel};
use crate::dissimilarity::{estimate_dissimilarity, expected_round_mse};
use crate::error::CoreError;
use ldp_fo::variance::PqPair;

/// Shared M_{t,1} of the adaptive population mechanisms (Alg. 3/4 lines
/// 3–6): `⌊N/(2w)⌋` fresh users report with the full ε; the round
/// estimate becomes the Theorem 5.2 dissimilarity against the previous
/// release.
pub(crate) fn population_dissimilarity_round(
    config: &MechanismConfig,
    collector: &mut dyn RoundCollector,
    last_release: &[f64],
) -> Result<f64, CoreError> {
    let group = config.dissimilarity_group_size();
    let round = collector.collect(ReportScope::Fresh(group), config.epsilon)?;
    let pq = PqPair::of(config.fo, config.epsilon, config.domain_size);
    let mse = expected_round_mse(
        config.variance,
        pq,
        round.reporters,
        config.domain_size,
        Some(&round.frequencies),
    );
    Ok(estimate_dissimilarity(
        &round.frequencies,
        last_release,
        mse,
    ))
}

/// The potential publication error `err = V(ε, n_pub)` (§6.2.1) for a
/// population-division publication round with `n_pub` users.
pub(crate) fn population_publication_error(config: &MechanismConfig, n_pub: u64) -> f64 {
    if n_pub == 0 {
        return f64::INFINITY;
    }
    let pq = PqPair::of(config.fo, config.epsilon, config.domain_size);
    expected_round_mse(
        VarianceModel::Approximate,
        pq,
        n_pub,
        config.domain_size,
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publication_error_infinite_without_users() {
        let config = MechanismConfig::new(1.0, 10, 4, 10_000);
        assert!(population_publication_error(&config, 0).is_infinite());
        assert!(population_publication_error(&config, 100).is_finite());
    }

    #[test]
    fn publication_error_decreases_with_group_size() {
        let config = MechanismConfig::new(1.0, 10, 4, 10_000);
        let small = population_publication_error(&config, 100);
        let large = population_publication_error(&config, 1000);
        assert!(large < small);
        // And scales as 1/n.
        assert!((small / large - 10.0).abs() < 1e-9);
    }

    /// Theorem 6.1 in miniature: full-ε small-group beats split-ε
    /// full-population for the same "resource division" factor w.
    #[test]
    fn population_division_beats_budget_division() {
        let n = 100_000;
        let w = 20usize;
        let config = MechanismConfig::new(1.0, w, 4, n);
        let pop_err = population_publication_error(&config, n / w as u64);
        let budget_err =
            crate::budget::budget_publication_error(&config, config.epsilon / w as f64);
        assert!(
            pop_err < budget_err,
            "V(ε, N/w) = {pop_err} must beat V(ε/w, N) = {budget_err}"
        );
    }
}
