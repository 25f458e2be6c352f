//! Budget-division mechanisms (paper §5).
//!
//! Theorem 5.1 lets a w-event LDP mechanism treat ε as a budget to be
//! split across the timestamps of every sliding window: if each
//! timestamp's sub-mechanism is ε_t-LDP and every window satisfies
//! `Σ ε_t ≤ ε`, the composition is w-event ε-LDP. Every user reports at
//! every timestamp (twice on adaptive publication steps), always with a
//! *fraction* of ε — which is exactly why this family suffers in the
//! local model: FO variance blows up as `O((e^ε − 1)^{-2})` when the
//! per-round budget shrinks (§6.1).
//!
//! Members:
//!
//! * [`Lbu`] — uniform ε/w every timestamp (§5.2.1);
//! * [`Lsp`] — full ε once per window, approximate in between (§5.2.2);
//! * [`Lbd`] — adaptive budget *distribution*, exponentially decaying
//!   publication budgets (Alg. 1);
//! * [`Lba`] — adaptive budget *absorption*, uniform slots absorbed by
//!   publications (Alg. 2).
//!
//! Every member carries a [`crate::BudgetLedger`] that re-checks the
//! window-sum invariant at runtime.

mod lba;
mod lbd;
mod lbu;
mod lsp;

pub use lba::Lba;
pub use lbd::{Decision, Lbd};
pub use lbu::Lbu;
pub use lsp::Lsp;

use crate::collector::{ReportScope, RoundCollector};
use crate::config::{MechanismConfig, VarianceModel};
use crate::dissimilarity::{estimate_dissimilarity, expected_round_mse};
use crate::error::CoreError;
use ldp_fo::variance::PqPair;

/// Shared M_{t,1} of the adaptive budget mechanisms (Alg. 1/2 lines 3–6):
/// all users report with the fixed dissimilarity budget `ε/(2w)`; the
/// round estimate is turned into the Theorem 5.2 dissimilarity against
/// the previous release.
pub(crate) fn budget_dissimilarity_round(
    config: &MechanismConfig,
    collector: &mut dyn RoundCollector,
    last_release: &[f64],
) -> Result<f64, CoreError> {
    let eps_1 = config.dissimilarity_budget_per_step();
    let round = collector.collect(ReportScope::All, eps_1)?;
    let pq = PqPair::of(config.fo, eps_1, config.domain_size);
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

/// The potential publication error `err = V(ε_pub, N)` (§5.3.2) for a
/// budget-division publication round.
pub(crate) fn budget_publication_error(config: &MechanismConfig, eps_pub: f64) -> f64 {
    if eps_pub <= 0.0 {
        return f64::INFINITY;
    }
    let pq = PqPair::of(config.fo, eps_pub, config.domain_size);
    // `err` is data-independent (Eq. 6): always the f = 1/d average.
    expected_round_mse(
        VarianceModel::Approximate,
        pq,
        config.population,
        config.domain_size,
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_fo::FoKind;

    #[test]
    fn publication_error_is_infinite_for_zero_budget() {
        let config = MechanismConfig::new(1.0, 10, 4, 1000);
        assert!(budget_publication_error(&config, 0.0).is_infinite());
        assert!(budget_publication_error(&config, 0.5).is_finite());
    }

    #[test]
    fn publication_error_decreases_with_budget() {
        let config = MechanismConfig::new(1.0, 10, 4, 1000);
        let hi = budget_publication_error(&config, 0.1);
        let lo = budget_publication_error(&config, 1.0);
        assert!(lo < hi);
    }

    #[test]
    fn pq_for_matches_oracle_kinds() {
        // The pair every variance model prices is the built oracle's own,
        // bit for bit, on both sides of the adaptive crossover.
        for kind in [FoKind::Grr, FoKind::Oue, FoKind::Olh, FoKind::Adaptive] {
            for eps in [0.05, 0.5, 1.0, 1.1, 2.0, 4.5] {
                for d in [2usize, 5, 10, 20, 117, 1024] {
                    let want = ldp_fo::build_oracle(kind, eps, d).unwrap().pq();
                    let got = PqPair::of(kind, eps, d);
                    assert_eq!(
                        (got.p.to_bits(), got.q.to_bits()),
                        (want.p.to_bits(), want.q.to_bits()),
                        "{kind:?} eps={eps} d={d}"
                    );
                }
            }
        }
    }
}
