//! Adaptive oracle selection.
//!
//! Wang et al. show GRR's variance beats OUE's exactly when
//! `d − 2 < 3e^ε + ...` — to first order, when `d < 3e^ε + 2`. The
//! adaptive selector applies that crossover so mechanisms can sweep ε and
//! `d` without hand-picking the oracle. The paper's population-division
//! methods benefit directly: they always report with the full ε, so the
//! crossover point is stable across the stream.

use crate::oracle::{build_oracle, validate_params, FoError, FoKind, OracleHandle};
use crate::variance::prefers_grr;

/// Resolver for the `FoKind::Adaptive` choice.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveOracle;

impl AdaptiveOracle {
    /// Build the concrete oracle [`prefers_grr`] selects.
    pub fn resolve(epsilon: f64, d: usize) -> Result<OracleHandle, FoError> {
        validate_params(epsilon, d)?;
        if prefers_grr(epsilon, d) {
            build_oracle(FoKind::Grr, epsilon, d)
        } else {
            build_oracle(FoKind::Oue, epsilon, d)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variance::base_variance;

    #[test]
    fn small_domain_prefers_grr() {
        assert!(prefers_grr(1.0, 2));
        assert!(prefers_grr(1.0, 5));
    }

    #[test]
    fn large_domain_prefers_oue() {
        assert!(!prefers_grr(1.0, 117));
        assert!(!prefers_grr(0.5, 77));
    }

    #[test]
    fn higher_epsilon_extends_grr_range() {
        // d = 20: GRR loses at ε = 1 (3e + 2 ≈ 10.2) but wins at ε = 2
        // (3e² + 2 ≈ 24.2).
        assert!(!prefers_grr(1.0, 20));
        assert!(prefers_grr(2.0, 20));
    }

    #[test]
    fn resolve_returns_concrete_kind() {
        let small = AdaptiveOracle::resolve(1.0, 4).unwrap();
        assert_eq!(small.kind(), FoKind::Grr);
        let large = AdaptiveOracle::resolve(1.0, 200).unwrap();
        assert_eq!(large.kind(), FoKind::Oue);
    }

    #[test]
    fn crossover_tracks_variance_ordering() {
        // On either side of the rule the selected oracle should have the
        // lower f-independent variance term.
        let n = 10_000;
        for (eps, d) in [(1.0, 4usize), (1.0, 50), (2.0, 20), (0.5, 10)] {
            let grr_var = base_variance(crate::variance::PqPair::grr(eps, d), n);
            let oue_var = base_variance(crate::variance::PqPair::oue(eps), n);
            let chosen = AdaptiveOracle::resolve(eps, d).unwrap();
            let chosen_var = base_variance(chosen.pq(), n);
            assert!(
                chosen_var <= grr_var.max(oue_var),
                "eps={eps} d={d}: chosen {chosen_var} vs grr {grr_var}, oue {oue_var}"
            );
        }
    }

    #[test]
    fn resolve_validates_parameters() {
        assert!(AdaptiveOracle::resolve(0.0, 5).is_err());
        assert!(AdaptiveOracle::resolve(1.0, 1).is_err());
    }
}
