//! Deterministic randomness and numeric substrate for the LDP-IDS workspace.
//!
//! Every stochastic component of the reproduction — frequency-oracle
//! perturbation, stream generators, the centralized Laplace baseline, the
//! aggregate-level samplers — draws its randomness through this crate so
//! that a single master seed reproduces an entire experiment grid.
//!
//! The crate deliberately hand-rolls the distributions whose exact form the
//! paper depends on (Laplace noise, Zipf popularity, the bit-sliced
//! Bernoulli behind OUE's per-bit flips) and
//! delegates the numerically fiddly ones (binomial/BTPE, standard normal)
//! to [`rand_distr`], as recorded in `DESIGN.md`.

#![warn(missing_docs)]

pub mod bernoulli;
pub mod binomial;
pub mod gaussian;
pub mod hypergeometric;
pub mod kahan;
pub mod laplace;
pub mod rng;
pub mod stats;
pub mod zipf;

pub use bernoulli::BernoulliWords;
pub use binomial::{sample_binomial, sample_multinomial_uniform, split_binomial};
pub use gaussian::Gaussian;
pub use hypergeometric::{ln_gamma, sample_hypergeometric, sample_multivariate_hypergeometric};
pub use kahan::KahanSum;
pub use laplace::Laplace;
pub use rng::child_seed;
pub use stats::{mean, quantile, sample_variance};
pub use zipf::Zipf;

/// Workspace-wide error type for invalid numeric parameters.
///
/// The substrate validates eagerly: a distribution constructed with an
/// invalid parameter is a programming error in the caller, so constructors
/// return this error instead of producing NaNs downstream.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamError {
    /// A parameter that must be strictly positive was not.
    NonPositive {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A parameter that must be finite was NaN or infinite.
    NonFinite {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A probability-like parameter was outside `[0, 1]`.
    NotAProbability {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A parameter that must be non-empty (e.g. weights) was empty.
    Empty {
        /// Parameter name.
        name: &'static str,
    },
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::NonPositive { name, value } => {
                write!(f, "parameter `{name}` must be > 0, got {value}")
            }
            ParamError::NonFinite { name, value } => {
                write!(f, "parameter `{name}` must be finite, got {value}")
            }
            ParamError::NotAProbability { name, value } => {
                write!(f, "parameter `{name}` must lie in [0, 1], got {value}")
            }
            ParamError::Empty { name } => write!(f, "parameter `{name}` must be non-empty"),
        }
    }
}

impl std::error::Error for ParamError {}

pub(crate) fn ensure_positive(name: &'static str, value: f64) -> Result<f64, ParamError> {
    if !value.is_finite() {
        Err(ParamError::NonFinite { name, value })
    } else if value <= 0.0 {
        Err(ParamError::NonPositive { name, value })
    } else {
        Ok(value)
    }
}

pub(crate) fn ensure_probability(name: &'static str, value: f64) -> Result<f64, ParamError> {
    if !value.is_finite() {
        Err(ParamError::NonFinite { name, value })
    } else if !(0.0..=1.0).contains(&value) {
        Err(ParamError::NotAProbability { name, value })
    } else {
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_positive_accepts_positive() {
        assert_eq!(ensure_positive("x", 1.5).unwrap(), 1.5);
    }

    #[test]
    fn ensure_positive_rejects_zero_and_negative() {
        assert!(matches!(
            ensure_positive("x", 0.0),
            Err(ParamError::NonPositive { .. })
        ));
        assert!(matches!(
            ensure_positive("x", -3.0),
            Err(ParamError::NonPositive { .. })
        ));
    }

    #[test]
    fn ensure_positive_rejects_nan_and_inf() {
        assert!(matches!(
            ensure_positive("x", f64::NAN),
            Err(ParamError::NonFinite { .. })
        ));
        assert!(matches!(
            ensure_positive("x", f64::INFINITY),
            Err(ParamError::NonFinite { .. })
        ));
    }

    #[test]
    fn ensure_probability_bounds() {
        assert!(ensure_probability("p", 0.0).is_ok());
        assert!(ensure_probability("p", 1.0).is_ok());
        assert!(ensure_probability("p", 1.0001).is_err());
        assert!(ensure_probability("p", -0.0001).is_err());
    }

    #[test]
    fn param_error_display_is_informative() {
        let err = ParamError::NonPositive {
            name: "epsilon",
            value: -1.0,
        };
        assert!(err.to_string().contains("epsilon"));
        assert!(err.to_string().contains("-1"));
    }
}
