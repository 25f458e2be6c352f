//! The [`FrequencyOracle`] trait and oracle construction.

use crate::kernels::{self, ReportColumns};
use crate::report::Report;
use crate::variance::{avg_variance, cell_variance, PqPair};
use crate::{AdaptiveOracle, Grr, Olh, Oue};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Errors raised when constructing or operating a frequency oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum FoError {
    /// ε must be finite and strictly positive.
    InvalidEpsilon(f64),
    /// The categorical domain must have at least two values.
    DomainTooSmall(usize),
    /// A value index was outside the domain.
    ValueOutOfDomain {
        /// The offending value index.
        value: usize,
        /// Domain cardinality.
        domain: usize,
    },
    /// A report variant did not match the oracle that received it.
    ReportKindMismatch {
        /// The report kind the oracle expects.
        expected: &'static str,
    },
    /// The raw support-count vector had the wrong length.
    CountLengthMismatch {
        /// Expected length (the domain size).
        expected: usize,
        /// Actual length received.
        got: usize,
    },
}

impl std::fmt::Display for FoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FoError::InvalidEpsilon(e) => write!(f, "epsilon must be finite and > 0, got {e}"),
            FoError::DomainTooSmall(d) => write!(f, "domain must have >= 2 values, got {d}"),
            FoError::ValueOutOfDomain { value, domain } => {
                write!(f, "value {value} outside domain of size {domain}")
            }
            FoError::ReportKindMismatch { expected } => {
                write!(f, "report kind mismatch, oracle expects {expected}")
            }
            FoError::CountLengthMismatch { expected, got } => {
                write!(f, "support counts length {got}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for FoError {}

pub(crate) fn validate_params(epsilon: f64, d: usize) -> Result<(), FoError> {
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(FoError::InvalidEpsilon(epsilon));
    }
    if d < 2 {
        return Err(FoError::DomainTooSmall(d));
    }
    Ok(())
}

/// Which oracle to use; `Adaptive` resolves at construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FoKind {
    /// Generalized Randomized Response — the paper's default.
    Grr,
    /// Optimized Unary Encoding.
    Oue,
    /// Optimized Local Hashing.
    Olh,
    /// GRR when `d < 3e^ε + 2`, OUE otherwise (Wang et al. crossover).
    Adaptive,
}

impl FoKind {
    /// All concrete kinds (for test/bench sweeps).
    pub const ALL: [FoKind; 4] = [FoKind::Grr, FoKind::Oue, FoKind::Olh, FoKind::Adaptive];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            FoKind::Grr => "grr",
            FoKind::Oue => "oue",
            FoKind::Olh => "olh",
            FoKind::Adaptive => "adaptive",
        }
    }
}

impl std::str::FromStr for FoKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "grr" => Ok(FoKind::Grr),
            "oue" => Ok(FoKind::Oue),
            "olh" => Ok(FoKind::Olh),
            "adaptive" => Ok(FoKind::Adaptive),
            other => Err(format!("unknown frequency oracle `{other}`")),
        }
    }
}

/// A pure ε-LDP frequency oracle over a categorical domain of size `d`.
///
/// Implementations are cheap to construct, immutable, and shareable
/// across threads (`Send + Sync`); all state lives in the caller.
pub trait FrequencyOracle: Send + Sync + std::fmt::Debug {
    /// Which protocol this oracle implements.
    fn kind(&self) -> FoKind;

    /// The privacy budget each report consumes.
    fn epsilon(&self) -> f64;

    /// Domain cardinality `d`.
    fn domain_size(&self) -> usize;

    /// The protocol's `(p, q)` support-probability pair.
    fn pq(&self) -> PqPair;

    /// Perturb one user's true value into a report. Panics (debug) if
    /// `value >= d`; release builds produce a report for the clamped value.
    fn perturb(&self, value: usize, rng: &mut dyn RngCore) -> Report;

    /// Fold one report into the raw support-count vector
    /// (`counts.len() == d`).
    fn accumulate(&self, report: &Report, counts: &mut [u64]);

    /// Fold one report with release-mode (lenient) semantics: wrong-kind
    /// reports tally nothing, malformed OUE payloads are length-clamped,
    /// and nothing panics even with debug assertions on. For well-formed
    /// reports this is bit-identical to [`accumulate`](Self::accumulate).
    fn accumulate_lenient(&self, report: &Report, counts: &mut [u64]) {
        match (self.kind(), report) {
            (FoKind::Oue, Report::Oue { bits, len }) => {
                kernels::oue_accumulate_lenient(bits, *len, counts);
            }
            (FoKind::Grr, Report::Grr(_)) | (FoKind::Olh, Report::Olh { .. }) => {
                // The scalar paths for these kinds are already lenient
                // (out-of-domain GRR values skip; out-of-range OLH
                // buckets never match a hash).
                self.accumulate(report, counts);
            }
            _ => {}
        }
    }

    /// Fold a column of same-kind reports (the service's batch layout)
    /// into the raw support-count vector, bit-identically to the scalar
    /// path. Oracles with a specialized kernel override this; the
    /// default walks the rows through
    /// [`accumulate_lenient`](Self::accumulate_lenient).
    fn accumulate_columns(&self, columns: &ReportColumns, counts: &mut [u64]) {
        columns.for_each_report(|report| self.accumulate_lenient(&report, counts));
    }

    /// Unbiased frequency estimates from raw support counts of `n` users.
    fn estimate(&self, counts: &[u64], n: u64) -> Vec<f64> {
        let PqPair { p, q } = self.pq();
        let nf = n.max(1) as f64;
        counts
            .iter()
            .map(|&c| (c as f64 / nf - q) / (p - q))
            .collect()
    }

    /// Sample the aggregated support counts directly from per-value true
    /// counts (`true_counts.len() == d`, values summing to `n`). Exactly
    /// distributed as the sum of per-user reports for GRR/OUE; exact per
    /// cell for OLH.
    fn perturb_aggregate(&self, true_counts: &[u64], rng: &mut dyn RngCore) -> Vec<u64>;

    /// Exact per-cell estimation variance for true frequency `f` from `n`
    /// users (paper Eq. 2 for GRR).
    fn cell_variance(&self, n: u64, f: f64) -> f64 {
        cell_variance(self.pq(), n, f)
    }

    /// Average variance over the `d` cells with `Σf = 1` — the paper's
    /// `V(ε, n)` used for dissimilarity correction and publication error.
    fn avg_variance(&self, n: u64) -> f64 {
        avg_variance(self.pq(), n, self.domain_size())
    }
}

/// A shared, immutable oracle handle.
pub type OracleHandle = Arc<dyn FrequencyOracle>;

/// Construct an oracle of the given kind.
///
/// `Adaptive` resolves to GRR or OUE immediately; the returned handle
/// reports its *resolved* kind.
pub fn build_oracle(kind: FoKind, epsilon: f64, d: usize) -> Result<OracleHandle, FoError> {
    validate_params(epsilon, d)?;
    Ok(match kind {
        FoKind::Grr => Arc::new(Grr::new(epsilon, d)?),
        FoKind::Oue => Arc::new(Oue::new(epsilon, d)?),
        FoKind::Olh => Arc::new(Olh::new(epsilon, d)?),
        FoKind::Adaptive => AdaptiveOracle::resolve(epsilon, d)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_rejects_bad_parameters() {
        assert!(matches!(
            build_oracle(FoKind::Grr, 0.0, 5),
            Err(FoError::InvalidEpsilon(_))
        ));
        assert!(matches!(
            build_oracle(FoKind::Grr, f64::NAN, 5),
            Err(FoError::InvalidEpsilon(_))
        ));
        assert!(matches!(
            build_oracle(FoKind::Oue, 1.0, 1),
            Err(FoError::DomainTooSmall(1))
        ));
        assert!(matches!(
            build_oracle(FoKind::Olh, 1.0, 0),
            Err(FoError::DomainTooSmall(0))
        ));
    }

    #[test]
    fn build_produces_requested_kind() {
        assert_eq!(
            build_oracle(FoKind::Grr, 1.0, 4).unwrap().kind(),
            FoKind::Grr
        );
        assert_eq!(
            build_oracle(FoKind::Oue, 1.0, 4).unwrap().kind(),
            FoKind::Oue
        );
        assert_eq!(
            build_oracle(FoKind::Olh, 1.0, 4).unwrap().kind(),
            FoKind::Olh
        );
    }

    #[test]
    fn kind_parse_roundtrip() {
        for kind in FoKind::ALL {
            assert_eq!(kind.name().parse::<FoKind>().unwrap(), kind);
        }
        assert!("nope".parse::<FoKind>().is_err());
    }

    #[test]
    fn estimate_default_impl_is_unbiased_transform() {
        let oracle = build_oracle(FoKind::Grr, 1.0, 3).unwrap();
        let PqPair { p, q } = oracle.pq();
        // If every user supported cell 0, the estimate should be
        // (1 − q)/(p − q).
        let est = oracle.estimate(&[10, 0, 0], 10);
        assert!((est[0] - (1.0 - q) / (p - q)).abs() < 1e-12);
        assert!((est[1] - (0.0 - q) / (p - q)).abs() < 1e-12);
    }

    #[test]
    fn error_display_covers_variants() {
        let msgs = [
            FoError::InvalidEpsilon(-1.0).to_string(),
            FoError::DomainTooSmall(1).to_string(),
            FoError::ValueOutOfDomain {
                value: 9,
                domain: 5,
            }
            .to_string(),
            FoError::ReportKindMismatch { expected: "grr" }.to_string(),
            FoError::CountLengthMismatch {
                expected: 5,
                got: 4,
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
