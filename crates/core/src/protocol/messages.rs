//! Wire messages between the aggregation server and user clients.

use ldp_fo::{FoKind, Report};
use serde::{Deserialize, Serialize};

/// Server → user: "report your current value in round `round` through an
/// oracle with these parameters".
///
/// The request carries everything a client needs to *independently*
/// reconstruct the oracle and audit the privacy cost — the client never
/// trusts server-side state it cannot verify.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportRequest {
    /// Monotone round id (unique per collection round).
    pub round: u64,
    /// Timestamp the round belongs to (0-based).
    pub t: u64,
    /// Oracle protocol for this round.
    pub fo: FoKind,
    /// Per-report privacy budget.
    pub epsilon: f64,
    /// Domain cardinality.
    pub domain_size: usize,
}

impl ReportRequest {
    /// Approximate downlink wire size in bytes.
    pub fn wire_size(&self) -> usize {
        // round + t + fo tag + epsilon + domain.
        8 + 8 + 1 + 8 + 4
    }
}

/// Bytes of the round id every response echoes back.
const ROUND_ECHO_BYTES: usize = 8;

/// User → server: a perturbed report, or a refusal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum UserResponse {
    /// The perturbed report for the requested round.
    Report {
        /// Round id echoed back.
        round: u64,
        /// The perturbed payload.
        report: Report,
    },
    /// The client's own w-event ledger rejected the request: granting it
    /// would push the client's window spend past its budget.
    Refused {
        /// Round id echoed back.
        round: u64,
        /// Budget the request asked for.
        requested: f64,
        /// Budget the client still had available in its window.
        available: f64,
    },
}

impl UserResponse {
    /// Whether the user reported.
    pub fn is_report(&self) -> bool {
        matches!(self, UserResponse::Report { .. })
    }

    /// Approximate uplink wire size in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            UserResponse::Report { report, .. } => ROUND_ECHO_BYTES + report.wire_size(),
            UserResponse::Refused { .. } => ROUND_ECHO_BYTES + 16,
        }
    }

    /// [`wire_size`](Self::wire_size) of a `Report` response from a
    /// concrete `kind` oracle over `d` values, for the collector that
    /// samples a round's tallies without materialising its responses.
    pub fn report_wire_size(kind: FoKind, d: usize) -> usize {
        ROUND_ECHO_BYTES + Report::wire_size_of(kind, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_wire_size_is_fixed() {
        let r = ReportRequest {
            round: 1,
            t: 0,
            fo: FoKind::Grr,
            epsilon: 1.0,
            domain_size: 4,
        };
        assert_eq!(r.wire_size(), 29);
    }

    #[test]
    fn response_kinds() {
        let rep = UserResponse::Report {
            round: 3,
            report: Report::Grr(2),
        };
        assert!(rep.is_report());
        assert_eq!(rep.wire_size(), 12);
        assert_eq!(UserResponse::report_wire_size(FoKind::Grr, 4), 12);
        let refusal = UserResponse::Refused {
            round: 3,
            requested: 0.5,
            available: 0.1,
        };
        assert!(!refusal.is_report());
        assert_eq!(refusal.wire_size(), 24);
    }

    #[test]
    fn messages_serialize_roundtrip() {
        let r = ReportRequest {
            round: 9,
            t: 4,
            fo: FoKind::Oue,
            epsilon: 0.25,
            domain_size: 77,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: ReportRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
