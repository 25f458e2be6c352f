//! Seeded inputs and the references the correctness gates compare
//! against. The system under test only ever sees what is generated
//! here; the same seed gives the same inputs.

use ldp_fo::{build_oracle, FoKind, OracleHandle, Report};
use ldp_ids::collector::RoundEstimate;
use ldp_ids::protocol::{AggregationServer, UserResponse};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-report privacy budget of every ingest workload.
pub const EPSILON: f64 = 1.0;

/// A pool of pre-perturbed reports that rounds cycle through.
pub struct ReportPool {
    pub fo: FoKind,
    pub d: usize,
    pub oracle: OracleHandle,
    pub reports: Vec<Report>,
}

impl ReportPool {
    /// Perturb `n` values (skewed towards the low end of the domain, so
    /// estimates are not flat) through the `fo` oracle over `d` values.
    pub fn generate(fo: FoKind, d: usize, n: usize, seed: u64) -> Self {
        let oracle = build_oracle(fo, EPSILON, d).expect("benchmark oracle parameters are valid");
        let mut rng = StdRng::seed_from_u64(seed);
        let reports = (0..n)
            .map(|_| {
                let u: f64 = rng.gen();
                let value = ((u * u * d as f64) as usize).min(d - 1);
                oracle.perturb(value, &mut rng)
            })
            .collect();
        ReportPool {
            fo,
            d,
            oracle,
            reports,
        }
    }

    /// `len` responses for `round`, cycling the pool from position
    /// `start` (taken modulo the pool size).
    pub fn responses(&self, round: u64, start: usize, len: usize) -> Vec<UserResponse> {
        (start..start + len)
            .map(|i| UserResponse::Report {
                round,
                report: self.reports[i % self.reports.len()].clone(),
            })
            .collect()
    }

    /// A whole round of `total` responses cut into `chunk`-sized
    /// deltas (the last one may be short), cycling the pool from 0.
    pub fn chunks(&self, round: u64, total: usize, chunk: usize) -> Vec<Vec<UserResponse>> {
        (0..total)
            .step_by(chunk)
            .map(|start| self.responses(round, start, chunk.min(total - start)))
            .collect()
    }

    /// What the sequential [`AggregationServer`] estimates from the
    /// first `total` responses of the cycled pool — the reference every
    /// closed round of an ingest workload must match bit for bit.
    pub fn reference(&self, total: usize) -> RoundEstimate {
        let mut server = AggregationServer::new();
        let request = server.open_round(0, self.fo, EPSILON, self.oracle.clone());
        for i in 0..total {
            let response = UserResponse::Report {
                round: request.round,
                report: self.reports[i % self.reports.len()].clone(),
            };
            server.submit(&response).expect("reference submit");
        }
        server.close_round().expect("reference close")
    }
}

/// The correctness gate of the ingest workloads: same reporters, same
/// estimate bits as the sequential reference.
pub fn check_estimate(
    what: &str,
    got: &RoundEstimate,
    want: &RoundEstimate,
    sent: u64,
) -> Result<(), String> {
    if got.reporters != sent {
        return Err(format!(
            "{what}: {} reporters counted, {sent} reports sent",
            got.reporters
        ));
    }
    let same = got.frequencies.len() == want.frequencies.len()
        && got
            .frequencies
            .iter()
            .zip(&want.frequencies)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !same || got.reporters != want.reporters {
        return Err(format!(
            "{what}: estimate differs from the sequential AggregationServer"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_pool_and_chunks_cover_the_round() {
        let a = ReportPool::generate(FoKind::Oue, 128, 64, 9);
        let b = ReportPool::generate(FoKind::Oue, 128, 64, 9);
        assert_eq!(a.reports, b.reports);
        assert_ne!(
            a.reports,
            ReportPool::generate(FoKind::Oue, 128, 64, 10).reports
        );
        let chunks = a.chunks(3, 150, 64);
        assert_eq!(
            chunks.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![64, 64, 22]
        );
    }

    #[test]
    fn gate_rejects_a_wrong_count_and_a_flipped_bit() {
        let pool = ReportPool::generate(FoKind::Grr, 5, 100, 1);
        let want = pool.reference(250);
        assert!(check_estimate("ok", &want, &want, 250).is_ok());
        assert!(check_estimate("count", &want, &want, 249).is_err());
        let mut off = want.clone();
        off.frequencies[0] = f64::from_bits(off.frequencies[0].to_bits() ^ 1);
        assert!(check_estimate("bits", &off, &want, 250).is_err());
    }
}
