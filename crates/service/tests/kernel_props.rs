//! Property tests pinning the columnar fold path — the service's only
//! one — to the sequential `AggregationServer`'s per-response fold,
//! through `ShardAccumulator`, `ShardArena` and the whole service.
//!
//! Stale and refused responses interleave arbitrarily with reports
//! here: the columnar encode counts them at batch build time, and the
//! resulting tallies — estimate bits, reporters, refusals, stale — must
//! equal what the sequential server makes of the same stream one
//! response at a time (its `StaleRound` errors are the stale count).

use ldp_fo::{build_oracle, FoKind, OracleHandle, Report};
use ldp_ids::protocol::{AggregationServer, UserResponse};
use ldp_ids::CoreError;
use ldp_service::{
    Batch, ColumnarBatch, IngestService, RoundKey, ServiceConfig, SessionId, ShardAccumulator,
    ShardArena, ShardTally,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const ROUND: u64 = 5;

/// A response stream with reports, refusals, and stale traffic mixed in.
fn response_stream(kind: FoKind, eps: f64, d: usize, n: usize, seed: u64) -> Vec<UserResponse> {
    let oracle = build_oracle(kind, eps, d).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| match rng.gen_range(0..10) {
            0 => UserResponse::Refused {
                round: ROUND,
                requested: 1.0,
                available: 0.0,
            },
            1 => UserResponse::Report {
                round: ROUND + 1 + rng.gen_range(0..3u64),
                report: oracle.perturb(rng.gen_range(0..d), &mut rng),
            },
            2 => UserResponse::Refused {
                round: ROUND + 7,
                requested: 1.0,
                available: 0.0,
            },
            _ => UserResponse::Report {
                round: ROUND,
                report: oracle.perturb(rng.gen_range(0..d), &mut rng),
            },
        })
        .collect()
}

fn key() -> RoundKey {
    RoundKey {
        session: SessionId::from_raw(1),
        round: ROUND,
    }
}

/// The reference: the sequential server, advanced to round `ROUND` and
/// fed `responses` one at a time. Returns its view of the round in the
/// shape of a shard's — (estimate bits, reporters, refusals, stale).
fn sequential(oracle: &OracleHandle, responses: &[UserResponse]) -> (Vec<u64>, u64, u64, u64) {
    let mut server = AggregationServer::new();
    for _ in 0..ROUND {
        server.open_round(0, oracle.kind(), 1.0, oracle.clone());
        server.close_round().unwrap();
    }
    server.open_round(0, oracle.kind(), 1.0, oracle.clone());
    let mut stale = 0;
    for response in responses {
        match server.submit(response) {
            Ok(()) => {}
            Err(CoreError::StaleRound { .. }) => stale += 1,
            Err(e) => panic!("sequential server rejected {response:?}: {e}"),
        }
    }
    let estimate = server.close_round().unwrap();
    let bits = estimate.frequencies.iter().map(|f| f.to_bits()).collect();
    (bits, estimate.reporters, server.refusals(), stale)
}

/// A shard tally in the same shape.
fn columnar(oracle: &OracleHandle, tally: &ShardTally) -> (Vec<u64>, u64, u64, u64) {
    let estimate = oracle.estimate(&tally.support, tally.reporters);
    let bits = estimate.iter().map(|f| f.to_bits()).collect();
    (bits, tally.reporters, tally.refusals, tally.stale)
}

proptest! {
    /// `fold_columns` over arbitrary batch boundaries equals the
    /// sequential per-response fold, field for field, with stale and
    /// refused responses interleaved.
    #[test]
    fn fold_columns_matches_fold_through_interleavings(
        kind_idx in 0usize..3,
        eps in 0.2f64..4.0,
        d in 2usize..130,
        n in 0usize..250,
        batch_size in 1usize..64,
        seed in 0u64..1_000,
    ) {
        let kind = [FoKind::Grr, FoKind::Oue, FoKind::Olh][kind_idx];
        let oracle = build_oracle(kind, eps, d).unwrap();
        let responses = response_stream(kind, eps, d, n, seed);

        let mut shard = ShardAccumulator::new(key(), oracle.clone());
        for chunk in responses.chunks(batch_size) {
            let batch = ColumnarBatch::encode(kind, d, ROUND, chunk);
            shard.fold_columns(&batch);
        }

        prop_assert_eq!(sequential(&oracle, &responses), columnar(&oracle, shard.tally()));
    }

    /// The same stream through a whole `ShardArena` (the worker-side
    /// and replay-side state) still matches the sequential fold.
    #[test]
    fn arena_ingest_matches_fold(
        kind_idx in 0usize..3,
        eps in 0.2f64..4.0,
        d in 2usize..100,
        n in 1usize..200,
        batch_size in 1usize..50,
        seed in 0u64..1_000,
    ) {
        let kind = [FoKind::Grr, FoKind::Oue, FoKind::Olh][kind_idx];
        let oracle = build_oracle(kind, eps, d).unwrap();
        let responses = response_stream(kind, eps, d, n, seed);

        let mut arena = ShardArena::new();
        for chunk in responses.chunks(batch_size) {
            arena.ingest(Batch::encode(key(), &oracle, chunk.to_vec()));
        }

        prop_assert_eq!(sequential(&oracle, &responses), columnar(&oracle, &arena.close(key(), d)));
    }
}

/// The acceptance pin: the sharded service's estimates are bit-identical
/// to the sequential `AggregationServer` at 1, 2, 4 and 8 shards, for
/// every oracle, from a half-word OUE domain to d = 1024 (16 OUE words;
/// n shrinks there so OLH's d hashes per report stay cheap).
#[test]
fn service_estimates_bit_identical_to_sequential_server() {
    let eps = 1.0;
    for (d, n) in [(32, 4_000), (67, 4_000), (128, 4_000), (1024, 1_000)] {
        for kind in [FoKind::Grr, FoKind::Oue, FoKind::Olh] {
            let oracle = build_oracle(kind, eps, d).unwrap();
            let mut rng = StdRng::seed_from_u64(0xc01_u64 + kind as u64 + d as u64);
            let reports: Vec<Report> = (0..n)
                .map(|_| oracle.perturb(rng.gen_range(0..d), &mut rng))
                .collect();

            // Sequential reference.
            let mut server = AggregationServer::new();
            let request = server.open_round(0, kind, eps, oracle.clone());
            for report in &reports {
                server
                    .submit(&UserResponse::Report {
                        round: request.round,
                        report: report.clone(),
                    })
                    .unwrap();
            }
            let reference = server.close_round().unwrap();

            for shards in [1usize, 2, 4, 8] {
                let service = Arc::new(IngestService::new(
                    ServiceConfig::with_threads(shards).with_batch_size(64),
                ));
                let session = service.create_session().unwrap();
                let req = service.open_round(session, 0, kind, eps, d).unwrap();
                let responses: Vec<UserResponse> = reports
                    .iter()
                    .map(|report| UserResponse::Report {
                        round: req.round,
                        report: report.clone(),
                    })
                    .collect();
                service.submit_batch(session, responses).unwrap();
                let estimate = service.close_round(session).unwrap();
                assert_eq!(estimate.reporters, reference.reporters);
                assert_eq!(
                    estimate.frequencies.len(),
                    reference.frequencies.len(),
                    "{kind:?} d={d} x{shards}"
                );
                for (a, b) in estimate.frequencies.iter().zip(&reference.frequencies) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{kind:?} d={d} x{shards}: {a} != {b}"
                    );
                }
                service.end_session(session).unwrap();
            }
        }
    }
}
