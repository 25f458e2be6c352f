//! Shard/sequential equivalence: the parallel ingestion service must be
//! a drop-in replacement for the in-process `AggregationServer`.
//!
//! Support-count folding is commutative integer addition and client
//! perturbation stays on the driving thread, so the sharded service is
//! required to produce **bit-identical** support counts and estimates to
//! the sequential path — at any shard count, any batch size, and any
//! partition of the response stream. These property tests pin that
//! guarantee at three levels: raw shard accumulators, the ingestion
//! service, and a full protocol collector.

use ldp_fo::{build_oracle, FoKind, OracleHandle};
use ldp_ids::collector::{ReportScope, RoundCollector, RoundEstimate};
use ldp_ids::protocol::{AggregationServer, ClientCollector, UserResponse};
use ldp_ids::MechanismConfig;
use ldp_service::{
    ColumnarBatch, IngestService, ParallelCollector, RoundKey, ServiceConfig, SessionId,
    ShardAccumulator, ShardTally,
};
use ldp_stream::source::ConstantSource;
use ldp_stream::TrueHistogram;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Shard counts the satellite spec pins: degenerate, small, and wide.
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

fn assert_bit_identical(a: &RoundEstimate, b: &RoundEstimate, what: &str) {
    assert_eq!(a.reporters, b.reporters, "{what}: reporters differ");
    assert_eq!(
        a.frequencies.len(),
        b.frequencies.len(),
        "{what}: domain sizes differ"
    );
    for (i, (x, y)) in a.frequencies.iter().zip(&b.frequencies).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: cell {i} differs ({x} vs {y})"
        );
    }
}

/// A seeded, mixed response stream: perturbed reports with a sprinkle of
/// refusals, exactly what an aggregation backend sees on the wire.
fn seeded_responses(oracle: &OracleHandle, values: &[u32], seed: u64) -> Vec<UserResponse> {
    let mut rng = StdRng::seed_from_u64(seed);
    values
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            if i % 11 == 10 {
                UserResponse::Refused {
                    round: 0,
                    requested: 1.0,
                    available: 0.0,
                }
            } else {
                UserResponse::Report {
                    round: 0,
                    report: oracle.perturb(v as usize % oracle.domain_size(), &mut rng),
                }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Level 1 + 2: for the same response set, (a) round-robin
    /// partitioning over 1/2/8 `ShardAccumulator`s merges to the exact
    /// sequential support counts, and (b) the `IngestService` at 1/2/8
    /// worker threads closes to the bit-identical `AggregationServer`
    /// estimate.
    #[test]
    fn service_matches_sequential_server(
        values in proptest::collection::vec(0u32..6, 1..300),
        domain in 2usize..=6,
        seed in any::<u64>(),
        batch_size in 1usize..=96,
        fo in proptest::sample::select(&FoKind::ALL),
    ) {
        let epsilon = 1.0;
        let oracle = build_oracle(fo, epsilon, domain).unwrap();
        let responses = seeded_responses(&oracle, &values, seed);

        // Sequential reference: the in-process server.
        let mut server = AggregationServer::new();
        server.open_round(0, fo, epsilon, oracle.clone());
        for response in &responses {
            server.submit(response).unwrap();
        }
        let sequential = server.close_round().unwrap();

        // Reference support counts from one shard folding everything as
        // one batch.
        let key = RoundKey { session: SessionId::from_raw(0), round: 0 };
        let mut whole = ShardAccumulator::new(key, oracle.clone());
        whole.fold_columns(&ColumnarBatch::encode(oracle.kind(), domain, 0, responses.clone()));
        let reference = whole.into_tally();
        prop_assert_eq!(
            oracle.estimate(&reference.support, reference.reporters).iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            sequential.frequencies.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        );
        prop_assert_eq!(reference.refusals, server.refusals());

        for shards in SHARD_COUNTS {
            // (a) Raw shard accumulators over a round-robin partition.
            let mut partitions = vec![Vec::new(); shards];
            for (i, response) in responses.iter().enumerate() {
                partitions[i % shards].push(response.clone());
            }
            let mut merged = ShardTally::empty(domain);
            for partition in partitions {
                let mut accumulator = ShardAccumulator::new(key, oracle.clone());
                accumulator.fold_columns(&ColumnarBatch::encode(oracle.kind(), domain, 0, partition));
                merged.merge(&accumulator.into_tally());
            }
            prop_assert_eq!(&merged.support, &reference.support, "support counts at {} shards", shards);
            prop_assert_eq!(merged.reporters, reference.reporters);
            prop_assert_eq!(merged.refusals, reference.refusals);

            // (b) The full service: worker pool, batching, channels.
            let service = IngestService::new(
                ServiceConfig::with_threads(shards).with_batch_size(batch_size),
            );
            let session = service.create_session().unwrap();
            service.open_round(session, 0, fo, epsilon, domain).unwrap();
            for response in &responses {
                service.submit(session, response.clone()).unwrap();
            }
            let parallel = service.close_round(session).unwrap();
            assert_bit_identical(&parallel, &sequential, &format!("service at {shards} threads"));
            prop_assert_eq!(service.refusals(session).unwrap(), reference.refusals);
        }
    }

    /// Level 3: a full protocol collector — group selection, per-device
    /// perturbation, multi-round lifecycle — driven over the sharded
    /// service agrees bit-for-bit with the sequential `ClientCollector`
    /// at every shard count.
    #[test]
    fn parallel_collector_matches_client_collector(
        counts in proptest::collection::vec(20u64..80, 2..=5),
        seed in any::<u64>(),
        batch_size in 1usize..=64,
        fo in proptest::sample::select(&FoKind::ALL),
    ) {
        let epsilon = 1.0;
        let population: u64 = counts.iter().sum();
        let fresh = population / 4;
        let steps = 3;

        let drive = |collector: &mut dyn RoundCollector| -> Vec<RoundEstimate> {
            let mut estimates = Vec::new();
            for _ in 0..steps {
                // Per-round budgets sized so any w=4 window stays under ε
                // (4·ε/8 from All rounds + ε/4 from one Fresh round).
                collector.begin_step().unwrap();
                estimates.push(collector.collect(ReportScope::All, epsilon / 8.0).unwrap());
                estimates.push(collector.collect(ReportScope::Fresh(fresh), epsilon / 4.0).unwrap());
            }
            estimates
        };

        let config = MechanismConfig::new(epsilon, 4, counts.len(), population).with_fo(fo);
        let source = || Box::new(ConstantSource::new(TrueHistogram::new(counts.clone())));

        let mut sequential = ClientCollector::new(source(), &config, seed);
        let expected = drive(&mut sequential);

        for shards in SHARD_COUNTS {
            let service = Arc::new(IngestService::new(
                ServiceConfig::with_threads(shards).with_batch_size(batch_size),
            ));
            let mut parallel = ParallelCollector::new(source(), &config, seed, service);
            let estimates = drive(&mut parallel);
            prop_assert_eq!(estimates.len(), expected.len());
            for (round, (got, want)) in estimates.iter().zip(&expected).enumerate() {
                assert_bit_identical(got, want, &format!("round {round} at {shards} shards"));
            }
            prop_assert_eq!(parallel.stats(), sequential.stats());
            prop_assert_eq!(parallel.refusals(), sequential.refusals());
        }
    }
}
