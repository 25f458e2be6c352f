//! Shard/sequential equivalence: the parallel ingestion service must be
//! a drop-in replacement for the in-process `AggregationServer`.
//!
//! Support-count folding is commutative integer addition and every
//! device perturbs from its own seeded stream, whichever thread answers
//! for it, so the sharded service is required to produce
//! **bit-identical** support counts and estimates to the sequential path
//! — at any shard count, any batch size, and any partition of the
//! response stream. These property tests pin that guarantee at three
//! levels: raw shard accumulators, the ingestion service, and a full
//! protocol collector, whose rounds larger than one batch are answered in
//! lanes.
//!
//! The deterministic tests after them run the paper's adaptive
//! mechanisms through the batching [`ParallelCollector`] and check what
//! must survive batching and lanes: the devices' w-event invariant,
//! refusal accounting — a refusal in the last lane or in lane 0, a step
//! with no collect — and, durably, at most one partial WAL record per
//! lane and a closed round that survives a crash bit for bit.

use ldp_fo::{build_oracle, FoKind, OracleHandle};
use ldp_ids::collector::{ReportScope, RoundCollector, RoundEstimate};
use ldp_ids::protocol::{AggregationServer, ClientCollector, UserResponse};
use ldp_ids::runner::run_with_collector;
use ldp_ids::{CoreError, MechanismConfig, MechanismKind};
use ldp_service::{
    recovery, wal, ColumnarBatch, IngestService, ParallelCollector, RoundKey, ServiceConfig,
    SessionId, ShardAccumulator, ShardTally, WalRecord,
};
use ldp_stream::source::{ConstantSource, ReplaySource};
use ldp_stream::TrueHistogram;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
        whole.fold_columns(&ColumnarBatch::encode(oracle.kind(), domain, 0, &responses));
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
                accumulator.fold_columns(&ColumnarBatch::encode(oracle.kind(), domain, 0, &partition));
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
        fresh_first in any::<bool>(),
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
                // With `fresh_first` the Fresh round starts the timestamp,
                // in lanes when it is larger than one batch.
                let mut rounds = [
                    (ReportScope::All, epsilon / 8.0),
                    (ReportScope::Fresh(fresh), epsilon / 4.0),
                ];
                if fresh_first {
                    rounds.reverse();
                }
                collector.begin_step().unwrap();
                for (scope, round_epsilon) in rounds {
                    estimates.push(collector.collect(scope, round_epsilon).unwrap());
                }
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

/// `len` histograms of `population` users over `d` cells whose mass
/// swings towards cell 0 and back, so the adaptive mechanisms both
/// publish and approximate.
fn swinging_stream(population: u64, d: usize, len: usize, seed: u64) -> Vec<TrueHistogram> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|t| {
            let pull = if (t / 3) % 2 == 0 { 0.1 } else { 0.7 };
            let mut counts = vec![0u64; d];
            for _ in 0..population {
                let cell = if rng.gen::<f64>() < pull {
                    0
                } else {
                    rng.gen_range(0..d)
                };
                counts[cell] += 1;
            }
            TrueHistogram::new(counts)
        })
        .collect()
}

/// The w-event invariant, executable through the service: LBD, LBA, LPD
/// and LPA over 3·w timestamps release the sequential collector's bits
/// at every shard count and batch size (the population is a multiple of
/// none of them), no device refuses, and no device's own ledger ever
/// holds more than ε (plus its rounding tolerance) inside a window.
#[test]
fn w_event_invariant_holds_through_the_batched_service() {
    let (epsilon, w, d, population) = (1.0, 5usize, 4usize, 1_003u64);
    let (steps, seed) = (3 * w, 77);
    let tolerance = 1e-9 * f64::max(epsilon, 1.0);
    let config = MechanismConfig::new(epsilon, w, d, population);
    let stream = swinging_stream(population, d, steps, seed);
    let source = || Box::new(ReplaySource::new("swing", stream.clone()));

    for kind in [
        MechanismKind::Lbd,
        MechanismKind::Lba,
        MechanismKind::Lpd,
        MechanismKind::Lpa,
    ] {
        let mut sequential = ClientCollector::new(source(), &config, seed);
        let mut mechanism = kind.build(&config).unwrap();
        let expected = run_with_collector(mechanism.as_mut(), &mut sequential, steps).unwrap();
        assert!(expected.publications > 1, "{kind}: the stream never moved");

        for shards in SHARD_COUNTS {
            for batch_size in [1, 64, 4096] {
                let what = format!("{kind} at {shards} shards, batches of {batch_size}");
                let service = Arc::new(IngestService::new(
                    ServiceConfig::with_threads(shards).with_batch_size(batch_size),
                ));
                let mut parallel = ParallelCollector::new(source(), &config, seed, service);
                let mut mechanism = kind.build(&config).unwrap();
                let mut peak_spend = 0.0f64;
                for want in &expected.releases {
                    let run = run_with_collector(mechanism.as_mut(), &mut parallel, 1).unwrap();
                    let got = &run.releases[0];
                    assert_eq!((got.t, &got.kind), (want.t, &want.kind), "{what}");
                    let bits = |f: &[f64]| f.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got.frequencies),
                        bits(&want.frequencies),
                        "{what}: release {} differs",
                        want.t
                    );
                    let spend = parallel.max_window_spend();
                    assert!(
                        spend <= epsilon + tolerance,
                        "{what}: a device spent {spend} in one window at t = {}",
                        want.t
                    );
                    peak_spend = peak_spend.max(spend);
                }
                assert!(peak_spend > 0.0, "{what}: no device ever spent");
                assert_eq!(parallel.refusals(), 0, "{what}");
                assert_eq!(parallel.stats(), sequential.stats(), "{what}");
            }
        }
    }
}

/// The `ParallelCollector` twin of the driver's
/// `over_budget_schedule_is_refused_not_leaked`: the refusal sits in the
/// sink's buffer when the driver bails out, and must still be counted,
/// the round closed, and the next round opened normally.
#[test]
fn buffered_refusal_is_counted_and_the_round_closed() {
    let config = MechanismConfig::new(1.0, 2, 2, 1_000);
    let source = || Box::new(ConstantSource::new(TrueHistogram::new(vec![500, 500])));
    let mut sequential = ClientCollector::new(source(), &config, 101);
    let service = Arc::new(IngestService::new(
        ServiceConfig::with_threads(2).with_batch_size(64),
    ));
    let mut parallel = ParallelCollector::new(source(), &config, 101, service);

    for collector in [
        &mut sequential as &mut dyn RoundCollector,
        &mut parallel as &mut dyn RoundCollector,
    ] {
        // ε = 1 per window of 2; asking 0.8 twice in one step is a
        // broken schedule, refused by the first device asked.
        collector.begin_step().unwrap();
        collector.collect(ReportScope::All, 0.8).unwrap();
        let err = collector.collect(ReportScope::All, 0.8).unwrap_err();
        assert!(matches!(err, CoreError::ClientRefused { user: 0, .. }));
    }
    assert_eq!(parallel.refusals(), 1);
    assert_eq!(parallel.refusals(), sequential.refusals());

    // The window still holds 0.8 of everyone's ε = 1: 0.2 fits.
    parallel.begin_step().unwrap();
    let estimate = parallel.collect(ReportScope::All, 0.2).unwrap();
    assert_eq!(estimate.reporters, 1_000);
    assert_eq!(parallel.refusals(), 1);
}

/// On a durable service the sink's batching is what reaches the disk:
/// `Reports` records of at most `batch_size` responses, at most one
/// partial record per lane, not one record per response — and a round
/// the collector closed is recoverable from that log bit for bit after a
/// crash.
#[test]
fn durable_collector_logs_one_record_per_batch_and_survives_a_crash() {
    let root = std::env::temp_dir().join(format!("ldp_parallel_it_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (live, image) = (root.join("live"), root.join("image"));
    let (batch_size, lanes) = (64, 2);
    let sizing = ServiceConfig::with_threads(lanes)
        .with_batch_size(batch_size)
        .with_snapshot_every(0);
    let config = MechanismConfig::new(1.0, 2, 2, 1_000);
    let source = Box::new(ConstantSource::new(TrueHistogram::new(vec![700, 300])));

    let service = Arc::new(IngestService::open(sizing, &live).unwrap());
    let mut collector = ParallelCollector::new(source, &config, 5, service);
    collector.begin_step().unwrap();
    let rounds = [
        collector.collect(ReportScope::All, 0.25).unwrap(),
        collector.collect(ReportScope::Fresh(130), 0.5).unwrap(),
    ];

    // A fresh directory starts at generation 1 and, with automatic
    // snapshots off, stays there.
    let log = wal::scan(&recovery::wal_path(&live, 1)).unwrap();
    assert!(log.corrupt_tail.is_none());
    for (round, estimate) in rounds.iter().enumerate() {
        let deltas: Vec<usize> = log
            .records
            .iter()
            .filter_map(|record| match record {
                WalRecord::Reports {
                    round: r,
                    responses,
                    ..
                } if *r == round as u64 => Some(responses.len()),
                _ => None,
            })
            .collect();
        assert_eq!(deltas.iter().sum::<usize>() as u64, estimate.reporters);
        assert!(deltas.iter().all(|&n| n <= batch_size), "{deltas:?}");
        // At most ⌈reporters ÷ batch_size⌉ + lanes − 1: one partial tail
        // per lane.
        assert!(
            deltas.len() < (estimate.reporters as usize).div_ceil(batch_size) + lanes,
            "round {round}: {deltas:?}"
        );
    }

    // The crash: what is on disk now, mid-stream, with no destructor run
    // (the sink's `Drop` would end its session; a crash does not).
    std::fs::create_dir_all(&image).unwrap();
    for entry in std::fs::read_dir(&live).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), image.join(entry.file_name())).unwrap();
    }
    let reopened = IngestService::open(sizing, &image).unwrap();
    let report = reopened.recovery_report().expect("durable service");
    assert_eq!((report.sessions, report.open_rounds), (1, 0));
    let replayed = reopened.close_round_at(SessionId::from_raw(0), 1).unwrap();
    assert_bit_identical(&replayed, &rounds[1], "closed round after the crash");

    drop(collector);
    let _ = std::fs::remove_dir_all(&root);
}

/// Rounds of `population` devices split into two lanes of half each.
const LANES: usize = 2;

fn lane_service(threads: usize) -> Arc<IngestService> {
    Arc::new(IngestService::new(
        ServiceConfig::with_threads(threads).with_batch_size(64),
    ))
}

/// A refusal that only the last lane meets aborts the round exactly as
/// on the sequential collector: every lane before it answered in full,
/// and the last one stopped at the refusing device, so the error, the
/// refusal count, the traffic and every device's state — hence the next
/// step's estimate — are the sequential collector's.
#[test]
fn refusal_in_the_last_lane_matches_the_sequential_collector() {
    let (population, w) = (1_000u64, 2);
    let config = MechanismConfig::new(1.0, w, 2, population);
    let source = || Box::new(ConstantSource::new(TrueHistogram::new(vec![600, 400])));
    let last_lane = (population as usize).div_ceil(LANES) as u64;
    // A step's first round spends 0.8 on three sampled devices, so the
    // full round after it is refused first by the lowest of them: pick
    // the first seed whose three all sit in the last lane.
    let step = |collector: &mut dyn RoundCollector| {
        collector.begin_step().unwrap();
        collector.collect(ReportScope::Fresh(3), 0.8).unwrap();
        collector.collect(ReportScope::All, 0.5).unwrap_err()
    };
    let (seed, mut sequential, expected) = (0u64..)
        .find_map(|seed| {
            let mut sequential = ClientCollector::new(source(), &config, seed);
            let err = step(&mut sequential);
            let CoreError::ClientRefused { user, .. } = err else {
                panic!("seed {seed}: {err}");
            };
            (user >= last_lane).then_some((seed, sequential, err))
        })
        .unwrap();

    let mut parallel = ParallelCollector::new(source(), &config, seed, lane_service(LANES));
    assert_eq!(step(&mut parallel), expected, "seed {seed}");
    assert_eq!(parallel.refusals(), sequential.refusals());
    assert_eq!(parallel.refusals(), 1);
    assert_eq!(parallel.stats(), sequential.stats());

    // The window holds 0.8 or 0.5 of everyone's ε = 1: 0.2 fits.
    let next = |collector: &mut dyn RoundCollector| {
        collector.begin_step().unwrap();
        collector.collect(ReportScope::All, 0.2).unwrap()
    };
    let want = next(&mut sequential);
    assert_bit_identical(&next(&mut parallel), &want, "the step after the refusal");
    assert_eq!(parallel.stats(), sequential.stats());
}

/// A full round that is the first of its step starts the timestamp on
/// every device inside its lanes. When lane 0's first device refuses it,
/// lane 0 answers nothing more but still starts the timestamp on the
/// rest of its devices, as every other lane does on its own: the next
/// step's full round is the sequential collector's, bit for bit.
#[test]
fn refusal_in_lane_zero_still_observes_every_device() {
    let (population, w) = (1_000u64, 2);
    let config = MechanismConfig::new(1.0, w, 2, population);
    let source = || Box::new(ConstantSource::new(TrueHistogram::new(vec![300, 700])));
    let drive = |collector: &mut dyn RoundCollector| {
        collector.begin_step().unwrap();
        collector.collect(ReportScope::All, 0.8).unwrap();
        // 0.8 is still in every window: device 0 refuses first.
        collector.begin_step().unwrap();
        let err = collector.collect(ReportScope::All, 0.5).unwrap_err();
        assert!(
            matches!(err, CoreError::ClientRefused { user: 0, .. }),
            "{err}"
        );
        // Only the refused step is in the window now, and it spent nothing.
        collector.begin_step().unwrap();
        collector.collect(ReportScope::All, 1.0).unwrap()
    };
    let mut sequential = ClientCollector::new(source(), &config, 3);
    let want = drive(&mut sequential);
    for threads in SHARD_COUNTS {
        let mut parallel = ParallelCollector::new(source(), &config, 3, lane_service(threads));
        let got = drive(&mut parallel);
        assert_bit_identical(
            &got,
            &want,
            &format!("after the refusal at {threads} lanes"),
        );
        assert_eq!(parallel.stats(), sequential.stats());
        assert_eq!(parallel.refusals(), sequential.refusals());
        assert_eq!(
            parallel.max_window_spend().to_bits(),
            sequential.max_window_spend().to_bits()
        );
    }
}

/// A step that takes no collect still closes on every device: two
/// `begin_step`s in a row, then a full round that only fits if the
/// skipped step was closed. The round and the devices' window spends —
/// read before that round as well as after it — are the sequential
/// collector's.
#[test]
fn a_step_without_collect_is_observed() {
    let (population, w) = (1_000u64, 2);
    let config = MechanismConfig::new(1.0, w, 2, population);
    let source = || Box::new(ConstantSource::new(TrueHistogram::new(vec![450, 550])));
    let skip_a_step = |collector: &mut dyn RoundCollector| {
        collector.begin_step().unwrap();
        collector.collect(ReportScope::All, 0.8).unwrap();
        collector.begin_step().unwrap();
        collector.begin_step().unwrap();
    };
    let mut sequential = ClientCollector::new(source(), &config, 11);
    skip_a_step(&mut sequential);
    let want_before = sequential.max_window_spend();
    let want = sequential.collect(ReportScope::All, 1.0).unwrap();
    let want_after = sequential.max_window_spend();
    assert_eq!((want_before, want_after), (0.0, 1.0));

    for threads in SHARD_COUNTS {
        for read_before in [false, true] {
            let what = format!("{threads} lanes, spend read before the round: {read_before}");
            let mut parallel = ParallelCollector::new(source(), &config, 11, lane_service(threads));
            skip_a_step(&mut parallel);
            if read_before {
                let before = parallel.max_window_spend();
                assert_eq!(before.to_bits(), want_before.to_bits(), "{what}");
            }
            let got = parallel.collect(ReportScope::All, 1.0).unwrap();
            assert_bit_identical(&got, &want, &what);
            assert_eq!(
                parallel.max_window_spend().to_bits(),
                want_after.to_bits(),
                "{what}"
            );
            assert_eq!(parallel.stats(), sequential.stats(), "{what}");
        }
    }
}
