//! The crash matrix: kill the service at every instrumented point, in
//! the middle of a scripted multi-round ingest, then restart and resume
//! like a real client would — and require the estimates of every round
//! to be **bit-identical** to an uninterrupted run, at 1, 2, and 8
//! shards.
//!
//! Run with `cargo test -p ldp_service --features faults`.
//!
//! Every cell runs twice: with the script's report deltas submitted as
//! rows (`submit_batch_at`) and as the bytes a `SubmitBatch` frame
//! carries them in (`submit_encoded_at`) — the two entries share the
//! log, the kill points and the recovery, and must recover alike.
//!
//! A "crash" is a panic with a [`FaultCrash`] payload thrown from inside
//! the service (see [`ldp_service::faults`]); the driver catches it,
//! drops the half-dead service (worker threads and all), reopens the
//! durability directory, and **retries the failed step** through the
//! sequence-numbered idempotent API — exactly the protocol a real
//! client with a lost ack follows.

#![cfg(feature = "faults")]

use ldp_fo::{FoKind, Report};
use ldp_ids::collector::RoundEstimate;
use ldp_ids::protocol::UserResponse;
use ldp_ids::CoreError;
use ldp_service::codec::EncodedResponses;
use ldp_service::faults::{self, FaultCrash};
use ldp_service::{IngestService, ServiceConfig, ServiceMetrics, SessionId, WalSync};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const DOMAIN: usize = 4;
const EPSILON: f64 = 1.0;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldp_faults_it_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One client-visible step of the scripted workload.
#[derive(Debug, Clone)]
enum Step {
    Create,
    Open {
        round: u64,
        t: u64,
    },
    Chunk {
        round: u64,
        seq: u64,
        responses: Vec<UserResponse>,
    },
    Close {
        round: u64,
    },
}

/// Which of the service's two sequenced submit entries takes the deltas.
#[derive(Debug, Clone, Copy)]
enum Entry {
    Rows,
    Bytes,
}

const ENTRIES: [Entry; 2] = [Entry::Rows, Entry::Bytes];

/// Submit `responses` as delta `seq` of `round` through `entry`.
fn submit(svc: &IngestService, entry: Entry, round: u64, seq: u64, responses: &[UserResponse]) {
    let session = SessionId::from_raw(0);
    match entry {
        Entry::Rows => svc
            .submit_batch_at(session, seq, responses.to_vec())
            .expect("submit delta"),
        Entry::Bytes => {
            let next = svc
                .submit_encoded_at(session, round, seq, &EncodedResponses::encode(responses))
                .expect("submit encoded delta");
            assert!(next > seq, "acknowledged delta {seq}, next is {next}");
        }
    }
}

/// Deterministic mixed responses for `round` (reports + refusals).
fn chunk(round: u64, offset: usize, n: usize) -> Vec<UserResponse> {
    (offset..offset + n)
        .map(|i| {
            if i % 11 == 10 {
                UserResponse::Refused {
                    round,
                    requested: 1.0,
                    available: 0.0,
                }
            } else {
                UserResponse::Report {
                    round,
                    report: Report::Grr((i as u32 * 7 + round as u32) % DOMAIN as u32),
                }
            }
        })
        .collect()
}

/// The workload every matrix cell runs: two rounds, five report deltas,
/// two closes — 10 WAL records, enough to land any kill point on every
/// record class.
fn script() -> Vec<Step> {
    vec![
        Step::Create,
        Step::Open { round: 0, t: 0 },
        Step::Chunk {
            round: 0,
            seq: 0,
            responses: chunk(0, 0, 50),
        },
        Step::Chunk {
            round: 0,
            seq: 1,
            responses: chunk(0, 50, 64),
        },
        Step::Chunk {
            round: 0,
            seq: 2,
            responses: chunk(0, 114, 37),
        },
        Step::Close { round: 0 },
        Step::Open { round: 1, t: 1 },
        Step::Chunk {
            round: 1,
            seq: 3,
            responses: chunk(1, 0, 30),
        },
        Step::Chunk {
            round: 1,
            seq: 4,
            responses: chunk(1, 30, 45),
        },
        Step::Close { round: 1 },
    ]
}

/// Apply one step, returning the estimate for closes. Idempotent under
/// retry: `Create` probes whether the session already exists, the other
/// steps go through the sequence-numbered `*_at` API, deltas by `entry`.
fn apply_step(svc: &IngestService, entry: Entry, step: &Step) -> Option<RoundEstimate> {
    let session = SessionId::from_raw(0);
    match step {
        Step::Create => {
            if svc.refusals(session).is_err() {
                let id = svc.create_session().expect("create session");
                assert_eq!(id, session, "scripts run on a fresh directory");
            }
            None
        }
        Step::Open { round, t } => {
            svc.open_round_at(session, *round, *t, FoKind::Grr, EPSILON, DOMAIN)
                .expect("open round");
            None
        }
        Step::Chunk {
            round,
            seq,
            responses,
        } => {
            submit(svc, entry, *round, *seq, responses);
            None
        }
        Step::Close { round } => Some(svc.close_round_at(session, *round).expect("close round")),
    }
}

/// Run the script against a durable service in `dir`, with `arm`
/// optionally set to a kill point + 1-based hit count. On the simulated
/// crash: drop the service, reopen the directory, retry the failed
/// step. Returns the close estimates and whether a crash fired.
fn run_script(
    dir: &Path,
    config: ServiceConfig,
    entry: Entry,
    arm: Option<(&'static str, u64)>,
) -> (Vec<RoundEstimate>, bool) {
    faults::reset();
    // One set of metric handles held across every restart, as a tenant's
    // registry scope is.
    let metrics = ServiceMetrics::standalone();
    let mut svc =
        IngestService::open_observed(config, dir, metrics.clone()).expect("open durable service");
    if let Some((point, nth)) = arm {
        faults::arm(point, nth);
    }
    let steps = script();
    let mut estimates = Vec::new();
    let mut crashed = false;
    let mut i = 0;
    while i < steps.len() {
        let counted = metrics.reports.get();
        match catch_unwind(AssertUnwindSafe(|| apply_step(&svc, entry, &steps[i]))) {
            Ok(done) => {
                estimates.extend(done);
                i += 1;
            }
            Err(payload) => {
                let crash = payload
                    .downcast_ref::<FaultCrash>()
                    .unwrap_or_else(|| panic!("non-fault panic at step {i}: {:?}", steps[i]));
                assert!(!crashed, "one crash per run: second at {}", crash.point);
                crashed = true;
                if crash.point == "wal.before_append" {
                    // Never logged means never accepted: the retry below
                    // is what counts the delta, once.
                    assert_eq!(
                        metrics.reports.get(),
                        counted,
                        "step {i} was counted without reaching the WAL"
                    );
                }
                // The "restart": disarm, drop the dead service, reopen
                // the directory, and retry the very step that failed.
                faults::reset();
                drop(svc);
                svc = IngestService::open_observed(config, dir, metrics.clone())
                    .expect("reopen after crash");
            }
        }
    }
    faults::reset();
    (estimates, crashed)
}

fn assert_bit_identical(a: &RoundEstimate, b: &RoundEstimate, what: &str) {
    assert_eq!(a.reporters, b.reporters, "{what}: reporters differ");
    let abits: Vec<u64> = a.frequencies.iter().map(|f| f.to_bits()).collect();
    let bbits: Vec<u64> = b.frequencies.iter().map(|f| f.to_bits()).collect();
    assert_eq!(abits, bbits, "{what}: frequencies differ");
}

/// The sync levels the matrix runs under: every-frame fsync, so kill
/// points sit at durable boundaries, and the default `Batch`, whose
/// flusher the crash leaves running until the half-dead service drops.
/// A simulated crash keeps the page cache, so both recover everything.
const SYNCS: [WalSync; 2] = [WalSync::Always, WalSync::Batch];

fn config(shards: usize, sync: WalSync) -> ServiceConfig {
    ServiceConfig::with_threads(shards)
        .with_batch_size(16)
        // Small cadence so the script crosses snapshot rotations.
        .with_snapshot_every(4)
        .with_sync(sync)
}

/// The full matrix: every kill point × several hit positions × every
/// pinned shard count × both fsyncing levels. Each cell must (a)
/// actually fire, (b) recover, and (c) finish with estimates
/// bit-identical to the uninterrupted reference.
#[test]
fn every_kill_point_recovers_bit_identically() {
    let _gate = faults::serialize_tests();

    // Hit positions chosen per point so each lands on a different record
    // class of the 10-record script (create/open/delta/close).
    let cells: &[(&'static str, &[u64])] = &[
        ("wal.before_append", &[1, 3, 6, 10]),
        ("wal.after_append", &[1, 3, 6, 10]),
        ("wal.torn_append", &[3, 6]),
        ("service.mid_batch", &[1, 3, 5]),
        ("service.before_close", &[1, 2]),
        ("service.after_close", &[1, 2]),
        ("snapshot.before_rename", &[1, 2]),
        ("snapshot.after_rename", &[1, 2]),
    ];

    for (shards, sync) in SHARD_COUNTS.into_iter().flat_map(|n| SYNCS.map(|s| (n, s))) {
        let cfg = config(shards, sync);
        let at = format!("{shards} shards, {}", sync.name());

        let ref_dir = tmp_dir(&format!("ref_{shards}_{}", sync.name()));
        let (reference, crashed) = run_script(&ref_dir, cfg, Entry::Rows, None);
        assert!(!crashed);
        assert_eq!(reference.len(), 2, "script closes two rounds");
        let _ = std::fs::remove_dir_all(&ref_dir);

        for entry in ENTRIES {
            for (point, nths) in cells {
                for &nth in *nths {
                    let dir = tmp_dir(&format!("{}_{nth}_{shards}", point.replace('.', "_")));
                    let (estimates, crashed) = run_script(&dir, cfg, entry, Some((point, nth)));
                    let what = format!("{point} hit {nth}, {at}, {entry:?}");
                    assert!(crashed, "{what}: never fired");
                    assert_eq!(estimates.len(), reference.len());
                    for (round, (got, want)) in estimates.iter().zip(&reference).enumerate() {
                        assert_bit_identical(got, want, &format!("{what}, round {round}"));
                    }
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
        }
    }
}

/// A torn append leaves a half-written frame on disk; the reopened
/// service must report the corrupt tail as a typed error and recover to
/// the last complete record.
#[test]
fn torn_append_surfaces_a_typed_corrupt_tail() {
    let _gate = faults::serialize_tests();
    faults::reset();
    let dir = tmp_dir("torn_report");
    let cfg = ServiceConfig::with_threads(2)
        .with_batch_size(16)
        .with_snapshot_every(0) // no rotation: the torn tail must survive to reopen
        .with_sync(WalSync::Always);

    let svc = IngestService::open(cfg, &dir).unwrap();
    let session = svc.create_session().unwrap();
    svc.open_round_at(session, 0, 0, FoKind::Grr, EPSILON, DOMAIN)
        .unwrap();
    svc.submit_batch_at(session, 0, chunk(0, 0, 20)).unwrap();
    faults::arm("wal.torn_append", 1);
    let crash = catch_unwind(AssertUnwindSafe(|| {
        svc.submit_batch_at(session, 1, chunk(0, 20, 20))
    }))
    .unwrap_err();
    assert!(crash.downcast_ref::<FaultCrash>().is_some());
    faults::reset();
    drop(svc);

    let svc = IngestService::open(cfg, &dir).unwrap();
    let report = svc.recovery_report().unwrap();
    assert!(
        report.corrupt_tail.is_some(),
        "half-written frame must be reported: {report:?}"
    );
    // The torn delta was never acknowledged; the client retries it with
    // the same sequence number and the round finishes exactly.
    svc.submit_batch_at(session, 1, chunk(0, 20, 20)).unwrap();
    let estimate = svc.close_round_at(session, 0).unwrap();
    assert_eq!(estimate.reporters, 37); // 40 responses minus 3 refusals
    assert_eq!(svc.refusals(session).unwrap(), 3);
    faults::reset();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crashing between WAL append and tally dispatch must not lose or
/// double-count the delta: the WAL already owns it, so the retry is
/// acknowledged as a duplicate.
#[test]
fn mid_batch_crash_neither_loses_nor_doubles_the_delta() {
    let _gate = faults::serialize_tests();
    for entry in ENTRIES {
        faults::reset();
        let dir = tmp_dir("mid_batch_exact");
        let cfg = config(2, WalSync::Always);

        let svc = IngestService::open(cfg, &dir).unwrap();
        let session = svc.create_session().unwrap();
        svc.open_round_at(session, 0, 0, FoKind::Grr, EPSILON, DOMAIN)
            .unwrap();
        faults::arm("service.mid_batch", 1);
        let crash = catch_unwind(AssertUnwindSafe(|| {
            submit(&svc, entry, 0, 0, &chunk(0, 0, 33))
        }))
        .unwrap_err();
        assert!(crash.downcast_ref::<FaultCrash>().is_some(), "{entry:?}");
        faults::reset();
        drop(svc);

        let svc = IngestService::open(cfg, &dir).unwrap();
        // Retry of the unacknowledged delta: already on the WAL → no-op ack.
        submit(&svc, entry, 0, 0, &chunk(0, 0, 33));
        assert_eq!(svc.next_seq(session).unwrap(), 1, "{entry:?}");
        let estimate = svc.close_round_at(session, 0).unwrap();
        assert_eq!(
            estimate.reporters, 30,
            "{entry:?}: 33 responses minus 3 refusals"
        );
        faults::reset();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A failed fsync is never acknowledged: once the `Batch` flusher's sync
/// fails, the next submit and the next close return `CoreError::Wal`, and
/// so do their retries.
#[test]
fn a_failed_flusher_sync_fails_the_next_acks() {
    let _gate = faults::serialize_tests();
    faults::reset();
    let dir = tmp_dir("fsync_fails");
    let cfg = ServiceConfig::with_threads(1)
        .with_batch_size(16)
        .with_snapshot_every(0) // no rotation: the failed generation stays
        .with_sync(WalSync::Batch);
    let svc = IngestService::open(cfg, &dir).unwrap();
    let session = svc.create_session().unwrap();
    svc.open_round_at(session, 0, 0, FoKind::Grr, EPSILON, DOMAIN)
        .unwrap();
    let syncs = svc.wal_stats().unwrap().syncs;
    faults::arm("wal.fsync_fails", 1);
    let wal_failure = |result: Result<_, CoreError>, what: &str| match result {
        Err(CoreError::Wal { detail }) => assert!(detail.contains("injected"), "{what}: {detail}"),
        other => panic!("{what}: {other:?}"),
    };
    // Fifteen report frames leave the flusher parked, and no report
    // waits on a record while fewer than a batch exist: no sync yet.
    for seq in 0..15 {
        svc.submit_batch_at(session, seq, chunk(0, seq as usize, 1))
            .unwrap();
    }
    assert_eq!(svc.wal_stats().unwrap().syncs, syncs);
    // The sixteenth wakes the flusher; its ack may race the failure.
    match svc.submit_batch_at(session, 15, chunk(0, 15, 1)) {
        Ok(()) => {}
        failed => wal_failure(failed, "delta 15"),
    }
    let start = std::time::Instant::now();
    while svc.wal_stats().unwrap().syncs == syncs {
        assert!(start.elapsed().as_secs() < 10, "the flusher never synced");
        std::thread::yield_now();
    }
    wal_failure(
        svc.submit_batch_at(session, 16, chunk(0, 16, 1)),
        "next submit",
    );
    wal_failure(svc.close_round_at(session, 0).map(drop), "next close");
    // Their retries were applied and logged; acking them now would ack
    // what the failed fsync did not make durable.
    wal_failure(
        svc.submit_batch_at(session, 16, chunk(0, 16, 1)),
        "retried submit",
    );
    wal_failure(svc.close_round_at(session, 0).map(drop), "retried close");
    faults::reset();
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}
