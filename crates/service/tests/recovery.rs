//! Durable-service restarts without fault injection: a service dropped
//! mid-round (or cleanly) and reopened on the same directory must carry
//! on as if the interruption never happened — estimates bit-identical,
//! counters intact, WAL bounded by snapshot rotation, torn tails
//! tolerated.

use ldp_fo::{build_oracle, FoKind, Report};
use ldp_ids::collector::RoundEstimate;
use ldp_ids::protocol::UserResponse;
use ldp_service::{IngestService, ServiceConfig, ServiceMetrics, SessionId, WalSync};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

/// Shard counts the acceptance spec pins: degenerate, small, and wide.
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldp_recovery_it_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic mixed response stream (reports + the odd refusal).
fn responses(round: u64, n: usize, domain: u32) -> Vec<UserResponse> {
    (0..n)
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
                    report: Report::Grr((i as u32 * 7 + 3) % domain),
                }
            }
        })
        .collect()
}

fn assert_bit_identical(a: &RoundEstimate, b: &RoundEstimate, what: &str) {
    assert_eq!(a.reporters, b.reporters, "{what}: reporters differ");
    let abits: Vec<u64> = a.frequencies.iter().map(|f| f.to_bits()).collect();
    let bbits: Vec<u64> = b.frequencies.iter().map(|f| f.to_bits()).collect();
    assert_eq!(abits, bbits, "{what}: frequencies differ");
}

#[test]
fn restart_mid_round_is_bit_identical_at_every_shard_count() {
    let all = responses(0, 150, 4);
    for shards in SHARD_COUNTS {
        let config = ServiceConfig::with_threads(shards)
            .with_batch_size(16)
            .with_snapshot_every(8);

        // Uninterrupted reference: same responses through an in-memory
        // service of the same shape.
        let reference_svc = IngestService::new(config);
        let session = reference_svc.create_session().unwrap();
        reference_svc
            .open_round(session, 0, FoKind::Grr, 1.0, 4)
            .unwrap();
        reference_svc.submit_batch(session, all.clone()).unwrap();
        let reference = reference_svc.close_round(session).unwrap();

        // Interrupted run: drop the service mid-round, reopen, finish.
        let dir = tmp_dir(&format!("mid_round_{shards}"));
        let svc = IngestService::open(config, &dir).unwrap();
        let session = svc.create_session().unwrap();
        svc.open_round(session, 0, FoKind::Grr, 1.0, 4).unwrap();
        svc.submit_batch(session, all[..100].to_vec()).unwrap();
        drop(svc); // the "crash": no close, no clean shutdown record

        let svc = IngestService::open(config, &dir).unwrap();
        let report = svc.recovery_report().expect("durable service");
        assert_eq!(report.sessions, 1);
        assert_eq!(report.open_rounds, 1);
        assert!(report.corrupt_tail.is_none());
        svc.submit_batch(session, all[100..].to_vec()).unwrap();
        let recovered = svc.close_round(session).unwrap();

        assert_bit_identical(
            &recovered,
            &reference,
            &format!("recovered round at {shards} shards"),
        );
        assert_eq!(
            svc.refusals(session).unwrap(),
            reference_svc.refusals(session).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The volume of a replay is in the report and in the registry: the
/// responses folded back, and the WAL bytes they came from, next to
/// `ldp_replay_ns`. An open that finds no WAL counts nothing.
#[test]
fn replay_volume_is_reported_and_counted() {
    let dir = tmp_dir("replay_volume");
    let config = ServiceConfig::with_threads(2).with_batch_size(16);
    let metrics = ServiceMetrics::standalone();
    let svc = IngestService::open_observed(config, &dir, metrics.clone()).unwrap();
    let first = svc.recovery_report().unwrap();
    assert_eq!((first.reports_replayed, first.wal_bytes_read), (0, 0));
    let session = svc.create_session().unwrap();
    svc.open_round(session, 0, FoKind::Grr, 1.0, 4).unwrap();
    svc.submit_batch(session, responses(0, 70, 4)).unwrap();
    svc.submit_batch(session, responses(0, 30, 4)).unwrap();
    drop(svc);
    let wal_len = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap())
        .find(|entry| entry.file_name().to_str().unwrap().starts_with("wal-"))
        .map(|entry| entry.metadata().unwrap().len())
        .unwrap();

    let svc = IngestService::open_observed(config, &dir, metrics.clone()).unwrap();
    let report = svc.recovery_report().unwrap();
    assert_eq!(report.wal_records_replayed, 4);
    assert_eq!(report.reports_replayed, 100);
    assert_eq!(report.wal_bytes_read, wal_len);
    assert_eq!(metrics.replay_reports.get(), 100);
    assert_eq!(metrics.replay_bytes.get(), wal_len);
    assert_eq!(metrics.replay_ns.snapshot().count, 2);
    assert_eq!(svc.close_round(session).unwrap().reporters, 92);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_restart_preserves_closed_round_state() {
    let dir = tmp_dir("clean_restart");
    let config = ServiceConfig::with_threads(2).with_batch_size(8);
    let svc = IngestService::open(config, &dir).unwrap();
    let session = svc.create_session().unwrap();
    svc.open_round(session, 0, FoKind::Grr, 0.75, 3).unwrap();
    svc.submit_batch(session, responses(0, 60, 3)).unwrap();
    let estimate = svc.close_round(session).unwrap();
    let refusals = svc.refusals(session).unwrap();
    drop(svc);

    let svc = IngestService::open(config, &dir).unwrap();
    assert_eq!(svc.refusals(session).unwrap(), refusals);
    assert_eq!(svc.epsilon_spent(session).unwrap(), 0.75);
    // A client whose close ack was lost re-closes and gets the original
    // estimate back bit for bit.
    let replayed = svc.close_round_at(session, 0).unwrap();
    assert_bit_identical(&replayed, &estimate, "replayed close after restart");
    // The session continues where it left off.
    let req = svc.open_round(session, 1, FoKind::Grr, 0.25, 3).unwrap();
    assert_eq!(req.round, 1);
    svc.close_round(session).unwrap();
    assert_eq!(svc.epsilon_spent(session).unwrap(), 1.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_rotation_keeps_one_generation_and_bounds_replay() {
    let dir = tmp_dir("rotation");
    let config = ServiceConfig::with_threads(1)
        .with_batch_size(8)
        .with_snapshot_every(4);
    let svc = IngestService::open(config, &dir).unwrap();
    let session = svc.create_session().unwrap();
    for round in 0..6 {
        svc.open_round(session, round, FoKind::Grr, 0.1, 2).unwrap();
        svc.submit_batch(session, responses(round, 20, 2)).unwrap();
        svc.close_round(session).unwrap();
    }
    drop(svc);

    // Rotation deletes old generations: exactly one snapshot + one WAL.
    let mut snaps = 0;
    let mut wals = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if name.starts_with("snap-") {
            snaps += 1;
        } else if name.starts_with("wal-") {
            wals += 1;
        } else {
            panic!("unexpected file {name} in durability dir");
        }
    }
    assert_eq!((snaps, wals), (1, 1));

    let svc = IngestService::open(config, &dir).unwrap();
    let report = svc.recovery_report().unwrap();
    assert!(
        report.wal_records_replayed <= 4,
        "snapshot cadence bounds replay, got {}",
        report.wal_records_replayed
    );
    assert_eq!(svc.refusals(session).unwrap(), 6); // one refusal per round of 20
    let req = svc.open_round(session, 9, FoKind::Grr, 0.1, 2).unwrap();
    assert_eq!(req.round, 6, "round counter survived six closed rounds");
    svc.close_round(session).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_recovers_to_last_complete_record() {
    let dir = tmp_dir("torn_tail");
    let config = ServiceConfig::with_threads(2)
        .with_batch_size(64)
        .with_sync(WalSync::Always);
    let svc = IngestService::open(config, &dir).unwrap();
    let session = svc.create_session().unwrap();
    svc.open_round(session, 0, FoKind::Grr, 1.0, 4).unwrap();
    svc.submit_batch(session, responses(0, 40, 4)).unwrap();
    drop(svc);

    // Simulate a crash mid-write: garbage bytes after the last frame.
    let wal = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"))
        })
        .expect("a WAL file");
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
    f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
    drop(f);

    let svc = IngestService::open(config, &dir).unwrap();
    let report = svc.recovery_report().unwrap();
    // The torn tail is surfaced as a typed error, not a panic, and the
    // state up to the last complete record is intact.
    assert!(
        report.corrupt_tail.is_some(),
        "torn tail should be reported: {report:?}"
    );
    let estimate = svc.close_round(session).unwrap();
    assert_eq!(estimate.reporters, 37); // 40 minus 3 refusals (i%11==10)
    assert_eq!(svc.refusals(session).unwrap(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_sync_level_round_trips_a_restart() {
    for (i, sync) in [WalSync::None, WalSync::Batch, WalSync::Always]
        .into_iter()
        .enumerate()
    {
        let dir = tmp_dir(&format!("sync_{i}"));
        let config = ServiceConfig::with_threads(1)
            .with_batch_size(4)
            .with_sync(sync);
        let svc = IngestService::open(config, &dir).unwrap();
        let session = svc.create_session().unwrap();
        svc.open_round(session, 0, FoKind::Grr, 1.0, 2).unwrap();
        svc.submit_batch(session, responses(0, 15, 2)).unwrap();
        drop(svc);

        let svc = IngestService::open(config, &dir).unwrap();
        let estimate = svc.close_round(session).unwrap();
        assert_eq!(estimate.reporters, 14, "sync level {}", sync.name());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn sessions_created_after_recovery_get_fresh_ids() {
    let dir = tmp_dir("fresh_ids");
    let config = ServiceConfig::with_threads(1);
    let svc = IngestService::open(config, &dir).unwrap();
    let a = svc.create_session().unwrap();
    let b = svc.create_session().unwrap();
    svc.end_session(b).unwrap();
    drop(svc);

    let svc = IngestService::open(config, &dir).unwrap();
    assert_eq!(svc.recovery_report().unwrap().sessions, 1);
    // The ended session stays unknown; the id counter does not reuse ids.
    assert!(svc.refusals(b).is_err());
    let c = svc.create_session().unwrap();
    assert_eq!(c, SessionId::from_raw(2));
    assert!(svc.refusals(a).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reports no honest client of a `kind` round over `d` values sends: the
/// other oracles' payloads, and OUE vectors of the wrong length or with
/// too few or too many words for it.
fn malformed_reports(kind: FoKind, d: usize) -> Vec<Report> {
    let words = d.div_ceil(64);
    let mut reports = vec![
        Report::Oue {
            bits: vec![u64::MAX; words + 3],
            len: d as u32,
        },
        Report::Oue {
            bits: vec![u64::MAX; words],
            len: d as u32 + 1,
        },
        Report::Oue {
            bits: vec![u64::MAX; 1],
            len: 64,
        },
        Report::Oue {
            bits: vec![u64::MAX; words - 1],
            len: d as u32,
        },
        Report::Oue {
            bits: Vec::new(),
            len: d as u32,
        },
    ];
    if kind != FoKind::Grr {
        reports.push(Report::Grr(1));
        reports.push(Report::Grr(u32::MAX));
    }
    if kind != FoKind::Olh {
        reports.push(Report::Olh { seed: 7, bucket: 1 });
    }
    if kind != FoKind::Oue {
        reports.push(Report::Oue {
            bits: vec![0b101; words],
            len: d as u32,
        });
    }
    reports
}

/// Whatever the live service accepts, replay must accept: the lenient
/// column path takes wrong-kind and malformed reports in stride, and a
/// service reopened over a WAL that holds them — in a 50-response delta
/// and in single-response records — closes to the
/// never-crashed close field for field instead of tripping the scalar
/// oracle's debug assertions on the way up.
#[test]
fn malformed_reports_replay_to_the_never_crashed_close() {
    for kind in [FoKind::Grr, FoKind::Oue, FoKind::Olh] {
        let (eps, d) = (1.0, 70);
        let oracle = build_oracle(kind, eps, d).unwrap();
        let mut rng = StdRng::seed_from_u64(0xbad + kind as u64);
        let mut stream: Vec<UserResponse> = (0..89)
            .map(|_| oracle.perturb(rng.gen_range(0..d), &mut rng))
            .chain(malformed_reports(kind, d))
            .map(|report| UserResponse::Report { round: 0, report })
            .collect();
        // Spread the malformed reports among the good ones.
        for i in (1..stream.len()).rev() {
            stream.swap(i, rng.gen_range(0..=i));
        }
        stream.push(UserResponse::Refused {
            round: 0,
            requested: 1.0,
            available: 0.0,
        });
        let (logged, rest) = stream.split_at(60);
        let (batched, singles) = logged.split_at(50);

        for shards in SHARD_COUNTS {
            let config = ServiceConfig::with_threads(shards).with_batch_size(16);

            let reference_svc = IngestService::new(config);
            let session = reference_svc.create_session().unwrap();
            reference_svc.open_round(session, 0, kind, eps, d).unwrap();
            reference_svc.submit_batch(session, stream.clone()).unwrap();
            let reference = reference_svc.close_round(session).unwrap();

            let dir = tmp_dir(&format!("malformed_{kind:?}_{shards}"));
            let svc = IngestService::open(config, &dir).unwrap();
            let session = svc.create_session().unwrap();
            svc.open_round(session, 0, kind, eps, d).unwrap();
            svc.submit_batch(session, batched.to_vec()).unwrap();
            for response in singles {
                svc.submit(session, response.clone()).unwrap();
            }
            let status = svc.status(session).unwrap();
            drop(svc); // round open, 60 responses on the WAL

            let svc = IngestService::open(config, &dir).unwrap();
            assert_eq!(svc.status(session).unwrap(), status);
            svc.submit_batch(session, rest.to_vec()).unwrap();
            let recovered = svc.close_round(session).unwrap();

            let what = format!("{kind:?} at {shards} shards");
            assert_bit_identical(&recovered, &reference, &what);
            assert_eq!(recovered.epsilon.to_bits(), reference.epsilon.to_bits());
            assert_eq!(
                svc.refusals(session).unwrap(),
                reference_svc.refusals(session).unwrap(),
                "{what}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// `put_report` logs an OUE report with any number of words, so
/// `take_report` has to read every one of them back: a record the scan
/// cannot decode reads as a torn tail, and everything logged behind it
/// — acknowledged deltas — is truncated away on reopen.
#[test]
fn overlong_oue_report_keeps_the_wal_behind_it() {
    let (eps, d) = (1.0, 70);
    let oracle = build_oracle(FoKind::Oue, eps, d).unwrap();
    let mut rng = StdRng::seed_from_u64(0x0e5);
    let mut delta = |n: usize| -> Vec<UserResponse> {
        (0..n)
            .map(|_| oracle.perturb(rng.gen_range(0..d), &mut rng))
            .map(|report| UserResponse::Report { round: 0, report })
            .collect()
    };
    let mut deltas = vec![delta(20), delta(10), delta(20), delta(15)];
    deltas[1].push(UserResponse::Report {
        round: 0,
        report: Report::Oue {
            bits: vec![u64::MAX; 5],
            len: d as u32,
        },
    });

    for shards in SHARD_COUNTS {
        let config = ServiceConfig::with_threads(shards).with_batch_size(16);

        let reference_svc = IngestService::new(config);
        let session = reference_svc.create_session().unwrap();
        reference_svc
            .open_round(session, 0, FoKind::Oue, eps, d)
            .unwrap();
        for delta in &deltas {
            reference_svc.submit_batch(session, delta.clone()).unwrap();
        }
        let reference = reference_svc.close_round(session).unwrap();

        let dir = tmp_dir(&format!("overlong_oue_{shards}"));
        let svc = IngestService::open(config, &dir).unwrap();
        let session = svc.create_session().unwrap();
        svc.open_round(session, 0, FoKind::Oue, eps, d).unwrap();
        for delta in &deltas[..3] {
            svc.submit_batch(session, delta.clone()).unwrap();
        }
        let status = svc.status(session).unwrap();
        drop(svc); // round open; the over-long report is in the second delta of three

        let svc = IngestService::open(config, &dir).unwrap();
        let report = svc.recovery_report().unwrap();
        assert_eq!(report.corrupt_tail, None, "{shards} shards");
        assert_eq!(report.wal_records_replayed, 5, "{shards} shards");
        assert_eq!(svc.status(session).unwrap(), status);
        svc.submit_batch(session, deltas[3].clone()).unwrap();
        let recovered = svc.close_round(session).unwrap();
        assert_bit_identical(&recovered, &reference, &format!("{shards} shards"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Format stability, end to end: `fixtures/pr11_dir` is a durability
/// directory written by the commit before the session state machine
/// (PR 11) — one closed round, one open round (37 responses in the
/// snapshot, 5 of them in its list of responses held back from the
/// shards, which now joins the tally at load; a 23-response delta and
/// three single-response records in the WAL tail) and one snapshot
/// generation. The numbers below are what that commit itself reopened
/// it to.
#[test]
fn directory_written_by_pr11_reopens_bit_identically() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pr11_dir");
    let dir = tmp_dir("pr11_dir");
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    let frequency_crc = |estimate: &RoundEstimate| {
        let bits = estimate
            .frequencies
            .iter()
            .map(|f| f.to_bits().to_le_bytes());
        ldp_service::codec::crc32(&bits.flatten().collect::<Vec<u8>>())
    };

    let config = ServiceConfig::with_threads(2).with_batch_size(16);
    let svc = IngestService::open(config, &dir).unwrap();
    let report = svc.recovery_report().unwrap();
    assert_eq!(report.snapshot_generation, Some(2));
    assert_eq!(report.wal_records_replayed, 4);
    assert!(report.corrupt_tail.is_none());

    let session = SessionId::from_raw(0);
    let status = svc.status(session).unwrap();
    assert_eq!((status.next_round, status.next_seq), (2, 6));
    assert_eq!((status.open_round, status.refusals), (Some(1), 7));
    assert_eq!(status.epsilon_spent, 1.0);

    let closed = svc.close_round_at(session, 0).unwrap();
    assert_eq!(
        (closed.reporters, frequency_crc(&closed)),
        (93, 0x6280_93db)
    );
    let open = svc.close_round(session).unwrap();
    assert_eq!((open.reporters, frequency_crc(&open)), (60, 0x81fd_7753));
    assert_eq!(svc.refusals(session).unwrap(), 10);
    let _ = std::fs::remove_dir_all(&dir);
}
