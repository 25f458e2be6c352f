//! The two sequenced submit entries of `IngestService` — rows
//! (`submit_batch_at`) and the bytes `put_responses` wrote for them
//! (`submit_encoded_at`) — are two inputs to one service, not two
//! services: the same deltas through either leave the same files on disk,
//! reopen to the same report and close to the same bits, and a forged
//! byte string is refused with the error the rows would have met, before
//! the session or the log has moved.

use ldp_fo::{build_oracle, FoKind, Report};
use ldp_ids::collector::RoundEstimate;
use ldp_ids::protocol::UserResponse;
use ldp_ids::CoreError;
use ldp_service::codec::{put_u32, EncodedResponses};
use ldp_service::wal::SYNC_BATCH_RECORDS;
use ldp_service::{
    EncodedSubmitError, IngestService, ServiceConfig, SessionId, SessionStatus, WalSync,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const EPSILON: f64 = 1.0;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldp_encoded_it_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn encoded(rows: &[UserResponse]) -> EncodedResponses {
    EncodedResponses::encode(rows)
}

fn bits(estimate: &RoundEstimate) -> (u64, Vec<u64>) {
    let frequencies = estimate.frequencies.iter().map(|f| f.to_bits());
    (estimate.reporters, frequencies.collect())
}

/// Every file of a durability directory, by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect()
}

/// Round 0's deltas for an oracle of `kind` over `d` values: honest
/// reports; one with refusals and what the columns cannot hold (the other
/// oracles' reports, OUE rows of the wrong length and word count); an
/// empty one; honest reports again.
fn deltas(kind: FoKind, d: usize, seed: u64) -> Vec<Vec<UserResponse>> {
    let oracle = build_oracle(kind, EPSILON, d).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let report = |report| UserResponse::Report { round: 0, report };
    let mut honest = |n: usize| -> Vec<UserResponse> {
        (0..n)
            .map(|_| report(oracle.perturb(rng.gen_range(0..d), &mut rng)))
            .collect()
    };
    let mut mixed = honest(9);
    mixed.extend([
        UserResponse::Refused {
            round: 0,
            requested: 1.0,
            available: 0.25,
        },
        report(Report::Grr(d as u32 + 7)),
        report(Report::Olh {
            seed: 11,
            bucket: 3,
        }),
        report(Report::Oue {
            bits: vec![0xF0F0; d.div_ceil(64) + 1],
            len: d as u32,
        }),
        report(Report::Oue {
            bits: vec![1; d.div_ceil(64)],
            len: d as u32 + 1,
        }),
        UserResponse::Refused {
            round: 0,
            requested: 0.5,
            available: 0.0,
        },
    ]);
    mixed.extend(honest(5));
    vec![honest(40), mixed, Vec::new(), honest(23)]
}

#[test]
fn both_entries_write_the_same_files_and_reopen_to_the_same_bits() {
    let cases = [
        (FoKind::Grr, 5),
        (FoKind::Oue, 128),
        (FoKind::Oue, 100),
        (FoKind::Olh, 1024),
    ];
    for (case, (kind, d)) in cases.into_iter().enumerate() {
        let what = format!("{kind:?} d={d}");
        let deltas = deltas(kind, d, 0xe0c0 + case as u64);
        // No rotation, so the whole log is there to compare; two shards
        // and batches smaller than a delta, so the struct entry chunks.
        let config = ServiceConfig::with_threads(2)
            .with_batch_size(16)
            .with_snapshot_every(0)
            .with_sync(WalSync::None);

        let memory = IngestService::new(config);
        let session = memory.create_session().unwrap();
        memory.open_round(session, 0, kind, EPSILON, d).unwrap();
        for delta in &deltas {
            memory.submit_batch(session, delta.clone()).unwrap();
        }
        let reference = memory.close_round(session).unwrap();

        let dirs = [
            tmp_dir(&format!("rows_{case}")),
            tmp_dir(&format!("bytes_{case}")),
        ];
        let mut statuses = Vec::new();
        for (dir, as_bytes) in dirs.iter().zip([false, true]) {
            let svc = IngestService::open(config, dir).unwrap();
            let session = svc.create_session().unwrap();
            svc.open_round_at(session, 0, 3, kind, EPSILON, d).unwrap();
            for (seq, delta) in deltas.iter().enumerate() {
                let seq = seq as u64;
                if as_bytes {
                    let next = svc.submit_encoded_at(session, 0, seq, &encoded(delta));
                    assert_eq!(next, Ok(seq + 1), "{what}");
                    // The lost-ack retry is acknowledged, once more.
                    let again = svc.submit_encoded_at(session, 0, seq, &encoded(delta));
                    assert_eq!(again, Ok(seq + 1), "{what}");
                } else {
                    svc.submit_batch_at(session, seq, delta.clone()).unwrap();
                    svc.submit_batch_at(session, seq, delta.clone()).unwrap();
                }
            }
            statuses.push(svc.status(session).unwrap());
            // The crash: the round is open, nothing was shut down.
        }
        assert_eq!(statuses[0], statuses[1], "{what}");
        assert_eq!(files(&dirs[0]), files(&dirs[1]), "{what}: files differ");

        let reopened: Vec<_> = dirs
            .iter()
            .map(|dir| IngestService::open(config, dir).unwrap())
            .collect();
        let report = reopened[0].recovery_report().unwrap();
        assert_eq!(Some(report), reopened[1].recovery_report(), "{what}");
        assert_eq!(report.corrupt_tail, None, "{what}");
        assert_eq!(report.wal_records_replayed, 2 + deltas.len() as u64);
        let responses: usize = deltas.iter().map(Vec::len).sum();
        assert_eq!(report.reports_replayed, responses as u64, "{what}");
        for svc in &reopened {
            assert_eq!(svc.status(session).unwrap(), statuses[0], "{what}");
            let closed = svc.close_round_at(session, 0).unwrap();
            assert_eq!(bits(&closed), bits(&reference), "{what}");
            assert_eq!(svc.refusals(session).unwrap(), 2, "{what}");
        }
        drop(reopened);
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Under `WalSync::Batch` a delta is a report record through either
/// entry: acknowledged once the record `SYNC_BATCH_RECORDS − 1` before it
/// is durable, not synced one by one like a control record. How many
/// fsyncs that takes depends on the flusher's timing; the bound does not.
#[test]
fn both_entries_keep_the_same_sync_discipline() {
    let config = ServiceConfig::with_threads(1)
        .with_snapshot_every(0)
        .with_sync(WalSync::Batch);
    let row = [UserResponse::Report {
        round: 0,
        report: Report::Grr(1),
    }];
    let records = [false, true].map(|as_bytes| {
        let dir = tmp_dir(&format!("sync_{as_bytes}"));
        let svc = IngestService::open(config, &dir).unwrap();
        let session = svc.create_session().unwrap();
        svc.open_round_at(session, 0, 0, FoKind::Grr, EPSILON, 4)
            .unwrap();
        for seq in 0..70 {
            if as_bytes {
                svc.submit_encoded_at(session, 0, seq, &encoded(&row))
                    .unwrap();
            } else {
                svc.submit_batch_at(session, seq, row.to_vec()).unwrap();
            }
            let stats = svc.wal_stats().unwrap();
            let unsynced = stats.records - stats.durable;
            assert!(
                unsynced < SYNC_BATCH_RECORDS,
                "bytes {as_bytes}, delta {seq}: {stats:?}"
            );
        }
        let records = svc.wal_stats().unwrap().records;
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
        records
    });
    // Create, open, and the 70 deltas.
    assert_eq!(records, [72, 72]);
}

/// The directory PR 11's commit wrote reopens, takes a delta through the
/// bytes entry on its open round, and reopens again with that delta
/// replayed: old records and new ones are one log.
#[test]
fn a_pr11_directory_takes_an_encoded_delta_and_reopens() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pr11_dir");
    let dir = tmp_dir("pr11_dir");
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    let config = ServiceConfig::with_threads(2).with_batch_size(16);
    let session = SessionId::from_raw(0);
    let delta: Vec<UserResponse> = (0..7)
        .map(|i| UserResponse::Report {
            round: 1,
            report: Report::Grr(i % 2),
        })
        .collect();

    let svc = IngestService::open(config, &dir).unwrap();
    let status = svc.status(session).unwrap();
    assert_eq!((status.open_round, status.next_seq), (Some(1), 6));
    assert_eq!(
        svc.submit_encoded_at(session, 1, 6, &encoded(&delta)),
        Ok(7)
    );
    drop(svc);

    let svc = IngestService::open(config, &dir).unwrap();
    let report = svc.recovery_report().unwrap();
    assert_eq!(report.corrupt_tail, None);
    assert_eq!(
        (report.wal_records_replayed, report.reports_replayed),
        (1, 7)
    );
    assert_eq!(svc.status(session).unwrap().next_seq, 7);
    // 60 reporters in the fixture's open round, and these seven.
    assert_eq!(svc.close_round(session).unwrap().reporters, 67);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a refusal must leave untouched: the session, and the log.
struct Untouched<'a> {
    svc: &'a IngestService,
    session: SessionId,
    status: SessionStatus,
    records: u64,
}

impl<'a> Untouched<'a> {
    fn of(svc: &'a IngestService, session: SessionId) -> Self {
        Untouched {
            svc,
            session,
            status: svc.status(session).unwrap(),
            records: svc.wal_stats().unwrap().records,
        }
    }

    fn check(&self, what: &str) {
        assert_eq!(
            self.svc.status(self.session).unwrap(),
            self.status,
            "{what}"
        );
        assert_eq!(
            self.svc.wal_stats().unwrap().records,
            self.records,
            "{what}"
        );
    }
}

/// One forged input per way the decoder can be lied to. Each is refused
/// as undecodable — with a round open, with none, and on a session that
/// does not exist: structure comes before the lifecycle, as on replay —
/// or, where the bytes are a response list and only the session
/// disagrees, with the rule the rows would have met through
/// `submit_batch_at`; none moves `next_seq` or the WAL.
#[test]
fn forged_deltas_are_refused_before_the_session_or_the_log_moves() {
    let dir = tmp_dir("forged");
    let config = ServiceConfig::with_threads(1)
        .with_snapshot_every(0)
        .with_sync(WalSync::None);
    let svc = IngestService::open(config, &dir).unwrap();
    let session = svc.create_session().unwrap();
    let oue = |round, words: usize| UserResponse::Report {
        round,
        report: Report::Oue {
            bits: vec![0xAA; words],
            len: 128,
        },
    };
    let honest = vec![oue(0, 2); 4];
    let bytes = encoded(&honest).bytes().to_vec();
    let forge = |edit: &dyn Fn(&mut Vec<u8>)| {
        let mut forged = bytes.clone();
        edit(&mut forged);
        EncodedResponses::new(forged)
    };

    // Row 0 starts at byte 4: tag, round (8), report tag, len (4), words (4).
    let undecodable: [(&str, EncodedResponses, &str); 7] = [
        (
            "count past the bytes",
            forge(&|b| b[..4].copy_from_slice(&(1u32 << 24).to_le_bytes())),
            "response count 16777216 exceeds",
        ),
        (
            "OUE word count past the bytes",
            forge(&|b| b[18..22].copy_from_slice(&u32::MAX.to_le_bytes())),
            "OUE word count 4294967295 exceeds",
        ),
        (
            "unknown response tag",
            forge(&|b| b[4] = 7),
            "unknown response tag 7",
        ),
        (
            "unknown report tag",
            forge(&|b| b[13] = 9),
            "unknown report tag 9",
        ),
        (
            "truncated last row",
            forge(&|b| b.truncate(b.len() - 3)),
            "OUE word count 2 exceeds the 13 bytes left",
        ),
        ("trailing bytes", forge(&|b| b.push(0)), "1 trailing bytes"),
        (
            "no count at all",
            EncodedResponses::new(vec![0; 3]),
            "payload truncated",
        ),
    ];
    let refuse_undecodable = |target, seq| {
        for (what, forged, detail) in &undecodable {
            match svc.submit_encoded_at(target, 0, seq, forged) {
                Err(EncodedSubmitError::Undecodable(got)) => {
                    assert!(got.contains(detail), "{what}: {got}")
                }
                other => panic!("{what}: expected Undecodable, got {other:?}"),
            }
        }
    };

    // No round open: structure first, then the lifecycle has the only
    // word — whether the session exists or not.
    let idle = Untouched::of(&svc, session);
    let ghost = SessionId::from_raw(9);
    refuse_undecodable(session, 0);
    refuse_undecodable(ghost, 0);
    idle.check("undecodable, no open round");
    assert_eq!(
        svc.submit_encoded_at(session, 0, 0, &encoded(&honest)),
        Err(EncodedSubmitError::Rule(CoreError::NoOpenRound))
    );
    assert_eq!(
        svc.submit_encoded_at(SessionId::from_raw(9), 0, 0, &encoded(&honest)),
        Err(EncodedSubmitError::Rule(CoreError::UnknownSession {
            session: 9
        }))
    );
    idle.check("no open round");

    svc.open_round_at(session, 0, 0, FoKind::Oue, EPSILON, 128)
        .unwrap();
    assert_eq!(
        svc.submit_encoded_at(session, 0, 0, &encoded(&honest)),
        Ok(1)
    );
    let open = Untouched::of(&svc, session);
    refuse_undecodable(session, 1);
    open.check("undecodable, round open");

    // A response list the session refuses: the rows' own errors.
    let mut stale_inside = honest.clone();
    stale_inside.insert(2, oue(4, 2));
    let stale = |got| {
        Err(EncodedSubmitError::Rule(CoreError::StaleRound {
            expected: 0,
            got,
        }))
    };
    assert_eq!(
        svc.submit_encoded_at(session, 0, 1, &encoded(&stale_inside)),
        stale(4)
    );
    let rows = svc.submit_batch_at(session, 1, stale_inside.clone());
    assert_eq!(
        rows.map_err(EncodedSubmitError::Rule).map(|()| 0),
        stale(4),
        "the struct entry refuses the same rows the same way"
    );
    // The round the delta names is its first echo...
    assert_eq!(
        svc.submit_encoded_at(session, 7, 1, &encoded(&stale_inside)),
        stale(7)
    );
    assert_eq!(
        svc.submit_encoded_at(session, 7, 1, &encoded(&[])),
        stale(7)
    );
    // ...checked after the sequence rules: a gap is a gap, and a
    // duplicate is acknowledged whatever it names or carries.
    assert_eq!(
        svc.submit_encoded_at(session, 7, 5, &encoded(&stale_inside)),
        Err(EncodedSubmitError::Rule(CoreError::SequenceGap {
            expected: 1,
            got: 5
        }))
    );
    assert_eq!(
        svc.submit_encoded_at(session, 7, 0, &encoded(&stale_inside)),
        Ok(1)
    );
    open.check("lifecycle refusals");

    // A forged count allocates nothing it cannot back: 4 GiB of claimed
    // OUE rows over 16 bytes of payload is an error, not an abort.
    let mut huge = Vec::new();
    put_u32(&mut huge, u32::MAX);
    huge.extend_from_slice(&[0; 16]);
    assert!(matches!(
        svc.submit_encoded_at(session, 0, 1, &EncodedResponses::new(huge)),
        Err(EncodedSubmitError::Undecodable(_))
    ));
    open.check("huge count");

    // The session is where it was: the next honest delta lands.
    assert_eq!(
        svc.submit_encoded_at(session, 0, 1, &encoded(&honest)),
        Ok(2)
    );
    assert_eq!(svc.close_round_at(session, 0).unwrap().reporters, 8);
    let closed = Untouched::of(&svc, session);
    refuse_undecodable(session, 2);
    closed.check("undecodable, round closed");
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot taken mid-round, after deltas smaller than a batch: both
/// entries hand each accepted delta to the shards whole, so the snapshot
/// holds every response in the round's tally and nothing held back for
/// a fuller batch. The directories are the same, and reopen to the same
/// close as a service that never stopped.
#[test]
fn a_mid_round_checkpoint_after_small_deltas_leaves_the_same_files() {
    let cases = [(FoKind::Grr, 5), (FoKind::Oue, 128), (FoKind::Olh, 1024)];
    for (case, (kind, d)) in cases.into_iter().enumerate() {
        let what = format!("{kind:?} d={d}");
        let deltas = deltas(kind, d, 0xc4e0 + case as u64);
        // Every delta is smaller than a batch.
        let config = ServiceConfig::with_threads(2)
            .with_batch_size(64)
            .with_snapshot_every(0)
            .with_sync(WalSync::None);

        let memory = IngestService::new(config);
        let session = memory.create_session().unwrap();
        memory.open_round(session, 0, kind, EPSILON, d).unwrap();
        for delta in &deltas {
            memory.submit_batch(session, delta.clone()).unwrap();
        }
        let reference = memory.close_round(session).unwrap();

        let dirs = [
            tmp_dir(&format!("checkpoint_rows_{case}")),
            tmp_dir(&format!("checkpoint_bytes_{case}")),
        ];
        for (dir, as_bytes) in dirs.iter().zip([false, true]) {
            let svc = IngestService::open(config, dir).unwrap();
            let session = svc.create_session().unwrap();
            svc.open_round_at(session, 0, 3, kind, EPSILON, d).unwrap();
            for (seq, delta) in deltas.iter().enumerate() {
                let seq = seq as u64;
                if seq == 2 {
                    svc.checkpoint().unwrap();
                }
                if as_bytes {
                    let next = svc.submit_encoded_at(session, 0, seq, &encoded(delta));
                    assert_eq!(next, Ok(seq + 1), "{what}");
                } else {
                    svc.submit_batch_at(session, seq, delta.clone()).unwrap();
                }
            }
            // The crash: the round is open, nothing was shut down.
        }
        assert_eq!(files(&dirs[0]), files(&dirs[1]), "{what}: files differ");

        for dir in &dirs {
            let svc = IngestService::open(config, dir).unwrap();
            let report = svc.recovery_report().unwrap();
            assert_eq!(report.corrupt_tail, None, "{what}");
            assert_eq!(report.wal_records_replayed, 2, "{what}");
            let closed = svc.close_round_at(SessionId::from_raw(0), 0).unwrap();
            assert_eq!(bits(&closed), bits(&reference), "{what}");
            drop(svc);
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
