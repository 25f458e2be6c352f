//! Crash recovery: snapshot files, generation rotation, and WAL replay.
//!
//! ## Generation scheme
//!
//! A durability directory holds at most one *generation* of state:
//!
//! ```text
//! snap-<gen>.bin   checksummed snapshot of the full logical state
//! wal-<gen>.log    every record accepted after that snapshot
//! ```
//!
//! Taking a snapshot writes `snap-<g+1>.bin` atomically (tmp file,
//! fsync, rename, directory fsync), then starts the empty
//! `wal-<g+1>.log` and deletes the old generation. A crash at any point
//! leaves either generation `g` fully intact or generation `g+1`
//! already valid — recovery picks the highest-generation readable
//! snapshot and replays its WAL on top.
//!
//! ## Replay is live ingest
//!
//! The logical state is one `SessionTable` — the same state machine
//! (`machine.rs`) the live service mutates — plus the shards' tally of
//! each open round. A snapshot is that pair written out; recovery
//! decodes it and then does to it what the live service did when it
//! wrote each WAL record: the same transition, with the report deltas
//! encoded by the same [`Batch::encode`] and folded by the same
//! [`ShardArena::ingest`] kernels the workers run. Nothing here decides
//! what a session may do; a record the transitions refuse means the log
//! contradicts itself and is a [`CoreError::RecoveryMismatch`].
//! What replay adds is *verification* of what the log claims:
//!
//! * deltas already covered by the snapshot are skipped by the
//!   session's write-ahead sequence numbers (the machine's own
//!   duplicate rule);
//! * the round oracle is rebuilt deterministically from the logged
//!   [`ReportRequest`], so recovered support counts are bit-identical
//!   to an uninterrupted run;
//! * every replayed round close must reproduce the logged estimate bit
//!   for bit from the replayed tally.
//!
//! A torn or corrupt WAL tail truncates replay at the last complete
//! record and is surfaced as a typed error in the [`RecoveryReport`] —
//! recovery itself still succeeds.

use crate::batch::{Batch, RoundKey};
use crate::codec::{
    crc32, put_enveloped, put_estimate, put_f64, put_request, put_response, put_u32, put_u64,
    take_estimate, take_request, take_response, Cursor,
};
use crate::machine::{
    Closing, OpenRound, Opening, Session, SessionId, SessionStatus, SessionTable,
};
use crate::shard::{ShardArena, ShardTally};
use crate::wal::{self, wal_err, WalRecord};
use ldp_fo::OracleHandle;
use ldp_ids::protocol::ReportRequest;
use ldp_ids::CoreError;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic bytes opening every snapshot file.
pub const SNAP_MAGIC: &[u8; 8] = b"LDPSNP01";

/// Path of generation `gen`'s WAL inside `dir`.
pub fn wal_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen:016x}.log"))
}

/// Path of generation `gen`'s snapshot inside `dir`.
pub fn snap_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("snap-{gen:016x}.bin"))
}

/// What recovery found and rebuilt — attached to the reopened service
/// via [`IngestService::recovery_report`](crate::IngestService::recovery_report).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Generation of the snapshot recovery started from (`None`: no
    /// snapshot existed yet; replay started from the empty state).
    pub snapshot_generation: Option<u64>,
    /// Complete WAL records replayed on top of the snapshot.
    pub wal_records_replayed: u64,
    /// Sessions alive after recovery.
    pub sessions: usize,
    /// Rounds re-opened mid-flight after recovery.
    pub open_rounds: usize,
    /// Present when the WAL ended in a torn or corrupt frame: the typed
    /// error describing the tail that was discarded. The state up to the
    /// last complete record was recovered normally.
    pub corrupt_tail: Option<CoreError>,
}

/// The shards' merged tally of every open round.
pub(crate) type Tallies = HashMap<RoundKey, ShardTally>;

/// Everything [`recover`] hands back to the service constructor: the
/// session table as it stood at the last logged record, and the tallies
/// to seed the worker pool with.
pub(crate) struct Recovered {
    pub generation: u64,
    pub table: SessionTable,
    pub tallies: Tallies,
    pub report: RecoveryReport,
}

/// Every open round of `table`, in session order.
pub(crate) fn open_rounds(table: &SessionTable) -> Vec<&OpenRound> {
    let sessions = table.sessions().into_iter();
    sessions.filter_map(|(_, s)| s.open()).collect()
}

/// Hand each open round's tally to `seed` (an arena's or a pool's) with
/// the round's key and oracle.
pub(crate) fn seed_each(
    table: &SessionTable,
    mut tallies: Tallies,
    mut seed: impl FnMut(RoundKey, OracleHandle, ShardTally),
) {
    for open in open_rounds(table) {
        let tally = tallies
            .remove(&open.key)
            .expect("every open round has a tally");
        seed(open.key, open.oracle.clone(), tally);
    }
}

// ---------------------------------------------------------------------
// The snapshot payload: the session table and its open-round tallies.

fn put_state(out: &mut Vec<u8>, table: &SessionTable, tallies: &Tallies) {
    let sessions = table.sessions();
    put_u64(out, table.next_id().raw());
    put_u32(out, sessions.len() as u32);
    for (id, s) in sessions {
        let status = s.status();
        put_u64(out, id.raw());
        put_u64(out, status.next_round);
        put_u64(out, status.next_seq);
        put_u64(out, status.refusals);
        put_f64(out, status.epsilon_spent);
        let flags = u8::from(s.last_closed().is_some()) | (u8::from(s.open().is_some()) << 1);
        out.push(flags);
        if let Some((round, estimate)) = s.last_closed() {
            put_u64(out, *round);
            put_estimate(out, estimate);
        }
        if let Some(open) = s.open() {
            let tally = tallies
                .get(&open.key)
                .expect("every open round has a tally");
            put_request(out, &open.request);
            put_u32(out, tally.support.len() as u32);
            for &c in &tally.support {
                put_u64(out, c);
            }
            put_u64(out, tally.reporters);
            put_u64(out, tally.refusals);
            put_u64(out, tally.stale);
            put_u32(out, open.pending.len() as u32);
            for response in &open.pending {
                put_response(out, response);
            }
        }
    }
}

fn decode_state(payload: &[u8]) -> Result<(SessionTable, Tallies), String> {
    let mut cur = Cursor::new(payload);
    let next_session = cur.u64()?;
    let n = cur.u32()? as usize;
    if n > payload.len() {
        return Err(format!("session count {n} exceeds payload"));
    }
    let mut sessions = HashMap::with_capacity(n);
    let mut tallies = Tallies::new();
    for _ in 0..n {
        let id = SessionId::from_raw(cur.u64()?);
        let status = SessionStatus {
            next_round: cur.u64()?,
            next_seq: cur.u64()?,
            refusals: cur.u64()?,
            epsilon_spent: cur.f64()?,
            open_round: None,
        };
        let flags = cur.u8()?;
        let last_closed = if flags & 1 != 0 {
            Some((cur.u64()?, take_estimate(&mut cur)?))
        } else {
            None
        };
        let open = if flags & 2 != 0 {
            let request = take_request(&mut cur)?;
            let d = cur.u32()? as usize;
            if d != request.domain_size || d > payload.len() {
                return Err(format!("tally of {d} cells for {request:?}"));
            }
            let mut support = Vec::with_capacity(d);
            for _ in 0..d {
                support.push(cur.u64()?);
            }
            let tally = ShardTally {
                support,
                reporters: cur.u64()?,
                refusals: cur.u64()?,
                stale: cur.u64()?,
            };
            let pending_n = cur.u32()? as usize;
            if pending_n > payload.len() {
                return Err(format!("pending count {pending_n} exceeds payload"));
            }
            let mut pending = Vec::with_capacity(pending_n);
            for _ in 0..pending_n {
                pending.push(take_response(&mut cur)?);
            }
            let open = OpenRound::new(id, request, pending)
                .map_err(|e| format!("round parameters no longer build an oracle: {e}"))?;
            tallies.insert(open.key, tally);
            Some(open)
        } else {
            None
        };
        sessions.insert(id, Session::restore(status, last_closed, open));
    }
    cur.finish()?;
    Ok((SessionTable::restore(next_session, sessions), tallies))
}

/// Write the state as generation `gen`'s snapshot, atomically: tmp file,
/// fsync, rename into place, directory fsync.
pub(crate) fn write_snapshot(
    dir: &Path,
    gen: u64,
    table: &SessionTable,
    tallies: &Tallies,
) -> Result<(), CoreError> {
    let mut bytes = Vec::with_capacity(256);
    bytes.extend_from_slice(SNAP_MAGIC);
    put_u64(&mut bytes, gen);
    put_enveloped(&mut bytes, |out| put_state(out, table, tallies));

    let final_path = snap_path(dir, gen);
    let tmp_path = final_path.with_extension("bin.tmp");
    {
        let mut tmp = std::fs::File::create(&tmp_path)
            .map_err(|e| wal_err("create snapshot tmp", &tmp_path, &e))?;
        tmp.write_all(&bytes)
            .map_err(|e| wal_err("write snapshot", &tmp_path, &e))?;
        tmp.sync_data()
            .map_err(|e| wal_err("sync snapshot", &tmp_path, &e))?;
    }
    crate::faults::hit("snapshot.before_rename");
    std::fs::rename(&tmp_path, &final_path)
        .map_err(|e| wal_err("rename snapshot", &final_path, &e))?;
    sync_dir(dir);
    crate::faults::hit("snapshot.after_rename");
    Ok(())
}

/// fsync the directory so a renamed snapshot survives a host crash.
/// Best-effort: not every platform lets you open a directory.
fn sync_dir(dir: &Path) {
    #[cfg(unix)]
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    #[cfg(not(unix))]
    let _ = dir;
}

fn read_snapshot(path: &Path) -> Result<(SessionTable, Tallies), CoreError> {
    let bytes = std::fs::read(path).map_err(|e| wal_err("read snapshot", path, &e))?;
    let file = path.display().to_string();
    let corrupt = |offset: u64, detail: String| CoreError::Corrupt {
        file: file.clone(),
        offset,
        detail,
    };
    if bytes.len() < 24 {
        return Err(corrupt(
            0,
            format!("short snapshot ({} bytes)", bytes.len()),
        ));
    }
    if &bytes[..8] != SNAP_MAGIC {
        return Err(corrupt(0, "bad magic; not an LDPSNP01 file".into()));
    }
    let mut cur = Cursor::new(&bytes[8..24]);
    let _gen = cur.u64().unwrap();
    let len = cur.u32().unwrap() as usize;
    let crc = cur.u32().unwrap();
    if bytes.len() - 24 != len {
        return Err(corrupt(
            24,
            format!("payload length {} != header length {len}", bytes.len() - 24),
        ));
    }
    let payload = &bytes[24..];
    if crc32(payload) != crc {
        return Err(corrupt(24, "snapshot checksum mismatch".into()));
    }
    decode_state(payload).map_err(|detail| corrupt(24, detail))
}

/// Parse a generation number out of `snap-<hex>.bin` / `wal-<hex>.log`.
fn parse_gen(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let hex = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    u64::from_str_radix(hex, 16).ok()
}

/// Highest snapshot generation present in `dir` (by filename).
fn latest_snapshot_gen(dir: &Path) -> Result<Option<u64>, CoreError> {
    let entries = std::fs::read_dir(dir).map_err(|e| wal_err("list", dir, &e))?;
    let mut latest = None;
    for entry in entries {
        let entry = entry.map_err(|e| wal_err("list", dir, &e))?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(gen) = parse_gen(name, "snap-", ".bin") {
                latest = latest.max(Some(gen));
            }
        }
    }
    Ok(latest)
}

/// Delete every snapshot/WAL generation other than `keep`, plus
/// leftover tmp files. Best-effort cleanup after a rotation.
pub(crate) fn remove_stale(dir: &Path, keep: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = name.ends_with(".tmp")
            || parse_gen(name, "snap-", ".bin").is_some_and(|g| g != keep)
            || parse_gen(name, "wal-", ".log").is_some_and(|g| g != keep);
        if stale {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

// ---------------------------------------------------------------------
// Replay.

fn mismatch(detail: String) -> CoreError {
    CoreError::RecoveryMismatch { detail }
}

/// Take `table` through the transition `record` logged, and `arena`
/// through its effects — what the live service did when it wrote the
/// record, with the log checked where the live service appended to it.
fn replay(
    table: &mut SessionTable,
    arena: &mut ShardArena,
    record: WalRecord,
) -> Result<(), CoreError> {
    match record {
        WalRecord::CreateSession { session } => {
            let id = table.create();
            if id.raw() != session {
                return Err(mismatch(format!(
                    "log creates session {session} where the table assigns {}",
                    id.raw()
                )));
            }
        }
        WalRecord::OpenRound { session, request } => {
            let ReportRequest {
                round,
                t,
                fo,
                epsilon,
                domain_size,
            } = request;
            let id = SessionId::from_raw(session);
            match table.open_round(id, Some(round), t, fo, epsilon, domain_size)? {
                Opening::Fresh(step) => step.apply(),
                Opening::Replayed(_) => {
                    return Err(mismatch(format!(
                        "session {session} opens round {round} twice"
                    )))
                }
            };
        }
        WalRecord::Reports {
            session,
            round,
            seq,
            responses,
        } => {
            let id = SessionId::from_raw(session);
            // `None`: already folded into the snapshot this WAL follows.
            if let Some(step) = table.accept(id, Some(seq), &responses)? {
                if step.round() != round {
                    return Err(mismatch(format!(
                        "session {session} logs reports for round {round}; round {} is open",
                        step.round()
                    )));
                }
                let open = step.apply();
                arena.ingest(Batch::encode(open.key, &open.oracle, responses));
            }
        }
        WalRecord::CloseRound {
            session,
            round,
            refusals,
            estimate,
        } => {
            let id = SessionId::from_raw(session);
            let closing = table.begin_close(id, Some(round))?;
            let Closing::Begun(mut open) = closing else {
                return Err(mismatch(format!(
                    "session {session} closes round {round} twice"
                )));
            };
            let tail = std::mem::take(&mut open.pending);
            arena.ingest(Batch::encode(open.key, &open.oracle, tail));
            let tally = arena.close(open.key, open.request.domain_size);
            // End-to-end integrity check: the estimate recomputed from
            // the fully replayed tally must be bit-identical to the one
            // that was logged (and possibly already acknowledged).
            if tally.refusals != refusals || tally.reporters != estimate.reporters {
                return Err(mismatch(format!(
                    "session {session} round {round}: replayed tally ({} reports, {} refusals) \
                     contradicts the close record ({} reports, {} refusals)",
                    tally.reporters, tally.refusals, estimate.reporters, refusals
                )));
            }
            let replayed = open.estimate(&tally.support, tally.reporters).frequencies;
            let logged_bits: Vec<u64> = estimate.frequencies.iter().map(|f| f.to_bits()).collect();
            let replayed_bits: Vec<u64> = replayed.iter().map(|f| f.to_bits()).collect();
            if logged_bits != replayed_bits {
                return Err(mismatch(format!(
                    "session {session} round {round}: replayed estimate differs from the logged one"
                )));
            }
            table.finish_close(id, round, refusals, estimate);
        }
        WalRecord::EndSession { session } => table.end(SessionId::from_raw(session))?.apply(),
    }
    Ok(())
}

/// Rebuild the full service state from `dir`: highest-generation valid
/// snapshot plus its WAL tail.
pub(crate) fn recover(dir: &Path) -> Result<Recovered, CoreError> {
    let snapshot_gen = latest_snapshot_gen(dir)?;
    let (generation, (mut table, tallies)) = match snapshot_gen {
        Some(gen) => (gen, read_snapshot(&snap_path(dir, gen))?),
        None => (0, Default::default()),
    };
    // Tallies live where the live service keeps them: in a shard arena.
    // Responses a snapshot caught pending stay pending in the table, as
    // they were; the close that follows flushes them, replayed or live.
    let mut arena = ShardArena::new();
    seed_each(&table, tallies, |key, oracle, tally| {
        arena.seed(key, oracle, tally)
    });

    let scan = wal::scan(&wal_path(dir, generation))?;
    let wal_records_replayed = scan.records.len() as u64;
    for (i, record) in scan.records.into_iter().enumerate() {
        // A record the transitions refuse means the log contradicts the
        // state it is replayed onto.
        replay(&mut table, &mut arena, record).map_err(|e| match e {
            CoreError::RecoveryMismatch { .. } => e,
            rule => mismatch(format!("WAL record {i} breaks the lifecycle: {rule}")),
        })?;
    }

    let still_open = open_rounds(&table).into_iter();
    let tallies: Tallies = still_open
        .map(|open| (open.key, arena.close(open.key, open.request.domain_size)))
        .collect();
    let report = RecoveryReport {
        snapshot_generation: snapshot_gen,
        wal_records_replayed,
        sessions: table.sessions().len(),
        open_rounds: tallies.len(),
        corrupt_tail: scan.corrupt_tail,
    };
    Ok(Recovered {
        generation,
        table,
        tallies,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_fo::{build_oracle, FoKind};
    use ldp_ids::collector::RoundEstimate;
    use ldp_ids::protocol::UserResponse;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ldp_recovery_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_state() -> (SessionTable, Tallies) {
        let closed = Session::restore(
            SessionStatus {
                next_round: 2,
                next_seq: 9,
                refusals: 4,
                epsilon_spent: 1.5,
                open_round: None,
            },
            Some((
                1,
                RoundEstimate {
                    frequencies: vec![0.25, 0.75],
                    reporters: 100,
                    epsilon: 0.75,
                },
            )),
            None,
        );
        let request = ReportRequest {
            round: 0,
            t: 5,
            fo: FoKind::Grr,
            epsilon: 2.0,
            domain_size: 3,
        };
        let pending = vec![UserResponse::Report {
            round: 0,
            report: ldp_fo::Report::Grr(1),
        }];
        let open = Session::restore(
            SessionStatus {
                next_round: 1,
                next_seq: 3,
                ..SessionStatus::default()
            },
            None,
            Some(OpenRound::new(SessionId::from_raw(2), request, pending).unwrap()),
        );
        let tally = ShardTally {
            support: vec![5, 6, 7],
            reporters: 18,
            refusals: 0,
            stale: 0,
        };
        let sessions = HashMap::from([
            (SessionId::from_raw(0), closed),
            (SessionId::from_raw(2), open),
        ]);
        let key = RoundKey {
            session: SessionId::from_raw(2),
            round: 0,
        };
        let tallies = Tallies::from([(key, tally)]);
        (SessionTable::restore(3, sessions), tallies)
    }

    /// The payload of `sample_state()`, captured from the commit before
    /// this pin existed (PR 11, where it was `SnapshotState::encode`):
    /// the `LDPSNP01` payload layout is pinned, not assumed.
    const SAMPLE_STATE_HEX: &str = "\
        0300000000000000020000000000000000000000020000000000000009000000\
        000000000400000000000000000000000000f83f010100000000000000640000\
        0000000000000000000000e83f02000000000000000000d03f000000000000e8\
        3f02000000000000000100000000000000030000000000000000000000000000\
        0000000000000000000200000000000000000500000000000000000000000000\
        0000400300000003000000050000000000000006000000000000000700000000\
        0000001200000000000000000000000000000000000000000000000100000000\
        00000000000000000001000000";

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn encode_state(table: &SessionTable, tallies: &Tallies) -> Vec<u8> {
        let mut out = Vec::new();
        put_state(&mut out, table, tallies);
        out
    }

    #[test]
    fn snapshot_encoding_is_byte_stable() {
        let (table, tallies) = sample_state();
        assert_eq!(hex(&encode_state(&table, &tallies)), SAMPLE_STATE_HEX);
    }

    /// The file is magic, generation, then the pinned payload behind its
    /// length and CRC — the in-place envelope writes what the
    /// encode-then-copy writer did.
    #[test]
    fn snapshot_file_is_the_pinned_payload_in_its_envelope() {
        let dir = tmp_dir("file_bytes");
        let (table, tallies) = sample_state();
        write_snapshot(&dir, 7, &table, &tallies).unwrap();
        let payload = encode_state(&table, &tallies);
        let mut want = SNAP_MAGIC.to_vec();
        want.extend_from_slice(&7u64.to_le_bytes());
        want.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        want.extend_from_slice(&crc32(&payload).to_le_bytes());
        want.extend_from_slice(&payload);
        assert_eq!(hex(&payload), SAMPLE_STATE_HEX);
        assert_eq!(std::fs::read(snap_path(&dir, 7)).unwrap(), want);
    }

    #[test]
    fn snapshot_state_roundtrips() {
        let (table, tallies) = sample_state();
        let bytes = encode_state(&table, &tallies);
        let (decoded, decoded_tallies) = decode_state(&bytes).unwrap();
        assert_eq!(decoded_tallies, tallies);
        assert_eq!(decoded.next_id(), SessionId::from_raw(3));
        let open = decoded.get(SessionId::from_raw(2)).unwrap();
        assert_eq!(open.status().open_round, Some(0));
        assert_eq!(open.open().unwrap().pending.len(), 1);
        assert_eq!(encode_state(&decoded, &decoded_tallies), bytes);
    }

    #[test]
    fn snapshot_file_roundtrips() {
        let dir = tmp_dir("file_roundtrip");
        let (table, tallies) = sample_state();
        write_snapshot(&dir, 7, &table, &tallies).unwrap();
        let (read, read_tallies) = read_snapshot(&snap_path(&dir, 7)).unwrap();
        assert_eq!(
            encode_state(&read, &read_tallies),
            encode_state(&table, &tallies)
        );
        assert_eq!(latest_snapshot_gen(&dir).unwrap(), Some(7));
    }

    #[test]
    fn corrupt_snapshot_is_typed_not_a_panic() {
        let dir = tmp_dir("corrupt_snap");
        let (table, tallies) = sample_state();
        write_snapshot(&dir, 1, &table, &tallies).unwrap();
        let path = snap_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(CoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn recover_from_snapshot_keeps_pending_and_replays_tail() {
        let dir = tmp_dir("snap_plus_tail");
        let (table, tallies) = sample_state();
        write_snapshot(&dir, 4, &table, &tallies).unwrap();
        let mut wal = wal::Wal::create(&wal_path(&dir, 4), crate::wal::WalSync::None).unwrap();
        // A duplicate of an already-snapshotted delta (seq 1 < the
        // snapshot's next_seq 3: skipped on replay) followed by a
        // genuinely new one (seq 3).
        wal.append(&WalRecord::Reports {
            session: 2,
            round: 0,
            seq: 1,
            responses: vec![UserResponse::Report {
                round: 0,
                report: ldp_fo::Report::Grr(2),
            }],
        })
        .unwrap()
        .wait()
        .unwrap();
        wal.append(&WalRecord::Reports {
            session: 2,
            round: 0,
            seq: 3,
            responses: vec![UserResponse::Report {
                round: 0,
                report: ldp_fo::Report::Grr(0),
            }],
        })
        .unwrap()
        .wait()
        .unwrap();
        drop(wal);

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.generation, 4);
        assert_eq!(rec.table.next_id(), SessionId::from_raw(3));
        assert_eq!(rec.report.snapshot_generation, Some(4));
        assert_eq!(rec.report.wal_records_replayed, 2);
        assert_eq!(rec.report.open_rounds, 1);
        assert!(rec.report.corrupt_tail.is_none());

        let s2 = rec.table.get(SessionId::from_raw(2)).unwrap();
        assert_eq!(s2.status().next_seq, 4);
        // Snapshot tally [5,6,7]/18 reporters plus the new Grr(0) delta;
        // the duplicate Grr(2) must not be folded twice, and the
        // snapshotted pending Grr(1) is still pending, as it was.
        let tally = rec.tallies.values().next().unwrap();
        assert_eq!(tally.support, vec![6, 6, 7]);
        assert_eq!(tally.reporters, 19);
        assert_eq!(s2.open().unwrap().pending.len(), 1);

        let s0 = rec.table.get(SessionId::from_raw(0)).unwrap();
        assert!(s0.open().is_none());
        assert_eq!(s0.status().next_round, 2);
        assert_eq!(s0.status().refusals, 4);
    }

    /// Build the WAL prefix create→open→reports shared by the close
    /// verification tests, returning the exact tally those reports fold to.
    fn append_round_prefix(wal: &mut wal::Wal) -> (Vec<u64>, u64) {
        let request = ReportRequest {
            round: 0,
            t: 0,
            fo: FoKind::Grr,
            epsilon: 2.0,
            domain_size: 3,
        };
        let responses = vec![
            UserResponse::Report {
                round: 0,
                report: ldp_fo::Report::Grr(1),
            },
            UserResponse::Report {
                round: 0,
                report: ldp_fo::Report::Grr(1),
            },
            UserResponse::Refused {
                round: 0,
                requested: 1.0,
                available: 0.0,
            },
        ];
        let oracle = build_oracle(FoKind::Grr, 2.0, 3).unwrap();
        let mut support = vec![0u64; 3];
        for r in &responses {
            if let UserResponse::Report { report, .. } = r {
                oracle.accumulate(report, &mut support);
            }
        }
        wal.append(&WalRecord::CreateSession { session: 0 })
            .unwrap()
            .wait()
            .unwrap();
        wal.append(&WalRecord::OpenRound {
            session: 0,
            request,
        })
        .unwrap()
        .wait()
        .unwrap();
        wal.append(&WalRecord::Reports {
            session: 0,
            round: 0,
            seq: 0,
            responses,
        })
        .unwrap()
        .wait()
        .unwrap();
        (support, 2)
    }

    #[test]
    fn replay_verifies_close_records_bit_for_bit() {
        let dir = tmp_dir("replay_close_ok");
        let mut wal = wal::Wal::create(&wal_path(&dir, 0), crate::wal::WalSync::None).unwrap();
        let (support, reporters) = append_round_prefix(&mut wal);
        let oracle = build_oracle(FoKind::Grr, 2.0, 3).unwrap();
        let estimate = RoundEstimate {
            frequencies: oracle.estimate(&support, reporters),
            reporters,
            epsilon: 2.0,
        };
        wal.append(&WalRecord::CloseRound {
            session: 0,
            round: 0,
            refusals: 1,
            estimate: estimate.clone(),
        })
        .unwrap()
        .wait()
        .unwrap();
        drop(wal);

        let rec = recover(&dir).unwrap();
        let s = rec.table.get(SessionId::from_raw(0)).unwrap();
        assert!(s.open().is_none());
        assert_eq!(s.status().refusals, 1);
        assert_eq!(s.status().epsilon_spent, 2.0);
        assert_eq!(s.last_closed(), Some(&(0, estimate)));
    }

    #[test]
    fn replay_rejects_close_record_contradicting_the_tally() {
        let dir = tmp_dir("replay_close_bad");
        let mut wal = wal::Wal::create(&wal_path(&dir, 0), crate::wal::WalSync::None).unwrap();
        let (support, reporters) = append_round_prefix(&mut wal);
        let oracle = build_oracle(FoKind::Grr, 2.0, 3).unwrap();
        let mut frequencies = oracle.estimate(&support, reporters);
        frequencies[0] += 0.5; // not what the replayed tally yields
        wal.append(&WalRecord::CloseRound {
            session: 0,
            round: 0,
            refusals: 1,
            estimate: RoundEstimate {
                frequencies,
                reporters,
                epsilon: 2.0,
            },
        })
        .unwrap()
        .wait()
        .unwrap();
        drop(wal);

        assert!(matches!(
            recover(&dir),
            Err(CoreError::RecoveryMismatch { .. })
        ));
    }

    #[test]
    fn remove_stale_keeps_only_current_generation() {
        let dir = tmp_dir("remove_stale");
        let (table, tallies) = sample_state();
        write_snapshot(&dir, 1, &table, &tallies).unwrap();
        write_snapshot(&dir, 2, &table, &tallies).unwrap();
        std::fs::write(wal_path(&dir, 1), b"x").unwrap();
        std::fs::write(wal_path(&dir, 2), b"x").unwrap();
        std::fs::write(dir.join("snap-junk.bin.tmp"), b"x").unwrap();
        remove_stale(&dir, 2);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names.len(), 2, "{names:?}");
        assert!(names.contains(&"snap-0000000000000002.bin".to_string()));
        assert!(names.contains(&"wal-0000000000000002.log".to_string()));
    }

    #[test]
    fn empty_dir_recovers_to_empty_state() {
        let dir = tmp_dir("empty");
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.generation, 0);
        assert_eq!(rec.table.next_id(), SessionId::from_raw(0));
        assert!(rec.table.sessions().is_empty());
        assert_eq!(rec.report.snapshot_generation, None);
        assert!(rec.report.corrupt_tail.is_none());
    }
}
