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
//! wrote each WAL record, by the same code: a control record goes through
//! the transition its live call took, and a report delta — logged as the
//! bytes of its rows, whichever shape it came in — through the check
//! every live delta takes, `accept_delta`, into the columns the same
//! [`ShardArena::ingest`] kernels fold as on the workers. Nothing
//! here decides what a session may do; a record the transitions refuse
//! means the log contradicts itself and is a
//! [`CoreError::RecoveryMismatch`].
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
//!
//! ## One streaming pass
//!
//! The log is walked once, a frame at a time (`wal::FrameReader`), and a
//! `Reports` payload never becomes [`WalRecord`] rows: recovery's memory
//! is a few records (`READ_AHEAD + 2` payload buffers, recycled), not
//! the log. A scoped thread reads and checksums the next frame while
//! this one decodes, checks and folds the current one. The order errors
//! are found in is the order two passes found them in — a payload's
//! structure before its place in the lifecycle, and nothing behind the
//! first bad frame.

use crate::batch::{Batch, ColumnarBatch, RoundKey};
use crate::codec::{
    crc32, put_enveloped, put_estimate, put_f64, put_request, put_u32, put_u64, take_estimate,
    take_request, Cursor,
};
use crate::machine::{
    Closing, Delta, EncodedSubmitError, OpenRound, Opening, Session, SessionId, SessionStatus,
    SessionTable,
};
use crate::shard::{ShardAccumulator, ShardArena, ShardTally};
use crate::wal::{self, wal_err, FrameReader, FramesEnd, WalRecord};
use ldp_fo::OracleHandle;
use ldp_ids::protocol::ReportRequest;
use ldp_ids::CoreError;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::mpsc;

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
    /// Responses those records folded into open rounds (deltas the
    /// snapshot already covered are skipped, and not counted).
    pub reports_replayed: u64,
    /// Bytes of WAL replayed: the valid prefix, magic and frame headers
    /// included.
    pub wal_bytes_read: u64,
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
            // The format's list of responses no shard has seen yet: the
            // service folds every accepted delta, so it is always empty.
            put_u32(out, 0);
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
            let open = OpenRound::new(id, request)
                .map_err(|e| format!("round parameters no longer build an oracle: {e}"))?;
            // A snapshot written while the service kept responses back
            // for a fuller batch lists them here; they join the tally.
            let (kind, d) = (open.oracle.kind(), open.oracle.domain_size());
            let held = ColumnarBatch::decode(kind, d, open.key.round, &mut cur)?;
            let mut shard = ShardAccumulator::with_tally(open.key, open.oracle.clone(), tally);
            shard.fold_columns(&held);
            tallies.insert(open.key, shard.into_tally());
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

/// Take `table` through the transition a control `record` logged, and
/// `arena` through its effects — what the live service did when it wrote
/// the record, with the log checked where the live service appended to
/// it. Report deltas are [`replay_payload`]'s: they never become rows.
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
        WalRecord::Reports { .. } => unreachable!("replay_payload folds deltas from their bytes"),
        WalRecord::CloseRound {
            session,
            round,
            refusals,
            estimate,
        } => {
            let id = SessionId::from_raw(session);
            let closing = table.begin_close(id, Some(round))?;
            let Closing::Begun(open) = closing else {
                return Err(mismatch(format!(
                    "session {session} closes round {round} twice"
                )));
            };
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

/// Replay one checksum-valid WAL payload; returns the responses folded.
/// A report delta takes the check live ingest takes, `accept_delta` of
/// the bytes it logged, and is folded from the columns that hands back;
/// any other record is decoded and [`replay`]ed. `Undecodable`:
/// the payload is not a record, and the log ends in front of it.
fn replay_payload(
    table: &mut SessionTable,
    arena: &mut ShardArena,
    payload: &[u8],
) -> Result<u64, EncodedSubmitError> {
    if payload.first() != Some(&wal::TAG_REPORTS) {
        let record = WalRecord::decode(payload).map_err(EncodedSubmitError::Undecodable)?;
        replay(table, arena, record)?;
        return Ok(0);
    }
    let mut cur = Cursor::new(&payload[1..]);
    let mut header = || cur.u64().map_err(EncodedSubmitError::Undecodable);
    let (session, round, seq) = (header()?, header()?, header()?);
    let delta = &payload[payload.len() - cur.remaining()..];
    let id = SessionId::from_raw(session);
    // `None`: already folded into the snapshot this WAL follows.
    let accepted = table.accept_delta(id, Some(round), Some(seq), Delta::Bytes(delta));
    let Some((step, columns)) = accepted? else {
        return Ok(0);
    };
    let open = step.apply();
    let folded = columns.responses();
    arena.ingest(Batch {
        key: open.key,
        oracle: open.oracle.clone(),
        columns,
    });
    Ok(folded)
}

/// Payloads the reader may hold verified ahead of the one being folded.
const READ_AHEAD: usize = 2;

/// What a pass over the WAL replayed.
#[derive(Default)]
struct Replayed {
    records: u64,
    reports: u64,
}

/// A record the transitions refuse means the log contradicts the state
/// it is replayed onto; `i` is the record's place in the log.
fn contradiction(i: u64, e: CoreError) -> CoreError {
    match e {
        CoreError::RecoveryMismatch { .. } => e,
        rule => mismatch(format!("WAL record {i} breaks the lifecycle: {rule}")),
    }
}

/// The fold's half of [`replay_wal`]: replay each verified payload and
/// hand its buffer back. With what it replayed, `Some` end of the log
/// when a payload turned out not to be a record. Returning hangs up on
/// the reader.
fn fold_verified(
    verified: mpsc::Receiver<(u64, Vec<u8>)>,
    recycle: mpsc::Sender<Vec<u8>>,
    path: &Path,
    table: &mut SessionTable,
    arena: &mut ShardArena,
) -> Result<(Replayed, Option<FramesEnd>), CoreError> {
    let mut replayed = Replayed::default();
    for (at, payload) in verified {
        match replay_payload(table, arena, &payload) {
            Ok(reports) => replayed.reports += reports,
            Err(EncodedSubmitError::Undecodable(detail)) => {
                let end = FramesEnd {
                    valid_len: at,
                    corrupt_tail: Some(wal::undecodable(path, at, &detail)),
                };
                return Ok((replayed, Some(end)));
            }
            Err(EncodedSubmitError::Rule(e)) => return Err(contradiction(replayed.records, e)),
        }
        replayed.records += 1;
        let _ = recycle.send(payload);
    }
    Ok((replayed, None))
}

/// Replay every frame of `frames` onto `table` and `arena`, in one pass:
/// a scoped thread reads and checksums frame `i + 1` while this one
/// decodes, checks and folds frame `i`. The payload buffers go round
/// between the two, so the log's footprint here is `READ_AHEAD + 2`
/// records, whatever its length.
fn replay_wal(
    mut frames: FrameReader,
    path: &Path,
    table: &mut SessionTable,
    arena: &mut ShardArena,
) -> Result<(Replayed, FramesEnd), CoreError> {
    std::thread::scope(|scope| {
        let (verified_tx, verified) = mpsc::sync_channel(READ_AHEAD);
        let (recycle, recycled) = mpsc::channel::<Vec<u8>>();
        let read = move || -> Result<FramesEnd, CoreError> {
            loop {
                let mut payload = recycled.try_recv().unwrap_or_default();
                match frames.next_into(&mut payload)? {
                    Some(at) if verified_tx.send((at, payload)).is_ok() => {}
                    // The walk ended, or the fold did and hung up.
                    _ => return Ok(frames.end()),
                }
            }
        };
        let reader = std::thread::Builder::new()
            .name("ldp-wal-read".into())
            .spawn_scoped(scope, read)
            .expect("spawn WAL reader");
        let folded = fold_verified(verified, recycle, path, table, arena);
        let walked = reader.join().expect("the WAL reader does not panic");
        let (replayed, undecodable) = folded?;
        let end = match undecodable {
            Some(end) => end,
            None => walked?,
        };
        Ok((replayed, end))
    })
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
    let mut arena = ShardArena::new();
    seed_each(&table, tallies, |key, oracle, tally| {
        arena.seed(key, oracle, tally)
    });

    let path = wal_path(dir, generation);
    // No WAL, no reader thread: a first open has nothing to overlap.
    let (replayed, end) = match FrameReader::open(&path)? {
        Some(frames) => replay_wal(frames, &path, &mut table, &mut arena)?,
        None => Default::default(),
    };

    let still_open = open_rounds(&table).into_iter();
    let tallies: Tallies = still_open
        .map(|open| (open.key, arena.close(open.key, open.request.domain_size)))
        .collect();
    let report = RecoveryReport {
        snapshot_generation: snapshot_gen,
        wal_records_replayed: replayed.records,
        reports_replayed: replayed.reports,
        wal_bytes_read: end.valid_len,
        sessions: table.sessions().len(),
        open_rounds: tallies.len(),
        corrupt_tail: end.corrupt_tail,
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
    use crate::codec::put_responses;
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
        let open = Session::restore(
            SessionStatus {
                next_round: 1,
                next_seq: 3,
                ..SessionStatus::default()
            },
            None,
            Some(OpenRound::new(SessionId::from_raw(2), request).unwrap()),
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

    /// The payload written for `sample_state()` when session 2's open
    /// round also held one response no shard had seen, a `Grr(1)` —
    /// captured from the commit before this pin existed (PR 11, where it
    /// was `SnapshotState::encode`). The *read* pin: the `LDPSNP01`
    /// payload layout is pinned, not assumed, and a snapshot holding such
    /// a list still loads.
    const SAMPLE_STATE_HEX: &str = "\
        0300000000000000020000000000000000000000020000000000000009000000\
        000000000400000000000000000000000000f83f010100000000000000640000\
        0000000000000000000000e83f02000000000000000000d03f000000000000e8\
        3f02000000000000000100000000000000030000000000000000000000000000\
        0000000000000000000200000000000000000500000000000000000000000000\
        0000400300000003000000050000000000000006000000000000000700000000\
        0000001200000000000000000000000000000000000000000000000100000000\
        00000000000000000001000000";

    /// `put_state` of `sample_state()` with nothing held back, captured
    /// from the commit before the service stopped holding responses back:
    /// the *write* pin. The read pin's bytes, with an empty list.
    const SAMPLE_STATE_WRITTEN_HEX: &str = "\
        0300000000000000020000000000000000000000020000000000000009000000\
        000000000400000000000000000000000000f83f010100000000000000640000\
        0000000000000000000000e83f02000000000000000000d03f000000000000e8\
        3f02000000000000000100000000000000030000000000000000000000000000\
        0000000000000000000200000000000000000500000000000000000000000000\
        0000400300000003000000050000000000000006000000000000000700000000\
        00000012000000000000000000000000000000000000000000000000000000";

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(hex: &str) -> Vec<u8> {
        let digits = |i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap();
        (0..hex.len()).step_by(2).map(digits).collect()
    }

    /// What `put_state` writes.
    fn state_payload(table: &SessionTable, tallies: &Tallies) -> Vec<u8> {
        let mut out = Vec::new();
        put_state(&mut out, table, tallies);
        out
    }

    /// What a writer that held responses back wrote for `table` and
    /// `tallies` with the read pin's `Grr(1)` held back for the open round
    /// that ends the payload: `put_state`'s bytes, that row in the list.
    fn encode_state(table: &SessionTable, tallies: &Tallies) -> Vec<u8> {
        let mut out = state_payload(table, tallies);
        let list = out.len() - 4;
        assert_eq!(out[list..], 0u32.to_le_bytes(), "ends in an empty list");
        out.truncate(list);
        let held = UserResponse::Report {
            round: 0,
            report: ldp_fo::Report::Grr(1),
        };
        put_responses(&mut out, &[held]);
        out
    }

    #[test]
    fn snapshot_encoding_is_byte_stable() {
        let (table, tallies) = sample_state();
        assert_eq!(
            hex(&state_payload(&table, &tallies)),
            SAMPLE_STATE_WRITTEN_HEX
        );
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
        let payload = state_payload(&table, &tallies);
        let mut want = SNAP_MAGIC.to_vec();
        want.extend_from_slice(&7u64.to_le_bytes());
        want.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        want.extend_from_slice(&crc32(&payload).to_le_bytes());
        want.extend_from_slice(&payload);
        assert_eq!(hex(&payload), SAMPLE_STATE_WRITTEN_HEX);
        assert_eq!(std::fs::read(snap_path(&dir, 7)).unwrap(), want);
    }

    #[test]
    fn snapshot_state_roundtrips() {
        let (table, tallies) = sample_state();
        let bytes = state_payload(&table, &tallies);
        let (decoded, decoded_tallies) = decode_state(&bytes).unwrap();
        assert_eq!(decoded_tallies, tallies);
        assert_eq!(decoded.next_id(), SessionId::from_raw(3));
        let open = decoded.get(SessionId::from_raw(2)).unwrap();
        assert_eq!(open.status().open_round, Some(0));
        assert_eq!(state_payload(&decoded, &decoded_tallies), bytes);
    }

    /// The read pin loads with its held-back `Grr(1)` folded into the
    /// open round's tally, and writes back as that state with nothing
    /// held back.
    #[test]
    fn a_held_back_list_joins_the_tally_at_load() {
        let (table, mut tallies) = sample_state();
        let (decoded, decoded_tallies) = decode_state(&unhex(SAMPLE_STATE_HEX)).unwrap();
        let tally = tallies.values_mut().next().unwrap();
        assert_eq!((&tally.support, tally.reporters), (&vec![5, 6, 7], 18));
        (tally.support[1], tally.reporters) = (7, 19);
        assert_eq!(decoded_tallies, tallies);
        assert_eq!(
            state_payload(&decoded, &decoded_tallies),
            state_payload(&table, &tallies)
        );
    }

    /// A snapshot claiming more pending responses than its bytes can
    /// hold is refused on the count, before a vector is reserved for it.
    #[test]
    fn forged_pending_count_is_refused_before_allocating() {
        let (table, tallies) = sample_state();
        let mut bytes = encode_state(&table, &tallies);
        // The one pending response is the payload's last 14 bytes; its
        // count sits in front of it.
        let count = bytes.len() - 14 - 4;
        assert_eq!(bytes[count..count + 4], 1u32.to_le_bytes());
        bytes[count..count + 4].copy_from_slice(&(16u32 << 20).to_le_bytes());
        bytes.resize(16 << 20, 0);
        let err = decode_state(&bytes).unwrap_err();
        assert!(err.contains("response count 16777216 exceeds"), "{err}");
    }

    #[test]
    fn snapshot_file_roundtrips() {
        let dir = tmp_dir("file_roundtrip");
        let (table, tallies) = sample_state();
        write_snapshot(&dir, 7, &table, &tallies).unwrap();
        let (read, read_tallies) = read_snapshot(&snap_path(&dir, 7)).unwrap();
        assert_eq!(
            state_payload(&read, &read_tallies),
            state_payload(&table, &tallies)
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

    /// A snapshot holding a list of held-back responses (the read pin)
    /// recovers with them in the tally, and its WAL tail on top.
    #[test]
    fn recover_from_snapshot_folds_pending_and_replays_tail() {
        let dir = tmp_dir("snap_plus_tail");
        let mut file = SNAP_MAGIC.to_vec();
        put_u64(&mut file, 4);
        put_enveloped(&mut file, |out| out.extend(unhex(SAMPLE_STATE_HEX)));
        std::fs::write(snap_path(&dir, 4), file).unwrap();
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
        // Snapshot tally [5,6,7]/18 reporters, its held-back Grr(1), and
        // the new Grr(0) delta; the duplicate Grr(2) must not be folded.
        let tally = rec.tallies.values().next().unwrap();
        assert_eq!(tally.support, vec![6, 7, 7]);
        assert_eq!(tally.reporters, 20);

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

    /// What a recovery of generation 0's WAL comes to: records replayed,
    /// reports folded, valid length, the tail, and the recovered state in
    /// its snapshot encoding — or the error that refused the log.
    type Outcome = Result<(u64, u64, u64, Option<CoreError>, Vec<u8>), CoreError>;

    fn single_pass(dir: &Path) -> Outcome {
        let rec = recover(dir)?;
        let report = rec.report;
        Ok((
            report.wal_records_replayed,
            report.reports_replayed,
            report.wal_bytes_read,
            report.corrupt_tail,
            state_payload(&rec.table, &rec.tallies),
        ))
    }

    /// [`replay`], and a report delta as rows: `accept_delta` of the rows
    /// behind the head round, then `Batch::encode` — the row path that
    /// replay of the delta's bytes is held to.
    fn replay_rows(
        table: &mut SessionTable,
        arena: &mut ShardArena,
        record: WalRecord,
    ) -> Result<u64, CoreError> {
        let WalRecord::Reports {
            session,
            round,
            seq,
            responses,
        } = record
        else {
            return replay(table, arena, record).map(|()| 0);
        };
        let id = SessionId::from_raw(session);
        let accepted = table.accept_delta(id, Some(round), Some(seq), Delta::Rows(&responses));
        // `None`: already folded into the snapshot this WAL follows.
        let Some((step, _)) = accepted.map_err(|e| match e {
            EncodedSubmitError::Rule(e) => e,
            EncodedSubmitError::Undecodable(detail) => {
                unreachable!("rows are not decoded: {detail}")
            }
        })?
        else {
            return Ok(0);
        };
        let open = step.apply();
        let folded = responses.len() as u64;
        arena.ingest(Batch::encode(open.key, &open.oracle, responses));
        Ok(folded)
    }

    /// The two passes `recover` was before it streamed: `wal::scan` the
    /// whole log into records, then replay them one by one, as rows.
    fn scan_then_replay(dir: &Path) -> Outcome {
        let scan = wal::scan(&wal_path(dir, 0))?;
        let (mut table, mut arena) = (SessionTable::default(), ShardArena::new());
        let (records, mut reports) = (scan.records.len() as u64, 0);
        for (i, record) in scan.records.into_iter().enumerate() {
            reports += replay_rows(&mut table, &mut arena, record)
                .map_err(|e| contradiction(i as u64, e))?;
        }
        let tallies: Tallies = open_rounds(&table)
            .into_iter()
            .map(|open| (open.key, arena.close(open.key, open.request.domain_size)))
            .collect();
        let state = state_payload(&table, &tallies);
        Ok((records, reports, scan.valid_len, scan.corrupt_tail, state))
    }

    /// A small log with every record kind in it: session 0 closes a GRR
    /// round and has an OLH round open, session 1 has an OUE round open
    /// (regular rows, a leftover, a refusal), session 2 came and went.
    fn multi_record_wal(path: &Path) -> usize {
        let request = |round, fo, domain_size| ReportRequest {
            round,
            t: round,
            fo,
            epsilon: 1.0,
            domain_size,
        };
        let report = |round, report| UserResponse::Report { round, report };
        let refused = |round| UserResponse::Refused {
            round,
            requested: 1.0,
            available: 0.5,
        };
        let oue = |bits: Vec<u64>| ldp_fo::Report::Oue { bits, len: 70 };
        let grr = build_oracle(FoKind::Grr, 1.0, 3).unwrap();
        let records = vec![
            WalRecord::CreateSession { session: 0 },
            WalRecord::OpenRound {
                session: 0,
                request: request(0, FoKind::Grr, 3),
            },
            WalRecord::Reports {
                session: 0,
                round: 0,
                seq: 0,
                responses: vec![
                    report(0, ldp_fo::Report::Grr(2)),
                    refused(0),
                    report(0, ldp_fo::Report::Grr(0)),
                ],
            },
            WalRecord::CreateSession { session: 1 },
            WalRecord::OpenRound {
                session: 1,
                request: request(0, FoKind::Oue, 70),
            },
            WalRecord::Reports {
                session: 1,
                round: 0,
                seq: 0,
                responses: vec![
                    report(0, oue(vec![0b1011, 0b10])),
                    report(0, oue(vec![u64::MAX; 3])),
                    refused(0),
                    report(0, oue(vec![1 << 40, 0])),
                ],
            },
            WalRecord::CloseRound {
                session: 0,
                round: 0,
                refusals: 1,
                estimate: RoundEstimate {
                    frequencies: grr.estimate(&[1, 0, 1], 2),
                    reporters: 2,
                    epsilon: 1.0,
                },
            },
            WalRecord::OpenRound {
                session: 0,
                request: request(1, FoKind::Olh, 5),
            },
            WalRecord::Reports {
                session: 0,
                round: 1,
                seq: 1,
                responses: vec![report(1, ldp_fo::Report::Olh { seed: 9, bucket: 1 })],
            },
            WalRecord::CreateSession { session: 2 },
            WalRecord::EndSession { session: 2 },
            WalRecord::Reports {
                session: 1,
                round: 0,
                seq: 1,
                responses: vec![report(0, ldp_fo::Report::Grr(1))],
            },
        ];
        let mut wal = wal::Wal::create(path, crate::wal::WalSync::None).unwrap();
        for record in &records {
            wal.append(record).unwrap().wait().unwrap();
        }
        records.len()
    }

    /// On every broken log — the multi-record WAL cut at every length,
    /// and with every one of its bits flipped — the single streaming
    /// pass recovers what `wal::scan` then `replay` does: as many
    /// records, as long a valid prefix, the same tail, the same table
    /// and tallies, or the same refusal.
    #[test]
    fn single_pass_matches_wal_scan_then_replay_on_every_broken_log() {
        let dir = tmp_dir("scan_equivalence");
        let path = wal_path(&dir, 0);
        let records = multi_record_wal(&path) as u64;
        let bytes = std::fs::read(&path).unwrap();

        let (replayed, reports, valid_len, tail, _) = single_pass(&dir).unwrap();
        assert_eq!((replayed, reports, tail), (records, 9, None));
        assert_eq!(valid_len, bytes.len() as u64);
        assert_eq!(single_pass(&dir), scan_then_replay(&dir));

        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let got = single_pass(&dir);
            assert_eq!(got, scan_then_replay(&dir), "cut at {cut}");
            match got {
                Ok((replayed, _, valid_len, tail, _)) => {
                    assert!(
                        replayed < records && valid_len <= cut as u64,
                        "cut at {cut}"
                    );
                    // Clean only when cut between two frames; half a
                    // magic is a short header.
                    let torn = valid_len < cut as u64 || cut < 8;
                    assert_eq!(tail.is_some(), torn, "cut at {cut}");
                }
                // Nothing refuses a log for being short.
                Err(e) => panic!("cut at {cut}: {e}"),
            }
        }
        for bit in 0..8 * bytes.len() {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &flipped).unwrap();
            let got = single_pass(&dir);
            assert_eq!(got, scan_then_replay(&dir), "bit {bit} flipped");
            match got {
                Ok((replayed, _, _, tail, _)) => {
                    assert!(replayed < records && tail.is_some(), "bit {bit} flipped")
                }
                Err(e) => assert!(bit < 64, "bit {bit} flipped: {e}"),
            }
        }
    }

    /// Write a WAL of checksum-valid frames around arbitrary payloads.
    fn write_frames(path: &Path, payloads: &[Vec<u8>]) {
        let mut bytes = wal::WAL_MAGIC.to_vec();
        for payload in payloads {
            put_enveloped(&mut bytes, |out| out.extend_from_slice(payload));
        }
        std::fs::write(path, bytes).unwrap();
    }

    /// Structure before lifecycle: a checksum-valid `Reports` payload
    /// that does not decode ends the log at its offset — a corrupt tail,
    /// recovery succeeds — whether or not the table has a round open for
    /// it, and nothing behind it is replayed. One that does decode and
    /// has no round is the lifecycle's to refuse.
    #[test]
    fn undecodable_reports_are_a_corrupt_tail_before_they_are_a_lifecycle_error() {
        let dir = tmp_dir("structure_first");
        let path = wal_path(&dir, 0);
        let delta = |session, rows: &[UserResponse]| {
            let responses = rows.to_vec();
            let (round, seq) = (0, 0);
            WalRecord::Reports {
                session,
                round,
                seq,
                responses,
            }
            .encode()
        };
        let row = UserResponse::Report {
            round: 0,
            report: ldp_fo::Report::Grr(1),
        };
        let create = WalRecord::CreateSession { session: 0 }.encode();
        let open = WalRecord::OpenRound {
            session: 0,
            request: ReportRequest {
                round: 0,
                t: 0,
                fo: FoKind::Grr,
                epsilon: 1.0,
                domain_size: 3,
            },
        }
        .encode();
        let good = delta(0, &[row.clone(), row.clone()]);
        let truncated = good[..good.len() - 3].to_vec();
        let mut trailing = good.clone();
        trailing.push(0);
        let mut bad_tag = good.clone();
        bad_tag[29] = 7; // the first response's tag
        let mut forged_count = good.clone();
        forged_count[25..29].copy_from_slice(&u32::MAX.to_le_bytes());

        for broken in [&truncated, &trailing, &bad_tag, &forged_count] {
            // With the round open, without a round, without a session:
            // the log ends in front of the broken delta all the same.
            let prefixes = [
                vec![create.clone(), open.clone(), good.clone()],
                vec![create.clone()],
                vec![],
            ];
            for prefix in prefixes {
                let mut payloads = prefix.clone();
                payloads.push(broken.clone());
                payloads.push(create.clone());
                write_frames(&path, &payloads);
                let got = single_pass(&dir);
                assert_eq!(got, scan_then_replay(&dir));
                let (replayed, _, valid_len, tail, _) = got.unwrap();
                let before: usize = prefix.iter().map(|p| 8 + p.len()).sum();
                assert_eq!(replayed, prefix.len() as u64);
                assert_eq!(valid_len, 8 + before as u64);
                match tail {
                    Some(CoreError::Corrupt { offset, detail, .. }) => {
                        assert_eq!(offset, valid_len);
                        assert!(detail.starts_with("undecodable payload"), "{detail}");
                    }
                    other => panic!("expected an undecodable tail, got {other:?}"),
                }
            }
        }

        // Well-formed, and nothing to fold it into: the log contradicts
        // itself, which is not a tail to cut off.
        for prefix in [vec![create.clone()], vec![]] {
            let mut payloads = prefix;
            payloads.push(good.clone());
            write_frames(&path, &payloads);
            let got = single_pass(&dir);
            assert_eq!(got, scan_then_replay(&dir));
            assert!(matches!(got, Err(CoreError::RecoveryMismatch { .. })));
        }
        // A response echoing another round than the open one, likewise.
        let stale = UserResponse::Report {
            round: 4,
            report: ldp_fo::Report::Grr(1),
        };
        write_frames(&path, &[create, open, delta(0, &[row, stale])]);
        let got = single_pass(&dir);
        assert_eq!(got, scan_then_replay(&dir));
        match got {
            Err(CoreError::RecoveryMismatch { detail }) => {
                assert!(detail.contains("WAL record 2"), "{detail}")
            }
            other => panic!("expected a lifecycle refusal, got {other:?}"),
        }
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
