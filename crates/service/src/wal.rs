//! The write-ahead log: an append-only stream of length-prefixed,
//! CRC-checksummed frames recording every state transition of an
//! [`IngestService`](crate::IngestService) *before* it is acknowledged.
//!
//! ## File format
//!
//! ```text
//! [ magic "LDPWAL01" : 8 bytes ]
//! [ frame ]*
//!
//! frame := [ payload_len : u32 LE ][ crc32(payload) : u32 LE ][ payload ]
//! ```
//!
//! The payload is one [`WalRecord`] in a fixed little-endian binary
//! encoding (floats as IEEE-754 bit patterns, so replayed estimates are
//! bit-identical). A reader stops at the first incomplete or
//! checksum-failing frame — a torn tail from a crash mid-append loses at
//! most the record that was never acknowledged, and recovery resumes
//! from the last complete record with a typed
//! [`CoreError::Corrupt`] surfaced, never a panic.
//!
//! ## Sync levels
//!
//! [`WalSync`] picks the fsync discipline: `Always` makes every frame
//! durable before it is acknowledged; `Batch` does so for every control
//! frame (session lifecycle, round close) and never lets more than
//! `SYNC_BATCH_RECORDS − 1` (31, see [`SYNC_BATCH_RECORDS`])
//! acknowledged report frames be unsynced; `None` leaves flushing to
//! the OS.
//!
//! ## Group commit
//!
//! No level issues an `fdatasync` inline. Under `Always` and `Batch`,
//! [`Wal::append`] writes the frame and hands back a pending
//! [`Commit`]; the caller acknowledges only after [`Commit::wait`]
//! returns, and waits after releasing its locks. Waiters coordinate
//! through a shared [`GroupCommit`]: the first waiter becomes the
//! *leader* and issues a single `sync_data` covering **every frame
//! written so far** — including frames appended by other sessions while
//! the leader was syncing — and all covered waiters return from the one
//! fsync. Concurrent sessions therefore coalesce their fsyncs into one
//! disk barrier per write burst instead of queueing one `fdatasync`
//! each.
//!
//! What a commit waits for is the level's bound. Under `Always`, and for
//! a control frame under `Batch`, it is the frame itself. A report frame
//! under `Batch` waits only for the frame `SYNC_BATCH_RECORDS − 1`
//! records before it. A `Batch` WAL also runs one flusher thread that
//! leads a sync whenever half a batch is unsynced, so that wait is
//! normally met before anyone reaches it; when the flusher falls behind,
//! the appender leads the sync itself. A failed fsync poisons the
//! generation: every later wait, and so every later acknowledgement,
//! fails. A torn or unsynced tail only ever loses frames the level
//! allowed to be unsynced (the scan stops at the first bad frame, so no
//! acknowledged record can survive *behind* a lost one).

use crate::codec::{
    crc32, crc32_combine, put_enveloped, put_estimate, put_request, put_responses, put_u64,
    take_estimate, take_request, take_responses, Cursor,
};
use crate::faults;
use crate::machine::Delta;
use crate::obs::WalObs;
use ldp_ids::collector::RoundEstimate;
use ldp_ids::protocol::{ReportRequest, UserResponse};
use ldp_ids::CoreError;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"LDPWAL01";

/// The sync batch of [`WalSync::Batch`]: an acknowledged report frame
/// leaves at most `SYNC_BATCH_RECORDS − 1` records before it unsynced.
pub const SYNC_BATCH_RECORDS: u64 = 32;

/// Unsynced records at which a `Batch` WAL's flusher starts a sync:
/// half a batch, so the frame a report waits for is normally durable
/// before the report's own append.
const FLUSH_AT: u64 = SYNC_BATCH_RECORDS / 2;

/// Fsync discipline of the write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalSync {
    /// Never fsync explicitly; durability is whatever the OS page cache
    /// gives. Fastest; a host crash can lose acknowledged reports.
    None,
    /// Every control frame (session lifecycle, round close) is durable
    /// before its ack; a report frame is acknowledged once the frame
    /// `SYNC_BATCH_RECORDS − 1` records before it is durable. A host
    /// crash thus loses at most `SYNC_BATCH_RECORDS − 1` (31, see
    /// [`SYNC_BATCH_RECORDS`]) acknowledged report frames; round results
    /// are always durable. A flusher thread per WAL keeps the syncs off
    /// the ack path.
    #[default]
    Batch,
    /// Fsync every frame before acknowledging it. Strongest; one
    /// `fdatasync` per append.
    Always,
}

impl WalSync {
    /// Stable lowercase name (used in bench artifacts).
    pub fn name(self) -> &'static str {
        match self {
            WalSync::None => "none",
            WalSync::Batch => "batch",
            WalSync::Always => "always",
        }
    }
}

/// One durable state transition.
///
/// Everything an [`IngestService`](crate::IngestService) acknowledges is
/// one of these, logged before the in-memory state mutates.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A session was created.
    CreateSession {
        /// The new session's raw id.
        session: u64,
    },
    /// A collection round was opened on `session`.
    OpenRound {
        /// The owning session's raw id.
        session: u64,
        /// The round's report request (oracle parameters included, so
        /// replay can reconstruct the round oracle deterministically).
        request: ReportRequest,
    },
    /// A batch of responses was accepted into `session`'s open round.
    Reports {
        /// The owning session's raw id.
        session: u64,
        /// The round the responses belong to.
        round: u64,
        /// The session's write-ahead sequence number of this delta —
        /// replay and client retries deduplicate on it.
        seq: u64,
        /// The accepted responses.
        responses: Vec<UserResponse>,
    },
    /// `session`'s open round was closed and estimated.
    CloseRound {
        /// The owning session's raw id.
        session: u64,
        /// The round that closed.
        round: u64,
        /// Refusals tallied in the round.
        refusals: u64,
        /// The round estimate (bit-exact: floats travel as IEEE-754
        /// bits), cached so a client retry of an acknowledged close
        /// returns the identical result.
        estimate: RoundEstimate,
    },
    /// A session ended.
    EndSession {
        /// The ended session's raw id.
        session: u64,
    },
}

/// The payload tag of [`WalRecord::Reports`]. Recovery peeks it: a report
/// delta is decoded straight into columns, never into this enum.
pub(crate) const TAG_REPORTS: u8 = 3;

impl WalRecord {
    /// Whether this is a control record (durable before its ack under
    /// [`WalSync::Batch`]).
    pub fn is_control(&self) -> bool {
        !matches!(self, WalRecord::Reports { .. })
    }

    /// Encode into the WAL's binary payload format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Append what [`encode`](Self::encode) returns to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::CreateSession { session } => {
                out.push(1);
                put_u64(out, *session);
            }
            WalRecord::OpenRound { session, request } => {
                out.push(2);
                put_u64(out, *session);
                put_request(out, request);
            }
            WalRecord::Reports {
                session,
                round,
                seq,
                responses,
            } => {
                put_reports_head(out, *session, *round, *seq);
                put_responses(out, responses);
            }
            WalRecord::CloseRound {
                session,
                round,
                refusals,
                estimate,
            } => {
                out.push(4);
                put_u64(out, *session);
                put_u64(out, *round);
                put_u64(out, *refusals);
                put_estimate(out, estimate);
            }
            WalRecord::EndSession { session } => {
                out.push(5);
                put_u64(out, *session);
            }
        }
    }

    /// Decode one payload produced by [`WalRecord::encode`].
    pub fn decode(payload: &[u8]) -> Result<WalRecord, String> {
        let mut cur = Cursor::new(payload);
        let record = match cur.u8()? {
            1 => WalRecord::CreateSession {
                session: cur.u64()?,
            },
            2 => WalRecord::OpenRound {
                session: cur.u64()?,
                request: take_request(&mut cur)?,
            },
            TAG_REPORTS => WalRecord::Reports {
                session: cur.u64()?,
                round: cur.u64()?,
                seq: cur.u64()?,
                responses: take_responses(&mut cur)?,
            },
            4 => WalRecord::CloseRound {
                session: cur.u64()?,
                round: cur.u64()?,
                refusals: cur.u64()?,
                estimate: take_estimate(&mut cur)?,
            },
            5 => WalRecord::EndSession {
                session: cur.u64()?,
            },
            tag => return Err(format!("unknown record tag {tag}")),
        };
        cur.finish()?;
        Ok(record)
    }
}

/// What a [`WalRecord::Reports`] payload holds in front of its responses.
fn put_reports_head(out: &mut Vec<u8>, session: u64, round: u64, seq: u64) {
    out.push(TAG_REPORTS);
    put_u64(out, session);
    put_u64(out, round);
    put_u64(out, seq);
}

/// WAL write/sync counters, exposed for durability benchmarks via
/// [`IngestService::wal_stats`](crate::IngestService::wal_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Records appended to the current WAL generation.
    pub records: u64,
    /// `fdatasync` calls the generation's [`GroupCommit`] issued, by
    /// waiters and the `Batch` flusher alike. With concurrent sessions
    /// this is *less* than `records` even at [`WalSync::Always`] — the
    /// coalescing win.
    pub syncs: u64,
    /// The highest record known durable; `records − durable` are
    /// written but not yet synced.
    pub durable: u64,
}

/// The durability obligation returned by [`Wal::append`].
///
/// `Durable` means the sync level asks for nothing ([`WalSync::None`]).
/// `Pending` means the level's bound is not yet known to hold; the
/// caller must [`wait`](Commit::wait) — *after releasing any locks it
/// shares with other appenders* — before acknowledging the operation
/// the record describes. Waiting off-lock is what lets the shared
/// [`GroupCommit`] coalesce concurrent sessions' fsyncs.
#[derive(Debug)]
#[must_use = "a pending commit must be waited on before the record is acknowledged"]
pub enum Commit {
    /// Already as durable as the sync level promises.
    Durable,
    /// Written but unsynced: wait on the group before acknowledging.
    Pending {
        /// The WAL's fsync coordinator.
        group: Arc<GroupCommit>,
        /// The record that must be durable first: this one, or under
        /// [`WalSync::Batch`] for a report frame the one
        /// `SYNC_BATCH_RECORDS − 1` before it (0 while there is none,
        /// which still fails on a poisoned generation).
        ticket: u64,
    },
}

impl Commit {
    /// Block until the record is durable (a no-op for `Durable`).
    pub fn wait(self) -> Result<(), CoreError> {
        match self {
            Commit::Durable => Ok(()),
            Commit::Pending { group, ticket } => group.wait(ticket),
        }
    }
}

/// The group-commit coordinator: one per WAL generation, shared (via
/// `Arc`) between the WAL owner, its `Batch` flusher and every in-flight
/// [`Commit`] waiter.
///
/// The leader/follower protocol in [`wait`](GroupCommit::wait) issues
/// one `sync_data` per *burst*: the first waiter syncs up to the highest
/// frame written at that moment; every waiter covered by that barrier
/// returns without touching the disk.
#[derive(Debug)]
pub struct GroupCommit {
    /// A clone of the WAL's file handle (same kernel file description,
    /// so `sync_data` here flushes frames written through the WAL).
    file: File,
    path: PathBuf,
    state: Mutex<CommitState>,
    cond: Condvar,
    /// Where a `Batch` flusher parks until [`FLUSH_AT`] records are
    /// unsynced.
    flusher: Condvar,
    syncs: AtomicU64,
    obs: WalObs,
}

#[derive(Debug, Default)]
struct CommitState {
    /// Highest ticket written to the file.
    written: u64,
    /// Highest ticket known durable; `u64::MAX` once retired.
    synced: u64,
    /// A leader is currently inside `sync_data`.
    syncing: bool,
    /// The flusher is parked and wants waking at [`FLUSH_AT`].
    parked: bool,
    /// A failed fsync poisons the generation: durability can no longer
    /// be promised, so every subsequent wait fails too.
    failed: Option<String>,
}

impl GroupCommit {
    fn new(file: File, path: PathBuf, obs: WalObs) -> Arc<Self> {
        Arc::new(GroupCommit {
            file,
            path,
            state: Mutex::new(CommitState::default()),
            cond: Condvar::new(),
            flusher: Condvar::new(),
            syncs: AtomicU64::new(0),
            obs,
        })
    }

    /// The commit state, locked. Every update leaves it valid, so a
    /// panic elsewhere while it was held (poisoning) changes nothing; the
    /// flusher and `Drop` rely on that.
    fn state(&self) -> MutexGuard<'_, CommitState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn note_written(&self, ticket: u64) {
        let mut st = self.state();
        st.written = st.written.max(ticket);
        if st.parked && st.written.saturating_sub(st.synced) >= FLUSH_AT {
            st.parked = false;
            self.flusher.notify_one();
        }
    }

    /// Group-commit fsyncs issued so far.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Block until ticket `ticket` is durable, becoming the sync leader
    /// if nobody else is.
    pub fn wait(&self, ticket: u64) -> Result<(), CoreError> {
        let mut st = self.state();
        loop {
            if let Some(detail) = &st.failed {
                return Err(CoreError::Wal {
                    detail: format!("group commit sync {}: {detail}", self.path.display()),
                });
            }
            if st.synced >= ticket {
                return Ok(());
            }
            if st.syncing {
                st = self.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            st.syncing = true;
            let target = st.written;
            let batch = target.saturating_sub(st.synced);
            drop(st);
            let start = Instant::now();
            let result = if faults::check("wal.fsync_fails") {
                Err(std::io::Error::other("injected fsync failure"))
            } else {
                self.file.sync_data()
            };
            self.obs.fsync_ns.record_duration(start.elapsed());
            self.obs.batch.record(batch);
            self.syncs.fetch_add(1, Ordering::Relaxed);
            st = self.state();
            st.syncing = false;
            match result {
                Ok(()) => st.synced = st.synced.max(target),
                Err(e) => st.failed = Some(e.to_string()),
            }
            self.cond.notify_all();
        }
    }

    /// The `Batch` flusher's loop: lead a sync of everything written
    /// whenever [`FLUSH_AT`] records are unsynced, until the generation
    /// is retired or poisoned.
    fn flush(&self) {
        let mut st = self.state();
        while st.synced != u64::MAX && st.failed.is_none() {
            if st.written.saturating_sub(st.synced) >= FLUSH_AT {
                let target = st.written;
                drop(st);
                // A failure stays in `failed`, for every later waiter.
                let _ = self.wait(target);
                st = self.state();
            } else {
                st.parked = true;
                st = self
                    .flusher
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Release every waiter without another fsync, and stop the flusher —
    /// called when the WAL generation is retired by a snapshot rotation,
    /// which has already made all state durable through the snapshot
    /// itself.
    fn retire(&self) {
        let mut st = self.state();
        st.synced = u64::MAX;
        self.cond.notify_all();
        self.flusher.notify_one();
    }
}

/// An open, appendable WAL file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    sync: WalSync,
    group: Arc<GroupCommit>,
    /// The `Batch` flusher, joined when the generation is retired.
    flusher: Option<JoinHandle<()>>,
    records: u64,
    /// The frame being appended; kept so appends reuse its allocation.
    frame: Vec<u8>,
    obs: WalObs,
}

impl Wal {
    /// Create a fresh WAL at `path` (truncating any existing file),
    /// write the magic header and sync it. Latencies go to a private,
    /// unregistered series; see [`Wal::create_observed`].
    pub fn create(path: &Path, sync: WalSync) -> Result<Wal, CoreError> {
        Wal::create_observed(path, sync, WalObs::unregistered())
    }

    /// [`Wal::create`] recording append/fsync latency and group-commit
    /// batch size into `obs`. A `Batch` WAL starts its flusher thread.
    pub fn create_observed(path: &Path, sync: WalSync, obs: WalObs) -> Result<Wal, CoreError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| wal_err("create", path, &e))?;
        file.write_all(WAL_MAGIC)
            .map_err(|e| wal_err("write header", path, &e))?;
        file.sync_data()
            .map_err(|e| wal_err("sync header", path, &e))?;
        let clone = file
            .try_clone()
            .map_err(|e| wal_err("clone for group commit", path, &e))?;
        let group = GroupCommit::new(clone, path.to_path_buf(), obs.clone());
        let flusher = (sync == WalSync::Batch)
            .then(|| {
                let group = Arc::clone(&group);
                std::thread::Builder::new()
                    .name("wal-flusher".into())
                    .spawn(move || group.flush())
            })
            .transpose()
            .map_err(|e| wal_err("start flusher", path, &e))?;
        Ok(Wal {
            group,
            flusher,
            file,
            path: path.to_path_buf(),
            sync,
            records: 0,
            frame: Vec::new(),
            obs,
        })
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Append/sync counters for this generation.
    pub fn stats(&self) -> WalStats {
        WalStats {
            records: self.records,
            syncs: self.group.syncs(),
            durable: self.group.state().synced,
        }
    }

    /// The file this WAL appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The fsync coordinator shared with this WAL's pending commits.
    pub fn group(&self) -> Arc<GroupCommit> {
        Arc::clone(&self.group)
    }

    /// Append one record, honoring the sync level.
    ///
    /// Must happen before the state transition the record describes is
    /// applied. Under [`WalSync::Always`] and [`WalSync::Batch`] the
    /// returned commit is `Pending`: the caller must [`Commit::wait`] on
    /// it before acknowledging (ideally after releasing shared locks, so
    /// concurrent appenders share one fsync).
    pub fn append(&mut self, record: &WalRecord) -> Result<Commit, CoreError> {
        faults::hit("wal.before_append");
        let start = Instant::now();
        self.frame.clear();
        put_enveloped(&mut self.frame, |out| record.encode_into(out));
        self.write_frame(start, record.is_control())
    }

    /// Append the [`WalRecord::Reports`] of delta `seq` of `session`'s
    /// `round`, in the shape it arrived in, without building the record:
    /// rows are encoded in place, bytes are copied behind the record head
    /// under a checksum combined from the head's and theirs by
    /// [`crc32_combine`] — not read again. Either way the frame is byte
    /// for byte the one [`append`](Self::append) writes for the record.
    /// The caller has checked the delta: nothing here checks that bytes
    /// are a response list.
    pub(crate) fn append_delta(
        &mut self,
        session: u64,
        round: u64,
        seq: u64,
        delta: Delta<'_>,
    ) -> Result<Commit, CoreError> {
        faults::hit("wal.before_append");
        let start = Instant::now();
        let frame = &mut self.frame;
        frame.clear();
        match delta {
            Delta::Rows(rows) => put_enveloped(frame, |out| {
                put_reports_head(out, session, round, seq);
                put_responses(out, rows);
            }),
            Delta::Bytes(encoded) => {
                frame.extend_from_slice(&[0; 8]);
                put_reports_head(frame, session, round, seq);
                let head_crc = crc32(&frame[8..]);
                frame.extend_from_slice(encoded.bytes());
                let len =
                    u32::try_from(frame.len() - 8).expect("payload fits the u32 length prefix");
                let crc = crc32_combine(head_crc, encoded.crc(), encoded.bytes().len());
                debug_assert_eq!(crc, crc32(&frame[8..]));
                frame[..4].copy_from_slice(&len.to_le_bytes());
                frame[4..8].copy_from_slice(&crc.to_le_bytes());
            }
        }
        self.write_frame(start, false)
    }

    /// Write `self.frame`, the envelope of one record, honoring the sync
    /// level. `start` is when the append began.
    fn write_frame(&mut self, start: Instant, control: bool) -> Result<Commit, CoreError> {
        if faults::check("wal.torn_append") {
            // Simulated crash mid-write: half the frame reaches the disk.
            let _ = self.file.write_all(&self.frame[..self.frame.len() / 2]);
            let _ = self.file.sync_data();
            faults::crash("wal.torn_append");
        }
        self.file
            .write_all(&self.frame)
            .map_err(|e| wal_err("append", &self.path, &e))?;
        self.records += 1;
        self.group.note_written(self.records);
        // A `Batch` report frame waits only for the frame a batch less
        // one before it; every other frame, for itself.
        let behind = match (self.sync, control) {
            (WalSync::Batch, false) => SYNC_BATCH_RECORDS - 1,
            _ => 0,
        };
        let commit = self.commit_on(self.records.saturating_sub(behind));
        self.obs.append_ns.record_duration(start.elapsed());
        faults::hit("wal.after_append");
        Ok(commit)
    }

    /// The commit on record `ticket` at this WAL's level; a retried step
    /// waits on the last record written.
    pub(crate) fn commit_on(&self, ticket: u64) -> Commit {
        match self.sync {
            WalSync::None => Commit::Durable,
            WalSync::Batch | WalSync::Always => Commit::Pending {
                group: Arc::clone(&self.group),
                ticket,
            },
        }
    }

    /// Force an fsync of everything appended so far.
    pub fn sync(&mut self) -> Result<(), CoreError> {
        self.group.wait(self.records)
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Rotation (or service teardown) retires this generation: any
        // still-parked waiter was made durable by the snapshot that
        // replaced the log, so release them rather than strand them.
        self.group.retire();
        if let Some(flusher) = self.flusher.take() {
            let _ = flusher.join();
        }
    }
}

pub(crate) fn wal_err(op: &str, path: &Path, e: &std::io::Error) -> CoreError {
    CoreError::Wal {
        detail: format!("{op} {}: {e}", path.display()),
    }
}

/// The outcome of scanning a WAL file.
#[derive(Debug)]
pub struct WalScan {
    /// Every complete, checksum-valid record, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (magic + complete frames).
    pub valid_len: u64,
    /// Present when the file ends in a torn or corrupt frame: the typed
    /// error describing it. Everything before `valid_len` is still good.
    pub corrupt_tail: Option<CoreError>,
}

fn corrupt(path: &Path, offset: u64, detail: String) -> CoreError {
    CoreError::Corrupt {
        file: path.display().to_string(),
        offset,
        detail,
    }
}

/// The tail a checksum-valid frame at `offset` leaves when its payload is
/// not a record: the log ends there, as it does at a torn frame.
pub(crate) fn undecodable(path: &Path, offset: u64, detail: &str) -> CoreError {
    corrupt(path, offset, format!("undecodable payload: {detail}"))
}

/// Where a walk over a WAL's frames stopped, and why.
#[derive(Debug, Default)]
pub(crate) struct FramesEnd {
    /// Byte length of the valid prefix (magic + complete frames).
    pub valid_len: u64,
    /// The torn or corrupt frame the walk stopped at, if it did not stop
    /// at the end of the file.
    pub corrupt_tail: Option<CoreError>,
}

/// The one frame loop: walks a WAL file front to back, handing out one
/// checksum-verified payload at a time into the caller's buffer, so a
/// reader holds a record of the log in memory, not the log.
///
/// A missing file is no reader at all (a crash can land between snapshot
/// rotation and the creation of the next WAL). A present file with a
/// wrong magic is a hard [`CoreError::Corrupt`] — that is not our file,
/// and truncating it would destroy someone's data. The first incomplete
/// or checksum-failing frame ends the walk; [`end`](Self::end) says where.
#[derive(Debug)]
pub(crate) struct FrameReader {
    reader: BufReader<File>,
    path: PathBuf,
    /// Length of the file when it was opened; nothing appends to a WAL
    /// while it is being recovered.
    len: u64,
    /// Where the next frame starts.
    offset: u64,
    tail: Option<CoreError>,
}

impl FrameReader {
    pub fn open(path: &Path) -> Result<Option<FrameReader>, CoreError> {
        let file = match File::open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(wal_err("read", path, &e)),
        };
        let len = file
            .metadata()
            .map_err(|e| wal_err("read", path, &e))?
            .len();
        let mut frames = FrameReader {
            reader: BufReader::new(file),
            path: path.to_path_buf(),
            len,
            offset: 0,
            tail: None,
        };
        if len < WAL_MAGIC.len() as u64 {
            // Crash while writing the header: nothing was ever logged.
            frames.tail = Some(corrupt(path, 0, format!("short header ({len} bytes)")));
            return Ok(Some(frames));
        }
        let mut magic = [0; WAL_MAGIC.len()];
        frames.read_exact(&mut magic)?;
        if &magic != WAL_MAGIC {
            return Err(corrupt(path, 0, "bad magic; not an LDPWAL01 file".into()));
        }
        frames.offset = magic.len() as u64;
        Ok(Some(frames))
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), CoreError> {
        self.reader
            .read_exact(buf)
            .map_err(|e| wal_err("read", &self.path, &e))
    }

    /// Read the next frame's payload into `payload` (its old contents
    /// are discarded, its allocation reused) and return the offset the
    /// frame starts at; `None` once the walk has ended.
    pub fn next_into(&mut self, payload: &mut Vec<u8>) -> Result<Option<u64>, CoreError> {
        let left = self.len - self.offset;
        if self.tail.is_some() || left == 0 {
            return Ok(None);
        }
        let at = self.offset;
        if left < 8 {
            let detail = format!("torn frame header ({left} trailing bytes)");
            self.tail = Some(corrupt(&self.path, at, detail));
            return Ok(None);
        }
        let mut header = [0; 8];
        self.read_exact(&mut header)?;
        let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
        let len = u32::from_le_bytes([l0, l1, l2, l3]);
        let crc = u32::from_le_bytes([c0, c1, c2, c3]);
        if left - 8 < len as u64 {
            let detail = format!("torn frame payload ({} of {len} bytes present)", left - 8);
            self.tail = Some(corrupt(&self.path, at, detail));
            return Ok(None);
        }
        payload.resize(len as usize, 0);
        self.read_exact(payload)?;
        if crc32(payload) != crc {
            self.tail = Some(corrupt(&self.path, at, "frame checksum mismatch".into()));
            return Ok(None);
        }
        self.offset += 8 + len as u64;
        Ok(Some(at))
    }

    /// Where the walk stands: the valid prefix behind it, and the bad
    /// frame in front of it if it has met one.
    pub fn end(self) -> FramesEnd {
        FramesEnd {
            valid_len: self.offset,
            corrupt_tail: self.tail,
        }
    }
}

/// Scan a WAL file, tolerating a torn/corrupt tail: every frame
/// `FrameReader` yields, decoded and collected. A missing file scans
/// as empty; a foreign one is a hard error.
pub fn scan(path: &Path) -> Result<WalScan, CoreError> {
    let mut scan = WalScan {
        records: Vec::new(),
        valid_len: 0,
        corrupt_tail: None,
    };
    let Some(mut frames) = FrameReader::open(path)? else {
        return Ok(scan);
    };
    let mut payload = Vec::new();
    while let Some(at) = frames.next_into(&mut payload)? {
        match WalRecord::decode(&payload) {
            Ok(record) => scan.records.push(record),
            Err(detail) => {
                scan.valid_len = at;
                scan.corrupt_tail = Some(undecodable(path, at, &detail));
                return Ok(scan);
            }
        }
    }
    let end = frames.end();
    scan.valid_len = end.valid_len;
    scan.corrupt_tail = end.corrupt_tail;
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::EncodedResponses;
    use ldp_fo::{FoKind, Report};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ldp_wal_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateSession { session: 0 },
            WalRecord::OpenRound {
                session: 0,
                request: ReportRequest {
                    round: 0,
                    t: 7,
                    fo: FoKind::Oue,
                    epsilon: 1.25,
                    domain_size: 70,
                },
            },
            WalRecord::Reports {
                session: 0,
                round: 0,
                seq: 0,
                responses: vec![
                    UserResponse::Report {
                        round: 0,
                        report: Report::Oue {
                            bits: vec![0xDEAD_BEEF, 0x1234],
                            len: 70,
                        },
                    },
                    UserResponse::Report {
                        round: 0,
                        report: Report::Olh {
                            seed: 99,
                            bucket: 3,
                        },
                    },
                    UserResponse::Refused {
                        round: 0,
                        requested: 0.5,
                        available: 0.25,
                    },
                ],
            },
            WalRecord::CloseRound {
                session: 0,
                round: 0,
                refusals: 1,
                estimate: RoundEstimate {
                    frequencies: vec![0.1, -0.000001, 0.9],
                    reporters: 2,
                    epsilon: 1.25,
                },
            },
            WalRecord::EndSession { session: 0 },
        ]
    }

    /// `WalRecord::encode` of each of `sample_records()`, captured from
    /// the commit before this pin existed (PR 11): the `LDPWAL01`
    /// payload layout is pinned, not assumed.
    const SAMPLE_RECORDS_HEX: [&str; 5] = [
        "010000000000000000",
        "0200000000000000000000000000000000070000000000000001000000000000f43f46000000",
        "03000000000000000000000000000000000000000000000000030000000000000000000000000146000000\
         02000000efbeadde00000000341200000000000000000000000000000002630000000000000003000000\
         010000000000000000000000000000e03f000000000000d03f",
        "040000000000000000000000000000000001000000000000000200000000000000000000000000f43f03\
         0000009a9999999999b93f8dedb5a0f7c6b0becdccccccccccec3f",
        "050000000000000000",
    ];

    #[test]
    fn record_encoding_is_byte_stable() {
        for (record, want) in sample_records().iter().zip(SAMPLE_RECORDS_HEX) {
            let got: String = record.encode().iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, want, "{record:?}");
        }
    }

    /// The file is the magic, then each pinned payload behind its length
    /// and CRC — the in-place envelope writes what the encode-then-copy
    /// appender did.
    #[test]
    fn appended_frames_are_the_pinned_payloads_in_their_envelopes() {
        let path = tmp("envelope.log");
        let mut wal = Wal::create(&path, WalSync::None).unwrap();
        let mut want = WAL_MAGIC.to_vec();
        for record in &sample_records() {
            wal.append(record).unwrap().wait().unwrap();
            // Pinned to `SAMPLE_RECORDS_HEX` by the test above.
            let payload = record.encode();
            want.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            want.extend_from_slice(&crc32(&payload).to_le_bytes());
            want.extend_from_slice(&payload);
        }
        drop(wal);
        assert_eq!(std::fs::read(&path).unwrap(), want);
    }

    /// The pinned `Reports` record, appended from its rows and from its
    /// encoded responses: the same file, checksum included, as appending
    /// the struct.
    #[test]
    fn an_encoded_delta_is_appended_as_the_record_of_its_rows() {
        let record = sample_records().swap_remove(2);
        let WalRecord::Reports {
            session,
            round,
            seq,
            responses,
        } = &record
        else {
            panic!("the third sample is the delta");
        };
        let encoded = EncodedResponses::encode(responses);
        let pinned = tmp("delta_record.log");
        let mut wal = Wal::create(&pinned, WalSync::None).unwrap();
        wal.append(&record).unwrap().wait().unwrap();
        let shapes = [
            ("delta_rows.log", Delta::Rows(responses)),
            ("delta_encoded.log", Delta::Bytes(&encoded)),
        ];
        for (name, delta) in shapes {
            let path = tmp(name);
            let mut wal = Wal::create(&path, WalSync::None).unwrap();
            let commit = wal.append_delta(*session, *round, *seq, delta);
            commit.unwrap().wait().unwrap();
            assert_eq!(
                std::fs::read(&path).unwrap(),
                std::fs::read(&pinned).unwrap()
            );
            assert_eq!(scan(&path).unwrap().records, std::slice::from_ref(&record));
        }
    }

    #[test]
    fn records_roundtrip_through_codec() {
        for record in sample_records() {
            let payload = record.encode();
            assert_eq!(WalRecord::decode(&payload).unwrap(), record);
        }
    }

    /// A `Reports` payload claiming more responses than its bytes can
    /// hold is refused on the count, before a vector is reserved for it.
    #[test]
    fn forged_response_count_is_refused_before_allocating() {
        let mut payload = sample_records()[2].encode();
        // tag, session, round, seq, then the count.
        payload[25..29].copy_from_slice(&(16u32 << 20).to_le_bytes());
        payload.resize(16 << 20, 0);
        let err = WalRecord::decode(&payload).unwrap_err();
        assert!(err.contains("response count 16777216 exceeds"), "{err}");
    }

    #[test]
    fn append_then_scan_roundtrips() {
        let path = tmp("roundtrip.log");
        let mut wal = Wal::create(&path, WalSync::Always).unwrap();
        let records = sample_records();
        for record in &records {
            wal.append(record).unwrap().wait().unwrap();
        }
        assert_eq!(wal.records(), records.len() as u64);
        let stats = wal.stats();
        assert_eq!(stats.records, records.len() as u64);
        assert!(stats.syncs >= 1, "Always must fsync at least once");
        drop(wal);
        let scan = scan(&path).unwrap();
        assert_eq!(scan.records, records);
        assert!(scan.corrupt_tail.is_none());
        assert_eq!(scan.valid_len, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn group_commit_coalesces_pending_waits_into_one_fsync() {
        let path = tmp("group.log");
        let mut wal = Wal::create(&path, WalSync::Always).unwrap();
        let records = sample_records();
        let mut commits = Vec::new();
        for _ in 0..4 {
            for record in &records {
                commits.push(wal.append(record).unwrap());
            }
        }
        // Wait on the *last* ticket first: that waiter leads and its one
        // sync_data covers every frame written, so the earlier tickets
        // return without further fsyncs.
        while let Some(commit) = commits.pop() {
            commit.wait().unwrap();
        }
        assert_eq!(wal.stats().syncs, 1);
        assert_eq!(wal.stats().records, 4 * records.len() as u64);
        drop(wal);
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.records.len(), 4 * records.len());
        assert!(scanned.corrupt_tail.is_none());
    }

    #[test]
    fn retired_group_releases_waiters_without_fsync() {
        let path = tmp("retire.log");
        let mut wal = Wal::create(&path, WalSync::Always).unwrap();
        let commit = wal
            .append(&WalRecord::CreateSession { session: 9 })
            .unwrap();
        drop(wal); // rotation/teardown retires the generation
        commit.wait().unwrap();
    }

    /// Under `Batch` every acknowledged report frame leaves at most a
    /// batch less one record unsynced, whoever led the sync.
    #[test]
    fn batch_acks_leave_at_most_a_batch_less_one_unsynced() {
        let path = tmp("batch_bound.log");
        let mut wal = Wal::create(&path, WalSync::Batch).unwrap();
        let report = sample_records().swap_remove(2);
        for _ in 0..10 * SYNC_BATCH_RECORDS {
            wal.append(&report).unwrap().wait().unwrap();
            let stats = wal.stats();
            assert!(
                stats.records - stats.durable < SYNC_BATCH_RECORDS,
                "{stats:?}"
            );
        }
        // Record 289 durable takes one sync per 32 records at the least.
        assert!(wal.stats().syncs >= 10, "{:?}", wal.stats());
    }

    #[test]
    fn a_batch_control_frame_is_synced_before_its_wait_returns() {
        let path = tmp("batch_control.log");
        let mut wal = Wal::create(&path, WalSync::Batch).unwrap();
        let report = sample_records().swap_remove(2);
        for _ in 0..5 {
            wal.append(&report).unwrap().wait().unwrap();
        }
        let commit = wal.append(&WalRecord::EndSession { session: 0 });
        commit.unwrap().wait().unwrap();
        assert_eq!(wal.stats().durable, 6);
    }

    /// Drop retires the generation and joins the flusher, whether it is
    /// parked or inside a sync: its handle on the group is gone after.
    #[test]
    fn dropping_a_batch_wal_joins_its_flusher() {
        let report = sample_records().swap_remove(2);
        for appends in [0, 3, FLUSH_AT, 2 * FLUSH_AT + 1] {
            let path = tmp(&format!("batch_drop_{appends}.log"));
            let mut wal = Wal::create(&path, WalSync::Batch).unwrap();
            let group = wal.group();
            for _ in 0..appends {
                wal.append(&report).unwrap().wait().unwrap();
            }
            if appends >= FLUSH_AT {
                // The flusher is woken: drop it mid-sync (or just after).
                let started = || {
                    let st = group.state();
                    st.syncing || st.synced > 0
                };
                while !started() {
                    std::thread::yield_now();
                }
            }
            drop(wal);
            assert_eq!(Arc::strong_count(&group), 1, "{appends} appends");
        }
    }

    #[test]
    fn torn_tail_recovers_to_last_complete_record() {
        let path = tmp("torn.log");
        let mut wal = Wal::create(&path, WalSync::None).unwrap();
        let records = sample_records();
        for record in &records {
            wal.append(record).unwrap().wait().unwrap();
        }
        drop(wal);
        // Tear the last frame: chop 3 bytes off the file.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);
        let scan = scan(&path).unwrap();
        assert_eq!(scan.records, records[..records.len() - 1]);
        assert!(
            matches!(scan.corrupt_tail, Some(CoreError::Corrupt { .. })),
            "{:?}",
            scan.corrupt_tail
        );
    }

    #[test]
    fn bitflip_recovers_with_checksum_error() {
        let path = tmp("bitflip.log");
        let mut wal = Wal::create(&path, WalSync::None).unwrap();
        let records = sample_records();
        for record in &records {
            wal.append(record).unwrap().wait().unwrap();
        }
        drop(wal);
        // Flip one payload byte in the final frame.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
        let scan = scan(&path).unwrap();
        assert_eq!(scan.records, records[..records.len() - 1]);
        match scan.corrupt_tail {
            Some(CoreError::Corrupt { detail, .. }) => {
                assert!(detail.contains("checksum"), "{detail}")
            }
            other => panic!("expected checksum corrupt tail, got {other:?}"),
        }
    }

    #[test]
    fn missing_file_scans_empty() {
        let scan = scan(&tmp("never_created.log")).unwrap();
        assert!(scan.records.is_empty());
        assert!(scan.corrupt_tail.is_none());
    }

    #[test]
    fn foreign_file_is_a_hard_error() {
        let path = tmp("foreign.log");
        std::fs::write(&path, b"definitely not a wal file").unwrap();
        assert!(matches!(
            scan(&path),
            Err(CoreError::Corrupt { offset: 0, .. })
        ));
    }
}
