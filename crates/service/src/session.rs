//! The [`IngestService`]: the live driver of the session state machine,
//! over one shared worker pool.
//!
//! A *session* is one logical stream/query: a strictly sequential
//! sequence of collection rounds, mirroring
//! [`AggregationServer`](ldp_ids::protocol::AggregationServer)'s
//! contract. Any number of sessions may have rounds open concurrently —
//! their accumulators live side by side in the workers, keyed by
//! [`RoundKey`](crate::RoundKey) — so independent mechanisms ingest in parallel
//! over the same threads.
//!
//! What a session may do is decided in one place, the state machine in
//! `machine.rs`: this module owns no lifecycle rule. It
//! is the glue around the machine's transitions — the lock, the
//! write-ahead log, the worker pool and the metrics — and every call has
//! the same shape:
//!
//! ```text
//! lock → check (machine) → append to the WAL → apply (machine)
//!      → effects to the pool → unlock → wait for the commit
//! ```
//!
//! The check happens synchronously on the submitting thread, exactly as
//! the sequential server does it; workers only ever see pre-validated
//! traffic (their own stale counting is defensive). An in-memory service
//! ([`IngestService::new`]) runs the same sequence with the WAL step
//! empty.
//!
//! A report delta comes in one of two shapes, rows or bytes. Rows are
//! what in-process callers hold ([`submit`](IngestService::submit),
//! [`submit_batch`](IngestService::submit_batch),
//! [`submit_batch_at`](IngestService::submit_batch_at)); bytes — what
//! `put_responses` wrote — are what a `SubmitBatch` carries off the wire
//! ([`submit_encoded_at`](IngestService::submit_encoded_at)) and what a
//! logged record holds on replay. Every entry is a wrapper of one step,
//! and the shapes differ in two places only: the machine's
//! `accept_delta` transposes rows into the open round's columns where it
//! decodes bytes into them (structure first, then the sequence rules,
//! then the echoes, for both), and the WAL encodes rows into the record
//! where it copies bytes behind the record head under the checksum they
//! came with. The frame is the same either way. Everything else — the
//! counting, the kill points, the one batch an accepted delta becomes,
//! the lock discipline of its dispatch, the snapshot cadence, the commit
//! wait — is the same code.
//!
//! ## Durability
//!
//! [`IngestService::open`] runs the service *crash-safe*: every
//! transition is appended to a checksummed write-ahead log (see
//! [`wal`](crate::wal)) **before** it is applied and acknowledged, and
//! periodic snapshots (see [`recovery`]) bound replay cost. After a
//! crash, `open` on the same directory drives the same machine through
//! the logged transitions — replay *is* live ingest, minus the lock and
//! the log — so sessions, open-round tallies, refusal counters and
//! budget positions come back as they were, and re-closing a recovered
//! round yields estimates **bit-identical** to an uninterrupted run.
//!
//! Two rules make that work:
//!
//! 1. **Log before ack.** A record is on disk (per the configured
//!    [`WalSync`](crate::wal::WalSync) discipline) before the mutation
//!    it describes is acknowledged to the caller. Under
//!    [`WalSync::Always`](crate::wal::WalSync::Always) the fsync is
//!    *group-committed*: the frame is appended under the state lock
//!    (fixing its WAL order), but the caller waits for durability
//!    **after** releasing the lock, so concurrent sessions coalesce
//!    into one `sync_data` per burst (see
//!    [`GroupCommit`](crate::wal::GroupCommit)).
//! 2. **Dispatch under the state lock** (durable mode only). Worker
//!    inbox FIFO order then guarantees a snapshot's
//!    [`checkpoint`](crate::pool::WorkerPool::checkpoint) barrier
//!    observes exactly the batches dispatched — hence logged — before
//!    the cut, so a snapshot plus its WAL tail is always a consistent
//!    image. (The non-durable service keeps dispatching outside the
//!    lock; it gives up nothing.)
//!
//! Clients that may retry after a crash use the sequence-numbered
//! variants ([`submit_batch_at`](IngestService::submit_batch_at),
//! [`open_round_at`](IngestService::open_round_at),
//! [`close_round_at`](IngestService::close_round_at)): replaying an
//! already-acknowledged step is an idempotent no-op (a re-closed round
//! returns the original estimate bit for bit), and skipping a step is a
//! typed [`CoreError::SequenceGap`].

use crate::batch::{Batch, ServiceConfig, QUEUE_DEPTH};
use crate::codec::EncodedResponses;
use crate::faults;
use crate::machine::{Closing, Delta, Opening, SessionTable};
use crate::obs::ServiceMetrics;
use crate::pool::WorkerPool;
use crate::recovery::{self, RecoveryReport, Tallies};
use crate::wal::{wal_err, Commit, Wal, WalRecord, WalStats};
use ldp_fo::FoKind;
use ldp_ids::collector::RoundEstimate;
use ldp_ids::protocol::{ReportRequest, UserResponse};
use ldp_ids::CoreError;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

pub use crate::machine::{EncodedSubmitError, SessionId, SessionStatus};

/// WAL + snapshot bookkeeping of a durable service.
#[derive(Debug)]
struct DurableState {
    dir: PathBuf,
    wal: Wal,
    generation: u64,
    records_since_snapshot: u64,
}

#[derive(Debug)]
struct ServiceState {
    table: SessionTable,
    durable: Option<DurableState>,
}

/// The state, locked.
type Locked<'a> = MutexGuard<'a, ServiceState>;

/// The sharded, parallel report-ingestion service.
///
/// Internally synchronized: all methods take `&self`, so one service
/// behind an `Arc` serves any number of submitting threads and sessions.
#[derive(Debug)]
pub struct IngestService {
    pool: WorkerPool,
    config: ServiceConfig,
    state: Mutex<ServiceState>,
    recovery: Option<RecoveryReport>,
    metrics: ServiceMetrics,
}

/// The WAL step: append the record of a checked transition, before the
/// transition is applied. On an in-memory service there is no log,
/// nothing is appended, and the commit is already as durable as it
/// gets.
fn log_with(
    durable: &mut Option<DurableState>,
    append: impl FnOnce(&mut Wal) -> Result<Commit, CoreError>,
) -> Result<Commit, CoreError> {
    let Some(d) = durable else {
        return Ok(Commit::Durable);
    };
    let commit = append(&mut d.wal)?;
    d.records_since_snapshot += 1;
    Ok(commit)
}

/// [`log_with`] for a control record, which is built only when there is
/// a log.
fn log(
    durable: &mut Option<DurableState>,
    record: impl FnOnce() -> WalRecord,
) -> Result<Commit, CoreError> {
    log_with(durable, |wal| wal.append(&record()))
}

impl IngestService {
    /// An in-memory service sized by `config` (no durability: state dies
    /// with the process). Metrics go to a private standalone registry;
    /// see [`IngestService::new_observed`].
    pub fn new(config: ServiceConfig) -> Self {
        IngestService::new_observed(config, ServiceMetrics::standalone())
    }

    /// [`IngestService::new`] recording into `metrics` (typically scoped
    /// to a shared registry with a `tenant` label).
    pub fn new_observed(config: ServiceConfig, metrics: ServiceMetrics) -> Self {
        IngestService {
            pool: WorkerPool::new_observed(
                config.threads,
                QUEUE_DEPTH,
                metrics.shard_depth_gauges(config.threads.max(1)),
            ),
            config,
            state: Mutex::new(ServiceState {
                table: SessionTable::default(),
                durable: None,
            }),
            recovery: None,
            metrics,
        }
    }

    /// A *durable* service journaling to `dir` (created if absent).
    ///
    /// If `dir` holds state from a previous run — cleanly shut down or
    /// crashed — it is recovered first: sessions, open-round tallies,
    /// refusal counters and budget positions are rebuilt from the latest
    /// snapshot plus WAL replay, then the recovered state is immediately
    /// persisted as a fresh generation (retiring any torn WAL tail).
    /// What recovery found is available via
    /// [`recovery_report`](Self::recovery_report).
    pub fn open(config: ServiceConfig, dir: impl AsRef<Path>) -> Result<Self, CoreError> {
        IngestService::open_observed(config, dir, ServiceMetrics::standalone())
    }

    /// [`IngestService::open`] recording into `metrics` (typically
    /// scoped to a shared registry with a `tenant` label).
    pub fn open_observed(
        config: ServiceConfig,
        dir: impl AsRef<Path>,
        metrics: ServiceMetrics,
    ) -> Result<Self, CoreError> {
        let replay_start = Instant::now();
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| wal_err("create", &dir, &e))?;
        let recovered = recovery::recover(&dir)?;
        metrics.replay_ns.record_duration(replay_start.elapsed());
        metrics
            .replay_reports
            .add(recovered.report.reports_replayed);
        metrics.replay_bytes.add(recovered.report.wal_bytes_read);

        // An in-memory service that adopts what recovery hands back.
        let mut svc = IngestService::new_observed(config, metrics);
        // Rotate immediately: write the recovered state as generation
        // g+1 and start its empty WAL, so the old generation (and any
        // corrupt tail) is retired before new traffic lands.
        let (table, tallies) = (recovered.table, recovered.tallies);
        let durable = svc.start_generation(dir, recovered.generation + 1, &table, &tallies)?;

        // Each open round's tally is re-injected whole on one worker;
        // commutative merging makes the eventual close exact.
        recovery::seed_each(&table, tallies, |key, oracle, tally| {
            svc.pool.seed(key, oracle, tally)
        });
        svc.state = Mutex::new(ServiceState {
            table,
            durable: Some(durable),
        });
        svc.recovery = Some(recovered.report);
        Ok(svc)
    }

    /// Persist `table` and `tallies` as generation `generation` and
    /// start its empty WAL, retiring every other generation in `dir`.
    fn start_generation(
        &self,
        dir: PathBuf,
        generation: u64,
        table: &SessionTable,
        tallies: &Tallies,
    ) -> Result<DurableState, CoreError> {
        recovery::write_snapshot(&dir, generation, table, tallies)?;
        let wal = Wal::create_observed(
            &recovery::wal_path(&dir, generation),
            self.config.sync,
            self.metrics.wal.clone(),
        )?;
        recovery::remove_stale(&dir, generation);
        Ok(DurableState {
            dir,
            wal,
            generation,
            records_since_snapshot: 0,
        })
    }

    /// The metric handles this service records into.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The sizing this service runs with.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// What recovery found when this service was [`open`](Self::open)ed
    /// (`None` for an in-memory service).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    fn lock(&self) -> Locked<'_> {
        self.state.lock().expect("state lock poisoned by a panic")
    }

    /// The tail of every logged call: snapshot if one is due, release
    /// the state lock, and only then wait for the record's commit — so
    /// concurrent sessions share one fsync.
    fn ack(&self, mut guard: Locked<'_>, commit: Commit) -> Result<(), CoreError> {
        self.maybe_snapshot(&mut guard)?;
        drop(guard);
        commit.wait()
    }

    /// Open a new session (an independent stream/query).
    pub fn create_session(&self) -> Result<SessionId, CoreError> {
        let mut guard = self.lock();
        let st = &mut *guard;
        let id = st.table.next_id();
        let commit = log(&mut st.durable, || WalRecord::CreateSession {
            session: id.raw(),
        })?;
        st.table.create();
        self.ack(guard, commit)?;
        Ok(id)
    }

    /// Open a collection round on `session` at timestamp `t`, with the
    /// frequency oracle built from `(fo, epsilon, domain_size)` — the
    /// same deterministic construction clients use, which is what lets a
    /// recovered round re-estimate bit-identically.
    pub fn open_round(
        &self,
        session: SessionId,
        t: u64,
        fo: FoKind,
        epsilon: f64,
        domain_size: usize,
    ) -> Result<ReportRequest, CoreError> {
        self.open_round_inner(session, None, t, fo, epsilon, domain_size)
    }

    /// [`open_round`](Self::open_round) for clients that may retry after
    /// a crash: `round` names the round being opened. Re-opening the
    /// round that is already open (a replayed step whose ack was lost)
    /// returns the original request; any other out-of-sequence round is
    /// a typed [`CoreError::StaleRound`].
    pub fn open_round_at(
        &self,
        session: SessionId,
        round: u64,
        t: u64,
        fo: FoKind,
        epsilon: f64,
        domain_size: usize,
    ) -> Result<ReportRequest, CoreError> {
        self.open_round_inner(session, Some(round), t, fo, epsilon, domain_size)
    }

    fn open_round_inner(
        &self,
        session: SessionId,
        expect: Option<u64>,
        t: u64,
        fo: FoKind,
        epsilon: f64,
        domain_size: usize,
    ) -> Result<ReportRequest, CoreError> {
        let mut guard = self.lock();
        let st = &mut *guard;
        let step = match st
            .table
            .open_round(session, expect, t, fo, epsilon, domain_size)?
        {
            Opening::Replayed(request) => return Ok(request.clone()),
            Opening::Fresh(step) => step,
        };
        let commit = log(&mut st.durable, || WalRecord::OpenRound {
            session: session.raw(),
            request: step.request().clone(),
        })?;
        let request = step.apply().request.clone();
        self.metrics.rounds_opened.inc();
        self.ack(guard, commit)?;
        Ok(request)
    }

    /// The one step of every report delta, rows or bytes: lock, check,
    /// log, count, hand the delta to the pool as one batch (an empty
    /// delta as none), acknowledge. Returns the sequence number the
    /// session expects next.
    fn submit_delta(
        &self,
        session: SessionId,
        round: Option<u64>,
        seq: Option<u64>,
        delta: Delta<'_>,
    ) -> Result<u64, EncodedSubmitError> {
        let mut guard = self.lock();
        let st = &mut *guard;
        let accepted = st.table.accept_delta(session, round, seq, delta.as_slice());
        let Some((step, columns)) = accepted? else {
            // Already logged and applied; the ack was lost. Idempotent.
            return Ok(st.table.get(session)?.status().next_seq);
        };
        let (round, seq) = (step.round(), step.seq());
        let commit = log_with(&mut st.durable, |wal| {
            wal.append_delta(session.raw(), round, seq, delta)
        })?;
        // Counted only now, so a delta whose append failed never is.
        self.metrics.reports.add(columns.responses());
        let open = step.apply();
        let batch = (!columns.is_empty()).then(|| Batch {
            key: open.key,
            oracle: open.oracle.clone(),
            columns,
        });
        // Durable: dispatch under the state lock, so a snapshot's
        // checkpoint barrier sees every batch that made it to the WAL.
        // In-memory: outside it, so a saturated pool holds up only this
        // submitter, not every session.
        let held = guard.durable.is_some().then_some(guard);
        if held.is_some() {
            faults::hit("service.mid_batch");
        }
        if let Some(batch) = batch {
            self.pool.dispatch(batch);
        }
        if let Some(guard) = held {
            self.ack(guard, commit)?;
        }
        Ok(seq + 1)
    }

    /// [`submit_delta`](Self::submit_delta) of rows, which only the
    /// lifecycle can refuse.
    pub(crate) fn submit_rows(
        &self,
        session: SessionId,
        seq: Option<u64>,
        rows: &[UserResponse],
    ) -> Result<(), CoreError> {
        match self.submit_delta(session, None, seq, Delta::Rows(rows)) {
            Ok(_) => Ok(()),
            Err(EncodedSubmitError::Rule(e)) => Err(e),
            Err(EncodedSubmitError::Undecodable(detail)) => {
                unreachable!("rows are not decoded: {detail}")
            }
        }
    }

    /// Submit one response to `session`'s open round: a delta of one
    /// row, so one lock, one lifecycle check, one WAL record and one
    /// pool dispatch per response. On a durable service the response is
    /// on the WAL before this returns.
    ///
    /// Nothing in the workspace calls it on a hot path (the
    /// [`ServiceSink`](crate::ServiceSink) buffers and submits batches);
    /// it remains for callers that hold one response at a time and for
    /// the benchmark ladder, which times it.
    pub fn submit(&self, session: SessionId, response: UserResponse) -> Result<(), CoreError> {
        self.submit_rows(session, None, std::slice::from_ref(&response))
    }

    /// Submit many responses at once: one lock, one lifecycle check, one
    /// batch for the pool and — durably — one WAL record for the whole
    /// delta.
    pub fn submit_batch(
        &self,
        session: SessionId,
        responses: Vec<UserResponse>,
    ) -> Result<(), CoreError> {
        self.submit_rows(session, None, &responses)
    }

    /// [`submit_batch`](Self::submit_batch) for clients that may retry
    /// after a crash: `seq` numbers this delta within the session
    /// (starting at 0, one per acknowledged submit). A delta the service
    /// already has is acknowledged again without being applied twice; a
    /// delta from the future is a typed [`CoreError::SequenceGap`]. The
    /// next expected number is [`next_seq`](Self::next_seq).
    pub fn submit_batch_at(
        &self,
        session: SessionId,
        seq: u64,
        responses: Vec<UserResponse>,
    ) -> Result<(), CoreError> {
        self.submit_rows(session, Some(seq), &responses)
    }

    /// [`submit_batch_at`](Self::submit_batch_at) for a delta that
    /// arrives encoded — the bytes `put_responses` wrote for it, as a
    /// `SubmitBatch` frame carries them — naming the `round` it was sent
    /// for. The bytes are decoded straight into the round's columns, by
    /// the check replay runs on a logged delta, and go to the WAL under
    /// the checksum they came with: no row is built, and the delta is
    /// neither re-encoded nor checksummed again. The log, the tallies and
    /// the errors are those of `submit_batch_at` over the decoded rows,
    /// with `round` their first echo. Returns the sequence number the
    /// session expects next.
    pub fn submit_encoded_at(
        &self,
        session: SessionId,
        round: u64,
        seq: u64,
        encoded: &EncodedResponses,
    ) -> Result<u64, EncodedSubmitError> {
        self.submit_delta(session, Some(round), Some(seq), Delta::Bytes(encoded))
    }

    /// The sequence number the session expects from its next
    /// [`submit_batch_at`](Self::submit_batch_at).
    pub fn next_seq(&self, session: SessionId) -> Result<u64, CoreError> {
        Ok(self.status(session)?.next_seq)
    }

    /// Close `session`'s open round: gather every shard's tally, merge,
    /// and estimate. On a durable service the estimate itself is on the
    /// WAL before this returns, so a client that loses the ack can
    /// re-close and receive it bit-identically.
    pub fn close_round(&self, session: SessionId) -> Result<RoundEstimate, CoreError> {
        self.close_round_inner(session, None)
    }

    /// [`close_round`](Self::close_round) for clients that may retry
    /// after a crash: `round` names the round being closed. Re-closing
    /// the most recently closed round returns the original estimate bit
    /// for bit.
    pub fn close_round_at(
        &self,
        session: SessionId,
        round: u64,
    ) -> Result<RoundEstimate, CoreError> {
        self.close_round_inner(session, Some(round))
    }

    fn close_round_inner(
        &self,
        session: SessionId,
        expect: Option<u64>,
    ) -> Result<RoundEstimate, CoreError> {
        let mut guard = self.lock();
        let open = match guard.table.begin_close(session, expect)? {
            // Retry of an acknowledged (or logged-then-lost) close.
            Closing::Replayed(estimate) => return Ok(estimate),
            Closing::Begun(open) => open,
        };
        let key = open.key;
        // Durable: the whole close happens under the state lock — gather
        // (workers never take this lock, so no deadlock), log the outcome,
        // book it — and a crash anywhere in between replays to the same
        // estimate from the WAL. In-memory: gather with the lock released.
        let durable = guard.durable.is_some();
        let held = durable.then_some(guard);
        if durable {
            faults::hit("service.before_close");
        }
        let tally = self.pool.close_round(key, open.oracle.domain_size());
        debug_assert_eq!(tally.stale, 0, "stale traffic past session validation");
        let estimate = open.estimate(&tally.support, tally.reporters);

        let mut guard = held.unwrap_or_else(|| self.lock());
        let st = &mut *guard;
        let commit = log(&mut st.durable, || WalRecord::CloseRound {
            session: session.raw(),
            round: key.round,
            refusals: tally.refusals,
            estimate: estimate.clone(),
        })?;
        st.table
            .finish_close(session, key.round, tally.refusals, estimate.clone());
        self.metrics.rounds_closed.inc();
        if durable {
            faults::hit("service.after_close");
        }
        self.ack(guard, commit)?;
        Ok(estimate)
    }

    /// The session's sequencing state, for clients resuming after a
    /// disconnect (see [`SessionStatus`]).
    pub fn status(&self, session: SessionId) -> Result<SessionStatus, CoreError> {
        Ok(self.lock().table.get(session)?.status())
    }

    /// Append/fsync counters of the current WAL generation (`None` for
    /// an in-memory service). The repo benchmark reads
    /// `service.wal.fsyncs_per_record` from it.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.lock().durable.as_ref().map(|d| d.wal.stats())
    }

    /// Refusals observed on `session` across closed rounds.
    pub fn refusals(&self, session: SessionId) -> Result<u64, CoreError> {
        Ok(self.status(session)?.refusals)
    }

    /// Privacy budget consumed by `session`'s closed rounds (Σ round ε).
    pub fn epsilon_spent(&self, session: SessionId) -> Result<f64, CoreError> {
        Ok(self.status(session)?.epsilon_spent)
    }

    /// Drop a finished session's bookkeeping. Ending a session whose
    /// round is still open is a typed [`CoreError::SessionBusy`].
    pub fn end_session(&self, session: SessionId) -> Result<(), CoreError> {
        let mut guard = self.lock();
        let st = &mut *guard;
        let step = st.table.end(session)?;
        let commit = log(&mut st.durable, || WalRecord::EndSession {
            session: session.raw(),
        })?;
        step.apply();
        self.ack(guard, commit)
    }

    /// Snapshot the full service state now and rotate the WAL (no-op on
    /// an in-memory service). Durable services also snapshot
    /// automatically every
    /// [`snapshot_every`](crate::ServiceConfig::snapshot_every) records.
    pub fn checkpoint(&self) -> Result<(), CoreError> {
        self.snapshot_locked(&mut self.lock())
    }

    fn maybe_snapshot(&self, st: &mut ServiceState) -> Result<(), CoreError> {
        let every = self.config.snapshot_every;
        let due = |d: &DurableState| every != 0 && d.records_since_snapshot >= every;
        if st.durable.as_ref().is_some_and(due) {
            self.snapshot_locked(st)?;
        }
        Ok(())
    }

    /// Write generation g+1: checkpoint the workers (a barrier that —
    /// because durable dispatch happens under the state lock — observes
    /// exactly the WAL-covered batches), persist the snapshot atomically,
    /// start its empty WAL, and delete the old generation.
    fn snapshot_locked(&self, st: &mut ServiceState) -> Result<(), CoreError> {
        let Some(d) = st.durable.as_ref() else {
            return Ok(());
        };
        let (dir, next_gen) = (d.dir.clone(), d.generation + 1);
        let snapshot_start = Instant::now();
        let open = recovery::open_rounds(&st.table).into_iter();
        let keys: Vec<_> = open.map(|o| (o.key, o.request.domain_size)).collect();
        let checkpoint = self.pool.checkpoint(&keys);
        let tallies: Tallies = keys.iter().map(|(key, _)| *key).zip(checkpoint).collect();
        st.durable = Some(self.start_generation(dir, next_gen, &st.table, &tallies)?);
        self.metrics
            .snapshot_ns
            .record_duration(snapshot_start.elapsed());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_fo::Report;

    fn service(threads: usize, batch: usize) -> IngestService {
        IngestService::new(ServiceConfig::with_threads(threads).with_batch_size(batch))
    }

    #[test]
    fn round_lifecycle_mirrors_sequential_server() {
        let svc = service(3, 16);
        let session = svc.create_session().unwrap();
        let req = svc.open_round(session, 0, FoKind::Grr, 8.0, 3).unwrap();
        assert_eq!(req.round, 0);
        for _ in 0..500 {
            svc.submit(
                session,
                UserResponse::Report {
                    round: 0,
                    report: Report::Grr(1),
                },
            )
            .unwrap();
        }
        let est = svc.close_round(session).unwrap();
        assert_eq!(est.reporters, 500);
        assert!(est.frequencies[1] > 0.9, "{est:?}");
    }

    #[test]
    fn stale_and_no_round_are_typed_errors() {
        let svc = service(2, 8);
        let session = svc.create_session().unwrap();
        let response = UserResponse::Report {
            round: 9,
            report: Report::Grr(0),
        };
        assert_eq!(
            svc.submit(session, response.clone()).unwrap_err(),
            CoreError::NoOpenRound
        );
        svc.open_round(session, 0, FoKind::Grr, 1.0, 2).unwrap();
        assert!(matches!(
            svc.submit(session, response).unwrap_err(),
            CoreError::StaleRound {
                expected: 0,
                got: 9
            }
        ));
        svc.close_round(session).unwrap();
        assert_eq!(
            svc.close_round(session).unwrap_err(),
            CoreError::NoOpenRound
        );
    }

    #[test]
    fn unknown_sessions_are_typed_errors_not_panics() {
        let svc = service(1, 4);
        let ghost = SessionId::from_raw(77);
        let response = UserResponse::Report {
            round: 0,
            report: Report::Grr(0),
        };
        assert_eq!(
            svc.submit(ghost, response.clone()).unwrap_err(),
            CoreError::UnknownSession { session: 77 }
        );
        assert_eq!(
            svc.submit_batch(ghost, vec![response]).unwrap_err(),
            CoreError::UnknownSession { session: 77 }
        );
        assert_eq!(
            svc.open_round(ghost, 0, FoKind::Grr, 1.0, 2).unwrap_err(),
            CoreError::UnknownSession { session: 77 }
        );
        assert_eq!(
            svc.close_round(ghost).unwrap_err(),
            CoreError::UnknownSession { session: 77 }
        );
        assert_eq!(
            svc.refusals(ghost).unwrap_err(),
            CoreError::UnknownSession { session: 77 }
        );
        assert_eq!(
            svc.end_session(ghost).unwrap_err(),
            CoreError::UnknownSession { session: 77 }
        );

        // An *ended* session is just as unknown as a never-created one.
        let session = svc.create_session().unwrap();
        svc.end_session(session).unwrap();
        assert_eq!(
            svc.close_round(session).unwrap_err(),
            CoreError::UnknownSession {
                session: session.raw()
            }
        );
    }

    #[test]
    fn double_open_and_busy_end_are_typed_errors() {
        let svc = service(1, 4);
        let session = svc.create_session().unwrap();
        svc.open_round(session, 0, FoKind::Grr, 1.0, 2).unwrap();
        assert_eq!(
            svc.open_round(session, 1, FoKind::Grr, 1.0, 2).unwrap_err(),
            CoreError::SessionBusy {
                session: session.raw(),
                round: 0
            }
        );
        assert_eq!(
            svc.end_session(session).unwrap_err(),
            CoreError::SessionBusy {
                session: session.raw(),
                round: 0
            }
        );
        svc.close_round(session).unwrap();
        svc.end_session(session).unwrap();
    }

    #[test]
    fn sessions_ingest_concurrently() {
        let svc = service(2, 4);
        let a = svc.create_session().unwrap();
        let b = svc.create_session().unwrap();
        svc.open_round(a, 0, FoKind::Grr, 8.0, 2).unwrap();
        svc.open_round(b, 5, FoKind::Grr, 8.0, 2).unwrap();
        for _ in 0..10 {
            svc.submit(
                a,
                UserResponse::Report {
                    round: 0,
                    report: Report::Grr(0),
                },
            )
            .unwrap();
            svc.submit(
                b,
                UserResponse::Report {
                    round: 0,
                    report: Report::Grr(1),
                },
            )
            .unwrap();
        }
        assert_eq!(svc.close_round(b).unwrap().reporters, 10);
        assert_eq!(svc.close_round(a).unwrap().reporters, 10);
        svc.end_session(a).unwrap();
        svc.end_session(b).unwrap();
    }

    #[test]
    fn refusals_and_budget_accumulate_per_session() {
        let svc = service(2, 4);
        let session = svc.create_session().unwrap();
        svc.open_round(session, 0, FoKind::Grr, 1.0, 2).unwrap();
        svc.submit(
            session,
            UserResponse::Refused {
                round: 0,
                requested: 1.0,
                available: 0.0,
            },
        )
        .unwrap();
        let est = svc.close_round(session).unwrap();
        assert_eq!(est.reporters, 0);
        assert_eq!(svc.refusals(session).unwrap(), 1);
        assert_eq!(svc.epsilon_spent(session).unwrap(), 1.0);
        svc.open_round(session, 1, FoKind::Grr, 0.5, 2).unwrap();
        svc.close_round(session).unwrap();
        assert_eq!(svc.epsilon_spent(session).unwrap(), 1.5);
    }

    #[test]
    fn submit_batch_splits_and_flushes() {
        let svc = service(2, 10);
        let session = svc.create_session().unwrap();
        svc.open_round(session, 0, FoKind::Grr, 8.0, 2).unwrap();
        let responses: Vec<UserResponse> = (0..37)
            .map(|_| UserResponse::Report {
                round: 0,
                report: Report::Grr(0),
            })
            .collect();
        svc.submit_batch(session, responses).unwrap();
        assert_eq!(svc.close_round(session).unwrap().reporters, 37);
    }

    #[test]
    fn sequenced_submits_are_idempotent() {
        let svc = service(1, 8);
        let session = svc.create_session().unwrap();
        svc.open_round(session, 0, FoKind::Grr, 8.0, 2).unwrap();
        let delta = |n: usize| -> Vec<UserResponse> {
            (0..n)
                .map(|_| UserResponse::Report {
                    round: 0,
                    report: Report::Grr(0),
                })
                .collect()
        };
        assert_eq!(svc.next_seq(session).unwrap(), 0);
        svc.submit_batch_at(session, 0, delta(5)).unwrap();
        // A retry of the acknowledged delta is a no-op...
        svc.submit_batch_at(session, 0, delta(5)).unwrap();
        // ...and a skipped sequence number is a typed gap.
        assert_eq!(
            svc.submit_batch_at(session, 2, delta(5)).unwrap_err(),
            CoreError::SequenceGap {
                expected: 1,
                got: 2
            }
        );
        svc.submit_batch_at(session, 1, delta(3)).unwrap();
        assert_eq!(svc.close_round(session).unwrap().reporters, 8);
    }

    #[test]
    fn close_round_at_replays_the_last_estimate() {
        let svc = service(2, 4);
        let session = svc.create_session().unwrap();
        svc.open_round(session, 0, FoKind::Grr, 1.0, 3).unwrap();
        for _ in 0..20 {
            svc.submit(
                session,
                UserResponse::Report {
                    round: 0,
                    report: Report::Grr(2),
                },
            )
            .unwrap();
        }
        let first = svc.close_round_at(session, 0).unwrap();
        let replay = svc.close_round_at(session, 0).unwrap();
        assert_eq!(first, replay);
        assert_eq!(
            svc.close_round_at(session, 5).unwrap_err(),
            CoreError::NoOpenRound
        );
    }

    #[test]
    fn open_round_at_replays_the_open_request() {
        let svc = service(1, 4);
        let session = svc.create_session().unwrap();
        let first = svc
            .open_round_at(session, 0, 7, FoKind::Grr, 1.0, 2)
            .unwrap();
        let replay = svc
            .open_round_at(session, 0, 7, FoKind::Grr, 1.0, 2)
            .unwrap();
        assert_eq!(first, replay);
        assert_eq!(
            svc.open_round_at(session, 1, 7, FoKind::Grr, 1.0, 2)
                .unwrap_err(),
            CoreError::SessionBusy {
                session: session.raw(),
                round: 0
            }
        );
        svc.close_round(session).unwrap();
        assert_eq!(
            svc.open_round_at(session, 5, 8, FoKind::Grr, 1.0, 2)
                .unwrap_err(),
            CoreError::StaleRound {
                expected: 1,
                got: 5
            }
        );
    }
}
