//! The session lifecycle as one lock-free, I/O-free state machine.
//!
//! A [`SessionTable`] holds every session of one service and is the
//! only code that decides what a lifecycle call may do: every
//! [`UnknownSession`](CoreError::UnknownSession),
//! [`SessionBusy`](CoreError::SessionBusy),
//! [`StaleRound`](CoreError::StaleRound),
//! [`SequenceGap`](CoreError::SequenceGap) and
//! [`NoOpenRound`](CoreError::NoOpenRound) is raised here, and the
//! round, sequence, refusal and budget counters move only here.
//!
//! It has two drivers, and they call the same transitions:
//!
//! * the live [`IngestService`](crate::IngestService) — lock, check,
//!   append to the WAL, apply, hand the effects to the worker pool;
//! * [`recovery`](crate::recovery) — walk the WAL, check, apply, hand
//!   the effects to a local shard arena.
//!
//! So that a record can be logged *between* the check and the mutation
//! (log before ack), a transition that has something to log comes in two
//! halves: the call checks and returns a step ([`OpenStep`],
//! [`AcceptStep`], [`EndStep`]) that has changed nothing yet, and the
//! step's `apply` performs it. Dropping a step instead leaves the table
//! exactly as it was.
//!
//! A report delta is checked by one transition,
//! [`SessionTable::accept_delta`], whichever driver holds it and in
//! whichever shape: rows from an in-process caller, or bytes — a
//! `SubmitBatch` frame's, a logged `Reports` record's. The shapes differ
//! only in how they become the open round's columns (a transpose, or a
//! decode that also decides whether the bytes are a response list at
//! all); the rules after that are the same code.

use crate::batch::{ColumnarBatch, RoundKey};
use crate::codec::{take_responses, Cursor, EncodedResponses};
use ldp_fo::{build_oracle, FoKind, OracleHandle};
use ldp_ids::collector::RoundEstimate;
use ldp_ids::protocol::{ReportRequest, UserResponse};
use ldp_ids::CoreError;
use std::collections::HashMap;

/// Identifies one ingest session (one logical stream/query).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(u64);

impl SessionId {
    /// Construct from a raw id (test/interop helper; ids handed out by
    /// [`IngestService::create_session`](crate::IngestService::create_session)
    /// are the normal path).
    pub fn from_raw(raw: u64) -> Self {
        SessionId(raw)
    }

    /// The raw id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A point-in-time view of one session's sequencing state — everything a
/// reconnecting client needs to resume the idempotent `*_at` call
/// sequence exactly where the service left off.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SessionStatus {
    /// The round id the next
    /// [`open_round_at`](crate::IngestService::open_round_at) must name.
    pub next_round: u64,
    /// The sequence number the next
    /// [`submit_batch_at`](crate::IngestService::submit_batch_at) must
    /// carry. Every logged report delta carries one; recovery and
    /// retries use it to apply each delta exactly once.
    pub next_seq: u64,
    /// The currently open round, if any.
    pub open_round: Option<u64>,
    /// Privacy budget consumed by closed rounds (Σ round ε).
    pub epsilon_spent: f64,
    /// Refusals observed across closed rounds.
    pub refusals: u64,
}

/// A round that is open on a session.
#[derive(Debug)]
pub(crate) struct OpenRound {
    /// Where the shards keep this round's tally.
    pub key: RoundKey,
    pub request: ReportRequest,
    pub oracle: OracleHandle,
}

impl OpenRound {
    /// The round oracle is built from the request alone — the same
    /// deterministic construction clients use, which is what lets a
    /// replayed round re-estimate bit-identically.
    pub fn new(session: SessionId, request: ReportRequest) -> Result<Self, CoreError> {
        Ok(OpenRound {
            key: RoundKey {
                session,
                round: request.round,
            },
            oracle: build_oracle(request.fo, request.epsilon, request.domain_size)?,
            request,
        })
    }

    /// The round's estimate from its fully merged tally.
    pub fn estimate(&self, support: &[u64], reporters: u64) -> RoundEstimate {
        RoundEstimate {
            frequencies: self.oracle.estimate(support, reporters),
            reporters,
            epsilon: self.request.epsilon,
        }
    }
}

/// One session: its counters, the last close, and the open round.
#[derive(Debug, Default)]
pub(crate) struct Session {
    /// `status.open_round` mirrors `open`; both change together.
    status: SessionStatus,
    /// The most recently closed round and its estimate — kept so a
    /// client retrying a close whose ack was lost gets the original
    /// estimate back bit for bit.
    last_closed: Option<(u64, RoundEstimate)>,
    open: Option<OpenRound>,
}

impl Session {
    /// Rebuild a session from its persisted image.
    pub fn restore(
        mut status: SessionStatus,
        last_closed: Option<(u64, RoundEstimate)>,
        open: Option<OpenRound>,
    ) -> Self {
        status.open_round = open.as_ref().map(|o| o.request.round);
        Session {
            status,
            last_closed,
            open,
        }
    }

    pub fn status(&self) -> SessionStatus {
        self.status
    }

    pub fn last_closed(&self) -> Option<&(u64, RoundEstimate)> {
        self.last_closed.as_ref()
    }

    pub fn open(&self) -> Option<&OpenRound> {
        self.open.as_ref()
    }
}

/// Every session of one service.
#[derive(Debug, Default)]
pub(crate) struct SessionTable {
    next_session: u64,
    sessions: HashMap<SessionId, Session>,
}

/// Outcome of [`SessionTable::open_round`].
pub(crate) enum Opening<'a> {
    /// A retry of the open that is already in effect: its stored
    /// request. Nothing to log, nothing to apply.
    Replayed(&'a ReportRequest),
    /// A new round.
    Fresh(OpenStep<'a>),
}

/// A checked open: log [`request`](Self::request), then
/// [`apply`](Self::apply).
pub(crate) struct OpenStep<'a> {
    session: &'a mut Session,
    round: OpenRound,
}

impl<'a> OpenStep<'a> {
    pub fn request(&self) -> &ReportRequest {
        &self.round.request
    }

    pub fn apply(self) -> &'a mut OpenRound {
        self.session.status.next_round += 1;
        self.session.status.open_round = Some(self.round.request.round);
        self.session.open.insert(self.round)
    }
}

/// A checked report delta: log it under [`round`](Self::round) and
/// [`seq`](Self::seq), then [`apply`](Self::apply) and fold the columns
/// that came with it into the round handed back.
pub(crate) struct AcceptStep<'a> {
    session: &'a mut Session,
}

impl<'a> AcceptStep<'a> {
    pub fn round(&self) -> u64 {
        self.session
            .status
            .open_round
            .expect("checked by accept_delta")
    }

    pub fn seq(&self) -> u64 {
        self.session.status.next_seq
    }

    pub fn apply(self) -> &'a OpenRound {
        self.session.status.next_seq += 1;
        self.session.open.as_ref().expect("checked by accept_delta")
    }
}

/// Outcome of [`SessionTable::begin_close`].
pub(crate) enum Closing {
    /// A retry of the most recent close: the recorded estimate.
    Replayed(RoundEstimate),
    /// The round left the session; tally it, log the outcome, then
    /// [`finish_close`](SessionTable::finish_close).
    Begun(OpenRound),
}

/// A checked end of session: log it, then [`apply`](Self::apply).
pub(crate) struct EndStep<'a> {
    table: &'a mut SessionTable,
    session: SessionId,
}

impl EndStep<'_> {
    pub fn apply(self) {
        self.table.sessions.remove(&self.session);
    }
}

/// A report delta, in the shape it reached the service in: the rows an
/// in-process caller holds, or the bytes `put_responses` wrote for them.
/// Live bytes come as [`EncodedResponses`], whose checksum the WAL
/// reuses; the checks read only the bytes, which is all a replayed
/// record has (`Delta<'_, [u8]>`).
#[derive(Debug)]
pub(crate) enum Delta<'a, Bytes: ?Sized = EncodedResponses> {
    Rows(&'a [UserResponse]),
    Bytes(&'a Bytes),
}

impl<'a> Delta<'a> {
    /// The same delta, its bytes as a plain slice.
    pub fn as_slice(&self) -> Delta<'a, [u8]> {
        match *self {
            Delta::Rows(rows) => Delta::Rows(rows),
            Delta::Bytes(encoded) => Delta::Bytes(encoded.bytes()),
        }
    }
}

impl Delta<'_, [u8]> {
    /// The delta as `open`'s columns — rows transposed, bytes decoded.
    /// With no round open there are no columns to make, and bytes are
    /// only read through; `Err` when they are not a response list.
    fn columns(&self, open: Option<&OpenRound>) -> Result<Option<ColumnarBatch>, String> {
        let shape = open.map(|open| {
            (
                open.oracle.kind(),
                open.oracle.domain_size(),
                open.key.round,
            )
        });
        match *self {
            Delta::Rows(rows) => {
                Ok(shape.map(|(kind, d, round)| ColumnarBatch::encode(kind, d, round, rows)))
            }
            Delta::Bytes(bytes) => {
                let mut cur = Cursor::new(bytes);
                let columns = match shape {
                    Some((kind, d, round)) => {
                        ColumnarBatch::decode(kind, d, round, &mut cur).map(Some)?
                    }
                    None => take_responses(&mut cur).map(|_| None)?,
                };
                cur.finish()?;
                Ok(columns)
            }
        }
    }
}

/// Why a report delta was refused, live or on replay.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodedSubmitError {
    /// The bytes are not a response list: a count the bytes cannot hold,
    /// an unknown tag, a truncated row, bytes behind the last row. The
    /// detail is the decoder's. Rows are never undecodable.
    Undecodable(String),
    /// They are, and the session's state refuses them — the error
    /// [`IngestService::submit_batch_at`](crate::IngestService::submit_batch_at)
    /// gives for the same rows.
    Rule(CoreError),
}

impl From<CoreError> for EncodedSubmitError {
    fn from(e: CoreError) -> Self {
        EncodedSubmitError::Rule(e)
    }
}

fn unknown(session: SessionId) -> CoreError {
    CoreError::UnknownSession {
        session: session.raw(),
    }
}

impl SessionTable {
    /// Rebuild a table from its persisted image.
    pub fn restore(next_session: u64, sessions: HashMap<SessionId, Session>) -> Self {
        SessionTable {
            next_session,
            sessions,
        }
    }

    /// The id the next [`create`](Self::create) assigns (never reused,
    /// also not after an end).
    pub fn next_id(&self) -> SessionId {
        SessionId(self.next_session)
    }

    /// Every live session, in id order.
    pub fn sessions(&self) -> Vec<(SessionId, &Session)> {
        let mut all: Vec<_> = self.sessions.iter().map(|(id, s)| (*id, s)).collect();
        all.sort_by_key(|(id, _)| id.raw());
        all
    }

    pub fn get(&self, session: SessionId) -> Result<&Session, CoreError> {
        self.sessions.get(&session).ok_or(unknown(session))
    }

    fn get_mut(&mut self, session: SessionId) -> Result<&mut Session, CoreError> {
        self.sessions.get_mut(&session).ok_or(unknown(session))
    }

    /// Create the session [`next_id`](Self::next_id) announced.
    pub fn create(&mut self) -> SessionId {
        let id = self.next_id();
        self.next_session += 1;
        self.sessions.insert(id, Session::default());
        id
    }

    /// Check an open of `session`'s next round. `expect` is the round a
    /// retrying client names: naming the round that is already open
    /// replays its request, any other round while one is open is
    /// [`SessionBusy`](CoreError::SessionBusy), and a round out of
    /// sequence is [`StaleRound`](CoreError::StaleRound).
    pub fn open_round(
        &mut self,
        session: SessionId,
        expect: Option<u64>,
        t: u64,
        fo: FoKind,
        epsilon: f64,
        domain_size: usize,
    ) -> Result<Opening<'_>, CoreError> {
        let s = self.get_mut(session)?;
        if let Some(round) = s.status.open_round {
            if expect != Some(round) {
                return Err(CoreError::SessionBusy {
                    session: session.raw(),
                    round,
                });
            }
            let open = s.open.as_ref().expect("mirrors status.open_round");
            return Ok(Opening::Replayed(&open.request));
        }
        let round = s.status.next_round;
        if let Some(got) = expect.filter(|got| *got != round) {
            return Err(CoreError::StaleRound {
                expected: round,
                got,
            });
        }
        let request = ReportRequest {
            round,
            t,
            fo,
            epsilon,
            domain_size,
        };
        Ok(Opening::Fresh(OpenStep {
            round: OpenRound::new(session, request)?,
            session: s,
        }))
    }

    /// Check report delta `seq` of `session`, sent for `round`. In
    /// order: *structure* — with a round open the delta becomes its
    /// columns, without one bytes are only read through — then the
    /// *sequence* rules, then the *echoes*. `seq` is the number a
    /// retrying client names: a delta the session already has is `None`
    /// (acknowledge, apply nothing), one from the future is
    /// [`SequenceGap`](CoreError::SequenceGap); `None` is the next one.
    /// Every echo must name the open round: `round` first, the columns'
    /// own after it. The columns come back with the step, to be folded
    /// once it is applied.
    pub fn accept_delta(
        &mut self,
        session: SessionId,
        round: Option<u64>,
        seq: Option<u64>,
        delta: Delta<'_, [u8]>,
    ) -> Result<Option<(AcceptStep<'_>, ColumnarBatch)>, EncodedSubmitError> {
        let open = self.sessions.get(&session).and_then(Session::open);
        let columns = delta
            .columns(open)
            .map_err(EncodedSubmitError::Undecodable)?;
        let s = self.get_mut(session)?;
        if let Some(got) = seq {
            let expected = s.status.next_seq;
            if got < expected {
                return Ok(None);
            }
            if got > expected {
                return Err(CoreError::SequenceGap { expected, got }.into());
            }
        }
        let expected = s.status.open_round.ok_or(CoreError::NoOpenRound)?;
        let columns = columns.expect("the round is open, so the delta became its columns");
        let stale = round.filter(|round| *round != expected);
        if let Some(got) = stale.or(columns.first_stale()) {
            return Err(CoreError::StaleRound { expected, got }.into());
        }
        Ok(Some((AcceptStep { session: s }, columns)))
    }

    /// Take `session`'s open round out for closing. `expect` is the
    /// round a retrying client names: naming the most recently closed
    /// round replays its estimate.
    pub fn begin_close(
        &mut self,
        session: SessionId,
        expect: Option<u64>,
    ) -> Result<Closing, CoreError> {
        let s = self.get_mut(session)?;
        if let Some(got) = expect.filter(|got| Some(*got) != s.status.open_round) {
            return match (&s.last_closed, s.status.open_round) {
                (Some((closed, estimate)), _) if *closed == got => {
                    Ok(Closing::Replayed(estimate.clone()))
                }
                (_, Some(expected)) => Err(CoreError::StaleRound { expected, got }),
                (_, None) => Err(CoreError::NoOpenRound),
            };
        }
        s.status.open_round = None;
        s.open
            .take()
            .map(Closing::Begun)
            .ok_or(CoreError::NoOpenRound)
    }

    /// Book the outcome of the close [`begin_close`](Self::begin_close)
    /// started. A session ended in between (possible only when the
    /// caller let go of the table while tallying) stays ended.
    pub fn finish_close(
        &mut self,
        session: SessionId,
        round: u64,
        refusals: u64,
        estimate: RoundEstimate,
    ) {
        if let Some(s) = self.sessions.get_mut(&session) {
            s.status.refusals += refusals;
            s.status.epsilon_spent += estimate.epsilon;
            s.last_closed = Some((round, estimate));
        }
    }

    /// Check the end of `session`: ending one whose round is still open
    /// is [`SessionBusy`](CoreError::SessionBusy).
    pub fn end(&mut self, session: SessionId) -> Result<EndStep<'_>, CoreError> {
        if let Some(round) = self.get(session)?.status.open_round {
            return Err(CoreError::SessionBusy {
                session: session.raw(),
                round,
            });
        }
        Ok(EndStep {
            table: self,
            session,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::put_responses;
    use ldp_fo::Report;

    fn report(round: u64) -> UserResponse {
        UserResponse::Report {
            round,
            report: Report::Grr(0),
        }
    }

    fn open(table: &mut SessionTable, session: SessionId, expect: Option<u64>) -> u64 {
        match table
            .open_round(session, expect, 7, FoKind::Grr, 1.0, 2)
            .unwrap()
        {
            Opening::Fresh(step) => step.apply().request.round,
            Opening::Replayed(_) => panic!("expected a fresh round"),
        }
    }

    fn close(table: &mut SessionTable, session: SessionId, refusals: u64) -> RoundEstimate {
        let Closing::Begun(round) = table.begin_close(session, None).unwrap() else {
            panic!("expected an open round");
        };
        let estimate = round.estimate(&[3, 1], 4);
        table.finish_close(session, round.request.round, refusals, estimate.clone());
        estimate
    }

    #[test]
    fn ids_are_sequential_and_never_reused() {
        let mut table = SessionTable::default();
        assert_eq!(table.next_id(), SessionId(0));
        let a = table.create();
        let b = table.create();
        assert_eq!((a, b), (SessionId(0), SessionId(1)));
        table.end(b).unwrap().apply();
        assert_eq!(table.create(), SessionId(2));
        assert_eq!(
            table.get(b).unwrap_err(),
            CoreError::UnknownSession { session: 1 }
        );
        let ids: Vec<_> = table.sessions().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, [SessionId(0), SessionId(2)]);
    }

    #[test]
    fn a_dropped_step_changes_nothing() {
        let mut table = SessionTable::default();
        let s = table.create();
        let Opening::Fresh(step) = table.open_round(s, None, 0, FoKind::Grr, 1.0, 2).unwrap()
        else {
            panic!("fresh");
        };
        assert_eq!(step.request().round, 0);
        drop(step);
        assert_eq!(table.get(s).unwrap().status(), SessionStatus::default());

        open(&mut table, s, None);
        let before = table.get(s).unwrap().status();
        {
            let (step, _) = table
                .accept_delta(s, None, None, Delta::Rows(&[report(0)]))
                .unwrap()
                .unwrap();
            assert_eq!((step.round(), step.seq()), (0, 0));
        }
        assert_eq!(table.get(s).unwrap().status(), before);

        close(&mut table, s, 0);
        let _unapplied = table.end(s).unwrap();
        assert!(table.get(s).is_ok());
    }

    #[test]
    fn open_rules() {
        let mut table = SessionTable::default();
        let ghost = SessionId(9);
        assert_eq!(
            table
                .open_round(ghost, None, 0, FoKind::Grr, 1.0, 2)
                .err()
                .unwrap(),
            CoreError::UnknownSession { session: 9 }
        );
        let s = table.create();
        assert!(matches!(
            table.open_round(s, Some(3), 0, FoKind::Grr, 1.0, 2),
            Err(CoreError::StaleRound {
                expected: 0,
                got: 3
            })
        ));
        assert!(matches!(
            table.open_round(s, None, 0, FoKind::Grr, -1.0, 2),
            Err(CoreError::Oracle(_))
        ));
        assert_eq!(open(&mut table, s, Some(0)), 0);
        // Naming the open round replays its request; anything else is busy.
        match table
            .open_round(s, Some(0), 99, FoKind::Oue, 2.0, 5)
            .unwrap()
        {
            Opening::Replayed(request) => assert_eq!((request.t, request.fo), (7, FoKind::Grr)),
            Opening::Fresh(_) => panic!("expected a replay"),
        }
        for expect in [None, Some(1)] {
            assert!(matches!(
                table.open_round(s, expect, 0, FoKind::Grr, 1.0, 2),
                Err(CoreError::SessionBusy {
                    session: 0,
                    round: 0
                })
            ));
        }
        let status = table.get(s).unwrap().status();
        assert_eq!((status.next_round, status.open_round), (1, Some(0)));
    }

    fn bytes(rows: &[UserResponse]) -> Vec<u8> {
        let mut out = Vec::new();
        put_responses(&mut out, rows);
        out
    }

    /// What `accept_delta` decided: the step's round and sequence number
    /// and the columns, `None` for a duplicate, or the refusal.
    type Outcome = Result<Option<(u64, u64, ColumnarBatch)>, EncodedSubmitError>;

    fn accept(
        table: &mut SessionTable,
        session: SessionId,
        round: Option<u64>,
        seq: Option<u64>,
        delta: Delta<'_, [u8]>,
    ) -> Outcome {
        let accepted = table.accept_delta(session, round, seq, delta)?;
        Ok(accepted.map(|(step, columns)| (step.round(), step.seq(), columns)))
    }

    /// [`accept`] of `rows` as rows and as their bytes, which must agree.
    fn accept_both(
        table: &mut SessionTable,
        session: SessionId,
        round: Option<u64>,
        seq: Option<u64>,
        rows: &[UserResponse],
    ) -> Outcome {
        let as_rows = accept(table, session, round, seq, Delta::Rows(rows));
        let as_bytes = accept(table, session, round, seq, Delta::Bytes(&bytes(rows)));
        assert_eq!(as_rows, as_bytes, "{round:?}/{seq:?}: {rows:?}");
        as_rows
    }

    fn rule(e: CoreError) -> Outcome {
        Err(EncodedSubmitError::Rule(e))
    }

    /// Every lifecycle rule, in both shapes.
    #[test]
    fn accept_rules() {
        let mut table = SessionTable::default();
        let s = table.create();
        let ghost = SessionId(9);
        let one = [report(0)];
        assert_eq!(
            accept_both(&mut table, s, None, None, &one),
            rule(CoreError::NoOpenRound)
        );
        assert_eq!(
            accept_both(&mut table, ghost, Some(0), Some(0), &one),
            rule(CoreError::UnknownSession { session: 9 })
        );
        open(&mut table, s, None);
        let stale = |got| rule(CoreError::StaleRound { expected: 0, got });
        // An inner echo of another round; a head round naming one.
        let inner = [report(0), report(4)];
        assert_eq!(accept_both(&mut table, s, None, None, &inner), stale(4));
        assert_eq!(accept_both(&mut table, s, Some(7), None, &one), stale(7));
        let accepted = accept_both(&mut table, s, Some(0), Some(0), &one);
        let (round, seq, columns) = accepted.unwrap().unwrap();
        assert_eq!((round, seq, columns.responses()), (0, 0, 1));
        let step = table.accept_delta(s, None, Some(0), Delta::Rows(&one));
        step.unwrap().unwrap().0.apply();
        // Sequence rules come before round rules: a duplicate is
        // acknowledged whatever it carries, a gap is a gap.
        assert_eq!(
            accept_both(&mut table, s, Some(7), Some(0), &inner),
            Ok(None)
        );
        assert_eq!(
            accept_both(&mut table, s, None, Some(2), &one),
            rule(CoreError::SequenceGap {
                expected: 1,
                got: 2
            })
        );
        // Unsequenced is the next delta; an empty one has empty columns.
        let (_, seq, columns) = accept_both(&mut table, s, None, None, &[])
            .unwrap()
            .unwrap();
        assert_eq!(seq, 1);
        assert!(columns.is_empty());
        assert_eq!(table.get(s).unwrap().status().next_seq, 1);
    }

    /// Whether `bytes` are refused as not being a response list.
    fn undecodable(table: &mut SessionTable, session: SessionId, bytes: &[u8]) -> bool {
        matches!(
            accept(table, session, Some(0), Some(0), Delta::Bytes(bytes)),
            Err(EncodedSubmitError::Undecodable(_))
        )
    }

    /// Structure before lifecycle, wherever the delta lands: bytes that
    /// are not a response list are undecodable with a round open, with
    /// none, and on a session that does not exist; honest bytes meet the
    /// lifecycle's refusal. Nothing moves either way.
    #[test]
    fn accept_encoded_checks_structure_before_lifecycle() {
        let mut table = SessionTable::default();
        let s = table.create();
        let ghost = SessionId(9);
        let honest = bytes(&[report(0), report(0)]);
        let truncated = honest[..honest.len() - 1].to_vec();
        let mut trailing = honest.clone();
        trailing.push(0);
        let mut bad_tag = honest.clone();
        bad_tag[4] = 7;
        let forged_count = vec![1, 0, 0, 0];
        let broken = [&truncated, &trailing, &bad_tag, &forged_count];

        for forged in broken {
            assert!(undecodable(&mut table, s, forged), "no round");
            assert!(undecodable(&mut table, ghost, forged), "no session");
        }
        assert_eq!(
            accept(&mut table, s, Some(0), Some(0), Delta::Bytes(&honest)),
            rule(CoreError::NoOpenRound)
        );
        assert_eq!(
            accept(&mut table, ghost, Some(0), Some(0), Delta::Bytes(&honest)),
            rule(CoreError::UnknownSession { session: 9 })
        );
        open(&mut table, s, None);
        let before = table.get(s).unwrap().status();
        for forged in broken {
            assert!(undecodable(&mut table, s, forged), "round open");
        }
        assert_eq!(table.get(s).unwrap().status(), before);
    }

    /// Then the sequence rules — a duplicate is `None` whatever it names
    /// or carries, a gap is a gap — and only then the echoes: the head
    /// round first, the rows' after it. In both shapes.
    #[test]
    fn accept_encoded_sequence_rules_then_echoes() {
        let mut table = SessionTable::default();
        let s = table.create();
        open(&mut table, s, None);
        let (step, _) = table
            .accept_delta(s, Some(0), Some(0), Delta::Bytes(&bytes(&[report(0)])))
            .unwrap()
            .unwrap();
        assert_eq!((step.round(), step.seq()), (0, 0));
        step.apply();

        for (head, rows) in [(0, [report(0)]), (7, [report(7)]), (0, [report(3)])] {
            let duplicate = accept_both(&mut table, s, Some(head), Some(0), &rows);
            assert_eq!(duplicate, Ok(None), "head {head}");
        }
        assert_eq!(
            accept_both(&mut table, s, Some(7), Some(4), &[report(3)]),
            rule(CoreError::SequenceGap {
                expected: 1,
                got: 4
            })
        );
        let stale = |got| rule(CoreError::StaleRound { expected: 0, got });
        // A head naming another round is refused though no row
        // contradicts it (an empty delta), every row agrees with it, or
        // a row names a third round.
        for rows in [vec![], vec![report(7)], vec![report(3)]] {
            assert_eq!(
                accept_both(&mut table, s, Some(7), Some(1), &rows),
                stale(7)
            );
        }
        let rows = [report(0), report(3), report(5)];
        assert_eq!(
            accept_both(&mut table, s, Some(0), Some(1), &rows),
            stale(3)
        );
        assert_eq!(table.get(s).unwrap().status().next_seq, 1);
    }

    /// The columns handed back are `ColumnarBatch::encode` of the rows
    /// the row decoder reads from the same bytes: column rows, leftovers
    /// and refusals alike.
    #[test]
    fn accept_encoded_columns_are_encode_of_the_decoded_rows() {
        let mut table = SessionTable::default();
        let s = table.create();
        let Opening::Fresh(step) = table.open_round(s, None, 0, FoKind::Oue, 1.0, 70).unwrap()
        else {
            panic!("fresh");
        };
        step.apply();
        let oue = |bits: Vec<u64>, len| UserResponse::Report {
            round: 0,
            report: Report::Oue { bits, len },
        };
        let rows = [
            oue(vec![0b1011, 0b10], 70),
            oue(vec![u64::MAX; 3], 70),
            oue(vec![1], 71),
            report(0),
            UserResponse::Refused {
                round: 0,
                requested: 1.0,
                available: 0.5,
            },
        ];
        let encoded = bytes(&rows);
        let (step, columns) = table
            .accept_delta(s, Some(0), Some(0), Delta::Bytes(&encoded))
            .unwrap()
            .unwrap();
        let decoded = take_responses(&mut Cursor::new(&encoded)).unwrap();
        assert_eq!(columns, ColumnarBatch::encode(FoKind::Oue, 70, 0, &decoded));
        assert_eq!((columns.columns().len(), columns.leftovers().len()), (1, 3));
        assert_eq!((columns.refusals(), columns.responses()), (1, 5));
        step.apply();
        assert_eq!(table.get(s).unwrap().status().next_seq, 1);
    }

    #[test]
    fn close_rules_and_bookkeeping() {
        let mut table = SessionTable::default();
        let s = table.create();
        assert_eq!(
            table.begin_close(s, None).err().unwrap(),
            CoreError::NoOpenRound
        );
        assert_eq!(
            table.begin_close(s, Some(0)).err().unwrap(),
            CoreError::NoOpenRound
        );
        open(&mut table, s, None);
        assert_eq!(
            table.begin_close(s, Some(5)).err().unwrap(),
            CoreError::StaleRound {
                expected: 0,
                got: 5
            }
        );
        let first = close(&mut table, s, 2);
        assert_eq!(first.epsilon, 1.0);
        // The last close replays bit for bit, open round or not.
        for _ in 0..2 {
            match table.begin_close(s, Some(0)).unwrap() {
                Closing::Replayed(estimate) => assert_eq!(estimate, first),
                Closing::Begun(_) => panic!("expected a replay"),
            }
            if table.get(s).unwrap().status().open_round.is_none() {
                open(&mut table, s, None);
            }
        }
        close(&mut table, s, 1);
        let session = table.get(s).unwrap();
        assert_eq!(
            session.status(),
            SessionStatus {
                next_round: 2,
                next_seq: 0,
                open_round: None,
                epsilon_spent: 2.0,
                refusals: 3,
            }
        );
        assert_eq!(session.last_closed().unwrap().0, 1);
    }

    #[test]
    fn end_rules() {
        let mut table = SessionTable::default();
        assert_eq!(
            table.end(SessionId(4)).err().unwrap(),
            CoreError::UnknownSession { session: 4 }
        );
        let s = table.create();
        open(&mut table, s, None);
        assert_eq!(
            table.end(s).err().unwrap(),
            CoreError::SessionBusy {
                session: 0,
                round: 0
            }
        );
        // A close in flight has left the session idle, so it can end;
        // the close's outcome is then dropped, not resurrected.
        let Closing::Begun(round) = table.begin_close(s, None).unwrap() else {
            panic!("expected an open round");
        };
        table.end(s).unwrap().apply();
        table.finish_close(s, 0, 0, round.estimate(&[0, 0], 0));
        assert!(table.get(s).is_err());
    }
}
