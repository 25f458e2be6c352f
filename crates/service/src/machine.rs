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
//! A report delta held as bytes — a `SubmitBatch` frame's, a logged
//! `Reports` record's — is checked by one transition,
//! [`SessionTable::accept_encoded`], whichever driver holds it: whether
//! its bytes are a response list is decided there too, before anything
//! about the session.

use crate::batch::{ColumnarBatch, RoundKey};
use crate::codec::{take_responses, Cursor};
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
    /// Accepted responses not yet handed to a shard.
    pub pending: Vec<UserResponse>,
}

impl OpenRound {
    /// The round oracle is built from the request alone — the same
    /// deterministic construction clients use, which is what lets a
    /// replayed round re-estimate bit-identically.
    pub fn new(
        session: SessionId,
        request: ReportRequest,
        pending: Vec<UserResponse>,
    ) -> Result<Self, CoreError> {
        Ok(OpenRound {
            key: RoundKey {
                session,
                round: request.round,
            },
            oracle: build_oracle(request.fo, request.epsilon, request.domain_size)?,
            request,
            pending,
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
/// [`seq`](Self::seq), then [`apply`](Self::apply) and feed the
/// responses to the round handed back.
pub(crate) struct AcceptStep<'a> {
    session: &'a mut Session,
}

impl<'a> AcceptStep<'a> {
    pub fn round(&self) -> u64 {
        self.session.status.open_round.expect("checked by accept")
    }

    pub fn seq(&self) -> u64 {
        self.session.status.next_seq
    }

    pub fn apply(self) -> &'a mut OpenRound {
        self.session.status.next_seq += 1;
        self.session.open.as_mut().expect("checked by accept")
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

/// Why a report delta held as bytes was refused, live or on replay.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodedSubmitError {
    /// The bytes are not a response list: a count the bytes cannot hold,
    /// an unknown tag, a truncated row, bytes behind the last row. The
    /// detail is the decoder's.
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

/// The first round `responses` echo that is not `open`, as a check for
/// [`SessionTable::accept`].
pub(crate) fn stale_echo(responses: &[UserResponse]) -> impl FnOnce(u64) -> Option<u64> + '_ {
    move |open| {
        let mut echoed = responses.iter().map(|response| {
            let (UserResponse::Report { round, .. } | UserResponse::Refused { round, .. }) =
                response;
            *round
        });
        echoed.find(|round| *round != open)
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
            round: OpenRound::new(session, request, Vec::new())?,
            session: s,
        }))
    }

    /// Check a delta of responses for `session`'s open round. `expect`
    /// is the sequence number a retrying client names: a delta the
    /// session already has is `None` (acknowledge, apply nothing), one
    /// from the future is [`SequenceGap`](CoreError::SequenceGap). Every
    /// response must echo the open round: `stale`, given that round,
    /// names the first echo that does not ([`stale_echo`] of the rows, or
    /// what [`accept_encoded`](Self::accept_encoded) decoded).
    pub fn accept(
        &mut self,
        session: SessionId,
        expect: Option<u64>,
        stale: impl FnOnce(u64) -> Option<u64>,
    ) -> Result<Option<AcceptStep<'_>>, CoreError> {
        let s = self.get_mut(session)?;
        if let Some(got) = expect {
            let expected = s.status.next_seq;
            if got < expected {
                return Ok(None);
            }
            if got > expected {
                return Err(CoreError::SequenceGap { expected, got });
            }
        }
        let expected = s.status.open_round.ok_or(CoreError::NoOpenRound)?;
        if let Some(got) = stale(expected) {
            return Err(CoreError::StaleRound { expected, got });
        }
        Ok(Some(AcceptStep { session: s }))
    }

    /// [`accept`](Self::accept) for delta `seq` of `session` held as the
    /// bytes `put_responses` wrote, sent for `round`. In order:
    /// *structure* — with a round open the bytes decode into its columns,
    /// without one they are only read through — then the *sequence*
    /// rules, then the *echoes*: `round` is the delta's first, the
    /// columns' own come after. The columns come back with the step, to
    /// be folded once it is applied.
    pub fn accept_encoded(
        &mut self,
        session: SessionId,
        round: u64,
        seq: u64,
        bytes: &[u8],
    ) -> Result<Option<(AcceptStep<'_>, ColumnarBatch)>, EncodedSubmitError> {
        let mut cur = Cursor::new(bytes);
        let columns = match self.sessions.get(&session).and_then(Session::open) {
            Some(open) => {
                let (kind, d) = (open.oracle.kind(), open.oracle.domain_size());
                ColumnarBatch::decode(kind, d, open.key.round, &mut cur).map(Some)
            }
            None => take_responses(&mut cur).map(|_| None),
        };
        let columns = columns
            .and_then(|columns| cur.finish().map(|()| columns))
            .map_err(EncodedSubmitError::Undecodable)?;
        let first_stale = columns.as_ref().and_then(ColumnarBatch::first_stale);
        let stale = |open| Some(round).filter(|round| *round != open).or(first_stale);
        let Some(step) = self.accept(session, Some(seq), stale)? else {
            return Ok(None);
        };
        let columns = columns.expect("accept found the round the bytes decoded for");
        Ok(Some((step, columns)))
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
            let step = table
                .accept(s, None, stale_echo(&[report(0)]))
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

    #[test]
    fn accept_rules() {
        let mut table = SessionTable::default();
        let s = table.create();
        assert_eq!(
            table
                .accept(s, None, stale_echo(&[report(0)]))
                .err()
                .unwrap(),
            CoreError::NoOpenRound
        );
        open(&mut table, s, None);
        assert_eq!(
            table
                .accept(s, None, stale_echo(&[report(0), report(4)]))
                .err()
                .unwrap(),
            CoreError::StaleRound {
                expected: 0,
                got: 4
            }
        );
        table
            .accept(s, Some(0), stale_echo(&[report(0)]))
            .unwrap()
            .unwrap()
            .apply();
        // Sequence rules come before round rules: a duplicate is
        // acknowledged whatever it carries, a gap is a gap.
        assert!(table
            .accept(s, Some(0), stale_echo(&[report(4)]))
            .unwrap()
            .is_none());
        assert_eq!(
            table
                .accept(s, Some(2), stale_echo(&[report(0)]))
                .err()
                .unwrap(),
            CoreError::SequenceGap {
                expected: 1,
                got: 2
            }
        );
        let round = table
            .accept(s, Some(1), stale_echo(&[]))
            .unwrap()
            .unwrap()
            .apply();
        round.pending.push(report(0));
        assert_eq!(table.get(s).unwrap().status().next_seq, 2);
        assert_eq!(table.get(s).unwrap().open().unwrap().pending.len(), 1);
    }

    fn bytes(rows: &[UserResponse]) -> Vec<u8> {
        let mut out = Vec::new();
        put_responses(&mut out, rows);
        out
    }

    /// Whether `bytes` are refused as not being a response list.
    fn undecodable(table: &mut SessionTable, session: SessionId, bytes: &[u8]) -> bool {
        matches!(
            table.accept_encoded(session, 0, 0, bytes),
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
            table.accept_encoded(s, 0, 0, &honest).err(),
            Some(EncodedSubmitError::Rule(CoreError::NoOpenRound))
        );
        assert_eq!(
            table.accept_encoded(ghost, 0, 0, &honest).err(),
            Some(EncodedSubmitError::Rule(CoreError::UnknownSession {
                session: 9
            }))
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
    /// round first, the rows' after it.
    #[test]
    fn accept_encoded_sequence_rules_then_echoes() {
        let mut table = SessionTable::default();
        let s = table.create();
        open(&mut table, s, None);
        let (step, _) = table
            .accept_encoded(s, 0, 0, &bytes(&[report(0)]))
            .unwrap()
            .unwrap();
        assert_eq!((step.round(), step.seq()), (0, 0));
        step.apply();

        for (head, rows) in [(0, [report(0)]), (7, [report(7)]), (0, [report(3)])] {
            let duplicate = table.accept_encoded(s, head, 0, &bytes(&rows));
            assert!(duplicate.unwrap().is_none(), "head {head}");
        }
        assert_eq!(
            table.accept_encoded(s, 7, 4, &bytes(&[report(3)])).err(),
            Some(EncodedSubmitError::Rule(CoreError::SequenceGap {
                expected: 1,
                got: 4
            }))
        );
        let stale = |got| {
            Some(EncodedSubmitError::Rule(CoreError::StaleRound {
                expected: 0,
                got,
            }))
        };
        // A head naming another round is refused though no row
        // contradicts it (an empty delta), every row agrees with it, or
        // a row names a third round.
        for rows in [vec![], vec![report(7)], vec![report(3)]] {
            assert_eq!(table.accept_encoded(s, 7, 1, &bytes(&rows)).err(), stale(7));
        }
        let rows = [report(0), report(3), report(5)];
        assert_eq!(table.accept_encoded(s, 0, 1, &bytes(&rows)).err(), stale(3));
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
        let (step, columns) = table.accept_encoded(s, 0, 0, &encoded).unwrap().unwrap();
        let decoded = take_responses(&mut Cursor::new(&encoded)).unwrap();
        assert_eq!(columns, ColumnarBatch::encode(FoKind::Oue, 70, 0, decoded));
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
