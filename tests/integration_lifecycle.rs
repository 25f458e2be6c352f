//! Session-lifecycle sequencing properties of the `IngestService`:
//! arbitrary interleavings of `create_session` / `open_round` / `submit`
//! / `submit_batch` / `close_round` / `end_session` — including calls on
//! ended sessions, stale rounds, and out-of-order sequence numbers —
//! never panic and always yield the documented typed errors. The same
//! interleaving is driven against five lanes — an in-memory service, a
//! durable one, a durable one that is dropped and reopened after *every*
//! call, and those two durable lanes again with every delta submitted as
//! the bytes a `SubmitBatch` frame carries (`submit_encoded_at`) — which
//! must agree on every outcome and on the session status after it, and
//! close every round to the bits of the sequential `AggregationServer`:
//! replay drives the same state machine as live ingest, and the bytes
//! entry the same one as the rows entry, so neither a restart anywhere
//! in a schedule nor the form a delta arrives in is visible.

use ldp_fo::{build_oracle, FoKind, Report};
use ldp_ids::protocol::{AggregationServer, UserResponse};
use ldp_ids::CoreError;
use ldp_service::codec::EncodedResponses;
use ldp_service::{EncodedSubmitError, IngestService, ServiceConfig, SessionId, SessionStatus};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const DOMAIN: usize = 3;

/// One lifecycle call, with enough slack in its parameters to generate
/// both valid and invalid sequencing.
#[derive(Debug, Clone)]
enum Op {
    Create,
    Open,
    /// Submit one response whose round id is the open round shifted by
    /// `round_skew` (0 = valid, anything else = stale).
    Submit {
        round_skew: u64,
        refuse: bool,
    },
    /// Submit a delta of `n` responses at the session's expected
    /// sequence number shifted by `seq_skew` (0 = valid, negative space
    /// is modelled by re-sending earlier numbers).
    SubmitBatch {
        n: usize,
        seq_skew: i64,
    },
    Close,
    End,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        1 => Just(Op::Create),
        4 => Just(Op::Open),
        6 => (0u64..3, any::<bool>()).prop_map(|(round_skew, refuse)| Op::Submit {
            round_skew,
            refuse
        }),
        4 => (1usize..40, -2i64..3).prop_map(|(n, seq_skew)| Op::SubmitBatch { n, seq_skew }),
        4 => Just(Op::Close),
        2 => Just(Op::End),
    ]
}

fn response(round: u64, i: usize, refuse: bool) -> UserResponse {
    if refuse {
        UserResponse::Refused {
            round,
            requested: 1.0,
            available: 0.0,
        }
    } else {
        UserResponse::Report {
            round,
            report: Report::Grr((i as u32 * 5 + 1) % DOMAIN as u32),
        }
    }
}

/// How a lane hands the service its sequenced deltas.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// `submit_batch_at`, the rows as structs.
    Rows,
    /// `submit_encoded_at`, the rows as `put_responses` wrote them.
    Bytes,
}

/// Submit `responses` as delta `seq` of `round` through `entry`.
fn submit_delta(
    svc: &IngestService,
    entry: Entry,
    session: SessionId,
    round: u64,
    seq: u64,
    responses: Vec<UserResponse>,
) -> Result<(), CoreError> {
    match entry {
        Entry::Rows => svc.submit_batch_at(session, seq, responses),
        Entry::Bytes => {
            let encoded = EncodedResponses::encode(&responses);
            match svc.submit_encoded_at(session, round, seq, &encoded) {
                Ok(_next_seq) => Ok(()),
                Err(EncodedSubmitError::Rule(e)) => Err(e),
                Err(EncodedSubmitError::Undecodable(detail)) => {
                    panic!("put_responses wrote it: {detail}")
                }
            }
        }
    }
}

/// The flat outcome of one call, comparable across service flavours.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Ok,
    OkEstimate(Vec<u64>, u64),
    Err(CoreError),
}

fn durable_dir() -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ldp_lifecycle_prop_{}_{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What one lane saw: per call, its outcome and the current session's
/// status right after it (`None` once the session has ended).
type Trace = Vec<(Outcome, Option<SessionStatus>)>;

/// Drive `ops` against `svc`, asserting each call's result against a
/// tiny reference model of the session lifecycle and each estimate
/// against the sequential server's, and return the trace. Deltas go in
/// through `entry`. `between` gets the service after every call and hands
/// back the one to continue with — itself, or the same directory
/// reopened.
fn drive(
    mut svc: IngestService,
    entry: Entry,
    ops: &[Op],
    mut between: impl FnMut(IngestService) -> IngestService,
) -> Trace {
    let mut outcomes = Vec::with_capacity(ops.len());
    // The sequential server the current session's rounds must close like.
    let oracle = build_oracle(FoKind::Grr, 1.0, DOMAIN).expect("valid oracle");
    let mut sequential = AggregationServer::new();
    // The model: which session is current, whether it still exists,
    // which round is open, and the next round/sequence numbers.
    let mut session = svc.create_session().expect("initial session");
    let mut alive = true;
    let mut open: Option<u64> = None;
    let mut next_round: u64 = 0;
    let mut next_seq: u64 = 0;
    let mut submitted: usize = 0;

    for op in ops {
        let outcome = match op {
            Op::Create => {
                let id = svc.create_session().expect("create never fails in-process");
                session = id;
                sequential = AggregationServer::new();
                alive = true;
                open = None;
                next_round = 0;
                next_seq = 0;
                Outcome::Ok
            }
            Op::Open => {
                let result = svc.open_round(session, 0, FoKind::Grr, 1.0, DOMAIN);
                match (alive, open) {
                    (false, _) => Outcome::Err(result.expect_err("ended session must error")),
                    (true, Some(round)) => {
                        let err = result.expect_err("double open must error");
                        assert_eq!(
                            err,
                            CoreError::SessionBusy {
                                session: session.raw(),
                                round
                            }
                        );
                        Outcome::Err(err)
                    }
                    (true, None) => {
                        let request = result.expect("valid open");
                        assert_eq!(request.round, next_round);
                        sequential.open_round(0, FoKind::Grr, 1.0, oracle.clone());
                        open = Some(next_round);
                        next_round += 1;
                        Outcome::Ok
                    }
                }
            }
            Op::Submit { round_skew, refuse } => {
                let round = open.unwrap_or(0) + round_skew;
                let response = response(round, submitted, *refuse);
                let result = svc.submit(session, response.clone());
                match (alive, open) {
                    (false, _) => Outcome::Err(result.expect_err("ended session must error")),
                    (true, None) => {
                        let err = result.expect_err("no open round must error");
                        assert_eq!(err, CoreError::NoOpenRound);
                        Outcome::Err(err)
                    }
                    (true, Some(expected)) if round != expected => {
                        let err = result.expect_err("stale round must error");
                        assert_eq!(
                            err,
                            CoreError::StaleRound {
                                expected,
                                got: round
                            }
                        );
                        Outcome::Err(err)
                    }
                    (true, Some(_)) => {
                        result.expect("valid submit");
                        sequential.submit(&response).expect("sequential submit");
                        next_seq += 1;
                        submitted += 1;
                        Outcome::Ok
                    }
                }
            }
            Op::SubmitBatch { n, seq_skew } => {
                let seq = next_seq.saturating_add_signed(*seq_skew);
                let round = open.unwrap_or(0);
                let responses: Vec<UserResponse> =
                    (0..*n).map(|i| response(round, i, false)).collect();
                let result = submit_delta(&svc, entry, session, round, seq, responses.clone());
                match (alive, open) {
                    (false, _) => Outcome::Err(result.expect_err("ended session must error")),
                    _ if seq < next_seq => {
                        // Replay of an already-acknowledged delta: no-op.
                        result.expect("duplicate delta is acknowledged");
                        Outcome::Ok
                    }
                    _ if seq > next_seq => {
                        let err = result.expect_err("future delta must error");
                        assert_eq!(
                            err,
                            CoreError::SequenceGap {
                                expected: next_seq,
                                got: seq
                            }
                        );
                        Outcome::Err(err)
                    }
                    (true, None) => {
                        let err = result.expect_err("no open round must error");
                        assert_eq!(err, CoreError::NoOpenRound);
                        Outcome::Err(err)
                    }
                    (true, Some(_)) => {
                        result.expect("valid delta");
                        for response in &responses {
                            sequential.submit(response).expect("sequential submit");
                        }
                        next_seq += 1;
                        submitted += n;
                        Outcome::Ok
                    }
                }
            }
            Op::Close => {
                let result = svc.close_round(session);
                match (alive, open) {
                    (false, _) => Outcome::Err(result.expect_err("ended session must error")),
                    (true, None) => {
                        let err = result.expect_err("no open round must error");
                        assert_eq!(err, CoreError::NoOpenRound);
                        Outcome::Err(err)
                    }
                    (true, Some(_)) => {
                        let estimate = result.expect("valid close");
                        let want = sequential.close_round().expect("sequential close");
                        open = None;
                        let bits = |f: &[f64]| f.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            (bits(&estimate.frequencies), estimate.reporters),
                            (bits(&want.frequencies), want.reporters),
                            "the sequential server closes round differently"
                        );
                        Outcome::OkEstimate(bits(&estimate.frequencies), estimate.reporters)
                    }
                }
            }
            Op::End => {
                let result = svc.end_session(session);
                match (alive, open) {
                    (false, _) => Outcome::Err(result.expect_err("ended session must error")),
                    (true, Some(round)) => {
                        let err = result.expect_err("busy session must error");
                        assert_eq!(
                            err,
                            CoreError::SessionBusy {
                                session: session.raw(),
                                round
                            }
                        );
                        Outcome::Err(err)
                    }
                    (true, None) => {
                        result.expect("valid end");
                        alive = false;
                        Outcome::Ok
                    }
                }
            }
        };
        // Every error must be one of the documented lifecycle errors —
        // never a panic, never an unrelated variant.
        if let Outcome::Err(err) = &outcome {
            assert!(
                matches!(
                    err,
                    CoreError::UnknownSession { .. }
                        | CoreError::SessionBusy { .. }
                        | CoreError::NoOpenRound
                        | CoreError::StaleRound { .. }
                        | CoreError::SequenceGap { .. }
                ),
                "undocumented lifecycle error: {err:?}"
            );
        }
        outcomes.push((outcome, svc.status(session).ok()));
        svc = between(svc);
    }
    // Leave no round open so worker shutdown is clean.
    if alive && open.is_some() {
        svc.close_round(session).expect("drain open round");
    }
    outcomes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving yields typed errors (no panic), and the durable
    /// service — restarted never, or after every single call; handed its
    /// deltas as rows, or as bytes — agrees with the in-memory one on
    /// every outcome, estimate bits and session status included.
    #[test]
    fn lifecycle_interleavings_never_panic_and_flavours_agree(
        ops in proptest::collection::vec(op_strategy(), 1..50),
        shards in 1usize..=4,
        batch_size in 1usize..=24,
    ) {
        let config = ServiceConfig::with_threads(shards)
            .with_batch_size(batch_size)
            .with_snapshot_every(7);

        let memory_trace = drive(IngestService::new(config), Entry::Rows, &ops, |svc| svc);

        for entry in [Entry::Rows, Entry::Bytes] {
            let dir = durable_dir();
            let durable = IngestService::open(config, &dir).expect("open durable");
            let durable_trace = drive(durable, entry, &ops, |svc| svc);
            let _ = std::fs::remove_dir_all(&dir);

            let dir = durable_dir();
            let restarted = IngestService::open(config, &dir).expect("open durable");
            let restarted_trace = drive(restarted, entry, &ops, |svc| {
                drop(svc);
                IngestService::open(config, &dir).expect("reopen between calls")
            });
            let _ = std::fs::remove_dir_all(&dir);

            prop_assert_eq!(&memory_trace, &durable_trace, "{:?}", entry);
            prop_assert_eq!(&memory_trace, &restarted_trace, "{:?} restarted", entry);
        }
    }

    /// Calls on a session that was never created are always
    /// `UnknownSession`, for every entry point.
    #[test]
    fn ghost_sessions_always_yield_unknown_session(raw in 1u64..1000) {
        let svc = IngestService::new(ServiceConfig::with_threads(1));
        let _real = svc.create_session().unwrap(); // id 0; `raw` stays unknown
        let ghost = SessionId::from_raw(raw);
        let expected = CoreError::UnknownSession { session: raw };
        prop_assert_eq!(
            svc.open_round(ghost, 0, FoKind::Grr, 1.0, DOMAIN).unwrap_err(),
            expected.clone()
        );
        prop_assert_eq!(
            svc.submit(ghost, response(0, 0, false)).unwrap_err(),
            expected.clone()
        );
        prop_assert_eq!(
            svc.submit_batch(ghost, vec![response(0, 0, false)]).unwrap_err(),
            expected.clone()
        );
        prop_assert_eq!(svc.close_round(ghost).unwrap_err(), expected.clone());
        prop_assert_eq!(svc.refusals(ghost).unwrap_err(), expected.clone());
        prop_assert_eq!(svc.epsilon_spent(ghost).unwrap_err(), expected.clone());
        prop_assert_eq!(svc.end_session(ghost).unwrap_err(), expected);
    }
}
