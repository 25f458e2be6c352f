//! Message-level payloads of the wire protocol.
//!
//! A [`Frame`] is one protocol message; [`Frame::encode_payload`] /
//! [`Frame::decode_payload`] convert it to/from the versioned payload
//! bytes that travel inside the length-prefixed, CRC-checksummed frame
//! envelope (see [`codec`](crate::codec)).
//!
//! ```text
//! payload := [ version : u8 = 1 ][ tag : u8 ][ body ]
//! ```
//!
//! The body reuses the service crate's little-endian codec primitives,
//! so a [`ReportRequest`], [`UserResponse`] or [`RoundEstimate`] has
//! **exactly one** binary form across the WAL and the wire — floats as
//! IEEE-754 bit patterns, which is what makes a network round's estimate
//! bit-identical to an in-process one.
//!
//! For `SubmitBatch` the shared form goes further: its payload from the
//! `session` field on *is* a WAL `Reports` record's payload behind its
//! tag, so the server does not decode one to encode the other.
//! [`SubmitBatchBytes`] is the frame as the server's reader takes it —
//! head decoded, responses left as the bytes `put_responses` wrote —
//! and [`Request`] what the reader hands on: that, or any other frame
//! decoded. [`Frame::SubmitBatch`] with its `Vec<UserResponse>` stays
//! the client's and the tests' form of the same frame.
//!
//! Every request carries a client-chosen correlation id (`corr`),
//! echoed verbatim in the matching `Ack`/`Err`, so clients can pipeline
//! requests and still pair responses.

use ldp_ids::collector::RoundEstimate;
use ldp_ids::protocol::{ReportRequest, UserResponse};
use ldp_ids::CoreError;
use ldp_obs::{HistogramSnapshot, MetricSample, MetricValue};
use ldp_service::codec::{
    put_estimate, put_request, put_responses, put_str, put_u32, put_u64, take_estimate,
    take_request, take_responses, Cursor, EncodedResponses,
};

use crate::error::FrameError;

/// The one wire version this implementation speaks.
pub const WIRE_VERSION: u8 = 1;

/// Version of the stats body carried by [`AckBody::Stats`], independent
/// of [`WIRE_VERSION`] so the metrics schema can evolve without a
/// protocol bump.
pub const STATS_VERSION: u8 = 1;

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: open (or resume) a tenant session. Must be the
    /// first frame on every connection.
    Hello {
        /// Correlation id echoed in the reply.
        corr: u64,
        /// The tenant to attach to.
        tenant: String,
        /// `Some(session)` resumes an existing session after a
        /// disconnect; `None` creates a fresh one.
        resume: Option<u64>,
        /// The tenant's shared secret, when it requires one. Compared
        /// in constant time server-side; a missing or wrong token is a
        /// typed [`WireError::AuthFailed`].
        token: Option<String>,
    },
    /// Client → server: open collection round `request.round` (the
    /// idempotent [`open_round_at`](ldp_service::IngestService::open_round_at)).
    OpenRound {
        /// Correlation id echoed in the reply.
        corr: u64,
        /// The session the round belongs to.
        session: u64,
        /// The full round request (round id, timestamp, oracle, ε,
        /// domain) — replaying it after a lost ack is a no-op.
        request: ReportRequest,
    },
    /// Client → server: one sequenced report delta (the idempotent
    /// [`submit_encoded_at`](ldp_service::IngestService::submit_encoded_at)).
    SubmitBatch {
        /// Correlation id echoed in the reply.
        corr: u64,
        /// The session the delta belongs to.
        session: u64,
        /// The open round the responses target.
        round: u64,
        /// The session's write-ahead sequence number of this delta;
        /// replays deduplicate on it.
        seq: u64,
        /// The perturbed responses.
        responses: Vec<UserResponse>,
    },
    /// Client → server: close round `round` and return its estimate
    /// (the idempotent
    /// [`close_round_at`](ldp_service::IngestService::close_round_at)).
    CloseRound {
        /// Correlation id echoed in the reply.
        corr: u64,
        /// The session the round belongs to.
        session: u64,
        /// The round to close; re-closing the last closed round returns
        /// the original estimate bit for bit.
        round: u64,
    },
    /// Client → server: scrape the server's metrics registry. Allowed
    /// before `Hello` (operators scrape without binding a tenant).
    StatsRequest {
        /// Correlation id echoed in the reply.
        corr: u64,
        /// Restrict the reply to samples labelled `tenant="<scope>"`;
        /// `None` returns every sample.
        scope: Option<String>,
    },
    /// Server → client: the positive reply to one request.
    Ack {
        /// The request's correlation id.
        corr: u64,
        /// The request-specific result.
        body: AckBody,
    },
    /// Server → client: the typed rejection of one request.
    Err {
        /// The request's correlation id (0 when the failure is not
        /// attributable to a decoded request, e.g. a framing error).
        corr: u64,
        /// Why the request was rejected.
        error: WireError,
    },
}

/// The payload of an [`Frame::Ack`].
#[derive(Debug, Clone, PartialEq)]
pub enum AckBody {
    /// Reply to [`Frame::Hello`]: the attached session and its
    /// sequencing state (everything a resuming client needs).
    Session {
        /// The session's raw id.
        session: u64,
        /// The round id the next `OpenRound` must name.
        next_round: u64,
        /// The sequence number the next `SubmitBatch` must carry.
        next_seq: u64,
        /// The currently open round, if the session has one.
        open_round: Option<u64>,
    },
    /// Reply to [`Frame::OpenRound`]: the round request as the server
    /// recorded it.
    Opened {
        /// The acknowledged round request.
        request: ReportRequest,
    },
    /// Reply to [`Frame::SubmitBatch`]: the delta is durable (per the
    /// tenant's sync discipline) and folded.
    Submitted {
        /// The sequence number the server expects next — a resuming
        /// client trims its replay queue below this.
        next_seq: u64,
    },
    /// Reply to [`Frame::CloseRound`]: the round's estimate,
    /// bit-identical to an in-process close over the same reports.
    Closed {
        /// The round estimate.
        estimate: RoundEstimate,
    },
    /// Reply to [`Frame::StatsRequest`]: a snapshot of the server's
    /// metrics registry.
    Stats {
        /// The stats schema version the server speaks (see
        /// [`STATS_VERSION`]).
        version: u8,
        /// The captured samples, ordered by `(name, labels)`.
        samples: Vec<MetricSample>,
    },
}

/// A typed rejection travelling in an [`Frame::Err`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The connection spoke a wire version outside the served range.
    Version {
        /// Lowest version the server accepts.
        min: u8,
        /// Highest version the server accepts.
        max: u8,
        /// The version the client sent.
        got: u8,
    },
    /// The `Hello` named a tenant the registry does not host.
    UnknownTenant {
        /// The unknown tenant id.
        tenant: String,
    },
    /// The request referenced a session that was never created or has
    /// ended.
    UnknownSession {
        /// The unknown session's raw id.
        session: u64,
    },
    /// An operation requiring no open round arrived while one is open.
    SessionBusy {
        /// The busy session.
        session: u64,
        /// The round still open on it.
        round: u64,
    },
    /// The request named a round other than the one the session is at.
    StaleRound {
        /// The round the session expected.
        expected: u64,
        /// The round the request carried.
        got: u64,
    },
    /// A submit/close arrived with no collection round open.
    NoOpenRound,
    /// A submit skipped ahead of the session's write-ahead sequence.
    SequenceGap {
        /// The next sequence number the session accepts.
        expected: u64,
        /// The sequence number the submit carried.
        got: u64,
    },
    /// The ingest service failed internally (WAL I/O, invalid oracle
    /// parameters, …).
    Service {
        /// Human-readable failure description.
        detail: String,
    },
    /// The peer broke the conversation's protocol (frame before
    /// `Hello`, a server-only frame sent to the server, …).
    Protocol {
        /// What went out of step.
        detail: String,
    },
    /// The tenant shed this request under load (full dispatcher queue,
    /// exhausted rate budget, or in-flight quota). The request was
    /// **not** applied; retry it after backing off.
    Overloaded {
        /// Suggested minimum backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The `Hello` failed the tenant's shared-secret check.
    AuthFailed {
        /// The tenant that rejected the credential.
        tenant: String,
    },
    /// The server could not decode the inbound byte stream (torn or
    /// corrupt frame). The connection is unsynchronized and about to
    /// close; reconnect-and-replay recovers.
    BadFrame {
        /// The framing defect, as the server saw it.
        detail: String,
    },
}

impl WireError {
    /// Whether retrying the rejected request can succeed.
    ///
    /// `Overloaded` and `BadFrame` are transient by construction.
    /// `SessionBusy` is retryable because the open round it reports may
    /// be a predecessor client's close still in flight — backing off
    /// and retrying resolves once that close lands. Everything else
    /// reports a condition a retry cannot change.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            WireError::Overloaded { .. }
                | WireError::BadFrame { .. }
                | WireError::SessionBusy { .. }
        )
    }

    /// Server-suggested minimum backoff before retrying, when it sent
    /// one (only [`WireError::Overloaded`] carries it).
    pub fn retry_after(&self) -> Option<std::time::Duration> {
        match self {
            WireError::Overloaded { retry_after_ms } => {
                Some(std::time::Duration::from_millis(*retry_after_ms))
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Version { min, max, got } => {
                write!(f, "wire version {got} unsupported (serving {min}..={max})")
            }
            WireError::UnknownTenant { tenant } => write!(f, "tenant {tenant:?} is not hosted"),
            WireError::UnknownSession { session } => {
                write!(f, "session {session} was never created or has ended")
            }
            WireError::SessionBusy { session, round } => {
                write!(f, "session {session} still has round {round} open")
            }
            WireError::StaleRound { expected, got } => {
                write!(
                    f,
                    "request for stale round {got}; round {expected} expected"
                )
            }
            WireError::NoOpenRound => write!(f, "no collection round is open"),
            WireError::SequenceGap { expected, got } => write!(
                f,
                "submission sequence {got} skips ahead; next accepted is {expected}"
            ),
            WireError::Service { detail } => write!(f, "service failure: {detail}"),
            WireError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            WireError::Overloaded { retry_after_ms } => {
                write!(f, "tenant overloaded; retry after {retry_after_ms} ms")
            }
            WireError::AuthFailed { tenant } => {
                write!(f, "authentication failed for tenant {tenant:?}")
            }
            WireError::BadFrame { detail } => {
                write!(f, "server could not decode the stream: {detail}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<&CoreError> for WireError {
    fn from(e: &CoreError) -> Self {
        match e {
            CoreError::UnknownTenant { tenant } => WireError::UnknownTenant {
                tenant: tenant.clone(),
            },
            CoreError::UnknownSession { session } => {
                WireError::UnknownSession { session: *session }
            }
            CoreError::SessionBusy { session, round } => WireError::SessionBusy {
                session: *session,
                round: *round,
            },
            CoreError::StaleRound { expected, got } => WireError::StaleRound {
                expected: *expected,
                got: *got,
            },
            CoreError::NoOpenRound => WireError::NoOpenRound,
            CoreError::SequenceGap { expected, got } => WireError::SequenceGap {
                expected: *expected,
                got: *got,
            },
            other => WireError::Service {
                detail: other.to_string(),
            },
        }
    }
}

const TAG_HELLO: u8 = 1;
const TAG_OPEN_ROUND: u8 = 2;
const TAG_SUBMIT_BATCH: u8 = 3;
const TAG_CLOSE_ROUND: u8 = 4;
const TAG_ACK: u8 = 5;
const TAG_ERR: u8 = 6;
const TAG_STATS: u8 = 7;

/// Display names of the frame kinds, indexed by
/// [`Frame::kind_index`] — the `tag` label values of the
/// `ldp_net_frames_*_total` counters.
pub const FRAME_KIND_NAMES: [&str; 7] = [
    "hello",
    "open_round",
    "submit_batch",
    "close_round",
    "ack",
    "err",
    "stats",
];

fn put_metric_sample(out: &mut Vec<u8>, sample: &MetricSample) {
    put_str(out, &sample.name);
    put_u32(out, sample.labels.len() as u32);
    for (k, v) in &sample.labels {
        put_str(out, k);
        put_str(out, v);
    }
    match &sample.value {
        MetricValue::Counter(v) => {
            out.push(0);
            put_u64(out, *v);
        }
        MetricValue::Gauge(v) => {
            out.push(1);
            // i64 travels as its two's-complement bit pattern.
            put_u64(out, *v as u64);
        }
        MetricValue::Histogram(h) => {
            out.push(2);
            put_u64(out, h.count);
            put_u64(out, h.sum);
            put_u64(out, h.max);
            put_u32(out, h.buckets.len() as u32);
            for b in &h.buckets {
                put_u64(out, *b);
            }
        }
    }
}

fn take_metric_sample(cur: &mut Cursor<'_>, payload_len: usize) -> Result<MetricSample, String> {
    let name = cur.str()?;
    let nlabels = cur.u32()? as usize;
    if nlabels > payload_len {
        return Err(format!("label count {nlabels} exceeds payload"));
    }
    let mut labels = Vec::with_capacity(nlabels);
    for _ in 0..nlabels {
        let k = cur.str()?;
        let v = cur.str()?;
        labels.push((k, v));
    }
    let value = match cur.u8()? {
        0 => MetricValue::Counter(cur.u64()?),
        1 => MetricValue::Gauge(cur.u64()? as i64),
        2 => {
            let count = cur.u64()?;
            let sum = cur.u64()?;
            let max = cur.u64()?;
            let nbuckets = cur.u32()? as usize;
            if nbuckets > payload_len {
                return Err(format!("bucket count {nbuckets} exceeds payload"));
            }
            let mut buckets = Vec::with_capacity(nbuckets);
            for _ in 0..nbuckets {
                buckets.push(cur.u64()?);
            }
            MetricValue::Histogram(HistogramSnapshot {
                buckets,
                count,
                sum,
                max,
            })
        }
        tag => return Err(format!("unknown metric value tag {tag}")),
    };
    Ok(MetricSample {
        name,
        labels,
        value,
    })
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
    }
}

fn take_opt_u64(cur: &mut Cursor<'_>) -> Result<Option<u64>, String> {
    match cur.u8()? {
        0 => Ok(None),
        1 => Ok(Some(cur.u64()?)),
        tag => Err(format!("unknown option tag {tag}")),
    }
}

fn put_opt_str(out: &mut Vec<u8>, v: Option<&str>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_str(out, v);
        }
    }
}

fn take_opt_str(cur: &mut Cursor<'_>) -> Result<Option<String>, String> {
    match cur.u8()? {
        0 => Ok(None),
        1 => Ok(Some(cur.str()?)),
        tag => Err(format!("unknown option tag {tag}")),
    }
}

/// Append the payload of the [`Frame::SubmitBatch`] with these fields,
/// encoded from a borrow of the responses.
pub fn put_submit_batch(
    out: &mut Vec<u8>,
    corr: u64,
    session: u64,
    round: u64,
    seq: u64,
    responses: &[UserResponse],
) {
    out.extend_from_slice(&[WIRE_VERSION, TAG_SUBMIT_BATCH]);
    put_u64(out, corr);
    put_u64(out, session);
    put_u64(out, round);
    put_u64(out, seq);
    put_responses(out, responses);
}

/// Bytes of a `SubmitBatch` payload in front of its responses: version,
/// tag, `corr`, `session`, `round`, `seq`.
const SUBMIT_HEAD_LEN: usize = 2 + 4 * 8;

/// A [`Frame::SubmitBatch`] as the server takes it off the wire: the
/// head decoded, the responses still the bytes [`put_responses`] wrote —
/// which from `session` on are a WAL `Reports` record's, so the service
/// folds and logs them as they came.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitBatchBytes {
    /// Correlation id echoed in the reply.
    pub corr: u64,
    /// The session the delta belongs to.
    pub session: u64,
    /// The open round the responses target.
    pub round: u64,
    /// The session's write-ahead sequence number of this delta.
    pub seq: u64,
    /// The responses, encoded, under their own checksum. Checked against
    /// the frame's, not yet decoded.
    pub responses: EncodedResponses,
}

impl SubmitBatchBytes {
    /// `payload` taken apart, when it is a `SubmitBatch`'s with a whole
    /// head (`None`: any other payload, [`Frame::decode_payload`]'s to
    /// judge). `crc` is the envelope's checksum of the payload; it is
    /// verified here, in the one pass that checksums the responses.
    pub(crate) fn from_payload(payload: &[u8], crc: u32) -> Option<Result<Self, FrameError>> {
        if payload.len() < SUBMIT_HEAD_LEN || payload[..2] != [WIRE_VERSION, TAG_SUBMIT_BATCH] {
            return None;
        }
        let (head, responses) = payload.split_at(SUBMIT_HEAD_LEN);
        let word = |i: usize| {
            let at = 2 + 8 * i;
            u64::from_le_bytes(head[at..at + 8].try_into().expect("8 bytes of the head"))
        };
        Some(
            EncodedResponses::behind(head, responses, crc)
                .map(|responses| SubmitBatchBytes {
                    corr: word(0),
                    session: word(1),
                    round: word(2),
                    seq: word(3),
                    responses,
                })
                .map_err(|got| FrameError::Checksum { expected: crc, got }),
        )
    }
}

/// One request as a connection's reader hands it on: a `SubmitBatch`
/// stays bytes, every other frame is decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Any frame but a well-formed `SubmitBatch`.
    Frame(Frame),
    /// A `SubmitBatch`, its responses not decoded.
    Submit(SubmitBatchBytes),
}

impl Request {
    /// The correlation id the request carries.
    pub fn corr(&self) -> u64 {
        match self {
            Request::Frame(frame) => frame.corr(),
            Request::Submit(submit) => submit.corr,
        }
    }

    /// [`Frame::kind_index`] of the frame the request arrived as.
    pub fn kind_index(&self) -> usize {
        match self {
            Request::Frame(frame) => frame.kind_index(),
            Request::Submit(_) => SUBMIT_BATCH_KIND,
        }
    }
}

/// [`Frame::kind_index`] of a `SubmitBatch`.
const SUBMIT_BATCH_KIND: usize = 2;

impl Frame {
    /// The correlation id this frame carries.
    pub fn corr(&self) -> u64 {
        match self {
            Frame::Hello { corr, .. }
            | Frame::OpenRound { corr, .. }
            | Frame::SubmitBatch { corr, .. }
            | Frame::CloseRound { corr, .. }
            | Frame::StatsRequest { corr, .. }
            | Frame::Ack { corr, .. }
            | Frame::Err { corr, .. } => *corr,
        }
    }

    /// A dense index for this frame's kind, usable to pick a per-tag
    /// counter; [`FRAME_KIND_NAMES`] maps it back to a display name.
    pub fn kind_index(&self) -> usize {
        match self {
            Frame::Hello { .. } => 0,
            Frame::OpenRound { .. } => 1,
            Frame::SubmitBatch { .. } => SUBMIT_BATCH_KIND,
            Frame::CloseRound { .. } => 3,
            Frame::Ack { .. } => 4,
            Frame::Err { .. } => 5,
            Frame::StatsRequest { .. } => 6,
        }
    }

    /// This frame's kind as a short display name (a `tag` label value).
    pub fn kind_name(&self) -> &'static str {
        FRAME_KIND_NAMES[self.kind_index()]
    }

    /// Encode into the versioned payload bytes (no frame envelope).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_payload_into(&mut out);
        out
    }

    /// Append what [`encode_payload`](Self::encode_payload) returns to
    /// `out`.
    pub(crate) fn encode_payload_into(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello {
                corr,
                tenant,
                resume,
                token,
            } => {
                out.extend_from_slice(&[WIRE_VERSION, TAG_HELLO]);
                put_u64(out, *corr);
                put_str(out, tenant);
                put_opt_u64(out, *resume);
                put_opt_str(out, token.as_deref());
            }
            Frame::OpenRound {
                corr,
                session,
                request,
            } => {
                out.extend_from_slice(&[WIRE_VERSION, TAG_OPEN_ROUND]);
                put_u64(out, *corr);
                put_u64(out, *session);
                put_request(out, request);
            }
            Frame::SubmitBatch {
                corr,
                session,
                round,
                seq,
                responses,
            } => put_submit_batch(out, *corr, *session, *round, *seq, responses),
            Frame::CloseRound {
                corr,
                session,
                round,
            } => {
                out.extend_from_slice(&[WIRE_VERSION, TAG_CLOSE_ROUND]);
                put_u64(out, *corr);
                put_u64(out, *session);
                put_u64(out, *round);
            }
            Frame::StatsRequest { corr, scope } => {
                out.extend_from_slice(&[WIRE_VERSION, TAG_STATS]);
                put_u64(out, *corr);
                put_opt_str(out, scope.as_deref());
            }
            Frame::Ack { corr, body } => {
                out.extend_from_slice(&[WIRE_VERSION, TAG_ACK]);
                put_u64(out, *corr);
                match body {
                    AckBody::Session {
                        session,
                        next_round,
                        next_seq,
                        open_round,
                    } => {
                        out.push(0);
                        put_u64(out, *session);
                        put_u64(out, *next_round);
                        put_u64(out, *next_seq);
                        put_opt_u64(out, *open_round);
                    }
                    AckBody::Opened { request } => {
                        out.push(1);
                        put_request(out, request);
                    }
                    AckBody::Submitted { next_seq } => {
                        out.push(2);
                        put_u64(out, *next_seq);
                    }
                    AckBody::Closed { estimate } => {
                        out.push(3);
                        put_estimate(out, estimate);
                    }
                    AckBody::Stats { version, samples } => {
                        out.push(4);
                        out.push(*version);
                        put_u32(out, samples.len() as u32);
                        for sample in samples {
                            put_metric_sample(out, sample);
                        }
                    }
                }
            }
            Frame::Err { corr, error } => {
                out.extend_from_slice(&[WIRE_VERSION, TAG_ERR]);
                put_u64(out, *corr);
                match error {
                    WireError::Version { min, max, got } => {
                        out.push(0);
                        out.push(*min);
                        out.push(*max);
                        out.push(*got);
                    }
                    WireError::UnknownTenant { tenant } => {
                        out.push(1);
                        put_str(out, tenant);
                    }
                    WireError::UnknownSession { session } => {
                        out.push(2);
                        put_u64(out, *session);
                    }
                    WireError::SessionBusy { session, round } => {
                        out.push(3);
                        put_u64(out, *session);
                        put_u64(out, *round);
                    }
                    WireError::StaleRound { expected, got } => {
                        out.push(4);
                        put_u64(out, *expected);
                        put_u64(out, *got);
                    }
                    WireError::NoOpenRound => out.push(5),
                    WireError::SequenceGap { expected, got } => {
                        out.push(6);
                        put_u64(out, *expected);
                        put_u64(out, *got);
                    }
                    WireError::Service { detail } => {
                        out.push(7);
                        put_str(out, detail);
                    }
                    WireError::Protocol { detail } => {
                        out.push(8);
                        put_str(out, detail);
                    }
                    WireError::Overloaded { retry_after_ms } => {
                        out.push(9);
                        put_u64(out, *retry_after_ms);
                    }
                    WireError::AuthFailed { tenant } => {
                        out.push(10);
                        put_str(out, tenant);
                    }
                    WireError::BadFrame { detail } => {
                        out.push(11);
                        put_str(out, detail);
                    }
                }
            }
        }
    }

    /// Decode a payload produced by [`encode_payload`](Self::encode_payload).
    ///
    /// Never panics: any defect is a typed [`FrameError`].
    pub fn decode_payload(payload: &[u8]) -> Result<Frame, FrameError> {
        let malformed = |detail: String| FrameError::Malformed { detail };
        let mut cur = Cursor::new(payload);
        let version = cur.u8().map_err(malformed)?;
        if version != WIRE_VERSION {
            return Err(FrameError::Version { got: version });
        }
        let tag = cur.u8().map_err(malformed)?;
        let frame = (|| -> Result<Frame, String> {
            let corr = cur.u64()?;
            Ok(match tag {
                TAG_HELLO => Frame::Hello {
                    corr,
                    tenant: cur.str()?,
                    resume: take_opt_u64(&mut cur)?,
                    token: take_opt_str(&mut cur)?,
                },
                TAG_OPEN_ROUND => Frame::OpenRound {
                    corr,
                    session: cur.u64()?,
                    request: take_request(&mut cur)?,
                },
                TAG_SUBMIT_BATCH => Frame::SubmitBatch {
                    corr,
                    session: cur.u64()?,
                    round: cur.u64()?,
                    seq: cur.u64()?,
                    responses: take_responses(&mut cur)?,
                },
                TAG_CLOSE_ROUND => Frame::CloseRound {
                    corr,
                    session: cur.u64()?,
                    round: cur.u64()?,
                },
                TAG_STATS => Frame::StatsRequest {
                    corr,
                    scope: take_opt_str(&mut cur)?,
                },
                TAG_ACK => {
                    let body = match cur.u8()? {
                        0 => AckBody::Session {
                            session: cur.u64()?,
                            next_round: cur.u64()?,
                            next_seq: cur.u64()?,
                            open_round: take_opt_u64(&mut cur)?,
                        },
                        1 => AckBody::Opened {
                            request: take_request(&mut cur)?,
                        },
                        2 => AckBody::Submitted {
                            next_seq: cur.u64()?,
                        },
                        3 => AckBody::Closed {
                            estimate: take_estimate(&mut cur)?,
                        },
                        4 => {
                            let version = cur.u8()?;
                            let n = cur.u32()? as usize;
                            if n > payload.len() {
                                return Err(format!("sample count {n} exceeds payload"));
                            }
                            let mut samples = Vec::with_capacity(n);
                            for _ in 0..n {
                                samples.push(take_metric_sample(&mut cur, payload.len())?);
                            }
                            AckBody::Stats { version, samples }
                        }
                        tag => return Err(format!("unknown ack tag {tag}")),
                    };
                    Frame::Ack { corr, body }
                }
                TAG_ERR => {
                    let error = match cur.u8()? {
                        0 => WireError::Version {
                            min: cur.u8()?,
                            max: cur.u8()?,
                            got: cur.u8()?,
                        },
                        1 => WireError::UnknownTenant { tenant: cur.str()? },
                        2 => WireError::UnknownSession {
                            session: cur.u64()?,
                        },
                        3 => WireError::SessionBusy {
                            session: cur.u64()?,
                            round: cur.u64()?,
                        },
                        4 => WireError::StaleRound {
                            expected: cur.u64()?,
                            got: cur.u64()?,
                        },
                        5 => WireError::NoOpenRound,
                        6 => WireError::SequenceGap {
                            expected: cur.u64()?,
                            got: cur.u64()?,
                        },
                        7 => WireError::Service { detail: cur.str()? },
                        8 => WireError::Protocol { detail: cur.str()? },
                        9 => WireError::Overloaded {
                            retry_after_ms: cur.u64()?,
                        },
                        10 => WireError::AuthFailed { tenant: cur.str()? },
                        11 => WireError::BadFrame { detail: cur.str()? },
                        tag => return Err(format!("unknown error tag {tag}")),
                    };
                    Frame::Err { corr, error }
                }
                tag => return Err(format!("unknown frame tag {tag}")),
            })
        })()
        .map_err(malformed)?;
        cur.finish().map_err(malformed)?;
        Ok(frame)
    }
}
