//! [`NetClient`]: the typed client side of the wire protocol, with
//! pipelined submits, deadlines, retry with backoff, and
//! reconnect-and-resume.
//!
//! The client mirrors a session's sequencing state (`next_round`,
//! `next_seq`) and drives the idempotent `*_at` server calls with it.
//! Submitted deltas stay in an in-flight replay queue until their ack
//! arrives; after a disconnect, [`recover`](NetClient::recover) opens a
//! fresh connection, resumes the session (`Hello { resume }`), trims
//! the queue below the server's acknowledged sequence number, and
//! replays the rest — duplicates are no-ops server-side, so the round
//! converges to exactly the state an uninterrupted run would have
//! reached.
//!
//! **Retry discipline.** Every RPC carries a deadline
//! ([`RetryPolicy::rpc_timeout`]); a missed deadline is a typed
//! [`NetError::Timeout`]. Every retryable failure — transport I/O,
//! framing corruption, timeout, or a typed retryable rejection such as
//! [`WireError::Overloaded`](crate::frame::WireError::Overloaded) — is
//! handled the same way: back off (capped exponential with
//! deterministic jitter, honoring the server's `retry_after_ms` hint),
//! reconnect, resume, replay, and try again. Resynchronizing through
//! `Hello` on every retry means the client never has to reason about
//! *which* frames survived a half-dead connection; the idempotent
//! sequencing makes the replayed duplicates no-ops, so retries never
//! double-count a report.

use crate::backoff::{ClientStats, RetryPolicy};
use crate::codec::{encode_frame, FrameBuffer, MAX_FRAME_LEN};
use crate::error::NetError;
use crate::frame::{put_submit_batch, AckBody, Frame, WireError};
use crate::metrics::ClientMetrics;
use ldp_fo::FoKind;
use ldp_ids::collector::RoundEstimate;
use ldp_ids::protocol::{ReportRequest, UserResponse};
use ldp_obs::{MetricSample, Scope};
use ldp_service::codec::put_enveloped;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Default pipelining window. [`NetClient::submit_batch`] returns with at
/// most this many submits unacknowledged, so `window + 1` frames ride at
/// once — which must not exceed the server's
/// [`ServerConfig::queue_depth`](crate::server::ServerConfig::queue_depth)
/// (default 8), or the client's own pipeline is shed as `Overloaded`.
pub const DEFAULT_WINDOW: usize = 7;

/// How often a blocked read wakes to check the RPC deadline.
const READ_POLL: Duration = Duration::from_millis(20);

/// Connection-time options for [`NetClient`].
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Pipelining window (unacked submits in flight).
    pub window: usize,
    /// Shared secret presented in `Hello` for tenants requiring auth.
    pub token: Option<String>,
    /// Deadline/backoff/retry policy for every RPC.
    pub retry: RetryPolicy,
    /// Metrics scope the client records into; `None` gives the client
    /// a private registry. Sharing one scope across a fleet of clients
    /// merges their latency/retry series (same labels → same handles).
    pub metrics: Option<Scope>,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            window: DEFAULT_WINDOW,
            token: None,
            retry: RetryPolicy::default(),
            metrics: None,
        }
    }
}

impl ClientOptions {
    /// Set the pipelining window.
    pub fn window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Present `token` as the tenant's shared secret.
    pub fn token(mut self, token: impl Into<String>) -> Self {
        self.token = Some(token.into());
        self
    }

    /// Use `retry` as the deadline/backoff policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Record this client's metrics into `scope` instead of a private
    /// registry.
    pub fn metrics(mut self, scope: Scope) -> Self {
        self.metrics = Some(scope);
        self
    }
}

/// A connected, session-bound protocol client.
#[derive(Debug)]
pub struct NetClient {
    addr: String,
    tenant: String,
    token: Option<String>,
    stream: TcpStream,
    fb: FrameBuffer,
    session: u64,
    next_corr: u64,
    next_round: u64,
    open_round: Option<u64>,
    next_seq: u64,
    /// Unacknowledged deltas, oldest first: `(seq, responses)`.
    inflight: VecDeque<(u64, Vec<UserResponse>)>,
    /// Submit frames sent on *this* connection whose ack has not been
    /// read yet. Tracked separately from `inflight`: a duplicate-delta
    /// ack can retire several inflight entries at once, but every send
    /// still produces exactly one reply to consume.
    unacked: usize,
    window: usize,
    retry: RetryPolicy,
    metrics: ClientMetrics,
    /// The submit frame being sent and the bytes last read, kept so
    /// neither is allocated or zeroed per frame.
    out: Vec<u8>,
    inbuf: Vec<u8>,
}

impl NetClient {
    /// Connect to `addr` and open a fresh session on `tenant`.
    pub fn connect(addr: impl Into<String>, tenant: impl Into<String>) -> Result<Self, NetError> {
        Self::attach(addr.into(), tenant.into(), None, ClientOptions::default())
    }

    /// Connect to `addr` and resume existing `session` on `tenant`.
    pub fn resume(
        addr: impl Into<String>,
        tenant: impl Into<String>,
        session: u64,
    ) -> Result<Self, NetError> {
        Self::attach(
            addr.into(),
            tenant.into(),
            Some(session),
            ClientOptions::default(),
        )
    }

    /// [`connect`](Self::connect) with explicit [`ClientOptions`].
    pub fn connect_with(
        addr: impl Into<String>,
        tenant: impl Into<String>,
        options: ClientOptions,
    ) -> Result<Self, NetError> {
        Self::attach(addr.into(), tenant.into(), None, options)
    }

    /// [`resume`](Self::resume) with explicit [`ClientOptions`].
    pub fn resume_with(
        addr: impl Into<String>,
        tenant: impl Into<String>,
        session: u64,
        options: ClientOptions,
    ) -> Result<Self, NetError> {
        Self::attach(addr.into(), tenant.into(), Some(session), options)
    }

    fn attach(
        addr: String,
        tenant: String,
        resume: Option<u64>,
        options: ClientOptions,
    ) -> Result<Self, NetError> {
        let retry = options.retry;
        // One counting path from the very first connect attempt: the
        // metrics outlive failed attempts, so connect-time backoff is
        // visible in the attached client's stats.
        let metrics = match &options.metrics {
            Some(scope) => ClientMetrics::in_scope(scope),
            None => ClientMetrics::standalone(),
        };
        let mut attempt: u32 = 0;
        loop {
            match Self::attach_once(&addr, &tenant, resume, &options, metrics.clone()) {
                Ok(client) => return Ok(client),
                Err(e) if e.retryable() && attempt < retry.max_retries => {
                    let delay = retry.delay(attempt, e.retry_after());
                    std::thread::sleep(delay);
                    metrics.record_backoff(delay);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn attach_once(
        addr: &str,
        tenant: &str,
        resume: Option<u64>,
        options: &ClientOptions,
        metrics: ClientMetrics,
    ) -> Result<Self, NetError> {
        let stream = connect_stream(addr, options.retry.rpc_timeout)?;
        let mut client = NetClient {
            addr: addr.to_string(),
            tenant: tenant.to_string(),
            token: options.token.clone(),
            stream,
            fb: FrameBuffer::new(),
            session: 0,
            next_corr: 1,
            next_round: 0,
            open_round: None,
            next_seq: 0,
            inflight: VecDeque::new(),
            unacked: 0,
            window: options.window.max(1),
            retry: options.retry,
            metrics,
            out: Vec::new(),
            inbuf: vec![0; 16 * 1024],
        };
        client.hello(resume)?;
        Ok(client)
    }

    /// The bound session's raw id (stable across reconnects).
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The sequence number the next submitted delta will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The currently open round, if any.
    pub fn open_round(&self) -> Option<u64> {
        self.open_round
    }

    /// Counters of this client's retry/reconnect behaviour — a view
    /// over the client's [`ClientMetrics`] handles.
    pub fn stats(&self) -> ClientStats {
        self.metrics.stats()
    }

    /// The metric handles this client records into.
    pub fn metrics(&self) -> &ClientMetrics {
        &self.metrics
    }

    /// Sever the connection without closing the session — test/ops
    /// helper simulating a network drop. Follow with
    /// [`recover`](Self::recover).
    pub fn disconnect(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Reconnect, resume the session, and replay unacknowledged deltas.
    ///
    /// The server's `Hello` ack tells us what it already has
    /// (`next_seq`); everything below that is dropped from the replay
    /// queue, the rest is re-sent. Safe to call even if the old
    /// connection is still healthy.
    pub fn recover(&mut self) -> Result<(), NetError> {
        self.stream = connect_stream(&self.addr, self.retry.rpc_timeout)?;
        self.metrics.reconnects.inc();
        self.fb.clear();
        // Replies in flight on the dead connection are gone with it.
        self.unacked = 0;
        let local_next = self.next_seq;
        self.hello(Some(self.session))?;
        // hello() synced next_seq to the server's high-water mark;
        // replay what it lacks, then restore our own (which includes the
        // replayed deltas). Below the mark the ack was lost, not the
        // delta.
        let server_next = self.next_seq;
        self.next_seq = local_next.max(server_next);
        self.inflight.retain(|(seq, _)| *seq >= server_next);
        for at in 0..self.inflight.len() {
            let seq = self.inflight[at].0;
            let round = self.open_round.ok_or_else(|| NetError::Protocol {
                detail: format!("replaying seq {seq} but no round is open server-side"),
            })?;
            self.unacked += 1;
            self.send_submit(round, at)?;
        }
        Ok(())
    }

    /// Open the next collection round at timestamp `t`.
    ///
    /// Retryable failures back off, reconnect, and resend the *same*
    /// round id — the idempotent re-open returns the recorded request,
    /// so a retry after a lost ack cannot open a second round.
    pub fn open_round_with(
        &mut self,
        t: u64,
        fo: FoKind,
        epsilon: f64,
        domain_size: usize,
    ) -> Result<ReportRequest, NetError> {
        // Pin the target round before any retry: a reconnect's Hello
        // bumps `next_round` past a round the server already opened.
        let target = self.next_round;
        self.with_retry(|c| {
            let deadline = c.deadline();
            c.drain_acks(0, deadline)?;
            let corr = c.corr();
            let request = ReportRequest {
                round: target,
                t,
                fo,
                epsilon,
                domain_size,
            };
            c.send(&Frame::OpenRound {
                corr,
                session: c.session,
                request,
            })?;
            match c.expect_ack(corr, deadline)? {
                AckBody::Opened { request } => {
                    c.open_round = Some(request.round);
                    c.next_round = request.round + 1;
                    Ok(request)
                }
                other => Err(unexpected("Opened", &other)),
            }
        })
    }

    /// Submit one delta of responses to the open round (pipelined: it
    /// returns with up to `window` deltas unacknowledged, so `window + 1`
    /// ride while the next call sends).
    ///
    /// The delta moves into the replay queue exactly once, *before* any
    /// network send — the frame is encoded from a borrow of that entry,
    /// every retry path replays it from there, and the
    /// server's sequence numbers make duplicates no-ops, so a delta is
    /// counted exactly once no matter how many times it is resent.
    pub fn submit_batch(&mut self, responses: Vec<UserResponse>) -> Result<(), NetError> {
        let round = self.open_round.ok_or_else(|| NetError::Protocol {
            detail: "submit_batch with no open round".into(),
        })?;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.inflight.push_back((seq, responses));
        self.unacked += 1;
        let mut sent = false;
        self.with_retry(|c| {
            let deadline = c.deadline();
            if !sent {
                // First attempt sends directly; on retries recover()
                // has already replayed the delta from `inflight`.
                sent = true;
                c.send_submit(round, c.inflight.len() - 1)?;
            }
            // Return with at most `window` deltas unacknowledged.
            while c.unacked > c.window {
                c.drain_one_ack(deadline)?;
            }
            Ok(())
        })
    }

    /// Block until every pipelined submit has been acknowledged (and is
    /// therefore applied — and, on a durable tenant, logged —
    /// server-side).
    pub fn flush(&mut self) -> Result<(), NetError> {
        self.with_retry(|c| {
            let deadline = c.deadline();
            c.drain_acks(0, deadline)
        })
    }

    /// Close the open round and return its estimate (bit-identical to
    /// an in-process close over the same responses).
    ///
    /// Retries are safe: re-closing the last closed round returns the
    /// original estimate bit for bit.
    pub fn close_round(&mut self) -> Result<RoundEstimate, NetError> {
        let round = self.open_round.ok_or_else(|| NetError::Protocol {
            detail: "close_round with no open round".into(),
        })?;
        self.with_retry(|c| {
            let deadline = c.deadline();
            c.drain_acks(0, deadline)?;
            let corr = c.corr();
            c.send(&Frame::CloseRound {
                corr,
                session: c.session,
                round,
            })?;
            match c.expect_ack(corr, deadline)? {
                AckBody::Closed { estimate } => {
                    c.open_round = None;
                    Ok(estimate)
                }
                other => Err(unexpected("Closed", &other)),
            }
        })
    }

    /// Scrape the server's metrics registry over the wire.
    ///
    /// `scope` of `Some(tenant)` restricts the reply to that tenant's
    /// samples; `None` returns everything the server records (all
    /// tenants plus the wire layer). Returns the server's stats schema
    /// version alongside the samples. See also [`scrape_stats`] for a
    /// scrape without binding a tenant session.
    pub fn server_stats(
        &mut self,
        scope: Option<&str>,
    ) -> Result<(u8, Vec<MetricSample>), NetError> {
        let scope = scope.map(str::to_string);
        self.with_retry(|c| {
            let deadline = c.deadline();
            c.drain_acks(0, deadline)?;
            let corr = c.corr();
            c.send(&Frame::StatsRequest {
                corr,
                scope: scope.clone(),
            })?;
            match c.expect_ack(corr, deadline)? {
                AckBody::Stats { version, samples } => Ok((version, samples)),
                other => Err(unexpected("Stats", &other)),
            }
        })
    }

    // ------------------------------------------------------------------
    // internals

    /// Run `op`, retrying retryable failures up to the policy's budget:
    /// back off (honoring any server hint), reconnect-and-replay, try
    /// again. Non-retryable failures and budget exhaustion surface.
    ///
    /// The budget counts *consecutive fruitless* attempts: a cycle that
    /// shrank the replay queue (the server acknowledged deltas) resets
    /// the counter, so a sustained-but-converging overload — e.g. a
    /// rate-limited tenant pacing a large round through a small bucket —
    /// completes no matter how many backoff cycles it needs, while a
    /// dead server still fails after `max_retries` attempts.
    fn with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let rpc_start = Instant::now();
        let done = |c: &mut Self, v| {
            c.metrics.rpc_ns.record_duration(rpc_start.elapsed());
            Ok(v)
        };
        let mut attempt: u32 = 0;
        let mut queued = self.inflight.len();
        let mut err = match op(self) {
            Ok(v) => return done(self, v),
            Err(e) => e,
        };
        loop {
            if self.inflight.len() < queued {
                attempt = 0;
            }
            queued = self.inflight.len();
            if !err.retryable() || attempt >= self.retry.max_retries {
                return Err(err);
            }
            if matches!(&err, NetError::Remote(WireError::Overloaded { .. })) {
                self.metrics.overloaded.inc();
            }
            let delay = self.retry.delay(attempt, err.retry_after());
            std::thread::sleep(delay);
            self.metrics.record_backoff(delay);
            attempt += 1;
            // Resync through a fresh connection whatever the failure:
            // Hello re-reads the server's sequencing state, so we never
            // guess which frames survived the old connection.
            err = match self.recover() {
                Ok(()) => match op(self) {
                    Ok(v) => return done(self, v),
                    Err(e) => e,
                },
                Err(e) => e,
            };
        }
    }

    fn deadline(&self) -> Instant {
        Instant::now() + self.retry.rpc_timeout
    }

    fn corr(&mut self) -> u64 {
        let corr = self.next_corr;
        self.next_corr += 1;
        corr
    }

    fn hello(&mut self, resume: Option<u64>) -> Result<(), NetError> {
        let deadline = self.deadline();
        let corr = self.corr();
        self.send(&Frame::Hello {
            corr,
            tenant: self.tenant.clone(),
            resume,
            token: self.token.clone(),
        })?;
        match self.expect_ack(corr, deadline)? {
            AckBody::Session {
                session,
                next_round,
                next_seq,
                open_round,
            } => {
                self.session = session;
                self.next_round = next_round;
                self.next_seq = next_seq;
                self.open_round = open_round;
                Ok(())
            }
            other => Err(unexpected("Session", &other)),
        }
    }

    /// Send replay-queue entry `at` as a `SubmitBatch` for `round`.
    fn send_submit(&mut self, round: u64, at: usize) -> Result<(), NetError> {
        let corr = self.corr();
        let (seq, responses) = &self.inflight[at];
        self.out.clear();
        put_enveloped(&mut self.out, |out| {
            put_submit_batch(out, corr, self.session, round, *seq, responses)
        });
        debug_assert!(self.out.len() - 8 <= MAX_FRAME_LEN as usize);
        self.stream.write_all(&self.out)?;
        Ok(())
    }

    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        self.stream.write_all(&encode_frame(frame))?;
        Ok(())
    }

    fn recv(&mut self, deadline: Instant) -> Result<Frame, NetError> {
        match read_frame(&mut self.stream, &mut self.fb, &mut self.inbuf, deadline)? {
            Some(frame) => Ok(frame),
            None => {
                self.metrics.timeouts.inc();
                Err(NetError::Timeout {
                    after_ms: self.retry.rpc_timeout.as_millis() as u64,
                })
            }
        }
    }

    /// Consume one pending submit ack (replies arrive in request order).
    fn drain_one_ack(&mut self, deadline: Instant) -> Result<(), NetError> {
        match self.recv(deadline)? {
            Frame::Ack {
                body: AckBody::Submitted { next_seq },
                ..
            } => {
                self.unacked = self.unacked.saturating_sub(1);
                while self
                    .inflight
                    .front()
                    .is_some_and(|(seq, _)| *seq < next_seq)
                {
                    self.inflight.pop_front();
                }
                Ok(())
            }
            Frame::Err { error, .. } => Err(NetError::Remote(error)),
            other => Err(NetError::Protocol {
                detail: format!("expected Submitted ack, got {other:?}"),
            }),
        }
    }

    /// Block until at most `leave` submits remain unacknowledged.
    fn drain_acks(&mut self, leave: usize, deadline: Instant) -> Result<(), NetError> {
        while self.unacked > leave {
            self.drain_one_ack(deadline)?;
        }
        Ok(())
    }

    /// Receive the reply to non-pipelined request `corr` (all submit
    /// acks must be drained first).
    fn expect_ack(&mut self, corr: u64, deadline: Instant) -> Result<AckBody, NetError> {
        match self.recv(deadline)? {
            Frame::Ack {
                corr: reply_corr,
                body,
            } => {
                if reply_corr != corr {
                    return Err(NetError::Protocol {
                        detail: format!("reply for request {reply_corr}, expected {corr}"),
                    });
                }
                Ok(body)
            }
            Frame::Err { error, .. } => Err(NetError::Remote(error)),
            other => Err(NetError::Protocol {
                detail: format!("expected Ack, got {other:?}"),
            }),
        }
    }
}

/// Connect with the RPC deadline as connect timeout, then arm the
/// read-poll and write timeouts every later call relies on.
fn connect_stream(addr: &str, rpc_timeout: Duration) -> Result<TcpStream, NetError> {
    let mut last_err: Option<std::io::Error> = None;
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, rpc_timeout) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                // Reads poll so recv() can enforce its own deadline;
                // writes time out wholesale (a stalled peer must not
                // wedge the client past its deadline).
                stream.set_read_timeout(Some(READ_POLL))?;
                stream.set_write_timeout(Some(rpc_timeout))?;
                return Ok(stream);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(NetError::Io(last_err.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("cannot resolve {addr}"),
        )
    })))
}

/// Scrape a server's metrics registry without binding a tenant session.
///
/// `StatsRequest` is the one frame valid before `Hello`, so operators
/// (and `ldp-client --stats`) can scrape a server whose tenants they
/// know nothing about. `scope` filters to one tenant's samples.
pub fn scrape_stats(
    addr: &str,
    scope: Option<&str>,
    timeout: Duration,
) -> Result<(u8, Vec<MetricSample>), NetError> {
    let mut stream = connect_stream(addr, timeout)?;
    stream.write_all(&encode_frame(&Frame::StatsRequest {
        corr: 1,
        scope: scope.map(str::to_string),
    }))?;
    let deadline = Instant::now() + timeout;
    let (mut fb, mut buf) = (FrameBuffer::new(), [0u8; 16 * 1024]);
    match read_frame(&mut stream, &mut fb, &mut buf, deadline)? {
        Some(Frame::Ack {
            body: AckBody::Stats { version, samples },
            ..
        }) => Ok((version, samples)),
        Some(Frame::Err { error, .. }) => Err(NetError::Remote(error)),
        Some(other) => Err(NetError::Protocol {
            detail: format!("expected Stats ack, got {other:?}"),
        }),
        None => Err(NetError::Timeout {
            after_ms: timeout.as_millis() as u64,
        }),
    }
}

/// Read `stream` into `fb` until it holds a frame; `None` once a read
/// poll finds `deadline` passed. `buf` is the caller's, so it is zeroed
/// once and not per read.
fn read_frame(
    stream: &mut TcpStream,
    fb: &mut FrameBuffer,
    buf: &mut [u8],
    deadline: Instant,
) -> Result<Option<Frame>, NetError> {
    loop {
        if let Some(frame) = fb.next_frame()? {
            return Ok(Some(frame));
        }
        match stream.read(buf) {
            Ok(0) => {
                return Err(NetError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )))
            }
            Ok(n) => fb.feed(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if Instant::now() >= deadline {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}

fn unexpected(wanted: &str, got: &AckBody) -> NetError {
    NetError::Protocol {
        detail: format!("expected {wanted} ack body, got {got:?}"),
    }
}
