//! `wire-sat-oue128` and `wire-paced-oue128`: two `NetClient`
//! connections, each on its own durable tenant (1 worker,
//! `WalSync::Batch`) behind an in-process `NetServer` on loopback.
//! OUE d=128, 1024-report frames.
//!
//! Saturated is a closed loop: both connections run rounds of 128
//! frames back to back with `WINDOW` frames in flight, starting each
//! round together. Paced is an open loop: each connection sends one
//! frame per fixed interval with one frame outstanding, in rounds of
//! 64, and every latency is taken from the frame's due time.

use super::{timed_setup, Ctx, RunResult};
use crate::host::ScratchDir;
use crate::inputs::{check_estimate, ReportPool, EPSILON};
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use ldp_fo::FoKind;
use ldp_ids::collector::RoundEstimate;
use ldp_ids::protocol::UserResponse;
use ldp_net::{ClientOptions, NetClient, NetServer, ServerConfig};
use ldp_service::{IngestService, ServiceConfig, TenantRegistry, TenantSpec, WalSync};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

pub const DOMAIN: usize = 128;
pub const FRAME: usize = 1024;
const CONNS: usize = 2;
/// Unacknowledged frames the saturated client keeps in flight.
/// `NetClient` lets `window + 1` ride, and the server sheds a submit
/// that finds its 8-deep dispatcher queue full, so 7 is the most that
/// never sheds.
const WINDOW: usize = 7;
/// Total offered rate of the paced workload (one frame per 2.926 ms
/// per connection), about 35% of what `wire-sat-oue128` reaches on the
/// 2-core reference host. Frozen: the workload is only comparable
/// across commits at one rate.
pub const PACED_REPORTS_PER_S: f64 = 700_000.0;
/// A paced frame sent later than this counts against `failed_ops_share`.
const LATE_LIMIT: Duration = Duration::from_millis(100);
/// Above this share of late frames the run reports no latencies —
/// once it has sent `JUDGED_FRAMES`: a few dozen frames (the smoke
/// pass) cannot tell one stall from a rate the host cannot hold.
const MAX_LATE_SHARE: f64 = 0.2;
const JUDGED_FRAMES: usize = 100;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Saturated,
    Paced,
}

/// Server, tenants and connected clients; dropped in dependency order
/// (clients, server, services, then the directories).
pub struct Deployment {
    clients: Vec<NetClient>,
    server: Option<NetServer>,
    services: Vec<Arc<IngestService>>,
    _dir: ScratchDir,
}

impl Deployment {
    pub fn start(ctx: &Ctx<'_>, tenants: usize, window: usize) -> Result<Self, String> {
        let dir = ScratchDir::new(ctx.data_dir, "wire")?;
        let registry = TenantRegistry::new();
        let config = ServiceConfig::with_threads(1).with_sync(WalSync::Batch);
        let mut services = Vec::new();
        for i in 0..tenants {
            let spec = TenantSpec::durable(tenant(i), config, dir.path().join(tenant(i)));
            services.push(registry.register(spec).map_err(|e| e.to_string())?);
        }
        let server = NetServer::start("127.0.0.1:0", &registry, ServerConfig::default())
            .map_err(|e| format!("start server: {e}"))?;
        let addr = server.addr().to_string();
        let mut deployment = Deployment {
            clients: Vec::new(),
            server: Some(server),
            services,
            _dir: dir,
        };
        for i in 0..tenants {
            let options = ClientOptions::default().window(window);
            let client = NetClient::connect_with(addr.clone(), tenant(i), options)
                .map_err(|e| format!("connect: {e}"))?;
            deployment.clients.push(client);
        }
        Ok(deployment)
    }

    pub fn client(&mut self, i: usize) -> &mut NetClient {
        &mut self.clients[i]
    }

    fn retries(&self) -> u64 {
        self.clients.iter().map(|c| c.stats().retries).sum()
    }

    fn sheds(&self) -> u64 {
        let server = self.server.as_ref().expect("server runs until drop");
        (0..self.clients.len())
            .filter_map(|i| server.admission_snapshot(&tenant(i)))
            .map(|s| s.shed_total())
            .sum()
    }

    fn fsyncs_per_record(&self) -> f64 {
        let (records, syncs) = self
            .services
            .iter()
            .filter_map(|s| s.wal_stats())
            .fold((0, 0), |(r, s), w| (r + w.records, s + w.syncs));
        syncs as f64 / records.max(1) as f64
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn tenant(i: usize) -> String {
    format!("bench-{i}")
}

/// One closed round as a connection saw it.
struct RoundLog {
    /// False for the warm-up round: gated like the rest, not measured.
    timed: bool,
    start: Instant,
    /// When the last report of the round was sent (saturated) or due
    /// (paced).
    last_report: Instant,
    closed: Instant,
    estimate: RoundEstimate,
}

#[derive(Default)]
struct ConnLog {
    rounds: Vec<RoundLog>,
    calls: u64,
    /// Paced only: due → ack, and due → send start, per frame.
    ack: Vec<Duration>,
    late: Vec<Duration>,
}

struct Shape {
    round_frames: usize,
    seconds: f64,
}

pub fn run(ctx: &Ctx<'_>, mode: Mode) -> Result<RunResult, String> {
    let pool_frames = ctx.size(64, 4);
    let shape = Shape {
        round_frames: match mode {
            Mode::Saturated => ctx.size(128, 8),
            Mode::Paced => ctx.size(64, 8),
        },
        seconds: ctx.seconds,
    };
    let window = match mode {
        Mode::Saturated => WINDOW,
        Mode::Paced => 1,
    };
    let ((pool, mut deployment), setup_s) = timed_setup(ctx.measure_setup, || {
        let pool = ReportPool::generate(FoKind::Oue, DOMAIN, pool_frames * FRAME, ctx.seed);
        Ok((pool, Deployment::start(ctx, CONNS, window)?))
    })?;
    let round_reports = shape.round_frames * FRAME;
    let reference = pool.reference(round_reports);

    let barrier = Barrier::new(CONNS);
    let stop = AtomicBool::new(false);
    let logs: Vec<Result<ConnLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = deployment
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let (pool, shape, barrier, stop) = (&pool, &shape, &barrier, &stop);
                let tracer = ctx.tracer;
                scope.spawn(move || match mode {
                    Mode::Saturated => drive_saturated(client, pool, shape, barrier, stop, tracer),
                    Mode::Paced => drive_paced(client, pool, shape, barrier, conn, tracer),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("driver thread panicked".into()))
            })
            .collect()
    });
    let mut logs: Vec<ConnLog> = logs.into_iter().collect::<Result<_, _>>()?;

    // Correctness gate, outside the timed region.
    if ctx.inject_gate_failure {
        logs[0].rounds[0].estimate.reporters += 1;
    }
    for (conn, log) in logs.iter().enumerate() {
        for (i, round) in log.rounds.iter().enumerate() {
            let what = format!("connection {conn} round {i}");
            check_estimate(&what, &round.estimate, &reference, round_reports as u64)?;
        }
    }
    // Each connection's measured rounds, the warm-up left out.
    let timed: Vec<Vec<&RoundLog>> = logs
        .iter()
        .map(|l| l.rounds.iter().filter(|r| r.timed).collect())
        .collect();
    if timed.iter().any(Vec::is_empty) {
        return Err("no round closed within the measured seconds".into());
    }

    let ingest = match mode {
        // Rounds start together: a round's rate is both connections'
        // reports over the span from the common start to the later close.
        Mode::Saturated => {
            let rates: Vec<f64> = (0..timed.iter().map(Vec::len).min().unwrap_or(0))
                .map(|i| {
                    let start = timed.iter().map(|r| r[i].start).min().expect("conns");
                    let end = timed.iter().map(|r| r[i].closed).max().expect("conns");
                    (CONNS * round_reports) as f64 / (end - start).as_secs_f64()
                })
                .collect();
            median(&rates)
        }
        // Independent senders: each connection's reports over its own
        // first-submit-to-last-estimate span, summed.
        Mode::Paced => timed
            .iter()
            .map(|rounds| {
                let span = rounds.last().expect("rounds").closed - rounds[0].start;
                (rounds.len() * round_reports) as f64 / span.as_secs_f64()
            })
            .sum(),
    };
    let round_close_ms = Samples::new(
        timed
            .iter()
            .flatten()
            .map(|r| (r.closed - r.last_report).as_secs_f64() * 1e3)
            .collect(),
    );

    let ms = |d: &Duration| d.as_secs_f64() * 1e3;
    let ack = Samples::new(logs.iter().flat_map(|l| &l.ack).map(ms).collect());
    let late: Vec<Duration> = logs.iter().flat_map(|l| &l.late).copied().collect();
    let half_interval = frame_interval() / 2;
    let late_share =
        late.iter().filter(|d| **d > half_interval).count() as f64 / late.len().max(1) as f64;
    if late.len() >= JUDGED_FRAMES && late_share > MAX_LATE_SHARE {
        return Err(format!(
            "rate unsustainable on this host: {late_share:.3} of the frames were sent more than half an interval late"
        ));
    }
    let too_late = late.iter().filter(|d| **d > LATE_LIMIT).count() as u64;
    let (retries, sheds) = (deployment.retries(), deployment.sheds());
    let attempted: u64 = logs.iter().map(|l| l.calls).sum();

    let mut layer = vec![
        ("net.client.retries_total", retries as f64),
        ("net.admission.shed_total", sheds as f64),
        (
            "service.wal.fsyncs_per_record",
            deployment.fsyncs_per_record(),
        ),
    ];
    if mode == Mode::Paced {
        layer.extend([
            ("submit_ack_p50_ms", ack.median()),
            ("submit_ack_p90_ms", ack.percentile(0.90)),
            ("net.client.submit_ack_p99_ms", ack.percentile(0.99)),
            ("net.client.submit_ack_max_ms", ack.max()),
            ("net.client.late_share", late_share),
        ]);
    }
    Ok(RunResult {
        ingest_reports_per_s: ingest,
        round_close_ms,
        setup_s,
        attempted,
        failed: retries + sheds,
        late: too_late,
        layer,
    })
}

/// One round over `client`: open, `submit_frame` for each of `frames`
/// (given the round's span id; the paced schedule waits in there),
/// close. Returns the estimate and the calls made.
fn one_round(
    client: &mut NetClient,
    round: u64,
    frames: impl Iterator<Item = Vec<UserResponse>>,
    tracer: &Tracer,
    mut submit_frame: impl FnMut(&mut NetClient, Vec<UserResponse>, u64) -> Result<(), String>,
) -> Result<(RoundEstimate, u64), String> {
    let span = tracer.begin("wire.round", 0);
    let request = tracer
        .call("NetClient::open_round_with", span.id, || {
            client.open_round_with(round, FoKind::Oue, EPSILON, DOMAIN)
        })
        .map_err(|e| format!("open round {round}: {e}"))?;
    if request.round != round {
        return Err(format!(
            "server opened round {}, expected {round}",
            request.round
        ));
    }
    let mut calls = 2;
    for frame in frames {
        submit_frame(client, frame, span.id)?;
        calls += 1;
    }
    let estimate = tracer
        .call("NetClient::close_round", span.id, || client.close_round())
        .map_err(|e| format!("close round {round}: {e}"))?;
    tracer.end(span);
    Ok((estimate, calls))
}

fn drive_saturated(
    client: &mut NetClient,
    pool: &ReportPool,
    shape: &Shape,
    barrier: &Barrier,
    stop: &AtomicBool,
    tracer: &Tracer,
) -> Result<ConnLog, String> {
    let mut log = ConnLog::default();
    let mut failure = None;
    let mut measuring_since: Option<Instant> = None;
    for round in 0u64.. {
        // Materialised before the round starts, so the timed region
        // holds the system's work, not the generator's cloning.
        let frames: Vec<_> = (0..shape.round_frames)
            .map(|f| pool.responses(round, f * FRAME, FRAME))
            .collect();
        barrier.wait();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let start = Instant::now();
        let mut last_report = start;
        let outcome = one_round(
            client,
            round,
            frames.into_iter(),
            tracer,
            |c, frame, parent| {
                let sent = tracer
                    .call("NetClient::submit_batch", parent, || c.submit_batch(frame))
                    .map_err(|e| format!("submit: {e}"));
                last_report = Instant::now();
                sent
            },
        );
        let closed = Instant::now();
        match outcome {
            Ok((estimate, calls)) => {
                log.calls += calls;
                log.rounds.push(RoundLog {
                    timed: round > 0,
                    start,
                    last_report,
                    closed,
                    estimate,
                });
            }
            Err(e) => {
                failure = Some(e);
                stop.store(true, Ordering::SeqCst);
            }
        }
        let since = *measuring_since.get_or_insert_with(Instant::now);
        // Only the barrier's leader decides, between the two barriers,
        // so both connections read the same verdict after the next one.
        if barrier.wait().is_leader() && since.elapsed().as_secs_f64() >= shape.seconds {
            stop.store(true, Ordering::SeqCst);
        }
    }
    failure.map_or(Ok(log), Err)
}

fn frame_interval() -> Duration {
    Duration::from_secs_f64((FRAME * CONNS) as f64 / PACED_REPORTS_PER_S)
}

fn drive_paced(
    client: &mut NetClient,
    pool: &ReportPool,
    shape: &Shape,
    barrier: &Barrier,
    conn: usize,
    tracer: &Tracer,
) -> Result<ConnLog, String> {
    let interval = frame_interval();
    let mut log = ConnLog::default();
    // Warm-up round, unpaced.
    let warm = (0..shape.round_frames).map(|f| pool.responses(0, f * FRAME, FRAME));
    let start = Instant::now();
    let warmed = one_round(client, 0, warm, tracer, |c, frame, _| {
        c.submit_batch(frame).map_err(|e| format!("submit: {e}"))
    });
    // Both schedules count from the same instant, the second one half
    // an interval behind the first, so the connections interleave the
    // same way in every run.
    barrier.wait();
    let origin = Instant::now() + interval.mul_f64(1.0 + conn as f64 / CONNS as f64);
    let (estimate, calls) = warmed?;
    log.calls += calls;
    log.rounds.push(RoundLog {
        timed: false,
        start,
        last_report: start,
        closed: start,
        estimate,
    });
    let mut sent_frames: u32 = 0;
    for round in 1u64.. {
        let start = Instant::now();
        let mut last_due = start;
        let (mut ack, mut late) = (Vec::new(), Vec::new());
        let frames = (0..shape.round_frames).map(|f| pool.responses(round, f * FRAME, FRAME));
        let (estimate, calls) = one_round(client, round, frames, tracer, |c, frame, parent| {
            let due = origin + interval * sent_frames;
            sent_frames += 1;
            last_due = due;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            late.push(due.elapsed());
            tracer
                .call("NetClient::submit_batch+flush", parent, || {
                    c.submit_batch(frame)?;
                    c.flush()
                })
                .map_err(|e| format!("submit: {e}"))?;
            ack.push(due.elapsed());
            Ok(())
        })?;
        log.calls += calls;
        log.ack.append(&mut ack);
        log.late.append(&mut late);
        log.rounds.push(RoundLog {
            timed: true,
            start,
            last_report: last_due,
            closed: Instant::now(),
            estimate,
        });
        if origin.elapsed().as_secs_f64() >= shape.seconds {
            break;
        }
    }
    Ok(log)
}
