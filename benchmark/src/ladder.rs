//! The layer ladder of the traced run: the workload's own generated
//! reports walked hop by hop through each layer's public functions, on
//! one driving thread with 1-worker services, so the steps add up:
//!
//! `ReportColumns`/`accumulate_columns` → `ShardArena::ingest` →
//! `IngestService` memory → durable → `tenant::dispatch` → loopback
//! `NetClient`.
//!
//! Every figure is the median of a few passes over the whole pool. A
//! whole-call rung minus the rungs nested under it is printed as
//! `bench.unattributed_share.*`; it can be negative where the service's
//! worker thread overlaps the submitting thread.

use crate::host::ScratchDir;
use crate::inputs::{ReportPool, EPSILON};
use crate::stats::median;
use crate::workloads::wire::{Deployment, FRAME};
use crate::workloads::{restart, Ctx, CHUNK};
use ldp_fo::ReportColumns;
use ldp_ids::protocol::{ReportRequest, UserResponse};
use ldp_net::{encode_frame, tenant, AckBody, Frame, FrameBuffer};
use ldp_obs::{Counter, Histogram};
use ldp_service::codec::crc32;
use ldp_service::wal::{self, Wal, WalRecord, WalSync};
use ldp_service::{Batch, IngestService, RoundKey, ServiceConfig, SessionId, ShardArena};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Samples behind each microsecond-scale median.
const SMALL_OPS: usize = 200;

type Metrics = Vec<(&'static str, f64)>;

/// Median over `reps` passes of the seconds one pass reports.
fn passes(reps: usize, mut pass: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let times: Vec<f64> = (0..reps).map(|_| pass()).collect::<Result<_, _>>()?;
    Ok(median(&times))
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn submit_frames(pool: &ReportPool, session: u64) -> Vec<Frame> {
    (0..pool.reports.len() / FRAME)
        .map(|i| Frame::SubmitBatch {
            corr: 10 + i as u64,
            session,
            round: 0,
            seq: i as u64,
            responses: pool.responses(0, i * FRAME, FRAME),
        })
        .collect()
}

fn expect_ack(what: &str, reply: Frame) -> Result<AckBody, String> {
    match reply {
        Frame::Ack { body, .. } => Ok(body),
        other => Err(format!("{what}: {other:?}")),
    }
}

/// Submit the whole pool to `service` in chunks; the round stays open.
fn submit_pool(service: &IngestService, pool: &ReportPool) -> Result<(SessionId, f64), String> {
    let chunks = pool.chunks(0, pool.reports.len(), CHUNK);
    let session = service.create_session().map_err(|e| e.to_string())?;
    service
        .open_round(session, 0, pool.fo, EPSILON, pool.d)
        .map_err(|e| e.to_string())?;
    let start = Instant::now();
    for (seq, chunk) in chunks.into_iter().enumerate() {
        service
            .submit_batch_at(session, seq as u64, chunk)
            .map_err(|e| e.to_string())?;
    }
    Ok((session, secs(start)))
}

/// Walk `pool` up the ladder; returns per-layer metrics by name.
pub fn run(ctx: &Ctx<'_>, pool: &ReportPool) -> Result<Metrics, String> {
    let reps = ctx.size(3, 2);
    let n = pool.reports.len();
    let per_report = |seconds: f64| seconds * 1e9 / n as f64;
    let oracle = &pool.oracle;
    let key = RoundKey {
        session: SessionId::from_raw(0),
        round: 0,
    };
    let dir = ScratchDir::new(ctx.data_dir, "ladder")?;

    // ldp_fo
    let perturb = passes(reps, || {
        let mut rng = StdRng::seed_from_u64(ctx.seed);
        let start = Instant::now();
        for i in 0..n {
            black_box(oracle.perturb(i % pool.d, &mut rng));
        }
        Ok(secs(start))
    })?;
    let mut columns = ReportColumns::for_kind(pool.fo, pool.d, n);
    for report in &pool.reports {
        if !columns.try_push(report, pool.d) {
            return Err("generated report does not fit its own column layout".into());
        }
    }
    let mut counts = vec![0u64; pool.d];
    let kernel = passes(reps, || {
        counts.fill(0);
        let start = Instant::now();
        oracle.accumulate_columns(black_box(&columns), &mut counts);
        Ok(secs(start))
    })?;
    let estimate = passes(SMALL_OPS, || {
        let start = Instant::now();
        black_box(oracle.estimate(black_box(&counts), n as u64));
        Ok(secs(start))
    })?;

    // ldp_service: batch encode, shard fold and close
    let (mut encode_s, mut fold_s, mut close_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let chunks = pool.chunks(0, n, CHUNK);
        let start = Instant::now();
        let batches: Vec<Batch> = chunks
            .into_iter()
            .map(|chunk| Batch::encode(key, oracle, chunk))
            .collect();
        encode_s.push(secs(start));
        let mut arena = ShardArena::new();
        let start = Instant::now();
        for batch in batches {
            arena.ingest(batch);
        }
        fold_s.push(secs(start));
        let start = Instant::now();
        black_box(arena.close(key, pool.d));
        close_s.push(secs(start));
    }
    let (batch_encode, fold, shard_close) = (median(&encode_s), median(&fold_s), median(&close_s));

    // ldp_service: WAL encode, append, fsync, scan; CRC. One record per
    // 1024-report frame, as the wire path logs them.
    let records: Vec<WalRecord> = pool
        .chunks(0, n, FRAME)
        .into_iter()
        .enumerate()
        .map(|(seq, responses)| WalRecord::Reports {
            session: 0,
            round: 0,
            seq: seq as u64,
            responses,
        })
        .collect();
    let wal_encode = passes(reps, || {
        let start = Instant::now();
        for record in &records {
            black_box(record.encode());
        }
        Ok(secs(start))
    })?;
    let wal_bytes: usize = records.iter().map(|r| r.encode().len() + 8).sum();
    let wal_path = dir.path().join("ladder.wal");
    let mut fsyncs_per_record = 0.0;
    let wal_append = passes(reps, || {
        let mut log = Wal::create(&wal_path, WalSync::Batch).map_err(|e| e.to_string())?;
        let start = Instant::now();
        for record in &records {
            let commit = log.append(record).map_err(|e| e.to_string())?;
            commit.wait().map_err(|e| e.to_string())?;
        }
        let elapsed = secs(start);
        let stats = log.stats();
        fsyncs_per_record = stats.syncs as f64 / stats.records.max(1) as f64;
        Ok(elapsed)
    })?;
    let wal_scan = passes(reps, || {
        let start = Instant::now();
        let scan = wal::scan(&wal_path).map_err(|e| e.to_string())?;
        let elapsed = secs(start);
        if scan.records.len() != records.len() || scan.corrupt_tail.is_some() {
            return Err("WAL scan did not return what was appended".into());
        }
        Ok(elapsed)
    })?;
    let fsync = {
        let mut log = Wal::create(&wal_path, WalSync::None).map_err(|e| e.to_string())?;
        passes(reps.max(9), || {
            let commit = log.append(&records[0]).map_err(|e| e.to_string())?;
            commit.wait().map_err(|e| e.to_string())?;
            let start = Instant::now();
            log.sync().map_err(|e| e.to_string())?;
            Ok(secs(start))
        })?
    };
    let frames = submit_frames(pool, 0);
    let wire_bytes: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
    let wire_len: usize = wire_bytes.iter().map(Vec::len).sum();
    let crc = passes(reps, || {
        let start = Instant::now();
        for bytes in &wire_bytes {
            black_box(crc32(black_box(bytes)));
        }
        Ok(secs(start))
    })?;

    // ldp_service: whole calls through the session layer
    let session_memory = passes(reps, || {
        let service = IngestService::new(ServiceConfig::with_threads(1));
        let (session, submit) = submit_pool(&service, pool)?;
        let start = Instant::now();
        service.close_round(session).map_err(|e| e.to_string())?;
        Ok(submit + secs(start))
    })?;
    let mut close_s = Vec::new();
    let session_durable = passes(reps, || {
        let dir = ScratchDir::new(ctx.data_dir, "ladder-durable")?;
        let service =
            IngestService::open(restart::config(1), dir.path()).map_err(|e| e.to_string())?;
        let (session, submit) = submit_pool(&service, pool)?;
        let start = Instant::now();
        service.close_round(session).map_err(|e| e.to_string())?;
        let close = secs(start);
        close_s.push(close);
        Ok(submit + close)
    })?;
    let session_close = median(&close_s);
    let recovery_open = passes(reps, || {
        let dir = ScratchDir::new(ctx.data_dir, "ladder-replay")?;
        let service =
            IngestService::open(restart::config(1), dir.path()).map_err(|e| e.to_string())?;
        submit_pool(&service, pool)?;
        drop(service);
        let start = Instant::now();
        let service =
            IngestService::open(restart::config(1), dir.path()).map_err(|e| e.to_string())?;
        let elapsed = secs(start);
        black_box(&service);
        Ok(elapsed)
    })?;
    let submit_one = passes(reps, || {
        let service = IngestService::new(ServiceConfig::with_threads(1));
        let session = service.create_session().map_err(|e| e.to_string())?;
        service
            .open_round(session, 0, pool.fo, EPSILON, pool.d)
            .map_err(|e| e.to_string())?;
        let responses = pool.responses(0, 0, n);
        let start = Instant::now();
        for response in responses {
            service
                .submit(session, response)
                .map_err(|e| e.to_string())?;
        }
        service.close_round(session).map_err(|e| e.to_string())?;
        Ok(secs(start))
    })?;
    let empty_round = {
        let service = IngestService::new(ServiceConfig::with_threads(1));
        let session = service.create_session().map_err(|e| e.to_string())?;
        passes(SMALL_OPS, || {
            let start = Instant::now();
            service
                .open_round(session, 0, pool.fo, EPSILON, pool.d)
                .and_then(|_| service.close_round(session))
                .map_err(|e| e.to_string())?;
            Ok(secs(start))
        })?
    };

    // ldp_net: frame codec, tenant dispatch, loopback client
    let frame_encode = passes(reps, || {
        let start = Instant::now();
        for frame in &frames {
            black_box(encode_frame(frame));
        }
        Ok(secs(start))
    })?;
    let frame_decode = passes(reps, || {
        let mut buffer = FrameBuffer::new();
        let start = Instant::now();
        for bytes in &wire_bytes {
            buffer.feed(bytes);
            match buffer.next_frame() {
                Ok(Some(frame)) => drop(black_box(frame)),
                other => return Err(format!("decode of an encoded frame: {other:?}")),
            }
        }
        Ok(secs(start))
    })?;
    let dispatch = passes(reps, || {
        let dir = ScratchDir::new(ctx.data_dir, "ladder-dispatch")?;
        let service = Arc::new(
            IngestService::open(restart::config(1), dir.path()).map_err(|e| e.to_string())?,
        );
        let hello = Frame::Hello {
            corr: 1,
            tenant: "ladder".into(),
            resume: None,
            token: None,
        };
        let AckBody::Session { session, .. } =
            expect_ack("hello", tenant::dispatch(&service, hello))?
        else {
            return Err("hello was not answered with a session".into());
        };
        let open = Frame::OpenRound {
            corr: 2,
            session,
            request: ReportRequest {
                round: 0,
                t: 0,
                fo: pool.fo,
                epsilon: EPSILON,
                domain_size: pool.d,
            },
        };
        expect_ack("open", tenant::dispatch(&service, open))?;
        let frames = submit_frames(pool, session);
        let start = Instant::now();
        for frame in frames {
            expect_ack("submit", tenant::dispatch(&service, frame))?;
        }
        let close = Frame::CloseRound {
            corr: 3,
            session,
            round: 0,
        };
        expect_ack("close", tenant::dispatch(&service, close))?;
        Ok(secs(start))
    })?;
    let mut deployment = Deployment::start(ctx, 1, 1)?;
    let mut round = 0;
    let client_submit = passes(reps, || {
        let client = deployment.client(0);
        let frames: Vec<Vec<UserResponse>> = (0..n / FRAME)
            .map(|i| pool.responses(round, i * FRAME, FRAME))
            .collect();
        client
            .open_round_with(round, pool.fo, EPSILON, pool.d)
            .map_err(|e| e.to_string())?;
        round += 1;
        let start = Instant::now();
        for frame in frames {
            client.submit_batch(frame).map_err(|e| e.to_string())?;
            client.flush().map_err(|e| e.to_string())?;
        }
        client.close_round().map_err(|e| e.to_string())?;
        Ok(secs(start))
    })?;
    let one_report_rtt = {
        let client = deployment.client(0);
        client
            .open_round_with(round, pool.fo, EPSILON, pool.d)
            .map_err(|e| e.to_string())?;
        let rtt = passes(SMALL_OPS, || {
            let one = pool.responses(round, 0, 1);
            let start = Instant::now();
            client.submit_batch(one).map_err(|e| e.to_string())?;
            client.flush().map_err(|e| e.to_string())?;
            Ok(secs(start))
        })?;
        client.close_round().map_err(|e| e.to_string())?;
        rtt
    };
    drop(deployment);

    // ldp_obs
    const OBS_OPS: u64 = 1_000_000;
    let (histogram, counter) = (Histogram::new(), Counter::new());
    let obs = passes(reps, || {
        let start = Instant::now();
        for i in 0..OBS_OPS {
            histogram.record(black_box(i));
            counter.inc();
        }
        Ok(secs(start))
    })?;

    let crc_per_frame_byte = crc / wire_len as f64;
    let wal_crc = crc_per_frame_byte * wal_bytes as f64;
    let share = |whole: f64, nested: f64| (whole - nested) / whole;
    Ok(vec![
        ("fo.perturb_ns_per_report", per_report(perturb)),
        ("fo.kernel_ns_per_report", per_report(kernel)),
        ("fo.estimate_us_per_round", estimate * 1e6),
        ("service.codec.crc32_ns_per_byte", crc_per_frame_byte * 1e9),
        ("service.wal.encode_ns_per_report", per_report(wal_encode)),
        ("service.wal.append_ns_per_report", per_report(wal_append)),
        ("service.wal.bytes_per_report", wal_bytes as f64 / n as f64),
        ("service.wal.fsyncs_per_record", fsyncs_per_record),
        ("service.wal.fsync_ms_p50", fsync * 1e3),
        ("service.wal.scan_ns_per_report", per_report(wal_scan)),
        (
            "service.recovery.open_ns_per_report",
            per_report(recovery_open),
        ),
        (
            "service.batch.encode_ns_per_report",
            per_report(batch_encode),
        ),
        ("service.shard.fold_ns_per_report", per_report(fold)),
        ("service.shard.close_us_per_round", shard_close * 1e6),
        (
            "service.session.submit_batch_ns_per_report.memory",
            per_report(session_memory),
        ),
        (
            "service.session.submit_batch_ns_per_report.durable",
            per_report(session_durable),
        ),
        (
            "service.session.submit_one_ns_per_report",
            per_report(submit_one),
        ),
        ("service.session.empty_round_us", empty_round * 1e6),
        ("service.session.close_ms_p50", session_close * 1e3),
        ("net.frame.encode_ns_per_report", per_report(frame_encode)),
        ("net.frame.decode_ns_per_report", per_report(frame_decode)),
        ("net.frame.bytes_per_report", wire_len as f64 / n as f64),
        ("net.tenant.dispatch_ns_per_report", per_report(dispatch)),
        ("net.client.submit_ns_per_report", per_report(client_submit)),
        ("net.client.one_report_rtt_us", one_report_rtt * 1e6),
        ("obs.record_ns_per_op", obs * 1e9 / OBS_OPS as f64),
        ("bench.unattributed_share.shard_fold", share(fold, kernel)),
        (
            "bench.unattributed_share.wal_append",
            share(wal_append, wal_encode + wal_crc),
        ),
        (
            "bench.unattributed_share.submit_batch_memory",
            share(session_memory, batch_encode + fold),
        ),
        (
            "bench.unattributed_share.submit_batch_durable",
            share(session_durable, session_memory + wal_append),
        ),
        (
            "bench.unattributed_share.recovery_open",
            share(recovery_open, wal_scan),
        ),
        (
            "bench.unattributed_share.tenant_dispatch",
            share(dispatch, session_durable),
        ),
        (
            "bench.unattributed_share.client_submit",
            share(client_submit, dispatch + frame_encode + frame_decode),
        ),
    ])
}
