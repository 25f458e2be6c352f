//! `restart-oue128`: a durable in-process service (`WalSync::Batch`,
//! automatic snapshots off) ingests a round of OUE d=128 reports in
//! 4096-report chunks, is dropped with the round still open, and is
//! reopened on the same directory — a full WAL replay — before the
//! round is closed and checked. One such cycle per fresh directory,
//! repeated for the measured seconds.

use super::wire::DOMAIN;
use super::{timed_setup, Ctx, RunResult, CHUNK};
use crate::host::ScratchDir;
use crate::inputs::{check_estimate, ReportPool, EPSILON};
use crate::stats::{median, Samples};
use ldp_fo::FoKind;
use ldp_service::{IngestService, ServiceConfig, WalSync};
use std::time::Instant;

pub fn config(threads: usize) -> ServiceConfig {
    ServiceConfig::with_threads(threads)
        .with_sync(WalSync::Batch)
        .with_snapshot_every(0)
}

pub fn run(ctx: &Ctx<'_>) -> Result<RunResult, String> {
    let pool_size = ctx.size(65_536, 2_048);
    let cycle_reports = ctx.size(524_288, 10_240);
    let ((pool, first_dir), setup_s) = timed_setup(ctx.measure_setup, || {
        let pool = ReportPool::generate(FoKind::Oue, DOMAIN, pool_size, ctx.seed);
        // The deployment's share of set-up: a first open on an empty
        // directory (creates generation 1 and its WAL).
        let dir = ScratchDir::new(ctx.data_dir, "restart")?;
        drop(IngestService::open(config(2), dir.path()).map_err(|e| e.to_string())?);
        Ok((pool, dir))
    })?;
    drop(first_dir);
    let reference = pool.reference(cycle_reports);
    let tracer = ctx.tracer;

    let (mut ingest, mut recovery, mut close_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut calls = 0u64;
    let mut measuring_since = None;
    for cycle in 0u64.. {
        let dir = ScratchDir::new(ctx.data_dir, "restart")?;
        // Materialised before timing.
        let chunks = pool.chunks(0, cycle_reports, CHUNK);
        calls += chunks.len() as u64 + 5;
        let span = tracer.begin("restart.cycle", 0);
        let service = IngestService::open(config(2), dir.path()).map_err(|e| e.to_string())?;
        let session = service.create_session().map_err(|e| e.to_string())?;
        let start = Instant::now();
        tracer
            .call("IngestService::open_round", span.id, || {
                service.open_round(session, 0, FoKind::Oue, EPSILON, DOMAIN)
            })
            .map_err(|e| e.to_string())?;
        for chunk in chunks {
            tracer
                .call("IngestService::submit_batch", span.id, || {
                    service.submit_batch(session, chunk)
                })
                .map_err(|e| e.to_string())?;
        }
        // The crash: the service goes away with the round open. The drop
        // waits for the workers to drain what `submit_batch` queued, so
        // it belongs to the ingest span.
        drop(service);
        let crashed = Instant::now();
        let service = tracer
            .call("IngestService::open", span.id, || {
                IngestService::open(config(2), dir.path())
            })
            .map_err(|e| e.to_string())?;
        let reopened = Instant::now();
        let mut estimate = tracer
            .call("IngestService::close_round", span.id, || {
                service.close_round(session)
            })
            .map_err(|e| e.to_string())?;
        let closed = Instant::now();
        tracer.end(span);

        let report = service
            .recovery_report()
            .ok_or("reopen produced no recovery report")?;
        if report.open_rounds != 1 || report.corrupt_tail.is_some() {
            return Err(format!("cycle {cycle}: unexpected recovery {report:?}"));
        }
        if ctx.inject_gate_failure {
            estimate.frequencies[0] = -estimate.frequencies[0];
        }
        let what = format!("cycle {cycle} after replay");
        check_estimate(&what, &estimate, &reference, cycle_reports as u64)?;
        // Cycle 0 is the warm-up: gated like the rest, not timed.
        if cycle > 0 {
            ingest.push(cycle_reports as f64 / (crashed - start).as_secs_f64());
            recovery.push(cycle_reports as f64 / (reopened - crashed).as_secs_f64());
            close_ms.push((closed - crashed).as_secs_f64() * 1e3);
        }
        let since = *measuring_since.get_or_insert_with(Instant::now);
        if cycle > 0 && since.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }

    Ok(RunResult {
        ingest_reports_per_s: median(&ingest),
        round_close_ms: Samples::new(close_ms),
        setup_s,
        attempted: calls,
        failed: 0,
        late: 0,
        layer: vec![("recovery_reports_per_s", median(&recovery))],
    })
}
