//! `memory-olh1024`: an in-process `IngestService::new` with 2 workers
//! (no WAL, no wire) and one driver calling `submit_batch` in
//! 4096-report chunks. OLH d=1024, rounds of 250 000 reports cycled
//! from a 50 000-report pool, repeated for the measured seconds.

use super::{timed_setup, Ctx, RunResult, CHUNK};
use crate::inputs::{check_estimate, ReportPool, EPSILON};
use crate::stats::{median, Samples};
use ldp_fo::FoKind;
use ldp_service::{IngestService, ServiceConfig};
use std::time::Instant;

pub const DOMAIN: usize = 1024;

pub fn run(ctx: &Ctx<'_>) -> Result<RunResult, String> {
    let pool_size = ctx.size(50_000, 1_000);
    let round_reports = ctx.size(250_000, 5_000);
    let ((pool, service), setup_s) = timed_setup(ctx.measure_setup, || {
        let pool = ReportPool::generate(FoKind::Olh, DOMAIN, pool_size, ctx.seed);
        Ok((pool, IngestService::new(ServiceConfig::with_threads(2))))
    })?;
    let session = service.create_session().map_err(|e| e.to_string())?;
    let reference = pool.reference(round_reports);
    let tracer = ctx.tracer;

    let (mut rates, mut close_ms, mut estimates) = (Vec::new(), Vec::new(), Vec::new());
    let mut calls = 0u64;
    let mut measuring_since = None;
    for round in 0u64.. {
        // Materialised before timing: the timed region is the service.
        let chunks = pool.chunks(round, round_reports, CHUNK);
        calls += chunks.len() as u64 + 2;
        let span = tracer.begin("memory.round", 0);
        let start = Instant::now();
        tracer
            .call("IngestService::open_round", span.id, || {
                service.open_round(session, round, FoKind::Olh, EPSILON, DOMAIN)
            })
            .map_err(|e| e.to_string())?;
        for chunk in chunks {
            tracer
                .call("IngestService::submit_batch", span.id, || {
                    service.submit_batch(session, chunk)
                })
                .map_err(|e| e.to_string())?;
        }
        let submitted = Instant::now();
        let estimate = tracer
            .call("IngestService::close_round", span.id, || {
                service.close_round(session)
            })
            .map_err(|e| e.to_string())?;
        let closed = Instant::now();
        tracer.end(span);
        estimates.push(estimate);
        // Round 0 is the warm-up: gated like the rest, not timed.
        if round > 0 {
            rates.push(round_reports as f64 / (closed - start).as_secs_f64());
            close_ms.push((closed - submitted).as_secs_f64() * 1e3);
        }
        let since = *measuring_since.get_or_insert_with(Instant::now);
        if round > 0 && since.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }

    if ctx.inject_gate_failure {
        estimates[0].reporters += 1;
    }
    for (i, estimate) in estimates.iter().enumerate() {
        check_estimate(
            &format!("round {i}"),
            estimate,
            &reference,
            round_reports as u64,
        )?;
    }
    let close = Samples::new(close_ms);
    Ok(RunResult {
        ingest_reports_per_s: median(&rates),
        setup_s,
        attempted: calls,
        failed: 0,
        late: 0,
        layer: vec![("service.session.close_ms_p50", close.median())],
        round_close_ms: close,
    })
}
