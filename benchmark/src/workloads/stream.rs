//! `stream-taxi-lba` and `stream-taxi-lpa`: the paper's own shape. A
//! Taxi stream (d=5) with N=20 000 simulated users, w=20, ε=1, GRR,
//! released by LBA or LPA through `ParallelCollector` on a 2-worker
//! in-memory service. Perturbation runs client-side on the driving
//! thread, and every response enters the service through the
//! per-response `IngestService::submit`.
//!
//! Every timestamp visits every simulated client (~900 bytes each).
//! At the issue's N=200 000 that streams 175 MB per timestamp and LPA
//! follows the shared host's memory system: 12–20 % between the
//! quartiles of ten runs, against ~3 % at N=20 000 (twice the paper's
//! Taxi population), measured interleaved. The ratio between the two
//! mechanisms does not depend on N.

use super::{timed_setup, Ctx, RunResult};
use crate::stats::{median, Samples};
use crate::trace::{OpenSpan, Tracer};
use ldp_fo::{FoKind, OracleHandle};
use ldp_ids::collector::{CollectorStats, ReportScope, RoundCollector, RoundEstimate};
use ldp_ids::protocol::{
    ClientCollector, GenericClientCollector, ReportRequest, ReportSink, UserResponse,
};
use ldp_ids::runner::run_with_collector;
use ldp_ids::{CoreError, MechanismConfig, MechanismKind, Release};
use ldp_service::{IngestService, ParallelCollector, ServiceConfig, ServiceSink};
use ldp_stream::{Dataset, MaterializedStream};
use std::sync::Arc;
use std::time::Instant;

const WINDOW: usize = 20;
const EPSILON: f64 = 1.0;
/// Releases compared bit for bit with the sequential `ClientCollector`.
const GATED_RELEASES: usize = 50;

/// Timestamps per timed chunk: about an eighth of a second of either
/// mechanism at full size.
fn chunk_steps(kind: MechanismKind) -> usize {
    match kind {
        MechanismKind::Lba => 50,
        _ => 200,
    }
}

/// Notes when each timestamp began, so per-timestamp release latency
/// comes out of an unmodified `run_with_collector`.
struct TimedCollector<'a> {
    inner: Box<dyn RoundCollector + 'a>,
    began: Vec<Instant>,
}

impl RoundCollector for TimedCollector<'_> {
    fn population(&self) -> u64 {
        self.inner.population()
    }
    fn domain_size(&self) -> usize {
        self.inner.domain_size()
    }
    fn begin_step(&mut self) -> Result<(), CoreError> {
        self.began.push(Instant::now());
        self.inner.begin_step()
    }
    fn collect(&mut self, scope: ReportScope, epsilon: f64) -> Result<RoundEstimate, CoreError> {
        self.inner.collect(scope, epsilon)
    }
    fn stats(&self) -> CollectorStats {
        self.inner.stats()
    }
}

/// The traced run's sink: `ServiceSink` with a span per collection
/// round around the service calls it makes. The per-response
/// `IngestService::submit` calls of a round share one span (there are
/// up to 20 000 of them), which therefore also covers the
/// perturbation interleaved with them on the driving thread.
struct TracedSink<'a> {
    inner: ServiceSink,
    tracer: &'a Tracer,
    round: Option<OpenSpan>,
    submits: Option<OpenSpan>,
}

impl ReportSink for TracedSink<'_> {
    fn open_round(
        &mut self,
        t: u64,
        fo: FoKind,
        epsilon: f64,
        oracle: OracleHandle,
    ) -> ReportRequest {
        let round = self.tracer.begin("stream.round", 0);
        let request = self.tracer.call("IngestService::open_round", round.id, || {
            self.inner.open_round(t, fo, epsilon, oracle)
        });
        self.submits = Some(
            self.tracer
                .begin("perturb+IngestService::submit[all]", round.id),
        );
        self.round = Some(round);
        request
    }

    fn submit(&mut self, response: &UserResponse) -> Result<(), CoreError> {
        self.inner.submit(response)
    }

    fn close_round(&mut self) -> Result<RoundEstimate, CoreError> {
        if let Some(submits) = self.submits.take() {
            self.tracer.end(submits);
        }
        let parent = self.round.as_ref().map_or(0, |r| r.id);
        let estimate = self.tracer.call("IngestService::close_round", parent, || {
            self.inner.close_round()
        });
        if let Some(round) = self.round.take() {
            self.tracer.end(round);
        }
        estimate
    }

    fn refusals(&self) -> u64 {
        self.inner.refusals()
    }
}

fn same_release(a: &Release, b: &Release) -> bool {
    a.t == b.t
        && a.kind == b.kind
        && a.frequencies.len() == b.frequencies.len()
        && a.frequencies
            .iter()
            .zip(&b.frequencies)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn run(ctx: &Ctx<'_>, kind: MechanismKind) -> Result<RunResult, String> {
    let population = ctx.size(20_000, 1_000) as u64;
    let dataset = Dataset::Taxi { population };
    let config = MechanismConfig::new(EPSILON, WINDOW, dataset.domain_size(), population);
    let tracer = ctx.tracer;
    let mut materialize_s = 0.0;
    let ((stream, collector), setup_s) = timed_setup(ctx.measure_setup, || {
        let start = Instant::now();
        let stream = MaterializedStream::from_dataset(&dataset, ctx.seed);
        materialize_s = start.elapsed().as_secs_f64();
        let service = Arc::new(IngestService::new(ServiceConfig::with_threads(2)));
        let source = Box::new(stream.replay());
        let collector: Box<dyn RoundCollector + '_> = if tracer.enabled() {
            let sink = TracedSink {
                inner: ServiceSink::new(service),
                tracer,
                round: None,
                submits: None,
            };
            Box::new(GenericClientCollector::with_sink(
                source, &config, ctx.seed, sink,
            ))
        } else {
            Box::new(ParallelCollector::new(source, &config, ctx.seed, service))
        };
        Ok((stream, collector))
    })?;
    let mut collector = TimedCollector {
        inner: collector,
        began: Vec::new(),
    };
    let mut mechanism = kind.build(&config).map_err(|e| e.to_string())?;

    let steps = chunk_steps(kind);
    let mut releases: Vec<Release> = Vec::new();
    let (mut step_rates, mut report_rates, mut step_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut measuring_since = None;
    for chunk in 0u64.. {
        let (first, reports_before) = (collector.began.len(), collector.stats().uplink_reports);
        let start = Instant::now();
        let run = tracer
            .call("run_with_collector", 0, || {
                run_with_collector(mechanism.as_mut(), &mut collector, steps)
            })
            .map_err(|e| format!("{kind} chunk {chunk}: {e}"))?;
        let end = Instant::now();
        releases.extend(run.releases);
        // Chunk 0 is the warm-up: gated like the rest, not timed.
        if chunk > 0 {
            let secs = (end - start).as_secs_f64();
            step_rates.push(steps as f64 / secs);
            report_rates.push((run.stats.uplink_reports - reports_before) as f64 / secs);
            let began = &collector.began[first..];
            let ends = began[1..].iter().chain(std::iter::once(&end));
            step_ms.extend(
                began
                    .iter()
                    .zip(ends)
                    .map(|(b, e)| (*e - *b).as_secs_f64() * 1e3),
            );
        }
        let since = *measuring_since.get_or_insert_with(Instant::now);
        if chunk > 0
            && releases.len() >= GATED_RELEASES
            && since.elapsed().as_secs_f64() >= ctx.seconds
        {
            break;
        }
    }
    let total = collector.stats();

    // Gate, and the source of the exact-under-a-seed `ids.*` metrics:
    // the same mechanism and seed on the sequential ClientCollector.
    let mut reference_mechanism = kind.build(&config).map_err(|e| e.to_string())?;
    let mut sequential = ClientCollector::new(Box::new(stream.replay()), &config, ctx.seed);
    let start = Instant::now();
    let reference = run_with_collector(
        reference_mechanism.as_mut(),
        &mut sequential,
        GATED_RELEASES,
    )
    .map_err(|e| format!("sequential reference: {e}"))?;
    let reference_ms = start.elapsed().as_secs_f64() * 1e3;
    if ctx.inject_gate_failure {
        releases[0].frequencies[0] = -releases[0].frequencies[0];
    }
    for (t, (got, want)) in releases.iter().zip(&reference.releases).enumerate() {
        if !same_release(got, want) {
            return Err(format!(
                "{kind} release {t} differs from the sequential ClientCollector run"
            ));
        }
    }
    let released: Vec<Vec<f64>> = reference.frequency_matrix();
    let truth = &stream.frequency_matrix()[..GATED_RELEASES];
    let mre = ldp_metrics::mre(&released, truth, ldp_metrics::DEFAULT_MRE_FLOOR);

    let (per_s, step, reports, cfpu, publications, release_mre) = match kind {
        MechanismKind::Lba => (
            "lba_timestamps_per_s",
            "ids.step_ms_per_timestamp.lba",
            "ids.reports_per_timestamp.lba",
            "ids.cfpu.lba",
            "ids.publications.lba",
            "ids.release_mre.lba",
        ),
        _ => (
            "lpa_timestamps_per_s",
            "ids.step_ms_per_timestamp.lpa",
            "ids.reports_per_timestamp.lpa",
            "ids.cfpu.lpa",
            "ids.publications.lpa",
            "ids.release_mre.lpa",
        ),
    };
    let gated = GATED_RELEASES as f64;
    Ok(RunResult {
        ingest_reports_per_s: median(&report_rates),
        round_close_ms: Samples::new(step_ms),
        setup_s,
        attempted: total.uplink_reports + 2 * total.steps,
        failed: 0,
        late: 0,
        layer: vec![
            (per_s, median(&step_rates)),
            (step, reference_ms / gated),
            (reports, reference.stats.uplink_reports as f64 / gated),
            (cfpu, reference.cfpu),
            (publications, reference.publications as f64),
            (release_mre, mre),
            ("stream.materialize_s", materialize_s),
        ],
    })
}
