//! The six workloads. Each one sets up from the seed, runs one untimed
//! warm-up unit, measures for the requested seconds, and then checks
//! every output against a sequential reference outside the timed
//! region.

pub mod memory;
pub mod restart;
pub mod stream;
pub mod wire;

use crate::spec;
use crate::stats::Samples;
use crate::trace::Tracer;
use std::path::Path;
use std::time::Instant;

/// Reports per `submit_batch` delta of the in-process workloads.
pub const CHUNK: usize = 4096;

/// How one run was asked for.
pub struct Ctx<'a> {
    pub seed: u64,
    /// Seconds the measured region lasts.
    pub seconds: f64,
    /// Shrink every size about fifty-fold (`--smoke`).
    pub smoke: bool,
    /// Where WAL and tenant directories go.
    pub data_dir: &'a Path,
    pub tracer: &'a Tracer,
    /// Whether set-up is repeated to measure `setup_s` (its median);
    /// otherwise it runs once.
    pub measure_setup: bool,
    /// Testing hook: corrupt the first gated output so the gate trips.
    pub inject_gate_failure: bool,
}

impl Ctx<'_> {
    /// `full` at full size, `small` under `--smoke`.
    pub fn size(&self, full: usize, small: usize) -> usize {
        if self.smoke {
            small
        } else {
            full
        }
    }
}

/// What one run of a workload measured.
pub struct RunResult {
    /// Median over the run's units (rounds, cycles, chunks) of reports
    /// counted in closed rounds per second.
    pub ingest_reports_per_s: f64,
    /// Publication latency samples, one per closed round.
    pub round_close_ms: Samples,
    /// Median set-up time.
    pub setup_s: f64,
    /// Calls made into the system under test.
    pub attempted: u64,
    /// Sheds + retries (an error ends the run instead).
    pub failed: u64,
    /// Paced frames sent later than the limit. Each was still delivered
    /// and acknowledged, so it is not a failed operation, but it counts
    /// against `failed_ops_share`.
    pub late: u64,
    /// Per-layer metrics this workload itself can measure.
    pub layer: Vec<(&'static str, f64)>,
}

impl RunResult {
    pub fn failed_ops_share(&self) -> f64 {
        (self.failed + self.late) as f64 / self.attempted.max(1) as f64
    }
}

/// Set-ups per run when `setup_s` is measured: at least `MIN`, then
/// more until they add up to `ENOUGH_S` seconds (cheap set-ups need
/// many samples for a steady median), at most `MAX`.
const SETUP_REPEATS_MIN: usize = 3;
const SETUP_REPEATS_MAX: usize = 100;
const SETUP_ENOUGH_S: f64 = 0.5;

/// Run `setup`, repeatedly when `measure` is set, keep the last result
/// and return it with the median duration. Earlier results are dropped
/// (tearing the deployment down) before the next set-up starts.
pub fn timed_setup<T>(
    measure: bool,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    loop {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
        let enough =
            times.len() >= SETUP_REPEATS_MIN && times.iter().sum::<f64>() >= SETUP_ENOUGH_S;
        if !measure || enough || times.len() >= SETUP_REPEATS_MAX {
            break;
        }
    }
    Ok((
        last.expect("at least one set-up"),
        crate::stats::median(&times),
    ))
}

/// Run the named workload once.
pub fn run(name: &str, ctx: &Ctx<'_>) -> Result<RunResult, String> {
    match name {
        spec::WIRE_SAT => wire::run(ctx, wire::Mode::Saturated),
        spec::WIRE_PACED => wire::run(ctx, wire::Mode::Paced),
        spec::MEMORY => memory::run(ctx),
        spec::RESTART => restart::run(ctx),
        spec::STREAM_LBA => stream::run(ctx, ldp_ids::MechanismKind::Lba),
        spec::STREAM_LPA => stream::run(ctx, ldp_ids::MechanismKind::Lpa),
        other => Err(format!("unknown workload `{other}`")),
    }
}
