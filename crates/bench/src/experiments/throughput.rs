//! Ingestion throughput of the sharded service (`BENCH_throughput.json`).
//!
//! Three measurements per oracle × domain configuration:
//!
//! 1. **Service sweep** — pre-perturbs one round's worth of reports,
//!    then replays the identical report set through [`IngestService`] at
//!    each worker count in [`THREAD_SWEEP`], timing open → ingest →
//!    close. Only the aggregation side is measured: client-side
//!    perturbation happens once, up front, exactly as reports arrive
//!    pre-perturbed on a real ingestion frontend. Each entry records
//!    per-report nanoseconds and which accumulation kernel folded it.
//! 2. **Kernel microbench** — the same report set folded on one thread
//!    through the scalar `accumulate` loop and through
//!    `accumulate_batch` (the columnar kernels), with the resulting
//!    counts asserted equal. The `speedup` column is the direct
//!    kernel-vs-scalar per-report gain, independent of service plumbing.
//! 3. **Parity check** — the sharded service's round estimate compared
//!    `f64::to_bits`-exact against the sequential `AggregationServer`
//!    at 1, 2, and 8 shards (the bit-exactness invariant the kernels
//!    must preserve: they reorder only u64 additions).
//!
//! The default sweep covers grr/oue/olh × {32, 128, 1024}; `--fo` and
//! `--domain` narrow it. Note the thread-sweep speedup column only
//! shows parallel gain when the host actually has spare cores —
//! `host.cores` is recorded so a single-core container's flat profile
//! is attributable.

use crate::hostmeta::HostMeta;
use crate::scale::RunScale;
use ldp_fo::{build_oracle, FoKind, OracleHandle, Report};
use ldp_ids::protocol::{AggregationServer, UserResponse};
use ldp_metrics::{format_num, Table};
use ldp_service::{IngestService, ServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Worker counts the service sweep measures.
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Domain sizes the default sweep covers.
pub const DOMAIN_SWEEP: [usize; 3] = [32, 128, 1024];

/// Oracles the default sweep covers.
pub const FO_SWEEP: [FoKind; 3] = [FoKind::Grr, FoKind::Oue, FoKind::Olh];

/// Shard counts the parity check pins against the sequential server.
pub const PARITY_SHARDS: [usize; 3] = [1, 2, 8];

/// Reports per round at each scale (the d ≤ 128 baseline; wide domains
/// scale down, see [`service_reports`]). `net` and `recovery` size
/// their streams off this too.
pub fn reports_per_round(scale: RunScale) -> u64 {
    match scale {
        RunScale::Paper => 1_000_000,
        RunScale::Quick => 100_000,
    }
}

/// Reports replayed through the service for one sweep configuration.
/// Wide domains carry ~8× the per-report payload and fold cost, so they
/// run a quarter of the stream — per-report nanoseconds stay comparable.
fn service_reports(scale: RunScale, domain_size: usize) -> u64 {
    let base = reports_per_round(scale);
    if domain_size > 128 {
        base / 4
    } else {
        base
    }
}

/// Reports folded per repetition of the single-thread kernel microbench.
fn kernel_reports(scale: RunScale) -> u64 {
    match scale {
        RunScale::Paper => 200_000,
        RunScale::Quick => 20_000,
    }
}

/// Reports driven through both servers by the parity check.
fn parity_reports(scale: RunScale) -> u64 {
    match scale {
        RunScale::Paper => 50_000,
        RunScale::Quick => 10_000,
    }
}

/// One measured thread count of a service sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputRun {
    /// Worker threads (shards).
    pub threads: usize,
    /// Wall-clock seconds for the best measured round.
    pub elapsed_secs: f64,
    /// Reports ingested per second in that round.
    pub reports_per_sec: f64,
    /// Nanoseconds of aggregation per report in that round.
    pub ns_per_report: f64,
    /// Speedup over the 1-thread configuration.
    pub speedup_vs_1: f64,
}

/// The service thread sweep for one oracle × domain configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Frequency oracle driving the fold.
    pub fo: String,
    /// Domain cardinality.
    pub domain_size: usize,
    /// Reports ingested per measured round.
    pub reports_per_round: u64,
    /// Accumulation kernel the oracle folds batches through.
    pub kernel: String,
    /// One entry per thread count in [`THREAD_SWEEP`].
    pub runs: Vec<ThroughputRun>,
}

/// Single-thread scalar-vs-batched fold of one configuration. The two
/// paths' counts are asserted equal before the entry is emitted, so a
/// recorded speedup is always a speedup of the *same* tally.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelBench {
    /// Frequency oracle under test.
    pub fo: String,
    /// Domain cardinality.
    pub domain_size: usize,
    /// Batched kernel identifier (e.g. `oue-pospopcnt64`).
    pub kernel: String,
    /// Reports folded per repetition.
    pub reports: u64,
    /// Per-report nanoseconds of the scalar `accumulate` loop.
    pub scalar_ns_per_report: f64,
    /// Per-report nanoseconds of `accumulate_batch`.
    pub kernel_ns_per_report: f64,
    /// `scalar_ns_per_report / kernel_ns_per_report`.
    pub speedup: f64,
}

/// Bit-identity of the sharded service against the sequential server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParityCheck {
    /// Frequency oracle under test.
    pub fo: String,
    /// Domain cardinality.
    pub domain_size: usize,
    /// Reports driven through both servers.
    pub reports: u64,
    /// Shard counts checked.
    pub shards: Vec<usize>,
    /// Every frequency estimate matched `f64::to_bits`-exactly at every
    /// shard count (the run aborts on a mismatch, so a written artifact
    /// always says `true` — the field makes the claim auditable).
    pub bit_identical: bool,
}

/// The full artifact, as written to `BENCH_throughput.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Artifact id ("throughput").
    pub id: String,
    /// Per-report privacy budget.
    pub epsilon: f64,
    /// Responses per dispatched batch.
    pub batch_size: usize,
    /// Host the artifact was produced on (cores bound any speedup).
    pub host: HostMeta,
    /// Service thread sweeps, one per oracle × domain configuration.
    pub sweeps: Vec<SweepReport>,
    /// Single-thread kernel-vs-scalar microbenchmarks.
    pub kernels: Vec<KernelBench>,
    /// Sharded-vs-sequential estimate parity.
    pub parity: Vec<ParityCheck>,
}

impl ThroughputReport {
    /// Render every sweep, the kernel block, and the parity block as
    /// fixed-width tables.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== throughput — ε={}, batch {} ==",
            self.epsilon, self.batch_size
        );
        for sweep in &self.sweeps {
            let mut table = Table::new(vec![
                "threads",
                "elapsed s",
                "reports/s",
                "ns/report",
                "speedup",
            ]);
            for run in &sweep.runs {
                table.push_numeric_row(
                    run.threads.to_string(),
                    &[
                        run.elapsed_secs,
                        run.reports_per_sec,
                        run.ns_per_report,
                        run.speedup_vs_1,
                    ],
                    2,
                );
            }
            out.push_str(&format!(
                "\n-- {} d={} — {} reports/round, kernel {} --\n{}",
                sweep.fo,
                sweep.domain_size,
                sweep.reports_per_round,
                sweep.kernel,
                table.render()
            ));
        }
        if !self.kernels.is_empty() {
            let mut table = Table::new(vec![
                "config",
                "kernel",
                "scalar ns/report",
                "batched ns/report",
                "speedup",
            ]);
            for k in &self.kernels {
                table.push_row(vec![
                    format!("{} d={}", k.fo, k.domain_size),
                    k.kernel.clone(),
                    format_num(k.scalar_ns_per_report, 2),
                    format_num(k.kernel_ns_per_report, 2),
                    format_num(k.speedup, 2),
                ]);
            }
            out.push_str(&format!(
                "\n-- kernels: batched vs scalar, single thread --\n{}",
                table.render()
            ));
        }
        for p in &self.parity {
            out.push_str(&format!(
                "\n# parity {} d={}: {} reports, shards {:?}, bit-identical to sequential server: {}",
                p.fo, p.domain_size, p.reports, p.shards, p.bit_identical
            ));
        }
        out.push('\n');
        out.push_str(&self.host.render());
        out
    }

    /// Write the report as pretty JSON to `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<PathBuf> {
        let json = serde_json::to_string_pretty(self).expect("throughput report serializes");
        std::fs::write(path, json)?;
        Ok(path.to_path_buf())
    }
}

/// A round's worth of pre-perturbed responses. The distinct-report pool
/// is capped so wide domains don't spend the benchmark's wall clock on
/// client-side perturbation; replaying a cycled pool folds identically
/// (the aggregation side never sees report identity).
fn template(oracle: &OracleHandle, reports: u64, seed: u64) -> Vec<UserResponse> {
    let d = oracle.domain_size();
    let mut rng = StdRng::seed_from_u64(seed);
    let pool_size = (reports as usize).clamp(1, 50_000);
    let pool: Vec<Report> = (0..pool_size)
        .map(|i| oracle.perturb(i % d, &mut rng))
        .collect();
    (0..reports as usize)
        .map(|i| UserResponse::Report {
            round: 0,
            report: pool[i % pool_size].clone(),
        })
        .collect()
}

fn sweep_config(
    scale: RunScale,
    fo: FoKind,
    epsilon: f64,
    domain_size: usize,
    batch_size: usize,
) -> SweepReport {
    let reports = service_reports(scale, domain_size);
    let oracle = build_oracle(fo, epsilon, domain_size).expect("valid oracle");
    // One shared pre-perturbed report set; every configuration replays
    // an identical clone, so measured differences are aggregation-side
    // only.
    let template = template(&oracle, reports, 0x01d9_5eed);

    let mut runs = Vec::with_capacity(THREAD_SWEEP.len());
    let mut baseline = None;
    for threads in THREAD_SWEEP {
        // Best of two rounds per configuration irons out scheduler noise.
        let mut best_elapsed = f64::INFINITY;
        for _ in 0..2 {
            let service = Arc::new(IngestService::new(
                ServiceConfig::with_threads(threads).with_batch_size(batch_size),
            ));
            let session = service.create_session().expect("create session");
            let responses = template.clone();
            service
                .open_round(session, 0, fo, epsilon, domain_size)
                .expect("open round");
            let start = Instant::now();
            // Submit in frontend-sized chunks; `submit_batch` re-slices to
            // `batch_size` and blocks on a saturated pool (backpressure).
            const CHUNK: usize = 8192;
            let mut pending = responses.into_iter();
            loop {
                let chunk: Vec<UserResponse> = pending.by_ref().take(CHUNK).collect();
                if chunk.is_empty() {
                    break;
                }
                service.submit_batch(session, chunk).expect("submit batch");
            }
            let estimate = service.close_round(session).expect("close round");
            let elapsed = start.elapsed().as_secs_f64();
            assert_eq!(estimate.reporters, reports, "round lost reports");
            service.end_session(session).expect("end session");
            best_elapsed = best_elapsed.min(elapsed);
        }
        let reports_per_sec = reports as f64 / best_elapsed;
        let baseline_rps = *baseline.get_or_insert(reports_per_sec);
        runs.push(ThroughputRun {
            threads,
            elapsed_secs: best_elapsed,
            reports_per_sec,
            ns_per_report: best_elapsed * 1e9 / reports as f64,
            speedup_vs_1: reports_per_sec / baseline_rps,
        });
    }

    SweepReport {
        fo: fo.name().into(),
        domain_size,
        reports_per_round: reports,
        kernel: oracle.batch_kernel().into(),
        runs,
    }
}

fn kernel_config(scale: RunScale, fo: FoKind, epsilon: f64, domain_size: usize) -> KernelBench {
    let n = kernel_reports(scale);
    let oracle = build_oracle(fo, epsilon, domain_size).expect("valid oracle");
    let mut rng = StdRng::seed_from_u64(0xfee1_600d ^ domain_size as u64);
    let pool_size = (n as usize).clamp(1, 50_000);
    let pool: Vec<Report> = (0..pool_size)
        .map(|i| oracle.perturb(i % domain_size, &mut rng))
        .collect();
    let reports: Vec<Report> = (0..n as usize)
        .map(|i| pool[i % pool_size].clone())
        .collect();

    let time_fold = |batched: bool| -> (f64, Vec<u64>) {
        let mut best = f64::INFINITY;
        let mut counts = Vec::new();
        for _ in 0..3 {
            let mut fresh = vec![0u64; domain_size];
            let start = Instant::now();
            if batched {
                oracle.accumulate_batch(&reports, &mut fresh);
            } else {
                for report in &reports {
                    oracle.accumulate(report, &mut fresh);
                }
            }
            best = best.min(start.elapsed().as_secs_f64());
            counts = fresh;
        }
        (best * 1e9 / n as f64, counts)
    };

    let (scalar_ns, scalar_counts) = time_fold(false);
    let (kernel_ns, kernel_counts) = time_fold(true);
    // The whole point: a speedup of a *different* answer is meaningless.
    assert_eq!(
        scalar_counts,
        kernel_counts,
        "{} d={}: batched kernel diverged from scalar fold",
        fo.name(),
        domain_size
    );

    KernelBench {
        fo: fo.name().into(),
        domain_size,
        kernel: oracle.batch_kernel().into(),
        reports: n,
        scalar_ns_per_report: scalar_ns,
        kernel_ns_per_report: kernel_ns,
        speedup: scalar_ns / kernel_ns,
    }
}

fn parity_config(
    scale: RunScale,
    fo: FoKind,
    epsilon: f64,
    domain_size: usize,
    batch_size: usize,
) -> ParityCheck {
    let n = parity_reports(scale);
    let oracle = build_oracle(fo, epsilon, domain_size).expect("valid oracle");
    let mut rng = StdRng::seed_from_u64(0xb1_71d ^ domain_size as u64);
    let reports: Vec<Report> = (0..n as usize)
        .map(|i| oracle.perturb(i % domain_size, &mut rng))
        .collect();

    // Sequential reference.
    let mut server = AggregationServer::new();
    let request = server.open_round(0, fo, epsilon, oracle.clone());
    for report in &reports {
        server
            .submit(&UserResponse::Report {
                round: request.round,
                report: report.clone(),
            })
            .expect("sequential submit");
    }
    let reference = server.close_round().expect("sequential close");

    for shards in PARITY_SHARDS {
        let service = Arc::new(IngestService::new(
            ServiceConfig::with_threads(shards).with_batch_size(batch_size),
        ));
        let session = service.create_session().expect("create session");
        let req = service
            .open_round(session, 0, fo, epsilon, domain_size)
            .expect("open round");
        let responses: Vec<UserResponse> = reports
            .iter()
            .map(|report| UserResponse::Report {
                round: req.round,
                report: report.clone(),
            })
            .collect();
        service.submit_batch(session, responses).expect("submit");
        let estimate = service.close_round(session).expect("close");
        service.end_session(session).expect("end session");
        assert_eq!(estimate.reporters, reference.reporters);
        assert_eq!(estimate.frequencies.len(), reference.frequencies.len());
        for (a, b) in estimate.frequencies.iter().zip(&reference.frequencies) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} d={} x{shards}: sharded estimate diverged ({a} != {b})",
                fo.name(),
                domain_size
            );
        }
    }

    ParityCheck {
        fo: fo.name().into(),
        domain_size,
        reports: n,
        shards: PARITY_SHARDS.to_vec(),
        bit_identical: true,
    }
}

/// Run the sweep at `scale`, stamping the artifact with `host`. `fo`
/// and `domain` narrow the default grid ([`FO_SWEEP`] × [`DOMAIN_SWEEP`])
/// to a single oracle and/or domain size.
pub fn run(
    scale: RunScale,
    host: HostMeta,
    fo: Option<FoKind>,
    domain: Option<usize>,
) -> ThroughputReport {
    let epsilon = 1.0;
    let batch_size = 4096;
    let fos: Vec<FoKind> = fo.map_or_else(|| FO_SWEEP.to_vec(), |f| vec![f]);
    let domains: Vec<usize> = domain.map_or_else(|| DOMAIN_SWEEP.to_vec(), |d| vec![d]);

    let mut sweeps = Vec::new();
    let mut kernels = Vec::new();
    let mut parity = Vec::new();
    for &fo in &fos {
        for &d in &domains {
            eprintln!("# throughput: {} d={d}", fo.name());
            sweeps.push(sweep_config(scale, fo, epsilon, d, batch_size));
            kernels.push(kernel_config(scale, fo, epsilon, d));
            parity.push(parity_config(scale, fo, epsilon, d, batch_size));
        }
    }

    ThroughputReport {
        id: "throughput".into(),
        epsilon,
        batch_size,
        host,
        sweeps,
        kernels,
        parity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_measures_kernels_and_parity() {
        let report = run(
            RunScale::Quick,
            HostMeta::capture(None),
            Some(FoKind::Grr),
            Some(32),
        );
        assert_eq!(report.sweeps.len(), 1);
        let sweep = &report.sweeps[0];
        assert_eq!(sweep.runs.len(), THREAD_SWEEP.len());
        assert_eq!(sweep.reports_per_round, 100_000);
        assert_eq!(sweep.kernel, ldp_fo::kernels::SCALAR_KERNEL);
        for run in &sweep.runs {
            assert!(run.reports_per_sec > 0.0, "{run:?}");
            assert!(run.ns_per_report > 0.0, "{run:?}");
        }
        assert!((sweep.runs[0].speedup_vs_1 - 1.0).abs() < 1e-12);

        assert_eq!(report.kernels.len(), 1);
        assert!(report.kernels[0].speedup > 0.0);
        assert_eq!(report.parity.len(), 1);
        assert!(report.parity[0].bit_identical);
        assert_eq!(report.parity[0].shards, PARITY_SHARDS.to_vec());

        // Round-trips through serde.
        let json = serde_json::to_string(&report).unwrap();
        let back: ThroughputReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn wide_domains_shrink_the_stream() {
        assert_eq!(service_reports(RunScale::Paper, 128), 1_000_000);
        assert_eq!(service_reports(RunScale::Paper, 1024), 250_000);
        assert_eq!(service_reports(RunScale::Quick, 32), 100_000);
    }
}
