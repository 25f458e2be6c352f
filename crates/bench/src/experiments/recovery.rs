//! Durability overhead and recovery speed (`BENCH_recovery.json`).
//!
//! Replays the throughput benchmark's pre-perturbed report set through
//! the ingestion service at every durability level — in-memory, WAL
//! without fsync, fsync-batched, fsync-per-frame — so the cost of
//! crash-safety is a single slowdown column against the in-memory
//! baseline. Then measures the other side of the bargain: a service
//! killed mid-round (no snapshot, worst case) is reopened and the full
//! WAL replay is timed.
//!
//! One worker thread throughout: WAL appends happen on the submitting
//! thread under the state lock, so a single shard isolates exactly the
//! logging overhead rather than mixing in dispatch parallelism.

use crate::hostmeta::HostMeta;
use crate::scale::RunScale;
use ldp_fo::{build_oracle, FoKind};
use ldp_ids::protocol::UserResponse;
use ldp_metrics::Table;
use ldp_service::{IngestService, ServiceConfig, WalSync};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Reports per measured round at each scale (same as the throughput
/// sweep, so the two artifacts are comparable).
pub fn reports_per_round(scale: RunScale) -> u64 {
    super::throughput::reports_per_round(scale)
}

/// One measured durability level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DurabilityRun {
    /// `memory`, `wal-none`, `wal-batch`, or `wal-always`.
    pub mode: String,
    /// Wall-clock seconds for the best measured round.
    pub elapsed_secs: f64,
    /// Reports ingested per second in that round.
    pub reports_per_sec: f64,
    /// Slowdown against the in-memory baseline (1.0 = free).
    pub slowdown_vs_memory: f64,
}

/// Timing of one worst-case restart: a round's full WAL replayed with
/// no snapshot to shortcut it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryTiming {
    /// WAL records replayed by the reopen.
    pub wal_records_replayed: u64,
    /// Reports reconstructed into the open round's tally.
    pub reports_recovered: u64,
    /// Wall-clock seconds for `IngestService::open` on the crashed dir.
    pub recover_secs: f64,
    /// Reports replayed per second.
    pub replay_reports_per_sec: f64,
    /// The same measurement by the build this one is compared against,
    /// taken on the same host (`repro recovery --parent-replay`).
    pub parent: Option<ParentReplay>,
}

/// Another build's [`RecoveryTiming::replay_reports_per_sec`], recorded
/// beside this build's so the artifact carries its own baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParentReplay {
    /// The commit that build was made from.
    pub commit: String,
    /// Reports it replayed per second.
    pub replay_reports_per_sec: f64,
}

impl std::str::FromStr for ParentReplay {
    type Err = String;

    /// `COMMIT:REPORTS_PER_SEC`, as `--parent-replay` takes it.
    fn from_str(s: &str) -> Result<Self, String> {
        let bad = || format!("bad parent replay `{s}` (want COMMIT:REPORTS_PER_SEC)");
        let (commit, rate) = s.split_once(':').ok_or_else(bad)?;
        let rate: f64 = rate.parse().map_err(|_| bad())?;
        if commit.is_empty() || !(rate.is_finite() && rate > 0.0) {
            return Err(bad());
        }
        Ok(ParentReplay {
            commit: commit.into(),
            replay_reports_per_sec: rate,
        })
    }
}

/// One group-commit measurement: the full report set at
/// `WalSync::Always`, split across N concurrent sessions submitting
/// small deltas. With one session every append pays its own fsync; with
/// several, concurrent commits coalesce into shared `sync_data` calls —
/// `fsyncs_per_record` is the win.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupCommitRun {
    /// Concurrent sessions submitting.
    pub sessions: usize,
    /// Wall-clock seconds to ingest the full report set.
    pub elapsed_secs: f64,
    /// Reports ingested per second across all sessions.
    pub reports_per_sec: f64,
    /// WAL records appended (deltas + session/round lifecycle).
    pub wal_records: u64,
    /// `sync_data` calls that made them durable.
    pub fsyncs: u64,
    /// fsyncs ÷ records — 1.0 means no coalescing, lower is better.
    pub fsyncs_per_record: f64,
}

/// The full artifact, as written to `BENCH_recovery.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryBenchReport {
    /// Artifact id ("recovery").
    pub id: String,
    /// Frequency oracle driving the fold.
    pub fo: String,
    /// Per-report privacy budget.
    pub epsilon: f64,
    /// Domain cardinality.
    pub domain_size: usize,
    /// Reports ingested per measured round.
    pub reports_per_round: u64,
    /// Responses per dispatched batch.
    pub batch_size: usize,
    /// Responses per submitted delta (= per WAL record).
    pub chunk_size: usize,
    /// Host the artifact was produced on.
    pub host: HostMeta,
    /// One entry per durability level.
    pub runs: Vec<DurabilityRun>,
    /// Group-commit coalescing at 1 vs several concurrent sessions.
    pub group_commit: Vec<GroupCommitRun>,
    /// The worst-case restart measurement.
    pub recovery: RecoveryTiming,
}

impl RecoveryBenchReport {
    /// Render as a fixed-width table plus a recovery summary line.
    pub fn render(&self) -> String {
        let mut table = Table::new(vec!["mode", "elapsed s", "reports/s", "slowdown"]);
        for run in &self.runs {
            table.push_numeric_row(
                run.mode.clone(),
                &[
                    run.elapsed_secs,
                    run.reports_per_sec,
                    run.slowdown_vs_memory,
                ],
                2,
            );
        }
        let mut group = Table::new(vec!["sessions", "reports/s", "records", "fsyncs", "fs/rec"]);
        for run in &self.group_commit {
            group.push_numeric_row(
                run.sessions.to_string(),
                &[
                    run.reports_per_sec,
                    run.wal_records as f64,
                    run.fsyncs as f64,
                    run.fsyncs_per_record,
                ],
                3,
            );
        }
        let parent = self.recovery.parent.as_ref().map_or(String::new(), |p| {
            format!(
                "; {:.2}x the {:.0} reports/s of {}",
                self.recovery.replay_reports_per_sec / p.replay_reports_per_sec,
                p.replay_reports_per_sec,
                p.commit
            )
        });
        format!(
            "== recovery — {} reports/round, {} d={} ε={}, batch {} ==\n{}\ngroup commit (wal-always, {}-report deltas):\n{}\nrestart: {} WAL records ({} reports) replayed in {:.3}s ({:.0} reports/s{parent})\n{}",
            self.reports_per_round,
            self.fo,
            self.domain_size,
            self.epsilon,
            self.batch_size,
            table.render(),
            GROUP_CHUNK,
            group.render(),
            self.recovery.wal_records_replayed,
            self.recovery.reports_recovered,
            self.recovery.recover_secs,
            self.recovery.replay_reports_per_sec,
            self.host.render(),
        )
    }

    /// Write the report as pretty JSON to `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<PathBuf> {
        let json = serde_json::to_string_pretty(self).expect("recovery report serializes");
        std::fs::write(path, json)?;
        Ok(path.to_path_buf())
    }
}

/// Responses per `submit_batch` call — the frontend-sized delta that
/// becomes one WAL record.
const CHUNK: usize = 8192;

/// Delta size for the group-commit measurement: small on purpose, so
/// the run is fsync-bound and coalescing (not batching) is what's
/// measured.
const GROUP_CHUNK: usize = 256;

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldp_bench_recovery_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Ingest `template` split across `sessions` concurrent sessions of one
/// fsync-per-append service, and report how many `sync_data` calls the
/// group-commit WAL actually issued.
fn group_commit_run(
    template: &[UserResponse],
    sessions: usize,
    config: ServiceConfig,
    reports: u64,
) -> GroupCommitRun {
    let dir = bench_dir(&format!("group_{sessions}"));
    // Snapshots rotate the WAL and reset its counters; disable them so
    // the record/fsync totals describe the whole run.
    let config = config.with_sync(WalSync::Always).with_snapshot_every(0);
    let service = IngestService::open(config, &dir).expect("open durable service");
    let share = template.len().div_ceil(sessions);
    let start = Instant::now();
    let reporters: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = template
            .chunks(share)
            .map(|part| {
                let service = &service;
                scope.spawn(move || {
                    let session = service.create_session().expect("create session");
                    service
                        .open_round(session, 0, FoKind::Oue, 1.0, 128)
                        .expect("open round");
                    for delta in part.chunks(GROUP_CHUNK) {
                        service
                            .submit_batch(session, delta.to_vec())
                            .expect("submit batch");
                    }
                    let estimate = service.close_round(session).expect("close round");
                    service.end_session(session).expect("end session");
                    estimate.reporters
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(reporters, reports, "group-commit run lost reports");
    let stats = service.wal_stats().expect("durable service has a WAL");
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
    GroupCommitRun {
        sessions,
        elapsed_secs: elapsed,
        reports_per_sec: reports as f64 / elapsed.max(1e-9),
        wal_records: stats.records,
        fsyncs: stats.syncs,
        fsyncs_per_record: stats.syncs as f64 / stats.records.max(1) as f64,
    }
}

fn ingest_round(service: &IngestService, template: &[UserResponse], reports: u64) -> f64 {
    let session = service.create_session().expect("create session");
    service
        .open_round(session, 0, FoKind::Oue, 1.0, 128)
        .expect("open round");
    let responses = template.to_vec();
    let start = Instant::now();
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
    elapsed
}

/// Run the durability sweep and the restart measurement at `scale`.
pub fn run(scale: RunScale, host: HostMeta, parent: Option<ParentReplay>) -> RecoveryBenchReport {
    let epsilon = 1.0;
    let domain_size = 128;
    let batch_size = 4096;
    let reports = reports_per_round(scale);
    let oracle = build_oracle(FoKind::Oue, epsilon, domain_size).expect("valid oracle");

    let mut rng = StdRng::seed_from_u64(0x1d9_5eed);
    let template: Vec<UserResponse> = (0..reports)
        .map(|i| UserResponse::Report {
            round: 0,
            report: oracle.perturb(i as usize % domain_size, &mut rng),
        })
        .collect();

    let config = ServiceConfig::with_threads(1).with_batch_size(batch_size);
    let modes: [(&str, Option<WalSync>); 4] = [
        ("memory", None),
        ("wal-none", Some(WalSync::None)),
        ("wal-batch", Some(WalSync::Batch)),
        ("wal-always", Some(WalSync::Always)),
    ];

    let mut runs = Vec::with_capacity(modes.len());
    let mut baseline = None;
    for (mode, sync) in modes {
        // Best of two rounds per mode irons out scheduler noise.
        let mut best_elapsed = f64::INFINITY;
        for round in 0..2 {
            let elapsed = match sync {
                None => ingest_round(&IngestService::new(config), &template, reports),
                Some(sync) => {
                    let dir = bench_dir(&format!("{mode}_{round}"));
                    let service = IngestService::open(config.with_sync(sync), &dir)
                        .expect("open durable service");
                    let elapsed = ingest_round(&service, &template, reports);
                    drop(service);
                    let _ = std::fs::remove_dir_all(&dir);
                    elapsed
                }
            };
            best_elapsed = best_elapsed.min(elapsed);
        }
        let reports_per_sec = reports as f64 / best_elapsed;
        let baseline_rps = *baseline.get_or_insert(reports_per_sec);
        runs.push(DurabilityRun {
            mode: mode.into(),
            elapsed_secs: best_elapsed,
            reports_per_sec,
            slowdown_vs_memory: baseline_rps / reports_per_sec,
        });
    }

    // Group commit: the same reports at WalSync::Always, 1 vs 4
    // concurrent sessions. Coalesced commits should need far fewer
    // fsyncs per WAL record than the sequential run.
    let group_commit = [1usize, 4]
        .iter()
        .map(|&sessions| group_commit_run(&template, sessions, config, reports))
        .collect();

    // Worst-case restart: the whole round sits in one WAL generation
    // (snapshots disabled), the service dies mid-round, and the reopen
    // re-folds every logged report.
    let dir = bench_dir("restart");
    let crash_config = config.with_sync(WalSync::Batch).with_snapshot_every(0);
    let service = IngestService::open(crash_config, &dir).expect("open durable service");
    let session = service.create_session().expect("create session");
    service
        .open_round(session, 0, FoKind::Oue, epsilon, domain_size)
        .expect("open round");
    let mut pending = template.clone().into_iter();
    loop {
        let chunk: Vec<UserResponse> = pending.by_ref().take(CHUNK).collect();
        if chunk.is_empty() {
            break;
        }
        service.submit_batch(session, chunk).expect("submit batch");
    }
    drop(service); // the "crash": round never closed

    let start = Instant::now();
    let service = IngestService::open(crash_config, &dir).expect("recover");
    let recover_secs = start.elapsed().as_secs_f64();
    let report = service.recovery_report().expect("durable service").clone();
    let estimate = service.close_round(session).expect("close recovered round");
    assert_eq!(estimate.reporters, reports, "recovery lost reports");
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);

    RecoveryBenchReport {
        id: "recovery".into(),
        fo: FoKind::Oue.name().into(),
        epsilon,
        domain_size,
        reports_per_round: reports,
        batch_size,
        chunk_size: CHUNK,
        host,
        runs,
        group_commit,
        recovery: RecoveryTiming {
            wal_records_replayed: report.wal_records_replayed,
            reports_recovered: reports,
            recover_secs,
            replay_reports_per_sec: reports as f64 / recover_secs.max(1e-9),
            parent,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_measures_every_mode_and_recovers() {
        let parent: ParentReplay = "abc123:690000".parse().unwrap();
        assert!("abc123".parse::<ParentReplay>().is_err());
        assert!(":1.0".parse::<ParentReplay>().is_err());
        assert!("abc123:-1".parse::<ParentReplay>().is_err());
        let report = run(
            RunScale::Quick,
            HostMeta::capture(None),
            Some(parent.clone()),
        );
        assert_eq!(report.recovery.parent, Some(parent));
        assert!(report.render().contains("x the 690000 reports/s of abc123"));
        assert_eq!(report.runs.len(), 4);
        assert_eq!(report.runs[0].mode, "memory");
        assert!((report.runs[0].slowdown_vs_memory - 1.0).abs() < 1e-12);
        for run in &report.runs {
            assert!(run.reports_per_sec > 0.0, "{run:?}");
        }
        assert_eq!(report.recovery.reports_recovered, 100_000);
        assert!(report.recovery.wal_records_replayed > 0);
        // Group commit: both session counts measured; concurrent
        // sessions never need *more* fsyncs per record than one, and
        // coalescing keeps fsyncs at or below the record count.
        assert_eq!(report.group_commit.len(), 2);
        assert_eq!(report.group_commit[0].sessions, 1);
        assert_eq!(report.group_commit[1].sessions, 4);
        for run in &report.group_commit {
            assert!(run.fsyncs > 0, "{run:?}");
            assert!(run.fsyncs <= run.wal_records, "{run:?}");
            assert!(run.reports_per_sec > 0.0, "{run:?}");
        }
        assert!(
            report.group_commit[1].fsyncs_per_record <= report.group_commit[0].fsyncs_per_record,
            "coalescing regressed: {:?}",
            report.group_commit
        );
        // Round-trips through serde.
        let json = serde_json::to_string(&report).unwrap();
        let back: RecoveryBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
