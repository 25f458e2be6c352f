//! Service-level observability: the metric handles an
//! [`IngestService`](crate::IngestService) records into.
//!
//! Handles are created once at construction (get-or-create on the
//! scope's registry, so re-opening a tenant reuses its series) and
//! recorded lock-free on the hot paths. A service constructed without
//! an explicit scope gets a private standalone registry — the
//! instrumentation code never branches on "is observability on".

use ldp_obs::{Counter, Gauge, Histogram, Scope};
use std::sync::Arc;

/// Histogram handles for one WAL generation; shared by the WAL owner
/// and its group-commit coordinator, and carried across snapshot
/// rotations so the series span generations.
#[derive(Debug, Clone)]
pub struct WalObs {
    /// `ldp_wal_append_ns`: latency of one record append (encode +
    /// buffered write + any inline sync).
    pub append_ns: Arc<Histogram>,
    /// `ldp_wal_fsync_ns`: latency of each `sync_data`, inline or
    /// group-commit leader.
    pub fsync_ns: Arc<Histogram>,
    /// `ldp_wal_group_batch`: records made durable per fsync (the
    /// group-commit coalescing win; 1 means no coalescing).
    pub batch: Arc<Histogram>,
}

impl WalObs {
    /// Handles on a private, unregistered series (used by
    /// [`Wal::create`](crate::wal::Wal::create) when no scope is given).
    pub fn unregistered() -> WalObs {
        WalObs {
            append_ns: Histogram::arc(),
            fsync_ns: Histogram::arc(),
            batch: Histogram::arc(),
        }
    }

    /// Handles registered under `scope`.
    pub fn in_scope(scope: &Scope) -> WalObs {
        WalObs {
            append_ns: scope.histogram("ldp_wal_append_ns", "WAL record append latency (ns)"),
            fsync_ns: scope.histogram("ldp_wal_fsync_ns", "WAL fsync latency (ns)"),
            batch: scope.histogram(
                "ldp_wal_group_batch",
                "records made durable per WAL fsync (group-commit batch size)",
            ),
        }
    }
}

/// Every metric handle one service instance records into.
#[derive(Debug, Clone)]
pub struct ServiceMetrics {
    /// `ldp_reports_accumulated_total`: responses accepted into rounds.
    pub reports: Arc<Counter>,
    /// `ldp_rounds_opened_total`.
    pub rounds_opened: Arc<Counter>,
    /// `ldp_rounds_closed_total`.
    pub rounds_closed: Arc<Counter>,
    /// `ldp_snapshot_ns`: duration of each durability snapshot
    /// (checkpoint + write + WAL rotation).
    pub snapshot_ns: Arc<Histogram>,
    /// `ldp_replay_ns`: duration of snapshot load + WAL replay at open.
    pub replay_ns: Arc<Histogram>,
    /// `ldp_replay_reports_total`: responses WAL replay folded back into
    /// open rounds, over every open; with `ldp_replay_ns`, replay rate.
    pub replay_reports: Arc<Counter>,
    /// `ldp_replay_bytes_total`: WAL bytes replayed, over every open.
    pub replay_bytes: Arc<Counter>,
    /// WAL latency handles (shared across generations).
    pub wal: WalObs,
    scope: Scope,
}

impl ServiceMetrics {
    /// Metrics on a private standalone registry.
    pub fn standalone() -> ServiceMetrics {
        ServiceMetrics::in_scope(&Scope::standalone())
    }

    /// Metrics registered under `scope` (typically carrying a
    /// `tenant` label).
    pub fn in_scope(scope: &Scope) -> ServiceMetrics {
        ServiceMetrics {
            reports: scope.counter(
                "ldp_reports_accumulated_total",
                "perturbed responses accepted into rounds",
            ),
            rounds_opened: scope.counter("ldp_rounds_opened_total", "rounds opened"),
            rounds_closed: scope.counter("ldp_rounds_closed_total", "rounds closed"),
            snapshot_ns: scope.histogram("ldp_snapshot_ns", "durability snapshot duration (ns)"),
            replay_ns: scope.histogram(
                "ldp_replay_ns",
                "recovery (snapshot+WAL replay) duration (ns)",
            ),
            replay_reports: scope.counter(
                "ldp_replay_reports_total",
                "responses folded back into open rounds by WAL replay",
            ),
            replay_bytes: scope.counter("ldp_replay_bytes_total", "WAL bytes replayed at open"),
            wal: WalObs::in_scope(scope),
            scope: scope.clone(),
        }
    }

    /// The scope these metrics were registered under.
    pub fn scope(&self) -> &Scope {
        &self.scope
    }

    /// One `ldp_shard_queue_depth` gauge per worker, labelled
    /// `shard="0".."`: batches queued or folding on that worker.
    pub fn shard_depth_gauges(&self, threads: usize) -> Vec<Arc<Gauge>> {
        (0..threads)
            .map(|i| {
                self.scope
                    .with(&[("shard", &i.to_string())])
                    .gauge("ldp_shard_queue_depth", "batches queued per shard worker")
            })
            .collect()
    }
}
