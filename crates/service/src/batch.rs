//! Batching: the unit of work handed to pool workers.
//!
//! Batches are **columnar**: at dispatch the session manager packs a
//! slice of the round's response stream into [`ColumnarBatch`] —
//! contiguous value/bit/seed/bucket arrays plus plain counters for
//! refusals and stale traffic — so a worker folds each batch through
//! the oracle's column kernels with zero per-report allocation. The
//! encoding is lossy only in representation, not in tallies: folding a
//! columnar batch is bit-identical to folding its source responses one
//! at a time (see `ShardAccumulator::fold_columns`).

use crate::machine::SessionId;
use crate::wal::WalSync;
use ldp_fo::{FoKind, OracleHandle, Report, ReportColumns};
use ldp_ids::protocol::UserResponse;

/// Identifies one collection round of one session — the key under which
/// every worker keeps that round's shard accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoundKey {
    /// The owning session.
    pub session: SessionId,
    /// The session-local round id.
    pub round: u64,
}

/// One round's slice of responses, encoded into contiguous columns.
#[derive(Debug, Clone)]
pub struct ColumnarBatch {
    round: u64,
    columns: ReportColumns,
    /// Reports the column layout couldn't hold (wrong-kind or malformed
    /// OUE payloads); folded through the oracle's lenient scalar path.
    leftovers: Vec<Report>,
    refusals: u64,
    stale: u64,
}

impl ColumnarBatch {
    /// Encode `responses` for a round identified by `round`, packing
    /// reports of `kind` over a domain of `domain_size` values.
    ///
    /// Responses echoing a different round id are counted as stale here
    /// (the session manager validates ids before dispatch, so nonzero
    /// stale means a late message slipped validation) — exactly the
    /// accounting the sequential server's per-response fold performs.
    pub fn encode(
        kind: FoKind,
        domain_size: usize,
        round: u64,
        responses: Vec<UserResponse>,
    ) -> Self {
        let mut batch = ColumnarBatch {
            round,
            columns: ReportColumns::for_kind(kind, domain_size, responses.len()),
            leftovers: Vec::new(),
            refusals: 0,
            stale: 0,
        };
        for response in responses {
            match response {
                UserResponse::Report { round: r, report } => {
                    if r != round {
                        batch.stale += 1;
                    } else if !batch.columns.try_push(&report, domain_size) {
                        batch.leftovers.push(report);
                    }
                }
                UserResponse::Refused { round: r, .. } => {
                    if r != round {
                        batch.stale += 1;
                    } else {
                        batch.refusals += 1;
                    }
                }
            }
        }
        batch
    }

    /// The round id every packed response was validated against.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The packed report columns.
    pub fn columns(&self) -> &ReportColumns {
        &self.columns
    }

    /// Reports that fell out of the column layout.
    pub fn leftovers(&self) -> &[Report] {
        &self.leftovers
    }

    /// Reports carried (columnar rows plus leftovers).
    pub fn reports(&self) -> u64 {
        (self.columns.len() + self.leftovers.len()) as u64
    }

    /// Refusals carried.
    pub fn refusals(&self) -> u64 {
        self.refusals
    }

    /// Responses dropped at encode time for echoing a wrong round id.
    pub fn stale(&self) -> u64 {
        self.stale
    }

    /// Total responses the batch was encoded from.
    pub fn responses(&self) -> u64 {
        self.reports() + self.refusals + self.stale
    }

    /// Whether the batch carries nothing at all.
    pub fn is_empty(&self) -> bool {
        self.responses() == 0
    }
}

/// One dispatched slice of a round's response stream.
#[derive(Debug)]
pub struct Batch {
    /// Which round the responses belong to.
    pub key: RoundKey,
    /// The round oracle (a shared handle): workers create their shard
    /// accumulator lazily from the first batch they see for a round, so
    /// no open-broadcast has to cut ahead of other rounds' traffic.
    pub oracle: OracleHandle,
    /// The responses (already validated against the open round by the
    /// session manager), packed into columns.
    pub columns: ColumnarBatch,
}

impl Batch {
    /// Encode `responses` into a columnar batch for `key`, folding
    /// through `oracle`.
    pub fn encode(key: RoundKey, oracle: &OracleHandle, responses: Vec<UserResponse>) -> Self {
        Batch {
            key,
            oracle: oracle.clone(),
            columns: ColumnarBatch::encode(
                oracle.kind(),
                oracle.domain_size(),
                key.round,
                responses,
            ),
        }
    }
}

/// Sizing knobs of the ingestion service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads (shards). At least 1.
    pub threads: usize,
    /// Responses per dispatched batch. Larger batches amortize channel
    /// overhead; smaller ones spread a short round across more shards.
    pub batch_size: usize,
    /// Bound of each worker's inbox, in batches. When every inbox is
    /// full, `submit` blocks — backpressure against unbounded arrival.
    pub queue_depth: usize,
    /// Fsync discipline of the write-ahead log. Only meaningful for a
    /// service opened durably ([`IngestService::open`]); ignored by
    /// [`IngestService::new`].
    ///
    /// [`IngestService::open`]: crate::IngestService::open
    /// [`IngestService::new`]: crate::IngestService::new
    pub sync: WalSync,
    /// WAL records between automatic tally snapshots (which also rotate
    /// the WAL, bounding replay cost on restart). `0` disables automatic
    /// snapshots; [`IngestService::checkpoint`] still snapshots on
    /// demand. Only meaningful for a durable service.
    ///
    /// [`IngestService::checkpoint`]: crate::IngestService::checkpoint
    pub snapshot_every: u64,
}

impl ServiceConfig {
    /// Default sizing for `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        ServiceConfig {
            threads: threads.max(1),
            ..Self::default()
        }
    }

    /// Override the batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Override the WAL fsync discipline.
    pub fn with_sync(mut self, sync: WalSync) -> Self {
        self.sync = sync;
        self
    }

    /// Override the automatic snapshot cadence (WAL records between
    /// snapshots; 0 disables).
    pub fn with_snapshot_every(mut self, snapshot_every: u64) -> Self {
        self.snapshot_every = snapshot_every;
        self
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            batch_size: 4096,
            queue_depth: 8,
            sync: WalSync::Batch,
            snapshot_every: 4096,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_floors_at_one() {
        assert_eq!(ServiceConfig::with_threads(0).threads, 1);
        assert_eq!(ServiceConfig::with_threads(8).threads, 8);
    }

    #[test]
    fn batch_size_floors_at_one() {
        let c = ServiceConfig::with_threads(2).with_batch_size(0);
        assert_eq!(c.batch_size, 1);
    }

    #[test]
    fn encode_separates_reports_refusals_and_stale() {
        let responses = vec![
            UserResponse::Report {
                round: 3,
                report: Report::Grr(1),
            },
            UserResponse::Refused {
                round: 3,
                requested: 1.0,
                available: 0.0,
            },
            UserResponse::Report {
                round: 9,
                report: Report::Grr(0),
            },
            UserResponse::Refused {
                round: 9,
                requested: 1.0,
                available: 0.0,
            },
            // Wrong-kind report: carried as a leftover, still a report.
            UserResponse::Report {
                round: 3,
                report: Report::Olh { seed: 1, bucket: 0 },
            },
        ];
        let batch = ColumnarBatch::encode(FoKind::Grr, 4, 3, responses);
        assert_eq!(batch.round(), 3);
        assert_eq!(batch.reports(), 2);
        assert_eq!(batch.columns().len(), 1);
        assert_eq!(batch.leftovers().len(), 1);
        assert_eq!(batch.refusals(), 1);
        assert_eq!(batch.stale(), 2);
        assert_eq!(batch.responses(), 5);
        assert!(!batch.is_empty());
        assert!(ColumnarBatch::encode(FoKind::Grr, 4, 3, Vec::new()).is_empty());
    }
}
