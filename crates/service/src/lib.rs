//! # `ldp_service` — sharded, parallel report-ingestion service
//!
//! LDP-IDS targets infinite streams from massive populations, but the
//! in-process [`AggregationServer`](ldp_ids::protocol::AggregationServer)
//! tallies one [`UserResponse`](ldp_ids::protocol::UserResponse) at a
//! time on one thread. This crate scales the aggregation side of a
//! collection round across cores while producing estimates **identical**
//! to the sequential server:
//!
//! * [`shard`] — per-shard support-count accumulators; each worker folds
//!   its partition of the response stream through the round oracle's
//!   column kernels, and shard tallies merge by commutative `u64`
//!   addition on round close — which is why the parallel estimate is
//!   bit-identical to the sequential one, independent of how responses
//!   were partitioned or interleaved;
//! * [`batch`] — columnar batches, one per accepted delta, so
//!   per-message channel overhead amortizes across many reports;
//! * [`pool`] — an `std::thread` worker pool fed by bounded channels:
//!   dispatch blocks when every worker queue is full, giving natural
//!   backpressure against unbounded arrival;
//! * `machine` (crate-private) — the session lifecycle as one lock-free,
//!   I/O-free state machine: every rule about what a session may do
//!   (open → ingest → close, sequence numbers, idempotent retries) and
//!   every counter lives there, and both drivers below call it;
//! * [`session`] — the [`IngestService`]: the *live* driver of that
//!   machine (lock → check → WAL append → apply → the delta's batch to
//!   the pool) for any number of concurrent independent streams
//!   over one shared pool; a delta comes in as rows or, from the wire,
//!   as the bytes of those rows, and either takes the one step, whose
//!   check replay takes for logged bytes too;
//! * [`parallel`] — [`ParallelCollector`], a
//!   [`RoundCollector`](ldp_ids::RoundCollector) implementation that
//!   runs every existing mechanism (LBD/LBA/LPD/LPA/…) over the sharded
//!   service unchanged, via the core protocol driver's
//!   [`ReportSink`](ldp_ids::protocol::ReportSink) seam;
//! * [`registry`] — the [`TenantRegistry`]: tenant id → its own
//!   [`IngestService`] (own pool sizing, budget bookkeeping, WAL
//!   directory), the seam the `ldp_net` network frontend dispatches
//!   into;
//! * [`codec`] — the shared little-endian binary primitives (bit-exact
//!   float transport, CRC-32) used by both the WAL and the network
//!   wire protocol;
//! * [`wal`] — an append-only, length-prefixed, CRC-checksummed
//!   write-ahead log of session lifecycle events and report deltas,
//!   with leader/follower *group commit* coalescing concurrent
//!   sessions' fsyncs under [`WalSync::Always`];
//! * [`recovery`] — periodic atomic snapshots plus the *replay* driver
//!   of the same machine: a service reopened after a crash takes the
//!   snapshotted session table through the logged transitions in one
//!   streaming pass over the WAL (read and checksum of the next record
//!   overlapped with the fold of this one), report deltas decoded
//!   straight into columns by the live bytes entry's own step, so
//!   sessions, open-round tallies, refusal counters, and budget
//!   positions come back as they were and re-closed rounds estimate
//!   **bit-identically** to an uninterrupted run;
//! * [`faults`] — the fail-point registry the crash tests use to kill
//!   the service at chosen points (compiled only under the `faults`
//!   feature; a no-op in production builds).
//!
//! ## Quick example
//!
//! ```
//! use ldp_service::{IngestService, ServiceConfig};
//! use ldp_fo::{FoKind, Report};
//! use ldp_ids::protocol::UserResponse;
//! use std::sync::Arc;
//!
//! let service = Arc::new(IngestService::new(ServiceConfig::with_threads(2)));
//! let session = service.create_session().unwrap();
//! let request = service.open_round(session, 0, FoKind::Grr, 8.0, 4).unwrap();
//! for _ in 0..1000 {
//!     service
//!         .submit(session, UserResponse::Report { round: request.round, report: Report::Grr(2) })
//!         .unwrap();
//! }
//! let estimate = service.close_round(session).unwrap();
//! assert_eq!(estimate.reporters, 1000);
//! assert!(estimate.frequencies[2] > 0.9);
//! ```
//!
//! Swap [`IngestService::new`] for [`IngestService::open`] with a
//! directory and the same session runs crash-safe.

#![warn(missing_docs)]

pub mod batch;
pub mod codec;
pub mod faults;
pub(crate) mod machine;
pub mod obs;
pub mod parallel;
pub mod pool;
pub mod recovery;
pub mod registry;
pub mod session;
pub mod shard;
pub mod wal;

pub use batch::{Batch, ColumnarBatch, RoundKey, ServiceConfig};
pub use obs::{ServiceMetrics, WalObs};
pub use parallel::{ParallelCollector, ServiceSink};
pub use pool::WorkerPool;
pub use recovery::RecoveryReport;
pub use registry::{RateLimit, TenantLimits, TenantRegistry, TenantSpec};
pub use session::{EncodedSubmitError, IngestService, SessionId, SessionStatus};
pub use shard::{ShardAccumulator, ShardArena, ShardTally};
pub use wal::{Commit, GroupCommit, Wal, WalRecord, WalScan, WalStats, WalSync};
