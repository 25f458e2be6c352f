//! [`ParallelCollector`]: every existing mechanism over the sharded
//! service, unchanged.
//!
//! The core protocol driver already separates *driving* (clients,
//! group selection, w-event ledgers) from *tallying* (a
//! [`ReportSink`]). [`ServiceSink`] implements the sink against an
//! [`IngestService`] session, and [`ParallelCollector`] is the driver
//! over it — so a mechanism sees the usual [`RoundCollector`] while its
//! rounds aggregate across the pool's shards.
//!
//! ## Lanes
//!
//! The sink offers the driver [`threads`](crate::ServiceConfig::threads)
//! lanes ([`ReportSink::lanes`]), so a round with more reporters than
//! [`batch_size`](crate::ServiceConfig::batch_size) is answered on that
//! many threads: each perturbs a contiguous id range of the device table
//! in round order and submits its own deltas, and the first round of a
//! timestamp also starts the timestamp on each device of its range. A
//! smaller round is a round of lane 0 alone, on the driving thread.
//!
//! ## Equivalence guarantee
//!
//! For the same `(source, config, seed)`, `ParallelCollector` produces
//! **bit-identical** support counts and estimates to the sequential
//! [`ClientCollector`](ldp_ids::protocol::ClientCollector), at any shard
//! count and on any thread: every device draws from its own seeded
//! stream, so it perturbs the same values into the same reports whichever
//! lane answers it; sampling stays on the driving thread (the same
//! draws); and shard tallies merge by commutative integer addition before
//! the one floating-point estimation step runs on the merged counts.
//!
//! ## Batching
//!
//! Every lane, lane 0 included, gathers its reports into a buffer the
//! driver owns and hands it to the service every
//! [`batch_size`](crate::ServiceConfig::batch_size) responses and at the
//! lane's end. Each delta is one lock, one lifecycle check, one pool
//! dispatch and (durably) one WAL record rather than one per response:
//! the service folds each delta as one batch, so a buffer is the batch
//! the shards see. Batch boundaries are invisible in the tallies, so the
//! equivalence guarantee is unaffected.
//!
//! The sink's own buffer serves only one-at-a-time
//! [`ServiceSink::submit`]: the refusal that aborts a round, or a sink
//! that wraps this one without forwarding its lanes. It goes to the
//! service when it fills and before the round closes, so a refusal is
//! counted when the driver's error path closes the round.

use crate::session::{IngestService, SessionId};
use ldp_fo::{FoKind, OracleHandle};
use ldp_ids::collector::{CollectorStats, ReportScope, RoundCollector, RoundEstimate};
use ldp_ids::protocol::{
    GenericClientCollector, ReportLanes, ReportRequest, ReportSink, UserResponse,
};
use ldp_ids::{CoreError, MechanismConfig};
use ldp_stream::StreamSource;
use std::sync::Arc;

/// One session of a service: the sink's lanes submit into it.
#[derive(Debug)]
struct Session {
    service: Arc<IngestService>,
    id: SessionId,
}

impl ReportLanes for Session {
    fn lanes(&self) -> usize {
        self.service.config().threads
    }

    fn batch_size(&self) -> usize {
        self.service.config().batch_size
    }

    fn submit_rows(&self, rows: &[UserResponse]) -> Result<(), CoreError> {
        self.service.submit_rows(self.id, None, rows)
    }
}

/// A [`ReportSink`] that tallies into one [`IngestService`] session.
#[derive(Debug)]
pub struct ServiceSink {
    session: Session,
    /// Responses of the open round given to `submit` and not yet handed
    /// to the service; allocated on first use.
    buffer: Vec<UserResponse>,
}

impl ServiceSink {
    /// A sink over a fresh session of `service`.
    pub fn new(service: Arc<IngestService>) -> Self {
        let id = service
            .create_session()
            .expect("session creation only fails when the WAL device does");
        ServiceSink {
            session: Session { service, id },
            buffer: Vec::new(),
        }
    }

    /// The session this sink tallies into.
    pub fn session(&self) -> SessionId {
        self.session.id
    }

    /// Hand the buffered responses to the service as one delta.
    fn flush(&mut self) -> Result<(), CoreError> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let submitted = self.session.submit_rows(&self.buffer);
        self.buffer.clear();
        submitted
    }
}

impl Drop for ServiceSink {
    fn drop(&mut self) {
        let _ = self.session.service.end_session(self.session.id);
    }
}

impl ReportSink for ServiceSink {
    fn open_round(
        &mut self,
        t: u64,
        fo: FoKind,
        epsilon: f64,
        oracle: OracleHandle,
    ) -> ReportRequest {
        // The service rebuilds the oracle from `(fo, epsilon, d)` —
        // deterministically the same construction as `oracle` — so the
        // round's parameters are fully described by its WAL record.
        self.session
            .service
            .open_round(self.session.id, t, fo, epsilon, oracle.domain_size())
            .expect("session round lifecycle")
    }

    fn submit(&mut self, response: &UserResponse) -> Result<(), CoreError> {
        self.buffer.push(response.clone());
        if self.buffer.len() < self.session.batch_size() {
            return Ok(());
        }
        self.flush()
    }

    fn close_round(&mut self) -> Result<RoundEstimate, CoreError> {
        // A failed flush must not leave the round open (the driver's
        // error path relies on close_round closing it).
        let flushed = self.flush();
        let estimate = self.session.service.close_round(self.session.id);
        flushed.and(estimate)
    }

    fn refusals(&self) -> u64 {
        self.session.service.refusals(self.session.id).unwrap_or(0)
    }

    fn lanes(&self) -> Option<&dyn ReportLanes> {
        Some(&self.session)
    }
}

/// A protocol-level collector whose aggregation runs on the service's
/// worker pool.
pub struct ParallelCollector {
    inner: GenericClientCollector<ServiceSink>,
}

impl ParallelCollector {
    /// A collector over `source` for `config` with device randomness
    /// derived from `seed`, tallying on `service`.
    pub fn new(
        source: Box<dyn StreamSource>,
        config: &MechanismConfig,
        seed: u64,
        service: Arc<IngestService>,
    ) -> Self {
        let sink = ServiceSink::new(service);
        ParallelCollector {
            inner: GenericClientCollector::with_sink(source, config, seed, sink),
        }
    }

    /// Refusals observed so far (0 under any correct mechanism).
    pub fn refusals(&self) -> u64 {
        self.inner.refusals()
    }

    /// The largest active-window spend any device's ledger holds (see
    /// [`GenericClientCollector::max_window_spend`]).
    pub fn max_window_spend(&mut self) -> f64 {
        self.inner.max_window_spend()
    }
}

impl RoundCollector for ParallelCollector {
    fn population(&self) -> u64 {
        self.inner.population()
    }

    fn domain_size(&self) -> usize {
        self.inner.domain_size()
    }

    fn begin_step(&mut self) -> Result<(), CoreError> {
        self.inner.begin_step()
    }

    fn collect(&mut self, scope: ReportScope, epsilon: f64) -> Result<RoundEstimate, CoreError> {
        self.inner.collect(scope, epsilon)
    }

    fn stats(&self) -> CollectorStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ServiceConfig;
    use ldp_stream::source::ConstantSource;
    use ldp_stream::TrueHistogram;

    #[test]
    fn mechanism_round_over_the_pool() {
        let service = Arc::new(IngestService::new(
            ServiceConfig::with_threads(2).with_batch_size(64),
        ));
        let source = ConstantSource::new(TrueHistogram::new(vec![700, 300]));
        let config = MechanismConfig::new(1.0, 4, 2, 1000);
        let mut collector = ParallelCollector::new(Box::new(source), &config, 9, service);
        collector.begin_step().unwrap();
        let est = collector.collect(ReportScope::All, 0.5).unwrap();
        assert_eq!(est.reporters, 1000);
        assert_eq!(collector.refusals(), 0);
        assert_eq!(collector.stats().uplink_reports, 1000);
    }
}
