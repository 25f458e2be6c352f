//! [`ClientCollector`] — a [`RoundCollector`] backed by real clients.
//!
//! Where [`crate::AggregateCollector`] samples the mathematics, this
//! driver runs the machinery: every collection round is a broadcast of
//! [`crate::protocol::ReportRequest`]s, one perturbation per selected
//! [`UserClient`], and a tally at the receiving end. Group selection for
//! `Fresh` rounds is a uniformly random draw from a pool of user ids
//! that recycles exactly `w` timestamps after use (Alg. 3/4 line
//! "Recycling Users").
//!
//! The *receiving end* is abstract: a [`ReportSink`] consumes the
//! response stream and produces the round estimate. The in-process
//! [`AggregationServer`] is the sequential sink (and
//! [`ClientCollector`] the alias wiring it in); `ldp_service`'s sharded
//! worker pool is a parallel one — mechanisms run over either unchanged,
//! and both produce identical estimates for the same seeded clients
//! because support-count folding is commutative.
//!
//! The cost is O(reporters) per round, so this collector suits the
//! paper's smaller configurations, the examples, and the fidelity tests
//! that check it agrees with the aggregate collector in distribution.

use crate::collector::{CollectorStats, ReportScope, RoundCollector, RoundEstimate};
use crate::config::MechanismConfig;
use crate::error::CoreError;
use crate::protocol::client::UserClient;
use crate::protocol::messages::{ReportRequest, UserResponse};
use crate::protocol::server::AggregationServer;
use ldp_fo::{build_oracle, FoKind, OracleHandle};
use ldp_stream::{RingWindow, Snapshot, StreamSource};
use ldp_util::child_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The receiving end of one collection round: opens rounds, tallies
/// responses, and produces the unbiased estimate.
///
/// The contract mirrors [`AggregationServer`] (which is the canonical
/// sequential implementation): strictly one round open at a time per
/// sink, `submit` between `open_round` and `close_round`.
pub trait ReportSink {
    /// Open a collection round at timestamp `t`; returns the request to
    /// broadcast to clients.
    fn open_round(
        &mut self,
        t: u64,
        fo: FoKind,
        epsilon: f64,
        oracle: OracleHandle,
    ) -> ReportRequest;

    /// Tally one response into the open round.
    fn submit(&mut self, response: &UserResponse) -> Result<(), CoreError>;

    /// Close the round and return the estimate.
    fn close_round(&mut self) -> Result<RoundEstimate, CoreError>;

    /// Refusals observed so far across all rounds.
    fn refusals(&self) -> u64;
}

impl ReportSink for AggregationServer {
    fn open_round(
        &mut self,
        t: u64,
        fo: FoKind,
        epsilon: f64,
        oracle: OracleHandle,
    ) -> ReportRequest {
        AggregationServer::open_round(self, t, fo, epsilon, oracle)
    }

    fn submit(&mut self, response: &UserResponse) -> Result<(), CoreError> {
        AggregationServer::submit(self, response)
    }

    fn close_round(&mut self) -> Result<RoundEstimate, CoreError> {
        AggregationServer::close_round(self)
    }

    fn refusals(&self) -> u64 {
        AggregationServer::refusals(self)
    }
}

/// A protocol-level collector over simulated user devices, generic in
/// the aggregation backend.
pub struct GenericClientCollector<S: ReportSink> {
    source: Box<dyn StreamSource>,
    fo: FoKind,
    w: usize,
    population: u64,
    clients: Vec<UserClient>,
    sink: S,
    rng: StdRng,
    /// Ids currently outside every active window.
    available: Vec<u32>,
    /// Ids used in each of the last `w − 1` closed steps.
    used_window: RingWindow<Vec<u32>>,
    used_this_step: Vec<u32>,
    /// This timestamp's per-user values, refilled in place every step.
    snapshot: Snapshot,
    t: u64,
    started: bool,
    stats: CollectorStats,
    oracles: HashMap<u64, OracleHandle>,
}

/// The sequential protocol collector: clients + in-process
/// [`AggregationServer`].
pub type ClientCollector = GenericClientCollector<AggregationServer>;

impl ClientCollector {
    /// A collector over `source` for `config`, with every device's
    /// randomness derived from `seed`, tallying in-process.
    pub fn new(source: Box<dyn StreamSource>, config: &MechanismConfig, seed: u64) -> Self {
        Self::with_sink(source, config, seed, AggregationServer::new())
    }
}

impl<S: ReportSink> GenericClientCollector<S> {
    /// A collector over `source` for `config`, with every device's
    /// randomness derived from `seed`, tallying into `sink`.
    ///
    /// Two sinks driven from the same `(source, config, seed)` receive
    /// the identical response sequence: client perturbation happens here,
    /// on the driving thread, so the sink only ever sees — and cannot
    /// influence — already-perturbed traffic.
    pub fn with_sink(
        source: Box<dyn StreamSource>,
        config: &MechanismConfig,
        seed: u64,
        sink: S,
    ) -> Self {
        let population = source.population();
        let clients = (0..population)
            .map(|id| UserClient::new(config.epsilon, config.w, child_seed(seed, id)))
            .collect();
        let snapshot = Snapshot::new(Vec::new(), source.domain().size());
        GenericClientCollector {
            source,
            fo: config.fo,
            w: config.w,
            population,
            clients,
            sink,
            rng: StdRng::seed_from_u64(child_seed(seed, u64::MAX)),
            available: (0..population as u32).collect(),
            used_window: RingWindow::new(config.w.max(2) - 1),
            used_this_step: Vec::new(),
            snapshot,
            t: 0,
            started: false,
            stats: CollectorStats::default(),
            oracles: HashMap::new(),
        }
    }

    /// Refusals observed so far (0 under any correct mechanism).
    pub fn refusals(&self) -> u64 {
        self.sink.refusals()
    }

    /// Borrow the aggregation backend.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// The largest active-window spend any device's own ledger holds at
    /// the current timestamp — the w-event invariant says it never
    /// exceeds ε (plus the ledger's rounding tolerance).
    pub fn max_window_spend(&self) -> f64 {
        self.clients
            .iter()
            .map(UserClient::window_spend)
            .fold(0.0, f64::max)
    }

    fn oracle(&mut self, epsilon: f64) -> Result<OracleHandle, CoreError> {
        let d = self.source.domain().size();
        let key = epsilon.to_bits();
        if let Some(hit) = self.oracles.get(&key) {
            return Ok(hit.clone());
        }
        let oracle = build_oracle(self.fo, epsilon, d)?;
        self.oracles.insert(key, oracle.clone());
        Ok(oracle)
    }

    /// Run one round over the clients with the given ids.
    fn run_round(
        &mut self,
        ids: impl ExactSizeIterator<Item = u32>,
        epsilon: f64,
    ) -> Result<RoundEstimate, CoreError> {
        let oracle = self.oracle(epsilon)?;
        let request =
            self.sink
                .open_round(self.t.saturating_sub(1), self.fo, epsilon, oracle.clone());
        self.stats.downlink_requests += ids.len() as u64;
        for id in ids {
            let response = self.clients[id as usize].handle(&request, &oracle);
            if let UserResponse::Refused {
                requested,
                available,
                ..
            } = response
            {
                // Tally it sink-side for observability, then abort the
                // round: a refusal means the request schedule is broken.
                let submitted = self.sink.submit(&response);
                self.sink.close_round()?;
                submitted?;
                return Err(CoreError::ClientRefused {
                    user: id as u64,
                    requested,
                    available,
                });
            }
            self.stats.uplink_reports += 1;
            self.stats.uplink_bytes += response.wire_size() as u64;
            if let Err(e) = self.sink.submit(&response) {
                // A submit error is recoverable sink-side (tallies are
                // untouched), but bailing out mid-round must not leave
                // the round open — the next collect would trip the
                // sink's lifecycle assertion.
                self.sink.close_round()?;
                return Err(e);
            }
        }
        self.sink.close_round()
    }
}

impl<S: ReportSink> RoundCollector for GenericClientCollector<S> {
    fn population(&self) -> u64 {
        self.population
    }

    fn domain_size(&self) -> usize {
        self.source.domain().size()
    }

    fn begin_step(&mut self) -> Result<(), CoreError> {
        if self.started {
            // Close the previous step: its used ids start their w-step
            // cool-down (none needed when w = 1).
            if self.w > 1 {
                let used = std::mem::take(&mut self.used_this_step);
                if let Some(mut recycled) = self.used_window.push(used) {
                    self.available.append(&mut recycled);
                    // Its storage serves the step now starting.
                    self.used_this_step = recycled;
                }
            } else {
                self.available.append(&mut self.used_this_step);
            }
        }
        self.started = true;
        let hist = self.source.next_histogram();
        if hist.population() != self.population {
            return Err(CoreError::PopulationDrift {
                expected: self.population,
                got: hist.population(),
            });
        }
        self.snapshot.refill(&hist, &mut self.rng);
        for (client, &value) in self.clients.iter_mut().zip(self.snapshot.values()) {
            client.observe(value as usize);
        }
        self.t += 1;
        self.stats.steps += 1;
        Ok(())
    }

    fn collect(&mut self, scope: ReportScope, epsilon: f64) -> Result<RoundEstimate, CoreError> {
        assert!(self.started, "collect called before begin_step");
        match scope {
            ReportScope::All => self.run_round(0..self.population as u32, epsilon),
            ReportScope::Fresh(k) => {
                let k_usize = k as usize;
                if k_usize > self.available.len() {
                    return Err(CoreError::PoolExhausted {
                        requested: k,
                        available: self.available.len() as u64,
                    });
                }
                // Partial Fisher–Yates: move a uniform k-subset to the
                // front, then move it to this step's used list.
                for i in 0..k_usize {
                    let j = self.rng.gen_range(i..self.available.len());
                    self.available.swap(i, j);
                }
                let mut used = std::mem::take(&mut self.used_this_step);
                let first = used.len();
                used.extend(self.available.drain(..k_usize));
                let result = self.run_round(used[first..].iter().copied(), epsilon);
                self.used_this_step = used;
                result
            }
        }
    }

    fn stats(&self) -> CollectorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_stream::source::ConstantSource;
    use ldp_stream::TrueHistogram;

    fn collector(w: usize, counts: Vec<u64>, eps: f64) -> ClientCollector {
        let source = ConstantSource::new(TrueHistogram::new(counts));
        let config = MechanismConfig::new(eps, w, source.domain().size(), source.population());
        ClientCollector::new(Box::new(source), &config, 101)
    }

    #[test]
    fn all_scope_collects_every_client() {
        let mut c = collector(4, vec![700, 300], 1.0);
        c.begin_step().unwrap();
        let est = c.collect(ReportScope::All, 0.25).unwrap();
        assert_eq!(est.reporters, 1000);
        assert_eq!(c.stats().uplink_reports, 1000);
        assert_eq!(c.stats().downlink_requests, 1000);
        assert_eq!(c.refusals(), 0);
    }

    #[test]
    fn fresh_scope_respects_pool() {
        let mut c = collector(3, vec![700, 300], 1.0);
        c.begin_step().unwrap();
        c.collect(ReportScope::Fresh(600), 1.0).unwrap();
        c.begin_step().unwrap();
        let err = c.collect(ReportScope::Fresh(600), 1.0).unwrap_err();
        assert!(matches!(
            err,
            CoreError::PoolExhausted { available: 400, .. }
        ));
        c.collect(ReportScope::Fresh(400), 1.0).unwrap();
        // Step 3: nothing available; step 4: the 600 recycle.
        c.begin_step().unwrap();
        assert!(c.collect(ReportScope::Fresh(1), 1.0).is_err());
        c.begin_step().unwrap();
        c.collect(ReportScope::Fresh(600), 1.0).unwrap();
    }

    #[test]
    fn estimates_track_truth() {
        let mut c = collector(2, vec![16_000, 4_000], 4.0);
        c.begin_step().unwrap();
        let est = c.collect(ReportScope::All, 4.0).unwrap();
        assert!((est.frequencies[0] - 0.8).abs() < 0.05, "{est:?}");
    }

    #[test]
    fn over_budget_schedule_is_refused_not_leaked() {
        // ε = 1 per window of 2; requesting 0.8 twice in one step is a
        // broken schedule. The clients refuse and the driver errors.
        let mut c = collector(2, vec![500, 500], 1.0);
        c.begin_step().unwrap();
        c.collect(ReportScope::All, 0.8).unwrap();
        let err = c.collect(ReportScope::All, 0.8).unwrap_err();
        assert!(matches!(err, CoreError::ClientRefused { .. }));
        assert!(c.refusals() > 0);
    }

    #[test]
    fn fresh_groups_are_disjoint_within_window() {
        let mut c = collector(2, vec![50, 50], 1.0);
        c.begin_step().unwrap();
        c.collect(ReportScope::Fresh(60), 1.0).unwrap();
        let remaining = c.available.len();
        assert_eq!(remaining, 40);
        // The same step's second group must come from the remaining 40.
        c.collect(ReportScope::Fresh(40), 1.0).unwrap();
        assert!(c.available.is_empty());
    }

    #[test]
    fn window_of_one_recycles_immediately() {
        let mut c = collector(1, vec![500, 500], 1.0);
        for _ in 0..3 {
            c.begin_step().unwrap();
            c.collect(ReportScope::Fresh(1000), 1.0).unwrap();
        }
    }
}
