//! [`ClientCollector`] — a [`RoundCollector`] backed by real clients.
//!
//! Where [`crate::AggregateCollector`] samples the mathematics, this
//! driver runs the machinery: every collection round is a broadcast of
//! [`crate::protocol::ReportRequest`]s, one perturbation per selected
//! device of a [`DeviceTable`], and a tally at the receiving end. Group
//! selection for `Fresh` rounds is a uniformly random draw from a pool of
//! user ids that recycles exactly `w` timestamps after use (Alg. 3/4 line
//! "Recycling Users").
//!
//! The *receiving end* is abstract: a [`ReportSink`] consumes the
//! response stream and produces the round estimate. The in-process
//! [`AggregationServer`] is the sequential sink (and
//! [`ClientCollector`] the alias wiring it in); `ldp_service`'s sharded
//! worker pool is a parallel one — mechanisms run over either unchanged,
//! and both produce identical estimates for the same seeded clients
//! because support-count folding is commutative. A sink that offers
//! [`ReportSink::lanes`] also lets a large round's devices answer on
//! several threads at once.
//!
//! The cost is O(reporters) per round, so this collector suits the
//! paper's smaller configurations, the examples, and the fidelity tests
//! that check it agrees with the aggregate collector in distribution.

use crate::collector::{CollectorStats, ReportScope, RoundCollector, RoundEstimate};
use crate::config::MechanismConfig;
use crate::error::CoreError;
use crate::protocol::client::{DeviceRows, DeviceTable};
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

    /// Lanes for a round too large for one batch, if this sink can take
    /// one round's responses from several threads at once. `None` (the
    /// default) keeps every round on the driving thread, one
    /// [`submit`](Self::submit) per response.
    fn lanes(&mut self) -> Option<RoundLanes<'_>> {
        None
    }
}

/// A sink's shared submit for a round split across threads.
pub trait ReportLanes: Sync {
    /// Threads a round may be split across.
    fn lanes(&self) -> usize;

    /// Responses a lane gathers before it submits them; only a round
    /// with more reporters than this is split.
    fn batch_size(&self) -> usize;

    /// Tally `rows` into the open round. Every lane calls this, at the
    /// same time as the others.
    fn submit_rows(&self, rows: &[UserResponse]) -> Result<(), CoreError>;
}

/// What [`ReportSink::lanes`] lends a split round.
pub struct RoundLanes<'a> {
    /// The submit every lane shares.
    pub handle: &'a dyn ReportLanes,
    /// The sink's own response buffer, empty outside a flush: the lane
    /// on the driving thread gathers into it, so splitting a round costs
    /// the sink no buffer of its own.
    pub buffer: &'a mut Vec<UserResponse>,
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
    devices: DeviceTable,
    /// Whether every device has started the current timestamp. A step
    /// starts its devices at its first collect, or — if it has none — at
    /// the next `begin_step`.
    observed: bool,
    sink: S,
    /// Response buffers of the lanes after the first, each moved into
    /// its lane's thread for the round.
    lane_buffers: Vec<Vec<UserResponse>>,
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

/// A user's refusal that aborts a round, at `position` in round order.
struct Refusal {
    position: usize,
    user: usize,
    response: UserResponse,
}

/// What one lane of a split round did.
#[derive(Default)]
struct LaneOutcome {
    reports: u64,
    bytes: u64,
    refusal: Option<Refusal>,
    error: Option<CoreError>,
}

impl LaneOutcome {
    fn stopped(&self) -> bool {
        self.refusal.is_some() || self.error.is_some()
    }

    /// Fold in the outcome of a later lane: the earliest refusal in
    /// round order and the first lane's error are kept.
    fn merge(&mut self, later: LaneOutcome) {
        self.reports += later.reports;
        self.bytes += later.bytes;
        self.error = self.error.take().or(later.error);
        if let Some(refusal) = later.refusal {
            if self
                .refusal
                .as_ref()
                .is_none_or(|r| refusal.position < r.position)
            {
                self.refusal = Some(refusal);
            }
        }
    }
}

/// What every lane of one split round shares.
#[derive(Clone, Copy)]
struct SplitRound<'a> {
    request: &'a ReportRequest,
    oracle: &'a OracleHandle,
    lanes: &'a dyn ReportLanes,
    /// `lanes.batch_size()`.
    batch: usize,
    /// The round's ids in round order; `None` asks every device.
    ids: Option<&'a [u32]>,
    /// Whether the lanes start the timestamp on their devices.
    observe: bool,
}

/// One lane of a split round: its rows of the device table, their true
/// values, and the buffer it gathers responses into.
struct Lane<'a, 'b> {
    rows: DeviceRows<'a>,
    values: &'a [u16],
    buffer: &'b mut Vec<UserResponse>,
    outcome: LaneOutcome,
}

impl SplitRound<'_> {
    /// Answer the round on the lane's rows in round order, submitting
    /// its buffer every batch. The lane stops answering at its first
    /// refusal or submit error, but still starts the timestamp on every
    /// row if it is to.
    fn run(&self, mut lane: Lane<'_, '_>) -> LaneOutcome {
        lane.buffer.reserve(self.batch);
        match self.ids {
            None => {
                for row in 0..lane.rows.len() {
                    if self.observe {
                        lane.rows.advance(row);
                    }
                    if !lane.outcome.stopped() {
                        let position = lane.rows.first() + row;
                        self.answer(&mut lane, position, row);
                    } else if !self.observe {
                        break;
                    }
                }
            }
            Some(ids) => {
                for (position, &id) in ids.iter().enumerate() {
                    if lane.outcome.stopped() {
                        break;
                    }
                    if let Some(row) = lane.rows.row_of(id as usize) {
                        self.answer(&mut lane, position, row);
                    }
                }
            }
        }
        if !lane.buffer.is_empty() {
            if lane.outcome.error.is_none() {
                lane.outcome.error = self.lanes.submit_rows(lane.buffer).err();
            }
            lane.buffer.clear();
        }
        lane.outcome
    }

    /// Row `row`, at `position` in round order, answers the request.
    fn answer(&self, lane: &mut Lane<'_, '_>, position: usize, row: usize) {
        let value = usize::from(lane.values[row]);
        let response = lane.rows.handle(row, value, self.request, self.oracle);
        if !response.is_report() {
            lane.outcome.refusal = Some(Refusal {
                position,
                user: lane.rows.first() + row,
                response,
            });
            return;
        }
        lane.outcome.reports += 1;
        lane.outcome.bytes += response.wire_size() as u64;
        lane.buffer.push(response);
        if lane.buffer.len() == self.batch {
            lane.outcome.error = self.lanes.submit_rows(lane.buffer).err();
            lane.buffer.clear();
        }
    }
}

impl<S: ReportSink> GenericClientCollector<S> {
    /// A collector over `source` for `config`, with every device's
    /// randomness derived from `seed`, tallying into `sink`.
    ///
    /// Two sinks driven from the same `(source, config, seed)` receive
    /// the same responses, device for device: each device draws from its
    /// own seeded stream and answers each request in the order the
    /// driver's own draws fix, whichever thread it answers on. A sink
    /// that offers [`lanes`](ReportSink::lanes) gets a round with more
    /// reporters than its batch size as that many contiguous id ranges of
    /// the device table, each answered on its own thread in round order
    /// (the first on the driving thread); any other round is answered on
    /// the driving thread, one response at a time. The sink only ever
    /// sees — and cannot influence — already-perturbed traffic.
    ///
    /// A refusal aborts its round: the earliest one in round order is
    /// tallied and returned as [`CoreError::ClientRefused`]. In a split
    /// round the other lanes' reports, those after it in round order
    /// included, are tallied into that aborted round too, whose estimate
    /// nobody sees; their devices' ledgers are debited for them, as they
    /// would be for any answer sent.
    pub fn with_sink(
        source: Box<dyn StreamSource>,
        config: &MechanismConfig,
        seed: u64,
        sink: S,
    ) -> Self {
        let population = source.population();
        let seeds = (0..population).map(|id| child_seed(seed, id));
        let snapshot = Snapshot::new(Vec::new(), source.domain().size());
        GenericClientCollector {
            source,
            fo: config.fo,
            w: config.w,
            population,
            devices: DeviceTable::new(config.epsilon, config.w, seeds),
            observed: true,
            sink,
            lane_buffers: Vec::new(),
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
    pub fn max_window_spend(&mut self) -> f64 {
        self.observe();
        self.devices.max_window_spend()
    }

    /// Start the current timestamp on every device, unless it has been.
    fn observe(&mut self) {
        if !std::mem::replace(&mut self.observed, true) {
            self.devices.observe_all();
        }
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

    /// Run one round over the devices `ids` names in round order (every
    /// device, by id, if `None`).
    fn run_round(&mut self, ids: Option<&[u32]>, epsilon: f64) -> Result<RoundEstimate, CoreError> {
        let oracle = self.oracle(epsilon)?;
        let request =
            self.sink
                .open_round(self.t.saturating_sub(1), self.fo, epsilon, oracle.clone());
        let reporters = ids.map_or(self.devices.len(), <[u32]>::len);
        self.stats.downlink_requests += reporters as u64;
        let split = self
            .sink
            .lanes()
            .filter(|l| l.handle.lanes() > 1 && reporters > l.handle.batch_size());
        let Some(lanes) = split else {
            self.observe();
            return self.run_sequential(ids, &request, &oracle);
        };
        // A split All round starts the timestamp inside its lanes, in the
        // pass that answers it; any other round needs it started first.
        let observing = !std::mem::replace(&mut self.observed, true);
        if observing && ids.is_some() {
            self.devices.observe_all();
        }
        let round = SplitRound {
            request: &request,
            oracle: &oracle,
            lanes: lanes.handle,
            batch: lanes.handle.batch_size(),
            ids,
            observe: observing && ids.is_none(),
        };
        let rows = if round.observe {
            self.devices.observe()
        } else {
            self.devices.rows()
        };
        let chunk = rows.len().div_ceil(round.lanes.lanes());
        let values = self.snapshot.values();
        let buffers = &mut self.lane_buffers;
        let outcome = std::thread::scope(|scope| {
            let (head, mut rest) = rows.split_at(chunk);
            let (head_values, mut rest_values) = values.split_at(chunk);
            let mut spawned = Vec::new();
            while !rest.is_empty() {
                let len = chunk.min(rest.len());
                let (lane, tail) = rest.split_at(len);
                let (lane_values, tail_values) = rest_values.split_at(lane.len());
                if buffers.len() == spawned.len() {
                    buffers.push(Vec::new());
                }
                let mut buffer = std::mem::take(&mut buffers[spawned.len()]);
                spawned.push(scope.spawn(move || {
                    let outcome = round.run(Lane {
                        rows: lane,
                        values: lane_values,
                        buffer: &mut buffer,
                        outcome: LaneOutcome::default(),
                    });
                    (outcome, buffer)
                }));
                (rest, rest_values) = (tail, tail_values);
            }
            let mut outcome = round.run(Lane {
                rows: head,
                values: head_values,
                buffer: lanes.buffer,
                outcome: LaneOutcome::default(),
            });
            for (slot, lane) in buffers.iter_mut().zip(spawned) {
                let (later, buffer) = lane
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                *slot = buffer;
                outcome.merge(later);
            }
            outcome
        });
        self.stats.uplink_reports += outcome.reports;
        self.stats.uplink_bytes += outcome.bytes;
        if let Some(e) = outcome.error {
            self.sink.close_round()?;
            return Err(e);
        }
        match outcome.refusal {
            Some(refusal) => self.refuse(refusal.user, &refusal.response),
            None => self.sink.close_round(),
        }
    }

    /// Answer the round on the driving thread, one submit per response.
    fn run_sequential(
        &mut self,
        ids: Option<&[u32]>,
        request: &ReportRequest,
        oracle: &OracleHandle,
    ) -> Result<RoundEstimate, CoreError> {
        let mut rows = self.devices.rows();
        let values = self.snapshot.values();
        for position in 0..ids.map_or(rows.len(), <[u32]>::len) {
            let id = ids.map_or(position, |ids| ids[position] as usize);
            let response = rows.handle(id, usize::from(values[id]), request, oracle);
            if !response.is_report() {
                return self.refuse(id, &response);
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

    /// Abort the open round on `user`'s refusal: tally it sink-side for
    /// observability, close the round — a refusal means the request
    /// schedule is broken — and return it as the round's error.
    fn refuse(&mut self, user: usize, response: &UserResponse) -> Result<RoundEstimate, CoreError> {
        let &UserResponse::Refused {
            requested,
            available,
            ..
        } = response
        else {
            unreachable!("only a refusal aborts a round");
        };
        let submitted = self.sink.submit(response);
        self.sink.close_round()?;
        submitted?;
        Err(CoreError::ClientRefused {
            user: user as u64,
            requested,
            available,
        })
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
            // A previous step that took no collect starts its devices
            // now, so every device closes every timestamp.
            self.observe();
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
        self.observed = false;
        self.t += 1;
        self.stats.steps += 1;
        Ok(())
    }

    fn collect(&mut self, scope: ReportScope, epsilon: f64) -> Result<RoundEstimate, CoreError> {
        assert!(self.started, "collect called before begin_step");
        match scope {
            ReportScope::All => self.run_round(None, epsilon),
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
                let result = self.run_round(Some(&used[first..]), epsilon);
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
