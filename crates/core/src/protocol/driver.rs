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
//! because support-count folding is commutative.
//!
//! Every round is answered by one loop over *lanes*, contiguous id
//! ranges of the device table. A round has one lane, on the driving
//! thread, unless its sink offers [`ReportSink::lanes`] and the round
//! has more reporters than one batch; then it has that many, and all
//! but the first run on threads of their own.
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

    /// The submit a round's lanes share, if this sink can take one
    /// round's responses from several threads at once. A sink with lanes
    /// gets every report through [`ReportLanes::submit_rows`], gathered
    /// by the driver [`batch_size`](ReportLanes::batch_size) at a time,
    /// and only a refusal through [`submit`](Self::submit). `None` (the
    /// default) answers every round in one lane on the driving thread,
    /// one `submit` per response.
    fn lanes(&self) -> Option<&dyn ReportLanes> {
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
    /// starts its devices in its first round's lanes, or — if it has no
    /// round — at the next `begin_step`.
    observed: bool,
    sink: S,
    /// One response buffer per lane of a sink with lanes.
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

/// What one lane of a round did.
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

/// What every lane of one round shares.
struct Round<'a> {
    request: &'a ReportRequest,
    oracle: &'a OracleHandle,
    /// The round's ids in round order; `None` asks every device.
    ids: Option<&'a [u32]>,
    /// Whether the lanes start the timestamp on their devices.
    observe: bool,
}

/// One lane of a round: its rows of the device table, their true
/// values, and what it has done so far.
struct Lane<'a> {
    rows: DeviceRows<'a>,
    values: &'a [u16],
    outcome: LaneOutcome,
}

impl Round<'_> {
    /// Answer the round on a lane's `rows` in round order, handing each
    /// report to `submit`. The lane stops answering at its first refusal
    /// or submit error, but still starts the timestamp on every row if
    /// it is to: an All lane advances each row just before the row
    /// answers, a Fresh lane advances all its rows before it answers its
    /// ids.
    fn run(
        &self,
        rows: DeviceRows<'_>,
        values: &[u16],
        mut submit: impl FnMut(UserResponse) -> Result<(), CoreError>,
    ) -> LaneOutcome {
        let mut lane = Lane {
            rows,
            values,
            outcome: LaneOutcome::default(),
        };
        match self.ids {
            None => {
                for row in 0..lane.rows.len() {
                    if self.observe {
                        lane.rows.advance(row);
                    }
                    if !lane.outcome.stopped() {
                        let position = lane.rows.first() + row;
                        self.answer(&mut lane, &mut submit, position, row);
                    } else if !self.observe {
                        break;
                    }
                }
            }
            Some(ids) => {
                if self.observe {
                    for row in 0..lane.rows.len() {
                        lane.rows.advance(row);
                    }
                }
                for (position, &id) in ids.iter().enumerate() {
                    if lane.outcome.stopped() {
                        break;
                    }
                    if let Some(row) = lane.rows.row_of(id as usize) {
                        self.answer(&mut lane, &mut submit, position, row);
                    }
                }
            }
        }
        lane.outcome
    }

    /// Row `row`, at `position` in round order, answers the request.
    fn answer(
        &self,
        lane: &mut Lane<'_>,
        submit: &mut impl FnMut(UserResponse) -> Result<(), CoreError>,
        position: usize,
        row: usize,
    ) {
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
        lane.outcome.error = submit(response).err();
    }

    /// [`run`](Self::run) a lane that gathers its reports into `buffer`
    /// and submits them through `lanes`, every batch and at its end.
    fn run_batched(
        &self,
        rows: DeviceRows<'_>,
        values: &[u16],
        lanes: &dyn ReportLanes,
        buffer: &mut Vec<UserResponse>,
    ) -> LaneOutcome {
        let batch = lanes.batch_size();
        buffer.reserve(batch);
        let mut outcome = self.run(rows, values, |response| {
            buffer.push(response);
            if buffer.len() < batch {
                return Ok(());
            }
            let submitted = lanes.submit_rows(buffer);
            buffer.clear();
            submitted
        });
        if !buffer.is_empty() {
            if outcome.error.is_none() {
                outcome.error = lanes.submit_rows(buffer).err();
            }
            buffer.clear();
        }
        outcome
    }

    /// Answer the round in `lanes.lanes()` lanes of contiguous rows if it
    /// has more reporters than one batch, else in one: lane 0 on the
    /// driving thread, the others under `std::thread::scope`, each with
    /// its own buffer from `buffers`.
    fn run_lanes(
        &self,
        rows: DeviceRows<'_>,
        values: &[u16],
        lanes: &dyn ReportLanes,
        reporters: usize,
        buffers: &mut Vec<Vec<UserResponse>>,
    ) -> LaneOutcome {
        let k = if reporters > lanes.batch_size() {
            lanes.lanes().max(1)
        } else {
            1
        };
        buffers.resize_with(buffers.len().max(k), Vec::new);
        let chunk = rows.len().div_ceil(k);
        let (first, others) = buffers.split_first_mut().expect("a buffer per lane");
        std::thread::scope(|scope| {
            let (head, mut rest) = rows.split_at(chunk);
            let (head_values, mut rest_values) = values.split_at(chunk);
            let mut spawned = Vec::new();
            for slot in others {
                if rest.is_empty() {
                    break;
                }
                let len = chunk.min(rest.len());
                let (rows, tail) = rest.split_at(len);
                let (values, tail_values) = rest_values.split_at(rows.len());
                (rest, rest_values) = (tail, tail_values);
                // The buffer is moved into the lane's thread and back at
                // join, never written through `buffers`: lanes pushing to
                // neighbouring `Vec` headers in place share their cache
                // line, which halved LBA ingest on two cores.
                let mut buffer = std::mem::take(slot);
                let lane = scope.spawn(move || {
                    let outcome = self.run_batched(rows, values, lanes, &mut buffer);
                    (outcome, buffer)
                });
                spawned.push((slot, lane));
            }
            let mut outcome = self.run_batched(head, head_values, lanes, first);
            for (slot, lane) in spawned {
                let (later, buffer) = lane
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                *slot = buffer;
                outcome.merge(later);
            }
            outcome
        })
    }
}

impl<S: ReportSink> GenericClientCollector<S> {
    /// A collector over `source` for `config`, with every device's
    /// randomness derived from `seed`, tallying into `sink`.
    ///
    /// Two sinks driven from the same `(source, config, seed)` receive
    /// the same responses, device for device: each device draws from its
    /// own seeded stream and answers each request in the order the
    /// driver's own draws fix, whichever thread it answers on. A round
    /// is answered in lanes, contiguous id ranges of the device table,
    /// each in round order. A sink that offers
    /// [`lanes`](ReportSink::lanes) gets a round with more reporters than
    /// its batch size in that many lanes — the first on the driving
    /// thread, each other on a thread of its own — and any other round in
    /// lane 0 alone; each lane submits its own batches. A sink without
    /// lanes gets every round in lane 0 alone, one
    /// [`submit`](ReportSink::submit) per response. The step's first
    /// round also starts the timestamp on every device of its lanes. The
    /// sink only ever sees — and cannot influence — already-perturbed
    /// traffic.
    ///
    /// A refusal aborts its round: the earliest one in round order is
    /// tallied and returned as [`CoreError::ClientRefused`]. In a round
    /// of several lanes the other lanes' reports, those after it in
    /// round order included, are tallied into that aborted round too,
    /// whose estimate nobody sees; their devices' ledgers are debited for
    /// them, as they would be for any answer sent.
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

    /// Run one round over the devices `ids` names in round order (every
    /// device, by id, if `None`).
    fn run_round(&mut self, ids: Option<&[u32]>, epsilon: f64) -> Result<RoundEstimate, CoreError> {
        let oracle = build_oracle(self.fo, epsilon, self.source.domain().size())?;
        let request =
            self.sink
                .open_round(self.t.saturating_sub(1), self.fo, epsilon, oracle.clone());
        let reporters = ids.map_or(self.devices.len(), <[u32]>::len);
        self.stats.downlink_requests += reporters as u64;
        let round = Round {
            request: &request,
            oracle: &oracle,
            ids,
            observe: !std::mem::replace(&mut self.observed, true),
        };
        let rows = if round.observe {
            self.devices.observe()
        } else {
            self.devices.rows()
        };
        let values = self.snapshot.values();
        let outcome = match self.sink.lanes() {
            Some(lanes) => round.run_lanes(rows, values, lanes, reporters, &mut self.lane_buffers),
            None => round.run(rows, values, |response| self.sink.submit(&response)),
        };
        self.stats.uplink_reports += outcome.reports;
        self.stats.uplink_bytes += outcome.bytes;
        if let Some(e) = outcome.error {
            // A submit error is recoverable sink-side (tallies are
            // untouched), but bailing out mid-round must not leave the
            // round open — the next collect would trip the sink's
            // lifecycle assertion.
            self.sink.close_round()?;
            return Err(e);
        }
        match outcome.refusal {
            Some(refusal) => self.refuse(refusal),
            None => self.sink.close_round(),
        }
    }

    /// Abort the open round on a refusal: tally it sink-side for
    /// observability, close the round — a refusal means the request
    /// schedule is broken — and return it as the round's error.
    fn refuse(&mut self, refusal: Refusal) -> Result<RoundEstimate, CoreError> {
        let UserResponse::Refused {
            requested,
            available,
            ..
        } = refusal.response
        else {
            unreachable!("only a refusal aborts a round");
        };
        let submitted = self.sink.submit(&refusal.response);
        self.sink.close_round()?;
        submitted?;
        Err(CoreError::ClientRefused {
            user: refusal.user as u64,
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

    /// `len` histograms of `population` users over `d` cells whose mass
    /// swings towards cell 0 and back, so the adaptive mechanisms both
    /// publish and approximate.
    fn swinging_stream(population: u64, d: usize, len: usize) -> Vec<TrueHistogram> {
        let mut rng = StdRng::seed_from_u64(29);
        (0..len)
            .map(|t| {
                let pull = if (t / 4) % 2 == 0 { 0.1 } else { 0.7 };
                let mut counts = vec![0u64; d];
                for _ in 0..population {
                    let cell = if rng.gen::<f64>() < pull {
                        0
                    } else {
                        rng.gen_range(0..d)
                    };
                    counts[cell] += 1;
                }
                TrueHistogram::new(counts)
            })
            .collect()
    }

    /// The sequential model itself, pinned: seeded runs of all seven
    /// mechanisms over real devices release these bits and move this
    /// traffic. A changed draw order, a changed submit order or a device
    /// that answers a different request changes a digest.
    #[test]
    fn sequential_collector_releases_are_pinned() {
        use crate::runner::run_with_collector;
        use crate::MechanismKind;
        use ldp_stream::source::ReplaySource;

        /// FNV-1a over the release stream's bits.
        fn digest(releases: &[crate::Release]) -> u64 {
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            let mut eat = |bytes: &[u8]| {
                for &b in bytes {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            };
            for release in releases {
                eat(&release.t.to_le_bytes());
                eat(format!("{:?}", release.kind).as_bytes());
                for f in &release.frequencies {
                    eat(&f.to_bits().to_le_bytes());
                }
            }
            hash
        }

        let (epsilon, w, population, steps) = (1.0, 4, 300u64, 30);
        let mut got = Vec::new();
        for (fo, d) in [(FoKind::Grr, 5), (FoKind::Oue, 16)] {
            let stream = swinging_stream(population, d, steps);
            let config = MechanismConfig::new(epsilon, w, d, population).with_fo(fo);
            for kind in MechanismKind::ALL {
                let source = Box::new(ReplaySource::new("swing", stream.clone()));
                let mut collector = ClientCollector::new(source, &config, 7);
                let mut mechanism = kind.build(&config).unwrap();
                let run = run_with_collector(mechanism.as_mut(), &mut collector, steps).unwrap();
                let stats = collector.stats();
                got.push((
                    format!("{fo:?} {kind}"),
                    digest(&run.releases),
                    run.publications,
                    [
                        stats.uplink_reports,
                        stats.uplink_bytes,
                        stats.downlink_requests,
                        stats.steps,
                    ],
                    collector.refusals(),
                ));
            }
        }
        // (fo mechanism, release digest, publications, [uplink reports,
        // uplink bytes, downlink requests, steps], refusals)
        let want = [
            (
                "Grr lbu",
                1231080925772415217,
                30,
                [9000, 108000, 9000, 30],
                0,
            ),
            (
                "Grr lsp",
                13156906202320887808,
                8,
                [2400, 28800, 2400, 30],
                0,
            ),
            (
                "Grr lbd",
                5224740294314880508,
                7,
                [11100, 133200, 11100, 30],
                0,
            ),
            (
                "Grr lba",
                16153922211784448522,
                6,
                [10800, 129600, 10800, 30],
                0,
            ),
            (
                "Grr lpu",
                9549757714076748068,
                30,
                [2250, 27000, 2250, 30],
                0,
            ),
            (
                "Grr lpd",
                17481979172259018245,
                10,
                [1671, 20052, 1671, 30],
                0,
            ),
            (
                "Grr lpa",
                9169212854664885044,
                8,
                [1813, 21756, 1813, 30],
                0,
            ),
            (
                "Oue lbu",
                3958580168585558515,
                30,
                [9000, 180000, 9000, 30],
                0,
            ),
            (
                "Oue lsp",
                12034194525649438592,
                8,
                [2400, 48000, 2400, 30],
                0,
            ),
            (
                "Oue lbd",
                6061038283062510033,
                7,
                [11100, 222000, 11100, 30],
                0,
            ),
            (
                "Oue lba",
                7348961917516132404,
                5,
                [10500, 210000, 10500, 30],
                0,
            ),
            (
                "Oue lpu",
                7573781324298515896,
                30,
                [2250, 45000, 2250, 30],
                0,
            ),
            (
                "Oue lpd",
                619543068645675395,
                12,
                [1712, 34240, 1712, 30],
                0,
            ),
            (
                "Oue lpa",
                5436590165612662152,
                7,
                [1739, 34780, 1739, 30],
                0,
            ),
        ];
        assert_eq!(got.len(), want.len());
        for (got, want) in got.iter().zip(want) {
            assert_eq!(
                (got.0.as_str(), got.1, got.2, got.3, got.4),
                want,
                "{}",
                want.0
            );
        }
    }

    /// The figures' collector, pinned: every figure, table and ablation
    /// runs on `AggregateCollector`, so a changed aggregate sampler,
    /// draw, stream or controller changes a digest here first.
    #[test]
    fn aggregate_collector_releases_are_pinned() {
        use crate::collector::AggregateCollector;
        use crate::runner::run_with_collector;
        use crate::MechanismKind;
        use ldp_stream::source::ReplaySource;

        let (epsilon, w, population, steps) = (1.0, 4, 300u64, 30);
        let mut got = Vec::new();
        for (fo, d) in [(FoKind::Grr, 5), (FoKind::Oue, 16), (FoKind::Olh, 16)] {
            let stream = swinging_stream(population, d, steps);
            let config = MechanismConfig::new(epsilon, w, d, population).with_fo(fo);
            for kind in MechanismKind::ALL {
                let source = Box::new(ReplaySource::new("swing", stream.clone()));
                let mut collector = AggregateCollector::new(source, &config, 7);
                let mut mechanism = kind.build(&config).unwrap();
                let run = run_with_collector(mechanism.as_mut(), &mut collector, steps).unwrap();
                // FNV-1a over the release stream's bits.
                let mut hash = 0xcbf2_9ce4_8422_2325u64;
                for release in &run.releases {
                    let kind = format!("{:?}", release.kind);
                    let bits = release
                        .frequencies
                        .iter()
                        .flat_map(|f| f.to_bits().to_le_bytes());
                    for b in release
                        .t
                        .to_le_bytes()
                        .into_iter()
                        .chain(kind.bytes())
                        .chain(bits)
                    {
                        hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                    }
                }
                let stats = collector.stats();
                got.push((
                    format!("{fo:?} {kind}"),
                    hash,
                    run.publications,
                    [
                        stats.uplink_reports,
                        stats.uplink_bytes,
                        stats.downlink_requests,
                        stats.steps,
                    ],
                ));
            }
        }
        // (fo mechanism, release digest, publications, [uplink reports,
        // uplink bytes, downlink requests, steps])
        let want = [
            ("Grr lbu", 6535457108583458981, 30, [9000, 108000, 0, 30]),
            ("Grr lsp", 15362275385770764160, 8, [2400, 28800, 0, 30]),
            ("Grr lbd", 8140341486047749423, 7, [11100, 133200, 0, 30]),
            ("Grr lba", 7371528617490507995, 7, [11100, 133200, 0, 30]),
            ("Grr lpu", 15386277897655517543, 30, [2250, 27000, 0, 30]),
            ("Grr lpd", 12054338395912100056, 15, [1846, 22152, 0, 30]),
            ("Grr lpa", 9636785029547366883, 13, [1924, 23088, 0, 30]),
            ("Oue lbu", 17283648763323035877, 30, [9000, 180000, 0, 30]),
            ("Oue lsp", 3240010449564648068, 8, [2400, 48000, 0, 30]),
            ("Oue lbd", 7392013913609558381, 12, [12600, 252000, 0, 30]),
            ("Oue lba", 1868429552344653253, 12, [12600, 252000, 0, 30]),
            ("Oue lpu", 10490439859641550655, 30, [2250, 45000, 0, 30]),
            ("Oue lpd", 6412788494575970033, 6, [1465, 29300, 0, 30]),
            ("Oue lpa", 16655883831692528838, 6, [1702, 34040, 0, 30]),
            ("Olh lbu", 15936860024307878071, 30, [9000, 180000, 0, 30]),
            ("Olh lsp", 14104931121770899884, 8, [2400, 48000, 0, 30]),
            ("Olh lbd", 7623990136445030943, 9, [11700, 234000, 0, 30]),
            ("Olh lba", 5257805870147029032, 7, [11100, 222000, 0, 30]),
            ("Olh lpu", 17454289181404195942, 30, [2250, 45000, 0, 30]),
            ("Olh lpd", 13662142277669637833, 12, [1756, 35120, 0, 30]),
            ("Olh lpa", 7077628200568519998, 8, [1850, 37000, 0, 30]),
        ];
        assert_eq!(got.len(), want.len());
        for (got, want) in got.iter().zip(want) {
            assert_eq!((got.0.as_str(), got.1, got.2, got.3), want, "{}", want.0);
        }
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
