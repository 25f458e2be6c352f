//! The user-side device state: one table for a collector's devices.
//!
//! A device holds its own randomness and — crucially — its own w-event
//! budget ledger. LDP's threat model says the server is untrusted, so the
//! *device* must be the final arbiter of its privacy spend: any request
//! whose budget would push the device's active-window total past ε is
//! refused, whatever the server claims.
//!
//! That check runs on every request of every device, so it has to be
//! cheap rather than skipped: a ledger keeps the window as a flat `f64`
//! ring and its sum cached per timestamp, which makes `available` two
//! subtractions. The cached sum is always the window added oldest slot
//! first — the `f64` a fresh walk would produce — so the refuse/accept
//! decision is the one the straightforward ledger (kept as the test
//! oracle below) takes.
//!
//! [`DeviceTable`] lays the devices out for a pass over all of them:
//! every ring sits in one flat array, and ε and the ring position are
//! stored once, since every device shares its ε and closes every
//! timestamp, so all their rings turn together. A device's true value is
//! not stored at all; the collector reads it from the timestamp's
//! snapshot. [`DeviceRows`] is a contiguous id range of the table, which
//! is what one lane of a split round borrows.

use crate::protocol::messages::{ReportRequest, UserResponse};
use ldp_fo::OracleHandle;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One device's randomness and the two sums its ledger caches. Its
/// window slots live in the table's flat ring array.
#[derive(Debug)]
struct Device {
    rng: StdRng,
    /// Σ of its closed window slots, added oldest slot first. The window
    /// only changes when the device closes a step, so this holds for the
    /// whole timestamp.
    window_sum: f64,
    /// Spent at the current timestamp.
    current_step: f64,
}

impl Device {
    /// Close the current timestamp into `window` — the device's spend of
    /// its last `w − 1` closed steps (0 before the stream reaches back
    /// that far) — whose oldest slot is `slot`.
    fn advance(&mut self, window: &mut [f64], slot: usize) {
        let spent = std::mem::take(&mut self.current_step);
        // w = 1: no closed step is ever inside the window.
        let Some(oldest) = window.get_mut(slot) else {
            return;
        };
        let evicted = std::mem::replace(oldest, spent);
        if evicted == 0.0 {
            // A zero contributes nothing wherever it sits in an ordered
            // sum, so dropping one from the front leaves the sum of the
            // rest, and the new slot is the last addend.
            self.window_sum += spent;
        } else {
            let (newer, older) = window.split_at(slot + 1);
            self.window_sum = older.iter().chain(newer).sum();
        }
    }

    fn window_spend(&self) -> f64 {
        self.window_sum + self.current_step
    }

    fn available(&self, epsilon: f64) -> f64 {
        (epsilon - self.window_sum - self.current_step).max(0.0)
    }

    /// Try to spend `eps`; `false` leaves the ledger untouched.
    fn try_spend(&mut self, epsilon: f64, eps: f64) -> bool {
        if eps <= self.available(epsilon) + tolerance(epsilon) {
            self.current_step += eps;
            true
        } else {
            false
        }
    }
}

/// Slack absorbing the rounding of a schedule that sums to exactly ε.
fn tolerance(epsilon: f64) -> f64 {
    1e-9 * epsilon.max(1.0)
}

/// Every simulated device of one collector, each guarding budget ε per
/// window of `w` timestamps with device-local randomness.
///
/// Unlike the mechanisms' [`ldp_stream::WindowBudget`], over-spend is not a panic but a
/// *refusal* — the device simply declines to answer.
#[derive(Debug)]
pub struct DeviceTable {
    epsilon: f64,
    /// Closed steps inside a window: `w − 1`.
    span: usize,
    /// The ring slot holding every device's oldest closed step, which
    /// the next close overwrites.
    oldest: usize,
    devices: Vec<Device>,
    /// Device `i`'s ring at `[i·span, (i + 1)·span)`.
    windows: Vec<f64>,
}

impl DeviceTable {
    /// One device per seed, guarding budget `epsilon` per window of `w`.
    pub fn new(epsilon: f64, w: usize, seeds: impl IntoIterator<Item = u64>) -> Self {
        let span = w.saturating_sub(1);
        let devices: Vec<Device> = seeds
            .into_iter()
            .map(|seed| Device {
                rng: StdRng::seed_from_u64(seed),
                window_sum: 0.0,
                current_step: 0.0,
            })
            .collect();
        DeviceTable {
            epsilon,
            span,
            oldest: 0,
            windows: vec![0.0; devices.len() * span],
            devices,
        }
    }

    /// Devices in the table.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the table holds no device.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Start a new timestamp on every device: the returned rows are the
    /// whole table, and [`DeviceRows::advance`] on a row closes its
    /// previous timestamp. Every row must be advanced exactly once
    /// before the table is used again.
    pub(crate) fn observe(&mut self) -> DeviceRows<'_> {
        let slot = self.oldest;
        if self.span > 0 {
            self.oldest = (self.oldest + 1) % self.span;
        }
        self.rows_at(slot)
    }

    /// The whole table as rows, to answer requests at the current
    /// timestamp.
    pub fn rows(&mut self) -> DeviceRows<'_> {
        self.rows_at(self.oldest)
    }

    fn rows_at(&mut self, slot: usize) -> DeviceRows<'_> {
        DeviceRows {
            epsilon: self.epsilon,
            span: self.span,
            slot,
            first: 0,
            devices: &mut self.devices,
            windows: &mut self.windows,
        }
    }

    /// Start a new timestamp on every device at once.
    pub fn observe_all(&mut self) {
        let mut rows = self.observe();
        for i in 0..rows.len() {
            rows.advance(i);
        }
    }

    /// Budget device `id` still has at the current timestamp.
    pub fn available(&self, id: usize) -> f64 {
        self.devices[id].available(self.epsilon)
    }

    /// Budget device `id` spent inside its active window, current
    /// timestamp included.
    pub fn window_spend(&self, id: usize) -> f64 {
        self.devices[id].window_spend()
    }

    /// The largest [`window_spend`](Self::window_spend) of any device.
    pub fn max_window_spend(&self) -> f64 {
        self.devices
            .iter()
            .map(Device::window_spend)
            .fold(0.0, f64::max)
    }
}

/// A contiguous id range of a [`DeviceTable`], borrowed mutably.
#[derive(Debug)]
pub struct DeviceRows<'a> {
    epsilon: f64,
    span: usize,
    /// The ring slot `advance` overwrites.
    slot: usize,
    /// Id of the first row.
    first: usize,
    devices: &'a mut [Device],
    windows: &'a mut [f64],
}

impl<'a> DeviceRows<'a> {
    /// Rows in this range.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Id of the range's first device.
    pub fn first(&self) -> usize {
        self.first
    }

    /// The row of device `id`, if it is in this range.
    pub fn row_of(&self, id: usize) -> Option<usize> {
        id.checked_sub(self.first).filter(|&row| row < self.len())
    }

    /// Split into rows `[0, mid)` and `[mid, len)`.
    pub fn split_at(self, mid: usize) -> (DeviceRows<'a>, DeviceRows<'a>) {
        let (devices, rest) = self.devices.split_at_mut(mid);
        let (windows, rest_windows) = self.windows.split_at_mut(mid * self.span);
        let head = DeviceRows {
            devices,
            windows,
            ..self
        };
        let tail = DeviceRows {
            first: self.first + mid,
            devices: rest,
            windows: rest_windows,
            ..self
        };
        (head, tail)
    }

    /// Row `row` closes its previous timestamp (see
    /// [`DeviceTable::observe`]); only rows that `observe` returned may.
    pub(crate) fn advance(&mut self, row: usize) {
        let span = self.span;
        let window = &mut self.windows[row * span..][..span];
        self.devices[row].advance(window, self.slot);
    }

    /// Row `row`, whose true value is `value`, answers a report request:
    /// it perturbs the value, or refuses if its ledger disallows the
    /// spend.
    ///
    /// The caller provides the oracle (already matching the request's
    /// parameters) so that the per-round construction cost is shared
    /// across devices; the device still audits the *budget* itself.
    pub fn handle(
        &mut self,
        row: usize,
        value: usize,
        request: &ReportRequest,
        oracle: &OracleHandle,
    ) -> UserResponse {
        debug_assert_eq!(oracle.epsilon().to_bits(), request.epsilon.to_bits());
        debug_assert_eq!(oracle.domain_size(), request.domain_size);
        let device = &mut self.devices[row];
        if !device.try_spend(self.epsilon, request.epsilon) {
            return UserResponse::Refused {
                round: request.round,
                requested: request.epsilon,
                available: device.available(self.epsilon),
            };
        }
        UserResponse::Report {
            round: request.round,
            report: oracle.perturb(value, &mut device.rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_fo::{build_oracle, FoKind};
    use ldp_stream::RingWindow;
    use proptest::prelude::*;

    /// The ledger as first written — an `Option`-slotted ring walked on
    /// every `available` call — kept as the reference the table's
    /// ledgers must agree with, decision for decision and bit for bit.
    struct OracleLedger {
        epsilon: f64,
        w: usize,
        window: RingWindow<f64>,
        current_step: f64,
        tolerance: f64,
    }

    impl OracleLedger {
        fn new(epsilon: f64, w: usize) -> Self {
            OracleLedger {
                epsilon,
                w,
                window: RingWindow::new(w.max(2) - 1),
                current_step: 0.0,
                tolerance: 1e-9 * epsilon.max(1.0),
            }
        }

        fn advance(&mut self) {
            if self.w > 1 {
                self.window.push(self.current_step);
            }
            self.current_step = 0.0;
        }

        fn available(&self) -> f64 {
            (self.epsilon - self.window.sum() - self.current_step).max(0.0)
        }

        fn try_spend(&mut self, eps: f64) -> bool {
            if eps <= self.available() + self.tolerance {
                self.current_step += eps;
                true
            } else {
                false
            }
        }
    }

    fn table(epsilon: f64, w: usize, devices: u64) -> DeviceTable {
        DeviceTable::new(epsilon, w, 0..devices)
    }

    /// Device `id` tries to spend `eps`, as its ledger decides a request.
    fn try_spend(table: &mut DeviceTable, id: usize, eps: f64) -> bool {
        let epsilon = table.epsilon;
        table.rows().devices[id].try_spend(epsilon, eps)
    }

    proptest! {
        /// Any interleaving of step closes and `try_spend(ε·k/8)` —
        /// through the partly filled first w steps, full windows,
        /// evictions of zero and nonzero slots, and refusals — leaves
        /// every device of the table and the oracle with the same
        /// decisions and the same `available()`. Device 0 spends what the
        /// op says and device 1 half of it, so their rings hold different
        /// spends while turning together.
        #[test]
        fn ledger_matches_ring_window_oracle(
            epsilon in 0.1f64..4.0,
            ops in proptest::collection::vec(0u8..14, 0..400),
        ) {
            for w in [1usize, 2, 3, 20] {
                let mut ledgers = table(epsilon, w, 2);
                let mut oracles = [OracleLedger::new(epsilon, w), OracleLedger::new(epsilon, w)];
                prop_assert!(ledgers.available(0) == oracles[0].available());
                for (i, &op) in ops.iter().enumerate() {
                    if op <= 8 {
                        for (id, oracle) in oracles.iter_mut().enumerate() {
                            let eps = epsilon * f64::from(op) / (8.0 * (id + 1) as f64);
                            let before = ledgers.available(id);
                            let granted = try_spend(&mut ledgers, id, eps);
                            prop_assert_eq!(granted, oracle.try_spend(eps), "w {} op {}", w, i);
                            if !granted {
                                prop_assert!(ledgers.available(id) == before, "refusal debited");
                            }
                        }
                    } else {
                        ledgers.observe_all();
                        oracles.iter_mut().for_each(OracleLedger::advance);
                    }
                    for (id, oracle) in oracles.iter().enumerate() {
                        prop_assert!(
                            ledgers.available(id) == oracle.available(),
                            "w {} op {} device {}: {} vs {}",
                            w, i, id, ledgers.available(id), oracle.available()
                        );
                        prop_assert!(ledgers.window_spend(id) <= epsilon + tolerance(epsilon));
                    }
                }
            }
        }
    }

    fn request(round: u64, eps: f64) -> ReportRequest {
        ReportRequest {
            round,
            t: 0,
            fo: FoKind::Grr,
            epsilon: eps,
            domain_size: 4,
        }
    }

    #[test]
    fn client_answers_within_budget() {
        let mut c = table(1.0, 4, 1);
        c.observe_all();
        let req = request(0, 0.25);
        let oracle = build_oracle(req.fo, req.epsilon, req.domain_size).unwrap();
        assert!(c.rows().handle(0, 2, &req, &oracle).is_report());
    }

    #[test]
    fn client_refuses_over_budget_requests() {
        let mut c = table(1.0, 4, 1);
        c.observe_all();
        let req = request(0, 0.8);
        let oracle = build_oracle(req.fo, req.epsilon, req.domain_size).unwrap();
        assert!(c.rows().handle(0, 2, &req, &oracle).is_report());
        // Second request in the same step exceeds ε = 1.
        let req2 = request(1, 0.8);
        let oracle2 = build_oracle(req2.fo, req2.epsilon, req2.domain_size).unwrap();
        match c.rows().handle(0, 2, &req2, &oracle2) {
            UserResponse::Refused { available, .. } => {
                assert!(available < 0.8);
            }
            other => panic!("expected refusal, got {other:?}"),
        }
    }

    #[test]
    fn budget_recovers_after_window_slides() {
        let mut c = table(1.0, 3, 1);
        c.observe_all();
        let req = request(0, 1.0);
        let oracle = build_oracle(req.fo, req.epsilon, req.domain_size).unwrap();
        assert!(c.rows().handle(0, 0, &req, &oracle).is_report());
        // Steps 2 and 3: no budget.
        c.observe_all();
        assert!(c.available(0) < 1e-9);
        c.observe_all();
        assert!(c.available(0) < 1e-9);
        // Step 4: window slid past the spend.
        c.observe_all();
        assert!((c.available(0) - 1.0).abs() < 1e-9);
        assert!(c.rows().handle(0, 1, &request(1, 1.0), &oracle).is_report());
    }

    #[test]
    fn window_of_one_replenishes_each_step() {
        let mut c = table(0.5, 1, 1);
        let req = request(0, 0.5);
        let oracle = build_oracle(req.fo, req.epsilon, req.domain_size).unwrap();
        for _ in 0..4 {
            c.observe_all();
            assert!(c.rows().handle(0, 3, &req, &oracle).is_report());
        }
    }

    #[test]
    fn ledger_try_spend_is_atomic() {
        let mut l = table(1.0, 2, 1);
        assert!(try_spend(&mut l, 0, 0.6));
        assert!(!try_spend(&mut l, 0, 0.6), "refusal must not debit");
        assert!((l.available(0) - 0.4).abs() < 1e-12);
        assert!(try_spend(&mut l, 0, 0.4));
    }

    /// Rows split off a table advance and answer as the whole table's
    /// rows do: the same ids, the same rings, the same draws.
    #[test]
    fn split_rows_are_the_table_rows() {
        let req = request(0, 0.5);
        let oracle = build_oracle(req.fo, req.epsilon, req.domain_size).unwrap();
        let (mut whole, mut split) = (table(1.0, 3, 5), table(1.0, 3, 5));
        for _ in 0..4 {
            let mut rows = whole.observe();
            let want: Vec<UserResponse> = (0..5)
                .map(|i| {
                    rows.advance(i);
                    rows.handle(i, i % 4, &req, &oracle)
                })
                .collect();
            let (mut head, mut tail) = split.observe().split_at(2);
            assert_eq!((tail.first(), tail.len(), tail.row_of(4)), (2, 3, Some(2)));
            assert_eq!((head.row_of(2), tail.row_of(1)), (None, None));
            let mut got = Vec::new();
            for (rows, ids) in [(&mut head, 0..2), (&mut tail, 2..5)] {
                for id in ids {
                    let row = rows.row_of(id).unwrap();
                    rows.advance(row);
                    got.push(rows.handle(row, id % 4, &req, &oracle));
                }
            }
            assert_eq!(got, want);
        }
        for id in 0..5 {
            assert_eq!(split.available(id).to_bits(), whole.available(id).to_bits());
        }
    }
}
