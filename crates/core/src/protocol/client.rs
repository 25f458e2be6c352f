//! The user-side client state machine.
//!
//! A client holds one user's current true value and — crucially — its own
//! w-event budget ledger. LDP's threat model says the server is
//! untrusted, so the *device* must be the final arbiter of its privacy
//! spend: any request whose budget would push the client's active-window
//! total past ε is refused, whatever the server claims.
//!
//! That check runs on every request of every device, so it has to be
//! cheap rather than skipped: [`ClientLedger`] keeps the window as a flat
//! `f64` ring and its sum cached per timestamp, which makes
//! [`available`](ClientLedger::available) two subtractions. The cached
//! sum is always the window added oldest slot first — the `f64` a fresh
//! walk would produce — so the refuse/accept decision is the one the
//! straightforward ledger (kept as the test oracle below) takes.

use crate::protocol::messages::{ReportRequest, UserResponse};
use ldp_fo::{build_oracle, FoError, OracleHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A device-local w-event spend ledger.
///
/// Unlike [`crate::BudgetLedger`], over-spend is not a panic but a
/// *refusal* — the device simply declines to answer.
#[derive(Debug, Clone)]
pub struct ClientLedger {
    epsilon: f64,
    /// Spend of the last `w − 1` closed steps (0 before the stream
    /// reaches back that far), a ring: `oldest` is the next slot to fall
    /// out of the window.
    window: Box<[f64]>,
    oldest: usize,
    /// Σ `window`, added oldest slot first. The window only changes in
    /// [`advance`](Self::advance), so this holds for the whole timestamp.
    window_sum: f64,
    current_step: f64,
}

impl ClientLedger {
    /// A ledger allowing `epsilon` total spend per window of `w` steps.
    pub fn new(epsilon: f64, w: usize) -> Self {
        ClientLedger {
            epsilon,
            window: vec![0.0; w.saturating_sub(1)].into(),
            oldest: 0,
            window_sum: 0.0,
            current_step: 0.0,
        }
    }

    /// Close the current timestamp and open the next.
    pub fn advance(&mut self) {
        let spent = std::mem::take(&mut self.current_step);
        // w = 1: no closed step is ever inside the window.
        let Some(slot) = self.window.get_mut(self.oldest) else {
            return;
        };
        let evicted = std::mem::replace(slot, spent);
        self.oldest += 1;
        if self.oldest == self.window.len() {
            self.oldest = 0;
        }
        if evicted == 0.0 {
            // A zero contributes nothing wherever it sits in an ordered
            // sum, so dropping one from the front leaves the sum of the
            // rest, and the new slot is the last addend.
            self.window_sum += spent;
        } else {
            let (newer, older) = self.window.split_at(self.oldest);
            self.window_sum = older.iter().chain(newer).sum();
        }
    }

    /// Slack absorbing the rounding of a schedule that sums to exactly ε.
    fn tolerance(&self) -> f64 {
        1e-9 * self.epsilon.max(1.0)
    }

    /// Budget spent inside the active window, current timestamp included.
    pub fn window_spend(&self) -> f64 {
        self.window_sum + self.current_step
    }

    /// Budget still grantable at the current timestamp.
    pub fn available(&self) -> f64 {
        (self.epsilon - self.window_sum - self.current_step).max(0.0)
    }

    /// Try to spend `eps`; `false` leaves the ledger untouched.
    pub fn try_spend(&mut self, eps: f64) -> bool {
        if eps <= self.available() + self.tolerance() {
            self.current_step += eps;
            true
        } else {
            false
        }
    }
}

/// One simulated user device.
#[derive(Debug)]
pub struct UserClient {
    ledger: ClientLedger,
    /// The user's current true value (set by `observe` each timestamp).
    value: usize,
    rng: StdRng,
}

impl UserClient {
    /// A client guarding budget `epsilon` per window of `w`, with
    /// device-local randomness derived from `seed`.
    pub fn new(epsilon: f64, w: usize, seed: u64) -> Self {
        UserClient {
            ledger: ClientLedger::new(epsilon, w),
            value: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Start a new timestamp with the user's fresh true value.
    pub fn observe(&mut self, value: usize) {
        self.ledger.advance();
        self.value = value;
    }

    /// Budget still grantable at the current timestamp.
    pub fn budget_available(&self) -> f64 {
        self.ledger.available()
    }

    /// Budget spent inside the active window, current timestamp included.
    pub fn window_spend(&self) -> f64 {
        self.ledger.window_spend()
    }

    /// Answer a report request: perturb the current value, or refuse if
    /// the device ledger disallows the spend.
    ///
    /// The caller provides the oracle (already matching the request's
    /// parameters) so that the per-round construction cost is shared
    /// across clients; the client still audits the *budget* itself.
    pub fn handle(&mut self, request: &ReportRequest, oracle: &OracleHandle) -> UserResponse {
        debug_assert_eq!(oracle.epsilon().to_bits(), request.epsilon.to_bits());
        debug_assert_eq!(oracle.domain_size(), request.domain_size);
        if !self.ledger.try_spend(request.epsilon) {
            return UserResponse::Refused {
                round: request.round,
                requested: request.epsilon,
                available: self.ledger.available(),
            };
        }
        let report = oracle.perturb(self.value, &mut self.rng);
        UserResponse::Report {
            round: request.round,
            report,
        }
    }
}

/// Build the oracle a request describes — used by clients (audit) and the
/// server (estimation) alike.
pub fn oracle_for_request(request: &ReportRequest) -> Result<OracleHandle, FoError> {
    build_oracle(request.fo, request.epsilon, request.domain_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_fo::FoKind;
    use ldp_stream::RingWindow;
    use proptest::prelude::*;

    /// The ledger as first written — an `Option`-slotted ring walked on
    /// every `available` call — kept as the reference [`ClientLedger`]
    /// must agree with, decision for decision and bit for bit.
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

    proptest! {
        /// Any interleaving of `advance` and `try_spend(ε·k/8)` — through
        /// the partly filled first w steps, full windows, evictions of
        /// zero and nonzero slots, and refusals — leaves both ledgers
        /// with the same decisions and the same `available()`.
        #[test]
        fn ledger_matches_ring_window_oracle(
            epsilon in 0.1f64..4.0,
            ops in proptest::collection::vec(0u8..14, 0..400),
        ) {
            for w in [1usize, 2, 3, 20] {
                let mut ledger = ClientLedger::new(epsilon, w);
                let mut oracle = OracleLedger::new(epsilon, w);
                prop_assert!(ledger.available() == oracle.available());
                for (i, &op) in ops.iter().enumerate() {
                    if op <= 8 {
                        let eps = epsilon * f64::from(op) / 8.0;
                        let before = ledger.available();
                        let granted = ledger.try_spend(eps);
                        prop_assert_eq!(granted, oracle.try_spend(eps), "w {} op {}", w, i);
                        if !granted {
                            prop_assert!(ledger.available() == before, "refusal debited");
                        }
                    } else {
                        ledger.advance();
                        oracle.advance();
                    }
                    prop_assert!(
                        ledger.available() == oracle.available(),
                        "w {} op {}: {} vs {}", w, i, ledger.available(), oracle.available()
                    );
                    prop_assert!(ledger.window_spend() <= epsilon + ledger.tolerance());
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
        let mut c = UserClient::new(1.0, 4, 99);
        c.observe(2);
        let req = request(0, 0.25);
        let oracle = oracle_for_request(&req).unwrap();
        assert!(c.handle(&req, &oracle).is_report());
    }

    #[test]
    fn client_refuses_over_budget_requests() {
        let mut c = UserClient::new(1.0, 4, 99);
        c.observe(2);
        let req = request(0, 0.8);
        let oracle = oracle_for_request(&req).unwrap();
        assert!(c.handle(&req, &oracle).is_report());
        // Second request in the same step exceeds ε = 1.
        let req2 = request(1, 0.8);
        let oracle2 = oracle_for_request(&req2).unwrap();
        match c.handle(&req2, &oracle2) {
            UserResponse::Refused { available, .. } => {
                assert!(available < 0.8);
            }
            other => panic!("expected refusal, got {other:?}"),
        }
    }

    #[test]
    fn budget_recovers_after_window_slides() {
        let mut c = UserClient::new(1.0, 3, 7);
        c.observe(0);
        let req = request(0, 1.0);
        let oracle = oracle_for_request(&req).unwrap();
        assert!(c.handle(&req, &oracle).is_report());
        // Steps 2 and 3: no budget.
        c.observe(1);
        assert!(c.budget_available() < 1e-9);
        c.observe(1);
        assert!(c.budget_available() < 1e-9);
        // Step 4: window slid past the spend.
        c.observe(1);
        assert!((c.budget_available() - 1.0).abs() < 1e-9);
        assert!(c.handle(&request(1, 1.0), &oracle).is_report());
    }

    #[test]
    fn window_of_one_replenishes_each_step() {
        let mut c = UserClient::new(0.5, 1, 7);
        let req = request(0, 0.5);
        let oracle = oracle_for_request(&req).unwrap();
        for _ in 0..4 {
            c.observe(3);
            assert!(c.handle(&req, &oracle).is_report());
        }
    }

    #[test]
    fn ledger_try_spend_is_atomic() {
        let mut l = ClientLedger::new(1.0, 2);
        assert!(l.try_spend(0.6));
        assert!(!l.try_spend(0.6), "refusal must not debit");
        assert!((l.available() - 0.4).abs() < 1e-12);
        assert!(l.try_spend(0.4));
    }
}
