//! Runtime w-event LDP accounting for budget division.
//!
//! Theorem 5.1: a per-timestamp composition `M = (M_1, M_2, …)` satisfies
//! w-event ε-LDP if every window's budget sum is at most ε. The
//! budget-division mechanisms carry a [`BudgetLedger`] that asserts this
//! *as they run*. It is cheap (a ring buffer) and always on: a scheduling
//! bug becomes a panic in tests rather than a silent privacy violation.
//!
//! Theorem 6.2's invariant for population division — each user reports at
//! most once per window, always through an ε-LDP oracle — is not kept
//! here. The collector guards it: every collector refuses a request larger
//! than its pool of users fresh in the window with
//! [`crate::CoreError::PoolExhausted`], and under
//! [`crate::protocol::ClientCollector`] every device's own ledger
//! ([`crate::protocol::DeviceTable`]) also refuses to over-spend.

use ldp_stream::RingWindow;

/// Budget-division accountant: records `ε_t = ε_{t,1} + ε_{t,2}` per
/// timestamp and asserts `Σ_{i∈window} ε_i ≤ ε`.
#[derive(Debug, Clone)]
pub struct BudgetLedger {
    epsilon: f64,
    window: RingWindow<f64>,
    tolerance: f64,
    max_window_total: f64,
}

impl BudgetLedger {
    /// A ledger for window budget `ε` over windows of `w` timestamps.
    pub fn new(epsilon: f64, w: usize) -> Self {
        assert!(epsilon > 0.0 && epsilon.is_finite());
        BudgetLedger {
            epsilon,
            window: RingWindow::new(w),
            tolerance: 1e-9 * epsilon.max(1.0),
            max_window_total: 0.0,
        }
    }

    /// Record this timestamp's total spend and check the invariant.
    ///
    /// # Panics
    /// If any window would exceed ε.
    pub fn spend(&mut self, eps_t: f64) {
        assert!(eps_t >= 0.0, "negative budget spend {eps_t}");
        self.window.push(eps_t);
        let total = self.window.sum();
        self.max_window_total = self.max_window_total.max(total);
        assert!(
            total <= self.epsilon + self.tolerance,
            "w-event LDP violated: window budget {total} > epsilon {}",
            self.epsilon
        );
    }

    /// Budget spent in the active window.
    pub fn window_total(&self) -> f64 {
        self.window.sum()
    }

    /// The largest window total ever observed (≤ ε by the assertion).
    pub fn max_window_total(&self) -> f64 {
        self.max_window_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_ledger_tracks_window_sum() {
        let mut l = BudgetLedger::new(1.0, 3);
        l.spend(0.3);
        l.spend(0.3);
        l.spend(0.4);
        assert!((l.window_total() - 1.0).abs() < 1e-9);
        // Sliding out the first 0.3 frees room.
        l.spend(0.3);
        assert!((l.window_total() - 1.0).abs() < 1e-9);
        assert!((l.max_window_total() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "w-event LDP violated")]
    fn budget_ledger_panics_on_overspend() {
        let mut l = BudgetLedger::new(1.0, 2);
        l.spend(0.6);
        l.spend(0.6);
    }

    #[test]
    fn budget_ledger_allows_exact_epsilon() {
        let mut l = BudgetLedger::new(2.0, 4);
        for _ in 0..16 {
            l.spend(0.5);
        }
    }
}
