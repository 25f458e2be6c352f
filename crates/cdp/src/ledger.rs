//! Runtime w-event budget accounting for the centralized mechanisms.

use ldp_stream::RingWindow;

/// Tracks per-timestamp budget spending and asserts the w-event
/// invariant `Σ_{i = t−w+1}^{t} ε_i ≤ ε` after every step (Theorem 5.1's
/// centralized analogue).
///
/// The ledger is an *assertion*, not a control mechanism: a correctly
/// implemented mechanism never trips it; a buggy allocation panics in
/// tests instead of silently over-spending privacy.
#[derive(Debug, Clone)]
pub struct CdpLedger {
    epsilon: f64,
    window: RingWindow<f64>,
    /// Floating-point slack for the window-sum comparison.
    tolerance: f64,
}

impl CdpLedger {
    /// A ledger for total window budget `ε` over windows of size `w`.
    pub fn new(epsilon: f64, w: usize) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        CdpLedger {
            epsilon,
            window: RingWindow::new(w),
            tolerance: 1e-9 * epsilon,
        }
    }

    /// Record the budget spent at the current timestamp and check the
    /// invariant. Returns the current window total.
    ///
    /// # Panics
    /// If the window total would exceed `ε` (beyond float tolerance).
    pub fn spend(&mut self, eps_t: f64) -> f64 {
        assert!(eps_t >= 0.0, "cannot spend negative budget: {eps_t}");
        self.window.push(eps_t);
        let total = self.window.sum();
        assert!(
            total <= self.epsilon + self.tolerance,
            "w-event budget violated: window total {total} > epsilon {}",
            self.epsilon
        );
        total
    }

    /// Budget spent in the active window.
    pub fn window_total(&self) -> f64 {
        self.window.sum()
    }

    /// Remaining budget in the active window.
    pub fn remaining(&self) -> f64 {
        (self.epsilon - self.window.sum()).max(0.0)
    }

    /// Total window budget `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_exact_budget_split() {
        let mut ledger = CdpLedger::new(1.0, 4);
        for _ in 0..20 {
            ledger.spend(0.25);
        }
        assert!((ledger.window_total() - 1.0).abs() < 1e-9);
        assert!(ledger.remaining() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "w-event budget violated")]
    fn rejects_overspend_within_window() {
        let mut ledger = CdpLedger::new(1.0, 3);
        ledger.spend(0.5);
        ledger.spend(0.5);
        ledger.spend(0.5);
    }

    #[test]
    fn budget_recycles_as_window_slides() {
        let mut ledger = CdpLedger::new(1.0, 2);
        ledger.spend(1.0);
        ledger.spend(0.0);
        // The 1.0 spend is now w timestamps old: full budget again.
        ledger.spend(1.0);
        assert!((ledger.window_total() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn rejects_negative_spend() {
        CdpLedger::new(1.0, 2).spend(-0.1);
    }

    #[test]
    fn remaining_reports_headroom() {
        let mut ledger = CdpLedger::new(2.0, 5);
        ledger.spend(0.5);
        assert!((ledger.remaining() - 1.5).abs() < 1e-12);
    }
}
