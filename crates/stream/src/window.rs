//! Fixed-size sliding-window ring buffer.
//!
//! Both frameworks in the paper reason about the last `w` timestamps: the
//! budget ledger sums ε spent in the active window, the population ledger
//! tracks user groups to recycle, and the mechanisms subtract window
//! totals (Alg. 1 line 7, Alg. 3 line 7). `RingWindow` is that shared
//! primitive: push one entry per timestamp, read the window contents.
//! [`WindowBudget`] is the budget ledger built on it.

/// A ring buffer holding the most recent `w` pushed values.
#[derive(Debug, Clone)]
pub struct RingWindow<T> {
    slots: Vec<Option<T>>,
    head: usize,
    pushed: u64,
}

impl<T: Clone> RingWindow<T> {
    /// A window over the last `w ≥ 1` entries.
    pub fn new(w: usize) -> Self {
        assert!(w >= 1, "window size must be at least 1");
        RingWindow {
            slots: vec![None; w],
            head: 0,
            pushed: 0,
        }
    }

    /// Number of entries currently in the window (`min(pushed, w)`).
    pub fn len(&self) -> usize {
        (self.pushed as usize).min(self.slots.len())
    }

    /// Whether nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// Push the entry for the current timestamp, returning the entry that
    /// fell out of the window (the one from `w` timestamps ago), if any.
    pub fn push(&mut self, value: T) -> Option<T> {
        let evicted = self.slots[self.head].take();
        self.slots[self.head] = Some(value);
        self.head = (self.head + 1) % self.slots.len();
        self.pushed += 1;
        evicted
    }

    /// Iterate over the entries currently in the window, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let w = self.slots.len();
        (0..w).filter_map(move |i| {
            let idx = (self.head + i) % w;
            self.slots[idx].as_ref()
        })
    }

    /// The most recently pushed entry.
    pub fn newest(&self) -> Option<&T> {
        if self.pushed == 0 {
            return None;
        }
        let idx = (self.head + self.slots.len() - 1) % self.slots.len();
        self.slots[idx].as_ref()
    }
}

impl RingWindow<f64> {
    /// Sum of the entries currently in the window.
    pub fn sum(&self) -> f64 {
        self.iter().sum()
    }
}

impl RingWindow<u64> {
    /// Sum of the entries currently in the window.
    pub fn sum_u64(&self) -> u64 {
        self.iter().sum()
    }
}

/// The w-event budget ledger of both privacy models: records the ε spent
/// at each timestamp and asserts `Σ_{i∈window} ε_i ≤ ε` (Theorem 5.1, and
/// its centralized analogue in Kellaris et al.) as the mechanism runs.
///
/// It is an assertion, not a control: a correct schedule never trips it,
/// and a broken one panics in tests instead of silently over-spending.
/// The window sum is an ordered f64 sum, so the check allows a slack of
/// `10⁻⁹ · ε`.
#[derive(Debug, Clone)]
pub struct WindowBudget {
    epsilon: f64,
    window: RingWindow<f64>,
    max_window_total: f64,
}

impl WindowBudget {
    /// A ledger for window budget `ε` over windows of `w` timestamps.
    pub fn new(epsilon: f64, w: usize) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "epsilon must be finite and > 0, got {epsilon}"
        );
        WindowBudget {
            epsilon,
            window: RingWindow::new(w),
            max_window_total: 0.0,
        }
    }

    /// Record this timestamp's total spend and check the invariant.
    ///
    /// # Panics
    /// If the spend is negative or the window total exceeds ε.
    pub fn spend(&mut self, eps_t: f64) {
        assert!(eps_t >= 0.0, "negative budget spend {eps_t}");
        self.window.push(eps_t);
        let total = self.window.sum();
        self.max_window_total = self.max_window_total.max(total);
        assert!(
            total <= self.epsilon + 1e-9 * self.epsilon,
            "w-event budget violated: window total {total} > epsilon {}",
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
    fn fills_then_evicts_fifo() {
        let mut w = RingWindow::new(3);
        assert!(w.is_empty());
        assert_eq!(w.push(1), None);
        assert_eq!(w.push(2), None);
        assert_eq!(w.push(3), None);
        assert_eq!(w.len(), 3);
        assert_eq!(w.push(4), Some(1));
        assert_eq!(w.push(5), Some(2));
        let contents: Vec<i32> = w.iter().copied().collect();
        assert_eq!(contents, vec![3, 4, 5]);
    }

    #[test]
    fn newest_tracks_last_push() {
        let mut w = RingWindow::new(2);
        assert_eq!(w.newest(), None);
        w.push(10);
        assert_eq!(w.newest(), Some(&10));
        w.push(20);
        w.push(30);
        assert_eq!(w.newest(), Some(&30));
    }

    #[test]
    fn window_of_one_always_evicts() {
        let mut w = RingWindow::new(1);
        assert_eq!(w.push("a"), None);
        assert_eq!(w.push("b"), Some("a"));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn sum_over_window() {
        let mut w = RingWindow::new(3);
        w.push(1.0);
        w.push(2.0);
        w.push(3.0);
        w.push(4.0);
        assert!((w.sum() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn sum_u64_over_window() {
        let mut w = RingWindow::new(2);
        w.push(5u64);
        w.push(6u64);
        w.push(7u64);
        assert_eq!(w.sum_u64(), 13);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        RingWindow::<u32>::new(0);
    }
}
