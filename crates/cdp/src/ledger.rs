//! Unit tests of the window budget at the centralized baselines' slack.

mod tests {
    use ldp_stream::WindowBudget;

    #[test]
    fn accepts_exact_budget_split() {
        let mut ledger = WindowBudget::new(1.0, 4);
        for _ in 0..20 {
            ledger.spend(0.25);
        }
        assert!((ledger.window_total() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "w-event budget violated")]
    fn rejects_overspend_within_window() {
        let mut ledger = WindowBudget::new(1.0, 3);
        ledger.spend(0.5);
        ledger.spend(0.5);
        ledger.spend(0.5);
    }

    #[test]
    fn budget_recycles_as_window_slides() {
        let mut ledger = WindowBudget::new(1.0, 2);
        ledger.spend(1.0);
        ledger.spend(0.0);
        // The 1.0 spend is now w timestamps old: full budget again.
        ledger.spend(1.0);
        assert!((ledger.window_total() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn rejects_negative_spend() {
        WindowBudget::new(1.0, 2).spend(-0.1);
    }
}
