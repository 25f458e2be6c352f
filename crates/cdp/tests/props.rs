//! Property tests for the centralized w-event DP substrate.

use ldp_cdp::{run_cdp, CdpKind};
use ldp_stream::source::ReplaySource;
use ldp_stream::TrueHistogram;
use ldp_stream::WindowBudget;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn stream_from(rows: Vec<Vec<u64>>) -> ReplaySource {
    let seq: Vec<TrueHistogram> = rows
        .into_iter()
        .map(|mut counts| {
            // Keep the population constant across rows.
            let total: u64 = counts.iter().sum();
            counts[0] += 10_000 - total.min(10_000);
            TrueHistogram::new(counts)
        })
        .collect();
    ReplaySource::new("prop", seq)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every centralized mechanism runs on any stream and produces the
    /// declared shape; the adaptive ones never panic the ledger.
    #[test]
    fn all_cdp_mechanisms_run(
        rows in proptest::collection::vec(
            proptest::collection::vec(0u64..2_000, 3..=3), 10..40),
        w in 1usize..12,
        eps in 0.1f64..4.0,
        kind_idx in 0usize..2,
        seed in 0u64..1000,
    ) {
        let steps = rows.len();
        let mut source = stream_from(rows);
        let kind = [CdpKind::Bd, CdpKind::Ba][kind_idx];
        let mut mech = kind.build(eps, w, 3);
        let mut rng = StdRng::seed_from_u64(seed);
        let released = run_cdp(&mut mech, &mut source, steps, &mut rng);
        prop_assert_eq!(released.len(), steps);
        for row in &released {
            prop_assert_eq!(row.len(), 3);
            for v in row {
                prop_assert!(v.is_finite());
            }
        }
        prop_assert!(mech.publications() <= steps as u64);
    }

    /// The window budget mirrors a sliding-window sum exactly.
    #[test]
    fn ledger_matches_window_model(
        spends in proptest::collection::vec(0.0f64..0.2, 1..60),
        w in 1usize..10,
    ) {
        // Scale spends so no window can exceed ε = 1.
        let mut ledger = WindowBudget::new(1.0, w);
        let mut history: Vec<f64> = Vec::new();
        for &s in &spends {
            let spend = s / w as f64;
            ledger.spend(spend);
            history.push(spend);
            let tail: f64 = history[history.len().saturating_sub(w)..].iter().sum();
            prop_assert!((ledger.window_total() - tail).abs() < 1e-12);
        }
    }

}
