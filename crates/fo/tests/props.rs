//! Property tests for the frequency-oracle layer.

use ldp_fo::{build_oracle, FoKind, Report};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// Every report an oracle emits is structurally valid and
    /// accumulates into support counts without panicking; GRR adds
    /// exactly one support, OUE/OLH add between 0 and d. An OUE report
    /// is exactly ⌈d/64⌉ words with nothing set above bit d.
    #[test]
    fn reports_are_well_formed(
        kind_idx in 0usize..3,
        eps in 0.1f64..5.0,
        d in 2usize..200,
        value_frac in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let kind = [FoKind::Grr, FoKind::Oue, FoKind::Olh][kind_idx];
        let oracle = build_oracle(kind, eps, d).unwrap();
        let value = ((d as f64 * value_frac) as usize).min(d - 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let report = oracle.perturb(value, &mut rng);
        match &report {
            Report::Grr(v) => prop_assert!((*v as usize) < d),
            Report::Oue { bits, len } => {
                prop_assert_eq!(*len as usize, d);
                prop_assert_eq!(bits.len(), d.div_ceil(64));
                if let Some(tail) = bits.get(d / 64) {
                    prop_assert_eq!(tail >> (d % 64), 0, "padding above bit {}", d);
                }
            }
            Report::Olh { .. } => {}
        }
        let mut counts = vec![0u64; d];
        oracle.accumulate(&report, &mut counts);
        let total: u64 = counts.iter().sum();
        match kind {
            FoKind::Grr => prop_assert_eq!(total, 1),
            _ => prop_assert!(total <= d as u64),
        }
    }

    /// The aggregate sampler conserves reporters for GRR (each report
    /// supports exactly one cell) and stays within [0, n] per cell for
    /// all oracles.
    #[test]
    fn aggregate_sampler_conserves_mass(
        kind_idx in 0usize..3,
        eps in 0.1f64..4.0,
        cells in proptest::collection::vec(0u64..2_000, 2..10),
        seed in 0u64..1000,
    ) {
        let kind = [FoKind::Grr, FoKind::Oue, FoKind::Olh][kind_idx];
        let d = cells.len();
        let n: u64 = cells.iter().sum();
        let oracle = build_oracle(kind, eps, d).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let support = oracle.perturb_aggregate(&cells, &mut rng);
        prop_assert_eq!(support.len(), d);
        for &s in &support {
            prop_assert!(s <= n, "support {s} exceeds population {n}");
        }
        if kind == FoKind::Grr {
            prop_assert_eq!(support.iter().sum::<u64>(), n);
        }
    }

    /// Estimation inverts the support transform: for any support counts,
    /// re-applying `f̂ ↦ f̂(p−q) + q` recovers `c/n` exactly.
    #[test]
    fn estimate_is_the_inverse_transform(
        kind_idx in 0usize..3,
        eps in 0.1f64..4.0,
        support in proptest::collection::vec(0u64..1_000, 2..10),
        extra in 0u64..1_000,
    ) {
        let kind = [FoKind::Grr, FoKind::Oue, FoKind::Olh][kind_idx];
        let d = support.len();
        let n = support.iter().max().copied().unwrap_or(0) + extra + 1;
        let oracle = build_oracle(kind, eps, d).unwrap();
        let est = oracle.estimate(&support, n);
        let pq = oracle.pq();
        for (e, &c) in est.iter().zip(&support) {
            let back = e * (pq.p - pq.q) + pq.q;
            prop_assert!((back - c as f64 / n as f64).abs() < 1e-10);
        }
    }

    /// GRR privacy: the ratio of response probabilities for any output
    /// between any two inputs is bounded by e^ε (the LDP inequality,
    /// checked on the closed-form p/q).
    #[test]
    fn grr_probability_ratio_bounded(eps in 0.05f64..6.0, d in 2usize..100) {
        let oracle = build_oracle(FoKind::Grr, eps, d).unwrap();
        let pq = oracle.pq();
        // p is the largest response probability, q the smallest.
        prop_assert!(pq.p / pq.q <= eps.exp() * (1.0 + 1e-9));
        // And the response distribution is normalized.
        prop_assert!((pq.p + (d as f64 - 1.0) * pq.q - 1.0).abs() < 1e-9);
    }

    /// Variance is monotone: more users or more budget never hurts.
    #[test]
    fn variance_monotonicity(
        eps in 0.1f64..3.0,
        d in 2usize..50,
        n in 100u64..100_000,
    ) {
        let o = build_oracle(FoKind::Grr, eps, d).unwrap();
        let o_more_eps = build_oracle(FoKind::Grr, eps * 1.5, d).unwrap();
        prop_assert!(o.avg_variance(n * 2) < o.avg_variance(n));
        prop_assert!(o_more_eps.avg_variance(n) < o.avg_variance(n));
    }
}
