//! Property tests for the numeric substrate.

use ldp_util::{ln_gamma, sample_multivariate_hypergeometric, BernoulliWords, KahanSum, Zipf};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

proptest! {
    /// Kahan summation is at least as accurate as naive summation
    /// against a 128-bit reference, and exact for short inputs.
    #[test]
    fn kahan_tracks_high_precision_reference(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut kahan = KahanSum::new();
        for &v in &values {
            kahan.add(v);
        }
        // Reference via sorted-magnitude summation in f64 (a reasonable
        // stand-in for higher precision at this scale).
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.abs().partial_cmp(&b.abs()).unwrap());
        let reference: f64 = sorted.iter().sum();
        let scale: f64 = values.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
        prop_assert!(
            (kahan.sum() - reference).abs() / scale < 1e-9,
            "kahan {} vs reference {}", kahan.sum(), reference
        );
    }

    /// The Kahan mean of n copies of x is x.
    #[test]
    fn kahan_mean_of_constant(x in -1e3f64..1e3, n in 1usize..100) {
        let mut k = KahanSum::new();
        for _ in 0..n {
            k.add(x);
        }
        prop_assert!((k.mean() - x).abs() < 1e-9);
    }

    /// Multivariate hypergeometric draws always sum to k and never
    /// exceed any cell.
    #[test]
    fn hypergeometric_is_a_subset(
        cells in proptest::collection::vec(0u64..5_000, 2..8),
        frac in 0.0f64..1.0,
        seed in 0u64..1_000,
    ) {
        let total: u64 = cells.iter().sum();
        let k = (total as f64 * frac) as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let draw = sample_multivariate_hypergeometric(&mut rng, &cells, k).unwrap();
        prop_assert_eq!(draw.iter().sum::<u64>(), k);
        for (d, c) in draw.iter().zip(&cells) {
            prop_assert!(d <= c);
        }
    }

    /// ln Γ satisfies the recurrence ln Γ(x+1) = ln Γ(x) + ln x.
    #[test]
    fn ln_gamma_recurrence(x in 0.5f64..1e4) {
        let lhs = ln_gamma(x + 1.0);
        let rhs = ln_gamma(x) + x.ln();
        let scale = lhs.abs().max(1.0);
        prop_assert!((lhs - rhs).abs() / scale < 1e-10, "{lhs} vs {rhs}");
    }

    /// Zipf pmf is a probability distribution over its support.
    #[test]
    fn zipf_pmf_normalizes(n in 2usize..200, s in 0.1f64..3.0) {
        let z = Zipf::new(n, s).unwrap();
        let total: f64 = (0..n).map(|k| z.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "pmf sums to {total}");
        // Monotone decreasing in rank.
        for k in 1..n {
            prop_assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12);
        }
    }

    /// Bit-sliced Bernoulli lanes are coupled through the word stream:
    /// on the same words every lane's uniform is the same, so raising p
    /// can only turn lanes on, p = ½ is the complement of one word, and
    /// no call draws past the end of p's expansion.
    #[test]
    fn bernoulli_words_are_monotone_in_p(a in 0.0f64..=1.0, b in 0.0f64..=1.0, seed in 0u64..10_000) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let sample = |p: f64| {
            let sampler = BernoulliWords::new(p).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let lanes = sampler.sample(&mut rng);
            // Words drawn = distance to the same stream's position.
            let mut probe = StdRng::seed_from_u64(seed);
            let mut drawn = 0u32;
            while probe != rng {
                probe.next_u64();
                drawn += 1;
            }
            (lanes, drawn, sampler.expansion_len())
        };
        let (lanes_lo, drawn_lo, len_lo) = sample(lo);
        let (lanes_hi, drawn_hi, len_hi) = sample(hi);
        prop_assert_eq!(lanes_lo & !lanes_hi, 0, "lanes on at p = {} but off at p = {}", lo, hi);
        prop_assert!(drawn_lo <= len_lo && drawn_hi <= len_hi);
        let (half, _, _) = sample(0.5);
        prop_assert_eq!(half, !StdRng::seed_from_u64(seed).next_u64());
    }
}
