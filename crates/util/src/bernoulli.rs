//! Bit-sliced Bernoulli sampling: 64 i.i.d. `Bernoulli(p)` bits per call.
//!
//! Lane `i` of the returned word is 1 iff a uniform `U_i ∈ [0, 1)` falls
//! below `p`. The uniforms are never materialised: each random `u64`
//! reveals one more binary digit of all 64 at once (bit `i` = lane `i`'s
//! next digit), and a lane is decided at the first digit where `U_i` and
//! `p` differ — 1 if `p` holds the larger digit, 0 otherwise. Half the
//! undecided lanes settle per word, so a call costs ≈ 7.3 words in
//! expectation instead of 64 draws.
//!
//! `p`'s digits are read off its `f64` bit pattern, so `P(bit = 1)` is
//! exactly the dyadic rational the `f64` denotes — no rounding to a
//! fixed-width threshold. Lanes still undecided when the expansion ends
//! have `U_i = p` on every revealed digit, hence `U_i ≥ p`, and resolve
//! to 0.

use crate::{ensure_probability, ParamError};
use rand::RngCore;

/// Sampler of 64 independent `Bernoulli(p)` bits at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BernoulliWords {
    /// Zero digits of `p` between the binary point and `digits`.
    leading_zeros: u32,
    /// The rest of the expansion, first digit in bit 63; every digit
    /// after the lowest set bit is zero.
    digits: u64,
    /// What a lane that no digit decides resolves to: all ones for
    /// `p = 1` (whose expansion is empty), zero otherwise.
    undecided_value: u64,
}

impl BernoulliWords {
    /// Prepare the expansion of `p ∈ [0, 1]`; subnormal `p` is exact too.
    pub fn new(p: f64) -> Result<Self, ParamError> {
        let p = ensure_probability("p", p)?;
        let mut sampler = BernoulliWords {
            leading_zeros: 0,
            digits: 0,
            undecided_value: 0,
        };
        if p == 1.0 {
            sampler.undecided_value = u64::MAX;
        } else if p != 0.0 {
            // p = significand · 2^(exponent − 1075) with a 53-bit
            // significand; a subnormal has exponent field 0, no implicit
            // bit, and the scale of exponent field 1.
            let bits = p.to_bits();
            let exponent = ((bits >> 52) & 0x7ff) as u32;
            let mantissa = bits & ((1u64 << 52) - 1);
            let significand = if exponent == 0 {
                mantissa
            } else {
                mantissa | (1u64 << 52)
            };
            // Bit 52 of the significand is digit `1023 − exponent` after
            // the point; left-align the first nonzero digit to bit 63.
            let shift = significand.leading_zeros();
            sampler.digits = significand << shift;
            sampler.leading_zeros = 1022 - exponent.max(1) + (shift - 11);
        }
        Ok(sampler)
    }

    /// Number of digits up to and including `p`'s last nonzero one: the
    /// most random words one [`sample`](Self::sample) can consume.
    pub fn expansion_len(&self) -> u32 {
        if self.digits == 0 {
            0
        } else {
            self.leading_zeros + 64 - self.digits.trailing_zeros()
        }
    }

    /// Draw 64 independent `Bernoulli(p)` bits.
    ///
    /// Consumes one `next_u64` per digit of `p` until every lane is
    /// decided; the count depends on the randomness and on `p` only.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut undecided = u64::MAX;
        // A zero digit of p: lanes revealing a 1 exceed p.
        for _ in 0..self.leading_zeros {
            undecided &= !rng.next_u64();
            if undecided == 0 {
                return 0;
            }
        }
        let mut ones = 0u64;
        let mut digits = self.digits;
        while digits != 0 {
            let revealed = rng.next_u64();
            // All ones iff this digit of p is 1: then lanes revealing a
            // 0 fall below p; either way lanes that differ are decided.
            let digit = 0u64.wrapping_sub(digits >> 63);
            ones |= undecided & !revealed & digit;
            undecided &= !(revealed ^ digit);
            if undecided == 0 {
                return ones;
            }
            digits <<= 1;
        }
        ones | (undecided & self.undecided_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Counts the words drawn through it.
    struct Counting<R>(R, u32);

    impl<R: RngCore> RngCore for Counting<R> {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.next_u64()
        }
    }

    /// `p · 2^128` as an integer; exact for `p ≥ 2^-75` (scaling by a
    /// power of two and subtracting the floor lose nothing in `f64`).
    fn scaled_128(p: f64) -> u128 {
        let two64 = 2f64.powi(64);
        let hi = (p * two64).floor();
        let lo = (p * two64 - hi) * two64;
        assert_eq!(lo.fract(), 0.0, "p = {p:e} has digits past 2^-128");
        ((hi as u128) << 64) | lo as u128
    }

    /// The reference: build each lane's uniform to 128 digits from the
    /// same word stream and compare it with `p` as an integer.
    fn oracle_lanes(p: f64, rng: &mut StdRng) -> u64 {
        let threshold = scaled_128(p);
        let mut uniforms = [0u128; 64];
        for _ in 0..128 {
            let word = rng.next_u64();
            for (lane, u) in uniforms.iter_mut().enumerate() {
                *u = (*u << 1) | ((word >> lane) & 1) as u128;
            }
        }
        uniforms.iter().enumerate().fold(0, |lanes, (lane, &u)| {
            lanes | (u64::from(u < threshold) << lane)
        })
    }

    fn assert_matches_oracle(p: f64, seed: u64) {
        let sampler = BernoulliWords::new(p).unwrap();
        let mut rng = Counting(StdRng::seed_from_u64(seed), 0);
        let lanes = sampler.sample(&mut rng);
        assert!(
            rng.1 <= sampler.expansion_len(),
            "p = {p:e}: {} draws for a {}-digit expansion",
            rng.1,
            sampler.expansion_len()
        );
        let expected = oracle_lanes(p, &mut StdRng::seed_from_u64(seed));
        assert_eq!(
            lanes,
            expected,
            "p = {p:e} (bits {:#x}), seed {seed}",
            p.to_bits()
        );
    }

    #[test]
    fn matches_digit_by_digit_oracle_over_random_p() {
        let mut pick = StdRng::seed_from_u64(11);
        for seed in 0..10_000u64 {
            let scale = 2f64.powi(-pick.gen_range(0i32..20));
            let p = match seed % 3 {
                // At most 3 significant bits.
                0 => pick.gen_range(1u64..8) as f64 / 8.0 * scale,
                // Exactly 53: an odd mantissa under the implicit bit.
                1 => f64::from_bits(0.5f64.to_bits() | pick.next_u64() >> 12 | 1) * scale,
                _ => pick.gen::<f64>() * scale,
            };
            if p > 0.0 {
                assert_matches_oracle(p, seed);
            }
        }
    }

    #[test]
    fn expansion_of_known_values() {
        let expansion = |p: f64| {
            let s = BernoulliWords::new(p).unwrap();
            (s.leading_zeros, s.digits, s.expansion_len())
        };
        assert_eq!(expansion(0.0), (0, 0, 0));
        assert_eq!(expansion(1.0), (0, 0, 0));
        assert_eq!(expansion(0.5), (0, 1 << 63, 1));
        assert_eq!(expansion(0.375), (1, 0b11 << 62, 3));
        assert_eq!(expansion(1.0 - 2f64.powi(-53)), (0, u64::MAX << 11, 53));
        assert_eq!(expansion(f64::MIN_POSITIVE), (1021, 1 << 63, 1022));
        assert_eq!(expansion(f64::from_bits(1)), (1073, 1 << 63, 1074));
        assert_eq!(expansion(f64::from_bits(0b101)), (1071, 0b101 << 61, 1074));
    }

    #[test]
    fn degenerate_and_extreme_p() {
        let mut rng = Counting(StdRng::seed_from_u64(3), 0);
        for _ in 0..1_000 {
            assert_eq!(BernoulliWords::new(0.0).unwrap().sample(&mut rng), 0);
            assert_eq!(BernoulliWords::new(1.0).unwrap().sample(&mut rng), u64::MAX);
        }
        assert_eq!(rng.1, 0, "p in {{0, 1}} needs no randomness");

        // Far below 2^-64 per lane: every lane is decided 0 within a few
        // words, long before the first nonzero digit.
        for tiny in [
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(0xdead_beef),
        ] {
            let sampler = BernoulliWords::new(tiny).unwrap();
            for _ in 0..1_000 {
                rng.1 = 0;
                assert_eq!(sampler.sample(&mut rng), 0);
                assert!(rng.1 < 64);
            }
        }

        // One digit: the complement of one word.
        let half = BernoulliWords::new(0.5).unwrap();
        let word = StdRng::seed_from_u64(9).next_u64();
        assert_eq!(half.sample(&mut StdRng::seed_from_u64(9)), !word);

        for seed in 0..1_000 {
            assert_matches_oracle(1.0 - 2f64.powi(-53), seed);
            assert_matches_oracle(2f64.powi(-75), seed);
        }
    }

    #[test]
    fn rejects_non_probabilities() {
        for bad in [-0.1, 1.0 + f64::EPSILON, f64::NAN, f64::INFINITY] {
            assert!(BernoulliWords::new(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn lane_rates_match_p() {
        let p = 1.0 / (1f64.exp() + 1.0);
        let sampler = BernoulliWords::new(p).unwrap();
        let mut rng = Counting(StdRng::seed_from_u64(5), 0);
        let words = 20_000u32;
        let mut per_lane = [0u32; 64];
        for _ in 0..words {
            let w = sampler.sample(&mut rng);
            for (lane, count) in per_lane.iter_mut().enumerate() {
                *count += (w >> lane) as u32 & 1;
            }
        }
        let sigma = (p * (1.0 - p) / words as f64).sqrt();
        for (lane, &count) in per_lane.iter().enumerate() {
            let rate = count as f64 / words as f64;
            assert!((rate - p).abs() < 4.5 * sigma, "lane {lane}: {rate} vs {p}");
        }
        // E[max of 64 geometric(1/2)] ≈ 7.3 words per call.
        let draws = rng.1 as f64 / words as f64;
        assert!((6.8..7.8).contains(&draws), "{draws} words per call");
    }
}
