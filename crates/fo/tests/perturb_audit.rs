//! Privacy audit of `Oue::perturb`, on the reports themselves.
//!
//! OUE is ε-LDP because every bit is an independent coin: the true
//! value's bit is on with p = ½, every other with q = 1/(e^ε + 1), so
//! the likelihood ratio of any report between two inputs is at most
//! p(1 − q)/(q(1 − p)) = e^ε. A sampler that biased a lane, correlated
//! two lanes, or let the hidden value steer the randomness would break
//! that while every estimate still looked plausible; this suite checks
//! each property directly at small domains and at the 64-bit word
//! boundaries of the bit-sliced sampler.

use ldp_fo::report::iter_set_bits;
use ldp_fo::{FrequencyOracle, Oue, Report};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const EPSILONS: [f64; 3] = [0.1, 1.0, 4.0];

fn words(report: Report) -> Vec<u64> {
    match report {
        Report::Oue { bits, .. } => bits,
        other => panic!("OUE oracle produced {other:?}"),
    }
}

/// `iter_set_bits` for the 7 × 10⁶-report loops: the iterator chain
/// doubles the suite's time in the unoptimised tier-1 build.
fn for_each_set_bit(mut word: u64, base: usize, mut f: impl FnMut(usize)) {
    while word != 0 {
        f(base + word.trailing_zeros() as usize);
        word &= word - 1;
    }
}

/// `n` seeded reports of `value`: per-bit rates, the likelihood ratio,
/// padding, and pairwise independence of neighbouring and word-aligned
/// lanes.
fn audit(epsilon: f64, d: usize, value: usize, n: u64) {
    let oracle = Oue::new(epsilon, d).unwrap();
    let q = oracle.q();
    let ctx = format!("ε = {epsilon}, d = {d}");
    let mut rng = StdRng::seed_from_u64(((d as u64) << 8) ^ epsilon.to_bits());

    let mut on = vec![0u64; d];
    // both_next[j]: bits j and j + 1 on together (crosses the word seam
    // at j = 63); both_word[j]: bits j and j + 64 on together.
    let mut both_next = vec![0u64; d];
    let mut both_word = vec![0u64; d];
    for _ in 0..n {
        let bits = words(oracle.perturb(value, &mut rng));
        assert_eq!(bits.len(), d.div_ceil(64), "{ctx}");
        if let Some(tail) = bits.get(d / 64) {
            assert_eq!(tail >> (d % 64), 0, "{ctx}: padding bit set");
        }
        for (w, &word) in bits.iter().enumerate() {
            let next = bits.get(w + 1).copied().unwrap_or(0);
            for_each_set_bit(word, w * 64, |j| on[j] += 1);
            for_each_set_bit(word & ((word >> 1) | (next << 63)), w * 64, |j| {
                both_next[j] += 1
            });
            for_each_set_bit(word & next, w * 64, |j| both_word[j] += 1);
        }
    }

    let nf = n as f64;
    let sigma = |p: f64, trials: f64| (p * (1.0 - p) / trials).sqrt();
    for (j, &count) in on.iter().enumerate() {
        let expected = if j == value { 0.5 } else { q };
        let rate = count as f64 / nf;
        assert!(
            (rate - expected).abs() < 4.5 * sigma(expected, nf),
            "{ctx}: bit {j} on at rate {rate}, expected {expected}"
        );
    }

    // The attacker's best single-bit evidence, from the data: how much
    // likelier the true bit is on than a noise bit, in odds.
    let noise_trials = nf * (d - 1) as f64;
    let p_hat = on[value] as f64 / nf;
    let q_hat = (on.iter().sum::<u64>() - on[value]) as f64 / noise_trials;
    let log_ratio = (p_hat * (1.0 - q_hat) / (q_hat * (1.0 - p_hat))).ln();
    let log_ratio_se = (1.0 / (nf * 0.25) + 1.0 / (noise_trials * q * (1.0 - q))).sqrt();
    assert!(
        log_ratio <= epsilon + 4.5 * log_ratio_se,
        "{ctx}: empirical likelihood ratio e^{log_ratio} exceeds e^ε"
    );
    assert!(
        log_ratio >= epsilon - 4.5 * log_ratio_se,
        "{ctx}: empirical likelihood ratio e^{log_ratio} wastes budget"
    );

    let rho = |both: u64, a: usize, b: usize| {
        let (pa, pb) = (on[a] as f64 / nf, on[b] as f64 / nf);
        (both as f64 / nf - pa * pb) / (pa * (1.0 - pa) * pb * (1.0 - pb)).sqrt()
    };
    let bound = 5.0 / nf.sqrt();
    for j in 0..d {
        for (other, both) in [(j + 1, both_next[j]), (j + 64, both_word[j])] {
            if other < d {
                let r = rho(both, j, other);
                assert!(
                    r.abs() < bound,
                    "{ctx}: bits {j} and {other} correlate, ρ = {r}"
                );
            }
        }
    }
}

#[test]
fn small_domain_rates_and_likelihood_ratio_d3() {
    for epsilon in EPSILONS {
        audit(epsilon, 3, 1, 1_000_000);
    }
}

#[test]
fn small_domain_rates_and_likelihood_ratio_d8() {
    for epsilon in EPSILONS {
        audit(epsilon, 8, 5, 1_000_000);
    }
}

#[test]
fn word_boundary_rates_and_likelihood_ratio() {
    // The true value sits in the last lane: the tail word's top bit, or
    // (d = 64, 128) bit 63 of a full word.
    for d in [64, 65, 128, 130] {
        for epsilon in EPSILONS {
            audit(epsilon, d, d - 1, 100_000);
        }
    }
}

/// The hidden value must not steer the randomness: from one seed, every
/// value consumes the same draws (the generator lands in the same state)
/// and yields the same noise, so two reports differ at most in the two
/// true bits — and those carry the same coin.
#[test]
fn draws_and_noise_are_independent_of_the_value() {
    for d in [3, 8, 64, 65, 128, 130] {
        for epsilon in EPSILONS {
            let oracle = Oue::new(epsilon, d).unwrap();
            for seed in 0..8u64 {
                let runs: Vec<(Vec<u64>, u64)> = (0..d)
                    .map(|value| {
                        let mut rng = StdRng::seed_from_u64(seed);
                        (words(oracle.perturb(value, &mut rng)), rng.next_u64())
                    })
                    .collect();
                let bit = |v: usize, j: usize| (runs[v].0[j / 64] >> (j % 64)) & 1;
                for v1 in 0..d {
                    assert_eq!(runs[v1].1, runs[0].1, "d = {d}: draws depend on value {v1}");
                    assert_eq!(
                        bit(v1, v1),
                        bit(0, 0),
                        "d = {d}: coin depends on value {v1}"
                    );
                    for v2 in v1 + 1..d {
                        let xor: Vec<u64> = (runs[v1].0.iter().zip(&runs[v2].0))
                            .map(|(a, b)| a ^ b)
                            .collect();
                        let differing: Vec<usize> = iter_set_bits(&xor, d as u32).collect();
                        assert!(
                            differing.iter().all(|&j| j == v1 || j == v2),
                            "d = {d}, seed {seed}: reports of {v1} and {v2} differ at {differing:?}"
                        );
                    }
                }
            }
        }
    }
}
