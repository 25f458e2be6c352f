//! Property tests pinning the batched accumulation kernels to the
//! scalar `accumulate` path, bit for bit.
//!
//! The contract under test: for any oracle and any report mix, the
//! columnar layout the service folds — [`ReportColumns`] through
//! `accumulate_columns`, misfits through `accumulate_lenient` — produces
//! exactly the same `u64` support counts as folding each report
//! individually, and never panics, even on malformed reports with debug
//! assertions on.

use ldp_fo::kernels::{FastMod, ReportColumns};
use ldp_fo::{build_oracle, FoKind, FrequencyOracle, Report};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Domains that stress the OUE kernel's 64-bit word boundaries plus a
/// spread of ordinary sizes, up to 16 OUE words.
const DOMAINS: [usize; 13] = [2, 3, 17, 32, 63, 64, 65, 127, 128, 129, 200, 513, 1024];

fn perturbed_reports(oracle: &dyn FrequencyOracle, n: usize, seed: u64) -> Vec<Report> {
    let d = oracle.domain_size();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| oracle.perturb(rng.gen_range(0..d), &mut rng))
        .collect()
}

/// Fold `reports` into `counts` as the service does: packed into
/// [`ReportColumns`] and folded by `accumulate_columns`, with every
/// report the columns do not fit through `accumulate_lenient`. Returns
/// how many did not fit.
fn fold_columns(oracle: &dyn FrequencyOracle, reports: &[Report], counts: &mut [u64]) -> usize {
    let d = oracle.domain_size();
    let mut columns = ReportColumns::for_kind(oracle.kind(), d, reports.len());
    let mut misfits = 0;
    for report in reports {
        if !columns.try_push(report, d) {
            oracle.accumulate_lenient(report, counts);
            misfits += 1;
        }
    }
    oracle.accumulate_columns(&columns, counts);
    misfits
}

/// A report that may be malformed: wrong kind, out-of-domain GRR value,
/// OUE payload with a lying length or word count, OLH bucket past `g`.
fn arbitrary_report(rng: &mut StdRng, d: usize) -> Report {
    match rng.gen_range(0..6) {
        0 => Report::Grr(rng.gen_range(0..(2 * d) as u32 + 2)),
        1 => Report::Olh {
            seed: rng.gen(),
            bucket: rng.gen_range(0..64),
        },
        2 => {
            // Regular OUE payload shape with random bits (padding may be
            // dirty, which the clamp must ignore).
            let wpr = d.div_ceil(64);
            Report::Oue {
                bits: (0..wpr).map(|_| rng.gen()).collect(),
                len: d as u32,
            }
        }
        3 => {
            // Lying length.
            let wpr = d.div_ceil(64);
            Report::Oue {
                bits: (0..wpr).map(|_| rng.gen()).collect(),
                len: rng.gen_range(0..2 * d as u32 + 2),
            }
        }
        4 => {
            // Wrong word count.
            let words = rng.gen_range(0..4usize);
            Report::Oue {
                bits: (0..words).map(|_| rng.gen()).collect(),
                len: d as u32,
            }
        }
        _ => Report::Grr(rng.gen()),
    }
}

proptest! {
    /// Well-formed report streams: the batched kernels are bit-identical
    /// to the scalar fold for every oracle, across word-boundary domains.
    #[test]
    fn batch_matches_scalar_on_perturbed_reports(
        kind_idx in 0usize..3,
        eps in 0.1f64..5.0,
        d_idx in 0usize..DOMAINS.len(),
        n in 0usize..300,
        seed in 0u64..1_000,
    ) {
        let kind = [FoKind::Grr, FoKind::Oue, FoKind::Olh][kind_idx];
        let d = DOMAINS[d_idx];
        let oracle = build_oracle(kind, eps, d).unwrap();
        let reports = perturbed_reports(oracle.as_ref(), n, seed);

        let mut scalar = vec![0u64; d];
        for report in &reports {
            oracle.accumulate(report, &mut scalar);
        }
        let mut columnar = vec![0u64; d];
        let misfits = fold_columns(oracle.as_ref(), &reports, &mut columnar);
        prop_assert_eq!(misfits, 0, "perturbed reports are regular");
        prop_assert_eq!(&scalar, &columnar, "{:?} d={}", kind, d);
    }

    /// Malformed mixes: the columnar path never panics (debug assertions
    /// on) and matches the lenient scalar fold — the release-mode
    /// semantics of `accumulate` — exactly.
    #[test]
    fn batch_is_lenient_and_exact_on_malformed_reports(
        kind_idx in 0usize..3,
        eps in 0.1f64..5.0,
        d_idx in 0usize..DOMAINS.len(),
        n in 0usize..200,
        seed in 0u64..1_000,
    ) {
        let kind = [FoKind::Grr, FoKind::Oue, FoKind::Olh][kind_idx];
        let d = DOMAINS[d_idx];
        let oracle = build_oracle(kind, eps, d).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let reports: Vec<Report> = (0..n).map(|_| arbitrary_report(&mut rng, d)).collect();

        let mut lenient = vec![0u64; d];
        for report in &reports {
            oracle.accumulate_lenient(report, &mut lenient);
        }
        let mut columnar = vec![0u64; d];
        fold_columns(oracle.as_ref(), &reports, &mut columnar);
        prop_assert_eq!(&lenient, &columnar, "{:?} d={}", kind, d);
    }

    /// The strength-reduced modulo is exact for every divisor the OLH
    /// kernel can meet (g = ⌊e^ε⌋ + 1 ≥ 2) and arbitrary hashes.
    #[test]
    fn fastmod_is_exact(
        g in 1u64..u64::MAX,
        h in proptest::collection::vec(0u64..u64::MAX, 1..50),
    ) {
        let m = FastMod::new(g);
        for &h in &h {
            prop_assert_eq!(m.rem(h), h % g);
        }
    }

    /// Splitting one report stream into arbitrary batch boundaries never
    /// changes the tally (u64 addition is associative): the property the
    /// sharded service leans on.
    #[test]
    fn batch_boundaries_are_invisible(
        kind_idx in 0usize..3,
        eps in 0.2f64..4.0,
        d_idx in 0usize..DOMAINS.len(),
        n in 1usize..200,
        split_frac in 0.0f64..1.0,
        seed in 0u64..1_000,
    ) {
        let kind = [FoKind::Grr, FoKind::Oue, FoKind::Olh][kind_idx];
        let d = DOMAINS[d_idx];
        let oracle = build_oracle(kind, eps, d).unwrap();
        let reports = perturbed_reports(oracle.as_ref(), n, seed);
        let split = ((n as f64 * split_frac) as usize).min(n);

        let mut whole = vec![0u64; d];
        fold_columns(oracle.as_ref(), &reports, &mut whole);
        let mut parts = vec![0u64; d];
        fold_columns(oracle.as_ref(), &reports[..split], &mut parts);
        fold_columns(oracle.as_ref(), &reports[split..], &mut parts);
        prop_assert_eq!(whole, parts);
    }
}
