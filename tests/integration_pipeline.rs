//! End-to-end pipeline tests: dataset → mechanism → collector → metrics.
//!
//! Runs every mechanism over every dataset family at reduced scale and
//! checks structural invariants of the full stack (shape, provenance,
//! accounting), not statistical claims — those live in
//! `integration_figures.rs`.

use ldp_bench::scale::SharedStreams;
use ldp_bench::spec::RunSpec;
use ldp_ids::MechanismKind;
use ldp_metrics::StreamError;
use ldp_stream::Dataset;

/// Scaled-down versions of all six paper datasets.
fn small_datasets() -> Vec<Dataset> {
    vec![
        Dataset::Lns {
            population: 20_000,
            len: 60,
            p0: 0.05,
            q_std: 0.0025,
        },
        Dataset::Sin {
            population: 20_000,
            len: 60,
            a: 0.05,
            b: 0.05,
            h: 0.075,
        },
        Dataset::Log {
            population: 20_000,
            len: 60,
            a: 0.25,
            b: 0.05,
        },
        Dataset::Taxi { population: 10_357 },
        Dataset::Foursquare { population: 26_000 },
        Dataset::Taobao { population: 40_000 },
    ]
}

#[test]
fn every_mechanism_runs_on_every_dataset() {
    let streams = SharedStreams::new();
    for dataset in small_datasets() {
        let len = dataset.len().min(60);
        for kind in MechanismKind::ALL {
            let mut spec = RunSpec::new(dataset.clone(), kind, 1.0, 10, 7);
            spec.len = len;
            let stream = streams.get(&dataset, 7, len);
            let out = spec.run_on(&stream);
            assert_eq!(out.steps, len as u64, "{kind} on {}", dataset.name());
            assert!(
                out.error.mre.is_finite() && out.error.mre >= 0.0,
                "{kind} on {}: MRE {}",
                dataset.name(),
                out.error.mre
            );
            assert!(out.cfpu > 0.0, "{kind} on {}", dataset.name());
            if kind.is_population_division() {
                assert!(
                    out.cfpu <= 1.0 / 10.0 + 1e-9,
                    "{kind} population CFPU {} exceeds 1/w",
                    out.cfpu
                );
            } else {
                assert!(
                    (1.0..=2.0 + 1e-9).contains(&out.cfpu),
                    "{kind} budget CFPU {}",
                    out.cfpu
                );
            }
        }
    }
}

#[test]
fn non_adaptive_mechanisms_have_exact_publication_counts() {
    let streams = SharedStreams::new();
    let dataset = small_datasets()[1].clone();
    let len = 60;
    let stream = streams.get(&dataset, 3, len);

    let mut lbu = RunSpec::new(dataset.clone(), MechanismKind::Lbu, 1.0, 10, 3);
    lbu.len = len;
    assert_eq!(lbu.run_on(&stream).publications, len as u64);

    let mut lpu = RunSpec::new(dataset.clone(), MechanismKind::Lpu, 1.0, 10, 3);
    lpu.len = len;
    assert_eq!(lpu.run_on(&stream).publications, len as u64);

    let mut lsp = RunSpec::new(dataset, MechanismKind::Lsp, 1.0, 10, 3);
    lsp.len = len;
    // One sampling step per window of 10 over 60 steps.
    assert_eq!(lsp.run_on(&stream).publications, 6);
}

#[test]
fn mre_responds_to_epsilon() {
    // More budget, less error — across the whole pipeline.
    let streams = SharedStreams::new();
    let dataset = Dataset::Sin {
        population: 50_000,
        len: 80,
        a: 0.05,
        b: 0.05,
        h: 0.075,
    };
    let stream = streams.get(&dataset, 5, 80);
    let mre_at = |eps: f64| {
        let spec = RunSpec::new(dataset.clone(), MechanismKind::Lbu, eps, 10, 5);
        spec.run_on(&stream).error.mre
    };
    let low = mre_at(0.5);
    let high = mre_at(4.0);
    assert!(
        high < low,
        "MRE should fall with epsilon: eps=0.5 -> {low}, eps=4 -> {high}"
    );
}

#[test]
fn stream_error_metrics_are_consistent() {
    // MSE ≤ MAE when per-cell errors ≤ 1 (Jensen direction for values in
    // [0,1]); MRE ≥ MAE with frequencies ≤ 1 and floor 0.001.
    let streams = SharedStreams::new();
    let dataset = small_datasets()[0].clone();
    let stream = streams.get(&dataset, 9, 60);
    let mut spec = RunSpec::new(dataset, MechanismKind::Lpa, 1.0, 10, 9);
    spec.len = 60;
    let StreamError { mre, mae, mse } = spec.run_on(&stream).error;
    assert!(mse <= mae + 1e-12, "mse {mse} vs mae {mae}");
    assert!(mre >= mae - 1e-12, "mre {mre} vs mae {mae}");
}

#[test]
fn runs_are_deterministic_given_seed() {
    let streams = SharedStreams::new();
    for kind in [MechanismKind::Lba, MechanismKind::Lpd] {
        let dataset = small_datasets()[2].clone();
        let mut spec = RunSpec::new(dataset.clone(), kind, 1.0, 8, 21);
        spec.len = 60;
        let stream = streams.get(&dataset, 21, 60);
        let a = spec.run_on(&stream);
        let b = spec.run_on(&stream);
        assert_eq!(a, b, "{kind} must be reproducible");
    }
}

#[test]
fn cfpu_identities_hold_exactly() {
    // CFPU is a deterministic function of the publication schedule, so
    // the §5.4.3/§6.3.3 closed forms must hold *exactly*, not just in
    // expectation.
    let streams = SharedStreams::new();
    let dataset = Dataset::Sin {
        population: 30_000,
        len: 100,
        a: 0.05,
        b: 0.05,
        h: 0.075,
    };
    let (w, steps) = (10usize, 100usize);
    let stream = streams.get(&dataset, 13, steps);

    // LBU: exactly 1.
    let mut lbu = RunSpec::new(dataset.clone(), MechanismKind::Lbu, 1.0, w, 13);
    lbu.len = steps;
    assert!((lbu.run_on(&stream).cfpu - 1.0).abs() < 1e-12);

    // LSP: exactly ceil(T/w)/T; LPU: exactly ⌊N/w⌋/N.
    let mut lsp = RunSpec::new(dataset.clone(), MechanismKind::Lsp, 1.0, w, 13);
    lsp.len = steps;
    let expected_lsp = steps.div_ceil(w) as f64 / steps as f64;
    assert!((lsp.run_on(&stream).cfpu - expected_lsp).abs() < 1e-12);

    let mut lpu = RunSpec::new(dataset.clone(), MechanismKind::Lpu, 1.0, w, 13);
    lpu.len = steps;
    let expected_lpu = (30_000 / w as u64) as f64 / 30_000.0;
    assert!((lpu.run_on(&stream).cfpu - expected_lpu).abs() < 1e-12);

    // LBD/LBA: exactly 1 + publications/steps (every step one M1 round,
    // publication steps add one M2 round over the full population).
    for kind in [MechanismKind::Lbd, MechanismKind::Lba] {
        let mut spec = RunSpec::new(dataset.clone(), kind, 1.0, w, 13);
        spec.len = steps;
        let out = spec.run_on(&stream);
        let expected = 1.0 + out.publications as f64 / steps as f64;
        assert!(
            (out.cfpu - expected).abs() < 1e-12,
            "{kind}: CFPU {} vs 1 + m/T = {expected}",
            out.cfpu
        );
    }
}

/// Precision@k of the estimated top-k cells against the true top-k:
/// `|est ∩ true| / k`, ties broken by cell index.
fn topk_precision(estimated: &[f64], truth: &[f64], k: usize) -> f64 {
    let top = |f: &[f64]| {
        let mut order: Vec<usize> = (0..f.len()).collect();
        order.sort_by(|&a, &b| f[b].partial_cmp(&f[a]).unwrap().then(a.cmp(&b)));
        order.truncate(k);
        order
    };
    let est = top(estimated);
    let hits = top(truth).iter().filter(|t| est.contains(t)).count();
    hits as f64 / k as f64
}

#[test]
fn heavy_hitters_survive_ldp_better_under_population_division() {
    // Footnote 2 of §4 end-to-end: derive top-k heavy hitters from the
    // released stream of a skewed large-domain workload and compare
    // precision@k across the two frameworks.
    let streams = SharedStreams::new();
    let dataset = Dataset::Taobao {
        population: 120_000,
    };
    let len = 60;
    let stream = streams.get(&dataset, 31, len);
    let truth = stream.frequency_matrix();

    // Average over a few collector seeds: at d = 117 and ε = 1 the GRR
    // estimates are extremely noisy, so a single realization's
    // precision@10 swings by ±0.05 and any single-seed threshold is a
    // knife edge against the RNG stream in use.
    let collector_seeds = [7u64, 8, 9];
    let precision_for = |kind: MechanismKind| {
        let mut spec = RunSpec::new(dataset.clone(), kind, 1.0, 10, 31);
        spec.len = len;
        let mut total = 0.0;
        for &collector_seed in &collector_seeds {
            let out_stream = {
                let config = spec.config();
                let mut mech = kind.build(&config).unwrap();
                let result = ldp_ids::runner::run_on_source(
                    mech.as_mut(),
                    Box::new(stream.replay()),
                    len,
                    ldp_ids::runner::CollectorMode::Aggregate,
                    collector_seed,
                )
                .unwrap();
                result.frequency_matrix()
            };
            let k = 10;
            total += out_stream
                .iter()
                .zip(&truth)
                .map(|(est, tru)| topk_precision(est, tru, k))
                .sum::<f64>()
                / len as f64;
        }
        total / collector_seeds.len() as f64
    };

    let lpa = precision_for(MechanismKind::Lpa);
    let lbu = precision_for(MechanismKind::Lbu);
    assert!(
        lpa > lbu,
        "population division should identify heavy hitters better: LPA {lpa} vs LBU {lbu}"
    );
    // Well above the 10/117 ≈ 0.085 random baseline (and ~4× LBU); the
    // absolute level at this (d, ε) sits near 0.45 for any exact
    // sampler, so 0.4 attests substantial recovery with real margin.
    assert!(
        lpa > 0.4,
        "LPA top-10 precision should be substantial: {lpa}"
    );
}
