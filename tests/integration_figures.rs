//! Figure-shape assertions: the paper's qualitative claims must hold on
//! quick-scale reruns of the experiment harness.
//!
//! These are the "does the reproduction reproduce" tests: each asserts
//! an ordering or trend the paper's evaluation reports, on the same
//! grids the `repro` binary runs (shrunk via `RunScale::Quick`-style
//! parameters, with fixed seeds).

use ldp_bench::experiments::ExperimentCtx;
use ldp_bench::scale::RunScale;
use ldp_bench::spec::RunSpec;
use ldp_ids::MechanismKind;
use ldp_stream::Dataset;

fn ctx() -> ExperimentCtx {
    ExperimentCtx::new(RunScale::Quick).with_seeds(vec![11, 23])
}

fn sin_dataset(population: u64, len: usize, b: f64) -> Dataset {
    Dataset::Sin {
        population,
        len,
        a: 0.05,
        b,
        h: 0.075,
    }
}

/// Fig. 4's headline: population division beats budget division, at
/// every ε, by a wide margin.
#[test]
fn population_division_dominates_budget_division() {
    let ctx = ctx();
    let dataset = sin_dataset(50_000, 100, 0.05);
    let series = ctx.sweep(
        &[MechanismKind::Lbu, MechanismKind::Lpu],
        &[0.5, 1.0, 2.0],
        |mech, eps, seed| {
            let mut s = RunSpec::new(dataset.clone(), mech, eps, 20, seed);
            s.len = 100;
            s
        },
        |out| out.error.mre,
    );
    let (lbu, lpu) = (&series[0], &series[1]);
    assert!(
        lpu.dominates_below(lbu),
        "LPU {:?} must dominate LBU {:?}",
        lpu.ys(),
        lbu.ys()
    );
    // And not marginally: the paper shows roughly an order of magnitude.
    for (b, p) in lbu.points.iter().zip(&lpu.points) {
        assert!(
            p.y * 3.0 < b.y,
            "at eps={}: LPU {} not ≪ LBU {}",
            b.x,
            p.y,
            b.y
        );
    }
}

/// Fig. 4 trend: MRE decreases with ε for every mechanism.
#[test]
fn mre_decreases_with_epsilon() {
    let ctx = ctx();
    let dataset = sin_dataset(50_000, 100, 0.05);
    let series = ctx.sweep(
        &MechanismKind::ALL,
        &[0.5, 2.5],
        |mech, eps, seed| {
            let mut s = RunSpec::new(dataset.clone(), mech, eps, 20, seed);
            s.len = 100;
            s
        },
        |out| out.error.mre,
    );
    for s in &series {
        let first = s.points.first().unwrap().y;
        let last = s.points.last().unwrap().y;
        if s.label == "lsp" {
            // LSP's error is dominated by the ε-independent approximation
            // drift (c_t − c_l)²; the paper's Fig. 4 shows it nearly flat.
            assert!(
                last < first * 1.35,
                "lsp: MRE should stay roughly flat in epsilon ({first} -> {last})"
            );
        } else {
            assert!(
                last < first * 1.05,
                "{}: MRE did not fall with epsilon ({first} -> {last})",
                s.label
            );
        }
    }
}

/// Fig. 5 trend: MRE grows with w for the uniform baselines (fewer
/// resources per timestamp).
#[test]
fn mre_grows_with_window_for_uniform_methods() {
    let ctx = ctx();
    let dataset = sin_dataset(50_000, 150, 0.05);
    let series = ctx.sweep(
        &[MechanismKind::Lbu, MechanismKind::Lpu],
        &[10.0, 50.0],
        |mech, w, seed| {
            let mut s = RunSpec::new(dataset.clone(), mech, 1.0, w as usize, seed);
            s.len = 150;
            s
        },
        |out| out.error.mre,
    );
    for s in &series {
        let at10 = s.points[0].y;
        let at50 = s.points[1].y;
        assert!(
            at50 > at10,
            "{}: MRE should grow with w ({at10} -> {at50})",
            s.label
        );
    }
}

/// Fig. 6c: error of the data-dependent methods grows with stream
/// fluctuation.
#[test]
fn adaptive_error_grows_with_fluctuation() {
    let ctx = ctx();
    let series = ctx.sweep(
        &[MechanismKind::Lpa],
        &[0.001, 0.016],
        |mech, q_std, seed| {
            let dataset = Dataset::Lns {
                population: 50_000,
                len: 100,
                p0: 0.05,
                q_std,
            };
            let mut s = RunSpec::new(dataset, mech, 1.0, 20, seed);
            s.len = 100;
            s
        },
        |out| out.error.mre,
    );
    let calm = series[0].points[0].y;
    let wild = series[0].points[1].y;
    assert!(
        wild > calm,
        "LPA error should grow with fluctuation: {calm} -> {wild}"
    );
}

/// Fig. 7's headline: LSP has excellent MRE but poor detection — its
/// AUC falls below LPA's on a moving stream.
#[test]
fn lsp_detects_worse_than_lpa() {
    let ctx = ctx();
    // A clearly moving stream (fast sinusoid) where approximations lag.
    let dataset = sin_dataset(100_000, 150, 0.1);
    let series = ctx.sweep(
        &[MechanismKind::Lsp, MechanismKind::Lpa],
        &[1.0],
        |mech, eps, seed| {
            let mut s = RunSpec::new(dataset.clone(), mech, eps, 30, seed);
            s.len = 150;
            s
        },
        |out| out.auc,
    );
    let (lsp, lpa) = (series[0].points[0].y, series[1].points[0].y);
    assert!(
        lpa > lsp,
        "LPA AUC {lpa} should beat LSP AUC {lsp} on a moving stream"
    );
}

/// Table 2 orderings at (ε = 1, w = 20): LBU = 1 < LBA < LBD (budget
/// family) and LPA < LPD ≤ LPU = LSP = 1/w (population family).
#[test]
fn table2_cfpu_orderings() {
    let ctx = ctx();
    let dataset = sin_dataset(50_000, 100, 0.05);
    let series = ctx.sweep(
        &MechanismKind::ALL,
        &[1.0],
        |mech, eps, seed| {
            let mut s = RunSpec::new(dataset.clone(), mech, eps, 20, seed);
            s.len = 100;
            s
        },
        |out| out.cfpu,
    );
    let get = |kind: MechanismKind| {
        series
            .iter()
            .find(|s| s.label == kind.name())
            .unwrap()
            .points[0]
            .y
    };
    let (lbu, lsp, lbd, lba) = (
        get(MechanismKind::Lbu),
        get(MechanismKind::Lsp),
        get(MechanismKind::Lbd),
        get(MechanismKind::Lba),
    );
    let (lpu, lpd, lpa) = (
        get(MechanismKind::Lpu),
        get(MechanismKind::Lpd),
        get(MechanismKind::Lpa),
    );
    assert!((lbu - 1.0).abs() < 1e-9);
    assert!((lsp - 0.05).abs() < 1e-9);
    assert!((lpu - 0.05).abs() < 1e-9);
    assert!(lbd > 1.0 && lba > 1.0, "adaptive budget methods pay M1+M2");
    assert!(lpd < lpu + 1e-12, "LPD {lpd} ≤ LPU {lpu}");
    assert!(lpa < lpu, "LPA {lpa} < LPU {lpu}");
    // The families sit ~w apart.
    assert!(lpu * 10.0 < lbu);
}

/// Price-of-locality sanity: centralized BD beats its local counterpart
/// LBD by a wide margin at the same ε.
#[test]
fn cdp_beats_ldp_at_same_budget() {
    use ldp_cdp::{run_cdp, CdpKind};
    use rand::SeedableRng;

    let ctx = ctx();
    let dataset = sin_dataset(50_000, 100, 0.05);
    let stream = ctx.streams.get(&dataset, 11, 100);
    let truth = stream.frequency_matrix();

    let mut cdp = CdpKind::Bd.build(1.0, 20, 2);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let released = run_cdp(&mut cdp, &mut stream.replay(), 100, &mut rng);
    let cdp_mre = ldp_metrics::mre(&released, &truth, ldp_metrics::DEFAULT_MRE_FLOOR);

    let mut spec = RunSpec::new(dataset, MechanismKind::Lbd, 1.0, 20, 11);
    spec.len = 100;
    let ldp_mre = spec.run_on(&stream).error.mre;

    assert!(
        cdp_mre * 2.0 < ldp_mre,
        "CDP BD ({cdp_mre}) should beat LDP LBD ({ldp_mre}) clearly"
    );
}
